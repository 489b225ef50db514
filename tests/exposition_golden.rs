//! The Prometheus dump's exact layout: family order, HELP text, label
//! order, bucket layout and every count that is a pure function of the
//! scenario and seed. `tests/golden/perf-reno4-quick.prom` is the dump
//! of `ccsim perf --flows reno:4:20 --bw 20 --fidelity quick` (an
//! observed, profiled run) with its wall-clock values masked. A moved
//! line is a format change: regenerate the file only on purpose, with
//! the reason in the change that does.

use std::process::Command;

/// Families whose values are wall-clock readings (or, for
/// `ccsim_mem_bytes`, allocator capacities and struct sizes): their
/// values are masked, and the slice histogram's `_bucket` lines, whose
/// number follows the timings, are dropped.
const MASKED: [&str; 7] = [
    "ccsim_phase_wall_nanos_total",
    "ccsim_slice_wall_nanos",
    "ccsim_events_per_sec",
    "ccsim_sim_wall_ratio",
    "ccsim_prof_sampled_nanos_total",
    "ccsim_dispatch_nanos_total",
    "ccsim_mem_bytes",
];

fn masked(exposition: &str) -> Vec<String> {
    exposition
        .lines()
        .filter(|l| !l.starts_with("ccsim_slice_wall_nanos_bucket"))
        .map(|l| match l.rsplit_once(' ') {
            Some((series, _)) if MASKED.iter().any(|f| l.starts_with(f)) => format!("{series} *"),
            _ => l.to_string(),
        })
        .collect()
}

#[test]
fn a_profiled_dump_matches_the_golden_line_for_line() {
    let dir = std::env::temp_dir().join(format!("ccsim-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join("perf.prom");
    let out = Command::new(env!("CARGO_BIN_EXE_ccsim"))
        .args("perf --flows reno:4:20 --bw 20 --fidelity quick --quiet --metrics".split(' '))
        .arg(&prom)
        .output()
        .expect("spawn ccsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = std::fs::read_to_string(&prom).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let golden = include_str!("golden/perf-reno4-quick.prom");
    let got = masked(&dump);
    for (n, (want, got)) in golden.lines().zip(&got).enumerate() {
        assert_eq!(got, want, "line {} of the masked dump", n + 1);
    }
    assert_eq!(got.len(), golden.lines().count(), "number of lines");
}
