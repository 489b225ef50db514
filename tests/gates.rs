//! The gate table (`baselines/gates.json`) and its evaluator: every row
//! passes its measured value and fails its trip value when read through
//! its artefact's reader, a missing metric fails its row instead of
//! reading 0, and the jobs with rows are exactly the CI jobs that call
//! `ccsim gates`, each naming its rows' artefacts.

use ccsim::campaign::gates::{self, Artefact, Bound, Gate};
use ccsim::campaign::{Ledger, LedgerEntry};
use ccsim::sim::json::Json;
use std::path::PathBuf;

fn table() -> Vec<Gate> {
    gates::table().expect("baselines/gates.json parses")
}

/// A committed profiled ledger whose profile predates the lane and
/// revival counters, so it carries none of their keys.
const PROFILED_LEDGER: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/baselines/megascale-smoke.ledger.jsonl"
);

fn profiled_ledger() -> Ledger {
    Ledger::load(std::path::Path::new(PROFILED_LEDGER)).unwrap()
}

/// Set one ledger metric (the names `gates` resolves) on the first entry.
fn set_ledger_metric(ledger: &mut Ledger, name: &str, x: u64) {
    let manifest = ledger.entries[0].manifest.as_mut().unwrap();
    if name == "events_processed" {
        manifest.events_processed = x;
        return;
    }
    let p = manifest.profile.as_mut().unwrap();
    match name {
        "wheel.sends_now" => p.wheel.sends_now = x,
        "wheel.lane_merges" => p.wheel.lane_merges = x,
        "wheel.revived" => p.wheel.revived = x,
        "wheel.cancellable" => p.wheel.cancellable_scheduled = x,
        _ => {
            let pool = name.strip_prefix("pool:").expect(name);
            let gauge = p.memory.iter_mut().find(|g| g.name == pool).expect(pool);
            gauge.bytes = x;
        }
    }
}

/// `gate`'s artefact with its value at `value`: the metric alone, or the
/// metric over a `per` of one million.
fn artefact_reading(gate: &Gate, value: f64) -> Artefact {
    let per = gate.per.as_ref().map(|p| (p.as_str(), 1e6));
    let metric = (
        gate.metric.as_str(),
        if per.is_some() { value * 1e6 } else { value },
    );
    let pairs: Vec<(&str, f64)> = std::iter::once(metric).chain(per).collect();
    let file = gate.artefact.as_str();
    if file.ends_with(".jsonl") {
        let mut ledger = profiled_ledger();
        for (name, x) in pairs {
            set_ledger_metric(&mut ledger, name, x.round() as u64);
        }
        return Artefact::Ledger(ledger);
    }
    let text: String = if file.ends_with(".txt") {
        pairs
            .iter()
            .map(|(k, x)| format!("{k} {x} unit\n"))
            .collect()
    } else {
        let fields: Vec<String> = pairs.iter().map(|(k, x)| format!("\"{k}\":{x}")).collect();
        format!("{{{}}}", fields.join(","))
    };
    Artefact::parse(file, &text).unwrap()
}

#[test]
fn every_row_passes_its_measured_value_and_trips_on_its_trip_value() {
    let table = table();
    assert!(!table.is_empty());
    for (i, g) in table.iter().enumerate() {
        assert!(
            table[i + 1..].iter().all(|h| h.name != g.name),
            "{} is named twice",
            g.name
        );
        for text in [&g.job, &g.artefact, &g.margin, &g.set_by, &g.why] {
            assert!(!text.trim().is_empty(), "{}: an empty field", g.name);
        }
        let between = match g.bound {
            Bound::Max(b) => g.measured <= b && b < g.trips_on,
            Bound::Min(b) => g.trips_on < b && b <= g.measured,
        };
        assert!(between, "{}: bound not between its two values", g.name);
        // Read through the artefact's own reader, not just compared.
        let read = |x: f64| g.read(&artefact_reading(g, x)).unwrap();
        let (ok, trip) = (read(g.measured), read(g.trips_on));
        assert!(g.bound.admits(ok), "{}: reads {ok}", g.name);
        assert!(!g.bound.admits(trip), "{}: reads {trip}", g.name);
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim-gates-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_missing_metric_or_artefact_fails_its_row_and_names_it() {
    let table = table();
    let ratio = table
        .iter()
        .find(|g| g.per.as_deref() == Some("tcp.scoreboard.ns_per_ack_sack_64"))
        .expect("the scoreboard scaling row");
    // Benchmark stdout with the small window's line and no large one.
    let dir = temp_dir("missing");
    let stdout = "tcp.scoreboard.ns_per_ack_sack_64                 61.571045 ns\n\
                  runs_failed 0 count\n\
                  {\"correct\":true,\"attempted\":3,\"failed\":0}\n";
    std::fs::write(dir.join(&ratio.artefact), stdout).unwrap();
    let verdicts = gates::evaluate(&table, &ratio.job, &dir).unwrap();
    let rendered = gates::render(&verdicts);
    let _ = std::fs::remove_dir_all(&dir);
    for v in &verdicts {
        let line = rendered
            .lines()
            .find(|l| l.starts_with(&v.gate.name))
            .unwrap();
        let here = v.gate.artefact == ratio.artefact;
        match (&v.value, here) {
            // The file's other rows read what it holds.
            (Ok(_), true) => assert!(v.passed(), "{line}"),
            (Err(e), _) => {
                assert!(!v.passed() && line.contains("FAIL"), "{line}");
                let named = if here {
                    "tcp.scoreboard.ns_per_ack_sack_8192"
                } else {
                    &v.gate.artefact
                };
                assert!(e.contains(named), "{line}");
            }
            (Ok(x), false) => panic!("{} read {x} from a file that is not there", v.gate.name),
        }
    }
    assert!(verdicts
        .iter()
        .any(|v| v.gate.name == ratio.name && !v.passed()));
    // A zero denominator is not an infinite ratio that a min bound admits.
    let text =
        "tcp.scoreboard.ns_per_ack_sack_8192 50 ns\ntcp.scoreboard.ns_per_ack_sack_64 0 ns\n";
    let zero = Artefact::parse("x.txt", text).unwrap();
    let err = ratio.read(&zero).unwrap_err();
    assert!(
        err.contains("tcp.scoreboard.ns_per_ack_sack_64: reads 0"),
        "{err}"
    );
}

#[test]
fn ledger_metrics_resolve_through_the_typed_readers() {
    let table = table();
    let ledger = Artefact::Ledger(profiled_ledger());
    let lane = table
        .iter()
        .find(|g| g.metric == "wheel.lane_merges")
        .expect("the lane row");
    // A misspelt metric fails, naming itself; it does not read 0.
    let misspelt = Gate {
        metric: "wheel.lane_merge".into(),
        ..lane.clone()
    };
    let err = misspelt.read(&ledger).unwrap_err();
    assert!(err.contains("wheel.lane_merge:"), "{err}");
    assert!(ledger.metric("pool:net/link_queue").is_err());
    // The writer leaves `wheel_revived` out when it is zero, and
    // `Profile::from_value` reads the absent key as 0.
    let text = std::fs::read_to_string(PROFILED_LEDGER).unwrap();
    assert!(!text.contains("wheel_revived"));
    assert_eq!(ledger.metric("wheel.revived"), Ok(0.0));
    assert_eq!(ledger.metric("wheel.cancellable"), Ok(1_080_390.0));
    assert_eq!(ledger.metric("pool:net/link_queues"), Ok(10_225_320.0));
    // So a profile without lane counters fails both lane rows …
    let lane_rows = table
        .iter()
        .filter(|g| g.metric.starts_with("wheel.") && g.per.is_some());
    for g in lane_rows.filter(|g| g.metric != "wheel.revived") {
        let passed = matches!(g.read(&ledger), Ok(x) if g.bound.admits(x));
        assert!(!passed, "{}", g.name);
    }
    // … and one with sends but no merges does not load: the writer puts
    // both down or neither, so the missing one is not a zero.
    let sends_only = text.replacen(
        "\"wheel_cancellable\":1080390,",
        "\"wheel_cancellable\":1080390,\"wheel_sends_now\":90,",
        1,
    );
    assert_ne!(sends_only, text);
    let err = Artefact::parse(&lane.artefact, &sends_only).unwrap_err();
    assert!(err.contains("does not parse"), "{err}");
    let entry = Json::parse(sends_only.lines().nth(1).unwrap()).unwrap();
    let err = LedgerEntry::from_value(&entry).unwrap_err();
    assert!(err.message.contains("wheel_lane_merges"), "{err}");
}

#[test]
fn the_jobs_with_rows_are_the_jobs_that_call_the_evaluator() {
    let ci = include_str!("../.github/workflows/ci.yml");
    let (mut job, mut calls) = (None, Vec::new());
    // Each job's name and the text of its steps.
    let mut steps: Vec<(&str, String)> = Vec::new();
    for line in ci.lines().skip_while(|l| *l != "jobs:").skip(1) {
        let name = line.strip_prefix("  ").and_then(|l| l.strip_suffix(':'));
        if let Some(name) = name.filter(|n| !n.starts_with(' ')) {
            job = Some(name);
            steps.push((name, String::new()));
        } else if let Some((_, text)) = steps.last_mut() {
            text.push_str(line);
            text.push('\n');
        }
        let mut words = line.split_whitespace().skip_while(|w| *w != "gates");
        if line.contains("ccsim") && words.next().is_some() {
            let called = words.next().expect("gates <job> <dir>");
            assert_eq!(Some(called), job, "{line}");
            calls.push(called);
        }
    }
    let mut sorted = calls.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        calls.len(),
        "a job calls gates twice: {calls:?}"
    );
    let table = table();
    assert_eq!(sorted, gates::jobs(&table));
    // A row's artefact is a file its own job's steps name, so renaming
    // one on either side fails here rather than only in CI.
    for g in &table {
        let (_, text) = steps.iter().find(|(name, _)| *name == g.job).unwrap();
        assert!(
            text.contains(&g.artefact),
            "{}: job {} never names {}",
            g.name,
            g.job,
            g.artefact
        );
    }
}
