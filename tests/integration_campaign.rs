//! Campaign-layer integration: parallel-vs-serial equivalence, ledger
//! durability under mid-campaign kill, and the regression sentinel.

use ccsim::campaign::{
    diff, run_campaign, Axis, CampaignSpec, DiffOptions, ExecutorOptions, FindingKind, Ledger,
    LedgerEntry, LedgerWriter, Tolerances,
};
use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, Scenario, Setting};
use ccsim::sim::{Bandwidth, SimDuration};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccsim-campaign-itest-{tag}-{}", std::process::id()))
}

/// A small two-axis campaign (2 CCAs x 2 seeds = 4 jobs) over short runs.
fn small_spec() -> CampaignSpec {
    let mut base = Scenario::edge_scale().flows(vec![FlowGroup::new(
        CcaKind::Reno,
        2,
        SimDuration::from_millis(20),
    )]);
    base.bottleneck = Bandwidth::from_mbps(10);
    base.buffer_bytes = 100_000;
    base.warmup = SimDuration::from_secs(1);
    base.duration = SimDuration::from_secs(3);
    base.start_jitter = SimDuration::from_millis(100);
    base.convergence = None;
    CampaignSpec {
        name: "itest".into(),
        base,
        axes: vec![Axis {
            param: Setting::find("cca").unwrap(),
            values: vec!["reno".into(), "cubic".into()],
        }],
        seeds: vec![1, 2],
        expectations: Vec::new(),
        tolerances: Tolerances::default(),
    }
}

fn run_with_workers(workers: usize) -> Vec<LedgerEntry> {
    let jobs = small_spec().jobs().unwrap();
    let opts = ExecutorOptions {
        workers,
        ..ExecutorOptions::default()
    };
    run_campaign(jobs, &opts, |_| {})
        .iter()
        .map(LedgerEntry::from_result)
        .collect()
}

#[test]
fn parallel_campaign_matches_serial_byte_for_byte() {
    let serial = run_with_workers(1);
    let parallel = run_with_workers(8);
    assert_eq!(serial.len(), 4);
    assert_eq!(parallel.len(), 4);
    // Per-run outcome digests are identical in input order...
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(s.ok(), "{}: {:?}", s.job, s.error);
        assert_eq!(s.outcome_digest, p.outcome_digest, "{}", s.job);
        assert_eq!(s.config_digest, p.config_digest, "{}", s.job);
    }
    // ...and the sorted, wall-clock-normalized ledger lines are
    // byte-identical (the only thing parallelism may change is timing).
    let lines = |entries: &[LedgerEntry]| -> Vec<String> {
        let mut v: Vec<String> = entries.iter().map(|e| e.normalized().to_json()).collect();
        v.sort();
        v
    };
    assert_eq!(lines(&serial), lines(&parallel));
}

#[test]
fn ledger_survives_a_mid_campaign_kill() {
    let path = temp_path("kill.jsonl");
    let spec = small_spec();
    {
        let mut writer =
            LedgerWriter::create(&path, &spec.name, &spec.tolerances, &spec.expectations).unwrap();
        for entry in run_with_workers(1) {
            writer.append(&entry).unwrap();
        }
    }
    let full = std::fs::read_to_string(&path).unwrap();
    let clean = Ledger::load(&path).unwrap();
    assert_eq!(clean.entries.len(), 4);
    assert!(!clean.truncated);

    // Simulate the process dying mid-append: tear the final line.
    std::fs::write(&path, &full[..full.len() - 30]).unwrap();
    let torn = Ledger::load(&path).unwrap();
    assert!(torn.truncated);
    assert_eq!(torn.entries.len(), 3);
    assert_eq!(torn.campaign, "itest");
    // The surviving entries still index and diff cleanly against the
    // full ledger (the missing config shows up as a coverage finding).
    let report = diff(&clean, &torn, &DiffOptions::default());
    assert_eq!(report.count(FindingKind::Missing), 1);
    assert_eq!(report.compared, 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn sentinel_is_clean_on_rerun_and_fires_on_doctored_regressions() {
    let spec = small_spec();
    let to_ledger = |entries: Vec<LedgerEntry>| -> Ledger {
        let mut l = Ledger::new(spec.name.clone(), spec.tolerances);
        l.entries = entries;
        // Pin wall-clock throughput (aggregate and per-kind) so the eps
        // gates are deterministic in this test; real reruns on shared
        // hardware use --skip-eps.
        for e in &mut l.entries {
            e.events_per_sec = 1_000_000.0;
            for (_, eps) in &mut e.eps_by_kind {
                *eps = 250_000.0;
            }
        }
        l
    };
    let baseline = to_ledger(run_with_workers(2));
    let rerun = to_ledger(run_with_workers(4));
    assert!(
        diff(&baseline, &rerun, &DiffOptions::default()).is_clean(),
        "identical re-run must be clean: {}",
        diff(&baseline, &rerun, &DiffOptions::default()).render()
    );

    // Doctor a >10% events/sec regression into one entry.
    let mut slow = rerun.clone();
    slow.entries[1].events_per_sec = baseline.entries[1].events_per_sec * 0.80;
    let report = diff(&baseline, &slow, &DiffOptions::default());
    assert_eq!(report.count(FindingKind::EpsRegression), 1);
    assert!(!report.is_clean());
    // --skip-eps silences the throughput gate but nothing else.
    let skipped = diff(
        &baseline,
        &slow,
        &DiffOptions {
            eps_tol: None,
            check_eps: false,
        },
    );
    assert!(skipped.is_clean());

    // Doctor an outcome-digest flip: always fatal, even with --skip-eps.
    let mut broken = rerun.clone();
    broken.entries[0].outcome_digest = Some("0000000000000000".into());
    let report = diff(
        &baseline,
        &broken,
        &DiffOptions {
            eps_tol: None,
            check_eps: false,
        },
    );
    assert_eq!(report.count(FindingKind::DeterminismBreak), 1);
    assert!(!report.is_clean());
}
