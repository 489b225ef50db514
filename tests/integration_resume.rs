//! Checkpoint/restore and campaign-resume guarantees, end to end:
//!
//! * `run(0→T)` and `run(0→t) → snapshot → encode → decode → run(→T)`
//!   produce byte-identical outcomes for `t` mid-warm-up, at the warm-up
//!   boundary and mid-measurement — across CCAs, on a routed
//!   parking-lot topology, and under an active fault plan with AQM+ECN
//!   (the checkpoint must carry the fault-injector cursors and AQM
//!   state, not just the flows).
//! * A checkpoint of the previous format generation is refused by its
//!   version, and a run stopped by the convergence rule (whose tracker
//!   keeps only the snapshots the rule reads) resumes to the same stop.
//! * A campaign killed mid-run (torn final ledger line) resumes without
//!   re-running completed jobs, and the union ledger is equivalent to
//!   the uninterrupted one modulo wall-clock fields.

use ccsim::campaign::{
    run_campaign_supervised, CampaignJob, ExecutorOptions, Ledger, LedgerEntry, LedgerWriter,
    SupervisorOptions, Tolerances,
};
use ccsim::cca::CcaKind;
use ccsim::experiments::observe::scenario_digest;
use ccsim::experiments::{Checkpoint, ConvergenceRule, FlowGroup, RunRequest, Scenario};
use ccsim::fault::{FaultPlan, WatchdogConfig};
use ccsim::net::AqmKind;
use ccsim::resume::{fnv1a_64, ResumeError, SNAP_VERSION};
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::topo::TopologyKind;
use std::path::PathBuf;
use std::sync::Mutex;

fn base(cca: CcaKind, seed: u64) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named(format!("resume/{}/seed={seed}", cca.name()))
        .flows(vec![FlowGroup::new(cca, 4, SimDuration::from_millis(20))])
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(20);
    s.buffer_bytes = 150_000;
    s.warmup = SimDuration::from_secs(2);
    s.duration = SimDuration::from_secs(6);
    s.start_jitter = SimDuration::from_millis(200);
    s.convergence = None;
    s
}

/// The differential: full run vs a checkpoint at each of `at`, round-tripped
/// through the serialized container, then resumed to the horizon.
fn assert_resume_identical(s: &Scenario, at: &[SimTime]) {
    let full = RunRequest::new(s).execute().expect("full run").outcome;
    for &at in at {
        let case = format!("{} from {at}", s.name);
        let cp = RunRequest::new(s)
            .checkpoint_at(at)
            .capture()
            .expect("checkpoint");
        let decoded = Checkpoint::decode(&cp.encode()).expect("container round-trip");
        assert_eq!(decoded, cp, "{case}: container round-trip changed state");
        let resumed = RunRequest::resume(&decoded)
            .execute()
            .expect("resumed run")
            .outcome;
        assert_eq!(
            full.digest(),
            resumed.digest(),
            "{case}: resumed outcome digest diverged"
        );
        assert_eq!(
            full.to_json(),
            resumed.to_json(),
            "{case}: resumed outcome JSON diverged"
        );
        assert_eq!(full.events_processed, resumed.events_processed, "{case}");
    }
}

/// Mid-warm-up, the warm-up boundary (captured before the warm-up actions
/// run) and mid-measurement: every phase of the measurement cursor.
fn every_phase() -> [SimTime; 3] {
    [1, 2, 4].map(SimTime::from_secs)
}

#[test]
fn resume_is_byte_identical_across_ccas() {
    for cca in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr] {
        assert_resume_identical(&base(cca, 11), &every_phase());
    }
}

#[test]
fn resume_is_byte_identical_on_a_parking_lot_topology() {
    let mut s = base(CcaKind::Cubic, 5);
    s.topology = TopologyKind::parse("parking_lot:3").expect("parking_lot:3 parses");
    // The watchdog checks every slice, so its restored conservation base
    // is checked at every link and in every phase.
    s.watchdog = WatchdogConfig::every_slice();
    assert_resume_identical(&s, &every_phase());
}

#[test]
fn resume_is_byte_identical_under_faults_aqm_and_ecn() {
    let mut s = base(CcaKind::Reno, 9);
    s.aqm = AqmKind::parse("red").expect("red parses");
    s.ecn = true;
    // One fault before the checkpoint (cursor state must carry over) and
    // one after it (the resumed run must still fire it).
    let plan = FaultPlan::none()
        .blackout(SimTime::from_secs_f64(3.0), SimDuration::from_millis(200))
        .iid_loss(SimTime::from_secs_f64(5.0), 0.01);
    s = s.faulted(plan);
    assert_resume_identical(&s, &every_phase());
}

#[test]
fn resume_is_byte_identical_when_the_convergence_rule_stops_the_run() {
    let mut s = base(CcaKind::Reno, 4);
    s.duration = SimDuration::from_secs(40);
    s.convergence = Some(ConvergenceRule {
        window_snapshots: 3,
        tolerance: 0.05,
    });
    let full = RunRequest::new(&s).execute().expect("full run").outcome;
    assert!(full.converged, "the rule must stop this run early");
    assert_resume_identical(&s, &every_phase());
}

#[test]
fn a_version_2_checkpoint_is_refused_by_its_version() {
    assert_eq!(SNAP_VERSION, 3);
    let cp = RunRequest::new(&base(CcaKind::Reno, 2))
        .checkpoint_at(SimTime::from_secs(4))
        .capture()
        .expect("checkpoint");
    // Re-stamp a well-formed container as version 2 (whose links still
    // carried their drop-burst word): the version word follows the 8-byte
    // magic, and the trailer digest is recomputed so only the version is
    // wrong.
    let mut bytes = cp.encode();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    let covered = bytes.len() - 8;
    let digest = fnv1a_64(&bytes[..covered]);
    bytes[covered..].copy_from_slice(&digest.to_le_bytes());
    assert_eq!(
        Checkpoint::decode(&bytes),
        Err(ResumeError::Version {
            found: 2,
            expected: 3
        })
    );
}

fn campaign_jobs() -> Vec<CampaignJob> {
    let mut jobs = Vec::new();
    for cca in [CcaKind::Reno, CcaKind::Cubic] {
        for seed in [1u64, 2] {
            let mut s = base(cca, seed);
            s.warmup = SimDuration::from_secs(1);
            s.duration = SimDuration::from_secs(3);
            s = s.named(format!("resume-it/cca={}/seed={seed}", cca.name()));
            jobs.push(CampaignJob {
                name: s.name.clone(),
                axis: vec![("cca".into(), cca.name().into())],
                seed,
                scenario: s,
            });
        }
    }
    jobs
}

fn run_to_ledger(jobs: Vec<CampaignJob>, writer: LedgerWriter) {
    let opts = ExecutorOptions {
        workers: 1,
        crash_dir: None,
        profile: false,
        ..ExecutorOptions::default()
    };
    let sink = Mutex::new(writer);
    run_campaign_supervised(jobs, &opts, &SupervisorOptions::default(), |r| {
        sink.lock()
            .unwrap()
            .append(&LedgerEntry::from_result(r))
            .expect("ledger append");
    });
}

#[test]
fn killed_campaign_resumes_to_an_equivalent_union_ledger() {
    let dir = std::env::temp_dir().join(format!("ccsim-resume-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let full_path: PathBuf = dir.join("full.jsonl");
    let part_path: PathBuf = dir.join("partial.jsonl");
    let jobs = campaign_jobs();

    // The uninterrupted campaign.
    run_to_ledger(
        jobs.clone(),
        LedgerWriter::create(&full_path, "resume-it", &Tolerances::default(), &[]).unwrap(),
    );
    let full = Ledger::load(&full_path).unwrap();
    assert_eq!(full.entries.len(), 4);

    // Simulate a kill mid-write: header + two complete entries + the
    // torn front half of the third.
    let text = std::fs::read_to_string(&full_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let torn = format!(
        "{}\n{}\n{}\n{}",
        lines[0],
        lines[1],
        lines[2],
        &lines[3][..lines[3].len() / 2]
    );
    std::fs::write(&part_path, torn).unwrap();

    // Resume: the loader flags the tear, completed digests are skipped,
    // and the remaining jobs append to the same file.
    let prior = Ledger::load(&part_path).unwrap();
    assert!(prior.truncated, "torn final line must be detected");
    let done = prior.completed_digests();
    assert_eq!(done.len(), 2);
    let remaining: Vec<CampaignJob> = jobs
        .into_iter()
        .filter(|j| !done.contains(&format!("{:016x}", scenario_digest(&j.scenario))))
        .collect();
    assert_eq!(remaining.len(), 2, "exactly the unfinished jobs remain");
    run_to_ledger(remaining, LedgerWriter::resume(&part_path).unwrap());

    // The union ledger equals the uninterrupted one modulo wall clock.
    let resumed = Ledger::load(&part_path).unwrap();
    assert!(!resumed.truncated, "resume truncates the torn line away");
    let norm = |l: &Ledger| -> Vec<String> {
        let mut v: Vec<String> = l.entries.iter().map(|e| e.normalized().to_json()).collect();
        v.sort();
        v
    };
    assert_eq!(norm(&full), norm(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}
