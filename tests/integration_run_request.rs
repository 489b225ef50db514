//! The composition matrix: every subset of a `RunRequest`'s options
//! leaves the simulated run untouched.
//!
//! One tiny scenario, every subset of {observe with profile + timeline,
//! guard without a directory, checkpoint at mid-horizon, progress
//! callback}: the outcome must equal `run(&s)`'s byte for byte, every
//! subset that checkpoints must capture the same state, observed or not,
//! and resuming from that state — observed or not — must finish on the
//! same digest. A lossy scenario cut into 7 ms slices checks the same
//! agreement at every one of its 501 boundaries. One
//! failing case covers the pair the CLI used to forbid: a panic under
//! guard + observe becomes a typed error and a replayable crash bundle.
//!
//! Five observed runs pin the slice walk itself — a fresh run, a resume
//! from the warm-up and from the measurement phase, a zero warm-up, and a
//! slice that does not divide the warm-up: the progress callback sees
//! exactly `slice_boundaries(s)` from the start or restore point, and the
//! dump's `ccsim_phase_calls_total` series count each runner phase.

use ccsim::cca::CcaKind;
use ccsim::experiments::{
    run, slice_boundaries, CrashBundle, FlowGroup, ObserveOptions, RunRequest, Scenario, SimError,
    TimelineConfig,
};
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const OBSERVE: u8 = 1;
const GUARD: u8 = 2;
const CHECKPOINT: u8 = 4;
const PROGRESS: u8 = 8;

/// 2 reno flows, 1 s warm-up + 4 s measurement at 1 s slices.
fn tiny() -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("request-matrix")
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            2,
            SimDuration::from_millis(20),
        )])
        .seed(11);
    s.bottleneck = Bandwidth::from_mbps(10);
    s.buffer_bytes = 100_000;
    s.start_jitter = SimDuration::from_millis(100);
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(4);
    s.convergence = None;
    s
}

fn everything() -> ObserveOptions {
    ObserveOptions {
        timeline: Some(TimelineConfig::default()),
        ..ObserveOptions::profiled()
    }
}

#[test]
fn every_option_subset_reproduces_the_plain_run() {
    let s = tiny();
    let plain = run(&s);
    let mid = SimTime::from_secs(3); // mid-measurement slice boundary
    let boundaries = slice_boundaries(&s);

    // One captured state: no observer state rides in a snapshot.
    let mut checkpoint = None;
    let mut events_at_mid = None;
    for mask in 0..16u8 {
        let has = |bit: u8| mask & bit != 0;
        let slices = RefCell::new(Vec::new());
        let mut request = RunRequest::new(&s);
        if has(OBSERVE) {
            request = request.observe(everything());
        }
        if has(GUARD) {
            request = request.guard(None);
        }
        if has(CHECKPOINT) {
            request = request.checkpoint_at(mid);
        }
        if has(PROGRESS) {
            request =
                request.on_progress(|p| slices.borrow_mut().push((p.now, p.events_processed)));
        }
        let report = request
            .execute()
            .unwrap_or_else(|e| panic!("mask {mask:#06b}: {e}"));

        assert_eq!(report.outcome.digest(), plain.digest(), "mask {mask:#06b}");
        assert_eq!(
            report.outcome.to_json(),
            plain.to_json(),
            "mask {mask:#06b}"
        );

        assert_eq!(report.manifest.is_some(), has(OBSERVE), "mask {mask:#06b}");
        assert_eq!(
            report.prometheus.is_some(),
            has(OBSERVE),
            "mask {mask:#06b}"
        );
        assert_eq!(report.timeline.is_some(), has(OBSERVE), "mask {mask:#06b}");
        if let Some(m) = &report.manifest {
            assert_eq!(m.outcome_digest, format!("{:016x}", plain.digest()));
            assert!(m.profile.is_some(), "mask {mask:#06b}: profile requested");
            assert_eq!(
                m.checkpoint_bytes > 0,
                has(CHECKPOINT),
                "mask {mask:#06b}: manifest checkpoint size"
            );
        }

        assert_eq!(
            report.checkpoint.is_some(),
            has(CHECKPOINT),
            "mask {mask:#06b}"
        );
        if let Some(cp) = report.checkpoint {
            assert_eq!(cp.taken_at_nanos, mid.as_nanos());
            let first = checkpoint.get_or_insert(cp.clone());
            assert_eq!(
                cp.state_digest(),
                first.state_digest(),
                "mask {mask:#06b}: captured state"
            );
        }

        let slices = slices.into_inner();
        if has(PROGRESS) {
            let seen: Vec<SimTime> = slices.iter().map(|&(now, _)| now).collect();
            assert_eq!(seen, boundaries, "mask {mask:#06b}: one callback per slice");
            events_at_mid = slices.iter().find(|&&(now, _)| now == mid).map(|&(_, e)| e);
        } else {
            assert!(slices.is_empty());
        }
    }

    let cp = checkpoint.expect("half the subsets checkpoint");
    // `capture()` stops at the same state `execute()` passed through.
    let stopped = RunRequest::new(&s).checkpoint_at(mid).capture().unwrap();
    assert_eq!(stopped.state_digest(), cp.state_digest());

    // Resume it unobserved and observed: the same run either way.
    let since_restore = plain.events_processed - events_at_mid.expect("mid is a boundary");
    let resumed = RunRequest::resume(&cp).execute().unwrap();
    assert_eq!(resumed.outcome.to_json(), plain.to_json());
    assert!(resumed.manifest.is_none());

    let resumed = RunRequest::resume(&cp)
        .observe(everything())
        .execute()
        .unwrap();
    assert_eq!(resumed.outcome.to_json(), plain.to_json());
    let m = resumed.manifest.expect("observed resume has a manifest");
    assert_eq!(m.outcome_digest, format!("{:016x}", plain.digest()));
    assert_eq!(m.events_processed, plain.events_processed);
    // The resumed segment's rate and per-kind counts cover only the events
    // it dispatched: the donor's events before the checkpoint are not
    // credited to it.
    let credited = m.events_per_sec * m.dispatch_secs;
    assert!(
        (credited - since_restore as f64).abs() <= 1e-6 * since_restore as f64,
        "manifest credits {credited} events, {since_restore} were dispatched since restore"
    );
    let by_kind: u64 = m.events_by_kind.iter().map(|(_, n)| n).sum();
    assert_eq!(
        by_kind, since_restore,
        "events_by_kind counts from the restore"
    );
}

#[test]
fn a_panic_under_guard_and_observe_becomes_a_replayable_bundle() {
    let s = tiny();
    let base = std::env::temp_dir().join(format!("ccsim-request-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let failure = RunRequest::new(&s)
        .guard(Some(base.clone()))
        .observe(everything())
        .on_progress(|p| {
            if p.now >= SimTime::from_secs(2) {
                panic!("forced panic at {}", p.now);
            }
        })
        .execute()
        .unwrap_err();
    assert!(matches!(failure.error, SimError::Panic { .. }), "{failure}");
    assert!(failure.write_error.is_none());

    let bundle = CrashBundle::load(&failure.bundle.expect("bundle written")).unwrap();
    assert_eq!(bundle.error_class, "panic");
    assert!(bundle.error.contains("forced panic"), "{}", bundle.error);
    // The panic came from the caller's callback, not the simulation.
    assert_eq!(bundle.replay().unwrap().digest(), run(&s).digest());
    let _ = std::fs::remove_dir_all(&base);
}

/// `ccsim_phase_calls_total` by phase, as an observed run's dump carries
/// them.
fn phase_calls(prometheus: &str) -> BTreeMap<String, u64> {
    prometheus
        .lines()
        .filter_map(|l| l.strip_prefix("ccsim_phase_calls_total{phase=\""))
        .map(|rest| {
            let (phase, n) = rest.split_once("\"} ").expect("labelled sample");
            (phase.to_string(), n.parse().expect("integer count"))
        })
        .collect()
}

fn calls(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
    pairs.iter().map(|&(p, n)| (p.to_string(), n)).collect()
}

/// Run `request` observed; return the instants its progress callback saw
/// and the phase-call counts of its dump.
fn slices_and_phases(request: RunRequest<'_>) -> (Vec<SimTime>, BTreeMap<String, u64>) {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let sink = seen.clone();
    let report = request
        .observe(ObserveOptions::default())
        .on_progress(move |p| sink.borrow_mut().push(p.now))
        .execute()
        .unwrap();
    let prometheus = report.prometheus.expect("observed");
    let seen = seen.borrow().clone();
    (seen, phase_calls(&prometheus))
}

/// The slice boundaries of `s` after `from`: what a run restored at
/// `from` still walks.
fn boundaries_after(s: &Scenario, from: SimTime) -> Vec<SimTime> {
    slice_boundaries(s)
        .into_iter()
        .filter(|&t| t > from)
        .collect()
}

#[test]
fn a_fresh_run_walks_every_boundary_once() {
    let s = tiny();
    let (seen, phases) = slices_and_phases(RunRequest::new(&s));
    assert_eq!(seen, slice_boundaries(&s));
    assert_eq!(
        phases,
        calls(&[
            ("build", 1),
            ("warmup", 1),
            ("dispatch", 5),
            ("measure_slice", 4),
            ("collect", 1),
        ])
    );
}

#[test]
fn a_warmup_resume_walks_the_rest_of_the_warmup_then_measures() {
    // 3 s warm-up + 4 s measurement at 1 s slices: one interior warm-up
    // boundary, and the warm-up boundary itself (captured before the
    // warm-up-boundary actions run).
    let mut s = tiny();
    s.warmup = SimDuration::from_secs(3);
    for (at, dispatched) in [(1, 6), (3, 4)] {
        let at = SimTime::from_secs(at);
        let cp = RunRequest::new(&s).checkpoint_at(at).capture().unwrap();
        let (seen, phases) = slices_and_phases(RunRequest::resume(&cp));
        assert_eq!(seen, boundaries_after(&s, at), "resumed at {at}");
        assert_eq!(
            phases,
            calls(&[
                ("build", 1),
                ("warmup", 1),
                ("dispatch", dispatched),
                ("measure_slice", 4),
                ("collect", 1),
            ]),
            "resumed at {at}"
        );
    }
}

#[test]
fn a_measurement_resume_has_no_warmup_phase() {
    let s = tiny();
    let at = SimTime::from_secs(3);
    let cp = RunRequest::new(&s).checkpoint_at(at).capture().unwrap();
    let (seen, phases) = slices_and_phases(RunRequest::resume(&cp));
    assert_eq!(seen, boundaries_after(&s, at));
    assert_eq!(
        phases,
        calls(&[
            ("build", 1),
            ("dispatch", 2),
            ("measure_slice", 2),
            ("collect", 1),
        ])
    );
}

#[test]
fn a_zero_warmup_run_measures_from_the_first_slice() {
    let mut s = tiny();
    s.warmup = SimDuration::ZERO;
    s.start_jitter = SimDuration::ZERO;
    let (seen, phases) = slices_and_phases(RunRequest::new(&s));
    assert_eq!(seen, [1, 2, 3, 4].map(SimTime::from_secs));
    assert_eq!(seen, slice_boundaries(&s));
    assert_eq!(
        phases,
        calls(&[
            ("build", 1),
            ("warmup", 1),
            ("dispatch", 4),
            ("measure_slice", 4),
            ("collect", 1),
        ])
    );
}

#[test]
fn a_slice_that_does_not_divide_the_warmup_is_cut_at_the_boundary() {
    let mut s = tiny();
    s.snapshot_interval = SimDuration::from_millis(300);
    s.duration = SimDuration::from_secs(1);
    let (seen, phases) = slices_and_phases(RunRequest::new(&s));
    let ms = |v: [u64; 8]| v.map(|m| SimTime::ZERO + SimDuration::from_millis(m));
    assert_eq!(seen, ms([300, 600, 900, 1000, 1300, 1600, 1900, 2000]));
    assert_eq!(seen, slice_boundaries(&s));
    assert_eq!(
        phases,
        calls(&[
            ("build", 1),
            ("warmup", 1),
            ("dispatch", 8),
            ("measure_slice", 4),
            ("collect", 1),
        ])
    );
}

/// No observer state rides in a checkpoint: on a lossy scenario cut into
/// short slices (so many boundaries fall inside a drop burst), an
/// observed run and an unobserved one capture the same body at every
/// boundary.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy: ~1000 runs; exercised in release")]
fn observed_and_unobserved_runs_capture_the_same_state_at_every_boundary() {
    let mut s = Scenario::edge_scale()
        .named("burst-boundaries")
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            8,
            SimDuration::from_millis(20),
        )])
        .seed(3);
    s.bottleneck = Bandwidth::from_mbps(20);
    s.buffer_bytes = 30_000;
    s.start_jitter = SimDuration::from_millis(100);
    s.warmup = SimDuration::from_millis(500);
    s.duration = SimDuration::from_secs(3);
    s.snapshot_interval = SimDuration::from_millis(7);
    s.convergence = None;

    let boundaries = slice_boundaries(&s);
    assert_eq!(boundaries.len(), 501);
    let differing: Vec<SimTime> = boundaries
        .iter()
        .copied()
        .filter(|&at| {
            let plain = RunRequest::new(&s).checkpoint_at(at).capture().unwrap();
            let observed = RunRequest::new(&s)
                .observe(everything())
                .checkpoint_at(at)
                .capture()
                .unwrap();
            plain.body != observed.body
        })
        .collect();
    assert!(
        differing.is_empty(),
        "observed and unobserved bodies differ at {} of {} boundaries, first at {}",
        differing.len(),
        boundaries.len(),
        differing[0]
    );
}
