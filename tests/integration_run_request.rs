//! The composition matrix: every subset of a `RunRequest`'s options
//! leaves the simulated run untouched.
//!
//! One tiny scenario, every subset of {observe with profile + timeline,
//! guard without a directory, checkpoint at mid-horizon, progress
//! callback}: the outcome must equal `run(&s)`'s byte for byte, every
//! subset that checkpoints must capture the same state, observed or not,
//! and resuming from that state — observed or not — must finish on the
//! same digest. One
//! failing case covers the pair the CLI used to forbid: a panic under
//! guard + observe becomes a typed error and a replayable crash bundle.

use ccsim::cca::CcaKind;
use ccsim::experiments::{
    run, slice_boundaries, CrashBundle, FlowGroup, ObserveOptions, RunRequest, Scenario, SimError,
    TimelineConfig,
};
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use std::cell::RefCell;

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
