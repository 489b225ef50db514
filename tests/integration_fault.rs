//! Whole-system fault-injection guarantees: each fault kind perturbs the
//! run in the physically expected direction, faulted runs stay seed-
//! deterministic, the invariant watchdog is digest-inert and stays clean
//! on healthy runs, and a caught failure round-trips through a crash
//! bundle into an identical replay.

use ccsim::cca::CcaKind;
use ccsim::experiments::{
    run, CrashBundle, FlowGroup, RunOutcome, RunRequest, Scenario, ScenarioError, SimError,
};
use ccsim::fault::{FaultPlan, WatchdogConfig};
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use std::path::PathBuf;

/// The plain request, with its failure as the typed error.
fn execute(s: &Scenario) -> Result<RunOutcome, SimError> {
    Ok(RunRequest::new(s).execute()?.outcome)
}

/// 4 Reno flows on 20 Mbps: small enough for CI, congested enough that
/// loss/blackout effects are unmistakable. Warm-up 2 s, measure 10 s.
fn small(seed: u64, cca: CcaKind) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("fault-small")
        .flows(vec![FlowGroup::new(cca, 4, SimDuration::from_millis(20))])
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(20);
    s.buffer_bytes = 250_000;
    s.start_jitter = SimDuration::from_millis(300);
    s.warmup = SimDuration::from_secs(2);
    s.duration = SimDuration::from_secs(10);
    s.convergence = None;
    s
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim-fault-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mid-measurement blackout longer than any RTO must force genuine
/// retransmission timeouts that the clean run does not have.
#[test]
fn blackout_forces_rtos() {
    let clean = run(&small(3, CcaKind::Reno));
    let faulted = run(&small(3, CcaKind::Reno)
        .faulted(FaultPlan::none().blackout(SimTime::from_secs(6), SimDuration::from_secs(2))));
    let clean_rtos: u64 = clean.flows.iter().map(|f| f.rtos).sum();
    let faulted_rtos: u64 = faulted.flows.iter().map(|f| f.rtos).sum();
    assert!(
        faulted_rtos > clean_rtos,
        "blackout produced no extra RTOs ({clean_rtos} -> {faulted_rtos})"
    );
    // Two seconds of the ten-second window were dark: aggregate
    // throughput must drop materially.
    assert!(
        faulted.aggregate_throughput_mbps() < 0.9 * clean.aggregate_throughput_mbps(),
        "blackout barely moved throughput: {} vs {}",
        faulted.aggregate_throughput_mbps(),
        clean.aggregate_throughput_mbps()
    );
}

/// Injected i.i.d. loss must push throughput down (the Mathis direction:
/// higher p, lower rate) and show up in the aggregate loss rate.
#[test]
fn iid_loss_cuts_throughput_in_the_mathis_direction() {
    let clean = run(&small(4, CcaKind::Reno));
    let faulted =
        run(&small(4, CcaKind::Reno)
            .faulted(FaultPlan::none().iid_loss(SimTime::from_secs(1), 0.05)));
    assert!(
        faulted.aggregate_loss_rate > 0.03,
        "injected 5% loss, measured {}",
        faulted.aggregate_loss_rate
    );
    assert!(
        faulted.aggregate_throughput_mbps() < 0.8 * clean.aggregate_throughput_mbps(),
        "5% loss should slash Reno throughput: {} vs {} Mbps",
        faulted.aggregate_throughput_mbps(),
        clean.aggregate_throughput_mbps()
    );
}

/// The same seeded faulted scenario twice: byte-identical outcome JSON.
#[test]
fn faulted_runs_are_seed_deterministic() {
    let plan = FaultPlan::none()
        .iid_loss(SimTime::from_secs(3), 0.02)
        .reorder(SimTime::from_secs(5), 0.1, SimDuration::from_millis(5))
        .duplicate(SimTime::from_secs(7), 0.05)
        .blackout(SimTime::from_secs(9), SimDuration::from_millis(500));
    let a = run(&small(11, CcaKind::Cubic).faulted(plan.clone()));
    let b = run(&small(11, CcaKind::Cubic).faulted(plan));
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.digest(), b.digest());
}

/// Watchdog inertness: enabling every-slice checks changes nothing about
/// the outcome, for every CCA family, fault plan present or not.
#[test]
fn watchdog_is_digest_inert() {
    for cca in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr] {
        let plan = FaultPlan::none().iid_loss(SimTime::from_secs(4), 0.01);
        let plain = run(&small(42, cca).faulted(plan.clone()));
        let watched = execute(
            &small(42, cca)
                .faulted(plan)
                .watched(WatchdogConfig::every_slice()),
        )
        .unwrap_or_else(|e| panic!("{cca}: watchdog tripped on a healthy run: {e}"));
        assert_eq!(plain.to_json(), watched.to_json(), "{cca}");
        assert_eq!(plain.digest(), watched.digest(), "{cca}");
    }
}

/// Healthy faulted runs (blackout + loss + reorder) keep every invariant:
/// the watchdog stays clean across CCA families.
#[test]
fn watchdog_stays_clean_under_faults() {
    let plan = FaultPlan::none()
        .blackout(SimTime::from_secs(4), SimDuration::from_millis(800))
        .iid_loss(SimTime::from_secs(6), 0.03)
        .reorder(SimTime::from_secs(8), 0.2, SimDuration::from_millis(3));
    for (seed, cca) in [(1, CcaKind::Reno), (2, CcaKind::Cubic), (3, CcaKind::Bbr)] {
        let s = small(seed, cca)
            .faulted(plan.clone())
            .watched(WatchdogConfig::every_slice());
        execute(&s).unwrap_or_else(|e| panic!("{cca}: {e}"));
    }
}

/// The crash pipeline end to end: a forced panic is caught, the bundle is
/// written and loadable, and replaying it twice gives identical digests —
/// the bundle really does capture the full configuration.
#[test]
fn forced_panic_round_trips_through_a_crash_bundle() {
    let base = temp_dir("bundle");
    let scenario =
        small(77, CcaKind::Reno).faulted(FaultPlan::none().iid_loss(SimTime::from_secs(3), 0.02));
    let failure = RunRequest::new(&scenario)
        .guard(Some(base.clone()))
        .on_progress(|p| {
            if p.now >= SimTime::from_secs(5) {
                panic!("forced panic at {}", p.now);
            }
        })
        .execute()
        .unwrap_err();
    assert!(matches!(failure.error, SimError::Panic { .. }));
    let dir = failure.bundle.expect("bundle written");

    let bundle = CrashBundle::load(&dir).unwrap();
    assert_eq!(bundle.error_class, "panic");
    assert_eq!(bundle.scenario.seed, 77);
    assert_eq!(bundle.scenario.fault, scenario.fault);

    // The panic was injected from outside the simulation: the captured
    // scenario replays clean, and deterministically.
    let a = bundle.replay().unwrap();
    let b = bundle.replay().unwrap();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.digest(), b.digest());
    // And the replay matches a direct run of the original scenario.
    let direct = run(&scenario);
    assert_eq!(direct.digest(), a.digest());
    let _ = std::fs::remove_dir_all(&base);
}

/// An invariant violation aborts the run as a typed error (not a panic)
/// and its bundle carries the watchdog report.
#[test]
fn scenario_and_engine_failures_stay_typed() {
    // Invalid scenario: typed ScenarioError, surfaced before building.
    let bad = Scenario::edge_scale().named("no-flows");
    match execute(&bad) {
        Err(SimError::Scenario(_)) => {}
        other => panic!("expected Scenario error, got {other:?}"),
    }
    // The panicking entry point still panics with the same message.
    let caught = std::panic::catch_unwind(|| run(&bad)).unwrap_err();
    let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("no flows"), "panic message: {msg}");
}

/// Group counts are outside input. A u32 sum of these wraps to 0 (read as
/// "no flows") or to 1 (passed validation, then indexed past the one-flow
/// topology inside `try_build`); the total is rejected as itself, before
/// any per-flow allocation.
#[test]
fn flow_totals_past_u32_are_a_typed_error() {
    for extra in [1, 2] {
        let reno = |n| FlowGroup::new(CcaKind::Reno, n, SimDuration::from_millis(20));
        let huge = Scenario::edge_scale().flows(vec![reno(u32::MAX), reno(extra)]);
        match execute(&huge) {
            Err(SimError::Scenario(ScenarioError::TooManyFlows { total, .. })) => {
                assert_eq!(total, u64::from(u32::MAX) + u64::from(extra));
            }
            other => panic!("expected TooManyFlows, got {other:?}"),
        }
    }
}
