//! Property-based fault-injection guarantees: any valid generated fault
//! plan (1) survives a JSON round-trip exactly, (2) yields byte-identical
//! outcomes when the same seeded run repeats, and (3) never trips the
//! invariant watchdog — fault injection perturbs the *traffic*, not the
//! simulator's bookkeeping.
//!
//! Runs are whole simulations, so the case count is deliberately small;
//! the deterministic integration tests cover the per-fault-kind behavior.

use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, RunRequest, Scenario};
use ccsim::fault::{FaultPlan, WatchdogConfig};
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use proptest::prelude::*;

/// Tiny but congested: 2 flows on 10 Mbps, 1 s warm-up + 2 s window.
fn tiny(seed: u64, cca: CcaKind) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("fault-prop")
        .flows(vec![FlowGroup::new(cca, 2, SimDuration::from_millis(20))])
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(10);
    s.buffer_bytes = 100_000;
    s.start_jitter = SimDuration::from_millis(200);
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(2);
    s.convergence = None;
    s
}

const HORIZON_MS: u64 = 3_000;

fn arb_cca() -> impl Strategy<Value = CcaKind> {
    (0u64..3).prop_map(|i| match i {
        0 => CcaKind::Reno,
        1 => CcaKind::Cubic,
        _ => CcaKind::Bbr,
    })
}

/// A valid plan by construction: action times inside the horizon, at most
/// one blackout (so overlaps cannot occur), probabilities in (0, 1].
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let at = || 100u64..HORIZON_MS - 600;
    let blackout = proptest::option::of((at(), 50u64..500));
    let loss = proptest::option::of((at(), 0.001f64..0.2, proptest::bool::ANY));
    let reorder = proptest::option::of((at(), 0.01f64..0.5, 1u64..10));
    let dup = proptest::option::of((at(), 0.001f64..0.2));
    let bw = proptest::option::of((at(), 2u64..10));
    let delay = proptest::option::of((at(), 1u64..30));
    (blackout, loss, reorder, dup, bw, delay).prop_map(
        |(blackout, loss, reorder, dup, bw, delay)| {
            let mut plan = FaultPlan::none();
            if let Some((at, dur)) = blackout {
                plan = plan.blackout(SimTime::from_millis(at), SimDuration::from_millis(dur));
            }
            if let Some((at, rate, burst)) = loss {
                plan = if burst {
                    plan.burst_loss(SimTime::from_millis(at), rate, 0.5)
                } else {
                    plan.iid_loss(SimTime::from_millis(at), rate)
                };
            }
            if let Some((at, rate, extra_ms)) = reorder {
                plan = plan.reorder(
                    SimTime::from_millis(at),
                    rate,
                    SimDuration::from_millis(extra_ms),
                );
            }
            if let Some((at, rate)) = dup {
                plan = plan.duplicate(SimTime::from_millis(at), rate);
            }
            if let Some((at, mbps)) = bw {
                plan = plan.set_bandwidth(SimTime::from_millis(at), Bandwidth::from_mbps(mbps));
            }
            if let Some((at, ms)) = delay {
                plan = plan.set_extra_delay(SimTime::from_millis(at), SimDuration::from_millis(ms));
            }
            plan
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Plans round-trip through their JSON form exactly (times, rates,
    /// and kinds all preserved).
    #[test]
    fn plan_json_round_trips(plan in arb_plan()) {
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.to_json(), json);
    }

    /// Any generated valid plan: the watchdog-on run completes cleanly
    /// and repeats byte-for-byte under the same seed.
    #[test]
    fn faulted_watched_runs_are_clean_and_deterministic(
        plan in arb_plan(),
        seed in 1u64..1000,
        cca in arb_cca(),
    ) {
        let scenario = tiny(seed, cca)
            .faulted(plan)
            .watched(WatchdogConfig::every_slice());
        prop_assert!(scenario.validate().is_ok());
        let run = || match RunRequest::new(&scenario).execute() {
            Ok(report) => report.outcome,
            Err(e) => panic!("watchdog/engine: {e}"),
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.digest(), b.digest());
    }
}
