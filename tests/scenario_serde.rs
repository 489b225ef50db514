//! A cloned `Scenario` is the same experiment: the clone keeps every field
//! and runs to the same per-flow throughputs and event count. The scenario
//! JSON document's round-trip is pinned in `tests/json_artefacts.rs`.

use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, Scenario};
use ccsim::sim::SimDuration;

#[test]
fn scenario_clone_preserves_every_field() {
    let s = Scenario::core_scale()
        .flows(vec![
            FlowGroup::new(CcaKind::Bbr, 7, SimDuration::from_millis(100)),
            FlowGroup::new(CcaKind::Reno, 3, SimDuration::from_millis(20)),
        ])
        .seed(99)
        .named("clone-me");
    let c = s.clone();
    assert_eq!(c.name, s.name);
    assert_eq!(c.bottleneck, s.bottleneck);
    assert_eq!(c.buffer_bytes, s.buffer_bytes);
    assert_eq!(c.flows, s.flows);
    assert_eq!(c.seed, s.seed);
    assert_eq!(c.warmup, s.warmup);
    assert_eq!(c.duration, s.duration);
}

#[test]
fn identical_scenarios_run_identically_via_clone() {
    let mut s = Scenario::edge_scale()
        .flows(vec![FlowGroup::new(
            CcaKind::Cubic,
            3,
            SimDuration::from_millis(20),
        )])
        .seed(5);
    s.bottleneck = ccsim::sim::Bandwidth::from_mbps(15);
    s.buffer_bytes = 300_000;
    s.warmup = SimDuration::from_secs(2);
    s.duration = SimDuration::from_secs(5);
    s.convergence = None;
    let a = s.run();
    let b = s.clone().run();
    assert_eq!(a.throughputs(), b.throughputs());
    assert_eq!(a.events_processed, b.events_processed);
}
