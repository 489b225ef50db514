//! Whole-system self-observability guarantees: metrics are inert (a run
//! observes identically with them on or off), and the per-run artifacts
//! — Prometheus exposition and JSON manifest — are well-formed and
//! internally consistent.

use ccsim::cca::CcaKind;
use ccsim::experiments::{run, FlowGroup, ObserveOptions, ObservedRun, RunRequest, Scenario};
use ccsim::sim::{Bandwidth, SimDuration};
use ccsim::telemetry::{validate_exposition, RunManifest};

fn run_observed(scenario: &Scenario) -> ObservedRun {
    RunRequest::new(scenario)
        .observe(ObserveOptions::default())
        .execute()
        .expect("run succeeds")
        .into_observed()
        .expect("observed request")
}

fn scenario(seed: u64, cca: CcaKind) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("observability")
        .flows(vec![FlowGroup::new(cca, 4, SimDuration::from_millis(20))])
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(20);
    s.buffer_bytes = 250_000;
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(4);
    s.start_jitter = SimDuration::from_millis(300);
    s.convergence = None;
    s
}

/// The tentpole guarantee: attaching the full instrument set changes
/// nothing about the simulation. Same (scenario, seed) with metrics on
/// and off yields byte-identical outcome JSON and the same digest, for
/// every CCA family.
#[test]
fn metrics_on_and_off_produce_identical_outcomes() {
    for cca in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr] {
        let plain = run(&scenario(42, cca));
        let observed = run_observed(&scenario(42, cca));
        assert_eq!(plain.to_json(), observed.outcome.to_json(), "{cca}");
        assert_eq!(plain.digest(), observed.outcome.digest(), "{cca}");
        assert_eq!(
            format!("{:016x}", plain.digest()),
            observed.manifest.outcome_digest,
            "{cca}"
        );
    }
}

/// The Prometheus dump passes the exposition-format validator and carries
/// the headline families with plausible values.
#[test]
fn prometheus_dump_is_valid_and_populated() {
    let obs = run_observed(&scenario(7, CcaKind::Reno));
    validate_exposition(&obs.prometheus).expect("exposition format");
    for family in [
        "ccsim_events_total",
        "ccsim_events_pending_peak",
        "ccsim_events_per_sec",
        "ccsim_sim_wall_ratio",
        "ccsim_link_queue_bytes",
        "ccsim_link_busy_nanos_total",
        "ccsim_phase_wall_nanos_total",
    ] {
        assert!(obs.prometheus.contains(family), "missing {family}");
    }
}

/// The manifest round-trips through its JSON codec bit-exactly and its
/// fields agree with the outcome it describes.
#[test]
fn manifest_round_trips_and_matches_outcome() {
    let obs = run_observed(&scenario(9, CcaKind::Cubic));
    let m = &obs.manifest;
    assert_eq!(m.scenario, "observability");
    assert_eq!(m.seed, 9);
    assert_eq!(m.flows, 4);
    assert_eq!(m.events_processed, obs.outcome.events_processed);
    assert_eq!(m.peak_queue_bytes, obs.outcome.max_queue_bytes);
    assert_eq!(m.metric_bytes, obs.prometheus.len() as u64);
    assert!(m.wall_secs > 0.0);
    assert!(m.events_per_sec > 0.0);
    let back = RunManifest::from_json(&m.to_json()).expect("manifest json");
    assert_eq!(&back, m);
}
