//! Profiler integration: digest-inertness of `ccsim-prof` across whole
//! campaigns, profile rollups in the ledger, and manifest round-trips
//! for runs with routed multi-bottleneck topologies.

use ccsim::campaign::{run_campaign, CampaignSpec, ExecutorOptions, LedgerEntry};
use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, ObserveOptions, RunRequest, Scenario};
use ccsim::sim::SimDuration;
use ccsim::telemetry::RunManifest;
use ccsim::topo::TopologyKind;

/// Load one of the checked-in example campaign specs, with the
/// simulated window shortened so the differential runs in test time.
/// The axes (CCA grid, AQM × ECN grid), topology, and seeds — the parts
/// that exercise distinct event mixes — are untouched.
fn example_spec(name: &str) -> CampaignSpec {
    let path = format!(
        "{}/examples/campaigns/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut spec = CampaignSpec::from_json(&text).unwrap();
    spec.base.warmup = SimDuration::from_secs(1);
    spec.base.duration = SimDuration::from_secs(4);
    spec.base.start_jitter = SimDuration::from_millis(200);
    spec
}

fn run_entries(spec: &CampaignSpec, profile: bool) -> Vec<LedgerEntry> {
    let jobs = spec.jobs().unwrap();
    let opts = ExecutorOptions {
        workers: 4,
        profile,
        ..ExecutorOptions::default()
    };
    run_campaign(jobs, &opts, |_| {})
        .iter()
        .map(LedgerEntry::from_result)
        .collect()
}

/// The tentpole differential: attaching the profiler to every job of the
/// `ci-smoke` and `topo-smoke` campaigns changes no outcome digest, while
/// the profiled ledger entries gain the per-kind events/s rollup and an
/// embedded `Profile` section.
#[test]
fn profiling_is_digest_inert_across_smoke_campaigns() {
    for name in ["ci-smoke", "topo-smoke"] {
        let spec = example_spec(name);
        let plain = run_entries(&spec, false);
        let profiled = run_entries(&spec, true);
        assert_eq!(plain.len(), profiled.len(), "{name}: job count");
        for (p, q) in plain.iter().zip(&profiled) {
            assert!(p.ok(), "{name}/{}: {:?}", p.job, p.error);
            assert!(q.ok(), "{name}/{}: {:?}", q.job, q.error);
            assert_eq!(p.outcome_digest, q.outcome_digest, "{name}/{}", p.job);
            assert_eq!(p.events_processed, q.events_processed, "{name}/{}", p.job);
            // Per-kind events/s comes from the engine's classified
            // counters, so both entries carry it; only the profiled one
            // embeds the full Profile section.
            assert!(!p.eps_by_kind.is_empty(), "{name}/{}", p.job);
            assert!(!q.eps_by_kind.is_empty(), "{name}/{}", q.job);
            assert!(
                p.manifest.as_ref().is_none_or(|m| m.profile.is_none()),
                "{name}/{}: unprofiled run must not embed a profile",
                p.job
            );
            let profile = q
                .manifest
                .as_ref()
                .and_then(|m| m.profile.as_ref())
                .unwrap_or_else(|| panic!("{name}/{}: no profile in manifest", q.job));
            // ...and its event attribution covers every dispatched event.
            assert_eq!(
                profile.events.total(),
                q.events_processed,
                "{name}/{}",
                q.job
            );
            // The engine's per-kind counts, folded from the cells while the
            // profiler runs, are the cells summed over the classes.
            let by_kind = &q.manifest.as_ref().unwrap().events_by_kind;
            let cells = &profile.events;
            for (k, (kind, n)) in by_kind.iter().enumerate() {
                assert_eq!(kind, &cells.kinds[k], "{name}/{}", q.job);
                let summed: u64 = cells.counts.iter().skip(k).step_by(cells.kinds.len()).sum();
                assert_eq!(*n, summed, "{name}/{}: {kind} events", q.job);
            }
        }
    }
}

/// Satellite 3: a profiled parking-lot run yields a manifest with
/// non-empty per-bottleneck metrics that survives a full JSON round-trip
/// byte-for-byte.
#[test]
fn profiled_parking_lot_manifest_round_trips_with_bottlenecks() {
    let mut scenario = Scenario::edge_scale()
        .named("prof-parking-lot")
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            4,
            SimDuration::from_millis(20),
        )])
        .seed(7);
    scenario.topology = TopologyKind::parse("parking_lot:3").unwrap();
    scenario.warmup = SimDuration::from_secs(1);
    scenario.duration = SimDuration::from_secs(4);
    scenario.start_jitter = SimDuration::from_millis(200);
    scenario.convergence = None;

    let obs = RunRequest::new(&scenario)
        .observe(ObserveOptions::profiled())
        .execute()
        .unwrap()
        .into_observed()
        .unwrap();
    let manifest = &obs.manifest;
    assert!(
        !manifest.bottlenecks.is_empty(),
        "parking_lot:3 must surface per-bottleneck metrics"
    );
    assert_eq!(manifest.bottlenecks.len(), obs.outcome.bottlenecks.len());
    for (m, o) in manifest.bottlenecks.iter().zip(&obs.outcome.bottlenecks) {
        assert_eq!(m.link, o.link);
        assert_eq!(m.label, o.label);
        assert!(m.utilization > 0.0, "bottleneck {} unused", m.label);
    }
    assert!(manifest.profile.is_some());

    let json = manifest.to_json();
    let reparsed = RunManifest::from_json(&json).unwrap();
    assert_eq!(reparsed.to_json(), json, "manifest JSON round-trip");
    assert_eq!(reparsed.bottlenecks.len(), manifest.bottlenecks.len());
}
