//! Megascale flow-state overhaul: the digest-preservation contract and
//! the batching machinery, end to end.
//!
//! The overhaul touched every hot layer (wheel slot trimming, scoreboard
//! deflation, batched ACK/transmit paths), all of which must be
//! byte-inert for every pre-existing configuration. The differential
//! tests here replay the committed baseline ledgers' shapes (ci-smoke,
//! topo-smoke, perf-corescale) and compare digests, and cross-check the
//! outcome against the timeline over a high-flow-count scenario.

use ccsim::campaign::{CampaignSpec, Ledger};
use ccsim::cca::CcaKind;
use ccsim::experiments::observe::scenario_digest;
use ccsim::experiments::{run, FlowGroup, ObserveOptions, RunRequest, Scenario, Tuning};
use ccsim::sim::{Bandwidth, SimDuration};
use std::path::Path;

/// Replay a committed spec/ledger pair: every job's config digest must
/// match the baseline entry, and (for up to `rerun` jobs) so must the
/// outcome digest of a fresh run through today's tree.
fn replay_baseline(name: &str, rerun: usize) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec_text =
        std::fs::read_to_string(root.join(format!("examples/campaigns/{name}.json"))).unwrap();
    let spec = CampaignSpec::from_json(&spec_text).unwrap();
    let ledger = Ledger::load(&root.join(format!("baselines/{name}.ledger.jsonl"))).unwrap();
    let baseline = ledger.by_config();

    let jobs = spec.jobs().unwrap();
    assert_eq!(
        jobs.len(),
        ledger.entries.len(),
        "{name}: job count drifted"
    );
    for (i, job) in jobs.iter().enumerate() {
        let config = format!("{:016x}", scenario_digest(&job.scenario));
        let entry = baseline.get(config.as_str()).unwrap_or_else(|| {
            panic!(
                "{name}/{}: config digest {config} not in the baseline",
                job.name
            )
        });
        assert_eq!(entry.job, job.name);
        if i < rerun {
            let outcome = run(&job.scenario);
            assert_eq!(
                format!("{:016x}", outcome.digest()),
                entry.outcome_digest.clone().unwrap(),
                "{name}/{}: outcome digest diverged from the committed baseline",
                job.name
            );
        }
    }
}

/// In release every baseline job is re-run; debug builds replay one job
/// per campaign (the full sweep is minutes of debug-mode simulation) and
/// still config-digest-check the rest.
fn rerun_budget(jobs: usize) -> usize {
    if cfg!(debug_assertions) {
        1
    } else {
        jobs
    }
}

#[test]
fn ci_smoke_baseline_digests_are_preserved() {
    replay_baseline("ci-smoke", rerun_budget(4));
}

#[test]
fn topo_smoke_baseline_digests_are_preserved() {
    replay_baseline("topo-smoke", rerun_budget(8));
}

#[test]
fn perf_corescale_baseline_digests_are_preserved() {
    // The CoreScale job is heavyweight even in release; config digests
    // are always checked, the outcome replay runs in release only.
    replay_baseline(
        "perf-corescale",
        rerun_budget(0).max(usize::from(!cfg!(debug_assertions))),
    );
}

/// A high-flow-count scenario kept cheap enough for debug CI: 10k flows
/// share 500 Mbps for a sub-second horizon, deep enough into the run
/// that every flow has started.
fn dense_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::mega_scale()
        .named("dense-10k")
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 5_000, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Cubic, 5_000, SimDuration::from_millis(40)),
        ])
        .tuned(Tuning::default())
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(500);
    s.buffer_bytes = 12_500_000;
    s.start_jitter = SimDuration::from_millis(300);
    s.warmup = SimDuration::from_millis(400);
    s.duration = SimDuration::from_millis(300);
    s.snapshot_interval = SimDuration::from_millis(100);
    s
}

#[test]
fn timeline_rows_integrate_to_the_outcome_at_10k_flows() {
    // The outcome and the timeline are both gathered by walking the
    // endpoint components at slice boundaries, so they must agree exactly:
    // a reader that sampled mid-event state, or a row that straddled the
    // warm-up reset, would break the telescoping sums below.
    let s = dense_scenario(5);
    let plain = run(&s);
    let mut options = ObserveOptions::timelined();
    options.timeline.as_mut().unwrap().window = s.snapshot_interval; // a row per slice
    let obs = RunRequest::new(&s)
        .observe(options)
        .execute()
        .unwrap()
        .into_observed()
        .unwrap();
    assert_eq!(obs.outcome.digest(), plain.digest());
    assert_eq!(obs.outcome.to_json(), plain.to_json());

    let tl = obs.timeline.as_ref().expect("timeline captured");
    let rows = tl.rows();
    assert_eq!(rows.evicted(), 0, "budget holds the whole run");
    // Σ column × weight(span) over the rows that end after the warm-up.
    let warmup = s.warmup.as_secs_f64();
    let integrate = |name: &str, weight: fn(f64) -> f64| -> u64 {
        let c = tl.columns().iter().position(|n| n == name).unwrap();
        let cells = rows.column(c).zip(rows.spans()).zip(rows.times());
        let total: f64 = cells
            .filter(|&(_, t)| t > warmup)
            .map(|((v, span), _)| v * weight(span))
            .sum();
        total.round() as u64
    };
    let delivered: u64 = plain.flows.iter().map(|f| f.delivered_bytes).sum();
    assert!(delivered > 0);
    assert_eq!(integrate("agg/goodput_bps", |span| span), delivered);
    let sampled = &plain.flows[..tl.sampled_flows()];
    assert!(sampled.iter().any(|f| f.retransmits > 0));
    for (i, flow) in sampled.iter().enumerate() {
        let goodput = integrate(&format!("flow{i}/goodput_bps"), |span| span);
        assert_eq!(goodput, flow.delivered_bytes, "flow {i} goodput");
        let retrans = integrate(&format!("flow{i}/retrans"), |_| 1.0);
        assert_eq!(retrans, flow.retransmits, "flow {i} retransmits");
    }
}

#[test]
fn dense_runs_are_digest_deterministic() {
    let a = run(&dense_scenario(9));
    let b = run(&dense_scenario(9));
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn batching_coalesces_events_without_distorting_the_physics() {
    // The megascale knobs (delayed-ACK stride, link transmit batching)
    // legitimately change event counts — that is their purpose — so they
    // are scenario-gated. Against the same shape with legacy tuning, the
    // batched run must process strictly fewer events while delivering
    // the same aggregate within a few percent.
    let legacy = dense_scenario(3);
    let batched = dense_scenario(3).tuned(Tuning {
        delack_segments: 4,
        tx_burst: 8,
    });
    let a = run(&legacy);
    let b = run(&batched);
    assert!(
        b.events_processed < a.events_processed,
        "batched {} !< legacy {}",
        b.events_processed,
        a.events_processed
    );
    let (ta, tb) = (a.aggregate_throughput_mbps(), b.aggregate_throughput_mbps());
    assert!(
        (ta - tb).abs() / ta < 0.05,
        "batched throughput drifted: {ta} vs {tb} Mbps"
    );
}
