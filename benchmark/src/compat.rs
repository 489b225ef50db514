//! Every call into the harness-level API of the workspace that is *not*
//! `run(&Scenario)`, `BuiltNetwork`, `Simulator`, a `Scenario` builder or
//! a component-level type driven directly by an isolated stage.
//!
//! ROADMAP item 4 collapses the ~18 `run*` entry points, the outcome and
//! ledger codecs and the duplicate flow state. When it lands, this file
//! is the benchmark's follow-up: the observed entry point and its three
//! exporters, progress-sliced runs, checkpoint capture/restore, the
//! campaign executor and ledger, outcome accessors, and the read-out of
//! component counters after a harness-owned engine pass all live here —
//! and so does the JSON value the harness reads and writes its own files
//! with, which is the workspace's (`ccsim_fault::Json`), not a copy.

use ccsim_campaign::{run_scenarios, ExecutorOptions, LedgerEntry};
use ccsim_cca::CcaKind;
use ccsim_core::{
    run_with_progress, try_resume_run_with_progress, try_run_observed_checkpointed,
    try_run_observed_with, BuiltNetwork, FlowGroup, ObserveOptions, RunOutcome, Scenario,
    TimelineConfig,
};
use ccsim_net::{Link, Msg};
use ccsim_sim::{Bandwidth, SimDuration, SimTime};
use ccsim_tcp::{Receiver, Sender};
use ccsim_timeline::export::to_jsonl;
use ccsim_topo::router::Router;
use ccsim_trace::TraceConfig;
use std::path::Path;
use std::time::Instant;

pub use ccsim_fault::Json;

/// Object literal.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A measured value, with every digit (`Json::Num` holds the number's
/// text). A non-finite value, which no metric should produce, reads 0.
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() {
        v.to_string()
    } else {
        "0".into()
    })
}

/// Event kinds, in the order the engine's class counters use.
pub const KINDS: [&str; 3] = ["data", "ack", "timer"];
/// Component classes, in the order of [`class_table`].
pub const CLASSES: [&str; 4] = ["link", "router", "sender", "receiver"];

/// Classify an engine message into a [`KINDS`] index.
#[inline]
pub fn classify(m: &Msg) -> usize {
    match m {
        Msg::Packet(p) if p.is_data() => 0,
        Msg::Packet(_) => 1,
        Msg::Timer(_) => 2,
    }
}

/// What `expected.json` pins for one (workload, seed).
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeSummary {
    pub events: u64,
    /// Outcome digest with the flight-recorder trace detached, so that an
    /// observed run and its unobserved twin are comparable.
    pub digest: u64,
    pub utilization: f64,
    pub drops: u64,
    pub retransmits: u64,
    pub rtos: u64,
}

pub fn summarize(mut outcome: RunOutcome) -> OutcomeSummary {
    outcome.trace = None;
    OutcomeSummary {
        events: outcome.events_processed,
        digest: outcome.digest(),
        utilization: outcome.utilization(),
        drops: outcome.flows.iter().map(|f| f.queue_drops).sum(),
        retransmits: outcome.flows.iter().map(|f| f.retransmits).sum(),
        rtos: outcome.flows.iter().map(|f| f.rtos).sum(),
    }
}

/// Length of the outcome's JSON document (the timed call of
/// `core.outcome_json.ns_per_flow`).
pub fn outcome_json_len(outcome: &RunOutcome) -> usize {
    outcome.to_json().len()
}

/// `run` with a callback after every simulated slice, carrying the
/// engine's cumulative event count.
pub fn run_sliced(scenario: &Scenario, mut on_slice: impl FnMut(u64)) -> RunOutcome {
    run_with_progress(scenario, |p| on_slice(p.events_processed))
}

/// Sizes of what the observed workload wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObservedArtifacts {
    pub trace_records: u64,
    pub trace_bytes: u64,
    pub timeline_rows: u64,
    /// Wall seconds the three exports took (the tail of the timed region).
    pub export_secs: f64,
}

/// The observed workload: the scenario with all four observers on —
/// flight recorder (standard config, KeepAll), timeline (default config),
/// profiler (stride 1024) and the metric registry — through the observed
/// entry point, followed by the three exports into `dir`: `trace.cctr`,
/// `timeline.jsonl`, `metrics.prom`.
pub fn run_observed_exporting(
    scenario: &Scenario,
    dir: &Path,
    mut on_slice: impl FnMut(u64),
) -> Result<(RunOutcome, ObservedArtifacts), String> {
    let traced = scenario.clone().traced(TraceConfig::standard());
    let options = ObserveOptions {
        profile: true,
        profile_stride: 1024,
        timeline: Some(TimelineConfig::default()),
    };
    let obs = try_run_observed_with(&traced, options, |p| on_slice(p.events_processed))
        .map_err(|e| e.to_string())?;
    let export_started = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let written = obs
        .outcome
        .export_trace(&dir.join("trace"), false, true)
        .map_err(|e| e.to_string())?;
    let timeline = obs
        .timeline
        .as_ref()
        .ok_or("observed run captured no timeline")?;
    std::fs::write(dir.join("timeline.jsonl"), to_jsonl(timeline)).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("metrics.prom"), &obs.prometheus).map_err(|e| e.to_string())?;
    let artifacts = ObservedArtifacts {
        trace_records: obs
            .outcome
            .trace
            .as_ref()
            .map_or(0, |t| t.records.len() as u64),
        trace_bytes: written
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum(),
        timeline_rows: timeline.rows().pushed(),
        export_secs: export_started.elapsed().as_secs_f64(),
    };
    Ok((obs.outcome, artifacts))
}

/// Component-id → [`CLASSES`] index, for `Simulator::enable_profiling`.
pub fn class_table(net: &BuiltNetwork) -> Vec<u8> {
    let groups = [&net.links, &net.routers, &net.senders, &net.receivers];
    let max = groups
        .iter()
        .flat_map(|g| g.iter())
        .map(|id| id.as_usize())
        .max()
        .unwrap_or(0);
    let mut table = vec![0u8; max + 1];
    for (class, group) in groups.iter().enumerate() {
        for id in group.iter() {
            table[id.as_usize()] = class as u8;
        }
    }
    table
}

/// Exact counters read off a network after a harness-owned engine pass.
#[derive(Debug, Clone, Default)]
pub struct InSitu {
    pub flows: u64,
    pub events: u64,
    pub max_pending: u64,
    /// Events per [`KINDS`] index.
    pub kind_events: [u64; 3],
    /// Events per (`CLASSES` × `KINDS`) cell, row-major.
    pub cell_events: [[u64; 3]; 4],
    pub wheel_cascaded_entries: u64,
    pub wheel_cancels: u64,
    pub wheel_cancel_misses: u64,
    pub wheel_batches: u64,
    pub wheel_bytes: u64,
    pub link_tx_pkts: u64,
    pub link_drops: u64,
    pub link_arrivals: u64,
    pub link_ce_marks: u64,
    pub link_max_queue_bytes: u64,
    pub links_bytes: u64,
    pub router_pkts: u64,
    pub data_pkts_sent: u64,
    pub retransmits: u64,
    pub rtos: u64,
    pub fast_recoveries: u64,
    pub acks_sent: u64,
    pub sack_acks_sent: u64,
    pub data_pkts_received: u64,
    pub ooo_pkts: u64,
    pub senders_bytes: u64,
    pub slab_bytes: u64,
    /// Flows per CCA, indexed like [`CCA_KINDS`].
    pub cca_flows: [u64; 4],
}

pub const CCA_KINDS: [CcaKind; 4] = [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas];

pub fn harvest(net: &BuiltNetwork) -> InSitu {
    let sim = &net.sim;
    let mut s = InSitu {
        flows: net.flow_count() as u64,
        events: sim.events_processed(),
        max_pending: sim.max_pending(),
        wheel_bytes: sim.queue_memory_bytes(),
        ..InSitu::default()
    };
    for (k, &n) in sim.event_class_counts().iter().enumerate().take(3) {
        s.kind_events[k] = n;
    }
    if let Some((counts, _, _)) = sim.profile_cells() {
        for (i, &n) in counts.iter().enumerate().take(12) {
            s.cell_events[i / 3][i % 3] = n;
        }
    }
    let wheel = sim.wheel_stats();
    s.wheel_cascaded_entries = wheel.cascaded_entries;
    s.wheel_cancels = wheel.cancels;
    s.wheel_cancel_misses = wheel.cancel_misses;
    s.wheel_batches = wheel.batch_hist.iter().sum();

    for &id in &net.links {
        let link = sim.component::<Link>(id);
        let st = link.stats();
        s.link_tx_pkts += st.transmitted_pkts;
        s.link_drops += st.dropped_pkts;
        s.link_arrivals += st.arrived_pkts;
        s.link_ce_marks += st.ce_marked_pkts;
        s.link_max_queue_bytes = s.link_max_queue_bytes.max(st.max_queue_bytes);
        s.links_bytes += link.memory_bytes();
    }
    for &id in &net.routers {
        s.router_pkts += sim.component::<Router>(id).forwarded_pkts();
    }
    for &id in &net.senders {
        let sender = sim.component::<Sender>(id);
        let st = sender.stats();
        s.data_pkts_sent += st.data_pkts_sent;
        s.retransmits += st.retransmits;
        s.rtos += st.rtos;
        s.fast_recoveries += st.fast_recoveries;
        s.senders_bytes += sender.memory_bytes();
    }
    for &id in &net.receivers {
        let st = sim.component::<Receiver>(id).stats();
        s.acks_sent += st.acks_sent;
        s.sack_acks_sent += st.sack_acks_sent;
        s.data_pkts_received += st.data_pkts_received;
        s.ooo_pkts += st.ooo_pkts;
    }
    if let Some(slab) = &net.slab {
        s.slab_bytes = slab.borrow().memory_bytes();
    }
    for kind in &net.flow_cca {
        let i = CCA_KINDS.iter().position(|k| k == kind).expect("known CCA");
        s.cca_flows[i] += 1;
    }
    s
}

/// `(Σ w, Σ w²)` over every flow's bytes in flight right now. Summed over
/// slice boundaries, `Σ w² / Σ w` is the window an average *ACK* sees
/// (a flow with window `w` receives ∝ `w` ACKs per round trip) — the
/// scoreboard length the sender stages are sized from.
pub fn inflight_moments(net: &BuiltNetwork) -> (f64, f64) {
    net.senders
        .iter()
        .map(|&id| net.sim.component::<Sender>(id).in_flight() as f64)
        .fold((0.0, 0.0), |(s1, s2), w| (s1 + w, s2 + w * w))
}

/// Checkpoint size and the cost of capturing and restoring one.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCosts {
    pub bytes: u64,
    pub capture_secs: f64,
    pub restore_secs: f64,
    /// The resumed run reproduced the donor's outcome digest.
    pub restore_exact: bool,
}

/// Capture a checkpoint at mid-horizon and resume from it.
///
/// The scenario is re-sliced into 40 short slices (slicing does not
/// change event processing), so the progress callbacks bracket the
/// capture closely: the gap between the callbacks either side of the
/// capture, minus the neighbouring slices' mean gap, is the capture;
/// the time from `try_resume_run` to its first callback, minus one build
/// (`setup_secs`) and that same slice's dispatch time, is the restore.
pub fn checkpoint_costs(scenario: &Scenario, setup_secs: f64) -> Result<CheckpointCosts, String> {
    let mut sliced = scenario.clone();
    let horizon = scenario.horizon_end().as_nanos();
    sliced.snapshot_interval = SimDuration::from_nanos((horizon / 40).max(1));
    let mid = SimTime::from_nanos(horizon / 2);

    let mut stamps: Vec<(Instant, SimTime)> = Vec::new();
    let (donor, cp) =
        try_run_observed_checkpointed(&sliced, ObserveOptions::default(), Some(mid), |p| {
            stamps.push((Instant::now(), p.now));
        })
        .map_err(|e| e.to_string())?;
    let cp = cp.ok_or("run ended before mid-horizon")?;
    let k = stamps
        .iter()
        .position(|(_, now)| *now >= mid)
        .ok_or("no slice boundary at mid-horizon")?;
    if k < 1 || k + 2 >= stamps.len() {
        return Err("too few slices around the checkpoint".into());
    }
    let gap = |i: usize| (stamps[i + 1].0 - stamps[i].0).as_secs_f64();
    let neighbours = (gap(k - 1) + gap(k + 1)) / 2.0;
    let capture_secs = (gap(k) - neighbours).max(0.0);

    let t0 = Instant::now();
    let mut first: Option<Instant> = None;
    let resumed = try_resume_run_with_progress(&cp, |_| {
        first.get_or_insert_with(Instant::now);
    })
    .map_err(|e| e.to_string())?;
    let to_first = (first.ok_or("resumed run made no progress")? - t0).as_secs_f64();
    let restore_secs = (to_first - setup_secs - neighbours).max(0.0);

    Ok(CheckpointCosts {
        bytes: cp.encoded_len() as u64,
        capture_secs,
        restore_secs,
        restore_exact: summarize(resumed).digest == summarize(donor.outcome).digest,
    })
}

/// Supervisor overhead and ledger encoding cost on a trivial campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignCosts {
    /// `(campaign wall − Σ job wall) / jobs`, one worker.
    pub overhead_secs_per_job: f64,
    pub ledger_nanos_per_entry: f64,
    pub jobs_ok: bool,
}

pub fn campaign_costs(ledger_budget_secs: f64) -> CampaignCosts {
    let scenarios: Vec<Scenario> = (0..4u64)
        .map(|i| {
            let mut s = Scenario::edge_scale()
                .named(format!("bench-trivial/{i}"))
                .flows(vec![FlowGroup::new(
                    CcaKind::Reno,
                    2,
                    SimDuration::from_millis(20),
                )])
                .seed(i + 1);
            s.bottleneck = Bandwidth::from_mbps(10);
            s.buffer_bytes = 100_000;
            s.start_jitter = SimDuration::from_millis(100);
            s.warmup = SimDuration::from_secs(1);
            s.duration = SimDuration::from_secs(2);
            s.convergence = None;
            s
        })
        .collect();
    let opts = ExecutorOptions {
        workers: 1,
        ..ExecutorOptions::default()
    };
    let t0 = Instant::now();
    let results = run_scenarios(&scenarios, &opts, |_| {});
    let wall = t0.elapsed().as_secs_f64();
    let inside: f64 = results
        .iter()
        .filter_map(|r| r.run.as_ref().ok())
        .map(|obs| obs.manifest.wall_secs)
        .sum();

    let t0 = Instant::now();
    let mut entries = 0u64;
    let mut bytes = 0usize;
    while t0.elapsed().as_secs_f64() < ledger_budget_secs || entries == 0 {
        for r in &results {
            bytes += LedgerEntry::from_result(r).to_json().len();
            entries += 1;
        }
    }
    std::hint::black_box(bytes);
    CampaignCosts {
        overhead_secs_per_job: (wall - inside).max(0.0) / results.len() as f64,
        ledger_nanos_per_entry: t0.elapsed().as_nanos() as f64 / entries as f64,
        jobs_ok: results.iter().all(|r| r.run.is_ok()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_parse_back() {
        assert_eq!(num(1.2034567890123).render(), "1.2034567890123");
        assert_eq!(num(18_897_913.0).render(), "18897913");
        assert_eq!(num(5.003e-6).as_f64(), Some(5.003e-6));
        assert_eq!(num(f64::NAN).render(), "0");
        let doc = obj(vec![("a", num(2.5)), ("b", Json::Str("x\"y".into()))]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
