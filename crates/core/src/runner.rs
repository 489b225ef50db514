//! The experiment runner: warm-up, snapshotting, convergence, collection.
//!
//! Follows the paper's methodology (§3.2):
//!
//! 1. flows start at jittered times, all before the warm-up boundary;
//! 2. everything before the warm-up boundary is excluded — queue counters
//!    are reset and per-flow counter baselines snapshotted there;
//! 3. the simulation advances in snapshot slices; after each slice the
//!    tracker records cumulative per-flow delivered bytes;
//! 4. the run stops at the horizon, or earlier once the headline metrics
//!    (aggregate throughput *and* JFI) change < tolerance between
//!    consecutive windows — the paper's "< 1% over 20 minutes" rule.

use crate::build::BuiltNetwork;
use crate::checkpoint::{self, slice_boundaries};
use crate::error::SimError;
use crate::observe::{classify_msg, Phase, RunInstruments};
use crate::outcome::{BottleneckMetrics, RunOutcome};
use crate::scenario::Scenario;
use crate::watchdog::Watchdog;
use ccsim_analysis::{jain_fairness_index, jain_fairness_subset};
use ccsim_net::link::{Link, LinkStats};
use ccsim_net::AqmKind;
use ccsim_resume::{Checkpoint, ResumeError};
use ccsim_sim::{snap, SimTime};
use ccsim_tcp::sender::Sender;
use ccsim_telemetry::{FlowMetrics, ThroughputTracker};
use ccsim_trace::{RunTrace, TraceMeta};
use std::time::Instant;

/// Numeric sender-counter baseline captured at the warm-up boundary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SenderBaseline {
    pub(crate) data_pkts_sent: u64,
    pub(crate) retransmits: u64,
    pub(crate) rtos: u64,
    pub(crate) delivered_bytes: u64,
    /// Congestion events strictly before the warm-up boundary; those *at*
    /// it belong to the measurement window.
    pub(crate) congestion_events: u64,
}

snap!(SenderBaseline {
    data_pkts_sent,
    retransmits,
    rtos,
    delivered_bytes,
    congestion_events
});

/// The measurement cursor, taken at the warm-up boundary: per-flow
/// counter baselines and the tracker the convergence rule reads. A run
/// holds none during its warm-up; a measurement-phase checkpoint carries
/// it.
#[derive(Debug)]
pub(crate) struct Measurement {
    pub(crate) sender_base: Vec<SenderBaseline>,
    pub(crate) tracker: ThroughputTracker,
}

/// A progress report from inside a run, issued after every simulated
/// slice (warm-up included).
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Current simulated instant.
    pub now: SimTime,
    /// The run's horizon (warm-up end + duration); convergence may stop
    /// the run before reaching it.
    pub horizon: SimTime,
    /// Fraction of the horizon covered so far, in `0..=1`.
    pub fraction: f64,
    /// Engine events processed so far.
    pub events_processed: u64,
    /// Events currently pending in the scheduler. With token-based timer
    /// cancellation this counts only live events (no parked tombstones),
    /// so a runaway here is real event-generation pressure, not stale
    /// timers.
    pub events_pending: usize,
}

/// Checkpoint/resume control for one run.
pub(crate) struct RunCtl<'a> {
    /// Restore this checkpoint into the freshly built network instead of
    /// starting from `t = 0`. The network must have been built from the
    /// checkpoint's embedded scenario.
    pub(crate) resume_from: Option<&'a Checkpoint>,
    /// Capture a checkpoint at the first slice boundary at or after this
    /// instant (at most one per run).
    pub(crate) checkpoint_at: Option<SimTime>,
    /// Return immediately after capturing instead of finishing the run.
    pub(crate) stop_at_checkpoint: bool,
}

/// Parse the scenario a checkpoint was taken from.
pub fn scenario_from_checkpoint(cp: &Checkpoint) -> Result<Scenario, SimError> {
    crate::codec::scenario_from_json(&cp.scenario_json).map_err(|e| {
        SimError::Resume(ResumeError::Corrupt(format!(
            "embedded scenario does not parse: {e}"
        )))
    })
}

/// Advance the simulation to `until`, classifying events per kind when
/// the run is observed. `classify_msg` is passed as a function item so it
/// inlines into the engine's event loop; the unobserved path is the plain
/// `run_until` with zero observability cost. Observed advances run on the
/// `dispatch` clock.
fn advance(
    net: &mut BuiltNetwork,
    until: SimTime,
    inst: Option<&mut RunInstruments>,
) -> Result<(), SimError> {
    if let Some(inst) = inst {
        let t0 = Instant::now();
        let result = net.sim.try_run_until_classified(until, classify_msg);
        inst.clock(Phase::Dispatch, t0);
        result?;
    } else {
        net.sim.try_run_until(until)?;
    }
    Ok(())
}

/// The warm-up-boundary actions: reset every link's counters, take the
/// per-flow baselines, re-anchor the watchdog's conservation baseline
/// with the reset counters, and seed the tracker at `warmup_end`.
fn start_measurement(
    net: &mut BuiltNetwork,
    watchdog: &mut Watchdog,
    warmup_end: SimTime,
    window_snapshots: usize,
) -> Measurement {
    for i in 0..net.links.len() {
        let id = net.links[i];
        net.sim.component_mut::<Link>(id).reset_stats();
    }
    let delivered = net.per_flow_delivered();
    let sender_base = net
        .senders
        .iter()
        .zip(&delivered)
        .map(|(&id, &delivered_bytes)| {
            let s = net.sim.component::<Sender>(id).stats();
            SenderBaseline {
                data_pkts_sent: s.data_pkts_sent,
                retransmits: s.retransmits,
                rtos: s.rtos,
                delivered_bytes,
                congestion_events: s.congestion_events_before(warmup_end),
            }
        })
        .collect();
    watchdog.rebaseline(net);
    let mut tracker = ThroughputTracker::new(window_snapshots);
    tracker.record(warmup_end, delivered);
    Measurement {
        sender_base,
        tracker,
    }
}

/// Drain the flight recorders (present only when the scenario enabled
/// tracing) into one trace whose runs are the rings' own logs, not
/// copies. Factored out of collection so an aborting run (watchdog
/// violation) can still salvage the trace tail for its crash bundle.
fn drain_trace(net: &mut BuiltNetwork, scenario: &Scenario) -> Option<RunTrace> {
    if !scenario.trace.enabled {
        return None;
    }
    let mut rings = Vec::with_capacity(2 * (net.senders.len() + net.links.len()));
    for &id in &net.senders {
        if let Some(rec) = net.sim.component_mut::<Sender>(id).take_trace() {
            rings.extend(rec.finish());
        }
    }
    for &id in &net.links {
        if let Some(rec) = net.sim.component_mut::<Link>(id).take_trace() {
            rings.extend(rec.finish());
        }
    }
    let meta = TraceMeta {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        flows: scenario.flow_count(),
    };
    Some(RunTrace::from_rings(meta, rings))
}

/// The single runner loop behind every [`crate::RunRequest`]. When `inst`
/// is present, the event classifier and the link/sender tallies are
/// attached and runner phases are clocked; the simulated event sequence is identical
/// either way (the instruments only observe). Returns `Ok(None)`
/// iff `ctl.stop_at_checkpoint` ended the run right after capture; a
/// captured checkpoint (if any) lands in `checkpoint_out`.
///
/// The run walks [`slice_boundaries`] from its start (or restore) instant.
/// Each slice advances the engine, records the tracker's snapshot once
/// measuring, runs the observer step (which calls `on_progress`), checks
/// the watchdog, then the convergence rule, then takes a due checkpoint.
/// The warm-up-boundary actions run once, at the top of the first slice
/// that starts at the warm-up boundary without a measurement cursor — so
/// a checkpoint taken at that boundary precedes them, and with no warm-up
/// they precede the first slice.
pub(crate) fn run_internal_ctl(
    scenario: &Scenario,
    mut inst: Option<&mut RunInstruments>,
    on_progress: &mut dyn FnMut(&Progress),
    ctl: RunCtl<'_>,
    checkpoint_out: &mut Option<Checkpoint>,
) -> Result<Option<RunOutcome>, SimError> {
    let build_start = Instant::now();
    let mut net = BuiltNetwork::try_build(scenario)?;
    let mut watchdog = Watchdog::new(scenario.watchdog);
    if let Some(inst) = inst.as_deref_mut() {
        inst.attach(&mut net);
        inst.clock(Phase::Build, build_start);
    }

    // Overlay checkpointed state onto the freshly built arena. The build
    // already rewound every config-derived setting; the checkpoint body
    // holds only live state (clock, queues, windows, RNG streams, the
    // measurement cursor).
    let window_snapshots = scenario
        .convergence
        .as_ref()
        .map_or(0, |rule| rule.window_snapshots);
    let mut measure = match ctl.resume_from {
        Some(cp) => checkpoint::restore_into(&mut net, &mut watchdog, window_snapshots, &cp.body)
            .map_err(SimError::Resume)?,
        None => None,
    };
    if let Some(inst) = inst.as_deref_mut() {
        inst.start(&net);
    }

    let warmup_end = SimTime::ZERO + scenario.warmup;
    let horizon = warmup_end + scenario.duration;
    let warmup_start = Instant::now();
    let mut now = net.sim.now();
    let mut converged = false;
    for next in slice_boundaries(scenario) {
        if next <= now {
            continue;
        }
        if measure.is_none() && now == warmup_end {
            if let Some(inst) = inst.as_deref_mut() {
                inst.close_warmup(&net, warmup_end, warmup_start);
            }
            measure = Some(start_measurement(
                &mut net,
                &mut watchdog,
                warmup_end,
                window_snapshots,
            ));
        }

        let slice_start = Instant::now();
        advance(&mut net, next, inst.as_deref_mut())?;
        now = next;
        if let Some(m) = &mut measure {
            m.tracker.record(now, net.per_flow_delivered());
        }
        let progress = Progress {
            now,
            horizon,
            // A validated scenario's horizon is non-zero.
            fraction: now.as_nanos() as f64 / horizon.as_nanos() as f64,
            events_processed: net.sim.events_processed(),
            events_pending: net.sim.events_pending(),
        };
        match inst.as_deref_mut() {
            Some(inst) => {
                let measured = measure.as_ref().and_then(|m| m.tracker.latest());
                inst.slice(&net, &progress, measured, slice_start, on_progress);
            }
            None => on_progress(&progress),
        }
        if watchdog.check(&net, scenario) {
            return Err(SimError::Invariant {
                trace: drain_trace(&mut net, scenario),
                report: watchdog.into_report(),
            });
        }
        if let (Some(rule), Some(m)) = (&scenario.convergence, &measure) {
            let agg = m.tracker.relative_change(|r| Some(r.iter().sum::<f64>()));
            let jfi = m.tracker.relative_change(jain_fairness_index);
            if let (Some(a), Some(j)) = (agg, jfi) {
                if a < rule.tolerance && j < rule.tolerance {
                    converged = true;
                    break;
                }
            }
        }
        // Capture *after* the convergence check: a boundary where the run
        // stops never yields a checkpoint, so a resumed run re-evaluates
        // convergence at exactly the boundaries the donor run did.
        if checkpoint_due(&ctl, checkpoint_out, now) {
            let cp = checkpoint::capture(scenario, &net, &watchdog, measure.as_ref());
            if let Some(inst) = inst.as_deref_mut() {
                inst.checkpoint_bytes = cp.encoded_len() as u64;
            }
            *checkpoint_out = Some(cp);
            if ctl.stop_at_checkpoint {
                return Ok(None);
            }
        }
    }

    // ----- collection ----------------------------------------------------
    let collect_start = Instant::now();
    // A validated scenario has a non-zero duration, so the walk always
    // crosses the warm-up boundary (or restored past it).
    let Measurement { sender_base, .. } = measure.expect("empty measurement window");
    let measured_for = now - warmup_end;
    let secs = measured_for.as_secs_f64();
    let delivered_end = net.per_flow_delivered();

    let link = net.sim.component::<Link>(net.link);
    let link_stats = link.stats().clone();
    let drop_burstiness = ccsim_analysis::burstiness(link.drop_log());
    // Per-flow queue counters are summed over every link a flow's packets
    // crossed; for the single-bottleneck topology this is exactly the
    // primary link's own counters.
    let all_stats: Vec<LinkStats> = net
        .links
        .iter()
        .map(|&id| net.sim.component::<Link>(id).stats().clone())
        .collect();
    let per_flow_summed = |per_flow: fn(&LinkStats) -> &Vec<u64>, i: usize| -> u64 {
        all_stats
            .iter()
            .map(|s| per_flow(s).get(i).copied().unwrap_or(0))
            .sum()
    };

    let mut flows = Vec::with_capacity(net.flow_count());
    for i in 0..net.flow_count() {
        let stats = net.sim.component::<Sender>(net.senders[i]).stats();
        let base = sender_base[i];
        let window_delivered = delivered_end[i] - base.delivered_bytes;
        flows.push(FlowMetrics {
            flow: i as u32,
            cca: net.flow_cca[i].name().to_string(),
            base_rtt_secs: net.flow_rtt[i].as_secs_f64(),
            throughput_bytes_per_sec: window_delivered as f64 / secs,
            delivered_bytes: window_delivered,
            data_pkts_sent: stats.data_pkts_sent - base.data_pkts_sent,
            retransmits: stats.retransmits - base.retransmits,
            congestion_events: stats.congestion_events() - base.congestion_events,
            rtos: stats.rtos - base.rtos,
            queue_drops: per_flow_summed(|s| &s.per_flow_dropped, i),
            queue_arrivals: per_flow_summed(|s| &s.per_flow_arrived, i),
        });
    }

    // Per-bottleneck records: populated only for configurations the
    // topology subsystem introduced (multi-link shapes, AQM, ECN), so
    // legacy outcomes keep their digests (see `RunOutcome::bottlenecks`).
    let topology_config = net.links.len() > 1
        || scenario.ecn
        || scenario.aqm != AqmKind::DropTail
        || net.topology.links.iter().any(|l| l.aqm.is_some());
    let mut bottlenecks = Vec::new();
    if topology_config {
        let tputs: Vec<f64> = flows.iter().map(|f| f.throughput_bytes_per_sec).collect();
        for (i, spec) in net.topology.links.iter().enumerate() {
            if !spec.bottleneck {
                continue;
            }
            let stats = &all_stats[i];
            bottlenecks.push(BottleneckMetrics {
                link: i as u32,
                label: spec.label.clone(),
                utilization: (stats.transmitted_bytes as f64 / secs) / spec.rate.as_bytes_per_sec(),
                jfi: jain_fairness_subset(&tputs, &net.topology.flows_on_link(i)),
                loss_rate: stats.loss_rate(),
                max_queue_bytes: stats.max_queue_bytes,
                ce_marked_pkts: stats.ce_marked_pkts,
            });
        }
    }

    if let Some(inst) = inst.as_deref_mut() {
        inst.collect(&net, now, &delivered_end);
    }
    let trace = drain_trace(&mut net, scenario);

    let outcome = RunOutcome {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        mss: scenario.mss,
        bottleneck: scenario.bottleneck,
        flows,
        flow_cca: net.flow_cca.clone(),
        measured_for,
        converged,
        ended_at: now,
        aggregate_loss_rate: link_stats.loss_rate(),
        drop_burstiness,
        max_queue_bytes: link_stats.max_queue_bytes,
        events_processed: net.sim.events_processed(),
        trace,
        bottlenecks,
    };
    if let Some(inst) = inst {
        inst.clock(Phase::Collect, collect_start);
    }
    debug_assert!(!watchdog.tripped(), "tripped watchdog must abort the run");
    Ok(Some(outcome))
}

/// True when a requested checkpoint hasn't been taken yet and `now` has
/// reached its instant.
fn checkpoint_due(ctl: &RunCtl<'_>, out: &Option<Checkpoint>, now: SimTime) -> bool {
    out.is_none() && ctl.checkpoint_at.is_some_and(|at| now >= at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::run;
    use crate::scenario::FlowGroup;
    use ccsim_cca::CcaKind;
    use ccsim_sim::{Bandwidth, SimDuration};

    /// A small, fast scenario: 4 reno flows on a 20 Mbps link.
    fn small(seed: u64) -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("small")
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                4,
                SimDuration::from_millis(20),
            )])
            .seed(seed);
        s.bottleneck = Bandwidth::from_mbps(20);
        s.buffer_bytes = 500_000; // ~1 BDP at 200 ms
        s.start_jitter = SimDuration::from_millis(300);
        s.warmup = SimDuration::from_secs(3);
        // Same-RTT AIMD fairness converges over many sawtooth periods
        // (~2.5 s each here): a 10 s window can catch flows mid-crossover
        // at JFI ≈ 0.7 depending on the start-jitter draws, so measure
        // for 30 s.
        s.duration = SimDuration::from_secs(30);
        s.convergence = None;
        s
    }

    #[test]
    fn reno_flows_fill_the_link_and_share_fairly() {
        let o = run(&small(1));
        // High utilization: loss-based flows with a 1-BDP buffer.
        assert!(o.utilization() > 0.85, "utilization = {}", o.utilization());
        assert!(o.utilization() <= 1.01);
        // Same-RTT reno is fair.
        let jfi = o.jain_index().unwrap();
        assert!(jfi > 0.9, "jfi = {jfi}");
        // Losses occurred (window is congestion-limited) and were counted.
        assert!(o.aggregate_loss_rate > 0.0);
        let events: u64 = o.flows.iter().map(|f| f.congestion_events).sum();
        assert!(events > 0, "no congestion events recorded");
    }

    #[test]
    fn outcome_is_deterministic_for_a_seed() {
        let a = run(&small(7));
        let b = run(&small(7));
        assert_eq!(a.throughputs(), b.throughputs());
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.aggregate_loss_rate, b.aggregate_loss_rate);
    }

    #[test]
    fn different_seeds_differ_but_agree_in_aggregate() {
        let a = run(&small(1));
        let b = run(&small(2));
        assert_ne!(a.events_processed, b.events_processed);
        // Aggregate throughput is a physical property: within a few %.
        let ra = a.aggregate_throughput_mbps();
        let rb = b.aggregate_throughput_mbps();
        assert!((ra - rb).abs() / ra < 0.05, "{ra} vs {rb}");
    }

    #[test]
    fn convergence_rule_stops_early() {
        let mut s = small(3);
        s.duration = SimDuration::from_secs(60);
        s.convergence = Some(crate::scenario::ConvergenceRule {
            window_snapshots: 5,
            tolerance: 0.05,
        });
        let o = run(&s);
        assert!(o.converged, "steady flows should converge");
        assert!(o.ended_at < SimTime::ZERO + s.warmup + s.duration);
    }

    #[test]
    fn window_counters_exclude_warmup() {
        let o = run(&small(4));
        for f in &o.flows {
            // Throughput implied by delivered bytes must match the field.
            let implied = f.delivered_bytes as f64 / o.measured_for.as_secs_f64();
            assert!((implied - f.throughput_bytes_per_sec).abs() < 1.0);
            // Queue arrivals were reset at warm-up: they cannot exceed what
            // the whole run could have sent in the window.
            assert!(f.queue_arrivals > 0);
        }
    }
}
