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
use crate::checkpoint::{self, HarnessRef, RestoredHarness};
use crate::error::SimError;
use crate::observe::{classify_msg, RunInstruments, COMPONENT_CLASSES, EVENT_KINDS};
use crate::outcome::{BottleneckMetrics, RunOutcome};
use crate::scenario::Scenario;
use crate::watchdog::Watchdog;
use ccsim_analysis::{jain_fairness_index, jain_fairness_subset};
use ccsim_net::link::{Link, LinkStats};
use ccsim_net::AqmKind;
use ccsim_resume::{Checkpoint, ResumeError};
use ccsim_sim::SimTime;
use ccsim_tcp::sender::Sender;
use ccsim_telemetry::{FlowMetrics, ThroughputTracker};
use ccsim_timeline::{FlowPoint, LinkPoint, Timeline};
use ccsim_trace::{RunTrace, TraceMeta};

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
/// `run_until` with zero observability cost. Observed advances are
/// wrapped in a `dispatch` profiler span — the denominator of the
/// manifest's `events_per_sec`, which deliberately excludes every
/// harness phase (build, snapshots, collection).
fn advance(
    net: &mut BuiltNetwork,
    until: SimTime,
    inst: Option<&RunInstruments>,
) -> Result<(), SimError> {
    if let Some(inst) = inst {
        let t0 = std::time::Instant::now();
        let result = net.sim.try_run_until_classified(until, classify_msg);
        inst.profiler.record("dispatch", t0.elapsed());
        result?;
        sync_engine_counts(net, inst);
    } else {
        net.sim.try_run_until(until)?;
    }
    Ok(())
}

/// Bring the engine's per-kind event counts and pending-queue peak into
/// the registry. The engine cannot depend on the telemetry crate, so the
/// counts live in plain fields; syncing them at every slice boundary lets
/// a live endpoint serve them while the run is going. Both count from the
/// build (a resumed run's from its restore), and nothing else writes the
/// per-kind counters.
fn sync_engine_counts(net: &BuiltNetwork, inst: &RunInstruments) {
    for (counter, &count) in inst.events_kind.iter().zip(net.sim.event_class_counts()) {
        counter.add(count - counter.get());
    }
    inst.pending_peak.set_max(net.sim.max_pending() as f64);
}

/// Component-id → profiler class-row table for `net`, indexed by raw
/// component id. Classes follow [`COMPONENT_CLASSES`] order.
fn comp_class_table(net: &BuiltNetwork) -> Vec<u8> {
    let ids = |v: &[ccsim_sim::ComponentId]| v.iter().map(|id| id.as_usize()).collect::<Vec<_>>();
    let groups = [
        ids(&net.links),
        ids(&net.routers),
        ids(&net.senders),
        ids(&net.receivers),
    ];
    let max = groups.iter().flatten().copied().max().unwrap_or(0);
    let mut table = vec![0u8; max + 1];
    for (class, group) in groups.iter().enumerate() {
        for &id in group {
            table[id] = class as u8;
        }
    }
    table
}

/// Harvest the engine's profiling state into a [`ccsim_prof::Profile`]
/// (collection phase, while the network is still assembled). The
/// `dispatch_nanos` field is stamped by the observed-run wrapper, which
/// owns the dispatch span totals.
fn harvest_profile(
    net: &mut BuiltNetwork,
    scratch_bytes: u64,
    stride: u64,
    checkpoint_bytes: u64,
) -> Option<ccsim_prof::Profile> {
    use ccsim_prof::{EventCells, MemGauge, Profile, WheelProfile};
    let (counts, nanos, samples) = net.sim.profile_cells()?;
    let (counts, nanos, samples) = (counts.to_vec(), nanos.to_vec(), samples.to_vec());

    let (mut senders, mut links, mut rings) = (0, 0, 0);
    for &id in &net.senders {
        let s = net.sim.component::<Sender>(id);
        senders += s.memory_bytes();
        rings += s.trace_memory_bytes();
    }
    for &id in &net.links {
        let l = net.sim.component::<Link>(id);
        links += l.memory_bytes();
        rings += l.trace_memory_bytes();
    }
    let mut memory = vec![
        ("tcp/senders", senders),
        ("net/link_queues", links),
        ("trace/rings", rings),
        ("sim/wheel", net.sim.queue_memory_bytes()),
        ("sim/scratch", scratch_bytes),
    ];
    // The checkpoint buffer pool exists only when a checkpoint was taken,
    // so checkpoint-free profiles keep their exact pool list.
    if checkpoint_bytes > 0 {
        memory.push(("resume/checkpoint", checkpoint_bytes));
    }
    // Sorted by name, so exports are stable.
    memory.sort_unstable();
    let memory = memory.into_iter().map(|(name, bytes)| MemGauge {
        name: name.into(),
        bytes,
    });

    Some(Profile {
        events: EventCells {
            classes: COMPONENT_CLASSES.iter().map(|s| s.to_string()).collect(),
            kinds: EVENT_KINDS.iter().map(|s| s.to_string()).collect(),
            stride,
            counts,
            nanos,
            samples,
        },
        wheel: WheelProfile::from(net.sim.wheel_stats()),
        memory: memory.collect(),
        dispatch_nanos: 0,
        flows: net.flow_count() as u32,
    })
}

/// Snapshot the sampler inputs: one [`FlowPoint`] per sampled flow and
/// one [`LinkPoint`] per link, all read-only simulator state.
fn timeline_points(net: &BuiltNetwork, sampled_flows: usize) -> (Vec<FlowPoint>, Vec<LinkPoint>) {
    let flows = net.senders[..sampled_flows]
        .iter()
        .map(|&id| {
            let s = net.sim.component::<Sender>(id);
            FlowPoint {
                retransmits: s.stats().retransmits,
                cwnd_bytes: s.cca().cwnd(),
                srtt_secs: s.srtt().as_secs_f64(),
                inflight_bytes: s.in_flight(),
            }
        })
        .collect();
    let links = net
        .links
        .iter()
        .map(|&id| {
            let l = net.sim.component::<Link>(id);
            let st = l.stats();
            LinkPoint {
                transmitted_bytes: st.transmitted_bytes,
                dropped_pkts: st.dropped_pkts,
                ce_marked_pkts: st.ce_marked_pkts,
                queue_bytes: l.backlog_bytes(),
                rate_bytes_per_sec: l.rate().as_bytes_per_sec(),
            }
        })
        .collect();
    (flows, links)
}

/// Feed the timeline sampler at a slice boundary. `delivered` lets the
/// measurement loop reuse the vector it already gathered for the tracker;
/// other call sites pass `None` and the helper snapshots the flows itself
/// into `scratch` — but only once a row is actually due, so
/// off-grid slices cost one comparison. `force` closes a possibly-short
/// row regardless of the window grid (warm-up boundary, end of run).
fn sample_timeline(
    net: &BuiltNetwork,
    inst: Option<&RunInstruments>,
    scratch: &mut Vec<u64>,
    now: SimTime,
    delivered: Option<&[u64]>,
    force: bool,
) {
    let Some(inst) = inst else { return };
    let mut slot = inst.timeline.borrow_mut();
    let Some(tl) = slot.as_mut() else { return };
    if !force && !tl.wants_row(now) {
        return;
    }
    let (flows, links) = timeline_points(net, tl.sampled_flows());
    match delivered {
        Some(d) => tl.push_row(now, d, &flows, &links),
        None => {
            net.per_flow_delivered_into(scratch);
            tl.push_row(now, scratch, &flows, &links);
        }
    }
}

/// Drain the flight recorders (present only when the scenario enabled
/// tracing) into one time-sorted trace. Factored out of collection so an
/// aborting run (watchdog violation) can still salvage the trace tail
/// for its crash bundle.
fn drain_trace(net: &mut BuiltNetwork, scenario: &Scenario) -> Option<RunTrace> {
    if !scenario.trace.enabled {
        return None;
    }
    let mut parts = Vec::with_capacity(net.flow_count() + 1);
    for &id in &net.senders {
        if let Some(rec) = net.sim.component_mut::<Sender>(id).take_trace() {
            parts.push(rec.finish());
        }
    }
    for &id in &net.links {
        if let Some(rec) = net.sim.component_mut::<Link>(id).take_trace() {
            parts.push(rec.finish());
        }
    }
    let meta = TraceMeta {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        flows: scenario.flow_count(),
    };
    Some(RunTrace::assemble(meta, parts))
}

/// The single runner loop behind every [`crate::RunRequest`]. When `inst`
/// is present, metric handles are attached to the engine/link/senders and
/// runner phases are profiled; the simulated event sequence is identical
/// either way (the instruments only observe). Returns `Ok(None)`
/// iff `ctl.stop_at_checkpoint` ended the run right after capture; a
/// captured checkpoint (if any) lands in `checkpoint_out`.
pub(crate) fn run_internal_ctl(
    scenario: &Scenario,
    inst: Option<&RunInstruments>,
    on_progress: &mut dyn FnMut(&Progress),
    ctl: RunCtl<'_>,
    checkpoint_out: &mut Option<Checkpoint>,
) -> Result<Option<RunOutcome>, SimError> {
    let build_span = inst.map(|i| i.profiler.span("build"));
    let mut net = BuiltNetwork::try_build(scenario)?;
    let mut watchdog = Watchdog::new(scenario.watchdog);
    // Reused by the timeline's off-loop delivered snapshots.
    let mut scratch: Vec<u64> = Vec::new();
    if let Some(inst) = inst {
        net.sim.set_event_classes(EVENT_KINDS.len());
        net.sim
            .component_mut::<Link>(net.link)
            .enable_metrics(inst.link.clone());
        for &id in &net.senders {
            net.sim
                .component_mut::<Sender>(id)
                .enable_metrics(inst.sender.clone());
        }
        if inst.options.profile {
            net.sim.enable_profiling(
                comp_class_table(&net),
                COMPONENT_CLASSES.len(),
                EVENT_KINDS.len(),
                inst.options.profile_stride,
            );
        }
    }
    drop(build_span);

    // Overlay checkpointed state onto the freshly built arena. The build
    // already rewound every config-derived setting; the checkpoint body
    // holds only live state (clock, queues, windows, RNG streams, harness
    // cursors).
    let window_snapshots = scenario
        .convergence
        .as_ref()
        .map_or(0, |rule| rule.window_snapshots);
    let mut restored = None;
    if let Some(cp) = ctl.resume_from {
        restored = Some(
            checkpoint::restore_into(&mut net, &mut watchdog, window_snapshots, &cp.body)
                .map_err(SimError::Resume)?,
        );
        if let Some(inst) = inst {
            inst.events_at_restore.set(net.sim.events_processed());
        }
    }

    // Arm the windowed sampler once the network exists (it needs the
    // flow/link counts). On a checkpoint resume the clock is non-zero:
    // the window grid starts from the restored instant, and priming
    // anchors the delta baselines at the current cumulative counters so
    // the pre-resume history is not attributed to the first window.
    if let Some(inst) = inst {
        if let Some(cfg) = inst.options.timeline {
            let mut tl = Timeline::new(cfg, net.flow_count(), net.links.len(), net.sim.now());
            let (flows, links) = timeline_points(&net, tl.sampled_flows());
            net.per_flow_delivered_into(&mut scratch);
            tl.prime(&scratch, &flows, &links);
            *inst.timeline.borrow_mut() = Some(tl);
        }
    }

    let warmup_end = SimTime::ZERO + scenario.warmup;
    let horizon = warmup_end + scenario.duration;
    let mut report = |sim_now: SimTime, events: u64, pending: usize| {
        let fraction = if horizon.as_nanos() == 0 {
            1.0
        } else {
            sim_now.as_nanos() as f64 / horizon.as_nanos() as f64
        };
        on_progress(&Progress {
            now: sim_now,
            horizon,
            fraction,
            events_processed: events,
            events_pending: pending,
        });
    };

    // Warm-up, sliced like the measurement phase so progress reporting
    // covers it (slicing `run_until` does not change event processing).
    // A measurement-phase resume skips it entirely — the warm-up boundary
    // actions already happened in the donor run and their results
    // (baselines, tracker) travel inside the checkpoint.
    let (sender_base, mut tracker, mut now) = match restored.take() {
        Some(RestoredHarness::Measurement {
            sender_base,
            tracker,
        }) => (sender_base, tracker, net.sim.now()),
        other => {
            debug_assert!(matches!(other, None | Some(RestoredHarness::Warmup)));
            {
                let span = inst.map(|i| i.profiler.span("warmup"));
                // Fresh runs start at zero; a warm-up-phase resume
                // continues from the restored clock (always a slice
                // boundary).
                let mut t = net.sim.now();
                while t < warmup_end {
                    let next = (t + scenario.snapshot_interval).min(warmup_end);
                    advance(&mut net, next, inst)?;
                    t = next;
                    sample_timeline(&net, inst, &mut scratch, t, None, false);
                    report(t, net.sim.events_processed(), net.sim.events_pending());
                    if watchdog.check(&net, scenario) {
                        return Err(SimError::Invariant {
                            trace: drain_trace(&mut net, scenario),
                            report: watchdog.into_report(),
                        });
                    }
                    if checkpoint_due(&ctl, checkpoint_out, t) {
                        store_checkpoint(
                            checkpoint::capture(scenario, &net, &watchdog, HarnessRef::Warmup),
                            checkpoint_out,
                            inst,
                        );
                        if ctl.stop_at_checkpoint {
                            return Ok(None);
                        }
                    }
                }
                drop(span);
            }

            // Warm-up boundary: close the warm-up's tail row *before* the
            // counter reset so no timeline delta straddles it, then reset
            // queue counters (every link) and snapshot per-flow baselines.
            sample_timeline(&net, inst, &mut scratch, warmup_end, None, true);
            for i in 0..net.links.len() {
                let id = net.links[i];
                net.sim.component_mut::<Link>(id).reset_stats();
            }
            if let Some(inst) = inst {
                if let Some(tl) = inst.timeline.borrow_mut().as_mut() {
                    tl.note_link_reset();
                }
            }
            let sender_base: Vec<SenderBaseline> = net
                .senders
                .iter()
                .map(|&id| {
                    let s = net.sim.component::<Sender>(id).stats();
                    SenderBaseline {
                        data_pkts_sent: s.data_pkts_sent,
                        retransmits: s.retransmits,
                        rtos: s.rtos,
                        delivered_bytes: 0, // filled from receivers below
                        congestion_events: s.congestion_events_before(warmup_end),
                    }
                })
                .collect();
            let delivered_base = net.per_flow_delivered();
            let sender_base: Vec<SenderBaseline> = sender_base
                .into_iter()
                .zip(&delivered_base)
                .map(|(mut b, &d)| {
                    b.delivered_bytes = d;
                    b
                })
                .collect();

            // The warm-up reset re-anchored the link counters; re-anchor
            // the conservation baseline with them.
            watchdog.rebaseline(&net);

            let mut tracker = ThroughputTracker::new(window_snapshots);
            tracker.record(warmup_end, delivered_base.clone());
            (sender_base, tracker, warmup_end)
        }
    };

    let deadline = horizon;
    let mut converged = false;
    while now < deadline {
        let slice_start = inst.map(|_| std::time::Instant::now());
        let next = (now + scenario.snapshot_interval).min(deadline);
        advance(&mut net, next, inst)?;
        now = next;
        let delivered = net.per_flow_delivered();
        sample_timeline(&net, inst, &mut scratch, now, Some(&delivered), false);
        tracker.record(now, delivered);
        if let (Some(inst), Some(t0)) = (inst, slice_start) {
            let elapsed = t0.elapsed();
            inst.slice_wall
                .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            inst.profiler.record("measure_slice", elapsed);
        }
        report(now, net.sim.events_processed(), net.sim.events_pending());
        if watchdog.check(&net, scenario) {
            return Err(SimError::Invariant {
                trace: drain_trace(&mut net, scenario),
                report: watchdog.into_report(),
            });
        }
        if let Some(rule) = &scenario.convergence {
            let agg = tracker.relative_change(|r| Some(r.iter().sum::<f64>()));
            let jfi = tracker.relative_change(jain_fairness_index);
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
            store_checkpoint(
                checkpoint::capture(
                    scenario,
                    &net,
                    &watchdog,
                    HarnessRef::Measurement {
                        sender_base: &sender_base,
                        tracker: &tracker,
                    },
                ),
                checkpoint_out,
                inst,
            );
            if ctl.stop_at_checkpoint {
                return Ok(None);
            }
        }
    }

    // ----- collection ----------------------------------------------------
    let collect_span = inst.map(|i| i.profiler.span("collect"));
    // Flush edge-held link metric state (the engine's counts were synced
    // at the last slice boundary).
    if inst.is_some() {
        net.sim.component_mut::<Link>(net.link).finish_metrics();
    }
    let measured_for = now - warmup_end;
    let secs = measured_for.as_secs_f64();
    assert!(secs > 0.0, "empty measurement window");
    let delivered_end = net.per_flow_delivered();
    // Close the run's tail row (zero-span no-op when the last slice
    // already closed one on the grid).
    sample_timeline(&net, inst, &mut scratch, now, Some(&delivered_end), true);

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

    // Profiling harvest runs before the trace drain so the `trace/rings`
    // memory gauge still sees attached recorders.
    if let Some(inst) = inst {
        if inst.options.profile {
            *inst.profile_out.borrow_mut() = harvest_profile(
                &mut net,
                (scratch.capacity() * std::mem::size_of::<u64>()) as u64,
                inst.options.profile_stride,
                inst.checkpoint_bytes.get(),
            );
        }
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
    drop(collect_span);
    debug_assert!(!watchdog.tripped(), "tripped watchdog must abort the run");
    Ok(Some(outcome))
}

/// True when a requested checkpoint hasn't been taken yet and `now` has
/// reached its instant.
fn checkpoint_due(ctl: &RunCtl<'_>, out: &Option<Checkpoint>, now: SimTime) -> bool {
    out.is_none() && ctl.checkpoint_at.is_some_and(|at| now >= at)
}

/// Stash a captured checkpoint, gauging its encoded size for the
/// observed-run manifest and memory profile.
fn store_checkpoint(cp: Checkpoint, out: &mut Option<Checkpoint>, inst: Option<&RunInstruments>) {
    if let Some(inst) = inst {
        inst.checkpoint_bytes.set(cp.encoded_len() as u64);
    }
    *out = Some(cp);
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
