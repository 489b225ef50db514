//! Self-observability for runs: metric attachment, harvesting, and the
//! per-run artifacts (Prometheus dump + manifest).
//!
//! An *observed* run is an ordinary run with instruments attached:
//! plain tallies on the bottleneck link and the senders, an event
//! classifier on the engine, a wall clock per runner phase, and one
//! per-slice step (`RunInstruments::slice`) that feeds the timeline and
//! the live endpoint. The counts stay with their owners: the engine and
//! the components count into plain fields (`ccsim-net` and `ccsim-tcp`
//! do not depend on `ccsim-telemetry`), and `RunInstruments` reads
//! them into a plain snapshot only when it writes a dump.
//! Observation is **provably inert** — the enablement
//! lives here, outside [`Scenario`], so the simulated configuration is
//! bit-identical with and without it, and the tallies are written by the
//! components and read only here. The integration tests assert that a
//! metrics-on run and a metrics-off run of the same (scenario, seed)
//! produce identical [`RunOutcome`] digests.
//!
//! Metric families emitted per run:
//!
//! | family | kind | meaning |
//! |---|---|---|
//! | `ccsim_events_total{kind}` | counter | engine events by data/ack/timer |
//! | `ccsim_events_pending_peak` | gauge | event-queue high-water mark |
//! | `ccsim_events_per_sec` | gauge | engine throughput, events/dispatch-sec |
//! | `ccsim_sim_wall_ratio` | gauge | sim-seconds per wall-second |
//! | `ccsim_slice_wall_nanos` | histogram | wall time per measurement slice |
//! | `ccsim_link_queue_bytes` | histogram | queue occupancy at arrivals |
//! | `ccsim_link_drop_burst_pkts` | histogram | consecutive-drop burst sizes |
//! | `ccsim_link_busy_nanos_total` | counter | serializer busy time (sim ns) |
//! | `ccsim_tcp_rtos_total` | counter | genuine RTOs, all flows |
//! | `ccsim_tcp_fast_recoveries_total` | counter | recovery entries, all flows |
//! | `ccsim_tcp_pacing_stalls_total` | counter | pacing-gate deferrals |
//! | `ccsim_phase_wall_nanos_total{phase}` | counter | runner phase wall time |
//! | `ccsim_phase_calls_total{phase}` | counter | times each runner phase was clocked |
//!
//! The engine families read the engine's per-kind counts and pending
//! peak, the three link families the bottleneck's
//! [`LinkTallies`](ccsim_net::LinkTallies), pacing stalls the senders'
//! tallies, and the RTO and recovery counts Σ
//! [`SenderStats`](ccsim_tcp::SenderStats) less the sum at
//! `RunInstruments::start`, so a resumed run counts from its restore.
//! They are read when the live endpoint is due a publish (whose drop
//! bursts are the closed ones only, so no observation moves between
//! buckets from one scrape to the next) and once at collection, whose
//! snapshot the dump writes with the drop burst in progress closed.
//!
//! With [`ObserveOptions::profile`] on, the `ccsim-prof` families join
//! the dump as well (`ccsim_prof_events_total{class,kind}`, timer-wheel
//! counters, `ccsim_mem_bytes{pool}` — see
//! [`ccsim_telemetry::export_profile_into`]).

use crate::build::BuiltNetwork;
use crate::outcome::RunOutcome;
use crate::runner::Progress;
use crate::scenario::Scenario;
use ccsim_net::link::Link;
use ccsim_net::msg::Msg;
use ccsim_sim::{safe_rate, Fnv1a, Log2Tally, SimTime};
use ccsim_tcp::receiver::Receiver;
use ccsim_tcp::sender::Sender;
use ccsim_telemetry::manifest::RunManifest;
use ccsim_telemetry::prometheus::Exposition;
use ccsim_timeline::export::to_jsonl;
use ccsim_timeline::serve::LiveState;
use ccsim_timeline::{FlowPoint, LinkPoint, Timeline, TimelineConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live snapshots are re-rendered at most this often (wall time).
const LIVE_PUBLISH_EVERY: Duration = Duration::from_millis(250);

/// Event classes for `ccsim_events_total{kind=...}`.
pub(crate) const EVENT_KINDS: [&str; 3] = ["data", "ack", "timer"];

/// Component classes for the profiler's event-attribution rows, in the
/// order the class table assigns them (see `comp_class_table`).
pub(crate) const COMPONENT_CLASSES: [&str; 4] = ["link", "router", "sender", "receiver"];

/// The runner phases with a wall clock each, in run order: the `phase`
/// labels of `ccsim_phase_wall_nanos_total` / `ccsim_phase_calls_total`.
const PHASES: [&str; 5] = ["build", "warmup", "dispatch", "measure_slice", "collect"];

/// A runner phase, indexing [`PHASES`]. `Dispatch` covers the engine's
/// event loop only — the denominator of the manifest's `events_per_sec`,
/// which deliberately excludes every harness phase.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Build,
    Warmup,
    Dispatch,
    MeasureSlice,
    Collect,
}

/// Classify an engine message into an [`EVENT_KINDS`] index. Installed on
/// the engine (which cannot depend on this crate) as a plain fn pointer.
pub(crate) fn classify_msg(m: &Msg) -> usize {
    match m {
        Msg::Packet(p) if p.is_data() => 0,
        Msg::Packet(_) => 1,
        Msg::Timer(_) => 2,
    }
}

/// Opt-in knobs for an observed run, beyond the always-on instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Attach the `ccsim-prof` event-attribution profiler to the engine.
    /// Digest-inert: the class-table lookup and strided `Instant` samples
    /// never touch simulation state.
    pub profile: bool,
    /// Sampling stride for the profiler's wall-clock samples: one
    /// `Instant::now()` per `stride` dispatched events. The stride is
    /// fixed, so *which* events sample is a pure function of the event
    /// stream.
    pub profile_stride: u64,
    /// Capture a windowed timeline (per-flow / per-link / aggregate
    /// series at the configured window granularity). Digest-inert: the
    /// sampler only reads component state at slice boundaries.
    pub timeline: Option<TimelineConfig>,
}

impl Default for ObserveOptions {
    fn default() -> ObserveOptions {
        ObserveOptions {
            profile: false,
            profile_stride: ccsim_prof::DEFAULT_STRIDE,
            timeline: None,
        }
    }
}

impl ObserveOptions {
    /// Options with profiling on at the default stride.
    pub fn profiled() -> ObserveOptions {
        ObserveOptions {
            profile: true,
            ..ObserveOptions::default()
        }
    }

    /// Options with timeline capture on at the default window/budget.
    pub fn timelined() -> ObserveOptions {
        ObserveOptions {
            timeline: Some(TimelineConfig::default()),
            ..ObserveOptions::default()
        }
    }
}

/// Everything attached to one observed run: the phase clocks, the
/// slice-time tally, the baselines the counts are read against, and the
/// snapshot collection takes. The runner owns it for the run (`&mut`),
/// so nothing here needs a cell.
pub(crate) struct RunInstruments {
    /// `(wall nanos, calls)` per [`PHASES`] entry.
    phases: [(u64, u64); PHASES.len()],
    /// Observation knobs this run was started with.
    options: ObserveOptions,
    /// Wall nanoseconds per measurement slice (`ccsim_slice_wall_nanos`).
    slice_wall: Log2Tally,
    /// Σ `SenderStats` `(rtos, fast_recoveries)` when the run started
    /// (non-zero only after a checkpoint restore): the baseline of the two
    /// congestion families, which count this segment's events only.
    congestion_at_start: (u64, u64),
    /// The counts as [`RunInstruments::collect`] read them.
    counts: RunCounts,
    /// Filled by [`RunInstruments::collect`] when profiling is on
    /// (everything except `dispatch_nanos`, stamped by `finish`).
    profile: Option<ccsim_prof::Profile>,
    /// Encoded size of the checkpoint this run captured, if any — feeds
    /// the manifest's `checkpoint_bytes` and, under profiling, the
    /// `resume/checkpoint` memory pool.
    pub(crate) checkpoint_bytes: u64,
    /// The engine's event count when the run started (non-zero only after
    /// a checkpoint restore): the baseline of the manifest's
    /// `events_per_sec`, whose dispatch clock only covers this segment.
    events_at_start: u64,
    /// The windowed sampler, created by [`RunInstruments::start`] once the
    /// network exists (it needs the flow/link counts) when
    /// [`ObserveOptions::timeline`] is set.
    timeline: Option<Timeline>,
    /// Reused by the timeline's warm-up delivered snapshots (the
    /// measurement phase hands it the tracker's).
    scratch: Vec<u64>,
    /// The live endpoint, and when it was last published into.
    live: Option<Arc<LiveState>>,
    last_publish: Option<Instant>,
}

/// One read of everything the run-level families count, taken from the
/// counts' owners: plain values, written into a dump and then dropped.
#[derive(Default)]
struct RunCounts {
    /// The engine's per-kind event counts, in [`EVENT_KINDS`] order.
    events_by_kind: [u64; EVENT_KINDS.len()],
    /// The engine's pending-event high-water mark.
    pending_peak: u64,
    /// The bottleneck's queue-occupancy tally ([`ccsim_net::LinkTallies`]).
    queue_bytes: Log2Tally,
    /// Its drop-burst sizes, the burst in progress closed at the run's end.
    drop_bursts: Log2Tally,
    /// Its serializer's busy nanoseconds.
    busy_nanos: u64,
    /// Σ over the senders, since [`RunInstruments::start`].
    rtos: u64,
    /// Σ over the senders, since [`RunInstruments::start`].
    fast_recoveries: u64,
    /// Σ over the senders' pacing-stall tallies.
    pacing_stalls: u64,
}

impl RunInstruments {
    /// Fresh instruments for one observed run. With `live`, the per-slice
    /// step publishes into it.
    pub(crate) fn new(options: ObserveOptions, live: Option<Arc<LiveState>>) -> RunInstruments {
        RunInstruments {
            phases: [(0, 0); PHASES.len()],
            options,
            slice_wall: Log2Tally::default(),
            congestion_at_start: (0, 0),
            counts: RunCounts::default(),
            profile: None,
            checkpoint_bytes: 0,
            events_at_start: 0,
            timeline: None,
            scratch: Vec::new(),
            live,
            last_publish: None,
        }
    }

    /// Add the wall time since `since` to `phase`'s clock; returns it in
    /// nanoseconds.
    pub(crate) fn clock(&mut self, phase: Phase, since: Instant) -> u64 {
        let elapsed = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (nanos, calls) = &mut self.phases[phase as usize];
        *nanos = nanos.saturating_add(elapsed);
        *calls += 1;
        elapsed
    }

    /// Attach the tallies and the event classifier (and the event
    /// profiler, when asked for) to a freshly built network.
    pub(crate) fn attach(&self, net: &mut BuiltNetwork) {
        net.sim.set_event_classes(EVENT_KINDS.len());
        net.sim.component_mut::<Link>(net.link).enable_tallies();
        for &id in &net.senders {
            net.sim.component_mut::<Sender>(id).enable_tallies();
        }
        if self.options.profile {
            net.sim.enable_profiling(
                comp_class_table(net),
                COMPONENT_CLASSES.len(),
                EVENT_KINDS.len(),
                self.options.profile_stride,
            );
        }
    }

    /// Anchor the run once the network holds its starting state (after
    /// any restore): the event baseline of `events_per_sec`, the
    /// congestion families' baseline, and the timeline's window grid. On
    /// a resume the grid starts from the restored instant, and priming
    /// anchors the delta baselines at the current cumulative counters so
    /// the pre-resume history is not attributed to the first window.
    pub(crate) fn start(&mut self, net: &BuiltNetwork) {
        self.events_at_start = net.sim.events_processed();
        let (rtos, recoveries, _) = sender_counts(net);
        self.congestion_at_start = (rtos, recoveries);
        if let Some(cfg) = self.options.timeline {
            let mut tl = Timeline::new(cfg, net.flow_count(), net.links.len(), net.sim.now());
            let (flows, links) = timeline_points(net, tl.sampled_flows());
            net.per_flow_delivered_into(&mut self.scratch);
            tl.prime(&self.scratch, &flows, &links);
            self.timeline = Some(tl);
        }
    }

    /// The per-slice step, after the engine reached `progress.now`: feed
    /// the timeline when its grid calls for a row, clock a measurement
    /// slice (from `started`), hand `progress` to the caller's callback,
    /// then publish to the live endpoint at most every
    /// [`LIVE_PUBLISH_EVERY`]. `measured` is the tracker's snapshot at
    /// this boundary; `None` during the warm-up.
    pub(crate) fn slice(
        &mut self,
        net: &BuiltNetwork,
        progress: &Progress,
        measured: Option<&[u64]>,
        started: Instant,
        on_progress: &mut dyn FnMut(&Progress),
    ) {
        if self
            .timeline
            .as_ref()
            .is_some_and(|tl| tl.wants_row(progress.now))
        {
            self.push_row(net, progress.now, measured);
        }
        if measured.is_some() {
            let nanos = self.clock(Phase::MeasureSlice, started);
            self.slice_wall.record(nanos);
        }
        on_progress(progress);
        // The publisher only *reads* counts that are kept anyway, so
        // serving is digest-inert like every other observation layer.
        if let Some(state) = &self.live {
            if self
                .last_publish
                .is_none_or(|t| t.elapsed() >= LIVE_PUBLISH_EVERY)
            {
                self.last_publish = Some(Instant::now());
                self.publish_into(net, state);
            }
        }
    }

    /// At the warm-up boundary, before the link counters reset: stop the
    /// warm-up clock (started at `started`), close the warm-up's tail row
    /// so no timeline delta straddles the reset, and re-anchor the
    /// timeline's link deltas at the zero the reset leaves.
    pub(crate) fn close_warmup(&mut self, net: &BuiltNetwork, at: SimTime, started: Instant) {
        self.clock(Phase::Warmup, started);
        self.push_row(net, at, None);
        if let Some(tl) = &mut self.timeline {
            tl.note_link_reset();
        }
    }

    /// At collection, before the trace drains: read the counts the dump
    /// writes, close the run's tail row (a zero-span no-op when the last
    /// slice closed one on the grid), and harvest the event profile while
    /// the flight recorders still count towards `trace/rings`.
    pub(crate) fn collect(&mut self, net: &BuiltNetwork, now: SimTime, delivered: &[u64]) {
        self.counts = self.read_counts(net, true);
        self.push_row(net, now, Some(delivered));
        if self.options.profile {
            self.profile = harvest_profile(
                net,
                (self.scratch.capacity() * std::mem::size_of::<u64>()) as u64,
                self.options.profile_stride,
                self.checkpoint_bytes,
            );
        }
    }

    /// Read the run-level families' counts from their owners: the
    /// engine's per-kind counts and pending peak, the bottleneck's
    /// [`ccsim_net::LinkTallies`], and over all senders the RTOs and recovery
    /// entries since [`RunInstruments::start`] and the pacing stalls. A
    /// run that has `ended` counts the drop burst in progress; a live
    /// scrape counts closed bursts only, so no observation moves between
    /// buckets from one scrape to the next.
    fn read_counts(&self, net: &BuiltNetwork, ended: bool) -> RunCounts {
        let mut events_by_kind = [0; EVENT_KINDS.len()];
        for (n, &count) in events_by_kind.iter_mut().zip(net.sim.event_class_counts()) {
            *n = count;
        }
        let link = net.sim.component::<Link>(net.link).tallies();
        let link = link.cloned().unwrap_or_default();
        let (rtos, recoveries, pacing_stalls) = sender_counts(net);
        RunCounts {
            events_by_kind,
            pending_peak: net.sim.max_pending(),
            drop_bursts: if ended {
                link.drop_bursts_closed()
            } else {
                link.drop_burst_pkts
            },
            queue_bytes: link.queue_bytes,
            busy_nanos: link.busy_nanos,
            rtos: rtos - self.congestion_at_start.0,
            fast_recoveries: recoveries - self.congestion_at_start.1,
            pacing_stalls,
        }
    }

    /// Append the run-level families holding `c` to `out`, with the two
    /// rate gauges at `rates`.
    fn write_counts(&self, out: &mut Exposition, c: &RunCounts, rates: (f64, f64)) {
        for (kind, &n) in EVENT_KINDS.iter().zip(&c.events_by_kind) {
            out.counter(
                "ccsim_events_total",
                "Engine events processed, by message kind",
                &[("kind", kind)],
                n,
            );
        }
        for (family, help, value) in [
            (
                "ccsim_events_pending_peak",
                "High-water mark of the engine's pending-event queue",
                c.pending_peak as f64,
            ),
            (
                "ccsim_events_per_sec",
                "Engine events processed per wall-clock second",
                rates.0,
            ),
            (
                "ccsim_sim_wall_ratio",
                "Simulated seconds per wall-clock second",
                rates.1,
            ),
        ] {
            out.gauge(family, help, &[], value);
        }
        for (family, help, tally) in [
            (
                "ccsim_slice_wall_nanos",
                "Wall-clock nanoseconds per measurement slice",
                &self.slice_wall,
            ),
            (
                "ccsim_link_queue_bytes",
                "Bottleneck queue occupancy in bytes, sampled at packet arrivals",
                &c.queue_bytes,
            ),
            (
                "ccsim_link_drop_burst_pkts",
                "Sizes of consecutive-drop bursts at the bottleneck, in packets",
                &c.drop_bursts,
            ),
        ] {
            out.histogram(family, help, &[], tally);
        }
        for (family, help, value) in [
            (
                "ccsim_link_busy_nanos_total",
                "Simulated nanoseconds the bottleneck serializer was busy",
                c.busy_nanos,
            ),
            (
                "ccsim_tcp_rtos_total",
                "Genuine retransmission timeouts across all flows",
                c.rtos,
            ),
            (
                "ccsim_tcp_fast_recoveries_total",
                "Fast-recovery episode entries across all flows",
                c.fast_recoveries,
            ),
            (
                "ccsim_tcp_pacing_stalls_total",
                "Transmissions deferred by the pacing gate across all flows",
                c.pacing_stalls,
            ),
        ] {
            out.counter(family, help, &[], value);
        }
    }

    /// Close the timeline row ending at `now`, reading `delivered` or,
    /// when the caller has none, snapshotting the flows into the scratch
    /// vector.
    fn push_row(&mut self, net: &BuiltNetwork, now: SimTime, delivered: Option<&[u64]>) {
        let Some(tl) = &mut self.timeline else { return };
        let (flows, links) = timeline_points(net, tl.sampled_flows());
        let delivered = match delivered {
            Some(d) => d,
            None => {
                net.per_flow_delivered_into(&mut self.scratch);
                &self.scratch
            }
        };
        tl.push_row(now, delivered, &flows, &links);
    }
}

/// Σ over the senders of `(rtos, fast_recoveries, pacing stalls)`: the
/// first two from the always-kept `SenderStats`, the last from the tally
/// [`RunInstruments::attach`] attached.
fn sender_counts(net: &BuiltNetwork) -> (u64, u64, u64) {
    let mut sums = (0, 0, 0);
    for &id in &net.senders {
        let s = net.sim.component::<Sender>(id);
        sums.0 += s.stats().rtos;
        sums.1 += s.stats().fast_recoveries;
        sums.2 += s.pacing_stalls().unwrap_or(0);
    }
    sums
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
/// `dispatch_nanos` field is stamped by `finish`, which reads the
/// dispatch clock.
fn harvest_profile(
    net: &BuiltNetwork,
    scratch_bytes: u64,
    stride: u64,
    checkpoint_bytes: u64,
) -> Option<ccsim_prof::Profile> {
    use ccsim_prof::{EventCells, MemGauge, Profile, WheelProfile};
    let (counts, nanos, samples) = net.sim.profile_cells()?;
    let (counts, nanos, samples) = (counts.to_vec(), nanos.to_vec(), samples.to_vec());

    let (mut senders, mut receivers, mut links, mut rings) = (0, 0, 0, 0);
    for &id in &net.senders {
        let s = net.sim.component::<Sender>(id);
        senders += s.memory_bytes();
        rings += s.trace_memory_bytes();
    }
    for &id in &net.receivers {
        receivers += net.sim.component::<Receiver>(id).memory_bytes();
    }
    for &id in &net.links {
        let l = net.sim.component::<Link>(id);
        links += l.memory_bytes();
        rings += l.trace_memory_bytes();
    }
    let mut memory = vec![
        ("tcp/senders", senders),
        ("tcp/receivers", receivers),
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

/// The result of an observed run: the outcome itself plus the two
/// self-observability artifacts.
#[derive(Debug)]
pub struct ObservedRun {
    /// The ordinary run result (identical to an unobserved run's).
    pub outcome: RunOutcome,
    /// Provenance manifest for this run.
    pub manifest: RunManifest,
    /// Prometheus text-exposition dump of every metric.
    pub prometheus: String,
    /// The captured timeline when [`ObserveOptions::timeline`] was set
    /// (its summary is also embedded in the manifest).
    pub timeline: Option<Timeline>,
}

/// FNV-1a digest of a scenario's full configuration (streamed over its
/// `Debug` representation, which covers every field at full precision).
pub fn scenario_digest(scenario: &Scenario) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv1a::new();
    write!(h, "{scenario:?}").expect("hashing text cannot fail");
    h.finish()
}

impl RunInstruments {
    /// Publish the counts as they stand (and the timeline so far, when
    /// one is being captured) into a live endpoint. The rate gauges read
    /// 0 until the run ends, and the phase clocks and the profile join
    /// only the final publish.
    fn publish_into(&self, net: &BuiltNetwork, state: &LiveState) {
        let mut out = Exposition::new();
        self.write_counts(&mut out, &self.read_counts(net, false), (0.0, 0.0));
        state.publish_metrics(out.into_text());
        if let Some(tl) = &self.timeline {
            state.publish_timeline(to_jsonl(tl));
        }
    }

    /// Close an observed run: derive the rate gauges, write the counts
    /// [`RunInstruments::collect`] read, the phase clocks and the profile
    /// into the Prometheus dump, assemble the manifest and the captured
    /// timeline, and leave the completed artefacts on the live endpoint.
    pub(crate) fn finish(
        mut self,
        scenario: &Scenario,
        outcome: &RunOutcome,
        wall_secs: f64,
    ) -> (RunManifest, String, Option<Timeline>) {
        let sim_secs = outcome.ended_at.as_secs_f64();
        // Engine throughput over *dispatch* time only, so build, snapshot
        // bookkeeping, and collection do not dilute the figure.
        let dispatch_nanos = self.phases[Phase::Dispatch as usize].0;
        let dispatch_secs = dispatch_nanos as f64 / 1e9;
        // A resumed run's dispatch clock starts at the restore, so only the
        // events dispatched since then count towards its rate; the
        // manifest's `events_processed` stays the whole run's.
        let events_dispatched = outcome.events_processed - self.events_at_start;
        // `safe_rate` keeps both figures finite on zero-event or
        // sub-microsecond runs (dispatch clock rounds to 0 ns).
        let events_per_sec = safe_rate(events_dispatched as f64, dispatch_secs);
        let sim_wall_ratio = safe_rate(sim_secs, wall_secs);

        let mut out = Exposition::new();
        self.write_counts(&mut out, &self.counts, (events_per_sec, sim_wall_ratio));
        // One group per family: every wall-clock series, then every count.
        // A phase the run never entered has no series.
        let clocked = || PHASES.iter().zip(self.phases).filter(|(_, (_, n))| *n > 0);
        for (phase, (nanos, _)) in clocked() {
            out.counter(
                "ccsim_phase_wall_nanos_total",
                "Wall-clock nanoseconds spent in each runner phase",
                &[("phase", phase)],
                nanos,
            );
        }
        for (phase, (_, calls)) in clocked() {
            out.counter(
                "ccsim_phase_calls_total",
                "Times each runner phase was clocked",
                &[("phase", phase)],
                calls,
            );
        }
        if let Some(p) = &mut self.profile {
            p.dispatch_nanos = dispatch_nanos;
            ccsim_telemetry::export_profile_into(p, &mut out);
        }
        let metric_series = out.series();
        let prometheus = out.into_text();
        if let Some(state) = &self.live {
            // Final publish so the endpoints show the completed run, not
            // the last throttled snapshot.
            state.publish_metrics(prometheus.clone());
            if let Some(tl) = &self.timeline {
                state.publish_timeline(to_jsonl(tl));
            }
        }
        let timeline_summary = self.timeline.as_ref().map(Timeline::summary);
        let events_by_kind = EVENT_KINDS
            .iter()
            .zip(self.counts.events_by_kind)
            .map(|(kind, n)| (kind.to_string(), n))
            .collect();
        let manifest = RunManifest {
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            flows: scenario.flow_count(),
            config_digest: format!("{:016x}", scenario_digest(scenario)),
            outcome_digest: format!("{:016x}", outcome.digest()),
            sim_secs,
            wall_secs,
            dispatch_secs,
            sim_wall_ratio,
            events_processed: outcome.events_processed,
            events_per_sec,
            peak_queue_bytes: outcome.max_queue_bytes,
            peak_pending_events: self.counts.pending_peak,
            trace_bytes: outcome.trace.as_ref().map_or(0, |t| t.wire_bytes()),
            metric_bytes: prometheus.len() as u64,
            metric_series,
            converged: outcome.converged,
            checkpoint_bytes: self.checkpoint_bytes,
            events_by_kind,
            bottlenecks: outcome.bottlenecks.clone(),
            profile: self.profile,
            timeline: timeline_summary,
        };
        (manifest, prometheus, self.timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RunRequest;
    use crate::scenario::FlowGroup;
    use ccsim_cca::CcaKind;
    use ccsim_sim::{Bandwidth, SimDuration};
    use ccsim_telemetry::validate_exposition;

    fn tiny(seed: u64) -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("tiny")
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .seed(seed);
        s.bottleneck = Bandwidth::from_mbps(10);
        s.buffer_bytes = 100_000;
        s.warmup = SimDuration::from_secs(1);
        s.duration = SimDuration::from_secs(4);
        s.start_jitter = SimDuration::from_millis(100);
        s.convergence = None;
        s
    }

    fn observed(scenario: &Scenario, options: ObserveOptions) -> ObservedRun {
        RunRequest::new(scenario)
            .observe(options)
            .execute()
            .unwrap()
            .into_observed()
            .expect("observed request")
    }

    #[test]
    fn observed_run_emits_valid_artifacts() {
        let obs = observed(&tiny(5), ObserveOptions::default());
        validate_exposition(&obs.prometheus).unwrap();
        assert!(obs.prometheus.contains("ccsim_events_total{kind=\"data\"}"));
        assert!(obs.prometheus.contains("ccsim_link_queue_bytes_bucket"));
        assert!(obs.prometheus.contains("ccsim_phase_wall_nanos_total"));
        let m = &obs.manifest;
        assert_eq!(m.scenario, "tiny");
        assert_eq!(m.seed, 5);
        assert_eq!(m.flows, 2);
        assert_eq!(m.events_processed, obs.outcome.events_processed);
        assert!(m.events_processed > 0);
        assert!(m.peak_pending_events > 0);
        assert!(m.metric_series > 10);
        assert_eq!(m.metric_bytes, obs.prometheus.len() as u64);
        // Round-trip.
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(&back, m);
    }

    #[test]
    fn event_kind_counts_sum_to_events_processed() {
        let obs = observed(&tiny(6), ObserveOptions::default());
        let total: u64 = EVENT_KINDS
            .iter()
            .map(|kind| {
                let line = format!("ccsim_events_total{{kind=\"{kind}\"}} ");
                obs.prometheus
                    .lines()
                    .find(|l| l.starts_with(&line))
                    .and_then(|l| l.split_whitespace().last())
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, obs.outcome.events_processed);
    }

    #[test]
    fn metrics_are_inert_same_outcome_digest() {
        let plain = crate::request::run(&tiny(7));
        let observed = observed(&tiny(7), ObserveOptions::default());
        assert_eq!(plain.to_json(), observed.outcome.to_json());
        assert_eq!(plain.digest(), observed.outcome.digest());
        assert_eq!(
            format!("{:016x}", plain.digest()),
            observed.manifest.outcome_digest
        );
    }

    #[test]
    fn config_digest_tracks_configuration() {
        assert_eq!(scenario_digest(&tiny(1)), scenario_digest(&tiny(1)));
        assert_ne!(scenario_digest(&tiny(1)), scenario_digest(&tiny(2)));
    }

    #[test]
    fn observed_manifest_carries_per_kind_event_counts() {
        let obs = observed(&tiny(8), ObserveOptions::default());
        let m = &obs.manifest;
        assert_eq!(m.events_by_kind.len(), EVENT_KINDS.len());
        let total: u64 = m.events_by_kind.iter().map(|(_, c)| c).sum();
        assert_eq!(total, m.events_processed);
        assert!(m.dispatch_secs > 0.0);
        assert!(m.dispatch_secs <= m.wall_secs);
        // events_per_sec is events over dispatch time, not total wall.
        let implied = m.events_processed as f64 / m.dispatch_secs;
        assert!((implied - m.events_per_sec).abs() / implied < 1e-9);
        assert!(!m.eps_by_kind().is_empty());
    }

    #[test]
    fn profiling_is_digest_inert_and_fills_the_profile() {
        let plain = observed(&tiny(9), ObserveOptions::default());
        let profiled = observed(&tiny(9), ObserveOptions::profiled());
        // Byte-identical outcome with the profiler attached.
        assert_eq!(plain.outcome.to_json(), profiled.outcome.to_json());
        assert_eq!(
            plain.manifest.outcome_digest,
            profiled.manifest.outcome_digest
        );
        assert!(plain.manifest.profile.is_none());

        let p = profiled.manifest.profile.as_ref().unwrap();
        assert_eq!(p.events.total(), profiled.outcome.events_processed);
        assert_eq!(p.flows, 2);
        assert!(p.dispatch_nanos > 0);
        assert!(p.memory_total_bytes() > 0);
        let pools: Vec<&str> = p.memory.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            pools,
            [
                "net/link_queues",
                "sim/scratch",
                "sim/wheel",
                "tcp/receivers",
                "tcp/senders",
                "trace/rings"
            ]
        );
        // Tracing was off, so the rings pool is empty but present.
        assert_eq!(
            p.memory
                .iter()
                .find(|g| g.name == "trace/rings")
                .unwrap()
                .bytes,
            0
        );
        // The profile's families joined the Prometheus dump.
        assert!(profiled.prometheus.contains("ccsim_prof_events_total"));
        assert!(profiled
            .prometheus
            .contains("ccsim_mem_bytes{pool=\"tcp/senders\"}"));
        // Manifest round-trips with the profile embedded.
        let back = RunManifest::from_json(&profiled.manifest.to_json()).unwrap();
        assert_eq!(&back, &profiled.manifest);
    }

    #[test]
    fn timeline_is_digest_inert_and_fills_the_summary() {
        let plain = observed(&tiny(11), ObserveOptions::default());
        let timelined = observed(&tiny(11), ObserveOptions::timelined());
        // Byte-identical outcome with the sampler attached.
        assert_eq!(plain.outcome.to_json(), timelined.outcome.to_json());
        assert_eq!(
            plain.manifest.outcome_digest,
            timelined.manifest.outcome_digest
        );
        assert!(plain.timeline.is_none());
        assert!(plain.manifest.timeline.is_none());

        let tl = timelined.timeline.as_ref().unwrap();
        // 1 s warm-up + 4 s duration at the default 1 s window: one
        // warm-up row plus four measurement rows.
        assert_eq!(tl.rows().pushed(), 5);
        assert_eq!(tl.sampled_flows(), 2);
        let s = timelined.manifest.timeline.as_ref().unwrap();
        assert_eq!(s.rows, 5);
        assert_eq!(s.retained, 5);
        assert_eq!(s.flows_sampled, 2);
        assert_eq!(s.series as usize, tl.columns().len());
        // Manifest round-trips with the timeline section embedded.
        let back = RunManifest::from_json(&timelined.manifest.to_json()).unwrap();
        assert_eq!(&back, &timelined.manifest);
        // The spans tile the run exactly: measurement rows (after the
        // warm-up close at 1 s) sum to the 4 s measurement phase.
        let spans: f64 = tl.rows().spans().skip(1).sum();
        assert!((spans - 4.0).abs() < 1e-9, "spans {spans}");
    }

    #[test]
    fn live_serving_publishes_both_endpoints() {
        use std::sync::Arc;
        let live = Arc::new(LiveState::new());
        let scenario = tiny(12);
        let obs = RunRequest::new(&scenario)
            .observe(ObserveOptions::timelined())
            .live(live.clone())
            .execute()
            .unwrap()
            .into_observed()
            .unwrap();
        // The final publish leaves the completed artifacts behind.
        assert_eq!(live.metrics_snapshot(), obs.prometheus);
        let jsonl = live.timeline_snapshot();
        assert!(jsonl.starts_with("{\"timeline\":"), "{jsonl}");
        assert_eq!(
            jsonl.lines().count() as u64,
            1 + obs.timeline.as_ref().unwrap().rows().len() as u64
        );
    }

    #[test]
    fn same_seed_profiles_are_identical_after_normalization() {
        let a = observed(&tiny(10), ObserveOptions::profiled());
        let b = observed(&tiny(10), ObserveOptions::profiled());
        let (pa, pb) = (
            a.manifest.profile.as_ref().unwrap().normalized(),
            b.manifest.profile.as_ref().unwrap().normalized(),
        );
        // Everything but wall time — counts, sample counts, wheel
        // internals, memory gauges — is a pure function of the event
        // stream, so the normalized JSON is byte-identical.
        assert_eq!(pa.to_json(), pb.to_json());
    }
}
