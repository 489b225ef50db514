//! Recording endpoints and the assembled run trace.
//!
//! A [`TraceConfig`] (carried by the experiment scenario) turns recording
//! on and fixes the **global byte budget**; the budget is partitioned
//! statically across recorders at build time — one [`FlowRecorder`] per
//! sender, one [`QueueRecorder`] on the bottleneck — so every ring has a
//! hard local bound and their sum can never exceed the global one. Static
//! partitioning (rather than a shared pool) keeps recording free of
//! cross-component state and byte-for-byte deterministic.
//!
//! After a run, the harness drains every recorder into a [`RunTrace`]:
//! its [`Records`] plus bookkeeping about what the bounds discarded, ready
//! for export ([`crate::export`], [`crate::binary`]) and analysis. Each
//! ring hands its delta-varint log over as one sorted run, without a copy;
//! readers see the runs merged into one time-sorted sequence on read, so a
//! drained trace is held in memory once, in its compact form.

use crate::event::{CongestionKind, PhaseLabel, TraceKind, TraceRecord};
use crate::log::RecordLog;
use crate::records::Records;
use crate::ring::{RetentionPolicy, SampleRing};
use ccsim_sim::{snap, SimDuration, SimTime, SnapError};

/// Flight-recorder configuration, carried by the scenario.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TraceConfig {
    /// Master switch. When false, no recorder is attached and the hot
    /// path pays a single branch per ACK.
    pub enabled: bool,
    /// How dense sample streams (cwnd/srtt/pacing/queue-depth) are
    /// thinned. Discrete events are never thinned.
    pub policy: RetentionPolicy,
    /// Global byte budget across *all* recorders (wire bytes).
    pub max_bytes: u64,
    /// Sample the bottleneck queue depth every n-th packet arrival
    /// (0 disables queue-depth sampling; drops are always recorded).
    pub queue_sample_every: u32,
}

/// Fraction of the global budget reserved for the bottleneck recorder
/// (expressed as a divisor: 1/8 of the budget).
const QUEUE_BUDGET_DIV: u64 = 8;

/// Fraction of a flow's budget reserved for discrete events (divisor).
const EVENT_BUDGET_DIV: u64 = 4;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

impl TraceConfig {
    /// Recording off (the default; zero overhead beyond a branch).
    pub fn disabled() -> TraceConfig {
        TraceConfig {
            enabled: false,
            policy: RetentionPolicy::KeepAll,
            max_bytes: 0,
            queue_sample_every: 0,
        }
    }

    /// Record everything within a 64 MiB global budget, sampling the
    /// queue every 64th arrival — a sensible default for EdgeScale runs
    /// and for CoreScale with `Decimate`/`Reservoir` policies.
    ///
    /// The budget counts wire bytes (29 a record), so it bounds the
    /// records a trace holds and the size of its export, not its memory.
    /// A `KeepAll` or `Decimate` ring holds a record as a delta, about 6
    /// bytes on a CoreScale trace and never more than 36, plus the log's
    /// spare capacity and spent front bytes; a `Reservoir` ring holds it
    /// in a 32-byte slot. The profiler's `trace/rings` account reports
    /// what the rings take. Draining hands the ring logs to the
    /// [`RunTrace`] as they are, so the peak is not doubled at the end of
    /// the run.
    pub fn standard() -> TraceConfig {
        TraceConfig {
            enabled: true,
            policy: RetentionPolicy::KeepAll,
            max_bytes: 64 * 1024 * 1024,
            queue_sample_every: 64,
        }
    }

    /// Budget share of the bottleneck queue recorder.
    pub fn queue_budget(&self) -> u64 {
        self.max_bytes / QUEUE_BUDGET_DIV
    }

    /// Budget share of each of `n_flows` flow recorders: the remainder
    /// after the queue share, split evenly.
    pub fn flow_budget(&self, n_flows: u32) -> u64 {
        if n_flows == 0 {
            return 0;
        }
        (self.max_bytes - self.queue_budget()) / u64::from(n_flows)
    }
}

/// Per-flow recording endpoint, owned by the sender.
///
/// Samples are recorded **on change** (a cwnd sample is only stored when
/// cwnd or ssthresh moved since the last stored sample), which is lossless
/// for step-valued signals and collapses the per-ACK firehose massively.
#[derive(Debug)]
pub struct FlowRecorder {
    flow: u32,
    samples: SampleRing,
    events: SampleRing,
    last_cwnd: u64,
    last_ssthresh: u64,
    last_srtt: u64,
    last_pacing: u64,
    last_phase: Option<PhaseLabel>,
    /// The label `on_phase` last saw, compared by address and length so an
    /// unchanged phase skips the pack. Process-local: never checkpointed,
    /// and cleared by `load_state`.
    last_label: Option<&'static str>,
}

impl FlowRecorder {
    /// A recorder for `flow` with a private `budget_bytes` bound, split
    /// between samples and (a reserve for) discrete events. `seed` drives
    /// reservoir retention only.
    pub fn new(flow: u32, policy: RetentionPolicy, budget_bytes: u64, seed: u64) -> FlowRecorder {
        let event_budget = budget_bytes / EVENT_BUDGET_DIV;
        let sample_budget = budget_bytes - event_budget;
        FlowRecorder {
            flow,
            samples: SampleRing::new(policy, sample_budget, seed),
            // Events are always kept in arrival order until evicted.
            events: SampleRing::new(RetentionPolicy::KeepAll, event_budget, seed),
            last_cwnd: 0,
            last_ssthresh: 0,
            last_srtt: 0,
            last_pacing: 0,
            last_phase: None,
            last_label: None,
        }
    }

    /// The flow this recorder serves.
    pub fn flow(&self) -> u32 {
        self.flow
    }

    /// Memory this recorder takes: itself and its rings' logs (profiler
    /// `trace/rings` account).
    pub fn memory_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
            + self.samples.memory_bytes()
            + self.events.memory_bytes()
    }

    /// Per-ACK sampling hook: records cwnd/ssthresh, srtt, and pacing
    /// rate, each only when changed since its last stored value.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        cwnd: u64,
        ssthresh: u64,
        srtt: SimDuration,
        pacing_bps: u64,
    ) {
        if cwnd != self.last_cwnd || ssthresh != self.last_ssthresh {
            self.last_cwnd = cwnd;
            self.last_ssthresh = ssthresh;
            self.samples
                .offer(TraceRecord::cwnd(now, self.flow, cwnd, ssthresh));
        }
        let srtt_ns = srtt.as_nanos();
        if srtt_ns != self.last_srtt {
            self.last_srtt = srtt_ns;
            self.samples.offer(TraceRecord::srtt(now, self.flow, srtt));
        }
        if pacing_bps != self.last_pacing {
            self.last_pacing = pacing_bps;
            self.samples
                .offer(TraceRecord::pacing(now, self.flow, pacing_bps));
        }
    }

    /// CCA phase hook: records a transition when `label` differs from the
    /// previous call's. The same `&'static str` as last time (same address
    /// and length, hence the same bytes) returns before packing it.
    pub fn on_phase(&mut self, now: SimTime, label: &'static str) {
        if self
            .last_label
            .is_some_and(|last| std::ptr::eq(last, label))
        {
            return;
        }
        self.last_label = Some(label);
        let packed = PhaseLabel::new(label);
        if self.last_phase != Some(packed) {
            self.last_phase = Some(packed);
            self.events.push(TraceRecord::phase(now, self.flow, packed));
        }
    }

    /// Congestion-event hook (fast-recovery entry or RTO).
    pub fn on_congestion(&mut self, now: SimTime, kind: CongestionKind) {
        self.events
            .push(TraceRecord::congestion(now, self.flow, kind));
    }

    /// Current wire bytes held across both rings.
    pub fn bytes(&self) -> u64 {
        self.samples.bytes() + self.events.bytes()
    }

    /// Drain into the two rings, for [`RunTrace::from_rings`].
    pub fn finish(self) -> [SampleRing; 2] {
        [self.samples, self.events]
    }

    snap! {
        /// Serialize runtime state for a checkpoint (flow id, policy, and
        /// budgets are configuration, rebuilt from the scenario).
        pub fn save_state;
        /// Overlay checkpointed state onto a recorder built with the same
        /// configuration.
        pub fn load_state then forget_label;
        in samples, in events, last_cwnd, last_ssthresh, last_srtt, last_pacing, last_phase,
    }

    /// The label cache describes the pre-load `last_phase`: drop it.
    fn forget_label(&mut self) -> Result<(), SnapError> {
        self.last_label = None;
        Ok(())
    }
}

/// Link recording endpoint: queue-depth samples, drops, and ECN marks.
///
/// The primary bottleneck (hop 0) emits legacy [`TraceKind::QueueDepth`]
/// samples; recorders attached to other hops of a multi-link topology emit
/// [`TraceKind::HopDepth`] keyed by the hop index, so legacy extractors and
/// committed baselines keep their meaning.
#[derive(Debug)]
pub struct QueueRecorder {
    depth: SampleRing,
    drops: SampleRing,
    every: u32,
    arrivals: u64,
    hop: u32,
}

impl QueueRecorder {
    /// A recorder with a private `budget_bytes` bound, split between
    /// depth samples and the (never-thinned) drop/mark train.
    pub fn new(policy: RetentionPolicy, budget_bytes: u64, every: u32, seed: u64) -> QueueRecorder {
        let half = budget_bytes / 2;
        QueueRecorder {
            depth: SampleRing::new(policy, half, seed),
            drops: SampleRing::new(RetentionPolicy::KeepAll, budget_bytes - half, seed),
            every,
            arrivals: 0,
            hop: 0,
        }
    }

    /// Re-key this recorder to a non-primary hop: depth samples become
    /// [`TraceKind::HopDepth`] records carrying `hop`.
    pub fn with_hop(mut self, hop: u32) -> QueueRecorder {
        self.hop = hop;
        self
    }

    /// The hop index this recorder is keyed to (0 = primary bottleneck).
    pub fn hop(&self) -> u32 {
        self.hop
    }

    /// Memory this recorder takes: itself and its rings' logs (profiler
    /// `trace/rings` account).
    pub fn memory_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64 + self.depth.memory_bytes() + self.drops.memory_bytes()
    }

    /// Packet-arrival hook: samples the backlog every n-th arrival.
    pub fn on_arrival(&mut self, now: SimTime, backlog_bytes: u64, queued_pkts: u64) {
        if self.every == 0 {
            return;
        }
        self.arrivals += 1;
        if (self.arrivals - 1).is_multiple_of(u64::from(self.every)) {
            let rec = if self.hop == 0 {
                TraceRecord::queue_depth(now, backlog_bytes, queued_pkts)
            } else {
                TraceRecord::hop_depth(now, self.hop, backlog_bytes, queued_pkts)
            };
            self.depth.offer(rec);
        }
    }

    /// Drop hook: always recorded (subject to the ring capacity).
    pub fn on_drop(&mut self, now: SimTime, flow: u32, backlog_bytes: u64) {
        self.drops.push(TraceRecord::drop(now, flow, backlog_bytes));
    }

    /// ECN CE-mark hook: always recorded, like drops — a mark is the
    /// AQM's congestion signal and must never be thinned away.
    pub fn on_ecn_mark(&mut self, now: SimTime, flow: u32, backlog_bytes: u64) {
        self.drops.push(TraceRecord::ecn_mark(
            now,
            flow,
            backlog_bytes,
            u64::from(self.hop),
        ));
    }

    /// Current wire bytes held across both rings.
    pub fn bytes(&self) -> u64 {
        self.depth.bytes() + self.drops.bytes()
    }

    /// Drain into the two rings, for [`RunTrace::from_rings`].
    pub fn finish(self) -> [SampleRing; 2] {
        [self.depth, self.drops]
    }

    snap! {
        /// Serialize runtime state for a checkpoint (`every` and `hop` are
        /// configuration, rebuilt from the scenario).
        pub fn save_state;
        /// Overlay checkpointed state onto a recorder built with the same
        /// configuration.
        pub fn load_state;
        in depth, in drops, arrivals,
    }
}

/// Run identity carried in trace exports so a trace file is
/// self-describing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Scenario label.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Number of flows in the run.
    pub flows: u32,
}

/// The assembled trace of one run: every surviving record, time-sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Run identity.
    pub meta: TraceMeta,
    /// All records, read in `(time, flow, kind)` order.
    pub records: Records,
    /// Records admitted by retention but evicted by ring capacities.
    pub evicted: u64,
    /// Samples rejected by the retention policy.
    pub thinned: u64,
}

impl RunTrace {
    /// Assemble from drained recorder rings. Each ring's log becomes one
    /// run of the trace's [`Records`] as it is — no record is copied —
    /// sorted only if it is out of order; readers see the runs merged into
    /// canonical `(time, flow, kind)` order. The sort key is the whole
    /// record, so records that tie are identical and neither the sort's
    /// nor the merge's tie order can show.
    pub fn from_rings(meta: TraceMeta, rings: impl IntoIterator<Item = SampleRing>) -> RunTrace {
        let (mut evicted, mut thinned) = (0, 0);
        let logs: Vec<RecordLog> = rings
            .into_iter()
            .map(|ring| {
                let (log, e, t) = ring.into_log();
                evicted += e;
                thinned += t;
                log
            })
            .collect();
        RunTrace {
            meta,
            records: Records::from_runs(logs),
            evicted,
            thinned,
        }
    }

    /// Assemble from `(records, evicted, thinned)` parts, each in any
    /// order: [`RunTrace::from_rings`] for records that are not in rings.
    /// Each part is encoded into one run.
    pub fn assemble(meta: TraceMeta, parts: Vec<(Vec<TraceRecord>, u64, u64)>) -> RunTrace {
        let evicted = parts.iter().map(|p| p.1).sum();
        let thinned = parts.iter().map(|p| p.2).sum();
        RunTrace {
            meta,
            records: Records::from_runs(parts.iter().map(|p| p.0.iter().collect())),
            evicted,
            thinned,
        }
    }

    /// Total wire bytes the records occupy when exported in binary form
    /// (excluding headers).
    pub fn wire_bytes(&self) -> u64 {
        self.records.len() as u64 * crate::event::RECORD_BYTES
    }

    /// Records of one kind, in order; only the runs holding that kind are
    /// merged.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = TraceRecord> + '_ {
        self.records
            .select(Some(kind), None)
            .filter(move |r| r.kind == kind)
    }

    /// Records belonging to one flow, in order; only the runs whose flow
    /// range covers it are merged.
    pub fn for_flow(&self, flow: u32) -> impl Iterator<Item = TraceRecord> + '_ {
        self.records
            .select(None, Some(flow))
            .filter(move |r| r.flow == flow)
    }

    /// Per-flow congestion-event timestamp trains (index = flow id) —
    /// the input shape of the synchronization index.
    pub fn congestion_event_trains(&self) -> Vec<Vec<SimTime>> {
        let mut trains = vec![Vec::new(); self.meta.flows as usize];
        for r in self.of_kind(TraceKind::Congestion) {
            if let Some(train) = trains.get_mut(r.flow as usize) {
                train.push(r.time);
            }
        }
        trains
    }

    /// Bottleneck drop timestamps, time-sorted — the input shape of the
    /// burstiness score.
    pub fn drop_times(&self) -> Vec<SimTime> {
        self.of_kind(TraceKind::Drop).map(|r| r.time).collect()
    }

    /// One flow's cwnd series as `(time, cwnd_bytes)`.
    pub fn cwnd_series(&self, flow: u32) -> Vec<(SimTime, u64)> {
        self.records
            .select(Some(TraceKind::Cwnd), Some(flow))
            .filter(|r| r.kind == TraceKind::Cwnd && r.flow == flow)
            .map(|r| (r.time, r.a))
            .collect()
    }

    /// The bottleneck queue-depth series as `(time, backlog_bytes)`.
    pub fn queue_depth_series(&self) -> Vec<(SimTime, u64)> {
        self.of_kind(TraceKind::QueueDepth)
            .map(|r| (r.time, r.a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QUEUE_FLOW;
    use ccsim_sim::{SnapReader, SnapWriter};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            scenario: "x".into(),
            seed: 1,
            flows: 2,
        }
    }

    /// One [`RunTrace::assemble`] part: `(records, evicted, thinned)`.
    type Part = (Vec<TraceRecord>, u64, u64);

    /// A recorder's records, ring by ring.
    fn drained(rings: [SampleRing; 2]) -> Vec<TraceRecord> {
        rings.iter().flat_map(SampleRing::iter).collect()
    }

    #[test]
    fn budget_partition_never_exceeds_global() {
        let cfg = TraceConfig {
            enabled: true,
            policy: RetentionPolicy::KeepAll,
            max_bytes: 1_000_000,
            queue_sample_every: 64,
        };
        for n in [1u32, 3, 7, 1000] {
            let total = cfg.queue_budget() + u64::from(n) * cfg.flow_budget(n);
            assert!(total <= cfg.max_bytes, "n={n}: {total}");
        }
        assert_eq!(cfg.flow_budget(0), 0);
    }

    #[test]
    fn flow_recorder_dedups_unchanged_samples() {
        let mut r = FlowRecorder::new(0, RetentionPolicy::KeepAll, 1 << 20, 1);
        for i in 0..10 {
            // cwnd changes only twice; srtt constant; no pacing.
            let cwnd = if i < 5 { 10_000 } else { 20_000 };
            r.on_ack(t(i), cwnd, 5_000, SimDuration::from_millis(20), 0);
        }
        let recs = drained(r.finish());
        let cwnds: Vec<_> = recs.iter().filter(|r| r.kind == TraceKind::Cwnd).collect();
        assert_eq!(cwnds.len(), 2);
        let srtts: Vec<_> = recs.iter().filter(|r| r.kind == TraceKind::Srtt).collect();
        assert_eq!(srtts.len(), 1);
        // pacing 0 == initial last value: nothing recorded.
        assert!(recs.iter().all(|r| r.kind != TraceKind::Pacing));
    }

    #[test]
    fn flow_recorder_records_phase_transitions_only() {
        let mut r = FlowRecorder::new(2, RetentionPolicy::KeepAll, 1 << 20, 1);
        r.on_phase(t(0), "slowstart");
        r.on_phase(t(1), "slowstart");
        r.on_phase(t(2), "avoidance");
        r.on_phase(t(3), "avoidance");
        let recs = drained(r.finish());
        let labels: Vec<String> = recs
            .iter()
            .filter_map(|r| r.phase_label())
            .map(|l| l.as_str().to_string())
            .collect();
        assert_eq!(labels, vec!["slowstart", "avoidance"]);
    }

    #[test]
    fn the_label_cache_is_neither_saved_nor_kept_across_a_load() {
        // Two `&'static str`s with the same text at different addresses
        // are still one phase: the cache misses, the packed label matches.
        static SLOW: &str = "slowstart";
        let other_slow: &'static str = Box::leak(String::from("slowstart").into_boxed_str());
        let save = |second: &'static str| {
            let mut r = FlowRecorder::new(0, RetentionPolicy::KeepAll, 1 << 20, 1);
            r.on_phase(t(0), SLOW);
            r.on_phase(t(1), other_slow);
            r.on_phase(t(2), second);
            assert_eq!(r.events.len(), 1);
            let mut w = SnapWriter::new();
            r.save_state(&mut w);
            w.into_bytes()
        };
        let saved = save(SLOW);
        assert_eq!(saved, save(other_slow), "the cache is not state");

        // A recorder that last saw "avoidance", overlaid with a checkpoint
        // taken in slow start, must record the next "avoidance".
        let mut busy = FlowRecorder::new(0, RetentionPolicy::KeepAll, 1 << 20, 1);
        busy.on_phase(t(0), "avoidance");
        busy.load_state(&mut SnapReader::new(&saved)).unwrap();
        assert_eq!(busy.last_label, None);
        busy.on_phase(t(3), "avoidance");
        let labels: Vec<String> = drained(busy.finish())
            .iter()
            .filter_map(|r| r.phase_label())
            .map(|l| l.as_str().to_string())
            .collect();
        assert_eq!(labels, vec!["slowstart", "avoidance"]);
    }

    #[test]
    fn queue_recorder_samples_every_nth() {
        let mut q = QueueRecorder::new(RetentionPolicy::KeepAll, 1 << 20, 4, 1);
        for i in 0..16 {
            q.on_arrival(t(i), i * 100, i);
        }
        q.on_drop(t(99), 3, 1234);
        let recs = drained(q.finish());
        let depths: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == TraceKind::QueueDepth)
            .collect();
        assert_eq!(depths.len(), 4);
        assert!(depths.iter().all(|r| r.flow == QUEUE_FLOW));
        let drops: Vec<_> = recs.iter().filter(|r| r.kind == TraceKind::Drop).collect();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].flow, 3);
    }

    #[test]
    fn queue_recorder_records_ecn_marks_and_hop_depth() {
        let mut q = QueueRecorder::new(RetentionPolicy::KeepAll, 1 << 20, 2, 1).with_hop(3);
        assert_eq!(q.hop(), 3);
        for i in 0..4 {
            q.on_arrival(t(i), i * 10, i);
        }
        q.on_ecn_mark(t(5), 7, 4321);
        let recs = drained(q.finish());
        let depths: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == TraceKind::HopDepth)
            .collect();
        assert_eq!(depths.len(), 2);
        assert!(depths.iter().all(|r| r.flow == 3));
        assert!(recs.iter().all(|r| r.kind != TraceKind::QueueDepth));
        let marks: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == TraceKind::EcnMark)
            .collect();
        assert_eq!(marks.len(), 1);
        assert_eq!((marks[0].flow, marks[0].a, marks[0].b), (7, 4321, 3));
    }

    #[test]
    fn queue_recorder_zero_every_disables_sampling() {
        let mut q = QueueRecorder::new(RetentionPolicy::KeepAll, 1 << 20, 0, 1);
        for i in 0..16 {
            q.on_arrival(t(i), 100, 1);
        }
        let recs = drained(q.finish());
        assert!(recs.is_empty());
    }

    #[test]
    fn assemble_merges_time_sorted() {
        let a = vec![
            TraceRecord::cwnd(t(5), 0, 1, 1),
            TraceRecord::cwnd(t(9), 0, 2, 2),
        ];
        let b = vec![
            TraceRecord::cwnd(t(3), 1, 1, 1),
            TraceRecord::cwnd(t(7), 1, 2, 2),
        ];
        let tr = RunTrace::assemble(meta(), vec![(a, 1, 2), (b, 3, 4)]);
        assert_eq!(tr.evicted, 4);
        assert_eq!(tr.thinned, 6);
        let times: Vec<u64> = tr.records.iter().map(|r| r.time.as_nanos()).collect();
        assert_eq!(times, [3, 5, 7, 9].map(|ms| ms * 1_000_000));
    }

    /// `n` records over a few instants, flows and values: many ties.
    fn scatter(x: &mut u64, n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|_| {
                *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                TraceRecord::cwnd(t(*x >> 61), (*x >> 59) as u32 % 2, *x >> 62, 0)
            })
            .collect()
    }

    fn sorted(mut recs: Vec<TraceRecord>) -> Vec<TraceRecord> {
        recs.sort_by_key(TraceRecord::sort_key);
        recs
    }

    #[test]
    fn assemble_equals_a_sort_of_the_concatenation() {
        let mut x = 7u64;
        // A reservoir ring keeps a scrambled subset; a small KeepAll ring
        // that evicted has wrapped its deque.
        let mut reservoir = SampleRing::new(RetentionPolicy::Reservoir(40), 1 << 20, 3);
        for r in sorted(scatter(&mut x, 400)) {
            reservoir.offer(r);
        }
        let mut wrapped = SampleRing::new(RetentionPolicy::KeepAll, 30 * 29, 3);
        for r in sorted(scatter(&mut x, 75)) {
            wrapped.push(r);
        }
        let part = |ring: SampleRing| (ring.iter().collect(), ring.evicted(), ring.thinned());
        let (reservoir, wrapped): (Part, Part) = (part(reservoir), part(wrapped));
        assert!(!reservoir.0.is_sorted_by_key(TraceRecord::sort_key));
        assert_eq!((wrapped.0.len(), wrapped.1), (30, 45));
        let cases: Vec<(&str, Vec<Part>)> = vec![
            (
                "sorted parts with ties inside and across parts, one empty",
                (0..6)
                    .map(|p| (sorted(scatter(&mut x, if p == 3 { 0 } else { 50 })), 0, 0))
                    .collect(),
            ),
            (
                "a reservoir-scrambled run beside sorted ones",
                vec![reservoir, (sorted(scatter(&mut x, 50)), 0, 0)],
            ),
            (
                "a wrapped evicting ring",
                vec![wrapped, (sorted(scatter(&mut x, 20)), 0, 0)],
            ),
            (
                "unsorted ties at one instant across runs",
                (0..4)
                    .map(|f| {
                        let recs = (0..5)
                            .rev()
                            .map(|v| TraceRecord::cwnd(t(1), f % 2, v % 3, 0))
                            .collect();
                        (recs, 0, 0)
                    })
                    .collect(),
            ),
            (
                "records at the last instant, after another run is spent",
                vec![
                    (vec![TraceRecord::cwnd(SimTime::MAX, 0, 1, 0)], 0, 0),
                    (vec![TraceRecord::cwnd(t(5), 1, 1, 0)], 0, 0),
                    (vec![TraceRecord::cwnd(SimTime::MAX, 1, 1, 0)], 0, 0),
                ],
            ),
            ("empty runs only", vec![(vec![], 0, 0), (vec![], 0, 0)]),
            ("no runs", vec![]),
            ("a single run", vec![(scatter(&mut x, 60), 0, 0)]),
        ];
        for (what, parts) in cases {
            let want = sorted(parts.iter().flat_map(|p| p.0.clone()).collect());
            let tr = RunTrace::assemble(meta(), parts);
            assert_eq!(tr.records.len(), want.len(), "{what}");
            let got: Vec<TraceRecord> = tr.records.iter().collect();
            assert_eq!(got, want, "{what}");
            assert_eq!(tr.records, Records::from(want), "{what}");
        }
    }

    #[test]
    fn traces_split_into_different_runs_are_equal() {
        let mut x = 11u64;
        let all = sorted(scatter(&mut x, 90));
        let one = RunTrace::assemble(meta(), vec![(all.clone(), 0, 0)]);
        let three = RunTrace::assemble(
            meta(),
            vec![
                (all[60..].to_vec(), 0, 0),
                (all[..30].to_vec(), 0, 0),
                (all[30..60].to_vec(), 0, 0),
            ],
        );
        assert_eq!(one, three);
        assert_eq!(format!("{one:?}"), format!("{three:?}"));
        let fewer = RunTrace::assemble(meta(), vec![(all[1..].to_vec(), 0, 0)]);
        assert_ne!(one, fewer);
    }

    #[test]
    fn trains_and_series_extractors() {
        let recs = vec![
            TraceRecord::congestion(t(1), 0, CongestionKind::FastRecovery),
            TraceRecord::congestion(t(2), 1, CongestionKind::Rto),
            TraceRecord::drop(t(3), 0, 500),
            TraceRecord::queue_depth(t(4), 900, 3),
            TraceRecord::cwnd(t(5), 0, 14_480, 7_240),
        ];
        let tr = RunTrace::assemble(meta(), vec![(recs, 0, 0)]);
        let trains = tr.congestion_event_trains();
        assert_eq!(trains.len(), 2);
        assert_eq!(trains[0], vec![t(1)]);
        assert_eq!(trains[1], vec![t(2)]);
        assert_eq!(tr.drop_times(), vec![t(3)]);
        assert_eq!(tr.queue_depth_series(), vec![(t(4), 900)]);
        assert_eq!(tr.cwnd_series(0), vec![(t(5), 14_480)]);
        assert_eq!(tr.wire_bytes(), 5 * crate::event::RECORD_BYTES);
    }
}
