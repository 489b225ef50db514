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
//! one time-sorted record vector plus bookkeeping about what the bounds
//! discarded, ready for export ([`crate::export`], [`crate::binary`]) and
//! analysis.

use crate::event::{CongestionKind, PhaseLabel, TraceKind, TraceRecord};
use crate::ring::{RetentionPolicy, SampleRing};
use ccsim_sim::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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
        }
    }

    /// The flow this recorder serves.
    pub fn flow(&self) -> u32 {
        self.flow
    }

    /// Approximate heap footprint of this recorder's rings (profiler
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
    /// previous call's.
    pub fn on_phase(&mut self, now: SimTime, label: &str) {
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

    /// Drain into `(records, evicted, thinned)`.
    pub fn finish(self) -> (Vec<TraceRecord>, u64, u64) {
        let evicted = self.samples.evicted() + self.events.evicted();
        let thinned = self.samples.thinned() + self.events.thinned();
        let mut v = self.samples.into_sorted_vec();
        v.extend(self.events.into_sorted_vec());
        v.sort_by_key(|r| r.sort_key());
        (v, evicted, thinned)
    }

    /// Serialize runtime state for a checkpoint (flow id, policy, and
    /// budgets are configuration, rebuilt from the scenario).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.samples.save_state(w);
        self.events.save_state(w);
        w.u64(self.last_cwnd);
        w.u64(self.last_ssthresh);
        w.u64(self.last_srtt);
        w.u64(self.last_pacing);
        w.opt(self.last_phase, |w, p| {
            let (a, b) = p.to_words();
            w.u64(a);
            w.u64(b);
        });
    }

    /// Overlay checkpointed state onto a recorder built with the same
    /// configuration.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.samples.load_state(r)?;
        self.events.load_state(r)?;
        self.last_cwnd = r.u64()?;
        self.last_ssthresh = r.u64()?;
        self.last_srtt = r.u64()?;
        self.last_pacing = r.u64()?;
        self.last_phase = r.opt(|r| {
            let a = r.u64()?;
            let b = r.u64()?;
            Ok(PhaseLabel::from_words(a, b))
        })?;
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

    /// Approximate heap footprint of this recorder's rings (profiler
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

    /// Drain into `(records, evicted, thinned)`.
    pub fn finish(self) -> (Vec<TraceRecord>, u64, u64) {
        let evicted = self.depth.evicted() + self.drops.evicted();
        let thinned = self.depth.thinned() + self.drops.thinned();
        let mut v = self.depth.into_sorted_vec();
        v.extend(self.drops.into_sorted_vec());
        v.sort_by_key(|r| r.sort_key());
        (v, evicted, thinned)
    }

    /// Serialize runtime state for a checkpoint (`every` and `hop` are
    /// configuration, rebuilt from the scenario).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.depth.save_state(w);
        self.drops.save_state(w);
        w.u64(self.arrivals);
    }

    /// Overlay checkpointed state onto a recorder built with the same
    /// configuration.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.depth.load_state(r)?;
        self.drops.load_state(r)?;
        self.arrivals = r.u64()?;
        Ok(())
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

/// One part's next record in [`RunTrace::assemble`]'s merge, ordered so a
/// max-heap pops the smallest sort key first.
struct Head {
    rec: TraceRecord,
    src: usize,
}

impl Ord for Head {
    fn cmp(&self, other: &Head) -> Ordering {
        (other.rec.sort_key(), other.src).cmp(&(self.rec.sort_key(), self.src))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Head) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Head {
    fn eq(&self, other: &Head) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

/// The assembled trace of one run: every surviving record, time-sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Run identity.
    pub meta: TraceMeta,
    /// All records, sorted by `(time, flow, kind)`.
    pub records: Vec<TraceRecord>,
    /// Records admitted by retention but evicted by ring capacities.
    pub evicted: u64,
    /// Samples rejected by the retention policy.
    pub thinned: u64,
}

impl RunTrace {
    /// Assemble from drained recorder outputs (each already sorted) by a
    /// k-way merge into canonical `(time, flow, kind)` order. The sort key
    /// is the whole record, so records that tie are identical and the
    /// merge's tie order cannot show.
    pub fn assemble(meta: TraceMeta, parts: Vec<(Vec<TraceRecord>, u64, u64)>) -> RunTrace {
        let evicted = parts.iter().map(|p| p.1).sum();
        let thinned = parts.iter().map(|p| p.2).sum();
        let mut records = Vec::with_capacity(parts.iter().map(|p| p.0.len()).sum());
        let mut sources: Vec<_> = parts.into_iter().map(|p| p.0.into_iter()).collect();
        let mut heads: BinaryHeap<Head> = sources
            .iter_mut()
            .enumerate()
            .filter_map(|(src, part)| {
                Some(Head {
                    rec: part.next()?,
                    src,
                })
            })
            .collect();
        while let Some(mut head) = heads.peek_mut() {
            records.push(head.rec);
            let src = head.src;
            match sources[src].next() {
                Some(rec) => head.rec = rec,
                None => {
                    PeekMut::pop(head);
                    // Free the drained part's buffer now, not at the end.
                    sources[src] = Vec::new().into_iter();
                }
            }
        }
        RunTrace {
            meta,
            records,
            evicted,
            thinned,
        }
    }

    /// Total wire bytes the records occupy when exported in binary form
    /// (excluding headers).
    pub fn wire_bytes(&self) -> u64 {
        self.records.len() as u64 * crate::event::RECORD_BYTES
    }

    /// Records of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Records belonging to one flow.
    pub fn for_flow(&self, flow: u32) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.flow == flow)
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
        self.for_flow(flow)
            .filter(|r| r.kind == TraceKind::Cwnd)
            .map(|r| (r.time, r.a))
            .collect()
    }

    /// The bottleneck queue-depth series as `(time, backlog_bytes)`.
    pub fn queue_depth_series(&self) -> Vec<(SimTime, u64)> {
        self.of_kind(TraceKind::QueueDepth)
            .map(|r| (r.time, r.a))
            .collect()
    }

    /// ECN CE-mark timestamps, time-sorted — the marking analogue of
    /// [`RunTrace::drop_times`].
    pub fn ecn_mark_times(&self) -> Vec<SimTime> {
        self.of_kind(TraceKind::EcnMark).map(|r| r.time).collect()
    }

    /// One hop's queue-depth series as `(time, backlog_bytes)`
    /// (hop 0 = the primary bottleneck's legacy series).
    pub fn hop_depth_series(&self, hop: u32) -> Vec<(SimTime, u64)> {
        if hop == 0 {
            return self.queue_depth_series();
        }
        self.of_kind(TraceKind::HopDepth)
            .filter(|r| r.flow == hop)
            .map(|r| (r.time, r.a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QUEUE_FLOW;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
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
        let (recs, _, _) = r.finish();
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
        let (recs, _, _) = r.finish();
        let labels: Vec<String> = recs
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
        let (recs, _, _) = q.finish();
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
        let (recs, _, _) = q.finish();
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
        let (recs, _, _) = q.finish();
        assert!(recs.is_empty());
    }

    #[test]
    fn assemble_merges_time_sorted() {
        let meta = TraceMeta {
            scenario: "x".into(),
            seed: 1,
            flows: 2,
        };
        let a = vec![
            TraceRecord::cwnd(t(5), 0, 1, 1),
            TraceRecord::cwnd(t(9), 0, 2, 2),
        ];
        let b = vec![
            TraceRecord::cwnd(t(3), 1, 1, 1),
            TraceRecord::cwnd(t(7), 1, 2, 2),
        ];
        let tr = RunTrace::assemble(meta, vec![(a, 1, 2), (b, 3, 4)]);
        assert_eq!(tr.evicted, 4);
        assert_eq!(tr.thinned, 6);
        let times: Vec<u64> = tr.records.iter().map(|r| r.time.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn assemble_equals_a_sort_of_the_concatenation() {
        // Sorted parts over a few instants, flows and values: many ties,
        // inside a part and across parts, and one empty part.
        let mut x = 7u64;
        let parts: Vec<_> = (0..6)
            .map(|p| {
                let mut recs: Vec<_> = (0..if p == 3 { 0 } else { 50 })
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        TraceRecord::cwnd(t(x >> 61), (x >> 59) as u32 % 2, x >> 62, 0)
                    })
                    .collect();
                recs.sort_by_key(|r| r.sort_key());
                (recs, 0, 0)
            })
            .collect();
        let mut want: Vec<_> = parts.iter().flat_map(|p| p.0.clone()).collect();
        want.sort_by_key(|r| r.sort_key());
        let meta = TraceMeta {
            scenario: "x".into(),
            seed: 1,
            flows: 2,
        };
        assert_eq!(RunTrace::assemble(meta, parts).records, want);
    }

    #[test]
    fn trains_and_series_extractors() {
        let meta = TraceMeta {
            scenario: "x".into(),
            seed: 1,
            flows: 2,
        };
        let recs = vec![
            TraceRecord::congestion(t(1), 0, CongestionKind::FastRecovery),
            TraceRecord::congestion(t(2), 1, CongestionKind::Rto),
            TraceRecord::drop(t(3), 0, 500),
            TraceRecord::queue_depth(t(4), 900, 3),
            TraceRecord::cwnd(t(5), 0, 14_480, 7_240),
        ];
        let tr = RunTrace::assemble(meta, vec![(recs, 0, 0)]);
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
