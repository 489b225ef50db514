//! Rate-limited links with drop-tail queues — the BESS-switch-port
//! equivalent.
//!
//! A [`Link`] models one transmission resource: a FIFO queue of bounded byte
//! capacity in front of a constant-rate serializer, followed by a fixed
//! propagation delay. This is exactly the abstraction the paper configures on
//! its BESS software switch (10 Gbps / 375 MB drop-tail for CoreScale,
//! 100 Mbps / 3 MB for EdgeScale).
//!
//! ## Event economy
//!
//! Each packet costs at most two events at a link: its arrival, and one
//! `SERIALIZATION_DONE` self-timer per transmitted packet (which also starts
//! service of the next queued packet). Propagation delay adds no event — the
//! onward delivery is scheduled directly at `t_tx_done + prop_delay`.
//!
//! [`Link::set_tx_burst`] coalesces further: up to `n` queued packets are
//! serialized under **one** timer, with each delivery still scheduled at its
//! own frame-completion instant, so wire spacing is exact while the timer
//! cost drops from one per packet to one per burst. The default (1) is the
//! legacy path, byte-identical to the pre-batching engine.
//!
//! ## Instrumentation
//!
//! The link keeps per-flow arrival/drop counters, aggregate byte/packet
//! counters, and a timestamped drop log (the paper's "logging packet drops at
//! the bottleneck queue"), which downstream analysis turns into loss rates
//! and Goh–Barabási burstiness scores. The log can be capped for very long
//! runs; counters are always exact.

use crate::aqm::{AqmQueue, Dequeued, DropTail, Enqueued};
use crate::msg::{Msg, TimerToken};
use crate::packet::Packet;
use crate::path::{deliver_after, hop_latency};
use ccsim_fault::{FaultStats, LinkFaultInjector};
use ccsim_sim::{snap, Bandwidth, Component, ComponentId, Ctx, SimDuration, SimTime};
use ccsim_telemetry::{Counter, Histogram};
use ccsim_trace::QueueRecorder;
use std::sync::Arc;

/// Shared metric handles for a link, registered by the harness and
/// attached with [`Link::enable_metrics`]. Handles are `Arc`s straight
/// into the registry's atomics, so the hot path pays no name lookup —
/// one relaxed atomic add per count — and the primitives never touch
/// simulation state (metrics on/off cannot change an outcome).
#[derive(Clone)]
pub struct LinkMetrics {
    /// Queue occupancy in bytes, sampled at each packet arrival
    /// (`ccsim_link_queue_bytes`).
    pub queue_bytes: Arc<Histogram>,
    /// Sizes of consecutive-drop bursts, in packets
    /// (`ccsim_link_drop_burst_pkts`). A burst ends when an arrival is
    /// accepted again.
    pub drop_burst_pkts: Arc<Histogram>,
    /// Nanoseconds the serializer spent busy
    /// (`ccsim_link_busy_nanos_total`); idle time is wall sim-time minus
    /// this.
    pub busy_nanos: Arc<Counter>,
}

/// Where a link forwards packets after serialization + propagation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NextHop {
    /// Forward every packet to a fixed component (chaining links/switches).
    Fixed(ComponentId),
    /// Forward each packet to the endpoint named in [`Packet::dst`]
    /// (the last hop before a receiver).
    ToPacketDst,
}

/// Timer kind used for the serialization-complete self-event.
const SERIALIZATION_DONE: u16 = 1;

/// Timer kind for the fault-plan clock: fires at each `FaultAction`'s
/// timestamp so impairments apply at exact engine times, independent of
/// packet arrivals. The harness schedules the first tick when it attaches
/// an injector; the link re-arms itself for each subsequent action.
pub const FAULT_TICK: u16 = 2;

/// Timer kind for the AQM control-law clock (PIE's probability update).
/// Armed lazily at the first packet arrival when the discipline reports a
/// [`tick_interval`](crate::aqm::AqmQueue::tick_interval); disciplines
/// without one (drop-tail, RED, CoDel) cost zero extra events.
pub const AQM_TICK: u16 = 3;

/// Aggregate and per-flow counters for a link.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Packets that arrived at the link (enqueued + dropped).
    pub arrived_pkts: u64,
    /// Bytes that arrived at the link.
    pub arrived_bytes: u64,
    /// Packets dropped because the buffer was full.
    pub dropped_pkts: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// Packets fully serialized onto the wire.
    pub transmitted_pkts: u64,
    /// Bytes fully serialized onto the wire.
    pub transmitted_bytes: u64,
    /// Highest queue occupancy observed, in bytes (excludes the in-service
    /// packet, matching how the buffer bound is enforced).
    pub max_queue_bytes: u64,
    /// Packets CE-marked by the link's AQM in place of an early drop
    /// (always 0 for drop-tail or when ECN is off).
    pub ce_marked_pkts: u64,
    /// Per-flow arrival counts, indexed by [`FlowId`](crate::packet::FlowId).
    pub per_flow_arrived: Vec<u64>,
    /// Per-flow drop counts.
    pub per_flow_dropped: Vec<u64>,
}

impl LinkStats {
    fn grow_for(&mut self, flow_index: usize) {
        if flow_index >= self.per_flow_arrived.len() {
            self.per_flow_arrived.resize(flow_index + 1, 0);
            self.per_flow_dropped.resize(flow_index + 1, 0);
        }
    }

    /// Aggregate packet loss fraction at this link: drops / arrivals.
    pub fn loss_rate(&self) -> f64 {
        if self.arrived_pkts == 0 {
            0.0
        } else {
            self.dropped_pkts as f64 / self.arrived_pkts as f64
        }
    }

    /// Per-flow loss fraction: drops / arrivals for one flow.
    pub fn per_flow_loss_rate(&self, flow_index: usize) -> f64 {
        let arrived = self.per_flow_arrived.get(flow_index).copied().unwrap_or(0);
        if arrived == 0 {
            0.0
        } else {
            self.per_flow_dropped[flow_index] as f64 / arrived as f64
        }
    }
}

snap!(LinkStats {
    arrived_pkts,
    arrived_bytes,
    dropped_pkts,
    dropped_bytes,
    transmitted_pkts,
    transmitted_bytes,
    max_queue_bytes,
    ce_marked_pkts,
    per_flow_arrived,
    per_flow_dropped,
});

/// A rate-limited, drop-tail, fixed-propagation-delay link.
pub struct Link {
    rate: Bandwidth,
    prop_delay: SimDuration,
    /// Queue capacity in bytes (waiting packets only; the in-service packet
    /// has already left the buffer for the wire).
    buffer_bytes: u64,
    next: NextHop,
    /// The buffering policy. Drop-tail by default (byte-identical to the
    /// pre-trait hard-coded queue); swappable per link via
    /// [`Link::set_aqm`].
    aqm: Box<dyn AqmQueue>,
    /// Whether the AQM control-law timer is armed (see [`AQM_TICK`]).
    aqm_tick_armed: bool,
    in_service: Option<Packet>,
    /// Exact counters (always on).
    stats: LinkStats,
    /// Timestamps of drops, for burstiness analysis.
    drop_log: Vec<SimTime>,
    /// Maximum retained drop-log entries (counters remain exact beyond it).
    drop_log_cap: usize,
    /// Drops before this instant are not logged (warm-up exclusion).
    log_from: SimTime,
    /// Optional flight recorder (ccsim-trace): queue-depth samples and the
    /// full-run drop train, attached by the harness when tracing is on.
    recorder: Option<QueueRecorder>,
    /// Optional registry-backed metrics, attached when a run is observed.
    metrics: Option<LinkMetrics>,
    /// Length of the in-progress consecutive-drop run (metrics only, so
    /// observer state: checkpoints leave it out and a restore zeroes it).
    drop_burst: u64,
    /// Optional fault injector (ccsim-fault), attached when the scenario
    /// carries a non-empty `FaultPlan`. `None` is the fast path: no
    /// branch beyond this option check, no RNG, no timers.
    injector: Option<LinkFaultInjector>,
    /// Serialization-time memo for a train of equal-size frames —
    /// CoreScale traffic is almost entirely full-MSS data packets, so the
    /// common case is one compare instead of a u128 multiply-divide per
    /// packet. Invalidated when a fault action rewrites the rate.
    ser_memo: Option<(u32, SimDuration)>,
    /// Transmit batch size (see [`Link::set_tx_burst`]). 1 = legacy
    /// one-timer-per-packet service.
    tx_burst: u32,
    /// Burst members beyond the in-service head, retained until the
    /// burst's single `SERIALIZATION_DONE` fires so the transmit counters
    /// and the watchdog's conservation accounting stay exact. Their
    /// deliveries are already scheduled (at each frame's own completion
    /// instant). Empty whenever `tx_burst == 1`.
    burst_tail: Vec<Packet>,
}

impl Link {
    /// Create a link with `rate`, propagation delay, and drop-tail buffer of
    /// `buffer_bytes` (use `u64::MAX` for an effectively infinite buffer).
    pub fn new(rate: Bandwidth, prop_delay: SimDuration, buffer_bytes: u64, next: NextHop) -> Link {
        assert!(rate.as_bps() > 0, "link rate must be positive");
        Link {
            rate,
            prop_delay,
            buffer_bytes,
            next,
            aqm: Box::new(DropTail::new(buffer_bytes)),
            aqm_tick_armed: false,
            in_service: None,
            stats: LinkStats::default(),
            drop_log: Vec::new(),
            // 1 M entries × 8 bytes = 8 MB worst case per link. The log
            // feeds burstiness analysis, which stabilizes within ~10^5
            // intervals; the old 50 M cap (400 MB) existed only to be
            // "effectively unbounded" and could rival CoreScale's 250 MB
            // queue itself. Counters remain exact past the cap.
            drop_log_cap: 1_000_000,
            log_from: SimTime::ZERO,
            recorder: None,
            metrics: None,
            drop_burst: 0,
            injector: None,
            ser_memo: None,
            tx_burst: 1,
            burst_tail: Vec::new(),
        }
    }

    /// Configure transmit batching: serialize up to `n` queued packets
    /// under one `SERIALIZATION_DONE` timer. Each delivery is still
    /// scheduled at its own frame-completion instant, so downstream wire
    /// spacing is exactly the unbatched spacing; only the timer economy
    /// changes (and with it the engine's event count, hence the outcome
    /// digest — the knob is scenario-gated for that reason). `1` restores
    /// the legacy path. Batching is ignored while a fault injector is
    /// attached: delivery fates must be sampled at each frame's own
    /// transmission instant.
    pub fn set_tx_burst(&mut self, n: u32) {
        self.tx_burst = n.max(1);
    }

    /// The configured transmit batch size.
    pub fn tx_burst(&self) -> u32 {
        self.tx_burst
    }

    /// Cap the retained drop log (counters stay exact).
    pub fn with_drop_log_cap(mut self, cap: usize) -> Link {
        self.drop_log_cap = cap;
        self
    }

    /// Replace the buffering discipline (must be done while the queue is
    /// empty — the harness swaps AQMs at build time, before any traffic).
    ///
    /// Also invalidates the serialization-time memo: a discipline change
    /// alters effective service behavior (admission, marking, dequeue-time
    /// drops), so a memoized duration from the previous discipline's
    /// traffic must not leak across the swap.
    pub fn set_aqm(&mut self, queue: Box<dyn AqmQueue>) {
        assert_eq!(
            self.aqm.queued_pkts(),
            0,
            "AQM discipline swapped with packets still queued"
        );
        self.buffer_bytes = queue.buffer_bytes();
        self.aqm = queue;
        self.aqm_tick_armed = false;
        self.ser_memo = None;
    }

    /// The active AQM discipline.
    pub fn aqm_kind(&self) -> crate::aqm::AqmKind {
        self.aqm.kind()
    }

    /// The serialization-time memo's current key, if populated
    /// (diagnostics; lets tests pin the memo's invalidation paths).
    pub fn ser_memo_bytes(&self) -> Option<u32> {
        self.ser_memo.map(|(bytes, _)| bytes)
    }

    /// Suppress drop-log entries before `t` (warm-up exclusion). Counters
    /// still include them.
    pub fn set_log_from(&mut self, t: SimTime) {
        self.log_from = t;
    }

    /// Attach a flight recorder; subsequent arrivals sample the queue
    /// depth and every drop is recorded with its backlog.
    pub fn enable_trace(&mut self, recorder: QueueRecorder) {
        self.recorder = Some(recorder);
    }

    /// Detach and return the flight recorder (the harness drains it into
    /// the run trace after the simulation ends).
    pub fn take_trace(&mut self) -> Option<QueueRecorder> {
        self.recorder.take()
    }

    /// Attach registry-backed metrics; subsequent arrivals sample queue
    /// occupancy, serialization accumulates busy time, and drop bursts
    /// are sized as they end.
    pub fn enable_metrics(&mut self, metrics: LinkMetrics) {
        self.metrics = Some(metrics);
    }

    /// Flush metric state that only materializes at an edge — currently
    /// the final in-progress drop burst. The harness calls this once
    /// after the simulation ends, before exporting the registry.
    pub fn finish_metrics(&mut self) {
        if self.drop_burst > 0 {
            if let Some(m) = &self.metrics {
                m.drop_burst_pkts.record(self.drop_burst);
            }
            self.drop_burst = 0;
        }
    }

    /// Attach a fault injector. The caller must also schedule the first
    /// [`FAULT_TICK`] timer at [`LinkFaultInjector::next_action_at`] —
    /// the link re-arms itself from then on.
    pub fn enable_faults(&mut self, injector: LinkFaultInjector) {
        self.injector = Some(injector);
    }

    /// Injector decision counters, when faults are attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// The configured rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// The configured one-way propagation delay.
    pub fn prop_delay(&self) -> SimDuration {
        self.prop_delay
    }

    /// The configured buffer capacity in bytes.
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    /// Counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Timestamps of logged drops (see [`Link::set_log_from`]).
    pub fn drop_log(&self) -> &[SimTime] {
        &self.drop_log
    }

    /// Approximate heap footprint of this link: the struct, the AQM
    /// discipline's packet storage, the drop log, the burst tail and the
    /// per-flow counters (16 B for each flow that has crossed it). Feeds
    /// the profiler's `net/link_queues` memory account; the attached queue
    /// recorder (if tracing) is accounted under `trace/rings` via
    /// [`Link::trace_memory_bytes`].
    pub fn memory_bytes(&self) -> u64 {
        let per_flow =
            self.stats.per_flow_arrived.capacity() + self.stats.per_flow_dropped.capacity();
        std::mem::size_of::<Self>() as u64
            + self.aqm.memory_bytes()
            + (self.drop_log.capacity() * std::mem::size_of::<SimTime>()) as u64
            + (self.burst_tail.capacity() * std::mem::size_of::<Packet>()) as u64
            + (per_flow * std::mem::size_of::<u64>()) as u64
    }

    /// Heap bytes held by the attached queue recorder, 0 when tracing is
    /// off.
    pub fn trace_memory_bytes(&self) -> u64 {
        self.recorder.as_ref().map_or(0, |rec| rec.memory_bytes())
    }

    /// Current backlog in bytes (waiting packets, excluding in-service).
    pub fn backlog_bytes(&self) -> u64 {
        self.aqm.queued_bytes()
    }

    /// Number of packets waiting in the queue (excluding in-service).
    pub fn queued_pkts(&self) -> u64 {
        self.aqm.queued_pkts()
    }

    /// Packets currently being serialized (the in-service head plus any
    /// burst tail) — so the watchdog's conservation check can account for
    /// every packet the link has accepted but not yet transmitted.
    pub fn in_service_pkts(&self) -> u64 {
        u64::from(self.in_service.is_some()) + self.burst_tail.len() as u64
    }

    /// Reset counters and the drop log (typically at the end of warm-up).
    pub fn reset_stats(&mut self) {
        let flows = self.stats.per_flow_arrived.len();
        self.stats = LinkStats::default();
        self.stats.per_flow_arrived.resize(flows, 0);
        self.stats.per_flow_dropped.resize(flows, 0);
        self.drop_log.clear();
    }

    /// An accepted arrival ends any in-progress drop burst.
    #[inline]
    fn end_drop_burst(&mut self) {
        if self.drop_burst > 0 {
            if let Some(m) = &self.metrics {
                m.drop_burst_pkts.record(self.drop_burst);
            }
            self.drop_burst = 0;
        }
    }

    fn forward_to(&self, p: &Packet) -> ComponentId {
        match self.next {
            NextHop::Fixed(id) => id,
            NextHop::ToPacketDst => p.dst,
        }
    }

    fn ser_time(&mut self, wire_bytes: u32) -> SimDuration {
        match self.ser_memo {
            Some((bytes, d)) if bytes == wire_bytes => d,
            _ => {
                let d = self.rate.serialization_time(wire_bytes as u64);
                self.ser_memo = Some((wire_bytes, d));
                d
            }
        }
    }

    fn start_service(&mut self, p: Packet, ctx: &mut Ctx<'_, Msg>) {
        let ser = self.ser_time(p.wire_bytes);
        if let Some(m) = &self.metrics {
            m.busy_nanos.add(ser.as_nanos());
        }
        self.in_service = Some(p);
        ctx.schedule_self(ser, Msg::Timer(TimerToken::pack(SERIALIZATION_DONE, 0)));
    }

    /// Whether the batched transmit path is active (see
    /// [`Link::set_tx_burst`]): never with an injector, whose delivery
    /// fates must be drawn at each frame's own transmission instant.
    fn burst_mode(&self) -> bool {
        self.tx_burst > 1 && self.injector.is_none()
    }

    /// Start a batched service round: take the optional fresh arrival,
    /// then dequeue until the burst is full or the queue is empty. Each
    /// member's delivery is scheduled eagerly at its own completion
    /// instant (`Σ ser ≤ member + prop`), and one `SERIALIZATION_DONE`
    /// is armed at the burst's end to retire the counters and pull the
    /// next burst.
    fn begin_burst(&mut self, now: SimTime, mut first: Option<Packet>, ctx: &mut Ctx<'_, Msg>) {
        debug_assert!(self.in_service.is_none() && self.burst_tail.is_empty());
        let mut offset = SimDuration::ZERO;
        let mut taken = 0u32;
        while taken < self.tx_burst {
            let next = match first.take() {
                Some(p) => Some(p),
                None => self.pull_queue(now),
            };
            let Some(p) = next else { break };
            let ser = self.ser_time(p.wire_bytes);
            if let Some(m) = &self.metrics {
                m.busy_nanos.add(ser.as_nanos());
            }
            offset += ser;
            let dst = self.forward_to(&p);
            deliver_after(
                ctx,
                offset + hop_latency(self.prop_delay, SimDuration::ZERO),
                dst,
                p,
            );
            if taken == 0 {
                self.in_service = Some(p);
            } else {
                self.burst_tail.push(p);
            }
            taken += 1;
        }
        if taken > 0 {
            ctx.schedule_self(offset, Msg::Timer(TimerToken::pack(SERIALIZATION_DONE, 0)));
        }
    }

    /// Dequeue the next serviceable packet, accounting dequeue-time drops
    /// and CE marks (CoDel may drop, PIE may mark, at dequeue).
    fn pull_queue(&mut self, now: SimTime) -> Option<Packet> {
        loop {
            match self.aqm.dequeue(now) {
                Dequeued::Deliver(next) => return Some(next),
                Dequeued::Marked(next) => {
                    self.stats.ce_marked_pkts += 1;
                    if let Some(rec) = &mut self.recorder {
                        rec.on_ecn_mark(now, next.flow.0, self.aqm.queued_bytes());
                    }
                    return Some(next);
                }
                Dequeued::Dropped(dropped) => self.count_drop(now, &dropped),
                Dequeued::Empty => return None,
            }
        }
    }

    /// Account one dropped packet: counters, metrics burst, drop log, and
    /// flight recorder. Queue-overflow, AQM early drops, fault drops, and
    /// CoDel dequeue-time drops all flow through here so loss-rate
    /// analysis sees total loss regardless of cause.
    fn count_drop(&mut self, now: SimTime, p: &Packet) {
        self.stats.dropped_pkts += 1;
        self.stats.dropped_bytes += p.wire_bytes as u64;
        self.stats.per_flow_dropped[p.flow.index()] += 1;
        if self.metrics.is_some() {
            self.drop_burst += 1;
        }
        if now >= self.log_from && self.drop_log.len() < self.drop_log_cap {
            self.drop_log.push(now);
        }
        if let Some(rec) = &mut self.recorder {
            rec.on_drop(now, p.flow.0, self.aqm.queued_bytes());
        }
    }

    /// Arm the AQM control-law timer if the discipline wants one and it is
    /// not already running (lazy: first arrival only).
    fn maybe_arm_aqm_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.aqm_tick_armed {
            if let Some(interval) = self.aqm.tick_interval() {
                self.aqm_tick_armed = true;
                ctx.schedule_self(interval, Msg::Timer(TimerToken::pack(AQM_TICK, 0)));
            }
        }
    }

    fn on_packet(&mut self, now: SimTime, p: Packet, ctx: &mut Ctx<'_, Msg>) {
        let fi = p.flow.index();
        self.stats.grow_for(fi);
        self.stats.arrived_pkts += 1;
        self.stats.arrived_bytes += p.wire_bytes as u64;
        self.stats.per_flow_arrived[fi] += 1;
        if let Some(rec) = &mut self.recorder {
            rec.on_arrival(now, self.aqm.queued_bytes(), self.aqm.queued_pkts());
        }
        if let Some(m) = &self.metrics {
            m.queue_bytes.record(self.aqm.queued_bytes());
        }
        if let Some(inj) = &mut self.injector {
            if inj.arrival_drop(now).is_some() {
                // Fault drops (blackout / random loss): the injector's own
                // stats keep the breakdown by cause.
                self.count_drop(now, &p);
                return;
            }
        }
        self.maybe_arm_aqm_tick(ctx);

        if self.in_service.is_none() {
            debug_assert!(self.aqm.queued_pkts() == 0);
            self.end_drop_burst();
            if self.burst_mode() {
                self.begin_burst(now, Some(p), ctx);
            } else {
                self.start_service(p, ctx);
            }
            return;
        }
        match self.aqm.enqueue(now, p) {
            Enqueued::Dropped(p) => self.count_drop(now, &p),
            Enqueued::Marked => {
                self.end_drop_burst();
                self.stats.ce_marked_pkts += 1;
                if let Some(rec) = &mut self.recorder {
                    rec.on_ecn_mark(now, p.flow.0, self.aqm.queued_bytes());
                }
                self.stats.max_queue_bytes =
                    self.stats.max_queue_bytes.max(self.aqm.queued_bytes());
            }
            Enqueued::Queued => {
                self.end_drop_burst();
                self.stats.max_queue_bytes =
                    self.stats.max_queue_bytes.max(self.aqm.queued_bytes());
            }
        }
    }

    fn on_serialization_done(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>) {
        let p = self
            .in_service
            .take()
            .expect("serialization-done with no packet in service");
        if self.burst_mode() {
            // Batched service: every member's delivery was scheduled at
            // its own completion instant when the burst began; this one
            // timer retires the whole burst's transmit counters and pulls
            // the next burst.
            self.stats.transmitted_pkts += 1;
            self.stats.transmitted_bytes += p.wire_bytes as u64;
            for tail in self.burst_tail.drain(..) {
                self.stats.transmitted_pkts += 1;
                self.stats.transmitted_bytes += tail.wire_bytes as u64;
            }
            self.begin_burst(now, None, ctx);
            return;
        }
        self.stats.transmitted_pkts += 1;
        self.stats.transmitted_bytes += p.wire_bytes as u64;
        let dst = self.forward_to(&p);
        if let Some(inj) = &mut self.injector {
            // Delivery-side impairments: extra one-way delay (base-RTT
            // step, reorder hold-back) and duplication. A held-back
            // packet is overtaken by later deliveries — reordering
            // without any queue manipulation.
            let fate = inj.delivery_fate();
            let latency = hop_latency(self.prop_delay, fate.extra_delay);
            deliver_after(ctx, latency, dst, p);
            if fate.duplicate {
                deliver_after(ctx, latency, dst, p);
            }
        } else {
            deliver_after(ctx, hop_latency(self.prop_delay, SimDuration::ZERO), dst, p);
        }
        // Pull the next packet to serialize (dequeue-time drops and marks
        // are accounted inside `pull_queue`).
        if let Some(next) = self.pull_queue(now) {
            self.start_service(next, ctx);
        }
    }

    snap! {
        /// Serialize this link's mutable state for a checkpoint. Topology
        /// configuration (propagation delay, buffer size, next hop, AQM
        /// discipline choice, drop-log cap) is rebuilt from the scenario;
        /// everything here is what traffic and fault actions have changed:
        /// the current rate (fault-mutable), queue contents, in-service
        /// packet, counters, drop log, and the delegated AQM / injector /
        /// recorder state. The in-progress drop-burst length counts only
        /// while metrics are attached, so it stays out.
        pub fn save_state;
        /// Overlay checkpointed state onto a link freshly built from the
        /// same scenario (same AQM discipline, fault plan, and trace
        /// attachment).
        pub fn load_state;
        rate, ser_memo, aqm_tick_armed, in_service, stats, drop_log, log_from, burst_tail,
        in aqm,
        attached "fault injector" injector,
        attached "queue recorder" recorder,
    }

    fn on_fault_tick(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>) {
        let Some(inj) = &mut self.injector else {
            return;
        };
        let changes = inj.advance_to(now);
        if let Some(rate) = changes.new_rate {
            // Takes effect at the next serialization start; the frame on
            // the wire finishes at its old rate, as on real hardware.
            self.rate = rate;
            self.ser_memo = None;
            // Delay-estimating disciplines (PIE) re-anchor on the new
            // drain rate.
            self.aqm.on_rate_change(rate);
        }
        if let Some(at) = inj.next_action_at() {
            let self_id = ctx.self_id();
            ctx.schedule_at(at, self_id, Msg::Timer(TimerToken::pack(FAULT_TICK, 0)));
        }
    }
}

impl Component<Msg> for Link {
    fn on_event(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Packet(p) => self.on_packet(now, p, ctx),
            Msg::Timer(t) => match t.kind() {
                FAULT_TICK => self.on_fault_tick(now, ctx),
                AQM_TICK => {
                    // Re-arm only while the discipline still wants a tick
                    // (a build-time AQM swap may leave one parked event)
                    // and has work to do — a quiescent discipline on an
                    // idle link would otherwise keep the simulation alive
                    // forever. The next arrival re-arms lazily.
                    if let Some(interval) = self.aqm.tick_interval() {
                        self.aqm.on_tick(now);
                        if self.aqm.tick_needed() || self.in_service.is_some() {
                            ctx.schedule_self(interval, Msg::Timer(TimerToken::pack(AQM_TICK, 0)));
                        } else {
                            self.aqm_tick_armed = false;
                        }
                    } else {
                        self.aqm_tick_armed = false;
                    }
                }
                kind => {
                    debug_assert_eq!(kind, SERIALIZATION_DONE);
                    self.on_serialization_done(now, ctx);
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use ccsim_sim::Simulator;

    /// Records every packet it receives with the arrival time.
    pub struct Sink {
        pub received: Vec<(SimTime, Packet)>,
    }

    impl Component<Msg> for Sink {
        fn on_event(&mut self, now: SimTime, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Packet(p) = msg {
                self.received.push((now, p));
            }
        }
    }

    fn pkt(flow: u32, dst: ComponentId, bytes: u32) -> Packet {
        pkt_at(flow, dst, bytes, 0)
    }

    /// A packet whose payload starts at byte `seq`.
    fn pkt_at(flow: u32, dst: ComponentId, bytes: u32, seq: u64) -> Packet {
        let mut p = Packet::data(FlowId(flow), dst, seq, seq + bytes as u64, SimTime::ZERO);
        p.wire_bytes = bytes; // test uses raw wire size without header math
        p
    }

    #[test]
    fn single_packet_latency_is_serialization_plus_propagation() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        // 100 Mbps, 5 ms propagation.
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(5),
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(0, sink, 1500)));
        sim.run();
        let rx = &sim.component::<Sink>(sink).received;
        assert_eq!(rx.len(), 1);
        // 1500B @ 100Mbps = 120 us; + 5 ms.
        assert_eq!(rx[0].0, SimTime::from_micros(5_120));
    }

    #[test]
    fn back_to_back_packets_are_spaced_by_serialization_time() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        for _ in 0..3 {
            sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(0, sink, 1500)));
        }
        sim.run();
        let rx = &sim.component::<Sink>(sink).received;
        assert_eq!(rx.len(), 3);
        assert_eq!(rx[0].0, SimTime::from_micros(120));
        assert_eq!(rx[1].0, SimTime::from_micros(240));
        assert_eq!(rx[2].0, SimTime::from_micros(360));
    }

    #[test]
    fn drop_tail_drops_arrivals_beyond_buffer() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        // Buffer fits exactly two waiting 1500 B packets.
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            3000,
            NextHop::ToPacketDst,
        ));
        // Five simultaneous arrivals: 1 in service + 2 queued + 2 dropped.
        for i in 0..5 {
            sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(i, sink, 1500)));
        }
        sim.run();
        assert_eq!(sim.component::<Sink>(sink).received.len(), 3);
        let stats = sim.component::<Link>(link).stats();
        assert_eq!(stats.arrived_pkts, 5);
        assert_eq!(stats.dropped_pkts, 2);
        assert_eq!(stats.transmitted_pkts, 3);
        assert_eq!(stats.max_queue_bytes, 3000);
        // Drop-tail drops the *late* arrivals (flows 3, 4).
        assert_eq!(stats.per_flow_dropped[3], 1);
        assert_eq!(stats.per_flow_dropped[4], 1);
        assert_eq!(stats.per_flow_dropped[0], 0);
        assert_eq!(sim.component::<Link>(link).drop_log().len(), 2);
    }

    #[test]
    fn loss_rate_computation() {
        let s = LinkStats {
            arrived_pkts: 200,
            dropped_pkts: 10,
            ..LinkStats::default()
        };
        assert!((s.loss_rate() - 0.05).abs() < 1e-12);
        assert_eq!(LinkStats::default().loss_rate(), 0.0);
    }

    #[test]
    fn per_flow_loss_rate() {
        let mut s = LinkStats::default();
        s.grow_for(1);
        s.per_flow_arrived[1] = 100;
        s.per_flow_dropped[1] = 25;
        assert!((s.per_flow_loss_rate(1) - 0.25).abs() < 1e-12);
        assert_eq!(s.per_flow_loss_rate(0), 0.0);
        assert_eq!(s.per_flow_loss_rate(99), 0.0); // out of range = no data
    }

    #[test]
    fn fixed_next_hop_chains_links() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let second = sim.add_component(Link::new(
            Bandwidth::from_gbps(10),
            SimDuration::from_millis(1),
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        let first = sim.add_component(Link::new(
            Bandwidth::from_gbps(10),
            SimDuration::from_millis(1),
            u64::MAX,
            NextHop::Fixed(second),
        ));
        sim.schedule(SimTime::ZERO, first, Msg::Packet(pkt(0, sink, 1250)));
        sim.run();
        let rx = &sim.component::<Sink>(sink).received;
        assert_eq!(rx.len(), 1);
        // Two hops: 2 * (1 us serialization + 1 ms propagation).
        assert_eq!(rx[0].0, SimTime::from_micros(2_002));
    }

    #[test]
    fn reset_stats_clears_counts_but_keeps_flow_table_size() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(10),
            SimDuration::ZERO,
            0, // everything beyond the in-service packet drops
            NextHop::ToPacketDst,
        ));
        for _ in 0..4 {
            sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(2, sink, 1000)));
        }
        sim.run();
        let l = sim.component_mut::<Link>(link);
        assert_eq!(l.stats().dropped_pkts, 3);
        l.reset_stats();
        assert_eq!(l.stats().dropped_pkts, 0);
        assert_eq!(l.stats().per_flow_arrived.len(), 3);
        assert!(l.drop_log().is_empty());
    }

    #[test]
    fn memory_account_counts_the_per_flow_counters() {
        let mut l = Link::new(
            Bandwidth::from_mbps(10),
            SimDuration::ZERO,
            0,
            NextHop::ToPacketDst,
        );
        let before = l.memory_bytes();
        l.stats.grow_for(999);
        assert_eq!(l.memory_bytes() - before, 1000 * 16);
    }

    #[test]
    fn drop_log_cap_limits_log_not_counters() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(
            Link::new(
                Bandwidth::from_mbps(10),
                SimDuration::ZERO,
                0,
                NextHop::ToPacketDst,
            )
            .with_drop_log_cap(2),
        );
        for _ in 0..10 {
            sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(0, sink, 1000)));
        }
        sim.run();
        let l = sim.component::<Link>(link);
        assert_eq!(l.drop_log().len(), 2);
        assert_eq!(l.stats().dropped_pkts, 9);
    }

    #[test]
    fn metrics_capture_occupancy_bursts_and_busy_time() {
        use ccsim_telemetry::Registry;
        let registry = Registry::new();
        let metrics = LinkMetrics {
            queue_bytes: registry.histogram("ccsim_link_queue_bytes", "occupancy"),
            drop_burst_pkts: registry.histogram("ccsim_link_drop_burst_pkts", "bursts"),
            busy_nanos: registry.counter("ccsim_link_busy_nanos_total", "busy"),
        };
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        // Buffer fits exactly two waiting 1500 B packets.
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            3000,
            NextHop::ToPacketDst,
        ));
        sim.component_mut::<Link>(link)
            .enable_metrics(metrics.clone());
        // 1 in service + 2 queued + 2 dropped (one burst of 2).
        for i in 0..5 {
            sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(i, sink, 1500)));
        }
        sim.run();
        sim.component_mut::<Link>(link).finish_metrics();
        // Occupancy sampled at all 5 arrivals.
        assert_eq!(metrics.queue_bytes.count(), 5);
        // One burst of 2 drops, flushed by finish_metrics.
        assert_eq!(metrics.drop_burst_pkts.count(), 1);
        assert_eq!(metrics.drop_burst_pkts.sum(), 2);
        // 3 packets × 1500 B @ 100 Mbps = 3 × 120 µs busy.
        assert_eq!(metrics.busy_nanos.get(), 360_000);
    }

    #[test]
    fn metrics_do_not_change_link_behavior() {
        let run = |with_metrics: bool| {
            let registry = ccsim_telemetry::Registry::new();
            let mut sim = Simulator::new(7);
            let sink = sim.add_component(Sink { received: vec![] });
            let link = sim.add_component(Link::new(
                Bandwidth::from_mbps(10),
                SimDuration::from_millis(1),
                3000,
                NextHop::ToPacketDst,
            ));
            if with_metrics {
                sim.component_mut::<Link>(link).enable_metrics(LinkMetrics {
                    queue_bytes: registry.histogram("q", "q"),
                    drop_burst_pkts: registry.histogram("b", "b"),
                    busy_nanos: registry.counter("n", "n"),
                });
            }
            for i in 0..8 {
                sim.schedule(
                    SimTime::from_micros(i * 50),
                    link,
                    Msg::Packet(pkt(0, sink, 1500)),
                );
            }
            sim.run();
            let l = sim.component::<Link>(link);
            (
                l.stats().clone().transmitted_pkts,
                l.stats().dropped_pkts,
                sim.component::<Sink>(sink)
                    .received
                    .iter()
                    .map(|(t, _)| *t)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// Schedule the first fault tick the way the harness does.
    fn arm_faults(sim: &mut Simulator<Msg>, link: ComponentId, inj: LinkFaultInjector) {
        let first = inj.next_action_at();
        sim.component_mut::<Link>(link).enable_faults(inj);
        if let Some(at) = first {
            sim.schedule(at, link, Msg::Timer(TimerToken::pack(FAULT_TICK, 0)));
        }
    }

    #[test]
    fn blackout_drops_arrivals_then_restores() {
        use ccsim_fault::FaultPlan;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        let plan = FaultPlan::none().blackout(SimTime::from_secs(1), SimDuration::from_secs(2));
        arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, 9));
        // One packet before, two during, one after the [1s, 3s) outage.
        for t_ms in [500, 1_500, 2_500, 3_500] {
            sim.schedule(
                SimTime::from_millis(t_ms),
                link,
                Msg::Packet(pkt(0, sink, 1500)),
            );
        }
        sim.run();
        assert_eq!(sim.component::<Sink>(sink).received.len(), 2);
        let l = sim.component::<Link>(link);
        assert_eq!(l.stats().dropped_pkts, 2);
        assert_eq!(l.fault_stats().unwrap().blackout_dropped, 2);
        assert_eq!(
            l.drop_log(),
            &[SimTime::from_millis(1_500), SimTime::from_millis(2_500)]
        );
    }

    #[test]
    fn bandwidth_step_changes_serialization_spacing() {
        use ccsim_fault::FaultPlan;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        // Halve the rate at t=1s: 1500 B goes from 120 µs to 240 µs.
        let plan = FaultPlan::none().set_bandwidth(SimTime::from_secs(1), Bandwidth::from_mbps(50));
        arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, 9));
        sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(0, sink, 1500)));
        sim.schedule(SimTime::from_secs(2), link, Msg::Packet(pkt(0, sink, 1500)));
        sim.run();
        let rx = &sim.component::<Sink>(sink).received;
        assert_eq!(rx[0].0, SimTime::from_micros(120));
        assert_eq!(
            rx[1].0,
            SimTime::from_secs(2) + SimDuration::from_micros(240)
        );
    }

    #[test]
    fn extra_delay_step_shifts_deliveries() {
        use ccsim_fault::FaultPlan;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(5),
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        let plan =
            FaultPlan::none().set_extra_delay(SimTime::from_secs(1), SimDuration::from_millis(20));
        arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, 9));
        sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(0, sink, 1500)));
        sim.schedule(SimTime::from_secs(2), link, Msg::Packet(pkt(0, sink, 1500)));
        sim.run();
        let rx = &sim.component::<Sink>(sink).received;
        // Before: 120 µs serialization + 5 ms. After: + 20 ms extra.
        assert_eq!(rx[0].0, SimTime::from_micros(5_120));
        assert_eq!(
            rx[1].0,
            SimTime::from_secs(2) + SimDuration::from_micros(25_120)
        );
    }

    #[test]
    fn certain_reorder_lets_later_packets_overtake() {
        use ccsim_fault::FaultPlan;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(1),
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        // Hold back only the first packet (reorder window covers t<1ms).
        let plan = FaultPlan::none()
            .reorder(SimTime::ZERO, 1.0, SimDuration::from_millis(10))
            .reorder(SimTime::from_millis(1), 0.0, SimDuration::ZERO);
        arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, 9));
        let first = pkt_at(0, sink, 1500, 1);
        let second = pkt_at(0, sink, 1500, 2);
        sim.schedule(SimTime::ZERO, link, Msg::Packet(first));
        sim.schedule(SimTime::from_millis(2), link, Msg::Packet(second));
        sim.run();
        let rx = &sim.component::<Sink>(sink).received;
        assert_eq!(rx.len(), 2);
        // seq 2 (sent later) arrives before the held-back seq 1.
        assert_eq!(rx[0].1.seq(), 2);
        assert_eq!(rx[1].1.seq(), 1);
        assert_eq!(
            sim.component::<Link>(link).fault_stats().unwrap().reordered,
            1
        );
    }

    #[test]
    fn certain_duplication_delivers_two_copies() {
        use ccsim_fault::FaultPlan;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        let plan = FaultPlan::none().duplicate(SimTime::ZERO, 1.0);
        arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, 9));
        sim.schedule(SimTime::from_secs(1), link, Msg::Packet(pkt(0, sink, 1500)));
        sim.run();
        let l = sim.component::<Link>(link);
        assert_eq!(sim.component::<Sink>(sink).received.len(), 2);
        // Conservation holds: the duplicate is minted at delivery, not
        // through the queue.
        assert_eq!(l.stats().transmitted_pkts, 1);
        assert_eq!(l.fault_stats().unwrap().duplicated, 1);
    }

    #[test]
    fn iid_loss_drops_close_to_rate_at_the_link() {
        use ccsim_fault::FaultPlan;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_gbps(10),
            SimDuration::ZERO,
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        let plan = FaultPlan::none().iid_loss(SimTime::ZERO, 0.1);
        arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, 77));
        for i in 0..5_000u64 {
            sim.schedule(
                SimTime::from_micros(10 + i * 10),
                link,
                Msg::Packet(pkt(0, sink, 1500)),
            );
        }
        sim.run();
        let l = sim.component::<Link>(link);
        let dropped = l.stats().dropped_pkts;
        assert!((350..650).contains(&dropped), "dropped {dropped} at p=0.1");
        assert_eq!(l.fault_stats().unwrap().loss_dropped, dropped);
        assert_eq!(l.stats().transmitted_pkts + dropped, l.stats().arrived_pkts);
    }

    #[test]
    fn faulted_run_is_seed_deterministic_at_the_link() {
        use ccsim_fault::FaultPlan;
        let run = |seed: u64| {
            let mut sim = Simulator::new(0);
            let sink = sim.add_component(Sink { received: vec![] });
            let link = sim.add_component(Link::new(
                Bandwidth::from_mbps(100),
                SimDuration::from_millis(1),
                4500,
                NextHop::ToPacketDst,
            ));
            let plan = FaultPlan::none()
                .iid_loss(SimTime::ZERO, 0.05)
                .blackout(SimTime::from_millis(50), SimDuration::from_millis(10))
                .duplicate(SimTime::from_millis(70), 0.1);
            arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, seed));
            for i in 0..2_000u64 {
                sim.schedule(
                    SimTime::from_micros(i * 50),
                    link,
                    Msg::Packet(pkt(0, sink, 1500)),
                );
            }
            sim.run();
            sim.component::<Sink>(sink)
                .received
                .iter()
                .map(|(t, p)| (*t, p.seq()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn set_aqm_invalidates_ser_memo_and_resyncs_buffer() {
        use crate::aqm::AqmKind;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            3000,
            NextHop::ToPacketDst,
        ));
        sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(0, sink, 1500)));
        sim.run();
        let l = sim.component_mut::<Link>(link);
        assert_eq!(l.ser_memo_bytes(), Some(1500));
        l.set_aqm(AqmKind::Codel.build(64_000, Bandwidth::from_mbps(100), false, 1));
        assert_eq!(l.ser_memo_bytes(), None);
        assert_eq!(l.aqm_kind(), AqmKind::Codel);
        assert_eq!(l.buffer_bytes(), 64_000);
    }

    #[test]
    fn pie_link_quiesces_after_draining_so_run_to_empty_terminates() {
        use crate::aqm::AqmKind;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let mut l = Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            64_000,
            NextHop::ToPacketDst,
        );
        l.set_aqm(AqmKind::Pie.build(64_000, Bandwidth::from_mbps(100), false, 5));
        let link = sim.add_component(l);
        // A burst deep enough to raise PIE's probability above zero, so
        // quiescence requires the post-drain decay to actually terminate.
        for i in 0..200 {
            sim.schedule(
                SimTime::from_micros(i * 10),
                link,
                Msg::Packet(pkt(0, sink, 1500)),
            );
        }
        // Runs to a genuinely empty event queue: with the control-law
        // timer re-arming unconditionally this would never return.
        sim.run();
        let l = sim.component::<Link>(link);
        assert!(l.stats().transmitted_pkts > 0);
        assert_eq!(l.aqm.queued_pkts(), 0);
        assert!(!l.aqm.tick_needed(), "PIE still ticking after drain");
    }

    #[test]
    fn fault_rate_change_invalidates_ser_memo() {
        use ccsim_fault::FaultPlan;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        let plan = FaultPlan::none().set_bandwidth(SimTime::from_secs(1), Bandwidth::from_mbps(50));
        arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, 9));
        // One packet long before the rate change populates the memo; no
        // traffic afterwards, so a stale memo would survive to the end.
        sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(0, sink, 1500)));
        sim.run();
        assert_eq!(sim.component::<Link>(link).ser_memo_bytes(), None);
    }

    #[test]
    fn red_link_marks_ect_packets_instead_of_dropping_early() {
        use crate::aqm::AqmKind;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(10),
            SimDuration::ZERO,
            60_000,
            NextHop::ToPacketDst,
        ));
        sim.component_mut::<Link>(link).set_aqm(AqmKind::Red.build(
            60_000,
            Bandwidth::from_mbps(10),
            true,
            7,
        ));
        // Arrivals far faster than the 1.2 ms/pkt drain build a standing
        // queue; the long train lets RED's slow EWMA (w = 1/512) converge
        // past the marking thresholds.
        for i in 0..2000u64 {
            let mut p = pkt_at(0, sink, 1500, i);
            p.set_ect();
            sim.schedule(SimTime::from_micros(i * 100), link, Msg::Packet(p));
        }
        sim.run();
        let l = sim.component::<Link>(link);
        let stats = l.stats().clone();
        assert!(stats.ce_marked_pkts > 0, "RED never marked: {stats:?}");
        // Marks replace early drops, not buffer-overflow drops; everything
        // admitted is eventually transmitted.
        assert_eq!(
            stats.transmitted_pkts + stats.dropped_pkts,
            stats.arrived_pkts
        );
        let ce_delivered = sim
            .component::<Sink>(sink)
            .received
            .iter()
            .filter(|(_, p)| p.is_ce())
            .count() as u64;
        assert_eq!(ce_delivered, stats.ce_marked_pkts);
    }

    #[test]
    fn red_link_without_ecn_early_drops_instead_of_marking() {
        use crate::aqm::AqmKind;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(10),
            SimDuration::ZERO,
            60_000,
            NextHop::ToPacketDst,
        ));
        sim.component_mut::<Link>(link).set_aqm(AqmKind::Red.build(
            60_000,
            Bandwidth::from_mbps(10),
            false,
            7,
        ));
        for i in 0..200u64 {
            let mut p = pkt_at(0, sink, 1500, i);
            p.set_ect();
            sim.schedule(SimTime::from_micros(i * 100), link, Msg::Packet(p));
        }
        sim.run();
        let stats = sim.component::<Link>(link).stats().clone();
        assert_eq!(stats.ce_marked_pkts, 0);
        assert!(stats.dropped_pkts > 0, "RED never early-dropped: {stats:?}");
    }

    #[test]
    fn tx_burst_preserves_wire_spacing_with_fewer_events() {
        let run = |burst: u32| {
            let mut sim = Simulator::new(0);
            let sink = sim.add_component(Sink { received: vec![] });
            let link = sim.add_component(Link::new(
                Bandwidth::from_mbps(100),
                SimDuration::from_millis(1),
                u64::MAX,
                NextHop::ToPacketDst,
            ));
            sim.component_mut::<Link>(link).set_tx_burst(burst);
            for i in 0..9u64 {
                sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(i as u32, sink, 1500)));
            }
            sim.run();
            let l = sim.component::<Link>(link);
            assert_eq!(l.stats().transmitted_pkts, 9);
            assert_eq!(l.in_service_pkts(), 0);
            (
                sim.component::<Sink>(sink)
                    .received
                    .iter()
                    .map(|(t, p)| (*t, p.flow.0))
                    .collect::<Vec<_>>(),
                sim.events_processed(),
            )
        };
        let (legacy_rx, legacy_events) = run(1);
        // Per-frame wire spacing: 120 µs serialization + 1 ms propagation.
        assert_eq!(legacy_rx[0].0, SimTime::from_micros(1_120));
        assert_eq!(legacy_rx[8].0, SimTime::from_micros(2_080));
        for burst in [2, 4, 16] {
            let (rx, events) = run(burst);
            assert_eq!(rx, legacy_rx, "tx_burst={burst} changed deliveries");
            assert!(
                events < legacy_events,
                "tx_burst={burst} saved no events ({events} vs {legacy_events})"
            );
        }
    }

    #[test]
    fn tx_burst_drop_tail_counters_stay_exact() {
        // Buffer fits two waiting packets: 1 in service + 2 queued + 2
        // dropped, exactly as on the legacy path.
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            3000,
            NextHop::ToPacketDst,
        ));
        sim.component_mut::<Link>(link).set_tx_burst(8);
        for i in 0..5 {
            sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(i, sink, 1500)));
        }
        sim.run();
        assert_eq!(sim.component::<Sink>(sink).received.len(), 3);
        let stats = sim.component::<Link>(link).stats();
        assert_eq!(stats.arrived_pkts, 5);
        assert_eq!(stats.dropped_pkts, 2);
        assert_eq!(stats.transmitted_pkts, 3);
        assert_eq!(stats.transmitted_bytes, 4500);
    }

    #[test]
    fn tx_burst_is_ignored_while_faults_are_attached() {
        use ccsim_fault::FaultPlan;
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        sim.component_mut::<Link>(link).set_tx_burst(8);
        let plan = FaultPlan::none().duplicate(SimTime::ZERO, 1.0);
        arm_faults(&mut sim, link, LinkFaultInjector::new(&plan, 9));
        sim.schedule(SimTime::from_secs(1), link, Msg::Packet(pkt(0, sink, 1500)));
        sim.run();
        // The duplication fate still applies: the batched path would skip
        // delivery-fate sampling, so it must disable itself.
        assert_eq!(sim.component::<Sink>(sink).received.len(), 2);
    }

    #[test]
    fn log_from_excludes_warmup_drops() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let link = sim.add_component(Link::new(
            Bandwidth::from_kbps(8), // 1 KB/s: 1000 B takes 1 s to serialize
            SimDuration::ZERO,
            0,
            NextHop::ToPacketDst,
        ));
        sim.component_mut::<Link>(link)
            .set_log_from(SimTime::from_millis(500));
        // t=0: starts service. t=1ms: dropped (before log_from).
        // t=600ms: dropped (after log_from).
        sim.schedule(SimTime::ZERO, link, Msg::Packet(pkt(0, sink, 1000)));
        sim.schedule(
            SimTime::from_millis(1),
            link,
            Msg::Packet(pkt(0, sink, 1000)),
        );
        sim.schedule(
            SimTime::from_millis(600),
            link,
            Msg::Packet(pkt(0, sink, 1000)),
        );
        sim.run();
        let l = sim.component::<Link>(link);
        assert_eq!(l.stats().dropped_pkts, 2);
        assert_eq!(l.drop_log(), &[SimTime::from_millis(600)]);
    }
}
