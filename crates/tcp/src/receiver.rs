//! The TCP receiver endpoint.
//!
//! Receives data segments, reassembles the in-order byte stream, and
//! generates ACKs with SACK blocks. ACK policy follows Linux/RFC 5681:
//!
//! * delayed ACK: one ACK per two full-size segments, or after 40 ms,
//!   whichever first;
//! * immediate ACK on out-of-order arrival (duplicate ACK with SACK) and on
//!   arrivals that fill a gap.
//!
//! **netem substitution**: the paper set per-flow base RTTs with `tc netem`
//! on the receivers. Here the receiver delays its ACKs by the flow's full
//! base RTT (`ack_delay`) and delivers them *directly* to the sender — the
//! reverse path is uncongested by construction (the paper's 25 Gbps edge
//! links guarantee the same). Placing the entire base RTT on the ACK path is
//! observationally equivalent to any forward/reverse split for every metric
//! the study measures: senders see base RTT + queueing delay either way.
//!
//! # Reassembly state
//!
//! Two small structures, neither a tree, neither touched by the allocator
//! on a per-segment path once warm:
//!
//! * `ooo`, the out-of-order ranges, is an ascending `VecDeque<(start,
//!   end)>` of disjoint, non-adjacent runs. An arrival looks at the back
//!   first (new data lands past the last hole), binary-searches otherwise,
//!   and splices in place; `drain_contiguous` pops the front.
//! * `recent`, the RFC 2018 recency order, is a ring of at most 16
//!   `(start, end)` entries, most recently updated first. An entry is
//!   flagged dead at the two places a range dies — absorbed by a neighbour
//!   in `insert_ooo`, drained in `drain_contiguous` — and carries the
//!   range's current end, because every change to an end finishes in
//!   `touch_range`. So `touch_range` is one pass over the ring and
//!   `sack_blocks` reads its blocks straight off it; neither looks anything
//!   up in `ooo`.
//!
//! A dead entry stays in the ring until the next touch sweeps it, exactly
//! as long as the stale start stayed in the list when liveness was a
//! `contains_key` at touch time, and `save_state` writes it: checkpoints
//! are byte-identical to that implementation's. Flagging early cannot
//! disagree with looking up late, because a dead start never comes back
//! to life in between: a range comes into being only in `insert_ooo`, which
//! ends by touching exactly that start (replacing any entry that has it),
//! new ranges start above `rcv_nxt` (so not where a drained one did), and
//! the bytes of an absorbed range can only re-arrive as duplicates of the
//! range that absorbed them. `tests/proptest_receiver.rs` drives this
//! against the old implementation in lock-step.

use crate::endpoint_stats::ReceiverStats;
use ccsim_net::msg::{Msg, TimerToken};
use ccsim_net::packet::{FlowId, Packet, SackBlock, SackBlocks, MAX_SACK_BLOCKS};
use ccsim_sim::{
    CancelToken, Component, ComponentId, Ctx, SimDuration, SimTime, Snap, SnapError, SnapReader,
    SnapWriter,
};
use std::collections::VecDeque;
use std::num::NonZeroU64;

/// Linux's delayed-ACK timeout floor (`TCP_DELACK_MIN`).
pub const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);

/// ACK every `DELACK_SEGMENTS` full-size segments.
pub const DELACK_SEGMENTS: u32 = 2;

const TIMER_DELACK: u16 = 1;

/// Entries the recency ring keeps: about five ACKs' worth of SACK blocks.
const RECENT_CAP: usize = 16;

/// One entry of the recency ring: an out-of-order range as of its last
/// touch. `end` is `None` once the range has died (merged into a
/// neighbour or drained) and current until then: a range's end only moves
/// in `insert_ooo`, which re-touches it. A dead entry keeps its `start`
/// until the next touch sweeps it, because checkpoints list it. Two words
/// and no padding: `touch_range` copies these in its loop.
#[derive(Clone, Copy)]
struct Recent {
    start: u64,
    end: Option<NonZeroU64>,
}

/// The receiver component.
pub struct Receiver {
    flow: FlowId,
    /// The sender endpoint ACKs are delivered to.
    sender: ComponentId,
    /// Base-RTT delay applied to every ACK (netem substitution).
    ack_delay: SimDuration,
    mss: u32,
    /// Next expected in-order byte.
    rcv_nxt: u64,
    /// Out-of-order `(start, end)` ranges, ascending; disjoint,
    /// non-adjacent and all above `rcv_nxt`.
    ooo: VecDeque<(u64, u64)>,
    /// The ranges in most-recently-updated order (RFC 2018: report the
    /// most recently changed blocks first, rotating older ones through so
    /// the sender eventually learns the full receive state even when it
    /// has far more holes than fit in one SACK option). At most
    /// [`RECENT_CAP`] entries with distinct starts; empty (and
    /// unallocated) until the first out-of-order arrival.
    recent: Vec<Recent>,
    /// Full segments received since the last ACK was sent.
    unacked_segments: u32,
    /// Live delayed-ACK timer event (null when disarmed). Sending an ACK
    /// cancels it outright — the old lazy generation-bump scheme left the
    /// dead 40 ms event parked in the queue (tens of thousands of them at
    /// 5000 flows) to fire as a no-op.
    delack_timer: CancelToken,
    /// Generation stamped into delack timer messages; guards the
    /// same-nanosecond dispatch-batch race `cancel` cannot cover.
    delack_generation: u64,
    /// RFC 3168 echo state: set when a CE-marked segment arrives, held
    /// across ACKs until the sender confirms with CWR on new data.
    ece_pending: bool,
    /// First hop for outgoing ACKs when the reverse path is routed through
    /// links (asymmetric topologies). `None` = deliver straight to the
    /// sender after `ack_delay` (the legacy netem substitution).
    ack_first_hop: Option<ComponentId>,
    /// ACK decimation threshold: one ACK per this many full-size segments
    /// (RFC 5681 delayed ACK generalized). [`DELACK_SEGMENTS`] is the
    /// legacy default; the megascale preset raises it to coalesce ACK
    /// events — every non-default value changes digests, so the knob is
    /// scenario-gated and defaulted everywhere else.
    delack_segments: u32,
    stats: ReceiverStats,
}

impl Receiver {
    /// A receiver for `flow`, delivering ACKs to `sender` after `ack_delay`.
    pub fn new(flow: FlowId, sender: ComponentId, ack_delay: SimDuration, mss: u32) -> Receiver {
        Receiver {
            flow,
            sender,
            ack_delay,
            mss,
            rcv_nxt: 0,
            ooo: VecDeque::new(),
            recent: Vec::new(),
            unacked_segments: 0,
            delack_timer: CancelToken::default(),
            delack_generation: 0,
            ece_pending: false,
            ack_first_hop: None,
            delack_segments: DELACK_SEGMENTS,
            stats: ReceiverStats::default(),
        }
    }

    /// Override the delayed-ACK segment threshold (ACK decimation). Values
    /// above [`DELACK_SEGMENTS`] coalesce ACK-path events at the cost of
    /// burstier cwnd growth; 0 is clamped to 1 (ACK every segment).
    pub fn set_delack_segments(&mut self, segments: u32) {
        self.delack_segments = segments.max(1);
    }

    /// Route outgoing ACKs through `hop` (a reverse-path link) instead of
    /// delivering them straight to the sender. The ACK still names the
    /// sender as [`Packet::dst`], so the last reverse hop can forward it
    /// with `ToPacketDst`.
    pub fn set_ack_first_hop(&mut self, hop: ComponentId) {
        self.ack_first_hop = Some(hop);
    }

    /// Total in-order bytes delivered to the application.
    pub fn delivered_bytes(&self) -> u64 {
        self.rcv_nxt
    }

    /// Counters.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }

    /// Number of out-of-order ranges currently buffered.
    pub fn ooo_ranges(&self) -> usize {
        self.ooo.len()
    }

    /// Approximate heap footprint of this endpoint: the receiver struct
    /// plus the allocated capacity of the out-of-order deque and the
    /// recency ring. Harvested into the profiler's `tcp/receivers` memory
    /// account.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        (size_of::<Self>()
            + self.ooo.capacity() * size_of::<(u64, u64)>()
            + self.recent.capacity() * size_of::<Recent>()) as u64
    }

    /// The flow this receiver serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Serialize the receiver's mutable state for a checkpoint (`flow`,
    /// `sender`, `ack_delay`, `mss`, and `ack_first_hop` are wiring
    /// configuration). The OOO ranges go out ascending, a canonical
    /// encoding; the recency ring is genuine state and its starts are
    /// written verbatim, dead ones included (`end` is derived: `load_state`
    /// looks it up).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.rcv_nxt);
        self.ooo.put(w);
        w.usize(self.recent.len());
        for r in &self.recent {
            w.u64(r.start);
        }
        w.u32(self.unacked_segments);
        self.delack_timer.put(w);
        w.u64(self.delack_generation);
        w.bool(self.ece_pending);
        self.stats.put(w);
    }

    /// Overlay checkpointed state onto a receiver freshly built from the
    /// same scenario. Refuses what no receiver can have written: ranges
    /// that are empty, out of order, touching each other or `rcv_nxt`, and
    /// a recency list that is over-long or names a start twice.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rcv_nxt = r.u64()?;
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: r.remaining(),
            });
        }
        let mut ooo = VecDeque::with_capacity(n);
        let mut prev_end = self.rcv_nxt;
        for _ in 0..n {
            let s = r.u64()?;
            let e = r.u64()?;
            if e <= s || s <= prev_end {
                return Err(SnapError::Corrupt(format!(
                    "receiver OOO range [{s}, {e}) invalid after end {prev_end}"
                )));
            }
            prev_end = e;
            ooo.push_back((s, e));
        }
        self.ooo = ooo;
        let n = r.usize()?;
        if n > RECENT_CAP {
            return Err(SnapError::Corrupt(format!(
                "receiver recency list holds {n} starts, over the {RECENT_CAP} kept"
            )));
        }
        let mut recent: Vec<Recent> = Vec::with_capacity(n);
        for _ in 0..n {
            let start = r.u64()?;
            if recent.iter().any(|x| x.start == start) {
                return Err(SnapError::Corrupt(format!(
                    "receiver recency list repeats start {start}"
                )));
            }
            let end = self.end_of(start);
            recent.push(Recent { start, end });
        }
        self.recent = recent;
        self.unacked_segments = r.u32()?;
        self.delack_timer = Snap::take(r)?;
        self.delack_generation = r.u64()?;
        self.ece_pending = r.bool()?;
        self.stats = Snap::take(r)?;
        Ok(())
    }

    /// End of the buffered range starting exactly at `start`, by search.
    /// Only `load_state` and the debug check need it: per-segment paths
    /// read the ring.
    fn end_of(&self, start: u64) -> Option<NonZeroU64> {
        let i = self.ooo.binary_search_by_key(&start, |&(s, _)| s).ok()?;
        NonZeroU64::new(self.ooo[i].1)
    }

    /// Every ring entry says what a lookup of its start would say.
    fn ring_is_current(&self) -> bool {
        self.recent.iter().all(|r| self.end_of(r.start) == r.end)
    }

    /// Buffer `[seq, end)`, coalescing with every range it touches. The
    /// surviving range keeps the lowest start; absorbed successors die.
    fn insert_ooo(&mut self, seq: u64, end: u64) {
        // Index of the first range starting above `seq`. New data mostly
        // lands on or past the last range, so look there before searching.
        let above = match self.ooo.back() {
            Some(&(s, _)) if s > seq => self.ooo.partition_point(|&(s, _)| s <= seq),
            _ => self.ooo.len(),
        };
        // Ranges are segment aligned, so overlaps are exact-duplicate or
        // adjacency cases. Only the predecessor can already hold `seq`.
        let mut start = seq;
        let mut first = above;
        if above > 0 {
            let (ps, pe) = self.ooo[above - 1];
            if pe >= seq {
                if pe >= end {
                    // exact duplicate of buffered data
                    self.touch_range(ps, pe);
                    return;
                }
                start = ps;
                first = above - 1;
            }
        }
        // Merge with successors that touch.
        let mut stop = end;
        let mut last = above;
        while let Some(&(ns, ne)) = self.ooo.get(last) {
            if ns > stop {
                break;
            }
            stop = stop.max(ne);
            self.forget_range(ns);
            last += 1;
        }
        // Ranges `first..last` collapse into `[start, stop)`.
        if first == last {
            self.ooo.insert(first, (start, stop));
        } else {
            self.ooo[first] = (start, stop);
            if last - first > 1 {
                self.ooo.drain(first + 1..last);
            }
        }
        self.touch_range(start, stop);
    }

    /// Put `[start, end)` at the front of the recency ring, sweeping out
    /// its older entry and every dead one: one pass, each survivor moving
    /// down by at most one slot.
    fn touch_range(&mut self, start: u64, end: u64) {
        debug_assert!(end > start);
        let mut carry = Recent {
            start,
            end: NonZeroU64::new(end),
        };
        let mut kept = 0;
        for i in 0..self.recent.len() {
            let r = self.recent[i];
            if r.end.is_some() && r.start != start {
                self.recent[kept] = carry;
                carry = r;
                kept += 1;
            }
        }
        self.recent.truncate(kept);
        if kept < RECENT_CAP {
            self.recent.push(carry);
        }
    }

    /// The range starting at `start` is gone (merged into a neighbour or
    /// drained): flag its ring entry dead. Exactly what the next touch's
    /// lookup would have found — a range comes into being only in
    /// `insert_ooo`, whose touch replaces any entry with its start, so a
    /// dead start never names a live range.
    fn forget_range(&mut self, start: u64) {
        if let Some(r) = self.recent.iter_mut().find(|r| r.start == start) {
            r.end = None;
        }
    }

    /// Advance `rcv_nxt` over any now-contiguous OOO ranges.
    fn drain_contiguous(&mut self) {
        while let Some(&(s, e)) = self.ooo.front() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.pop_front();
            self.forget_range(s);
            if e > self.rcv_nxt {
                self.rcv_nxt = e;
            }
        }
    }

    /// Build SACK blocks: most recently updated ranges first (RFC 2018),
    /// falling back to ascending order for any remaining option space.
    fn sack_blocks(&self) -> SackBlocks {
        let mut blocks = SackBlocks::EMPTY;
        let live = self.recent.iter().filter_map(|r| Some((r.start, r.end?)));
        for (start, end) in live.take(MAX_SACK_BLOCKS) {
            blocks.push(SackBlock {
                start,
                end: end.get(),
            });
        }
        // Ranges that fell off the ring while it was full.
        if blocks.len() < MAX_SACK_BLOCKS && blocks.len() < self.ooo.len() {
            for &(start, end) in &self.ooo {
                if blocks.len() == MAX_SACK_BLOCKS {
                    break;
                }
                if !blocks.as_slice().iter().any(|b| b.start == start) {
                    blocks.push(SackBlock { start, end });
                }
            }
        }
        blocks
    }

    fn send_ack(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>) {
        let sack = self.sack_blocks();
        let dup = !sack.is_empty();
        let mut ack = Packet::ack(self.flow, self.sender, self.rcv_nxt, sack, now);
        if self.ece_pending {
            ack.set_ece();
            self.stats.ece_acks_sent += 1;
        }
        let first_hop = self.ack_first_hop.unwrap_or(self.sender);
        ctx.schedule_in(self.ack_delay, first_hop, Msg::Packet(ack));
        self.stats.acks_sent += 1;
        if dup {
            self.stats.sack_acks_sent += 1;
        }
        self.unacked_segments = 0;
        // Cancel any pending delayed-ACK timer outright; the generation
        // bump guards the same-nanosecond batch race (see `on_event`).
        ctx.cancel(self.delack_timer);
        self.delack_timer = CancelToken::default();
        self.delack_generation += 1;
    }

    fn arm_delack(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !ctx.is_pending(self.delack_timer) {
            self.delack_timer = ctx.schedule_self_cancellable(
                DELACK_TIMEOUT,
                Msg::Timer(TimerToken::pack(TIMER_DELACK, self.delack_generation)),
            );
        }
    }

    fn on_data(&mut self, now: SimTime, p: Packet, ctx: &mut Ctx<'_, Msg>) {
        self.stats.data_pkts_received += 1;
        self.stats.bytes_received += p.payload_len();
        if p.retransmit {
            self.stats.retransmits_received += 1;
        }
        // RFC 3168 echo: CWR on incoming data acknowledges the previous
        // echo; a CE mark (re-)arms it. CWR is processed first so a packet
        // carrying both (CE applied after the sender set CWR) still starts
        // a fresh echo episode.
        if p.has_cwr() {
            self.ece_pending = false;
        }
        if p.is_ce() {
            self.stats.ce_pkts_received += 1;
            self.ece_pending = true;
        }

        let (seq, end_seq) = (p.seq(), p.end_seq());
        if end_seq <= self.rcv_nxt {
            // Entirely duplicate (spurious retransmission): ACK immediately
            // so the sender can clean up.
            self.stats.duplicate_pkts += 1;
            self.send_ack(now, ctx);
            return;
        }

        if seq == self.rcv_nxt {
            // In-order arrival.
            self.rcv_nxt = end_seq;
            let had_gap = !self.ooo.is_empty();
            self.drain_contiguous();
            if had_gap {
                // Filled (part of) a gap: ACK immediately (RFC 5681).
                self.send_ack(now, ctx);
                return;
            }
            self.unacked_segments += 1;
            if self.unacked_segments >= self.delack_segments || p.payload_len() < self.mss as u64 {
                self.send_ack(now, ctx);
            } else {
                self.arm_delack(ctx);
            }
        } else {
            // Out of order: buffer and emit an immediate duplicate ACK
            // carrying SACK information.
            debug_assert!(seq > self.rcv_nxt);
            self.stats.ooo_pkts += 1;
            self.insert_ooo(seq, end_seq);
            self.send_ack(now, ctx);
        }
    }
}

impl Component<Msg> for Receiver {
    fn on_event(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Packet(p) => {
                debug_assert!(p.is_data(), "receiver got a non-data packet");
                self.on_data(now, p, ctx);
                debug_assert!(self.ring_is_current());
            }
            Msg::Timer(t) => {
                debug_assert_eq!(t.kind(), TIMER_DELACK);
                if t.generation() == self.delack_generation {
                    self.delack_timer = CancelToken::default();
                    if self.unacked_segments > 0 {
                        self.send_ack(now, ctx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_sim::Simulator;

    const MSS: u32 = 1000;

    /// Captures ACKs with their arrival time.
    struct AckSink {
        acks: Vec<(SimTime, Packet)>,
    }

    impl Component<Msg> for AckSink {
        fn on_event(&mut self, now: SimTime, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Packet(p) = msg {
                self.acks.push((now, p));
            }
        }
    }

    fn setup(ack_delay_ms: u64) -> (Simulator<Msg>, ComponentId, ComponentId) {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(AckSink { acks: vec![] });
        let rx = sim.add_component(Receiver::new(
            FlowId(0),
            sink,
            SimDuration::from_millis(ack_delay_ms),
            MSS,
        ));
        (sim, sink, rx)
    }

    fn data(seq: u64, end: u64) -> Packet {
        Packet::data(
            FlowId(0),
            ComponentId::from_raw(99),
            seq,
            end,
            SimTime::ZERO,
        )
    }

    #[test]
    fn delayed_ack_covers_two_segments() {
        let (mut sim, sink, rx) = setup(0);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(0, 1000)));
        sim.schedule(SimTime::from_micros(10), rx, Msg::Packet(data(1000, 2000)));
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        assert_eq!(acks.len(), 1, "one ACK for two segments");
        assert_eq!(acks[0].1.ack_seq(), 2000);
        assert!(acks[0].1.sack().is_empty());
    }

    #[test]
    fn raised_delack_stride_decimates_acks() {
        // delack_segments = 4: a burst of 8 in-order full segments is
        // acknowledged by exactly 2 cumulative ACKs instead of 4.
        let (mut sim, sink, rx) = setup(0);
        sim.component_mut::<Receiver>(rx).set_delack_segments(4);
        for i in 0..8u64 {
            sim.schedule(
                SimTime::from_micros(i),
                rx,
                Msg::Packet(data(i * 1000, (i + 1) * 1000)),
            );
        }
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        assert_eq!(acks.len(), 2, "8 segments / stride 4");
        assert_eq!(acks[0].1.ack_seq(), 4000);
        assert_eq!(acks[1].1.ack_seq(), 8000);
        // A straggler below the stride still falls back to the 40 ms
        // delayed-ACK timer, so nothing is acknowledged late or never.
        sim.schedule(sim.now(), rx, Msg::Packet(data(8000, 9000)));
        let resume = sim.now();
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        assert_eq!(acks.len(), 3);
        assert_eq!(acks[2].1.ack_seq(), 9000);
        assert_eq!(acks[2].0, resume + DELACK_TIMEOUT);
    }

    #[test]
    fn zero_delack_stride_clamps_to_every_segment() {
        let (mut sim, sink, rx) = setup(0);
        sim.component_mut::<Receiver>(rx).set_delack_segments(0);
        for i in 0..3u64 {
            sim.schedule(
                SimTime::from_micros(i),
                rx,
                Msg::Packet(data(i * 1000, (i + 1) * 1000)),
            );
        }
        sim.run();
        assert_eq!(sim.component::<AckSink>(sink).acks.len(), 3);
    }

    #[test]
    fn lone_segment_acked_after_delack_timeout() {
        let (mut sim, sink, rx) = setup(0);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(0, 1000)));
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].0, SimTime::from_millis(40));
        assert_eq!(acks[0].1.ack_seq(), 1000);
    }

    #[test]
    fn out_of_order_triggers_immediate_sack() {
        let (mut sim, sink, rx) = setup(0);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(0, 1000)));
        sim.schedule(SimTime::from_micros(1), rx, Msg::Packet(data(2000, 3000)));
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        // The OOO arrival forces an immediate dup-ACK (t≈0), then the
        // delayed-ACK machinery has nothing further to ack.
        let dup = acks
            .iter()
            .find(|(_, p)| !p.sack().is_empty())
            .expect("dup ack with sack");
        assert_eq!(dup.1.ack_seq(), 1000);
        assert_eq!(
            dup.1.sack().as_slice(),
            &[SackBlock {
                start: 2000,
                end: 3000
            }]
        );
    }

    #[test]
    fn gap_fill_acks_immediately_and_advances() {
        let (mut sim, sink, rx) = setup(0);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(1000, 2000)));
        sim.schedule(SimTime::from_micros(5), rx, Msg::Packet(data(0, 1000)));
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        // First: dup ack (rcv_nxt=0, SACK 1000-2000). Second: gap fill,
        // immediate full ACK of 2000.
        assert_eq!(acks.len(), 2);
        assert_eq!(acks[0].1.ack_seq(), 0);
        assert_eq!(acks[1].1.ack_seq(), 2000);
        assert!(acks[1].1.sack().is_empty());
        let r = sim.component::<Receiver>(rx);
        assert_eq!(r.delivered_bytes(), 2000);
        assert_eq!(r.ooo_ranges(), 0);
    }

    #[test]
    fn most_recent_ooo_range_leads_sack_blocks() {
        let (mut sim, sink, rx) = setup(0);
        // Three disjoint OOO ranges arriving in order: 2k, 4k, then 6k.
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(2000, 3000)));
        sim.schedule(SimTime::from_micros(1), rx, Msg::Packet(data(4000, 5000)));
        sim.schedule(SimTime::from_micros(2), rx, Msg::Packet(data(6000, 7000)));
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        let last = &acks.last().unwrap().1;
        let sack = last.sack();
        let blocks = sack.as_slice();
        assert_eq!(blocks.len(), 3);
        // Full recency order: most recently updated first.
        assert_eq!(
            blocks[0],
            SackBlock {
                start: 6000,
                end: 7000
            }
        );
        assert_eq!(
            blocks[1],
            SackBlock {
                start: 4000,
                end: 5000
            }
        );
        assert_eq!(
            blocks[2],
            SackBlock {
                start: 2000,
                end: 3000
            }
        );
    }

    #[test]
    fn duplicate_data_is_acked_immediately() {
        let (mut sim, sink, rx) = setup(0);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(0, 1000)));
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(1000, 2000)));
        sim.schedule(SimTime::from_millis(1), rx, Msg::Packet(data(0, 1000)));
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        assert_eq!(acks.len(), 2);
        assert_eq!(acks[1].1.ack_seq(), 2000);
        assert_eq!(sim.component::<Receiver>(rx).stats().duplicate_pkts, 1);
    }

    #[test]
    fn ack_delay_models_netem_base_rtt() {
        let (mut sim, sink, rx) = setup(20);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(0, 1000)));
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(1000, 2000)));
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].0, SimTime::from_millis(20));
    }

    #[test]
    fn adjacent_ooo_ranges_coalesce() {
        let (mut sim, sink, rx) = setup(0);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(2000, 3000)));
        sim.schedule(SimTime::from_micros(1), rx, Msg::Packet(data(3000, 4000)));
        sim.run();
        let r = sim.component::<Receiver>(rx);
        assert_eq!(r.ooo_ranges(), 1);
        let acks = &sim.component::<AckSink>(sink).acks;
        let last = &acks.last().unwrap().1;
        assert_eq!(
            last.sack().as_slice(),
            &[SackBlock {
                start: 2000,
                end: 4000
            }]
        );
    }

    #[test]
    fn sub_mss_segment_acked_immediately() {
        let (mut sim, sink, rx) = setup(0);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(0, 100)));
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].0, SimTime::ZERO);
    }

    #[test]
    fn ce_arrival_echoes_ece_until_cwr() {
        let (mut sim, sink, rx) = setup(0);
        let mut ce = data(0, 1000);
        ce.mark_ce();
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(ce));
        sim.schedule(SimTime::from_micros(1), rx, Msg::Packet(data(1000, 2000)));
        // Sender responds with CWR on its next data; the echo must stop.
        let mut cwr = data(2000, 3000);
        cwr.set_cwr();
        sim.schedule(SimTime::from_millis(1), rx, Msg::Packet(cwr));
        sim.schedule(
            SimTime::from_millis(1) + SimDuration::from_micros(1),
            rx,
            Msg::Packet(data(3000, 4000)),
        );
        sim.run();
        let acks = &sim.component::<AckSink>(sink).acks;
        assert_eq!(acks.len(), 2);
        assert!(acks[0].1.has_ece(), "first ACK must echo the CE mark");
        assert!(!acks[1].1.has_ece(), "CWR must stop the echo");
        let s = sim.component::<Receiver>(rx).stats();
        assert_eq!(s.ce_pkts_received, 1);
        assert_eq!(s.ece_acks_sent, 1);
    }

    #[test]
    fn ack_first_hop_reroutes_acks_keeping_sender_as_dst() {
        let mut sim = Simulator::new(0);
        let sender_sink = sim.add_component(AckSink { acks: vec![] });
        let hop_sink = sim.add_component(AckSink { acks: vec![] });
        let rx = sim.add_component(Receiver::new(
            FlowId(0),
            sender_sink,
            SimDuration::ZERO,
            MSS,
        ));
        sim.component_mut::<Receiver>(rx)
            .set_ack_first_hop(hop_sink);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(0, 100)));
        sim.run();
        assert!(sim.component::<AckSink>(sender_sink).acks.is_empty());
        let hop_acks = &sim.component::<AckSink>(hop_sink).acks;
        assert_eq!(hop_acks.len(), 1);
        // dst still names the sender so the last hop can ToPacketDst it.
        assert_eq!(hop_acks[0].1.dst, sender_sink);
    }

    /// A receiver holding `holes` one-segment holes (every other segment
    /// above the first arrived), so the ring is full past 16.
    fn with_holes(holes: u64) -> Receiver {
        let (mut sim, _sink, rx) = setup(0);
        for k in 0..=holes {
            sim.schedule(
                SimTime::from_micros(k),
                rx,
                Msg::Packet(data(2 * k * 1000, (2 * k + 1) * 1000)),
            );
        }
        sim.run();
        load(&saved(sim.component::<Receiver>(rx))).expect("own snapshot loads")
    }

    fn load(bytes: &[u8]) -> Result<Receiver, SnapError> {
        let mut rx = Receiver::new(FlowId(0), ComponentId::from_raw(0), SimDuration::ZERO, MSS);
        let mut r = SnapReader::new(bytes);
        rx.load_state(&mut r)?;
        Ok(rx)
    }

    fn saved(rx: &Receiver) -> Vec<u8> {
        let mut w = SnapWriter::new();
        rx.save_state(&mut w);
        w.as_bytes().to_vec()
    }

    /// Everything the per-segment paths take for granted.
    fn assert_whole(rx: &Receiver) {
        let mut prev_end = rx.rcv_nxt;
        for &(s, e) in &rx.ooo {
            assert!(s > prev_end && e > s, "range [{s}, {e}) after {prev_end}");
            prev_end = e;
        }
        assert!(rx.recent.len() <= RECENT_CAP);
        for (i, r) in rx.recent.iter().enumerate() {
            assert!(rx.recent[..i].iter().all(|x| x.start != r.start));
        }
        assert!(rx.ring_is_current());
    }

    #[test]
    fn ring_and_deque_stay_off_the_heap_until_data_arrives_out_of_order() {
        let (mut sim, _sink, rx) = setup(0);
        for i in 0..10u64 {
            sim.schedule(
                SimTime::from_micros(i),
                rx,
                Msg::Packet(data(i * 1000, (i + 1) * 1000)),
            );
        }
        sim.run();
        let r = sim.component::<Receiver>(rx);
        assert_eq!((r.ooo.capacity(), r.recent.capacity()), (0, 0));
        assert_eq!(r.memory_bytes(), std::mem::size_of::<Receiver>() as u64);
        // 216 B before the deque (a `VecDeque` header is 8 B wider than a
        // `BTreeMap`'s, a `Vec` 8 B narrower than a `VecDeque`): 100 k of
        // these sit in `mega100k_batched`'s component arena.
        assert!(std::mem::size_of::<Receiver>() <= 216 + 16);
    }

    #[test]
    fn memory_accounting_covers_the_ranges_and_the_ring() {
        let rx = with_holes(20);
        assert_eq!(rx.ooo_ranges(), 20);
        let floor = std::mem::size_of::<Receiver>() + (20 + rx.recent.len()) * 16;
        assert!(rx.memory_bytes() >= floor as u64, "{} B", rx.memory_bytes());
    }

    #[test]
    fn load_state_refuses_what_no_receiver_writes() {
        let rx = with_holes(20);
        assert_whole(&rx);
        assert_eq!((rx.ooo.len(), rx.recent.len()), (20, RECENT_CAP));
        let good = saved(&rx);
        // Layout: rcv_nxt, n, n x (start, end), m, m x start, ...
        let range_at = |i: usize| 16 + 16 * i;
        let recent_at = |i: usize| 16 + 16 * 20 + 8 + 8 * i;
        let put = |at: usize, v: u64| {
            let mut bytes = good.clone();
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            bytes
        };
        let corrupt = |bytes: Vec<u8>, what: &str| match load(&bytes) {
            Err(SnapError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: {e:?}"),
            Ok(_) => panic!("{what}: loaded"),
        };
        // First range starting at rcv_nxt (1000) and below it.
        corrupt(put(range_at(0), 1000), "range at rcv_nxt");
        corrupt(put(range_at(0), 0), "range below rcv_nxt");
        // Second range starting where the first ends (3000): adjacent.
        corrupt(put(range_at(1), 3000), "adjacent ranges");
        corrupt(put(range_at(1), 2500), "overlapping ranges");
        // Recency list: a repeated start, live or dead, and a 17th entry.
        let first = u64::from_le_bytes(good[recent_at(0)..][..8].try_into().unwrap());
        corrupt(put(recent_at(5), first), "repeated live start");
        let mut twice = put(recent_at(1), 7);
        twice[recent_at(9)..][..8].copy_from_slice(&7u64.to_le_bytes());
        corrupt(twice, "repeated dead start");
        corrupt(put(recent_at(0) - 8, 17), "17 recent starts");
        // A dead start on its own is what a merge or a drain leaves behind.
        let dead = load(&put(recent_at(1), 7)).expect("a dead start loads");
        assert_whole(&dead);
        assert!(dead.recent[1].end.is_none());
    }

    #[test]
    fn one_corrupt_byte_is_an_error_or_a_whole_receiver() {
        let good = saved(&with_holes(20));
        for at in 0..good.len() {
            for flip in [0x01u8, 0x10, 0x80, 0xff] {
                let mut bytes = good.clone();
                bytes[at] ^= flip;
                if let Ok(rx) = load(&bytes) {
                    assert_whole(&rx);
                    assert_eq!(saved(&rx), bytes, "byte {at} ^ {flip:#x}");
                }
            }
        }
    }

    #[test]
    fn stats_track_arrivals() {
        let (mut sim, _sink, rx) = setup(0);
        sim.schedule(SimTime::ZERO, rx, Msg::Packet(data(0, 1000)));
        sim.schedule(SimTime::from_micros(1), rx, Msg::Packet(data(2000, 3000)));
        sim.run();
        let s = sim.component::<Receiver>(rx).stats();
        assert_eq!(s.data_pkts_received, 2);
        assert_eq!(s.bytes_received, 2000);
        assert_eq!(s.ooo_pkts, 1);
    }
}
