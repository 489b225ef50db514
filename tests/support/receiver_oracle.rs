//! Test-only reference receiver: the `BTreeMap` + `retain`-with-lookups
//! reassembly that `ccsim_tcp::receiver` replaced with a sorted run deque
//! and a recency ring, kept verbatim (imports aside) so
//! `proptest_receiver.rs` can drive the two in lock-step. Every touch here
//! looks each remembered start up in the tree, so "is this range still
//! there" is answered by the map itself — do not "optimise" it.

#![allow(dead_code)]

use ccsim::net::msg::{Msg, TimerToken};
use ccsim::net::packet::{FlowId, Packet, SackBlock, SackBlocks, MAX_SACK_BLOCKS};
use ccsim::sim::{
    CancelToken, Component, ComponentId, Ctx, SimDuration, SimTime, Snap, SnapError, SnapReader,
    SnapWriter,
};
use ccsim::tcp::ReceiverStats;
use std::collections::{BTreeMap, VecDeque};

/// Linux's delayed-ACK timeout floor (`TCP_DELACK_MIN`).
pub const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);

/// ACK every `DELACK_SEGMENTS` full-size segments.
pub const DELACK_SEGMENTS: u32 = 2;

const TIMER_DELACK: u16 = 1;

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
    /// Out-of-order ranges, keyed by start; disjoint and non-adjacent.
    ooo: BTreeMap<u64, u64>,
    /// Range starts in most-recently-updated order (RFC 2018: report the
    /// most recently changed blocks first, rotating older ones through so
    /// the sender eventually learns the full receive state even when it
    /// has far more holes than fit in one SACK option).
    recent_ranges: VecDeque<u64>,
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
            ooo: BTreeMap::new(),
            recent_ranges: VecDeque::new(),
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

    /// The flow this receiver serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Serialize the receiver's mutable state for a checkpoint (`flow`,
    /// `sender`, `ack_delay`, `mss`, and `ack_first_hop` are wiring
    /// configuration). The OOO map iterates in key order, a canonical
    /// encoding; the recency list is genuine state and written verbatim.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.rcv_nxt);
        w.usize(self.ooo.len());
        for (&s, &e) in &self.ooo {
            w.u64(s);
            w.u64(e);
        }
        w.usize(self.recent_ranges.len());
        for &s in &self.recent_ranges {
            w.u64(s);
        }
        w.u32(self.unacked_segments);
        self.delack_timer.put(w);
        w.u64(self.delack_generation);
        w.bool(self.ece_pending);
        self.stats.put(w);
    }

    /// Overlay checkpointed state onto a receiver freshly built from the
    /// same scenario.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rcv_nxt = r.u64()?;
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: r.remaining(),
            });
        }
        let mut ooo = BTreeMap::new();
        let mut prev_end = 0u64;
        for _ in 0..n {
            let s = r.u64()?;
            let e = r.u64()?;
            if e <= s || s < prev_end {
                return Err(SnapError::Corrupt(format!(
                    "receiver OOO range [{s}, {e}) invalid after end {prev_end}"
                )));
            }
            prev_end = e;
            ooo.insert(s, e);
        }
        self.ooo = ooo;
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: r.remaining(),
            });
        }
        let mut recent = VecDeque::with_capacity(n);
        for _ in 0..n {
            recent.push_back(r.u64()?);
        }
        self.recent_ranges = recent;
        self.unacked_segments = r.u32()?;
        self.delack_timer = CancelToken::take(r)?;
        self.delack_generation = r.u64()?;
        self.ece_pending = r.bool()?;
        self.stats = ReceiverStats::take(r)?;
        Ok(())
    }

    fn insert_ooo(&mut self, seq: u64, end: u64) {
        // Find a range this one extends or duplicates. Ranges are segment
        // aligned, so overlaps are exact-duplicate or adjacency cases.
        // Coalesce with predecessor and successor where adjacent.
        let mut start = seq;
        let mut stop = end;
        // Merge with predecessor if it touches.
        if let Some((&ps, &pe)) = self.ooo.range(..=seq).next_back() {
            if pe >= seq {
                if pe >= end {
                    // exact duplicate of buffered data
                    self.touch_range(ps);
                    return;
                }
                start = ps;
                stop = stop.max(pe);
                self.ooo.remove(&ps);
            }
        }
        // Merge with successors that touch.
        while let Some((&ns, &ne)) = self.ooo.range(start..).next() {
            if ns > stop {
                break;
            }
            stop = stop.max(ne);
            self.ooo.remove(&ns);
        }
        self.ooo.insert(start, stop);
        self.touch_range(start);
    }

    /// Move `start` to the front of the recency list, dropping entries for
    /// ranges that no longer exist (merged or drained).
    fn touch_range(&mut self, start: u64) {
        let ooo = &self.ooo;
        self.recent_ranges
            .retain(|s| *s != start && ooo.contains_key(s));
        self.recent_ranges.push_front(start);
        self.recent_ranges.truncate(16);
    }

    /// Advance `rcv_nxt` over any now-contiguous OOO ranges.
    fn drain_contiguous(&mut self) {
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.remove(&s);
            if e > self.rcv_nxt {
                self.rcv_nxt = e;
            }
        }
    }

    /// Build SACK blocks: most recently updated ranges first (RFC 2018),
    /// falling back to ascending order for any remaining option space.
    fn sack_blocks(&self) -> SackBlocks {
        let mut blocks = SackBlocks::EMPTY;
        let mut used = [u64::MAX; MAX_SACK_BLOCKS];
        let mut n = 0;
        for &start in &self.recent_ranges {
            if n >= used.len() {
                break;
            }
            if let Some(&end) = self.ooo.get(&start) {
                if !used[..n].contains(&start) {
                    blocks.push(SackBlock { start, end });
                    used[n] = start;
                    n += 1;
                }
            }
        }
        for (&s, &e) in &self.ooo {
            if n >= used.len() {
                break;
            }
            if !used[..n].contains(&s) {
                blocks.push(SackBlock { start: s, end: e });
                used[n] = s;
                n += 1;
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

        if p.end_seq() <= self.rcv_nxt {
            // Entirely duplicate (spurious retransmission): ACK immediately
            // so the sender can clean up.
            self.stats.duplicate_pkts += 1;
            self.send_ack(now, ctx);
            return;
        }

        if p.seq() == self.rcv_nxt {
            // In-order arrival.
            self.rcv_nxt = p.end_seq();
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
            debug_assert!(p.seq() > self.rcv_nxt);
            self.stats.ooo_pkts += 1;
            self.insert_ooo(p.seq(), p.end_seq());
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
