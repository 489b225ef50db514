//! The receiver's deque + recency-ring reassembly against the `BTreeMap` +
//! `retain`-with-lookups logic it replaced, which lives on verbatim as the
//! oracle in `support/receiver_oracle.rs`.
//!
//! Both receivers sit in their own miniature `Simulator` beside a sink that
//! records every ACK. A generated stream of MSS-aligned segments — in-order
//! runs, skipped segments (new holes), fills from the bottom, the middle and
//! the top of the hole list (gap fills, extensions, bridges), exact
//! duplicates of delivered and of buffered data, CE and CWR bits, pauses
//! long enough for the delayed-ACK timer — goes to both, optionally on top
//! of a few hundred pre-made holes. After every segment the two must agree
//! on every ACK emitted (arrival time, `ack_seq`, SACK blocks *in order*,
//! ECE), on `rcv_nxt`, `ooo_ranges()`, `ReceiverStats`, and on their
//! `save_state` bytes, which carry the recency list verbatim — so a ring
//! entry flagged dead too early, too late or not at all shows as a byte
//! difference at the segment that caused it, not only once it reaches an
//! ACK. Now and then the new receiver is replaced by one restored from the
//! *oracle's* bytes, so `load_state`'s recomputed `end`/`alive` are held to
//! the same standard.
//!
//! The vendored proptest reads no regression files and does not shrink:
//! a failure found here becomes an explicit `#[test]` below.
//!
//! Mutation checks (each applied to `crates/tcp/src/receiver.rs`, run, and
//! reverted; "cases" are `receiver_matches_btreemap_oracle` cases):
//!
//! * no dead-flag on merge (`insert_ooo` skips `forget_range(ns)`): fails
//!   in case 0 and in `a_bridged_hole_leaves_the_ring_at_once` — the
//!   absorbed range's start survives the next touch, so the recency list
//!   in the snapshot is one entry longer than the oracle's, and its stale
//!   block is SACKed ahead of live ones.
//! * no dead-flag on drain (`drain_contiguous` skips `forget_range(s)`):
//!   fails in case 0 and in `a_drained_range_is_never_sacked_again` — an
//!   ACK carries a block at or below its own `ack_seq`.
//! * stale `end` in the ring (`touch_range` keeps the entry's old `end`
//!   when the start is already present): fails in case 0 and in
//!   `an_extended_range_reports_its_new_end` — the ACK's block stops short
//!   of the bytes just buffered. Snapshots are equal here (they do not
//!   carry `end`); the ACK comparison is what catches it.

use ccsim::net::msg::Msg;
use ccsim::net::packet::{FlowId, Packet, SackBlock};
use ccsim::sim::{
    Component, ComponentId, Ctx, SimDuration, SimTime, Simulator, SnapReader, SnapWriter,
};
use ccsim::tcp::Receiver;
use proptest::prelude::*;

#[path = "support/receiver_oracle.rs"]
mod oracle;

const MSS: u64 = 1000;
const ACK_DELAY: SimDuration = SimDuration::from_micros(300);

/// Records every ACK with its arrival time.
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

/// What both receiver types offer the harness.
trait Rx: Component<Msg> + Sized {
    fn build(sink: ComponentId) -> Self;
    fn snapshot(&self) -> Vec<u8>;
    /// `(rcv_nxt, ooo_ranges, stats)`.
    fn summary(&self) -> (u64, usize, String);
}

macro_rules! impl_rx {
    ($t:ty) => {
        impl Rx for $t {
            fn build(sink: ComponentId) -> Self {
                <$t>::new(FlowId(0), sink, ACK_DELAY, MSS as u32)
            }
            fn snapshot(&self) -> Vec<u8> {
                let mut w = SnapWriter::new();
                self.save_state(&mut w);
                w.as_bytes().to_vec()
            }
            fn summary(&self) -> (u64, usize, String) {
                (
                    self.delivered_bytes(),
                    self.ooo_ranges(),
                    format!("{:?}", self.stats()),
                )
            }
        }
    };
}
impl_rx!(Receiver);
impl_rx!(oracle::Receiver);

/// One receiver in its own simulator.
struct Side<R: Rx> {
    sim: Simulator<Msg>,
    sink: ComponentId,
    rx: ComponentId,
    _kind: std::marker::PhantomData<R>,
}

impl<R: Rx> Side<R> {
    fn new() -> Side<R> {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(AckSink { acks: vec![] });
        let rx = sim.add_component(R::build(sink));
        Side {
            sim,
            sink,
            rx,
            _kind: std::marker::PhantomData,
        }
    }

    fn deliver(&mut self, at: SimTime, p: Packet) {
        // Everything due before the segment (delayed-ACK timers, ACKs in
        // flight) first, then the segment alone.
        self.sim.run_until(at);
        self.sim.schedule(at, self.rx, Msg::Packet(p));
        self.sim.run_until(at);
    }

    fn rx(&self) -> &R {
        self.sim.component::<R>(self.rx)
    }

    fn acks(&self) -> &[(SimTime, Packet)] {
        &self.sim.component::<AckSink>(self.sink).acks
    }
}

/// The two receivers and the segment stream's bookkeeping, in MSS units.
struct Pair {
    new: Side<Receiver>,
    old: Side<oracle::Receiver>,
    now: SimTime,
    /// Next never-sent segment.
    next: u64,
    /// Sent-past but undelivered segments, ascending: the holes.
    missing: Vec<u64>,
    acks_checked: usize,
    most_holes: usize,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            new: Side::new(),
            old: Side::new(),
            now: SimTime::ZERO,
            next: 0,
            missing: Vec::new(),
            acks_checked: 0,
            most_holes: 0,
        }
    }

    /// Deliver segment `k` to both sides and compare everything.
    fn segment(&mut self, k: u64, flags: u64) {
        let mut p = Packet::data(
            FlowId(0),
            ComponentId::from_raw(99),
            k * MSS,
            (k + 1) * MSS,
            self.now,
        );
        p.retransmit = flags & 1 != 0;
        if flags & 0b1110 == 0b0010 {
            p.mark_ce();
        }
        if flags & 0b1111_0000 == 0b0001_0000 {
            p.set_cwr();
        }
        self.new.deliver(self.now, p);
        self.old.deliver(self.now, p);
        self.assert_same();
    }

    fn assert_same(&mut self) {
        let (a, b) = (self.new.acks(), self.old.acks());
        assert_eq!(a.len(), b.len(), "ACK count at {:?}", self.now);
        for (x, y) in a[self.acks_checked..].iter().zip(&b[self.acks_checked..]) {
            assert_eq!(
                (x.0, x.1.ack_seq(), x.1.sack().as_slice(), x.1.has_ece()),
                (y.0, y.1.ack_seq(), y.1.sack().as_slice(), y.1.has_ece()),
                "ACK at {:?}",
                self.now
            );
            for blk in x.1.sack().as_slice() {
                assert!(blk.start > x.1.ack_seq() && blk.end > blk.start, "{blk:?}");
            }
        }
        self.acks_checked = a.len();
        assert_eq!(self.new.rx().summary(), self.old.rx().summary());
        assert_eq!(self.new.rx().snapshot(), self.old.rx().snapshot());
        self.most_holes = self.most_holes.max(self.new.rx().ooo_ranges());
    }

    /// Send the next new segment, after skipping `skip` (which become holes).
    fn send_new(&mut self, skip: u64, flags: u64) {
        self.missing.extend(self.next..self.next + skip);
        self.next += skip + 1;
        self.segment(self.next - 1, flags);
    }

    /// Deliver the `i`-th missing segment, if any.
    fn fill(&mut self, i: usize, flags: u64) {
        if !self.missing.is_empty() {
            let k = self.missing.remove(i % self.missing.len());
            self.segment(k, flags | 1);
        }
    }

    /// Deliver again a segment that already arrived.
    fn duplicate(&mut self, r: u64, flags: u64) {
        if self.next > 0 {
            let mut k = r % self.next;
            while self.missing.binary_search(&k).is_ok() {
                k += 1;
            }
            if k < self.next {
                self.segment(k, flags | 1);
            }
        }
    }

    /// Swap the new receiver for one restored from the oracle's snapshot.
    fn hop(&mut self) {
        let bytes = self.old.rx().snapshot();
        let mut restored = Receiver::build(self.new.sink);
        let mut r = SnapReader::new(&bytes);
        restored
            .load_state(&mut r)
            .expect("the oracle's snapshot loads");
        assert!(r.is_exhausted());
        *self.new.sim.component_mut::<Receiver>(self.new.rx) = restored;
        self.assert_same();
    }

    /// Let every timer fire and every ACK land.
    fn settle(&mut self) {
        self.new.sim.run();
        self.old.sim.run();
        self.assert_same();
    }

    /// The last ACK the new receiver sends once everything has settled.
    fn last_ack(&mut self) -> Packet {
        self.settle();
        self.new.acks().last().expect("an ACK was sent").1
    }
}

/// `n` holes: every other segment delivered, bottom-up.
fn with_holes(n: usize) -> Pair {
    let mut p = Pair::new();
    p.send_new(0, 0);
    for _ in 0..n {
        p.now += SimDuration::from_micros(12);
        p.send_new(1, 0);
    }
    p
}

fn drive(p: &mut Pair, ops: &[(u8, u64)]) {
    for &(op, r) in ops {
        // Mostly back to back; sometimes long enough for the delayed ACK.
        p.now += match (r >> 8) % 16 {
            0 => SimDuration::from_millis(45),
            1..=4 => SimDuration::ZERO,
            _ => SimDuration::from_micros(12),
        };
        let flags = r >> 16;
        let pick = (r >> 32) as usize;
        match op {
            0..=3 => p.send_new(0, flags),
            4 | 5 => p.send_new(1 + (r >> 24) % 3, flags),
            // Lowest hole: the retransmission a sender makes first.
            6 | 7 => p.fill(0, flags),
            // Any hole: fills, extensions and bridges in the middle.
            8 | 9 => p.fill(pick, flags),
            // Highest hole.
            10 => p.fill(usize::MAX, flags),
            11 | 12 => p.duplicate(r >> 24, flags),
            _ => p.hop(),
        }
    }
    p.settle();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn receiver_matches_btreemap_oracle(
        holes in 0usize..400,
        ops in prop::collection::vec((0u8..14, 0u64..u64::MAX), 1..500),
    ) {
        // Two cases in three start small, where merges and drains dominate;
        // the rest start with the ring long since full.
        let mut p = with_holes(if holes % 3 == 0 { holes } else { holes % 20 });
        drive(&mut p, &ops);
    }

    /// Only fills and duplicates over a few hundred holes: the state the
    /// `fatflows_mixed_recovery` receivers are in.
    #[test]
    fn deep_recovery_matches_btreemap_oracle(
        extra in 0usize..200,
        ops in prop::collection::vec((6u8..14, 0u64..u64::MAX), 200..700),
    ) {
        let mut p = with_holes(300 + extra);
        prop_assert!(p.most_holes >= 300);
        drive(&mut p, &ops);
    }
}

fn blocks(p: &Packet) -> Vec<(u64, u64)> {
    p.sack()
        .as_slice()
        .iter()
        .map(|&SackBlock { start, end }| (start / MSS, end / MSS))
        .collect()
}

#[test]
fn a_bridged_hole_leaves_the_ring_at_once() {
    // Ranges [2,3) [4,5) [6,7) [8,9); delivering 5 bridges the middle two.
    // The absorbed start (6) must not be reported, nor outlive the touch.
    let mut p = Pair::new();
    p.send_new(2, 0);
    for _ in 0..3 {
        p.send_new(1, 0);
    }
    p.fill(3, 0);
    let ack = p.last_ack();
    assert_eq!(blocks(&ack), [(4, 7), (8, 9), (2, 3)]);
}

#[test]
fn a_drained_range_is_never_sacked_again() {
    // Holes at 0 and 2; filling 0 drains [1,2) under rcv_nxt.
    let mut p = Pair::new();
    p.send_new(1, 0);
    p.send_new(1, 0);
    p.fill(0, 0);
    let ack = p.last_ack();
    assert_eq!(ack.ack_seq(), 2 * MSS);
    assert_eq!(blocks(&ack), [(3, 4)]);
}

#[test]
fn an_extended_range_reports_its_new_end() {
    let mut p = Pair::new();
    p.send_new(1, 0);
    p.send_new(0, 0);
    p.send_new(0, 0);
    let ack = p.last_ack();
    assert_eq!(blocks(&ack), [(1, 4)]);
}

#[test]
fn a_range_past_the_ring_comes_back_on_a_duplicate() {
    // 20 holes: the four oldest ranges have fallen off the 16-entry ring.
    // A duplicate of the oldest puts it back at the front.
    let mut p = with_holes(20);
    p.duplicate(2, 0);
    let ack = p.last_ack();
    assert_eq!(blocks(&ack), [(2, 3), (40, 41), (38, 39)]);
}
