//! The packet store behind every AQM discipline.
//!
//! A [`PacketQueue`] is a FIFO of packets held as 40-byte slots: a data
//! segment fills one (its two header words, `sent_at`, `seq` and
//! `end_seq`), an ACK two (the second holds the rest of its SACK words).
//! A queued data segment never uses the `ack_seq` and SACK words that make
//! a [`Packet`] 80 bytes, so the CoreScale bottleneck's 250 MB buffer —
//! 262 144 ring slots once grown — costs half the memory it would as
//! `Packet`s. See DESIGN.md §7 item 12 for why the slot is not 32 bytes.
//!
//! The queue also owns what every discipline kept beside its ring: the
//! packet count, the queued bytes, the memory account and the checkpoint
//! encoding. A discipline that needs a per-packet stamp (CoDel's enqueue
//! time) names its type as `S`, and every slot carries one: one ring of
//! 48-byte entries for CoDel, so a packet is one push and one pop, and
//! the default `()` keeps the entry at 40 bytes.

use crate::packet::{Packet, Slot};
use ccsim_sim::{SimTime, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

// The slot is the unit the ring grows by; see the module docs.
const _: () = assert!(std::mem::size_of::<Slot>() == 40);
const _: () = assert!(std::mem::size_of::<(Slot, ())>() == 40);
const _: () = assert!(std::mem::size_of::<(Slot, SimTime)>() == 48);

/// A FIFO of packets, each with a stamp of type `S`, stored as 40-byte
/// slots (see the module docs).
pub struct PacketQueue<S = ()> {
    /// One slot per data segment, two per ACK, front to back, each beside
    /// its packet's stamp (an ACK's second slot repeats it).
    slots: VecDeque<(Slot, S)>,
    /// Packets queued.
    len: usize,
    /// Sum of the queued packets' `wire_bytes`.
    bytes: u64,
}

impl<S: Copy> PacketQueue<S> {
    /// An empty queue; nothing is allocated until the first push.
    pub fn new() -> Self {
        PacketQueue {
            slots: VecDeque::new(),
            len: 0,
            bytes: 0,
        }
    }

    /// Append `p` at the back with its stamp.
    #[inline]
    pub fn push_stamped(&mut self, stamp: S, p: Packet) {
        self.bytes += u64::from(p.wire_bytes);
        self.len += 1;
        let (head, tail) = p.to_slots();
        self.slots.push_back((head, stamp));
        if let Some(tail) = tail {
            self.slots.push_back((tail, stamp));
        }
    }

    /// Remove the front packet and its stamp.
    #[inline]
    pub fn pop_stamped(&mut self) -> Option<(S, Packet)> {
        let (head, stamp) = self.slots.pop_front()?;
        let slots = &mut self.slots;
        let p = Packet::from_slots(head, || slots.pop_front().expect("an ACK's second slot").0);
        self.len -= 1;
        self.bytes -= u64::from(p.wire_bytes);
        Some((stamp, p))
    }

    /// Packets queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no packet is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of the queued packets' wire sizes.
    #[inline]
    pub fn queued_bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether `p` fits under a hard byte capacity of `buffer_bytes` on top
    /// of what is queued (the drop-tail admission rule every discipline
    /// enforces).
    #[inline]
    pub fn fits(&self, p: &Packet, buffer_bytes: u64) -> bool {
        self.bytes + u64::from(p.wire_bytes) <= buffer_bytes
    }

    /// Heap bytes the queue holds: slot capacity, not occupancy.
    pub fn memory_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<(Slot, S)>()) as u64
    }
}

impl PacketQueue {
    /// Append `p` at the back.
    #[inline]
    pub fn push(&mut self, p: Packet) {
        self.push_stamped((), p);
    }

    /// Remove the front packet.
    #[inline]
    pub fn pop(&mut self) -> Option<Packet> {
        self.pop_stamped().map(|((), p)| p)
    }
}

/// The bytes a `VecDeque<(S, Packet)>` and a separate byte counter wrote
/// (a `VecDeque<Packet>` when `S` is `()`): the packet count, each stamp
/// and packet front to back, then the queued bytes. A byte total that
/// differs from the packets' sum was never written, so it is corrupt.
impl<S: Snap + Copy> Snap for PacketQueue<S> {
    fn put(&self, w: &mut SnapWriter) {
        w.usize(self.len);
        let mut slots = self.slots.iter();
        while let Some(&(head, stamp)) = slots.next() {
            let p = Packet::from_slots(head, || slots.next().expect("an ACK's second slot").0);
            stamp.put(w);
            p.put(w);
        }
        w.u64(self.bytes);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        // Each packet takes more than one byte, so a count past the
        // remaining bytes is truncated (and allocates nothing).
        if n > r.remaining() {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: r.remaining(),
            });
        }
        let mut q = PacketQueue::new();
        for _ in 0..n {
            let stamp = S::take(r)?;
            q.push_stamped(stamp, Packet::take(r)?);
        }
        let bytes = r.u64()?;
        if bytes != q.bytes {
            return Err(SnapError::Corrupt(format!(
                "queue of {n} packets totalling {} bytes claims {bytes}",
                q.bytes
            )));
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, SackBlock, SackBlocks, ECN_CE, ECN_CWR, ECN_ECE, ECN_ECT};
    use ccsim_sim::{ComponentId, SimTime};
    use proptest::prelude::*;

    /// A generated packet: `kind` 0 is data, 1–4 an ACK with `kind - 1`
    /// SACK blocks; `flags` holds the ECN bits (low four) and the
    /// retransmit flag (bit 4).
    type Gen = (u8, (u32, u32), u64, u64, u8, u32);

    fn packet((kind, (flow, dst), seq, sent_at, flags, wire): Gen) -> Packet {
        let (flow, dst) = (FlowId(flow), ComponentId::from_raw(dst as usize));
        let now = SimTime::from_nanos(sent_at);
        let mut p = if kind == 0 {
            let seq = seq.min(u64::MAX - 1448);
            Packet::data(flow, dst, seq, seq + 1 + seq % 1448, now)
        } else {
            let mut sack = SackBlocks::EMPTY;
            for i in 0..u64::from(kind - 1) {
                let start = seq.wrapping_add(i * 3000) % (u64::MAX - 1448);
                sack.push(SackBlock {
                    start,
                    end: start + 1448,
                });
            }
            Packet::ack(flow, dst, seq, sack, now)
        };
        p.retransmit = flags & 0x10 != 0;
        p.ecn = flags & 0x0f;
        p.wire_bytes = wire;
        p
    }

    /// Any `u32`, `u32::MAX` one time in four.
    fn id() -> impl Strategy<Value = u32> {
        (0u32..=u32::MAX, 0u8..4).prop_map(|(v, edge)| if edge == 0 { u32::MAX } else { v })
    }

    /// Any `u64`, within 4096 of `u64::MAX` one time in four and of 0
    /// another.
    fn word() -> impl Strategy<Value = u64> {
        (0u64..=u64::MAX, 0u8..4).prop_map(|(v, edge)| match edge {
            0 => u64::MAX - v % 4096,
            1 => v % 4096,
            _ => v,
        })
    }

    fn gen() -> impl Strategy<Value = Gen> {
        (
            0u8..5,
            (id(), id()),
            word(),
            word(),
            0u8..32,
            0u32..=u32::MAX,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of pushes and pops of data packets and
        /// ACKs with 0–3 SACK blocks: FIFO order, bit-exact packets, and
        /// the packet, byte and slot counts after every step.
        #[test]
        fn queue_is_a_lossless_fifo(
            ops in prop::collection::vec((0u8..3, gen()), 1..200),
        ) {
            let mut q = PacketQueue::new();
            let mut model = std::collections::VecDeque::new();
            for (i, (roll, g)) in ops.into_iter().enumerate() {
                // One step in three pops.
                if roll == 0 {
                    prop_assert_eq!(q.pop(), model.pop_front(), "step {}", i);
                } else {
                    let p = packet(g);
                    q.push(p);
                    model.push_back(p);
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                let bytes: u64 = model.iter().map(|p| u64::from(p.wire_bytes)).sum();
                prop_assert_eq!(q.queued_bytes(), bytes);
                let slots: usize = model.iter().map(|p| if p.is_data() { 1 } else { 2 }).sum();
                prop_assert_eq!(q.slots.len(), slots);
            }
            while let Some(p) = model.pop_front() {
                prop_assert_eq!(q.pop(), Some(p));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!((q.len(), q.queued_bytes(), q.slots.len()), (0, 0, 0));
        }

        /// Stamps travel with their packets through random interleavings
        /// of pushes and pops of data packets and ACKs, every slot of an
        /// ACK carries its stamp, and the checkpoint encoding writes the
        /// old `VecDeque<(SimTime, Packet)>` bytes and round-trips.
        #[test]
        fn stamped_queue_round_trips(
            ops in prop::collection::vec((0u8..4, word(), gen()), 0..96),
        ) {
            let mut q = PacketQueue::new();
            let mut model = std::collections::VecDeque::new();
            for (i, &(roll, at, g)) in ops.iter().enumerate() {
                // One step in four pops.
                if roll == 0 {
                    prop_assert_eq!(q.pop_stamped(), model.pop_front(), "step {}", i);
                } else {
                    let want = (SimTime::from_nanos(at), packet(g));
                    q.push_stamped(want.0, want.1);
                    model.push_back(want);
                }
                let slots: usize = model.iter().map(|(_, p)| if p.is_data() { 1 } else { 2 }).sum();
                prop_assert_eq!((q.len(), q.slots.len()), (model.len(), slots));
            }
            let mut stamps = q.slots.iter().map(|&(_, stamp)| stamp);
            for &(at, p) in &model {
                let copies = if p.is_data() { 1 } else { 2 };
                for _ in 0..copies {
                    prop_assert_eq!(stamps.next(), Some(at));
                }
            }
            prop_assert_eq!(q.memory_bytes() % 48, 0);

            let mut w = SnapWriter::new();
            q.put(&mut w);
            let bytes = w.into_bytes();
            let mut old = SnapWriter::new();
            old.usize(model.len());
            for (at, p) in &model {
                at.put(&mut old);
                p.put(&mut old);
            }
            let total: u64 = model.iter().map(|(_, p)| u64::from(p.wire_bytes)).sum();
            old.u64(total);
            prop_assert_eq!(&bytes[..], old.as_bytes());

            let mut r = SnapReader::new(&bytes);
            let mut back = PacketQueue::<SimTime>::take(&mut r).unwrap();
            prop_assert!(r.is_exhausted());
            prop_assert_eq!(back.queued_bytes(), q.queued_bytes());
            for &want in &model {
                prop_assert_eq!(q.pop_stamped(), Some(want));
                prop_assert_eq!(back.pop_stamped(), Some(want));
            }
            prop_assert!(q.is_empty() && back.is_empty());
        }
    }

    #[test]
    fn every_flag_and_edge_survives_a_slot() {
        let top = u64::MAX;
        let mut cases = Vec::new();
        for ecn in 0..=u8::MAX {
            for retransmit in [false, true] {
                let mut d = Packet::data(
                    FlowId(u32::MAX),
                    ComponentId::from_raw(u32::MAX as usize),
                    top - 1448,
                    top,
                    SimTime::from_nanos(top),
                );
                d.retransmit = retransmit;
                d.ecn = ecn;
                cases.push(d);
                let mut sack = SackBlocks::EMPTY;
                sack.push(SackBlock {
                    start: top - 3,
                    end: top,
                });
                let mut a = Packet::ack(
                    FlowId(0),
                    ComponentId::from_raw(0),
                    top,
                    sack,
                    SimTime::ZERO,
                );
                a.retransmit = retransmit;
                a.ecn = ecn;
                a.wire_bytes = u32::MAX;
                cases.push(a);
            }
        }
        for bits in [ECN_ECT, ECN_CE, ECN_ECE, ECN_CWR] {
            assert!(cases.iter().any(|p| p.ecn == bits));
        }
        let mut q = PacketQueue::new();
        for &p in &cases {
            q.push(p);
        }
        assert_eq!(q.slots.len(), cases.len() / 2 * 3);
        for &p in &cases {
            assert_eq!(q.pop(), Some(p));
        }
    }

    #[test]
    fn a_data_packet_costs_one_slot_and_an_ack_two() {
        let dst = ComponentId::from_raw(1);
        let mut q = PacketQueue::new();
        q.push(Packet::data(FlowId(1), dst, 0, 1448, SimTime::ZERO));
        assert_eq!((q.len(), q.slots.len(), q.queued_bytes()), (1, 1, 1500));
        q.push(Packet::ack(
            FlowId(1),
            dst,
            1448,
            SackBlocks::EMPTY,
            SimTime::ZERO,
        ));
        assert_eq!((q.len(), q.slots.len(), q.queued_bytes()), (2, 3, 1564));
        assert!(q.fits(&Packet::data(FlowId(1), dst, 0, 1448, SimTime::ZERO), 3064));
        assert!(!q.fits(&Packet::data(FlowId(1), dst, 0, 1448, SimTime::ZERO), 3063));
        assert_eq!(q.memory_bytes() % 40, 0);
        assert!(q.memory_bytes() >= 3 * 40);
    }

    #[test]
    fn a_wrong_byte_total_or_a_short_buffer_is_refused() {
        let dst = ComponentId::from_raw(1);
        let mut q = PacketQueue::new();
        q.push(Packet::data(FlowId(1), dst, 0, 1448, SimTime::ZERO));
        let mut w = SnapWriter::new();
        q.put(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                matches!(
                    PacketQueue::<()>::take(&mut r),
                    Err(SnapError::Truncated { .. })
                ),
                "cut {cut}"
            );
        }
        let mut doctored = bytes.clone();
        let n = doctored.len();
        doctored[n - 8] ^= 1;
        let mut r = SnapReader::new(&doctored);
        assert!(matches!(
            PacketQueue::<()>::take(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }
}
