//! Packet representation.
//!
//! Packets are small `Copy` values: the study never inspects payload bits,
//! only sizes and timing, so a packet is metadata — flow id, sequence range,
//! wire size, ACK state — plus the destination component. Keeping packets
//! `Copy` (no heap payload) is what lets the simulator move tens of millions
//! of them per wall-clock second.
//!
//! Layout rule: fields one kind never uses share storage. A data segment
//! needs `[seq, end_seq)`; an ACK needs `ack_seq` and up to three SACK
//! blocks. Both live in one seven-word body, and the SACK block count sits
//! in the header next to the kind, the retransmit flag and the ECN bits.
//! That keeps a `Packet` at 80 bytes (a link's in-service packet and burst
//! tail), and a `Msg` and an `Option<Msg>` at 88 — the packet plus a
//! word-wide tag — which the event slab and the same-instant lane are
//! sized by. A link's queue stores no `Packet`s: it packs each one into
//! 40-byte slots, one for a data segment and two for an ACK
//! (`PacketQueue`, in the crate's `queue` module). The readers are accessors
//! that return 0 (or no SACK blocks) for the other kind's fields. SACK blocks
//! stay absolute `u64` offsets: offsets from `ack_seq` in `u32` would
//! save 24 more bytes but cap a flow's out-of-order span at 4 GiB, which
//! the `mega` setting's buffer plus BDP exceeds.
//!
//! Sequence numbers are 64-bit byte offsets that never wrap. Real TCP uses a
//! 32-bit wrapping space; wrap handling is irrelevant to every phenomenon the
//! paper measures, and 64 bits cannot wrap within any feasible experiment
//! (2^64 bytes at 10 Gbps is ~460 years).

use crate::msg::Msg;
use ccsim_sim::{snap, ComponentId, SimTime, Snap, SnapError, SnapReader, SnapWriter};
use std::fmt;

/// Identifies one TCP flow (one sender/receiver pair) within an experiment.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The flow index as a `usize`, for indexing per-flow tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// Maximum number of SACK blocks carried per ACK.
///
/// Linux advertises at most 3 when the timestamp option is present (RFC 2018
/// allows 4 without); 3 matches the stacks the paper measured.
pub const MAX_SACK_BLOCKS: usize = 3;

/// A half-open `[start, end)` range of SACKed bytes.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SackBlock {
    /// First byte covered.
    pub start: u64,
    /// One past the last byte covered.
    pub end: u64,
}

impl SackBlock {
    /// Number of bytes covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True iff the block covers no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A fixed-capacity, allocation-free list of SACK blocks.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SackBlocks {
    blocks: [SackBlock; MAX_SACK_BLOCKS],
    len: u8,
}

impl SackBlocks {
    /// The empty list.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [SackBlock { start: 0, end: 0 }; MAX_SACK_BLOCKS],
        len: 0,
    };

    /// Append a block; silently ignored once full (mirrors the wire-format
    /// truncation of real SACK options).
    #[inline]
    pub fn push(&mut self, b: SackBlock) {
        if (self.len as usize) < MAX_SACK_BLOCKS && !b.is_empty() {
            self.blocks[self.len as usize] = b;
            self.len += 1;
        }
    }

    /// The populated blocks.
    #[inline]
    pub fn as_slice(&self) -> &[SackBlock] {
        &self.blocks[..self.len as usize]
    }

    /// Number of populated blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff no blocks are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What a packet is.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// A data segment carrying `[seq, end_seq)`.
    Data,
    /// A (possibly selective) acknowledgment. `ack_seq` is the cumulative
    /// ACK; `sack` lists out-of-order ranges held by the receiver.
    Ack,
}

/// Words in a packet's shared body: an ACK's `ack_seq` plus three SACK
/// blocks of two words each. A data segment uses the first two.
const BODY_WORDS: usize = 1 + 2 * MAX_SACK_BLOCKS;

/// A simulated packet. Read the kind-specific fields through
/// [`seq`](Packet::seq), [`end_seq`](Packet::end_seq),
/// [`ack_seq`](Packet::ack_seq) and [`sack`](Packet::sack); build packets
/// with [`Packet::data`] and [`Packet::ack`].
///
/// `repr(C)` fixes the order: the 16-byte header (`flow`, `dst`,
/// `wire_bytes`, then the four one-byte fields), `sent_at`, the body. The
/// header is then the two words a link-queue slot starts with (see
/// [`Packet::to_slots`]), and `Msg`'s own word-wide tag keeps every field
/// on the alignment it has here (DESIGN.md §7 items 9 and 13).
#[derive(Copy, Clone, PartialEq, Eq)]
#[repr(C)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Final destination endpoint (used by links with
    /// [`NextHop::ToPacketDst`](crate::link::NextHop::ToPacketDst)).
    pub dst: ComponentId,
    /// Total size on the wire, headers included, in bytes.
    pub wire_bytes: u32,
    /// Data segment or ACK.
    kind: PacketKind,
    /// Ack: number of populated SACK blocks in `body`. Data: 0.
    sack_len: u8,
    /// Data: true iff this is a retransmission (diagnostics/telemetry).
    pub retransmit: bool,
    /// ECN bits (RFC 3168): IP-level ECT/CE plus the TCP-level ECE/CWR
    /// echo flags, packed into one byte. Zero = not ECN-capable, the
    /// paper's testbed configuration.
    pub ecn: u8,
    /// When the packet left its origin endpoint (diagnostics; senders keep
    /// their own authoritative per-segment timestamps).
    pub sent_at: SimTime,
    /// Data: `[seq, end_seq, 0, …]`. Ack: `[ack_seq, start0, end0, start1,
    /// end1, start2, end2]`, unpopulated blocks zero.
    body: [u64; BODY_WORDS],
}

/// A data segment's body: `[seq, end_seq)`, the ACK words zero.
#[inline]
const fn data_body(seq: u64, end_seq: u64) -> [u64; BODY_WORDS] {
    let mut body = [0; BODY_WORDS];
    body[0] = seq;
    body[1] = end_seq;
    body
}

/// An ACK's body: `ack_seq`, then every block slot, unpopulated ones zero.
#[inline]
const fn ack_body(ack_seq: u64, sack: &SackBlocks) -> [u64; BODY_WORDS] {
    let [b0, b1, b2] = sack.blocks;
    [
        ack_seq, b0.start, b0.end, b1.start, b1.end, b2.start, b2.end,
    ]
}

// Every place a packet waits stores one of these three; see the module
// docs. A `Msg` is its 8-byte tag and the 80-byte packet, so a move is
// whole aligned 16-byte pieces (DESIGN.md §7 item 13).
const _: () = assert!(std::mem::size_of::<Msg>() == 88);
const _: () = assert!(std::mem::size_of::<Option<Msg>>() == 88);
const _: () = assert!(std::mem::align_of::<Msg>() == 8);
const _: () = assert!(std::mem::size_of::<Packet>() == 80);

/// ECN: ECN-Capable Transport codepoint (data packets of ECN flows).
pub const ECN_ECT: u8 = 0b0001;
/// ECN: Congestion Experienced, set by an AQM in place of a drop.
pub const ECN_CE: u8 = 0b0010;
/// TCP flag: ECN-Echo, set on ACKs until the sender confirms with CWR.
pub const ECN_ECE: u8 = 0b0100;
/// TCP flag: Congestion Window Reduced, set on the first data packet after
/// an ECN-triggered reduction.
pub const ECN_CWR: u8 = 0b1000;

/// Header overhead added to every segment: IPv4 (20) + TCP (20) +
/// options (timestamp 12) = 52 bytes. Ethernet framing is excluded, as in
/// the paper's BESS byte counting.
pub const HEADER_BYTES: u32 = 52;

/// The paper's fixed maximum segment size (payload bytes per segment).
pub const DEFAULT_MSS: u32 = 1448;

impl Packet {
    /// Build a data segment covering `[seq, end_seq)`.
    #[inline]
    pub fn data(flow: FlowId, dst: ComponentId, seq: u64, end_seq: u64, now: SimTime) -> Packet {
        debug_assert!(end_seq > seq, "empty data segment");
        Packet {
            flow,
            dst,
            wire_bytes: (end_seq - seq) as u32 + HEADER_BYTES,
            kind: PacketKind::Data,
            sack_len: 0,
            retransmit: false,
            ecn: 0,
            sent_at: now,
            body: data_body(seq, end_seq),
        }
    }

    /// Build a pure ACK.
    #[inline]
    pub fn ack(
        flow: FlowId,
        dst: ComponentId,
        ack_seq: u64,
        sack: SackBlocks,
        now: SimTime,
    ) -> Packet {
        Packet {
            flow,
            dst,
            wire_bytes: HEADER_BYTES + 12, // SACK option space, approximate
            kind: PacketKind::Ack,
            sack_len: sack.len,
            retransmit: false,
            ecn: 0,
            sent_at: now,
            body: ack_body(ack_seq, &sack),
        }
    }

    /// Data segment or ACK.
    #[inline]
    pub fn kind(&self) -> PacketKind {
        self.kind
    }

    /// Data: first payload byte. Ack: 0.
    #[inline]
    pub fn seq(&self) -> u64 {
        if self.is_data() {
            self.body[0]
        } else {
            0
        }
    }

    /// Data: one past the last payload byte. Ack: 0.
    #[inline]
    pub fn end_seq(&self) -> u64 {
        if self.is_data() {
            self.body[1]
        } else {
            0
        }
    }

    /// Ack: cumulative acknowledgment (next byte expected). Data: 0.
    #[inline]
    pub fn ack_seq(&self) -> u64 {
        if self.is_data() {
            0
        } else {
            self.body[0]
        }
    }

    /// Ack: selective acknowledgment blocks. Data: none.
    #[inline]
    pub fn sack(&self) -> SackBlocks {
        if self.is_data() {
            return SackBlocks::EMPTY;
        }
        let [_, s0, e0, s1, e1, s2, e2] = self.body;
        let block = |start, end| SackBlock { start, end };
        SackBlocks {
            blocks: [block(s0, e0), block(s1, e1), block(s2, e2)],
            len: self.sack_len,
        }
    }

    /// Payload length (0 for ACKs).
    #[inline]
    pub fn payload_len(&self) -> u64 {
        self.end_seq() - self.seq()
    }

    /// True iff this is a data segment.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data)
    }

    // ----- ECN ----------------------------------------------------------

    /// Declare the packet ECN-capable (ECT codepoint).
    #[inline]
    pub fn set_ect(&mut self) {
        self.ecn |= ECN_ECT;
    }

    /// True iff the packet carries the ECT codepoint (an AQM may mark it
    /// instead of dropping it).
    #[inline]
    pub fn is_ect(&self) -> bool {
        self.ecn & ECN_ECT != 0
    }

    /// Set Congestion Experienced (an AQM's mark-instead-of-drop).
    #[inline]
    pub fn mark_ce(&mut self) {
        self.ecn |= ECN_CE;
    }

    /// True iff an AQM marked this packet CE on its path.
    #[inline]
    pub fn is_ce(&self) -> bool {
        self.ecn & ECN_CE != 0
    }

    /// Set ECN-Echo (receiver → sender, on ACKs).
    #[inline]
    pub fn set_ece(&mut self) {
        self.ecn |= ECN_ECE;
    }

    /// True iff the ACK carries ECN-Echo.
    #[inline]
    pub fn has_ece(&self) -> bool {
        self.ecn & ECN_ECE != 0
    }

    /// Set Congestion Window Reduced (sender → receiver, on data).
    #[inline]
    pub fn set_cwr(&mut self) {
        self.ecn |= ECN_CWR;
    }

    /// True iff the data packet carries CWR.
    #[inline]
    pub fn has_cwr(&self) -> bool {
        self.ecn & ECN_CWR != 0
    }
}

// ----- link-queue slots -------------------------------------------------

/// One link-queue slot: five words, 40 bytes.
pub(crate) type Slot = [u64; 5];

impl Packet {
    /// The slots a link queue holds this packet in. The first is
    /// `[header0, header1, sent_at, body0, body1]` — all of a data
    /// segment — and an ACK adds a second holding its last five body
    /// words. `header0` is `flow | dst << 32`; `header1` is `wire_bytes |
    /// kind << 32 | sack_len << 40 | retransmit << 48 | ecn << 56`. Every
    /// field keeps its full width, so [`Packet::from_slots`] gives back
    /// the same packet bit for bit.
    #[inline]
    pub(crate) fn to_slots(self) -> (Slot, Option<Slot>) {
        let [b0, b1, b2, b3, b4, b5, b6] = self.body;
        let head = [
            u64::from(self.flow.0) | (self.dst.as_usize() as u64) << 32,
            u64::from(self.wire_bytes)
                | (self.kind as u64) << 32
                | u64::from(self.sack_len) << 40
                | u64::from(self.retransmit) << 48
                | u64::from(self.ecn) << 56,
            self.sent_at.as_nanos(),
            b0,
            b1,
        ];
        (head, (!self.is_data()).then_some([b2, b3, b4, b5, b6]))
    }

    /// The packet [`Packet::to_slots`] wrote; `tail` yields the second
    /// slot and is called only for an ACK.
    #[inline]
    pub(crate) fn from_slots(head: Slot, tail: impl FnOnce() -> Slot) -> Packet {
        let [h0, h1, sent_at, b0, b1] = head;
        let (kind, body) = if (h1 >> 32) as u8 == PacketKind::Data as u8 {
            (PacketKind::Data, data_body(b0, b1))
        } else {
            let [b2, b3, b4, b5, b6] = tail();
            (PacketKind::Ack, [b0, b1, b2, b3, b4, b5, b6])
        };
        Packet {
            flow: FlowId(h0 as u32),
            dst: ComponentId::from_raw((h0 >> 32) as usize),
            wire_bytes: h1 as u32,
            kind,
            sack_len: (h1 >> 40) as u8,
            retransmit: (h1 >> 48) as u8 != 0,
            ecn: (h1 >> 56) as u8,
            sent_at: SimTime::from_nanos(sent_at),
            body,
        }
    }
}

// ----- checkpoint encoding ---------------------------------------------

impl Snap for FlowId {
    fn put(&self, w: &mut SnapWriter) {
        w.u32(self.0);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FlowId(r.u32()?))
    }
}

snap!(SackBlock { start, end });

/// Canonical: a count byte, then only the populated blocks.
impl Snap for SackBlocks {
    fn put(&self, w: &mut SnapWriter) {
        w.u8(self.len);
        for b in self.as_slice() {
            b.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = usize::from(r.u8()?);
        if n > MAX_SACK_BLOCKS {
            return Err(SnapError::Corrupt(format!("{n} sack blocks")));
        }
        let mut sack = SackBlocks::EMPTY;
        for _ in 0..n {
            sack.push(SackBlock::take(r)?);
        }
        Ok(sack)
    }
}

snap!(PacketKind as "packet kind" [Data, Ack]);

/// Both kinds' fields, in the order the checkpoint codec writes them.
impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("flow", &self.flow)
            .field("kind", &self.kind)
            .field("dst", &self.dst)
            .field("wire_bytes", &self.wire_bytes)
            .field("seq", &self.seq())
            .field("end_seq", &self.end_seq())
            .field("ack_seq", &self.ack_seq())
            .field("sack", &self.sack())
            .field("sent_at", &self.sent_at)
            .field("retransmit", &self.retransmit)
            .field("ecn", &self.ecn)
            .finish()
    }
}

/// Every field of both kinds, in the `SNAP_VERSION` 3 order: flow, kind,
/// dst, wire_bytes, seq, end_seq, ack_seq, sack, sent_at, retransmit,
/// ecn. A packet carrying both data and ACK fields cannot have been
/// written by any build, so it is corrupt.
impl Snap for Packet {
    fn put(&self, w: &mut SnapWriter) {
        self.flow.put(w);
        self.kind.put(w);
        self.dst.put(w);
        w.u32(self.wire_bytes);
        w.u64(self.seq());
        w.u64(self.end_seq());
        w.u64(self.ack_seq());
        self.sack().put(w);
        self.sent_at.put(w);
        w.bool(self.retransmit);
        w.u8(self.ecn);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let flow = FlowId::take(r)?;
        let kind = PacketKind::take(r)?;
        let dst = ComponentId::take(r)?;
        let wire_bytes = r.u32()?;
        let (seq, end_seq, ack_seq) = (r.u64()?, r.u64()?, r.u64()?);
        let sack = SackBlocks::take(r)?;
        let mixed = match kind {
            PacketKind::Data => ack_seq != 0 || !sack.is_empty(),
            PacketKind::Ack => seq != 0 || end_seq != 0,
        };
        if mixed {
            return Err(SnapError::Corrupt(format!(
                "{kind:?} packet with both data and ack fields"
            )));
        }
        let sent_at = SimTime::take(r)?;
        let retransmit = r.bool()?;
        let ecn = r.u8()?;
        let body = match kind {
            PacketKind::Data => data_body(seq, end_seq),
            PacketKind::Ack => ack_body(ack_seq, &sack),
        };
        Ok(Packet {
            flow,
            dst,
            wire_bytes,
            kind,
            sack_len: sack.len,
            retransmit,
            ecn,
            sent_at,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid() -> ComponentId {
        ComponentId::from_raw(9)
    }

    #[test]
    fn data_packet_sizes() {
        let p = Packet::data(FlowId(1), cid(), 0, 1448, SimTime::ZERO);
        assert_eq!(p.payload_len(), 1448);
        assert_eq!(p.wire_bytes, 1500);
        assert!(p.is_data());
    }

    #[test]
    fn ack_packet_shape() {
        let p = Packet::ack(FlowId(1), cid(), 4344, SackBlocks::EMPTY, SimTime::ZERO);
        assert!(!p.is_data());
        assert_eq!(p.payload_len(), 0);
        assert_eq!(p.ack_seq(), 4344);
        assert_eq!((p.seq(), p.end_seq()), (0, 0));
        assert!(p.wire_bytes < 100);
    }

    #[test]
    fn sack_blocks_capacity() {
        let mut s = SackBlocks::EMPTY;
        assert!(s.is_empty());
        for i in 0..5u64 {
            s.push(SackBlock {
                start: i * 1000,
                end: i * 1000 + 500,
            });
        }
        // Only the first MAX_SACK_BLOCKS survive.
        assert_eq!(s.len(), MAX_SACK_BLOCKS);
        assert_eq!(s.as_slice()[0].start, 0);
        assert_eq!(s.as_slice()[2].start, 2000);
    }

    #[test]
    fn sack_blocks_reject_empty_ranges() {
        let mut s = SackBlocks::EMPTY;
        s.push(SackBlock { start: 5, end: 5 });
        s.push(SackBlock { start: 9, end: 4 });
        assert!(s.is_empty());
    }

    #[test]
    fn sack_block_len() {
        let b = SackBlock { start: 10, end: 25 };
        assert_eq!(b.len(), 15);
        assert!(!b.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty data segment")]
    fn empty_data_segment_panics() {
        let _ = Packet::data(FlowId(0), cid(), 10, 10, SimTime::ZERO);
    }

    #[test]
    fn ecn_bits_are_independent() {
        let mut p = Packet::data(FlowId(0), cid(), 0, 100, SimTime::ZERO);
        assert_eq!(p.ecn, 0);
        assert!(!p.is_ect() && !p.is_ce() && !p.has_ece() && !p.has_cwr());
        p.set_ect();
        assert!(p.is_ect() && !p.is_ce());
        p.mark_ce();
        assert!(p.is_ect() && p.is_ce());
        let mut a = Packet::ack(FlowId(0), cid(), 100, SackBlocks::EMPTY, SimTime::ZERO);
        a.set_ece();
        assert!(a.has_ece() && !a.has_cwr());
        let mut d = Packet::data(FlowId(0), cid(), 0, 100, SimTime::ZERO);
        d.set_cwr();
        assert!(d.has_cwr() && !d.has_ece());
    }

    /// A packet as the eleven separate fields it had before data and ACK
    /// fields shared storage.
    #[derive(Clone)]
    struct Fields {
        flow: u32,
        kind: u8,
        dst: u64,
        wire_bytes: u32,
        seq: u64,
        end_seq: u64,
        ack_seq: u64,
        sack: Vec<(u64, u64)>,
        sent_at: u64,
        retransmit: bool,
        ecn: u8,
    }

    impl Fields {
        fn data(seq: u64, end_seq: u64) -> Fields {
            Fields {
                flow: 3,
                kind: 0,
                dst: 9,
                wire_bytes: (end_seq - seq) as u32 + HEADER_BYTES,
                seq,
                end_seq,
                ack_seq: 0,
                sack: vec![],
                sent_at: 1_234_567,
                retransmit: false,
                ecn: 0,
            }
        }

        fn ack(ack_seq: u64, sack: &[(u64, u64)]) -> Fields {
            Fields {
                kind: 1,
                wire_bytes: HEADER_BYTES + 12,
                seq: 0,
                end_seq: 0,
                ack_seq,
                sack: sack.to_vec(),
                ..Fields::data(0, 1)
            }
        }

        /// The reference encoder: each field written on its own, in the
        /// old declaration order.
        fn bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.u32(self.flow);
            w.u8(self.kind);
            w.u64(self.dst);
            w.u32(self.wire_bytes);
            w.u64(self.seq);
            w.u64(self.end_seq);
            w.u64(self.ack_seq);
            w.u8(self.sack.len() as u8);
            for &(start, end) in &self.sack {
                w.u64(start);
                w.u64(end);
            }
            w.u64(self.sent_at);
            w.bool(self.retransmit);
            w.u8(self.ecn);
            w.into_bytes()
        }

        /// The same packet built through the public constructors.
        fn packet(&self) -> Packet {
            let flow = FlowId(self.flow);
            let dst = ComponentId::from_raw(self.dst as usize);
            let now = SimTime::from_nanos(self.sent_at);
            let mut p = if self.kind == 0 {
                Packet::data(flow, dst, self.seq, self.end_seq, now)
            } else {
                let mut sack = SackBlocks::EMPTY;
                for &(start, end) in &self.sack {
                    sack.push(SackBlock { start, end });
                }
                Packet::ack(flow, dst, self.ack_seq, sack, now)
            };
            p.wire_bytes = self.wire_bytes;
            p.retransmit = self.retransmit;
            p.ecn = self.ecn;
            p
        }
    }

    fn take(bytes: &[u8]) -> Result<Packet, SnapError> {
        let mut r = SnapReader::new(bytes);
        let p = Packet::take(&mut r)?;
        assert!(r.is_exhausted());
        Ok(p)
    }

    #[test]
    fn packet_codec_writes_the_separate_field_bytes() {
        const MAX: u64 = u64::MAX;
        let edges = |mut f: Fields| {
            (f.flow, f.dst, f.sent_at) = (u32::MAX, u64::from(u32::MAX), MAX);
            f
        };
        let flagged = |mut f: Fields, ecn: u8| {
            f.retransmit = f.kind == 0;
            f.ecn = ecn;
            f
        };
        let blocks = [(5000, 6448), (8000, 9448), (12_000, 13_448)];
        let top = [(MAX - 3, MAX - 2), (MAX - 1, MAX)];
        let cases = [
            Fields::data(1000, 2448),
            flagged(Fields::data(1000, 2448), ECN_ECT | ECN_CWR),
            edges(Fields::data(MAX - 1448, MAX)),
            Fields::ack(4344, &[]),
            Fields::ack(4344, &blocks[..1]),
            Fields::ack(4344, &blocks[..2]),
            Fields::ack(4344, &blocks),
            flagged(Fields::ack(4344, &[]), ECN_ECE),
            flagged(Fields::ack(4344, &blocks), ECN_ECE | ECN_CE),
            edges(Fields::ack(MAX, &[])),
            edges(Fields::ack(MAX - 4, &top)),
            edges(flagged(
                Fields::ack(0, &[(1, MAX), top[1], (0, 1)]),
                ECN_ECE,
            )),
        ];
        for (i, f) in cases.iter().enumerate() {
            let p = f.packet();
            let mut w = SnapWriter::new();
            p.put(&mut w);
            assert_eq!(w.as_bytes(), f.bytes(), "case {i}: bytes moved");
            assert_eq!(take(&f.bytes()), Ok(p), "case {i}: round trip");
            assert_eq!(p.sack().len(), f.sack.len(), "case {i}");

            // A body carrying the other kind's fields too was never written.
            let mut mixed = Vec::new();
            if f.kind == 0 {
                mixed.push(Fields {
                    ack_seq: 1,
                    ..f.clone()
                });
                mixed.push(Fields {
                    sack: vec![(1, 2)],
                    ..f.clone()
                });
            } else {
                mixed.push(Fields {
                    seq: 1,
                    ..f.clone()
                });
                mixed.push(Fields {
                    end_seq: 1,
                    ..f.clone()
                });
            }
            mixed.push(Fields {
                kind: 2,
                ..f.clone()
            });
            mixed.push(Fields {
                sack: vec![(1, 2); 4],
                ..f.clone()
            });
            mixed.push(Fields {
                dst: u64::from(u32::MAX) + 1,
                ..f.clone()
            });
            for (j, bad) in mixed.iter().enumerate() {
                assert!(
                    matches!(take(&bad.bytes()), Err(SnapError::Corrupt(_))),
                    "case {i}: variant {j} accepted"
                );
            }
        }
    }
}
