//! Packet representation.
//!
//! Packets are small `Copy` values: the study never inspects payload bits,
//! only sizes and timing, so a packet is metadata — flow id, sequence range,
//! wire size, ACK state — plus the destination component. Keeping packets
//! `Copy` (no heap payload) is what lets the simulator move tens of millions
//! of them per wall-clock second.
//!
//! Sequence numbers are 64-bit byte offsets that never wrap. Real TCP uses a
//! 32-bit wrapping space; wrap handling is irrelevant to every phenomenon the
//! paper measures, and 64 bits cannot wrap within any feasible experiment
//! (2^64 bytes at 10 Gbps is ~460 years).

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

/// A simulated packet.
#[derive(Copy, Clone, Debug)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Data segment or ACK.
    pub kind: PacketKind,
    /// Final destination endpoint (used by links with
    /// [`NextHop::ToPacketDst`](crate::link::NextHop::ToPacketDst)).
    pub dst: ComponentId,
    /// Total size on the wire, headers included, in bytes.
    pub wire_bytes: u32,
    /// Data: first payload byte. Ack: unused (0).
    pub seq: u64,
    /// Data: one past the last payload byte. Ack: unused (0).
    pub end_seq: u64,
    /// Ack: cumulative acknowledgment (next byte expected). Data: unused.
    pub ack_seq: u64,
    /// Ack: selective acknowledgment blocks.
    pub sack: SackBlocks,
    /// When the packet left its origin endpoint (diagnostics; senders keep
    /// their own authoritative per-segment timestamps).
    pub sent_at: SimTime,
    /// Data: true iff this is a retransmission (diagnostics/telemetry).
    pub retransmit: bool,
    /// ECN bits (RFC 3168): IP-level ECT/CE plus the TCP-level ECE/CWR
    /// echo flags, packed into one byte. Zero = not ECN-capable, the
    /// paper's testbed configuration.
    pub ecn: u8,
}

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
            kind: PacketKind::Data,
            dst,
            wire_bytes: (end_seq - seq) as u32 + HEADER_BYTES,
            seq,
            end_seq,
            ack_seq: 0,
            sack: SackBlocks::EMPTY,
            sent_at: now,
            retransmit: false,
            ecn: 0,
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
            kind: PacketKind::Ack,
            dst,
            wire_bytes: HEADER_BYTES + 12, // SACK option space, approximate
            seq: 0,
            end_seq: 0,
            ack_seq,
            sack,
            sent_at: now,
            retransmit: false,
            ecn: 0,
        }
    }

    /// Payload length (0 for ACKs).
    #[inline]
    pub fn payload_len(&self) -> u64 {
        self.end_seq - self.seq
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

snap!(Packet {
    flow,
    kind,
    dst,
    wire_bytes,
    seq,
    end_seq,
    ack_seq,
    sack,
    sent_at,
    retransmit,
    ecn
});

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
        assert_eq!(p.ack_seq, 4344);
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
    fn packet_is_small() {
        // The hot path copies packets by value; keep them cache-friendly.
        assert!(std::mem::size_of::<Packet>() <= 136);
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
}
