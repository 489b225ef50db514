//! The delta-varint record log: how a ring and a drained run hold their
//! records.
//!
//! A [`TraceRecord`] is 32 bytes in memory, yet most of them say little
//! that the one before did not: a flow's ring holds one flow, its samples
//! arrive microseconds apart, and an srtt or cwnd sample moves by a few
//! parts in a thousand. The log writes each record as the difference from
//! what came before:
//!
//! * a tag byte: the kind in the low four bits, and one flag bit for each
//!   of the four fields below that follows;
//! * the time, as a zigzag varint of its wrapping difference from the
//!   previous record's, when it differs;
//! * the flow, as a varint, when it differs from the previous record's;
//! * `a` and `b`, each as a zigzag varint of its wrapping difference from
//!   the same field of the previous record *of the same slot*, when it
//!   differs.
//!
//! A kind's slot is its discriminant modulo [`SLOTS`]. Every ring the
//! recorders build holds kinds of distinct slots (cwnd, srtt and pacing;
//! phase and congestion; one depth kind; drop and ECN mark), so there a
//! slot is a kind, and the context stays 64 bytes rather than nine pairs.
//! A log that mixes kinds of one slot still round-trips: encoder and
//! decoder keep the same context.
//!
//! The arithmetic wraps in `u64`, so every value round-trips, times that go
//! backwards included. A record takes 1 to 36 bytes; on a CoreScale trace
//! the mean is about 6.
//!
//! The log keeps the decoder [`Context`] in front of its oldest record, so
//! dropping that record decodes it once and moves the context past it:
//! drop-oldest eviction stays amortised O(1), and the bytes in front are
//! reclaimed once they are half the buffer.

use crate::event::{TraceKind, TraceRecord};
use ccsim_sim::SimTime;

/// The tag byte's kind bits. [`TraceKind`] has nine variants.
const KIND: u8 = 0x0F;
/// Tag flag: a time difference follows.
const NEW_TIME: u8 = 0x10;
/// Tag flag: a flow id follows.
const NEW_FLOW: u8 = 0x20;
/// Tag flag: an `a` difference follows.
const NEW_A: u8 = 0x40;
/// Tag flag: a `b` difference follows.
const NEW_B: u8 = 0x80;

/// The most bytes one record can take: the tag, three 64-bit varints and
/// one 32-bit varint.
const MAX_RECORD_BYTES: usize = 1 + 10 + 5 + 10 + 10;

/// Slots of `a`/`b` context a log keeps: kind `k` deltas against the
/// last record of a kind `j` with `j % SLOTS == k % SLOTS`.
const SLOTS: usize = 3;

/// What encoding or decoding the next record needs: the previous record's
/// time and flow, and the last `a`/`b` of each slot.
#[derive(Clone, Copy, Debug, Default)]
struct Context {
    time: u64,
    flow: u32,
    ab: [[u64; 2]; SLOTS],
}

const _: () = assert!(std::mem::size_of::<Context>() == 64);

#[inline]
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Write `v` as a varint at `buf[n..]`; return the new end.
#[inline]
fn put_varint(buf: &mut [u8; MAX_RECORD_BYTES], mut n: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    n + 1
}

/// Read a varint at `*pos`. The log only reads what it wrote, so a
/// truncated varint is a bug, and indexing past the end panics.
#[inline]
fn take_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let first = bytes[*pos];
    *pos += 1;
    if first < 0x80 {
        return u64::from(first);
    }
    let mut v = u64::from(first & 0x7F);
    let mut shift = 7;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

impl Context {
    /// Append `rec` to `out` and move past it.
    #[inline]
    fn encode(&mut self, rec: &TraceRecord, out: &mut Vec<u8>) {
        let time = rec.time.as_nanos();
        let k = rec.kind as usize % SLOTS;
        let [pa, pb] = self.ab[k];
        let mut tag = rec.kind as u8;
        tag |= if time != self.time { NEW_TIME } else { 0 };
        tag |= if rec.flow != self.flow { NEW_FLOW } else { 0 };
        tag |= if rec.a != pa { NEW_A } else { 0 };
        tag |= if rec.b != pb { NEW_B } else { 0 };
        // Built on the stack, so the log grows once a record.
        let mut buf = [0u8; MAX_RECORD_BYTES];
        buf[0] = tag;
        let mut n = 1;
        if tag & NEW_TIME != 0 {
            n = put_varint(&mut buf, n, zigzag(time.wrapping_sub(self.time)));
        }
        if tag & NEW_FLOW != 0 {
            n = put_varint(&mut buf, n, u64::from(rec.flow));
        }
        if tag & NEW_A != 0 {
            n = put_varint(&mut buf, n, zigzag(rec.a.wrapping_sub(pa)));
        }
        if tag & NEW_B != 0 {
            n = put_varint(&mut buf, n, zigzag(rec.b.wrapping_sub(pb)));
        }
        out.extend_from_slice(&buf[..n]);
        self.time = time;
        self.flow = rec.flow;
        self.ab[k] = [rec.a, rec.b];
    }

    /// Decode the record at `*pos` and move past it.
    #[inline]
    fn decode(&mut self, bytes: &[u8], pos: &mut usize) -> TraceRecord {
        let tag = bytes[*pos];
        *pos += 1;
        let kind = TraceKind::ALL[usize::from(tag & KIND)];
        let k = kind as usize % SLOTS;
        if tag & NEW_TIME != 0 {
            self.time = self.time.wrapping_add(unzigzag(take_varint(bytes, pos)));
        }
        if tag & NEW_FLOW != 0 {
            self.flow = take_varint(bytes, pos) as u32;
        }
        if tag & NEW_A != 0 {
            self.ab[k][0] = self.ab[k][0].wrapping_add(unzigzag(take_varint(bytes, pos)));
        }
        if tag & NEW_B != 0 {
            self.ab[k][1] = self.ab[k][1].wrapping_add(unzigzag(take_varint(bytes, pos)));
        }
        TraceRecord {
            time: SimTime::from_nanos(self.time),
            flow: self.flow,
            kind,
            a: self.ab[k][0],
            b: self.ab[k][1],
        }
    }
}

/// A sequence of records, oldest first, held as a delta-varint byte log
/// with O(1) append and amortised O(1) removal of the oldest.
#[derive(Clone, Debug, Default)]
pub(crate) struct RecordLog {
    bytes: Vec<u8>,
    /// Offset of the oldest record's tag byte; the bytes before it are
    /// spent.
    start: usize,
    len: usize,
    /// The context in front of the oldest record.
    front: Context,
    /// The context after the newest record.
    back: Context,
}

impl RecordLog {
    /// Records held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append `rec` as the newest record.
    #[inline]
    pub(crate) fn push_back(&mut self, rec: &TraceRecord) {
        self.back.encode(rec, &mut self.bytes);
        self.len += 1;
    }

    /// Remove and return the oldest record.
    pub(crate) fn pop_front(&mut self) -> Option<TraceRecord> {
        if self.len == 0 {
            return None;
        }
        let rec = self.front.decode(&self.bytes, &mut self.start);
        self.len -= 1;
        if self.len == 0 {
            self.bytes.clear();
            self.start = 0;
        } else if self.start >= self.bytes.len() / 2 {
            // This moves fewer bytes than were spent since the last move,
            // so each spent byte pays for moving at most one.
            self.bytes.drain(..self.start);
            self.start = 0;
        }
        Some(rec)
    }

    /// The records, oldest first.
    pub(crate) fn iter(&self) -> LogIter<'_> {
        LogIter {
            bytes: &self.bytes,
            pos: self.start,
            left: self.len,
            ctx: self.front,
        }
    }

    /// Heap bytes allocated for the log, spent bytes and spare capacity
    /// included.
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.bytes.capacity() as u64
    }

    /// Release spare capacity: a drained log grows no more.
    pub(crate) fn shrink_to_fit(&mut self) {
        if self.start > 0 {
            self.bytes.drain(..self.start);
            self.start = 0;
        }
        self.bytes.shrink_to_fit();
    }
}

impl<'a> FromIterator<&'a TraceRecord> for RecordLog {
    fn from_iter<I: IntoIterator<Item = &'a TraceRecord>>(recs: I) -> RecordLog {
        let mut log = RecordLog::default();
        for rec in recs {
            log.push_back(rec);
        }
        log
    }
}

/// The records of a [`RecordLog`], oldest first, decoded one at a time.
pub(crate) struct LogIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
    ctx: Context,
}

impl Iterator for LogIter<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.ctx.decode(self.bytes, &mut self.pos))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for LogIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(recs: &[TraceRecord]) -> RecordLog {
        recs.iter().collect()
    }

    #[test]
    fn zigzag_round_trips_the_extremes() {
        for d in [0, 1, u64::MAX, i64::MAX as u64, i64::MIN as u64, 12_345] {
            assert_eq!(unzigzag(zigzag(d)), d, "{d}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(u64::MAX), 1, "-1 is one byte");
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn extreme_fields_round_trip_within_the_record_bound() {
        let recs = [
            TraceRecord::cwnd(SimTime::MAX, u32::MAX, u64::MAX, u64::MAX),
            TraceRecord::cwnd(SimTime::ZERO, 0, 0, 0),
            TraceRecord::cwnd(SimTime::MAX, u32::MAX, i64::MIN as u64, u64::MAX / 3),
            TraceRecord::drop(SimTime::from_nanos(5), 7, u64::MAX),
        ];
        let log = log_of(&recs);
        assert_eq!(log.iter().collect::<Vec<_>>(), recs);
        assert!(log.bytes.len() <= recs.len() * MAX_RECORD_BYTES);
        let far = i64::MIN as u64;
        let mut worst = Vec::new();
        Context::default().encode(
            &TraceRecord::cwnd(SimTime::from_nanos(far), u32::MAX, far, far),
            &mut worst,
        );
        assert_eq!(worst.len(), MAX_RECORD_BYTES);
    }

    #[test]
    fn a_repeated_record_is_one_tag_byte() {
        let srtt = ccsim_sim::SimDuration::from_millis(20);
        let r = TraceRecord::srtt(SimTime::from_millis(3), 4, srtt);
        assert_eq!(log_of(&[r, r, r]).bytes.len(), log_of(&[r]).bytes.len() + 2);
    }

    #[test]
    fn popping_the_front_keeps_the_rest_and_reclaims_bytes() {
        let recs: Vec<TraceRecord> = (0..1_000u64)
            .map(|i| TraceRecord::cwnd(SimTime::from_nanos(i * 977), (i % 3) as u32, i * i, i))
            .collect();
        let mut log = log_of(&recs);
        for (i, want) in recs.iter().enumerate() {
            assert_eq!(log.iter().collect::<Vec<_>>(), recs[i..]);
            assert_eq!(log.pop_front().as_ref(), Some(want));
            assert!(log.start == 0 || log.start < log.bytes.len() / 2);
        }
        assert_eq!((log.len(), log.bytes.len(), log.pop_front()), (0, 0, None));
    }
}
