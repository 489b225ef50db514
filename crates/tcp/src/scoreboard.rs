//! The sender's SACK scoreboard (RFC 2018 / RFC 6675).
//!
//! Tracks every outstanding segment with its (re)transmission snapshot and
//! SACK/loss state, maintains the in-flight ("pipe") estimate, performs
//! RFC 6675-style loss detection, and produces Karn-filtered RTT samples
//! plus the [`TxRecord`] needed for delivery-rate estimation.
//!
//! Segments are fixed-size (one MSS) except possibly the last of a burst,
//! and all ACKs fall on segment boundaries (receivers acknowledge whole
//! segments); both properties are asserted in debug builds.
//!
//! Beside the segment deque the scoreboard keeps three indexes — the lost
//! set (a bitmap over segment ordinals, see [`crate::lost`]), the SACKed
//! runs and the in-flight holes below the highest SACK — updated wherever
//! a segment changes state. An ACK in recovery then visits only the
//! segments whose state it changes and finds the rest by arithmetic or
//! binary search, instead of scanning the window. The indexes are derived
//! state: checkpoints do not carry them and [`Scoreboard::load_state`]
//! rebuilds them.

use crate::lost::LostSet;
use crate::rate::TxRecord;
use ccsim_net::packet::SackBlocks;
use ccsim_sim::{SimDuration, SimTime, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Selectively acknowledged.
const SACKED: u8 = 1 << 0;
/// Declared lost (and not since retransmitted).
const LOST: u8 = 1 << 1;
/// Ever retransmitted (Karn's rule: no RTT samples from these).
const RETRANSMITTED: u8 = 1 << 2;
/// `TxRecord::app_limited` of the most recent (re)transmission.
const APP_LIMITED: u8 = 1 << 3;

/// One outstanding segment: byte range, state flags and the delivery
/// snapshot from its most recent (re)transmission, packed into 48 bytes
/// (the segment deque is the dominant per-flow allocation at scale).
#[derive(Debug, Clone)]
struct Segment {
    /// First byte.
    seq: u64,
    // `TxRecord` minus `app_limited`, which lives in `flags`.
    sent_time: SimTime,
    delivered: u64,
    delivered_time: SimTime,
    first_tx_time: SimTime,
    len: u32,
    flags: u8,
}

impl Segment {
    fn new(seq: u64, len: u32, tx: TxRecord, flags: u8) -> Segment {
        let mut seg = Segment {
            seq,
            sent_time: tx.sent_time,
            delivered: tx.delivered,
            delivered_time: tx.delivered_time,
            first_tx_time: tx.first_tx_time,
            len,
            flags,
        };
        seg.set(APP_LIMITED, tx.app_limited);
        seg
    }

    #[inline]
    fn len(&self) -> u64 {
        u64::from(self.len)
    }

    /// One past the last byte.
    #[inline]
    fn end(&self) -> u64 {
        self.seq + self.len()
    }

    #[inline]
    fn is(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    #[inline]
    fn set(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }

    /// Delivery snapshot from the most recent (re)transmission.
    fn tx(&self) -> TxRecord {
        TxRecord {
            sent_time: self.sent_time,
            delivered: self.delivered,
            delivered_time: self.delivered_time,
            first_tx_time: self.first_tx_time,
            app_limited: self.is(APP_LIMITED),
        }
    }

    /// Key under which this segment sits in the hole index.
    #[inline]
    fn hole_key(&self) -> (SimTime, u64) {
        (self.sent_time, self.seq)
    }
}

/// The wire layout predates the packed in-memory one and is kept, so
/// checkpoints stay byte-identical.
impl Snap for Segment {
    fn put(&self, w: &mut SnapWriter) {
        (self.seq, self.end(), self.tx()).put(w);
        (self.is(SACKED), self.is(LOST), self.is(RETRANSMITTED)).put(w);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Segment, SnapError> {
        let (seq, end, tx): (u64, u64, TxRecord) = Snap::take(r)?;
        let len = end.checked_sub(seq).filter(|&len| len > 0).ok_or_else(|| {
            SnapError::Corrupt(format!("segment range [{seq}, {end}) is empty or inverted"))
        })?;
        let len = u32::try_from(len)
            .map_err(|_| SnapError::Corrupt(format!("segment [{seq}, {end}) exceeds 4 GiB")))?;
        let (sacked, lost, retransmitted) = Snap::take(r)?;
        let mut seg = Segment::new(seq, len, tx, 0);
        seg.set(SACKED, sacked);
        seg.set(LOST, lost);
        seg.set(RETRANSMITTED, retransmitted);
        if seg.is(SACKED) && seg.is(LOST) {
            return Err(SnapError::Corrupt(format!(
                "segment at {seq} is both SACKed and lost"
            )));
        }
        Ok(seg)
    }
}

// The packed layout is what pays for the indexes at megascale.
const _: () = assert!(std::mem::size_of::<Segment>() == 48);

/// Outcome of processing one ACK against the scoreboard.
#[derive(Debug, Clone, Copy)]
pub struct AckResult {
    /// Bytes newly delivered by this ACK (cumulative + selective), i.e.
    /// bytes that had never been cum-ACKed nor SACKed before.
    pub newly_acked: u64,
    /// Of `newly_acked`, bytes newly covered by SACK blocks (not cumulative).
    pub newly_sacked: u64,
    /// Whether `snd_una` advanced.
    pub snd_una_advanced: bool,
    /// Karn-filtered RTT sample: `now - sent_time` of the newest
    /// never-retransmitted segment this ACK newly covered.
    pub rtt_sample: Option<SimDuration>,
    /// TxRecord of the most recently sent segment this ACK newly covered
    /// (retransmitted or not) — input to the rate estimator.
    pub latest_tx: Option<TxRecord>,
}

/// Send times of the newest segments one ACK newly covered, overall and
/// among the never-retransmitted.
#[derive(Default)]
struct Covered {
    latest_sent: SimTime,
    latest_clean_sent: Option<SimTime>,
}

impl Covered {
    fn note(&mut self, seg: &Segment, res: &mut AckResult) {
        if res.latest_tx.is_none() || seg.sent_time >= self.latest_sent {
            self.latest_sent = seg.sent_time;
            res.latest_tx = Some(seg.tx());
        }
        if !seg.is(RETRANSMITTED) && self.latest_clean_sent.is_none_or(|t| seg.sent_time >= t) {
            self.latest_clean_sent = Some(seg.sent_time);
        }
    }
}

/// Everything the segments (and `high_sacked`) determine: the three
/// indexes and the three counters, built from scratch when a checkpoint
/// is loaded.
#[derive(Default)]
struct Derived {
    lost: LostSet,
    runs: VecDeque<(u64, u64)>,
    holes: VecDeque<(SimTime, u64)>,
    sacked_bytes: u64,
    sacked_segs: u32,
    lost_bytes: u64,
}

impl Derived {
    /// The indexes and counters of `segs`, numbering `segs[0]` ordinal 0.
    fn of(segs: &VecDeque<Segment>, high_sacked: u64) -> Derived {
        let mut d = Derived::default();
        for (ord, seg) in (0..).zip(segs) {
            if seg.is(SACKED) {
                d.sacked_bytes += seg.len();
                d.sacked_segs += 1;
                match d.runs.back_mut() {
                    Some(run) if run.1 == seg.seq => run.1 = seg.end(),
                    _ => d.runs.push_back((seg.seq, seg.end())),
                }
            } else if seg.is(LOST) {
                d.lost_bytes += seg.len();
                d.lost.insert(ord);
            } else if seg.seq < high_sacked {
                d.holes.push_back(seg.hole_key());
            }
        }
        d.holes.make_contiguous().sort_unstable();
        d
    }
}

/// Insert `key` into an ascending deque. Appending is the common case
/// (retransmissions carry the latest send time); `VecDeque::insert`
/// shifts the shorter side otherwise.
fn insert_sorted<T: Ord + Copy>(q: &mut VecDeque<T>, key: T) {
    match q.back() {
        Some(&back) if key < back => {
            let at = q.partition_point(|&k| k < key);
            q.insert(at, key);
        }
        _ => q.push_back(key),
    }
}

/// Remove `key` from an ascending deque that holds it; leaving from the
/// front is the common case.
fn remove_sorted<T: Ord + Copy>(q: &mut VecDeque<T>, key: T) {
    let at = if q.front() == Some(&key) {
        0
    } else {
        q.partition_point(|&k| k < key)
    };
    let held = q.get(at) == Some(&key);
    debug_assert!(held, "index lost an entry");
    if held {
        q.remove(at);
    }
}

/// The scoreboard proper.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    segs: VecDeque<Segment>,
    snd_una: u64,
    snd_nxt: u64,
    sacked_bytes: u64,
    /// Count of currently SACKed segments.
    sacked_segs: u32,
    lost_bytes: u64,
    /// Highest sequence covered by any SACK so far ("FACK" point).
    high_sacked: u64,
    /// Send time of the most recently *sent* segment known delivered —
    /// the RACK anchor: only segments sent before this instant may be
    /// declared lost (prevents re-marking fresh retransmissions whose
    /// SACK evidence predates them).
    delivered_latest_sent: SimTime,
    mss: u32,
    dupthresh: u32,
    /// Ordinal of `segs[0]`: the segment at `segs[i]` is ordinal
    /// `front_ord + i` for life.
    front_ord: u64,
    // The indexes come last and the paths of a flow that is not in
    // recovery decide on the counters above without reading them: at
    // megascale every cache line of per-flow state an ACK touches counts.
    /// Index 1 — ordinals of the lost segments. The first is the next
    /// retransmission candidate.
    lost: LostSet,
    /// Index 2 — maximal `[start, end)` byte ranges of SACKed segments,
    /// ascending. A SACK block visits only the gaps between them.
    runs: VecDeque<(u64, u64)>,
    /// Index 3 — `(sent_time, seq)` of the in-flight holes: segments
    /// neither SACKed nor lost with `seq < high_sacked`, oldest
    /// transmission first. Loss detection reads candidates off the front.
    holes: VecDeque<(SimTime, u64)>,
}

impl Scoreboard {
    /// Fresh scoreboard starting at sequence 0.
    pub fn new(mss: u32) -> Scoreboard {
        Scoreboard {
            segs: VecDeque::new(),
            front_ord: 0,
            lost: LostSet::new(),
            runs: VecDeque::new(),
            holes: VecDeque::new(),
            snd_una: 0,
            snd_nxt: 0,
            sacked_bytes: 0,
            sacked_segs: 0,
            lost_bytes: 0,
            high_sacked: 0,
            delivered_latest_sent: SimTime::ZERO,
            mss,
            dupthresh: 3,
        }
    }

    /// First unacknowledged byte.
    #[inline]
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next new byte to transmit.
    #[inline]
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// RFC 6675 "pipe": bytes considered in flight.
    #[inline]
    pub fn in_flight(&self) -> u64 {
        (self.snd_nxt - self.snd_una) - self.sacked_bytes - self.lost_bytes
    }

    /// Bytes currently marked lost and awaiting retransmission.
    #[inline]
    pub fn lost_bytes(&self) -> u64 {
        self.lost_bytes
    }

    /// Bytes currently SACKed (below `snd_nxt`, above `snd_una`).
    #[inline]
    pub fn sacked_bytes(&self) -> u64 {
        self.sacked_bytes
    }

    /// Number of outstanding segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// True iff nothing is outstanding.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Approximate heap footprint: the allocated capacity of the segment
    /// deque and of the three indexes at their in-memory entry sizes, plus
    /// the struct itself. The dominant per-flow cost at scale; feeds the
    /// profiler's `tcp/senders` account.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        (size_of::<Self>()
            + self.segs.capacity() * size_of::<Segment>()
            + self.lost.memory_bytes() as usize
            + self.runs.capacity() * size_of::<(u64, u64)>()
            + self.holes.capacity() * size_of::<(SimTime, u64)>()) as u64
    }

    /// Serialize the full scoreboard state for a checkpoint (`mss` and
    /// `dupthresh` are configuration; the indexes are derived). Segments
    /// are written in deque order, which is sequence order by construction.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.segs.put(w);
        w.u64(self.snd_una);
        w.u64(self.snd_nxt);
        w.u64(self.sacked_bytes);
        w.u32(self.sacked_segs);
        w.u64(self.lost_bytes);
        w.u64(self.high_sacked);
        w.time(self.delivered_latest_sent);
    }

    /// Overlay checkpointed state onto a scoreboard built with the same
    /// configuration. The indexes and counters are recomputed from the
    /// segments (ordinals restart at 0: only their order matters); a
    /// snapshot whose stored counters or sequence bounds disagree with its
    /// segments is rejected as corrupt (left alone it would wrap a counter
    /// on a later ACK).
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let segs = VecDeque::<Segment>::take(r)?;
        let snd_una = r.u64()?;
        let snd_nxt = r.u64()?;
        let sacked_bytes = r.u64()?;
        let sacked_segs = r.u32()?;
        let lost_bytes = r.u64()?;
        let high_sacked = r.u64()?;
        let delivered_latest_sent = r.time()?;

        let corrupt = |what: String| Err(SnapError::Corrupt(format!("scoreboard: {what}")));
        let mut next = snd_una;
        for seg in &segs {
            if seg.seq != next {
                return corrupt(format!("segment at {} where {next} was due", seg.seq));
            }
            next = seg.end();
        }
        if next != snd_nxt {
            return corrupt(format!("segments end at {next}, snd_nxt is {snd_nxt}"));
        }
        if high_sacked > snd_nxt {
            return corrupt(format!(
                "high_sacked {high_sacked} beyond snd_nxt {snd_nxt}"
            ));
        }
        let d = Derived::of(&segs, high_sacked);
        if (d.sacked_bytes, d.sacked_segs, d.lost_bytes) != (sacked_bytes, sacked_segs, lost_bytes)
        {
            return corrupt(format!(
                "counters (sacked {sacked_bytes} B / {sacked_segs} segs, lost {lost_bytes} B) \
                 disagree with the segments ({} B / {} segs, {} B)",
                d.sacked_bytes, d.sacked_segs, d.lost_bytes
            ));
        }
        if d.runs.back().is_some_and(|run| run.1 > high_sacked) {
            return corrupt(format!(
                "a segment is SACKed above high_sacked {high_sacked}"
            ));
        }
        *self = Scoreboard {
            segs,
            front_ord: 0,
            lost: d.lost,
            runs: d.runs,
            holes: d.holes,
            snd_una,
            snd_nxt,
            sacked_bytes,
            sacked_segs,
            lost_bytes,
            high_sacked,
            delivered_latest_sent,
            mss: self.mss,
            dupthresh: self.dupthresh,
        };
        Ok(())
    }

    /// Position in `segs` of the segment starting at `seq`, or of the first
    /// one above it; `segs.len()` from `snd_nxt` up. Arithmetic when every
    /// segment below is a full MSS (always, except after a short final
    /// segment, which has nothing above it), binary search otherwise.
    fn seg_index(&self, seq: u64) -> usize {
        if seq >= self.snd_nxt {
            return self.segs.len();
        }
        let guess = (seq.saturating_sub(self.snd_una) / u64::from(self.mss.max(1))) as usize;
        match self.segs.get(guess) {
            Some(seg) if seg.seq == seq => guess,
            _ => self.segs.partition_point(|s| s.seq < seq),
        }
    }

    /// Ordinal of the segment at `segs[at]`.
    #[inline]
    fn ord(&self, at: usize) -> u64 {
        self.front_ord + at as u64
    }

    /// Record transmission of new data `[snd_nxt, snd_nxt + len)`.
    pub fn on_send_new(&mut self, len: u64, tx: TxRecord) {
        debug_assert!(len > 0);
        let seq = self.snd_nxt;
        self.snd_nxt += len;
        let len = u32::try_from(len).expect("segment longer than 4 GiB");
        self.segs.push_back(Segment::new(seq, len, tx, 0));
    }

    /// Process the cumulative-ACK and SACK content of one incoming ACK.
    pub fn process_ack(&mut self, now: SimTime, ack_seq: u64, sack: &SackBlocks) -> AckResult {
        let mut res = AckResult {
            newly_acked: 0,
            newly_sacked: 0,
            snd_una_advanced: false,
            rtt_sample: None,
            latest_tx: None,
        };
        let mut covered = Covered::default();

        // 1. Cumulative ACK: retire fully covered segments.
        if ack_seq > self.snd_una {
            debug_assert!(ack_seq <= self.snd_nxt, "ACK beyond snd_nxt");
            res.snd_una_advanced = true;
            let had_runs = self.sacked_segs > 0;
            while let Some(front) = self.segs.front() {
                if front.end() > ack_seq {
                    break;
                }
                let seg = self.segs.pop_front().expect("front exists");
                let ord = self.front_ord;
                self.front_ord += 1;
                if seg.is(SACKED) {
                    self.sacked_bytes -= seg.len();
                    self.sacked_segs -= 1;
                } else {
                    res.newly_acked += seg.len();
                    if seg.is(LOST) {
                        // Cumulative ACK of a segment still marked lost
                        // (e.g. the retransmission we never saw SACKed).
                        self.lost_bytes -= seg.len();
                        self.lost.remove(ord);
                    } else if seg.seq < self.high_sacked {
                        remove_sorted(&mut self.holes, seg.hole_key());
                    }
                    covered.note(&seg, &mut res);
                }
            }
            debug_assert!(
                self.segs.front().is_none_or(|s| s.seq >= ack_seq),
                "cumulative ACK inside a segment"
            );
            self.snd_una = ack_seq;
            // Trim the runs the ACK reached (there are none unless a
            // segment was SACKed when it arrived).
            if had_runs {
                while let Some(run) = self.runs.front_mut() {
                    if run.1 > ack_seq {
                        run.0 = run.0.max(ack_seq);
                        break;
                    }
                    self.runs.pop_front();
                }
            }
            // Deflate stranded capacity after a window collapse. AIMD
            // halving never gets near the 8x threshold, so the sawtooth
            // steady state keeps its buffer; only an RTO-style collapse
            // (megascale flows park at 1-2 segments after the start-up
            // overshoot) pays one shrink, bounding the per-flow footprint.
            // No index holds more entries than there are segments, so
            // trimming them here too bounds them the same way.
            if self.segs.capacity() > 8 && self.segs.capacity() / 8 >= self.segs.len().max(1) {
                self.segs.shrink_to(self.segs.len().max(4) * 2);
                self.lost.shrink();
                self.runs.shrink_to(self.runs.len() * 2);
                self.holes.shrink_to(self.holes.len() * 2);
            }
        }

        // 2. SACK blocks: mark newly covered segments. Holes are enrolled
        // below `self.high_sacked`, which stays put until every block has
        // been applied.
        let mut high = self.high_sacked;
        for block in sack.as_slice() {
            if block.end <= self.snd_una {
                continue;
            }
            high = high.max(block.end);
            let (lo, hi) = (block.start.max(self.snd_una), block.end.min(self.snd_nxt));
            if lo < hi {
                self.sack_range(lo, hi, &mut res, &mut covered);
            }
        }
        if high > self.high_sacked {
            self.advance_high_sacked(high);
        }

        if let Some(sent) = covered.latest_clean_sent {
            res.rtt_sample = Some(now.saturating_since(sent));
        }
        if let Some(tx) = &res.latest_tx {
            self.delivered_latest_sent = self.delivered_latest_sent.max(tx.sent_time);
        }
        self.debug_check();
        res
    }

    /// SACK every segment in `[lo, hi)` that is not SACKed yet: visit the
    /// gaps between the runs the range meets, then fuse range and runs
    /// into one run. A block that repeats old coverage lies inside one run
    /// and costs the binary search alone.
    fn sack_range(&mut self, lo: u64, hi: u64, res: &mut AckResult, covered: &mut Covered) {
        // Runs `first..last` overlap or touch `[lo, hi)`.
        let first = self.runs.partition_point(|run| run.1 < lo);
        let mut last = first;
        let mut cursor = lo;
        let mut fused = (lo, hi);
        while let Some(&(start, end)) = self.runs.get(last) {
            if start > hi {
                break;
            }
            if start > cursor {
                self.sack_gap(cursor, start, res, covered);
            }
            cursor = cursor.max(end);
            fused = (fused.0.min(start), fused.1.max(end));
            last += 1;
        }
        if cursor < hi {
            self.sack_gap(cursor, hi, res, covered);
        }
        if first == last {
            self.runs.insert(first, fused);
        } else {
            self.runs[first] = fused;
            if last - first > 1 {
                self.runs.drain(first + 1..last);
            }
        }
    }

    /// SACK the segments of `[start, end)`, none of which is SACKed.
    fn sack_gap(&mut self, start: u64, end: u64, res: &mut AckResult, covered: &mut Covered) {
        let first = self.seg_index(start);
        for (ord, seg) in (self.ord(first)..).zip(self.segs.range_mut(first..)) {
            if seg.seq >= end {
                break;
            }
            // Segment overlaps the block; receivers SACK whole
            // segments, so overlap means containment.
            debug_assert!(
                seg.seq >= start && seg.end() <= end,
                "SACK block splits a segment"
            );
            debug_assert!(!seg.is(SACKED), "run index missed a SACKed segment");
            seg.flags |= SACKED;
            self.sacked_bytes += seg.len();
            self.sacked_segs += 1;
            if seg.is(LOST) {
                seg.flags &= !LOST;
                self.lost_bytes -= seg.len();
                self.lost.remove(ord);
            } else if seg.seq < self.high_sacked {
                remove_sorted(&mut self.holes, seg.hole_key());
            }
            res.newly_acked += seg.len();
            res.newly_sacked += seg.len();
            covered.note(seg, res);
        }
    }

    /// Move `high_sacked` up to `high` and enrol the in-flight segments it
    /// passes as holes. `high_sacked` never moves back, so this visits each
    /// segment once in its life.
    fn advance_high_sacked(&mut self, high: u64) {
        let first = self.seg_index(self.high_sacked.max(self.snd_una));
        self.high_sacked = high;
        for seg in self.segs.range(first..) {
            if seg.seq >= high {
                break;
            }
            if !seg.is(SACKED | LOST) {
                insert_sorted(&mut self.holes, seg.hole_key());
            }
        }
    }

    /// RFC 6675-style loss detection. A segment is declared lost when at
    /// least `dupthresh` later segments have been SACKed, or when the
    /// highest SACKed sequence is at least `dupthresh * MSS` bytes past its
    /// end. Returns bytes newly marked lost.
    pub fn detect_losses(&mut self) -> u64 {
        if self.sacked_bytes == 0 {
            return 0;
        }
        // RACK anchor: evidence must STRICTLY postdate a transmission for
        // it to be declared lost. Same-instant comparisons matter: a batch
        // of retransmissions shares one timestamp, and the delivery of one
        // must not condemn its batch-mates (that caused an unbounded
        // retransmit storm; see dup_acks_do_not_storm_retransmissions).
        // The anchor is a pure time test and the holes are ordered by send
        // time, so the candidates are a prefix of the hole index.
        let anchor = self.delivered_latest_sent;
        if self.holes.front().is_none_or(|&(sent, _)| sent >= anchor) {
            return 0;
        }
        // Both dupthresh rules are monotone along the scoreboard (the count
        // of SACKed segments above a position and the FACK byte gap only
        // shrink as the position rises), so together they hold exactly for
        // the segments ending at or below one boundary.
        let boundary = self.loss_boundary();
        let mut newly_lost = 0;
        let mut kept = 0;
        let mut seen = 0;
        while let Some(&(sent, seq)) = self.holes.get(seen) {
            if sent >= anchor {
                break;
            }
            let at = self.seg_index(seq);
            let ord = self.ord(at);
            let seg = &mut self.segs[at];
            debug_assert!(seg.seq == seq && !seg.is(SACKED | LOST));
            if seg.end() <= boundary {
                seg.flags |= LOST;
                newly_lost += seg.len();
                self.lost.insert(ord);
            } else {
                // Old enough but too close to `high_sacked`: at most
                // `dupthresh` full-size segments are, so few are kept.
                self.holes[kept] = (sent, seq);
                kept += 1;
            }
            seen += 1;
        }
        self.holes.drain(kept..seen);
        self.lost_bytes += newly_lost;
        self.debug_check();
        newly_lost
    }

    /// The sequence at or below which an in-flight hole must end for a
    /// dupthresh rule to hold: the higher of `high_sacked − dupthresh·MSS`
    /// (byte rule) and the start of the `dupthresh`-th highest SACKed
    /// segment (count rule). With full-size segments the count rule
    /// implies the byte rule; it reaches further only when the short final
    /// segment of a data-limited flow is among the top SACKed ones.
    fn loss_boundary(&self) -> u64 {
        let by_bytes = self
            .high_sacked
            .saturating_sub(u64::from(self.dupthresh) * u64::from(self.mss));
        let mut need = self.dupthresh as usize;
        for &(start, end) in self.runs.iter().rev() {
            let above = self.seg_index(end);
            if above >= need && self.segs[above - need].seq >= start {
                return by_bytes.max(self.segs[above - need].seq);
            }
            need -= above - self.seg_index(start);
        }
        by_bytes
    }

    /// On RTO: everything outstanding and un-SACKed is presumed lost.
    /// Returns bytes newly marked lost.
    pub fn mark_all_lost(&mut self) -> u64 {
        let mut newly_lost = 0;
        // Afterwards every un-SACKed segment is lost and none is a hole.
        self.lost.clear();
        self.holes.clear();
        for (ord, seg) in (self.front_ord..).zip(self.segs.iter_mut()) {
            if seg.is(SACKED) {
                continue;
            }
            if !seg.is(LOST) {
                seg.flags |= LOST;
                newly_lost += seg.len();
            }
            self.lost.insert(ord);
        }
        self.lost_bytes += newly_lost;
        self.debug_check();
        newly_lost
    }

    /// The first lost, un-SACKed segment with `seq < limit`, if any —
    /// the next retransmission candidate (RFC 6675 NextSeg rule 1).
    pub fn next_lost_below(&self, limit: u64) -> Option<(u64, u64)> {
        if self.lost_bytes == 0 {
            return None;
        }
        let seg = &self.segs[(self.lost.first()? - self.front_ord) as usize];
        (seg.seq < limit).then(|| (seg.seq, seg.end()))
    }

    /// Record retransmission of the segment starting at `seq`: it returns
    /// to flight with a fresh delivery snapshot.
    ///
    /// # Panics
    /// Panics if no lost segment starts at `seq`.
    pub fn mark_retransmitted(&mut self, seq: u64, tx: TxRecord) {
        let at = self.seg_index(seq);
        let seg = self
            .segs
            .get_mut(at)
            .filter(|seg| seg.seq == seq)
            .expect("retransmitting unknown segment");
        // A real assert: letting a live segment through would wrap
        // `lost_bytes` in release.
        assert!(
            seg.is(LOST) && !seg.is(SACKED),
            "retransmitting a live segment"
        );
        *seg = Segment::new(seq, seg.len, tx, RETRANSMITTED);
        self.lost_bytes -= seg.len();
        self.lost.remove(self.ord(at));
        if seq < self.high_sacked {
            insert_sorted(&mut self.holes, (tx.sent_time, seq));
        }
        self.debug_check();
    }

    /// Debug builds re-derive the counters and the three indexes from the
    /// segments after every mutation, streaming the segments against the
    /// indexes so the check allocates nothing.
    #[cfg(debug_assertions)]
    fn debug_check(&self) {
        let (mut sacked_bytes, mut sacked_segs, mut lost_bytes, mut holes) = (0, 0, 0, 0);
        let mut lost_segs = 0;
        let mut runs = self.runs.iter();
        // The SACKed run being walked, if any: `run_start..prev_end`.
        let mut run_start = None;
        let mut prev_end = self.snd_una;
        // (Field reads rather than accessor calls: nothing is inlined in a
        // debug build and this loop dominates debug-mode simulation time.)
        for (ord, seg) in (self.front_ord..).zip(&self.segs) {
            assert!(seg.seq == prev_end, "scoreboard gap at {}", seg.seq);
            assert_eq!(
                self.lost.contains(ord),
                seg.flags & LOST != 0,
                "lost set drift at {}",
                seg.seq
            );
            let len = seg.len as u64;
            if seg.flags & SACKED != 0 {
                assert!(seg.flags & LOST == 0, "segment both sacked and lost");
                sacked_bytes += len;
                sacked_segs += 1;
                if run_start.is_none() {
                    run_start = Some(seg.seq);
                }
                prev_end += len;
                continue;
            }
            if let Some(start) = run_start.take() {
                assert_eq!(runs.next(), Some(&(start, prev_end)), "run index drift");
            }
            prev_end += len;
            if seg.flags & LOST != 0 {
                lost_bytes += len;
                lost_segs += 1;
            } else if seg.seq < self.high_sacked {
                holes += 1;
            }
        }
        if let Some(start) = run_start {
            assert_eq!(runs.next(), Some(&(start, prev_end)), "run index drift");
        }
        assert_eq!(prev_end, self.snd_nxt, "snd_nxt mismatch");
        assert_eq!(
            (sacked_bytes, sacked_segs, lost_bytes),
            (self.sacked_bytes, self.sacked_segs, self.lost_bytes),
            "counters drifted from the segments"
        );
        assert!(runs.next().is_none(), "run index holds a stale run");
        assert_eq!(self.lost.len(), lost_segs, "lost set holds a stale entry");
        // As many entries as holes, each entry a hole, no entry twice
        // (strictly ascending): the index is exactly the holes, in order.
        assert_eq!(holes, self.holes.len(), "hole index size drift");
        let mut prev = None;
        for &(sent, seq) in &self.holes {
            assert!(prev < Some((sent, seq)), "hole index out of order");
            prev = Some((sent, seq));
            let seg = &self.segs[self.seg_index(seq)];
            assert!(
                seg.hole_key() == (sent, seq)
                    && seg.flags & (SACKED | LOST) == 0
                    && seq < self.high_sacked,
                "hole index entry ({sent:?}, {seq}) is not a hole"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_net::packet::SackBlock;

    const MSS: u64 = 1000;

    fn tx_at(ms: u64) -> TxRecord {
        TxRecord {
            sent_time: SimTime::from_millis(ms),
            delivered: 0,
            delivered_time: SimTime::ZERO,
            first_tx_time: SimTime::ZERO,
            app_limited: false,
        }
    }

    fn board_with(n: u64) -> Scoreboard {
        let mut b = Scoreboard::new(MSS as u32);
        for i in 0..n {
            b.on_send_new(MSS, tx_at(i));
        }
        b
    }

    fn sack(blocks: &[(u64, u64)]) -> SackBlocks {
        let mut s = SackBlocks::EMPTY;
        for &(start, end) in blocks {
            s.push(SackBlock { start, end });
        }
        s
    }

    #[test]
    fn send_tracks_snd_nxt_and_flight() {
        let b = board_with(5);
        assert_eq!(b.snd_nxt(), 5 * MSS);
        assert_eq!(b.snd_una(), 0);
        assert_eq!(b.in_flight(), 5 * MSS);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn cumulative_ack_retires_segments() {
        let mut b = board_with(5);
        let r = b.process_ack(SimTime::from_millis(100), 3 * MSS, &SackBlocks::EMPTY);
        assert_eq!(r.newly_acked, 3 * MSS);
        assert_eq!(r.newly_sacked, 0);
        assert!(r.snd_una_advanced);
        assert_eq!(b.snd_una(), 3 * MSS);
        assert_eq!(b.in_flight(), 2 * MSS);
        // RTT from the newest covered segment (sent at t=2 ms).
        assert_eq!(r.rtt_sample, Some(SimDuration::from_millis(98)));
    }

    #[test]
    fn duplicate_ack_is_inert() {
        let mut b = board_with(3);
        b.process_ack(SimTime::from_millis(10), MSS, &SackBlocks::EMPTY);
        let r = b.process_ack(SimTime::from_millis(11), MSS, &SackBlocks::EMPTY);
        assert_eq!(r.newly_acked, 0);
        assert!(!r.snd_una_advanced);
        assert!(r.rtt_sample.is_none());
        assert!(r.latest_tx.is_none());
    }

    #[test]
    fn sack_marks_segments_and_reduces_pipe() {
        let mut b = board_with(5);
        // SACK segments 2 and 3 (bytes 2000..4000).
        let r = b.process_ack(SimTime::from_millis(50), 0, &sack(&[(2 * MSS, 4 * MSS)]));
        assert_eq!(r.newly_sacked, 2 * MSS);
        assert_eq!(r.newly_acked, 2 * MSS);
        assert_eq!(b.sacked_bytes(), 2 * MSS);
        assert_eq!(b.in_flight(), 3 * MSS);
        // Re-delivering the same SACK is idempotent.
        let r2 = b.process_ack(SimTime::from_millis(51), 0, &sack(&[(2 * MSS, 4 * MSS)]));
        assert_eq!(r2.newly_acked, 0);
    }

    #[test]
    fn cumulative_ack_over_sacked_does_not_double_count() {
        let mut b = board_with(4);
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(MSS, 2 * MSS)]));
        // Now cum-ACK everything: segment 1 was already counted as sacked.
        let r = b.process_ack(SimTime::from_millis(2), 4 * MSS, &SackBlocks::EMPTY);
        assert_eq!(r.newly_acked, 3 * MSS);
        assert_eq!(b.in_flight(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn loss_detection_by_sacked_segment_count() {
        let mut b = board_with(6);
        // Segment 0 missing; 1, 2, 3 SACKed => dupthresh(3) reached.
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(MSS, 4 * MSS)]));
        let lost = b.detect_losses();
        assert_eq!(lost, MSS);
        assert_eq!(b.lost_bytes(), MSS);
        // Pipe: 6 outstanding - 3 sacked - 1 lost = 2.
        assert_eq!(b.in_flight(), 2 * MSS);
        assert_eq!(b.next_lost_below(u64::MAX), Some((0, MSS)));
    }

    #[test]
    fn loss_detection_below_threshold_holds_off() {
        let mut b = board_with(6);
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(MSS, 3 * MSS)]));
        // Only 2 segments SACKed above segment 0; FACK gap is 2 MSS < 3 MSS.
        assert_eq!(b.detect_losses(), 0);
    }

    #[test]
    fn loss_detection_by_fack_bytes() {
        let mut b = board_with(10);
        // One far-ahead SACK: segment 9 only.
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(9 * MSS, 10 * MSS)]));
        // Segment k is lost iff high_sacked(10000) >= end + 3*MSS, i.e.
        // (k+1)*1000 + 3000 <= 10000: segments 0..=6 (seven of them).
        let lost = b.detect_losses();
        assert_eq!(lost, 7 * MSS);
    }

    #[test]
    fn retransmission_returns_segment_to_flight() {
        let mut b = board_with(5);
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(MSS, 4 * MSS)]));
        b.detect_losses();
        assert_eq!(b.lost_bytes(), MSS);
        let (seq, end) = b.next_lost_below(u64::MAX).unwrap();
        assert_eq!((seq, end), (0, MSS));
        b.mark_retransmitted(seq, tx_at(100));
        assert_eq!(b.lost_bytes(), 0);
        // 5 outstanding - 3 sacked = 2 in flight (seg 0 rtx + seg 4).
        assert_eq!(b.in_flight(), 2 * MSS);
        assert!(b.next_lost_below(u64::MAX).is_none());
    }

    #[test]
    fn karn_rtt_skips_retransmitted_segments() {
        let mut b = board_with(5);
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(MSS, 4 * MSS)]));
        b.detect_losses();
        b.mark_retransmitted(0, tx_at(100));
        // Cum-ACK through seg 0 only (the retransmitted one): no RTT sample,
        // but latest_tx still reported for rate sampling.
        let r = b.process_ack(SimTime::from_millis(150), MSS, &SackBlocks::EMPTY);
        assert!(r.rtt_sample.is_none());
        assert_eq!(r.latest_tx.unwrap().sent_time, SimTime::from_millis(100));
        assert_eq!(r.newly_acked, MSS);
    }

    #[test]
    fn mark_all_lost_on_rto() {
        let mut b = board_with(4);
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(2 * MSS, 3 * MSS)]));
        let lost = b.mark_all_lost();
        assert_eq!(lost, 3 * MSS); // all but the sacked one
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn retransmitted_segment_can_be_lost_again_with_fresh_evidence() {
        let mut b = board_with(8);
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(MSS, 4 * MSS)]));
        b.detect_losses();
        b.mark_retransmitted(0, tx_at(50));
        // Stale evidence: SACKs of segments sent *before* the rtx (t=4..7)
        // must NOT re-mark the rtx lost (RACK anchor).
        b.process_ack(SimTime::from_millis(60), 0, &sack(&[(4 * MSS, 8 * MSS)]));
        assert_eq!(b.detect_losses(), 0);
        // Fresh evidence: new data sent after the rtx gets SACKed; now the
        // rtx itself is evidently lost.
        b.on_send_new(MSS, tx_at(70)); // seq 8000..9000
        b.on_send_new(MSS, tx_at(71)); // seq 9000..10000
        b.process_ack(SimTime::from_millis(90), 0, &sack(&[(8 * MSS, 10 * MSS)]));
        let lost = b.detect_losses();
        assert_eq!(lost, MSS);
        assert_eq!(b.next_lost_below(u64::MAX), Some((0, MSS)));
    }

    #[test]
    fn dup_acks_do_not_storm_retransmissions() {
        // Regression test for the retransmit-storm bug: repeated dup-ACKs
        // carrying the same SACK blocks must not repeatedly re-mark the
        // retransmission lost.
        let mut b = board_with(8);
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(MSS, 4 * MSS)]));
        b.detect_losses();
        b.mark_retransmitted(0, tx_at(50));
        for i in 0..100 {
            b.process_ack(SimTime::from_millis(60 + i), 0, &sack(&[(MSS, 4 * MSS)]));
            assert_eq!(b.detect_losses(), 0, "re-marked on dup-ack {i}");
            assert!(b.next_lost_below(u64::MAX).is_none());
        }
    }

    #[test]
    fn cum_ack_of_lost_segment_clears_lost_bytes() {
        let mut b = board_with(5);
        b.process_ack(SimTime::from_millis(1), 0, &sack(&[(MSS, 4 * MSS)]));
        b.detect_losses();
        assert_eq!(b.lost_bytes(), MSS);
        // The "lost" segment's original copy arrives after all (late, not
        // dropped): receiver cum-ACKs through it.
        let r = b.process_ack(SimTime::from_millis(5), 4 * MSS, &SackBlocks::EMPTY);
        assert_eq!(b.lost_bytes(), 0);
        assert_eq!(r.newly_acked, MSS); // only seg 0 was unsacked
        assert_eq!(b.in_flight(), MSS); // seg 4
    }

    /// A window in recovery: segment 0 lost and retransmitted, 1..4 SACKed,
    /// 4 a hole below a second SACKed run, 8 lost and awaiting retransmission.
    fn board_in_recovery() -> Scoreboard {
        let mut b = board_with(12);
        b.process_ack(SimTime::from_millis(20), 0, &sack(&[(MSS, 4 * MSS)]));
        assert_eq!(b.detect_losses(), MSS);
        b.mark_retransmitted(0, tx_at(30));
        b.process_ack(
            SimTime::from_millis(40),
            0,
            &sack(&[(5 * MSS, 8 * MSS), (9 * MSS, 12 * MSS)]),
        );
        assert_eq!(b.detect_losses(), 2 * MSS); // 4 and 8; 0 is too fresh
        b.mark_retransmitted(4 * MSS, tx_at(50));
        b
    }

    fn lost_seqs(b: &Scoreboard) -> Vec<u64> {
        b.lost
            .iter()
            .map(|ord| b.segs[(ord - b.front_ord) as usize].seq)
            .collect()
    }

    fn saved(b: &Scoreboard) -> Vec<u8> {
        let mut w = SnapWriter::new();
        b.save_state(&mut w);
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<Scoreboard, SnapError> {
        let mut b = Scoreboard::new(MSS as u32);
        b.load_state(&mut SnapReader::new(bytes))?;
        Ok(b)
    }

    // Checkpoint layout: a u64 count, 52 bytes per segment (sacked / lost
    // flags at +49 / +50), then snd_una, snd_nxt, sacked_bytes (u64 each),
    // sacked_segs (u32), lost_bytes, high_sacked, anchor (u64 each).
    const SEG_BYTES: usize = 52;
    const TAIL_BYTES: usize = 52;

    fn with_tail_u64(bytes: &[u8], offset: usize, f: impl Fn(u64) -> u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let at = bytes.len() - TAIL_BYTES + offset;
        let v = u64::from_le_bytes(out[at..at + 8].try_into().unwrap());
        out[at..at + 8].copy_from_slice(&f(v).to_le_bytes());
        out
    }

    #[test]
    fn next_lost_is_the_lowest_and_honours_the_limit() {
        let b = board_in_recovery();
        assert_eq!(b.next_lost_below(u64::MAX), Some((8 * MSS, 9 * MSS)));
        assert_eq!(b.next_lost_below(8 * MSS + 1), Some((8 * MSS, 9 * MSS)));
        assert_eq!(b.next_lost_below(8 * MSS), None);
    }

    #[test]
    fn repeated_and_bridging_sack_blocks_count_each_segment_once() {
        let mut b = board_with(10);
        b.process_ack(
            SimTime::from_millis(20),
            0,
            &sack(&[(2 * MSS, 3 * MSS), (6 * MSS, 8 * MSS)]),
        );
        assert_eq!(b.sacked_bytes(), 3 * MSS);
        // One block bridging both runs and the gap between them: only the
        // three segments of the gap are new.
        let r = b.process_ack(SimTime::from_millis(21), 0, &sack(&[(MSS, 9 * MSS)]));
        assert_eq!(r.newly_sacked, 5 * MSS);
        assert_eq!(b.sacked_bytes(), 8 * MSS);
        assert_eq!(b.runs, [(MSS, 9 * MSS)]);
        // Old coverage again, whole and in part: nothing new.
        let r = b.process_ack(
            SimTime::from_millis(22),
            0,
            &sack(&[(MSS, 9 * MSS), (3 * MSS, 5 * MSS)]),
        );
        assert_eq!((r.newly_acked, r.rtt_sample, r.latest_tx), (0, None, None));
        // A cumulative ACK into the run trims it.
        b.process_ack(SimTime::from_millis(23), 4 * MSS, &SackBlocks::EMPTY);
        assert_eq!(b.runs, [(4 * MSS, 9 * MSS)]);
        assert_eq!(b.sacked_bytes(), 5 * MSS);
    }

    #[test]
    fn short_final_segment_counts_as_a_whole_dup_ack() {
        // Five full segments and a 100-byte tail. With 3, 4 and the tail
        // SACKed, three segments lie above segment 2 (count rule) though
        // only 2 100 bytes do (byte rule fails): 2 is lost, 0 and 1 are too.
        let mut b = board_with(5);
        b.on_send_new(100, tx_at(5));
        b.process_ack(
            SimTime::from_millis(20),
            0,
            &sack(&[(3 * MSS, 5 * MSS + 100)]),
        );
        assert_eq!(b.detect_losses(), 3 * MSS);
        // With only 4 and the tail SACKed the count rule reaches nobody and
        // the byte rule (5 100 − 3 000) reaches 0 and 1.
        let mut b = board_with(5);
        b.on_send_new(100, tx_at(5));
        b.process_ack(
            SimTime::from_millis(20),
            0,
            &sack(&[(4 * MSS, 5 * MSS + 100)]),
        );
        assert_eq!(b.detect_losses(), 2 * MSS);
        // The tail itself can be lost, found and retransmitted.
        assert_eq!(b.mark_all_lost(), 2 * MSS);
        while let Some((seq, _)) = b.next_lost_below(u64::MAX) {
            b.mark_retransmitted(seq, tx_at(30));
        }
        b.on_send_new(MSS, tx_at(31)); // seq 5100: past a short segment
        b.process_ack(
            SimTime::from_millis(40),
            0,
            &sack(&[(5 * MSS + 100, 6 * MSS + 100)]),
        );
        assert_eq!(b.sacked_bytes(), 2 * MSS + 100);
    }

    #[test]
    #[should_panic(expected = "retransmitting a live segment")]
    fn retransmitting_a_live_segment_panics_in_every_build() {
        let mut b = board_with(3);
        b.mark_retransmitted(MSS, tx_at(10));
    }

    #[test]
    fn checkpoint_round_trip_mid_recovery_rebuilds_the_indexes() {
        let b = board_in_recovery();
        let bytes = saved(&b);
        let mut restored = load(&bytes).expect("own checkpoint loads");
        assert_eq!(saved(&restored), bytes);
        assert_eq!(
            (lost_seqs(&restored), &restored.runs, &restored.holes),
            (lost_seqs(&b), &b.runs, &b.holes)
        );
        // Both carry on identically: fresh evidence condemns the two
        // retransmissions, the next ACK retires most of the window.
        let mut b = b;
        for board in [&mut b, &mut restored] {
            board.on_send_new(MSS, tx_at(60));
            board.process_ack(SimTime::from_millis(70), 0, &sack(&[(12 * MSS, 13 * MSS)]));
            assert_eq!(board.detect_losses(), 2 * MSS);
            board.process_ack(SimTime::from_millis(71), 8 * MSS, &SackBlocks::EMPTY);
        }
        assert_eq!(saved(&restored), saved(&b));
    }

    #[test]
    fn load_state_rejects_snapshots_that_contradict_themselves() {
        let bytes = saved(&board_in_recovery());
        let seg_flag = |seg: usize, flag: usize| 8 + seg * SEG_BYTES + 49 + flag;
        let with_byte = |at: usize, v: u8| {
            let mut out = bytes.clone();
            out[at] = v;
            out
        };
        let doctored = [
            (
                "front.seq != snd_una",
                with_tail_u64(&bytes, 0, |v| v + MSS),
            ),
            ("back.end != snd_nxt", with_tail_u64(&bytes, 8, |v| v + MSS)),
            ("sacked_bytes high", with_tail_u64(&bytes, 16, |v| v + MSS)),
            ("sacked_bytes low", with_tail_u64(&bytes, 16, |v| v - MSS)),
            // sacked_segs is the low half of the u64 at +24.
            ("sacked_segs", with_tail_u64(&bytes, 24, |v| v + 1)),
            ("lost_bytes", with_tail_u64(&bytes, 28, |v| v + MSS)),
            (
                "high_sacked > snd_nxt",
                with_tail_u64(&bytes, 36, |_| 13 * MSS),
            ),
            (
                "SACKed above high_sacked",
                with_tail_u64(&bytes, 36, |_| 11 * MSS),
            ),
            ("SACKed flag dropped", with_byte(seg_flag(2, 0), 0)),
            ("lost flag dropped", with_byte(seg_flag(8, 1), 0)),
            ("SACKed and lost", with_byte(seg_flag(8, 0), 1)),
        ];
        for (what, bytes) in doctored {
            match load(&bytes) {
                Err(SnapError::Corrupt(_)) => {}
                other => panic!("{what}: want Corrupt, got {other:?}"),
            }
        }
        // A failed load leaves the scoreboard as it was.
        let mut b = board_with(2);
        let before = saved(&b);
        assert!(b
            .load_state(&mut SnapReader::new(&with_tail_u64(&bytes, 16, |v| v + 1)))
            .is_err());
        assert_eq!(saved(&b), before);
    }

    #[test]
    fn memory_accounting_covers_the_indexes_and_deflates_with_the_window() {
        let mut b = board_with(1024);
        let segs_only = b.memory_bytes();
        // Every other segment SACKed: 511 runs, 512 holes, then 509 lost.
        for i in (1..1024).step_by(2) {
            b.process_ack(SimTime::from_secs(2), 0, &sack(&[(i * MSS, (i + 1) * MSS)]));
        }
        assert!(b.detect_losses() > 0);
        let indexed = b.memory_bytes();
        assert!(
            indexed >= segs_only + 511 * 16 + 509 / 64 * 8,
            "indexes not accounted: {segs_only} -> {indexed}"
        );
        // The window collapses: segment and index capacity both go.
        b.process_ack(SimTime::from_secs(3), 1024 * MSS, &SackBlocks::EMPTY);
        assert!(b.memory_bytes() < 1024, "{} B still held", b.memory_bytes());
        assert_eq!(
            (b.lost.memory_bytes(), b.runs.capacity(), b.holes.capacity()),
            (0, 0, 0)
        );
    }
}
