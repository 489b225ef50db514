//! Test-only reference scoreboard: the linear-scan implementation that
//! `ccsim_tcp::scoreboard` replaced with indexed lookups, kept verbatim
//! (imports aside) so `proptest_invariants.rs` can check the indexed one
//! against it step by step. Every query here walks the segment deque, so
//! it is obviously right and O(window) per ACK — do not "optimise" it.

#![allow(dead_code)]

use ccsim::net::packet::SackBlocks;
use ccsim::sim::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};
use ccsim::tcp::rate::TxRecord;
use std::collections::VecDeque;

/// One outstanding segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// First byte.
    pub seq: u64,
    /// One past the last byte.
    pub end: u64,
    /// Delivery snapshot from the most recent (re)transmission.
    pub tx: TxRecord,
    /// Selectively acknowledged.
    pub sacked: bool,
    /// Declared lost (and not since retransmitted).
    pub lost: bool,
    /// Ever retransmitted (Karn's rule: no RTT samples from these).
    pub retransmitted: bool,
}

impl Segment {
    #[inline]
    fn len(&self) -> u64 {
        self.end - self.seq
    }

    /// Serialize for a checkpoint.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.seq);
        w.u64(self.end);
        self.tx.save_state(w);
        w.bool(self.sacked);
        w.bool(self.lost);
        w.bool(self.retransmitted);
    }

    /// Deserialize a segment written by [`Segment::save_state`].
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<Segment, SnapError> {
        let seq = r.u64()?;
        let end = r.u64()?;
        if end <= seq {
            return Err(SnapError::Corrupt(format!(
                "segment range [{seq}, {end}) is empty or inverted"
            )));
        }
        Ok(Segment {
            seq,
            end,
            tx: TxRecord::load_state(r)?,
            sacked: r.bool()?,
            lost: r.bool()?,
            retransmitted: r.bool()?,
        })
    }
}

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

/// The scoreboard proper.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    segs: VecDeque<Segment>,
    snd_una: u64,
    snd_nxt: u64,
    sacked_bytes: u64,
    /// Count of currently SACKed segments (kept incrementally for O(1)
    /// loss-detection thresholds).
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
}

impl Scoreboard {
    /// Fresh scoreboard starting at sequence 0.
    pub fn new(mss: u32) -> Scoreboard {
        Scoreboard {
            segs: VecDeque::new(),
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

    /// Approximate heap footprint: the segment deque's allocated capacity
    /// at its in-memory entry size, plus the struct itself. The dominant
    /// per-flow cost at scale; feeds the profiler's `tcp/senders` account.
    pub fn memory_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.segs.capacity() * std::mem::size_of::<Segment>()) as u64
    }

    /// Serialize the full scoreboard state for a checkpoint (`mss` and
    /// `dupthresh` are configuration). Segments are written in deque
    /// order, which is sequence order by construction.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.segs.len());
        for seg in &self.segs {
            seg.save_state(w);
        }
        w.u64(self.snd_una);
        w.u64(self.snd_nxt);
        w.u64(self.sacked_bytes);
        w.u32(self.sacked_segs);
        w.u64(self.lost_bytes);
        w.u64(self.high_sacked);
        w.time(self.delivered_latest_sent);
    }

    /// Overlay checkpointed state onto a scoreboard built with the same
    /// configuration.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: r.remaining(),
            });
        }
        let mut segs = VecDeque::with_capacity(n);
        let mut prev_end = 0u64;
        for _ in 0..n {
            let seg = Segment::load_state(r)?;
            if seg.seq < prev_end {
                return Err(SnapError::Corrupt(format!(
                    "scoreboard segments out of order: {} after end {}",
                    seg.seq, prev_end
                )));
            }
            prev_end = seg.end;
            segs.push_back(seg);
        }
        self.segs = segs;
        self.snd_una = r.u64()?;
        self.snd_nxt = r.u64()?;
        self.sacked_bytes = r.u64()?;
        self.sacked_segs = r.u32()?;
        self.lost_bytes = r.u64()?;
        self.high_sacked = r.u64()?;
        self.delivered_latest_sent = r.time()?;
        if self.snd_una > self.snd_nxt {
            return Err(SnapError::Corrupt(format!(
                "snd_una {} beyond snd_nxt {}",
                self.snd_una, self.snd_nxt
            )));
        }
        Ok(())
    }

    /// Record transmission of new data `[snd_nxt, snd_nxt + len)`.
    pub fn on_send_new(&mut self, len: u64, tx: TxRecord) {
        debug_assert!(len > 0);
        let seq = self.snd_nxt;
        self.snd_nxt += len;
        self.segs.push_back(Segment {
            seq,
            end: seq + len,
            tx,
            sacked: false,
            lost: false,
            retransmitted: false,
        });
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
        let mut latest_sent = SimTime::ZERO;
        let mut latest_clean_sent: Option<SimTime> = None;

        // 1. Cumulative ACK: retire fully covered segments.
        if ack_seq > self.snd_una {
            debug_assert!(ack_seq <= self.snd_nxt, "ACK beyond snd_nxt");
            res.snd_una_advanced = true;
            while let Some(front) = self.segs.front() {
                if front.end > ack_seq {
                    break;
                }
                let seg = self.segs.pop_front().expect("front exists");
                debug_assert!(seg.end <= ack_seq);
                if seg.sacked {
                    self.sacked_bytes -= seg.len();
                    self.sacked_segs -= 1;
                } else {
                    res.newly_acked += seg.len();
                    if seg.lost {
                        // Cumulative ACK of a segment still marked lost
                        // (e.g. the retransmission we never saw SACKed).
                        self.lost_bytes -= seg.len();
                    }
                    Self::note_covered(&seg, &mut latest_sent, &mut latest_clean_sent, &mut res);
                }
            }
            debug_assert!(
                self.segs.front().is_none_or(|s| s.seq >= ack_seq),
                "cumulative ACK inside a segment"
            );
            self.snd_una = ack_seq;
            // Deflate stranded capacity after a window collapse. AIMD
            // halving never gets near the 8x threshold, so the sawtooth
            // steady state keeps its buffer; only an RTO-style collapse
            // (megascale flows park at 1-2 segments after the start-up
            // overshoot) pays one shrink, bounding the per-flow footprint.
            if self.segs.capacity() > 8 && self.segs.capacity() / 8 >= self.segs.len().max(1) {
                self.segs.shrink_to(self.segs.len().max(4) * 2);
            }
        }

        // 2. SACK blocks: mark newly covered segments.
        for block in sack.as_slice() {
            if block.end <= self.snd_una {
                continue;
            }
            self.high_sacked = self.high_sacked.max(block.end);
            // Segments are seq-sorted and contiguous: binary-search the
            // first one the block touches instead of scanning from the
            // front (SACK blocks arrive on every dup-ACK).
            let start_idx = self.segs.partition_point(|s| s.end <= block.start);
            for seg in self.segs.range_mut(start_idx..) {
                if seg.seq >= block.end {
                    break;
                }
                // Segment overlaps the block; receivers SACK whole
                // segments, so overlap means containment.
                debug_assert!(
                    seg.seq >= block.start && seg.end <= block.end,
                    "SACK block splits a segment"
                );
                if !seg.sacked {
                    seg.sacked = true;
                    self.sacked_bytes += seg.len();
                    self.sacked_segs += 1;
                    if seg.lost {
                        seg.lost = false;
                        self.lost_bytes -= seg.len();
                    }
                    res.newly_acked += seg.len();
                    res.newly_sacked += seg.len();
                    Self::note_covered(seg, &mut latest_sent, &mut latest_clean_sent, &mut res);
                }
            }
        }

        if let Some(sent) = latest_clean_sent {
            res.rtt_sample = Some(now.saturating_since(sent));
        }
        if let Some(tx) = &res.latest_tx {
            self.delivered_latest_sent = self.delivered_latest_sent.max(tx.sent_time);
        }
        self.debug_check();
        res
    }

    fn note_covered(
        seg: &Segment,
        latest_sent: &mut SimTime,
        latest_clean_sent: &mut Option<SimTime>,
        res: &mut AckResult,
    ) {
        if res.latest_tx.is_none() || seg.tx.sent_time >= *latest_sent {
            *latest_sent = seg.tx.sent_time;
            res.latest_tx = Some(seg.tx);
        }
        if !seg.retransmitted && latest_clean_sent.is_none_or(|t| seg.tx.sent_time >= t) {
            *latest_clean_sent = Some(seg.tx.sent_time);
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
        // Both rules are monotone along the scoreboard: the count of SACKed
        // segments above position i is non-increasing in i, and the FACK
        // byte gap shrinks as `end` grows. So losses form a prefix of the
        // unmarked segments and the walk stops at the first survivor —
        // no per-ACK allocation, O(marked prefix + 1).
        let total_sacked_segs = self.sacked_segs;
        let mut sacked_seen: u32 = 0;
        let mut newly_lost = 0;
        let fack_margin = self.dupthresh as u64 * self.mss as u64;
        for seg in self.segs.iter_mut() {
            if seg.seq >= self.high_sacked {
                break; // nothing SACKed above; later segs can't be lost yet
            }
            if seg.sacked {
                sacked_seen += 1;
                continue;
            }
            if seg.lost {
                continue;
            }
            let by_count = total_sacked_segs - sacked_seen >= self.dupthresh;
            let by_bytes = self.high_sacked >= seg.end + fack_margin;
            if !(by_count || by_bytes) {
                // The dupthresh rules are monotone along the scoreboard:
                // once they fail, they fail for everything later too.
                break;
            }
            // RACK anchor: evidence must STRICTLY postdate this
            // transmission. Same-instant comparisons matter: a batch of
            // retransmissions shares one timestamp, and the delivery of one
            // must not condemn its batch-mates (that caused an unbounded
            // retransmit storm; see dup_acks_do_not_storm_retransmissions).
            if seg.tx.sent_time >= self.delivered_latest_sent {
                continue;
            }
            seg.lost = true;
            newly_lost += seg.len();
        }
        self.lost_bytes += newly_lost;
        self.debug_check();
        newly_lost
    }

    /// On RTO: everything outstanding and un-SACKed is presumed lost.
    /// Returns bytes newly marked lost.
    pub fn mark_all_lost(&mut self) -> u64 {
        let mut newly_lost = 0;
        for seg in self.segs.iter_mut() {
            if !seg.sacked && !seg.lost {
                seg.lost = true;
                newly_lost += seg.len();
            }
        }
        self.lost_bytes += newly_lost;
        self.debug_check();
        newly_lost
    }

    /// The first lost, un-SACKed segment with `seq < limit`, if any —
    /// the next retransmission candidate (RFC 6675 NextSeg rule 1).
    ///
    /// O(1) when nothing is marked lost (the overwhelmingly common case on
    /// the transmission path); otherwise O(prefix up to the first loss).
    pub fn next_lost_below(&self, limit: u64) -> Option<(u64, u64)> {
        if self.lost_bytes == 0 {
            return None;
        }
        self.segs
            .iter()
            .find(|s| s.lost && !s.sacked && s.seq < limit)
            .map(|s| (s.seq, s.end))
    }

    /// Record retransmission of the segment starting at `seq`: it returns
    /// to flight with a fresh delivery snapshot.
    ///
    /// # Panics
    /// Panics if no lost segment starts at `seq`.
    pub fn mark_retransmitted(&mut self, seq: u64, tx: TxRecord) {
        let seg = self
            .segs
            .iter_mut()
            .find(|s| s.seq == seq)
            .expect("retransmitting unknown segment");
        debug_assert!(seg.lost && !seg.sacked, "retransmitting a live segment");
        seg.lost = false;
        seg.retransmitted = true;
        seg.tx = tx;
        self.lost_bytes -= seg.len();
        self.debug_check();
    }

    #[cfg(debug_assertions)]
    fn debug_check(&self) {
        let mut sacked = 0;
        let mut lost = 0;
        let mut prev_end = self.snd_una;
        for seg in &self.segs {
            assert_eq!(seg.seq, prev_end, "scoreboard gap");
            assert!(!(seg.sacked && seg.lost), "segment both sacked and lost");
            prev_end = seg.end;
            if seg.sacked {
                sacked += seg.len();
            }
            if seg.lost {
                lost += seg.len();
            }
        }
        assert_eq!(prev_end, self.snd_nxt, "snd_nxt mismatch");
        assert_eq!(sacked, self.sacked_bytes, "sacked_bytes drift");
        assert_eq!(
            self.segs.iter().filter(|s| s.sacked).count() as u32,
            self.sacked_segs,
            "sacked_segs drift"
        );
        assert_eq!(lost, self.lost_bytes, "lost_bytes drift");
    }

    #[cfg(not(debug_assertions))]
    fn debug_check(&self) {}
}
