//! The scoreboard's bitmap lost set against the sorted deque it replaced,
//! driven in lock-step through the way the scoreboard uses it: segments
//! numbered by ordinal as they are sent (a ragged final segment included),
//! losses detected anywhere in the window — among them retransmissions
//! re-lost below every other lost segment, the retransmit-and-drop-again
//! storm that made the deque shift — retransmission of the first lost
//! segment, cumulative ACKs retiring the front, SACK ranges clearing lost
//! segments, an RTO marking everything un-SACKed lost, and checkpoint hops
//! that rebuild the bitmap with ordinals restarting at 0. Bursts of up to
//! 40 segments keep windows crossing 64-ordinal words. After every step the
//! two sets hold the same segments and agree on the first.
//!
//! Mutation check: with `LostSet::remove`'s leading-zero-word trim deleted,
//! `first()` reads an emptied front word and names an ordinal outside the
//! window; this test fails on its first generated case.

use ccsim::tcp::lost::LostSet;
use proptest::prelude::*;
use std::collections::VecDeque;

#[path = "support/lost_oracle.rs"]
mod oracle;

const MSS: u64 = 1000;

#[derive(Clone, Copy)]
struct Seg {
    seq: u64,
    len: u64,
    sacked: bool,
    lost: bool,
}

/// A sender's outstanding window with both lost sets beside it.
#[derive(Default)]
struct Window {
    segs: VecDeque<Seg>,
    /// Ordinal of `segs[0]`.
    front_ord: u64,
    snd_nxt: u64,
    finished: bool,
    bitmap: LostSet,
    oracle: oracle::SortedLost,
}

impl Window {
    fn send(&mut self, len: u64) {
        self.segs.push_back(Seg {
            seq: self.snd_nxt,
            len,
            sacked: false,
            lost: false,
        });
        self.snd_nxt += len;
    }

    fn mark_lost(&mut self, at: usize) {
        let seg = &mut self.segs[at];
        if seg.sacked || seg.lost {
            return;
        }
        seg.lost = true;
        self.bitmap.insert(self.front_ord + at as u64);
        self.oracle.insert(seg.seq);
    }

    /// Loss detection: up to `n` in-flight segments from `at` on.
    fn detect(&mut self, at: usize, n: usize) {
        for i in (at..self.segs.len()).take(n) {
            self.mark_lost(i);
        }
    }

    /// The storm: the lowest in-flight segment (typically a retransmission)
    /// is lost again, below the lost segments still waiting.
    fn relose_lowest(&mut self) {
        if let Some(at) = self.segs.iter().position(|s| !s.sacked && !s.lost) {
            self.mark_lost(at);
        }
    }

    fn retransmit_first(&mut self) {
        let Some(ord) = self.bitmap.first() else {
            return;
        };
        let seg = &mut self.segs[(ord - self.front_ord) as usize];
        seg.lost = false;
        self.bitmap.remove(ord);
        self.oracle.remove(seg.seq);
    }

    fn cum_ack(&mut self, n: usize) {
        for _ in 0..n.min(self.segs.len()) {
            let seg = self.segs.pop_front().expect("front exists");
            if seg.lost {
                self.bitmap.remove(self.front_ord);
                self.oracle.remove(seg.seq);
            }
            self.front_ord += 1;
        }
    }

    fn sack(&mut self, from: usize, to: usize) {
        for i in from..to {
            let seg = &mut self.segs[i];
            seg.sacked = true;
            if seg.lost {
                seg.lost = false;
                self.bitmap.remove(self.front_ord + i as u64);
            }
        }
        let (start, last) = (self.segs[from], self.segs[to - 1]);
        self.oracle.remove_range(start.seq, last.seq + last.len);
    }

    fn rto(&mut self) {
        self.bitmap.clear();
        self.oracle.0.clear();
        for (ord, seg) in (self.front_ord..).zip(self.segs.iter_mut()) {
            if !seg.sacked {
                seg.lost = true;
                self.bitmap.insert(ord);
                self.oracle.0.push_back(seg.seq);
            }
        }
    }

    /// Restore from a checkpoint: the bitmap is derived state, rebuilt
    /// from the segments with `segs[0]` as ordinal 0.
    fn hop(&mut self) {
        self.front_ord = 0;
        self.bitmap = LostSet::new();
        for (ord, seg) in (0..).zip(&self.segs) {
            if seg.lost {
                self.bitmap.insert(ord);
            }
        }
    }

    /// Start sequence of the segment with ordinal `ord`.
    fn seq_of(&self, ord: u64, step: usize) -> u64 {
        ord.checked_sub(self.front_ord)
            .and_then(|at| self.segs.get(at as usize))
            .unwrap_or_else(|| panic!("step {step}: ordinal {ord} outside the window"))
            .seq
    }

    fn assert_same(&self, step: usize) {
        let members: Vec<u64> = self.bitmap.iter().map(|o| self.seq_of(o, step)).collect();
        assert_eq!(
            members,
            Vec::from(self.oracle.0.clone()),
            "step {step}: members"
        );
        let first = self.bitmap.first().map(|o| self.seq_of(o, step));
        assert_eq!(first, self.oracle.first(), "step {step}: first");
        assert_eq!(self.bitmap.len(), self.oracle.0.len(), "step {step}: len");
        assert_eq!(self.bitmap.is_empty(), self.oracle.0.is_empty());
        let flagged = self.segs.iter().filter(|s| s.lost).count();
        assert_eq!(flagged, self.oracle.0.len(), "step {step}: flags");
    }
}

proptest! {
    #[test]
    fn bitmap_lost_set_matches_the_sorted_deque(
        ops in prop::collection::vec((0u8..11, 0u64..u64::MAX), 1..300),
        finish_after in 0usize..400,
    ) {
        let mut w = Window::default();
        for (step, (op, r)) in ops.into_iter().enumerate() {
            let len = w.segs.len();
            match op {
                // A burst of new data; past `finish_after`, the flow's
                // short final segment ends it.
                0..=2 if !w.finished => {
                    for _ in 0..1 + r % 40 {
                        w.send(MSS);
                    }
                    if step >= finish_after {
                        w.send(1 + (r >> 8) % (MSS - 1));
                        w.finished = true;
                    }
                }
                3 | 4 if len > 0 => w.detect((r >> 8) as usize % len, 1 + (r >> 24) as usize % 8),
                5 => w.relose_lowest(),
                6 => {
                    for _ in 0..1 + r % 3 {
                        w.retransmit_first();
                    }
                }
                7 => w.cum_ack((r >> 8) as usize % (len + 1)),
                8 if len > 0 => {
                    let from = (r >> 8) as usize % len;
                    let to = (from + 1 + (r >> 24) as usize % 16).min(len);
                    w.sack(from, to);
                }
                9 => {
                    if r & 3 == 0 {
                        w.rto();
                    } else {
                        w.hop();
                    }
                }
                _ => w.retransmit_first(),
            }
            w.assert_same(step);
        }
    }
}
