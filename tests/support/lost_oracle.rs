//! Test-only reference lost set: the sorted deque of start sequences that
//! `ccsim_tcp::lost::LostSet` replaced in the scoreboard, with the insert,
//! remove and range-drain code it used, kept verbatim (names aside) so
//! `proptest_lost_set.rs` can check the bitmap against it step by step.

use std::collections::VecDeque;

/// Start sequences of the lost segments, ascending.
#[derive(Debug, Default)]
pub struct SortedLost(pub VecDeque<u64>);

impl SortedLost {
    /// Insert `key`. Appending is the common case; `VecDeque::insert`
    /// shifts the shorter side otherwise.
    pub fn insert(&mut self, key: u64) {
        let q = &mut self.0;
        match q.back() {
            Some(&back) if key < back => {
                let at = q.partition_point(|&k| k < key);
                q.insert(at, key);
            }
            _ => q.push_back(key),
        }
    }

    /// Remove `key`, which the set holds; leaving from the front is the
    /// common case.
    pub fn remove(&mut self, key: u64) {
        let q = &mut self.0;
        let at = if q.front() == Some(&key) {
            0
        } else {
            q.partition_point(|&k| k < key)
        };
        assert_eq!(q.get(at), Some(&key), "oracle lost an entry");
        q.remove(at);
    }

    /// Every member in `[start, end)` was just SACKed: one range goes.
    pub fn remove_range(&mut self, start: u64, end: u64) {
        let from = self.0.partition_point(|&seq| seq < start);
        let to = self.0.partition_point(|&seq| seq < end);
        self.0.drain(from..to);
    }

    /// The next retransmission candidate.
    pub fn first(&self) -> Option<u64> {
        self.0.front().copied()
    }
}
