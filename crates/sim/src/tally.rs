//! A plain log2-bucket tally: the one definition of the bucket rule the
//! components count into and the metric registry's histograms load from.
//!
//! Bucket `k` counts values of bit length `k`: bucket 0 holds only zeros,
//! bucket 1 holds `{1}`, bucket 2 holds `{2, 3}`, bucket `k` holds
//! `[2^(k-1), 2^k)`, so `u64::MAX` lands in bucket 64. Exponential buckets
//! cover the full `u64` range in 65 slots with constant-time
//! classification (one `leading_zeros`), which is what queue occupancies
//! and wall-clock latencies need: the interesting structure spans many
//! orders of magnitude.
//!
//! A tally is plain `u64`s owned by whoever counts, so recording is three
//! adds with no atomics and no shared state.

/// Number of buckets in a [`Log2Tally`].
pub const LOG2_BUCKETS: usize = 65;

/// Count, wrapping sum, and per-bucket counts of a stream of `u64`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Tally {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations (wrapping on overflow).
    pub sum: u64,
    /// Per-bucket (non-cumulative) counts.
    pub buckets: [u64; LOG2_BUCKETS],
}

impl Default for Log2Tally {
    fn default() -> Self {
        Log2Tally {
            count: 0,
            sum: 0,
            buckets: [0; LOG2_BUCKETS],
        }
    }
}

impl Log2Tally {
    /// The bucket index for `v`: its bit length (0 for 0).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `k` (`2^k - 1`; `u64::MAX`
    /// for the last bucket).
    pub fn bucket_upper_bound(k: usize) -> u64 {
        debug_assert!(k < LOG2_BUCKETS);
        if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Tally::bucket_index(0), 0);
        assert_eq!(Log2Tally::bucket_index(1), 1);
        assert_eq!(Log2Tally::bucket_index(2), 2);
        assert_eq!(Log2Tally::bucket_index(3), 2);
        assert_eq!(Log2Tally::bucket_index(4), 3);
        assert_eq!(Log2Tally::bucket_index(u64::MAX), 64);
        assert_eq!(Log2Tally::bucket_upper_bound(0), 0);
        assert_eq!(Log2Tally::bucket_upper_bound(3), 7);
        assert_eq!(Log2Tally::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn records_count_sum_and_buckets() {
        let mut t = Log2Tally::default();
        for v in [0, 1, 2, 3, 100, u64::MAX] {
            t.record(v);
        }
        assert_eq!(t.count, 6);
        // 106 + u64::MAX wraps to 105.
        assert_eq!(t.sum, 105);
        assert_eq!(t.buckets[2], 2);
        assert_eq!(t.buckets[7], 1);
        assert_eq!(t.buckets[64], 1);
    }
}
