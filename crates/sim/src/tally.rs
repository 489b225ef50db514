//! A plain log2-bucket tally: the one definition of the bucket rule the
//! components count into, the Prometheus dump's histograms are written
//! from, and the campaign report's sparklines and quantiles read.
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

    /// Index of the highest non-empty bucket, if any observation exists.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket containing the target rank. The estimate is
    /// exact for bucket boundaries and at worst off by the bucket width —
    /// the usual Prometheus-style reconstruction. Returns `None` on an
    /// empty tally.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q = 0 maps to rank 1.
        let rank = (q * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = seen + c;
            if (upto as f64) >= rank {
                // Bucket k spans [lower, upper]: [0,0] for k = 0, else
                // [2^(k-1), 2^k - 1].
                let lower = match k {
                    0 => 0.0,
                    k => (Self::bucket_upper_bound(k - 1) + 1) as f64,
                };
                let upper = Self::bucket_upper_bound(k) as f64;
                let frac = (rank - seen as f64) / c as f64;
                return Some(lower + (upper - lower) * frac.clamp(0.0, 1.0));
            }
            seen = upto;
        }
        Some(Self::bucket_upper_bound(LOG2_BUCKETS - 1) as f64)
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
        assert_eq!(t.max_bucket(), Some(64));
        assert_eq!(Log2Tally::default().max_bucket(), None);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut t = Log2Tally::default();
        assert_eq!(t.quantile(0.5), None);

        // 100 observations spread across buckets 4 ([8,15]) and 7 ([64,127]).
        for _ in 0..90 {
            t.record(10);
        }
        for _ in 0..10 {
            t.record(100);
        }
        let p50 = t.quantile(0.50).unwrap();
        assert!((8.0..=15.0).contains(&p50), "p50 = {p50}");
        let p90 = t.quantile(0.90).unwrap();
        assert!((8.0..=15.0).contains(&p90), "p90 = {p90}");
        let p99 = t.quantile(0.99).unwrap();
        assert!((64.0..=127.0).contains(&p99), "p99 = {p99}");
        // Monotone in q, and the extremes land in the extreme buckets.
        assert!(p50 <= p90 && p90 <= p99);
        assert!(t.quantile(0.0).unwrap() <= p50);
        assert!(t.quantile(1.0).unwrap() >= p99);
    }
}
