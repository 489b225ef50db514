//! Property tests for the log2-bucket rule of [`Log2Tally`]: every value
//! lands in the bucket whose range contains it, and recording keeps
//! count, sum and buckets consistent.

use ccsim_sim::Log2Tally;
use proptest::prelude::*;

proptest! {
    /// Bucket `k` holds exactly `[2^(k-1), 2^k)`, with bucket 0 reserved
    /// for zero: every value lands in the bucket whose range contains it.
    #[test]
    fn bucket_index_brackets_value(v in 0u64..=u64::MAX) {
        let k = Log2Tally::bucket_index(v);
        if v == 0 {
            prop_assert_eq!(k, 0);
        } else {
            prop_assert!(1u64.checked_shl(k as u32 - 1).unwrap() <= v);
            if k < 64 {
                prop_assert!(v < (1u64 << k));
            }
        }
    }

    /// `bucket_upper_bound` is the inclusive boundary consistent with
    /// `bucket_index`: `v <= upper(k)` and `v > upper(k-1)`.
    #[test]
    fn bucket_bounds_are_inclusive_and_tight(v in 0u64..=u64::MAX) {
        let k = Log2Tally::bucket_index(v);
        prop_assert!(v <= Log2Tally::bucket_upper_bound(k));
        if k > 0 {
            prop_assert!(v > Log2Tally::bucket_upper_bound(k - 1));
        }
    }

    /// Boundary values straddle buckets exactly: `2^k - 1` is the last
    /// value of bucket `k` and `2^k` the first of bucket `k + 1`.
    #[test]
    fn powers_of_two_straddle_buckets(k in 1u32..64) {
        let boundary = 1u64 << k;
        prop_assert_eq!(Log2Tally::bucket_index(boundary - 1), k as usize);
        prop_assert_eq!(Log2Tally::bucket_index(boundary), k as usize + 1);
        prop_assert_eq!(Log2Tally::bucket_upper_bound(k as usize), boundary - 1);
    }

    /// Recording any set of values keeps count/sum/buckets consistent:
    /// count equals the number of observations, the buckets partition
    /// them, sum matches (wrapping, like the implementation), and the
    /// highest non-empty bucket is the maximum's.
    #[test]
    fn tally_accounting_is_exact(values in prop::collection::vec(0u64..=u64::MAX, 0..200)) {
        let mut t = Log2Tally::default();
        let mut expect_sum = 0u64;
        for &v in &values {
            t.record(v);
            expect_sum = expect_sum.wrapping_add(v);
        }
        prop_assert_eq!(t.count, values.len() as u64);
        prop_assert_eq!(t.sum, expect_sum);
        prop_assert_eq!(t.buckets.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(t.max_bucket(), values.iter().max().map(|&m| Log2Tally::bucket_index(m)));
    }
}
