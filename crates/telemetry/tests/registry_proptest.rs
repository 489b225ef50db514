//! Property-based tests for the metrics registry primitives: log2-bucket
//! boundary invariants and thread-safety of the counters.

use ccsim_sim::Log2Tally;
use ccsim_telemetry::{Counter, Gauge, Histogram};
use proptest::prelude::*;
use std::sync::Arc;

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
    /// them, and sum matches (wrapping, like the implementation).
    #[test]
    fn histogram_accounting_is_exact(values in prop::collection::vec(0u64..=u64::MAX, 0..200)) {
        let h = Histogram::new();
        let mut expect_sum = 0u64;
        for &v in &values {
            h.record(v);
            expect_sum = expect_sum.wrapping_add(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), expect_sum);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), values.len() as u64);
        if let Some(max) = values.iter().max() {
            prop_assert_eq!(h.max_bucket(), Some(Log2Tally::bucket_index(*max)));
        } else {
            prop_assert_eq!(h.max_bucket(), None);
        }
    }

    /// `Gauge::set_max` is an upper-envelope fold: order-independent and
    /// equal to the plain maximum.
    #[test]
    fn gauge_set_max_is_the_maximum(values in prop::collection::vec(0u32..1_000_000, 1..50)) {
        let g = Gauge::new();
        for &v in &values {
            g.set_max(f64::from(v));
        }
        let expect = f64::from(*values.iter().max().unwrap());
        prop_assert_eq!(g.get(), expect);
    }
}

/// Concurrent increments from many threads are never lost.
#[test]
fn counter_increments_concurrently_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let counter = Arc::new(Counter::new());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let counter = Arc::clone(&counter);
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    counter.inc();
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
}

/// Concurrent histogram records from many threads are never lost, in
/// count, sum, or per-bucket tallies.
#[test]
fn histogram_records_concurrently_exact() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;
    let h = Arc::new(Histogram::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            });
        }
    });
    assert_eq!(h.count(), THREADS * PER_THREAD);
    let n = THREADS * PER_THREAD;
    assert_eq!(h.sum(), n * (n - 1) / 2);
    assert_eq!(h.bucket_counts().iter().sum::<u64>(), n);
}
