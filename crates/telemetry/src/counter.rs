//! [`Counter`], a relaxed atomic count.
//!
//! Its only user is the benchmark's isolated `telemetry.registry.ns_per_inc`
//! row, which times one increment. No run counts through it: the
//! components keep plain tallies, and the Prometheus dump is written
//! straight from them (see [`crate::prometheus`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
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
}
