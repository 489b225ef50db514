//! The metrics registry: named counters, gauges, and log2-bucket
//! histograms, written by the harness and read by the exporters.
//!
//! Design constraints, in order:
//!
//! 1. **Inert.** Recording a metric must never influence the simulation —
//!    the primitives only touch their own atomics, never virtual time,
//!    RNG streams, or the event queue. A run with metrics on and off must
//!    produce byte-identical outcomes (tested in
//!    `tests/integration_metrics.rs`).
//! 2. **Outside the components.** No simulation component holds a
//!    handle: `ccsim-net` and `ccsim-tcp` do not depend on this crate.
//!    They keep plain `u64` tallies (and [`ccsim_sim::Log2Tally`]s) in
//!    their boxed observers, and the harness copies those, with the
//!    counters the components keep anyway, into the registry at slice
//!    boundaries. One writer, so "observation only reads" is a property
//!    of the crate graph.
//! 3. **Cheap to read.** A handle is an [`Arc`] straight into the
//!    registry's atomics: the harness and the live endpoint pay no name
//!    lookup per update, and a scrape never blocks the run. The log2
//!    bucket rule is [`ccsim_sim::Log2Tally`]'s, so a tally loads into a
//!    [`Histogram`] bucket for bucket.
//!
//! The registry itself is only touched at registration and export time
//! (a `Mutex` is fine there); the handles it returns are lock-free.

use ccsim_sim::{Log2Tally, LOG2_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// A gauge: a value that can move in either direction. Stored as `f64`
/// bits so derived quantities (events/sec, time ratios) fit alongside
/// byte counts; integers up to 2^53 are represented exactly.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value
    /// (high-water-mark tracking).
    #[inline]
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with power-of-two (log2) bucket boundaries: the bucket
/// rule of [`Log2Tally`] (bucket `k` holds `[2^(k-1), 2^k)`, bucket 0
/// only zeros), over atomics.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; LOG2_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [(); LOG2_BUCKETS].map(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Log2Tally::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrite every cell with `tally`'s: the harness copies a
    /// component's tally in at each slice boundary.
    pub fn load(&self, tally: &Log2Tally) {
        self.count.store(tally.count, Ordering::Relaxed);
        self.sum.store(tally.sum, Ordering::Relaxed);
        for (cell, &n) in self.buckets.iter().zip(&tally.buckets) {
            cell.store(n, Ordering::Relaxed);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn bucket_counts(&self) -> [u64; LOG2_BUCKETS] {
        let mut out = [0u64; LOG2_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Index of the highest non-empty bucket, if any observation exists.
    pub fn max_bucket(&self) -> Option<usize> {
        let counts = self.bucket_counts();
        counts.iter().rposition(|&c| c > 0)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the log2 bucket containing the target rank. The estimate is
    /// exact for bucket boundaries and at worst off by the bucket width —
    /// the usual Prometheus-style reconstruction. Returns `None` on an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q = 0 maps to rank 1.
        let rank = (q * total as f64).max(1.0);
        let counts = self.bucket_counts();
        let mut seen = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = seen + c;
            if (upto as f64) >= rank {
                // Bucket k spans [lower, upper]: [0,0] for k = 0, else
                // [2^(k-1), 2^k - 1].
                let lower = match k {
                    0 => 0.0,
                    k => (Log2Tally::bucket_upper_bound(k - 1) + 1) as f64,
                };
                let upper = Log2Tally::bucket_upper_bound(k) as f64;
                let frac = (rank - seen as f64) / c as f64;
                return Some(lower + (upper - lower) * frac.clamp(0.0, 1.0));
            }
            seen = upto;
        }
        Some(Log2Tally::bucket_upper_bound(LOG2_BUCKETS - 1) as f64)
    }
}

/// What a registered metric is, for export purposes.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(Arc<Counter>),
    /// A point-in-time value.
    Gauge(Arc<Gauge>),
    /// A log2-bucket distribution.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One registry entry: a named, optionally labeled metric.
#[derive(Clone, Debug)]
pub struct MetricEntry {
    /// Metric family name (Prometheus-valid: `[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// One-line description, emitted as `# HELP`.
    pub help: String,
    /// Label pairs distinguishing this series within the family.
    pub labels: Vec<(String, String)>,
    /// The live metric.
    pub metric: Metric,
}

/// A collection of named metrics, shared between the harness (which
/// holds `Arc` handles) and the exporters.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<MetricEntry>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    // Label names allow no colon.
    valid_name(name) && !name.contains(':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| {
            e.name == name && e.labels.len() == labels.len() && {
                e.labels
                    .iter()
                    .zip(labels)
                    .all(|((ek, ev), (k, v))| ek == k && ev == v)
            }
        }) {
            // Same series requested twice: hand out the existing handle so
            // independent components can share one aggregate.
            let existing = e.metric.clone();
            drop(entries);
            let wanted = make();
            assert_eq!(
                existing.kind_name(),
                wanted.kind_name(),
                "metric {name:?} re-registered with a different kind"
            );
            return existing;
        }
        let metric = make();
        entries.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// Register (or retrieve) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Register (or retrieve) a labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Register (or retrieve) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Register (or retrieve) a labeled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Register (or retrieve) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Register (or retrieve) a labeled histogram series.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Read every registered entry, in registration order, under the
    /// registry's lock (for export: nothing is copied).
    pub fn with_entries<R>(&self, read: impl FnOnce(&[MetricEntry]) -> R) -> R {
        read(&self.entries.lock().unwrap())
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True iff nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let g = Gauge::new();
        g.set(5.0);
        g.set_max(3.0);
        assert_eq!(g.get(), 5.0);
        g.set_max(9.5);
        assert_eq!(g.get(), 9.5);
        g.set(1.0);
        assert_eq!(g.get(), 1.0);
    }

    #[test]
    fn histogram_records() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        let b = h.bucket_counts();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[7], 1); // 100 in [64, 128)
        assert_eq!(h.max_bucket(), Some(7));
    }

    #[test]
    fn a_loaded_tally_reads_as_the_same_values_recorded() {
        let (recorded, loaded) = (Histogram::new(), Histogram::new());
        let mut tally = Log2Tally::default();
        for v in [0, 1, 2, 3, 100, 1 << 40] {
            recorded.record(v);
            tally.record(v);
        }
        loaded.record(7); // overwritten, not added to
        loaded.load(&tally);
        assert_eq!(loaded.count(), recorded.count());
        assert_eq!(loaded.sum(), recorded.sum());
        assert_eq!(loaded.bucket_counts(), recorded.bucket_counts());
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);

        // 100 observations spread across buckets 4 ([8,15]) and 7 ([64,127]).
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(100);
        }
        let p50 = h.quantile(0.50).unwrap();
        assert!((8.0..=15.0).contains(&p50), "p50 = {p50}");
        let p90 = h.quantile(0.90).unwrap();
        assert!((8.0..=15.0).contains(&p90), "p90 = {p90}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((64.0..=127.0).contains(&p99), "p99 = {p99}");
        // Monotone in q, and the extremes land in the extreme buckets.
        assert!(p50 <= p90 && p90 <= p99);
        assert!(h.quantile(0.0).unwrap() <= p50);
        assert!(h.quantile(1.0).unwrap() >= p99);
    }

    #[test]
    fn registry_dedupes_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("ccsim_x_total", "x");
        let b = r.counter("ccsim_x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
        let c = r.counter_with("ccsim_x_total", "x", &[("kind", "data")]);
        c.add(7);
        assert_eq!(r.len(), 2);
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.counter("ccsim_x", "x");
        let _ = r.gauge("ccsim_x", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_names() {
        let r = Registry::new();
        let _ = r.counter("0bad name", "x");
    }
}
