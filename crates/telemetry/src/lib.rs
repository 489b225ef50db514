//! # ccsim-telemetry — measurement glue
//!
//! The instrumentation layer between raw component counters (senders,
//! receivers, the bottleneck link) and the analysis crate:
//!
//! * [`FlowMetrics`] — one flow's complete measurement record, combining
//!   endpoint and queue counters into the quantities the paper's analysis
//!   consumes (throughput, per-flow loss rate, CWND-halving rate).
//! * [`ThroughputTracker`] — periodic snapshots of per-flow delivered
//!   bytes, supporting warm-up exclusion, windowed rate computation, and
//!   the paper's convergence rule ("metric changes < 1% over a window").
//!
//! Plus the simulator's self-observability layer (what the harness knows
//! about *itself*, as opposed to what it measures about TCP):
//!
//! * [`registry`] — zero-dependency [`Counter`] / [`Gauge`] /
//!   [`Histogram`] primitives and the [`Registry`] that names them; cheap
//!   enough for the hot event loop (one relaxed atomic add per count).
//! * [`profile`] — wall-clock [`Profiler`] spans aggregated per label.
//! * [`manifest`] — the per-run provenance [`RunManifest`] and the
//!   workspace digest function [`fnv1a_64`].
//! * [`prometheus`] — text-exposition export ([`write_exposition`]) and
//!   the CI line-format checker ([`validate_exposition`]).
//! * [`progress`] — stderr live progress ([`RunProgress`],
//!   [`CampaignProgress`]).

pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod prometheus;
pub mod registry;
pub mod tracker;

pub use manifest::{fnv1a_64, ManifestBottleneck, RunManifest};
pub use metrics::FlowMetrics;
pub use profile::{export_profile_into, ProfSpan, Profiler, SpanStats};
pub use progress::{CampaignProgress, RunProgress};
pub use prometheus::{validate_exposition, write_exposition};
pub use registry::{Counter, Gauge, Histogram, Metric, MetricEntry, Registry};
pub use tracker::ThroughputTracker;
