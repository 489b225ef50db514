//! # ccsim-telemetry — measurement glue
//!
//! The instrumentation layer between raw component counters (senders,
//! receivers, the bottleneck link) and the analysis crate:
//!
//! * [`FlowMetrics`] — one flow's complete measurement record, combining
//!   endpoint and queue counters into the quantities the paper's analysis
//!   consumes (throughput, per-flow loss rate, CWND-halving rate).
//! * [`ThroughputTracker`] — the last few periodic snapshots of per-flow
//!   delivered bytes, exactly those the paper's convergence rule ("metric
//!   changes < 1% over a window") reads.
//!
//! Plus the simulator's self-observability layer (what the harness knows
//! about *itself*, as opposed to what it measures about TCP):
//!
//! * [`registry`] — [`Counter`] / [`Gauge`] / [`Histogram`] primitives
//!   over atomics and the [`Registry`] that names them, written by the
//!   harness at slice boundaries (the simulation components keep plain
//!   tallies and never hold a handle).
//! * [`profile`] — [`export_profile_into`], which writes a run's
//!   event-attribution profile into a [`Registry`].
//! * [`manifest`] — the per-run provenance [`RunManifest`] and the
//!   workspace digest function [`fnv1a_64`].
//! * [`prometheus`] — text-exposition export ([`write_exposition`]) and
//!   the format checker ([`validate_exposition`]: well-formed lines, one
//!   `# TYPE` per family, each family's samples in one group).
//! * [`progress`] — stderr live progress ([`RunProgress`],
//!   [`CampaignProgress`]).

pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod prometheus;
pub mod registry;
pub mod tracker;

pub use manifest::{fnv1a_64, RunManifest};
pub use metrics::{BottleneckMetrics, FlowMetrics};
pub use profile::export_profile_into;
pub use progress::{CampaignProgress, RunProgress};
pub use prometheus::{validate_exposition, write_exposition};
pub use registry::{Counter, Gauge, Histogram, Metric, MetricEntry, Registry};
pub use tracker::ThroughputTracker;
