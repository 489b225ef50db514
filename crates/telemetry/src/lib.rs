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
//! * [`prometheus`] — the text-exposition writer ([`Exposition`]: one
//!   series at a time, a histogram from a [`ccsim_sim::Log2Tally`]) and
//!   the format checker ([`validate_exposition`]: well-formed lines, one
//!   `# TYPE` per family, each family's samples in one group). The
//!   harness writes a run's counts straight from their owners; nothing
//!   holds a second copy of them.
//! * [`profile`] — [`export_profile_into`], which appends a run's
//!   event-attribution profile to an [`Exposition`].
//! * [`manifest`] — the per-run provenance [`RunManifest`] and the
//!   workspace digest function [`fnv1a_64`].
//! * [`progress`] — stderr live progress ([`RunProgress`],
//!   [`CampaignProgress`]).
//! * [`counter`] — [`Counter`], a relaxed atomic count that only the
//!   benchmark's isolated per-increment row uses.

pub mod counter;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod prometheus;
pub mod tracker;

pub use counter::Counter;
pub use manifest::{fnv1a_64, RunManifest};
pub use metrics::{BottleneckMetrics, FlowMetrics};
pub use profile::export_profile_into;
pub use progress::{CampaignProgress, RunProgress};
pub use prometheus::{validate_exposition, Exposition};
pub use tracker::ThroughputTracker;
