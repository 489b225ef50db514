//! # ccsim-analysis — the measurement-study analysis toolkit
//!
//! Pure-math implementations of every metric the paper reports:
//!
//! * [`stats`] — descriptive statistics (mean, std-dev, quantiles).
//! * [`fairness`] — Jain's Fairness Index and group throughput shares
//!   (Figures 4–8).
//! * [`mathis`] — the Mathis throughput model, least-squares constant
//!   fitting, and prediction-error evaluation (Table 1, Figure 2).
//! * [`burstiness`](mod@burstiness) — the Goh–Barabási burstiness score applied to queue
//!   drop trains (Finding 3's corroboration).
//! * [`sync`] — the loss-event synchronization index (the Appenzeller
//!   desynchronization argument, quantified).
//! * [`windows`] — the shared window-partitioning rules every windowed
//!   diagnostic builds on.
//! * [`convergence`] — time-to-α-fair over a windowed JFI series.
//! * [`trace`] — the above metrics applied directly to recorded
//!   flight-recorder traces ([`ccsim_trace::RunTrace`]).

pub mod burstiness;
pub mod convergence;
pub mod fairness;
pub mod mathis;
pub mod stats;
pub mod sync;
pub mod trace;
pub mod windows;

pub use burstiness::{burstiness, burstiness_of_intervals};
pub use convergence::{time_to_alpha_fair, DEFAULT_ALPHA};
pub use fairness::{group_share, jain_fairness_index, jain_fairness_subset};
pub use mathis::{
    errors_under_constant, fit_constant, mathis_throughput, FlowObservation, MathisFit,
};
pub use stats::{mean, median, quantile, std_dev, Summary};
pub use sync::synchronization_index;
pub use trace::{trace_drop_burstiness, trace_synchronization_index};
pub use windows::WindowPartition;
