//! Campaign layer: parallel sweep executor, persistent run ledger,
//! regression sentinel, and fidelity reports.
//!
//! This crate is the simulator-side analogue of the paper's testbed
//! orchestration (§3): where the authors drove a 10-node testbed through
//! thousands of (CCA, flow count, RTT, buffer) combinations and archived
//! the results for cross-cutting analysis, `ccsim campaign` expands a
//! [`CampaignSpec`] into a validated job grid, runs it on a worker pool
//! over the observed-run path, and appends every result to an append-only
//! JSONL [`Ledger`]. Ledgers are then the unit of comparison:
//! [`diff::diff`] is the regression sentinel (determinism breaks,
//! fidelity drift, events/sec regressions) and [`report::markdown`] /
//! [`report::html`] render the fidelity report mapping results back to
//! the paper's Table 1 and Figures 2–8.
//!
//! Determinism contract: outcomes depend only on (configuration, seed),
//! so a campaign run with 8 workers is byte-identical — per-run outcome
//! digests and normalized ledger lines — to the same campaign run
//! serially. The integration tests enforce this.

pub mod diff;
pub mod executor;
pub mod ledger;
pub mod report;
pub mod spec;

pub use diff::{diff, DiffOptions, DiffReport, Finding, FindingKind};
pub use executor::{
    run_campaign, run_campaign_supervised, run_scenarios, ExecutorOptions, JobResult, Rollup,
    SupervisorOptions,
};
pub use ledger::{Ledger, LedgerEntry, LedgerWriter};
pub use report::{check_expectations, ExpectationResult};
pub use spec::{Axis, CampaignJob, CampaignSpec, Expectation, Tolerances};
