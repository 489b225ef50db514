//! # ccsim-core — the at-scale CCA measurement harness
//!
//! The paper's experimental apparatus as a library:
//!
//! * [`scenario`] — EdgeScale/CoreScale settings and flow-group builders.
//! * [`settings`] — the one table of scenario knobs the CLI's flags, a
//!   campaign spec's `base` keys and its axes all read.
//! * [`build`] — dumbbell topology wiring.
//! * [`request`] — the one way to run a scenario: [`RunRequest`] with
//!   composable options (observe, live, checkpoint, guard, progress),
//!   `execute`/`capture`, and [`run`] as the plain convenience.
//! * [`runner`] — warm-up, snapshotting, the convergence stopping rule,
//!   and window-scoped metric collection (the loop behind every request).
//! * [`observe`] — self-observability: metric attachment, Prometheus
//!   dumps, and per-run provenance manifests.
//! * [`crash`] / [`checkpoint`] — crash bundles and replay; whole-run
//!   checkpoint capture/restore and the divergence bisector.
//! * [`outcome`] — run results with the paper's derived quantities (JFI,
//!   group shares, Mathis observations, loss-to-halving ratios).
//!
//! The paper's grids (Table 1, Figures 2–8) are not code here: they are
//! the `examples/campaigns/paper-*.json` specs `ccsim-campaign` expands.

pub mod build;
pub mod checkpoint;
pub mod codec;
pub mod crash;
pub mod error;
pub mod observe;
pub mod outcome;
pub mod request;
pub mod runner;
pub mod scenario;
pub mod settings;
mod watchdog;

pub use build::BuiltNetwork;
pub use ccsim_resume::{Checkpoint, ResumeError};
pub use ccsim_timeline::serve::{serve, LiveState, ServeHandle};
pub use ccsim_timeline::{Timeline, TimelineConfig, TimelineSummary};
pub use checkpoint::{bisect_divergence, slice_boundaries, BisectOutcome, DivergencePoint};
pub use codec::{scenario_from_json, scenario_from_value, scenario_to_json};
pub use crash::{panic_message, BundleError, CrashBundle};
pub use error::SimError;
pub use observe::{ObserveOptions, ObservedRun};
pub use outcome::{BottleneckMetrics, PInterpretation, RunOutcome};
pub use request::{run, RunFailure, RunReport, RunRequest};
pub use runner::{scenario_from_checkpoint, Progress};
pub use scenario::{
    ConvergenceRule, Fidelity, FlowGroup, Scenario, ScenarioError, Tuning, DEFAULT_MSS,
};
pub use settings::{Setting, SettingError, SETTINGS};

// ---------------------------------------------------------------------
// Frozen-benchmark shims. `benchmark/src/compat.rs` imports exactly these
// four names and `BENCHMARK.json` freezes `benchmark/` for every PR that
// is not a benchmark PR, so they survive as one-line delegations to
// `RunRequest`. `compat.rs` is their only caller — nothing else in the
// workspace may use them. Follow-up (benchmark archetype, ROADMAP item 4):
// move `compat.rs` onto `RunRequest` and delete this block.
// ---------------------------------------------------------------------

#[doc(hidden)]
pub fn run_with_progress<F: FnMut(&Progress)>(scenario: &Scenario, on_progress: F) -> RunOutcome {
    match RunRequest::new(scenario).on_progress(on_progress).execute() {
        Ok(report) => report.outcome,
        Err(failure) => panic!("{failure}"),
    }
}

#[doc(hidden)]
pub fn try_run_observed_with<F: FnMut(&Progress)>(
    scenario: &Scenario,
    options: ObserveOptions,
    on_progress: F,
) -> Result<ObservedRun, SimError> {
    let request = RunRequest::new(scenario).observe(options);
    let report = request.on_progress(on_progress).execute()?;
    Ok(report.into_observed().expect("observed request"))
}

#[doc(hidden)]
pub fn try_run_observed_checkpointed<F: FnMut(&Progress)>(
    scenario: &Scenario,
    options: ObserveOptions,
    checkpoint_at: Option<ccsim_sim::SimTime>,
    on_progress: F,
) -> Result<(ObservedRun, Option<Checkpoint>), SimError> {
    let mut request = RunRequest::new(scenario).observe(options);
    if let Some(at) = checkpoint_at {
        request = request.checkpoint_at(at);
    }
    let mut report = request.on_progress(on_progress).execute()?;
    let checkpoint = report.checkpoint.take();
    Ok((
        report.into_observed().expect("observed request"),
        checkpoint,
    ))
}

#[doc(hidden)]
pub fn try_resume_run_with_progress<F: FnMut(&Progress)>(
    checkpoint: &Checkpoint,
    on_progress: F,
) -> Result<RunOutcome, SimError> {
    let request = RunRequest::resume(checkpoint).on_progress(on_progress);
    Ok(request.execute()?.outcome)
}
