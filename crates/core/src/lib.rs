//! # ccsim-core — the at-scale CCA measurement harness
//!
//! The paper's experimental apparatus as a library:
//!
//! * [`scenario`] — EdgeScale/CoreScale settings and flow-group builders.
//! * [`build`] — dumbbell topology wiring.
//! * [`runner`] — warm-up, snapshotting, the convergence stopping rule,
//!   and window-scoped metric collection.
//! * [`observe`] — self-observability: metric attachment, Prometheus
//!   dumps, and per-run provenance manifests ([`run_observed`]).
//! * [`outcome`] — run results with the paper's derived quantities (JFI,
//!   group shares, Mathis observations, loss-to-halving ratios).
//! * [`experiments`] — one function per table/figure of the paper, plus
//!   the parameter grids they sweep.
//! * [`report`] — plain-text table rendering for the bench binaries and
//!   EXPERIMENTS.md.

pub mod build;
pub mod checkpoint;
pub mod codec;
pub mod crash;
pub mod error;
pub mod experiments;
pub mod observe;
pub mod outcome;
pub mod report;
pub mod runner;
pub mod scenario;
mod watchdog;

pub use build::BuiltNetwork;
pub use ccsim_resume::{Checkpoint, ResumeError};
pub use ccsim_timeline::serve::{serve, LiveState, ServeHandle};
pub use ccsim_timeline::{Timeline, TimelineConfig, TimelineSummary};
pub use checkpoint::{bisect_divergence, slice_boundaries, BisectOutcome, DivergencePoint};
pub use codec::{scenario_from_json, scenario_to_json};
pub use crash::{
    panic_message, run_guarded, run_guarded_with_progress, BundleError, CrashBundle, GuardOptions,
    GuardedFailure,
};
pub use error::SimError;
pub use observe::{
    run_observed, try_run_observed_checkpointed, try_run_observed_live, try_run_observed_with,
    ObserveOptions, ObservedRun, RunInstruments,
};
pub use outcome::{BottleneckMetrics, PInterpretation, RunOutcome};
pub use runner::{
    run, run_to_checkpoint, run_with_progress, scenario_from_checkpoint, try_resume_run,
    try_resume_run_with_progress, try_run, try_run_with_checkpoint, try_run_with_progress,
    Progress,
};
pub use scenario::{
    ConvergenceRule, Fidelity, FlowGroup, Scenario, ScenarioError, Tuning, DEFAULT_MSS,
};

/// Run several scenarios in parallel, preserving input order.
///
/// Each scenario gets its own simulator on its own thread (the simulator is
/// single-threaded by design; experiments parallelize across runs).
pub fn run_all(scenarios: &[Scenario]) -> Vec<RunOutcome> {
    if scenarios.len() <= 1 {
        return scenarios.iter().map(run).collect();
    }
    let mut results: Vec<Option<RunOutcome>> = Vec::new();
    results.resize_with(scenarios.len(), || None);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mutex = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(scenarios.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= scenarios.len() {
                    break;
                }
                let outcome = run(&scenarios[i]);
                results_mutex.lock().unwrap()[i] = Some(outcome);
            });
        }
    });
    results
        .into_iter()
        .map(|o| o.expect("every scenario produced an outcome"))
        .collect()
}
