//! The one way to run a scenario.
//!
//! A [`RunRequest`] names *what* to run — a fresh [`Scenario`] or a
//! [`Checkpoint`] to resume — and which of the orthogonal options ride
//! along: observation, a live endpoint, an en-route checkpoint, the crash
//! guard, a progress callback. Every combination goes through the same
//! runner loop; none changes the simulated event sequence (the
//! `integration_run_request` matrix asserts that for every subset).
//!
//! ```no_run
//! # use ccsim_core::{ObserveOptions, RunRequest, Scenario};
//! # let scenario = Scenario::edge_scale();
//! let report = RunRequest::new(&scenario)
//!     .observe(ObserveOptions::profiled())
//!     .guard(Some("crashes".into()))
//!     .on_progress(|p| eprintln!("{:.0}%", p.fraction * 100.0))
//!     .execute()?;
//! println!("{}", report.outcome.to_json());
//! # Ok::<(), ccsim_core::RunFailure>(())
//! ```

use crate::crash::{panic_message, write_bundle};
use crate::error::SimError;
use crate::observe::{ObserveOptions, ObservedRun, RunInstruments};
use crate::outcome::RunOutcome;
use crate::runner::{run_internal_ctl, scenario_from_checkpoint, Progress, RunCtl};
use crate::scenario::Scenario;
use ccsim_resume::{Checkpoint, ResumeError};
use ccsim_sim::SimTime;
use ccsim_telemetry::manifest::RunManifest;
use ccsim_timeline::serve::LiveState;
use ccsim_timeline::Timeline;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Where a request starts from.
enum Source<'a> {
    Fresh(&'a Scenario),
    Resume(&'a Checkpoint),
}

/// One run, described. Build with [`RunRequest::new`] or
/// [`RunRequest::resume`], add options, finish with [`execute`] or
/// [`capture`].
///
/// [`execute`]: RunRequest::execute
/// [`capture`]: RunRequest::capture
pub struct RunRequest<'a> {
    source: Source<'a>,
    observe: Option<ObserveOptions>,
    live: Option<Arc<LiveState>>,
    checkpoint_at: Option<SimTime>,
    guard: bool,
    bundle_dir: Option<PathBuf>,
    on_progress: Box<dyn FnMut(&Progress) + 'a>,
}

/// What a finished run produced.
#[derive(Debug)]
pub struct RunReport {
    /// The run result — byte-identical whatever else was asked for.
    pub outcome: RunOutcome,
    /// Provenance manifest; present iff the run was observed.
    pub manifest: Option<RunManifest>,
    /// Prometheus text exposition of every metric; present iff the run
    /// was observed.
    pub prometheus: Option<String>,
    /// The captured timeline; present iff [`ObserveOptions::timeline`]
    /// was set.
    pub timeline: Option<Timeline>,
    /// The en-route checkpoint; present iff [`RunRequest::checkpoint_at`]
    /// was set and the run reached that instant (a run that converged
    /// earlier has none).
    pub checkpoint: Option<Checkpoint>,
}

impl RunReport {
    /// The observed form of this report, `None` for an unobserved run.
    pub fn into_observed(self) -> Option<ObservedRun> {
        Some(ObservedRun {
            outcome: self.outcome,
            manifest: self.manifest?,
            prometheus: self.prometheus?,
            timeline: self.timeline,
        })
    }
}

/// A failed run, with the crash bundle it produced (if any).
#[derive(Debug)]
pub struct RunFailure {
    pub error: SimError,
    /// Path of the written bundle (`None` when the guard had no directory
    /// or writing itself failed — then `write_error` says why).
    pub bundle: Option<PathBuf>,
    /// The I/O error that prevented bundle capture, if any.
    pub write_error: Option<io::Error>,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)?;
        if let Some(dir) = &self.bundle {
            write!(f, " (crash bundle: {})", dir.display())?;
        }
        Ok(())
    }
}

impl From<SimError> for RunFailure {
    fn from(error: SimError) -> RunFailure {
        RunFailure {
            error,
            bundle: None,
            write_error: None,
        }
    }
}

impl From<RunFailure> for SimError {
    fn from(failure: RunFailure) -> SimError {
        failure.error
    }
}

impl<'a> RunRequest<'a> {
    /// Run `scenario` from `t = 0`.
    pub fn new(scenario: &'a Scenario) -> RunRequest<'a> {
        RunRequest::from_source(Source::Fresh(scenario))
    }

    /// Resume from `checkpoint` and drive the run to completion. The
    /// scenario is rebuilt from the JSON embedded in the checkpoint, so
    /// the outcome is byte-identical to the donor run's.
    pub fn resume(checkpoint: &'a Checkpoint) -> RunRequest<'a> {
        RunRequest::from_source(Source::Resume(checkpoint))
    }

    fn from_source(source: Source<'a>) -> RunRequest<'a> {
        RunRequest {
            source,
            observe: None,
            live: None,
            checkpoint_at: None,
            guard: false,
            bundle_dir: None,
            on_progress: Box::new(|_| {}),
        }
    }

    /// Attach the instruments: the report gains a manifest and a
    /// Prometheus dump (and a timeline when `options.timeline` is set).
    /// See [`crate::observe`] for the inertness guarantee.
    pub fn observe(mut self, options: ObserveOptions) -> Self {
        self.observe = Some(options);
        self
    }

    /// Publish live snapshots into `state` as the run progresses: the
    /// Prometheus exposition of the counts so far and (with timeline
    /// capture on) the timeline JSONL, throttled to ~4×/sec of wall
    /// time, plus a final publish of the completed artefacts. Implies
    /// [`observe`] with the default options unless they were given.
    ///
    /// [`observe`]: RunRequest::observe
    pub fn live(mut self, state: Arc<LiveState>) -> Self {
        self.observe.get_or_insert_with(ObserveOptions::default);
        self.live = Some(state);
        self
    }

    /// Capture a checkpoint at the first slice boundary at or after `at`
    /// (at most one per run). [`execute`](RunRequest::execute) carries on
    /// to the end; [`capture`](RunRequest::capture) stops there.
    pub fn checkpoint_at(mut self, at: SimTime) -> Self {
        self.checkpoint_at = Some(at);
        self
    }

    /// Catch panics from anywhere inside the run (the progress callback
    /// included) and report them as [`SimError::Panic`]. With a directory,
    /// any failure — typed or caught — also writes a crash bundle there.
    pub fn guard(mut self, bundle_dir: Option<PathBuf>) -> Self {
        self.guard = true;
        self.bundle_dir = bundle_dir;
        self
    }

    /// Call `f` after every simulated slice (warm-up included).
    pub fn on_progress(mut self, f: impl FnMut(&Progress) + 'a) -> Self {
        self.on_progress = Box::new(f);
        self
    }

    /// Run to completion.
    // The Err variant is cold: it fires at most once per run, on failure.
    #[allow(clippy::result_large_err)]
    pub fn execute(self) -> Result<RunReport, RunFailure> {
        let (report, checkpoint) = self.drive(false)?;
        let mut report = report.expect("a non-stopping run always produces an outcome");
        report.checkpoint = checkpoint;
        Ok(report)
    }

    /// Run just far enough to capture the requested checkpoint, then
    /// stop. Errors with [`SimError::Resume`] if the run ends (horizon or
    /// convergence) before reaching the instant.
    ///
    /// # Panics
    /// Panics when no [`checkpoint_at`](RunRequest::checkpoint_at) was
    /// requested.
    #[allow(clippy::result_large_err)]
    pub fn capture(self) -> Result<Checkpoint, RunFailure> {
        let at = self
            .checkpoint_at
            .expect("capture() needs checkpoint_at(..)");
        let (finished, checkpoint) = self.drive(true)?;
        debug_assert!(finished.is_none() || checkpoint.is_none());
        checkpoint.ok_or_else(|| {
            SimError::Resume(ResumeError::Corrupt(format!(
                "run ended at {} before the requested checkpoint instant {at}",
                finished.map_or(SimTime::ZERO, |r| r.outcome.ended_at)
            )))
            .into()
        })
    }

    /// The shared body of both terminals. The report is `None` iff
    /// `stop_at_checkpoint` ended the run right after the capture.
    #[allow(clippy::result_large_err)]
    fn drive(
        mut self,
        stop_at_checkpoint: bool,
    ) -> Result<(Option<RunReport>, Option<Checkpoint>), RunFailure> {
        let restored;
        let (scenario, resume_from) = match self.source {
            Source::Fresh(scenario) => (scenario, None),
            Source::Resume(cp) => {
                restored = scenario_from_checkpoint(cp)?;
                (&restored, Some(cp))
            }
        };
        let ctl = RunCtl {
            resume_from,
            checkpoint_at: self.checkpoint_at,
            stop_at_checkpoint,
        };
        let (observe, live) = (self.observe, self.live.take());
        let body = || run_with(scenario, ctl, observe, live, &mut *self.on_progress);
        let result = if self.guard {
            catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
                Err(SimError::Panic {
                    message: panic_message(payload.as_ref()),
                })
            })
        } else {
            body()
        };
        result.map_err(|error| {
            let (bundle, write_error) = match &self.bundle_dir {
                None => (None, None),
                Some(dir) => match write_bundle(dir, scenario, &error) {
                    Ok(path) => (Some(path), None),
                    Err(e) => (None, Some(e)),
                },
            };
            RunFailure {
                error,
                bundle,
                write_error,
            }
        })
    }
}

/// One pass through the runner loop. Unobserved requests take the plain
/// path — no instruments, no classifier; observed ones hand the live
/// endpoint to the instruments, whose per-slice step publishes into it.
fn run_with(
    scenario: &Scenario,
    ctl: RunCtl<'_>,
    observe: Option<ObserveOptions>,
    live: Option<Arc<LiveState>>,
    on_progress: &mut dyn FnMut(&Progress),
) -> Result<(Option<RunReport>, Option<Checkpoint>), SimError> {
    let mut checkpoint = None;
    let plain = |outcome| RunReport {
        outcome,
        manifest: None,
        prometheus: None,
        timeline: None,
        checkpoint: None,
    };
    let Some(options) = observe else {
        let outcome = run_internal_ctl(scenario, None, on_progress, ctl, &mut checkpoint)?;
        return Ok((outcome.map(plain), checkpoint));
    };

    let mut inst = RunInstruments::new(options, live);
    let wall_start = Instant::now();
    let outcome = run_internal_ctl(scenario, Some(&mut inst), on_progress, ctl, &mut checkpoint)?;
    let report = outcome.map(|outcome| {
        let wall_secs = wall_start.elapsed().as_secs_f64();
        let (manifest, prometheus, timeline) = inst.finish(scenario, &outcome, wall_secs);
        RunReport {
            manifest: Some(manifest),
            prometheus: Some(prometheus),
            timeline,
            ..plain(outcome)
        }
    });
    Ok((report, checkpoint))
}

/// Run a scenario to completion and collect its outcome — the plain
/// request, as a function.
///
/// # Panics
/// Panics on any [`SimError`] (invalid scenario, engine error, watchdog
/// violation); `RunRequest::new(scenario).execute()` reports it instead.
pub fn run(scenario: &Scenario) -> RunOutcome {
    match RunRequest::new(scenario).execute() {
        Ok(report) => report.outcome,
        Err(failure) => panic!("{failure}"),
    }
}

impl Scenario {
    /// [`run`] as a method.
    pub fn run(&self) -> RunOutcome {
        run(self)
    }
}
