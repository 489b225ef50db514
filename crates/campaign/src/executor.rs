//! The parallel sweep executor: a worker pool over campaign jobs.
//!
//! Each job is an observed, guarded [`ccsim_core::RunRequest`] on its own
//! thread, so every run carries its provenance manifest and the
//! observation-inertness guarantee. The pool is a plain
//! `std::thread::scope` with an atomic job-pull counter, plus failure
//! capture: typed errors and panics become failed [`JobResult`]s (with an
//! optional crash bundle) instead of tearing down the campaign.
//!
//! Determinism: a scenario's outcome depends only on its configuration
//! and seed, never on scheduling, so a campaign run with `--workers 8`
//! produces per-run outcome digests byte-identical to `--workers 1`.
//! The integration tests assert exactly that.

use crate::metric::{Rollup, Run, METRICS};
use crate::spec::CampaignJob;
use ccsim_core::observe::scenario_digest;
use ccsim_core::{
    crash, LiveState, ObserveOptions, ObservedRun, RunRequest, Scenario, TimelineConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorOptions {
    /// Worker threads. 1 runs the jobs serially in input order.
    pub workers: usize,
    /// When set, failed jobs write a replayable crash bundle here.
    pub crash_dir: Option<PathBuf>,
    /// Attach the `ccsim-prof` profiler to every job. Digest-inert; the
    /// per-run [`ccsim_prof::Profile`] rides in each ledger entry's
    /// manifest, and the sentinel gains per-event-kind events/s gates.
    pub profile: bool,
    /// Capture a windowed timeline on every job. Digest-inert; the
    /// per-run [`ccsim_core::TimelineSummary`] rides in each ledger
    /// entry's manifest, feeding the rollup's `convergence_time` and the
    /// sentinel's convergence-drift gate.
    pub timeline: Option<TimelineConfig>,
    /// Shared live-endpoint state for `campaign run --serve`: every job
    /// publishes its metrics/timeline snapshots here as it progresses
    /// (last writer wins across workers).
    pub live: Option<Arc<LiveState>>,
}

impl Default for ExecutorOptions {
    fn default() -> ExecutorOptions {
        ExecutorOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            crash_dir: None,
            profile: false,
            timeline: None,
            live: None,
        }
    }
}

/// Supervision policy for campaign jobs: wall-clock budgets, hang
/// detection, bounded retries, and quarantine.
///
/// With neither `job_budget` nor `heartbeat_timeout` set, attempts run
/// inline on the worker thread (zero overhead). With either set, each
/// attempt runs on a detached thread the supervisor polls; a hung
/// attempt is abandoned (its thread parked behind a cancel flag) rather
/// than joined, so one wedged run can never deadlock the campaign.
///
/// A job that fails every attempt (`max_retries` + 1 of them) is
/// *quarantined*: it surfaces as a failed [`JobResult`] with
/// `quarantined = true`, the campaign keeps going, and the final report
/// lists it.
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Wall-clock cap per attempt. `None` = unlimited.
    pub job_budget: Option<Duration>,
    /// Longest tolerated silence between progress heartbeats (the
    /// runner's per-slice [`Progress`](ccsim_core::Progress) callbacks)
    /// before an attempt is declared hung. `None` = no hang detection.
    pub heartbeat_timeout: Option<Duration>,
    /// Retries after the first failed attempt (0 = fail fast).
    pub max_retries: u32,
    /// Linear backoff: the wait before retry `k` (1-based) is
    /// `backoff * k`. Deterministic — no jitter, by design.
    pub backoff: Duration,
    /// Test hook: jobs whose name contains this substring panic at their
    /// first progress report. Exercises the retry/quarantine/crash-bundle
    /// path without a buggy scenario.
    pub force_panic_jobs: Option<String>,
    /// Test hook: jobs whose name contains this substring stop
    /// heartbeating at their first progress report (until the supervisor
    /// abandons them). Exercises hang detection.
    pub force_hang_jobs: Option<String>,
}

impl Default for SupervisorOptions {
    fn default() -> SupervisorOptions {
        SupervisorOptions {
            job_budget: None,
            heartbeat_timeout: None,
            max_retries: 0,
            backoff: Duration::from_millis(50),
            force_panic_jobs: None,
            force_hang_jobs: None,
        }
    }
}

impl SupervisorOptions {
    fn monitored(&self) -> bool {
        self.job_budget.is_some() || self.heartbeat_timeout.is_some()
    }

    fn forces_panic(&self, job_name: &str) -> bool {
        self.force_panic_jobs
            .as_deref()
            .is_some_and(|needle| job_name.contains(needle))
    }

    fn forces_hang(&self, job_name: &str) -> bool {
        self.force_hang_jobs
            .as_deref()
            .is_some_and(|needle| job_name.contains(needle))
    }
}

/// The result of one executed job: the observed run on success, an error
/// string (typed failure or panic message) otherwise.
#[derive(Debug)]
pub struct JobResult {
    pub job: CampaignJob,
    /// FNV-1a digest of the job's scenario configuration.
    pub config_digest: u64,
    pub run: Result<ObservedRun, String>,
    /// Crash-bundle directory, when the job failed and a crash dir was
    /// configured and the bundle write succeeded.
    pub crash_bundle: Option<PathBuf>,
    /// Attempts consumed (1 unless the supervisor retried).
    pub attempts: u32,
    /// The job failed every configured attempt and was quarantined
    /// (implies `run` is `Err`; the campaign completed without it).
    pub quarantined: bool,
}

impl JobResult {
    /// The metric rollup, for successful runs: every stored row of
    /// [`METRICS`] read out of the run, plus the per-bottleneck records.
    pub fn rollup(&self) -> Option<Rollup> {
        let obs = self.run.as_ref().ok()?;
        let run = Run::new(obs);
        let mut rollup = Rollup {
            bottlenecks: obs.outcome.bottlenecks.clone(),
            ..Rollup::default()
        };
        for metric in METRICS {
            if let Some(value) = (metric.extract)(&run) {
                (metric.store)(&mut rollup, value);
            }
        }
        Some(rollup)
    }
}

/// One attempt's failure: a typed simulator error (including panics
/// folded into [`SimError::Panic`](ccsim_core::SimError)), or a hang the
/// supervisor detected from outside (no error value exists — the attempt
/// thread is still wedged).
enum AttemptError {
    Sim(ccsim_core::SimError),
    Hang(String),
}

impl AttemptError {
    fn message(&self) -> String {
        match self {
            AttemptError::Sim(e) => e.to_string(),
            AttemptError::Hang(msg) => msg.clone(),
        }
    }
}

/// Run one attempt inline. The request's guard folds panics (including
/// the forced-panic test hook) into `SimError::Panic` with the payload
/// text preserved.
fn attempt(
    job: &CampaignJob,
    observe: ObserveOptions,
    live: Option<Arc<LiveState>>,
    sup: &SupervisorOptions,
    heartbeat: &AtomicU64,
    cancel: &AtomicBool,
    clock: Instant,
) -> Result<ObservedRun, ccsim_core::SimError> {
    let force_panic = sup.forces_panic(&job.name);
    let force_hang = sup.forces_hang(&job.name);
    let mut hook_fired = false;
    let mut request = RunRequest::new(&job.scenario).observe(observe).guard(None);
    if let Some(state) = live {
        request = request.live(state);
    }
    let report = request
        .on_progress(|_| {
            heartbeat.store(clock.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if !hook_fired {
                hook_fired = true;
                if force_panic {
                    panic!("forced panic (supervisor test hook)");
                }
                if force_hang {
                    // Go silent until the supervisor abandons the
                    // attempt, then unwind so the thread actually exits
                    // (the result channel is already closed; the send
                    // below fails silently).
                    while !cancel.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    panic!("forced hang (supervisor test hook): cancelled");
                }
            }
        })
        .execute()?;
    Ok(report.into_observed().expect("observed request"))
}

/// Run one attempt under supervision. Unmonitored jobs run inline on the
/// worker thread; monitored jobs run on a detached thread the supervisor
/// polls for completion, budget overrun, and heartbeat silence.
fn supervised_attempt(
    job: &CampaignJob,
    observe: ObserveOptions,
    live: Option<Arc<LiveState>>,
    sup: &SupervisorOptions,
) -> Result<ObservedRun, AttemptError> {
    let heartbeat = Arc::new(AtomicU64::new(0));
    let cancel = Arc::new(AtomicBool::new(false));
    let clock = Instant::now();
    if !sup.monitored() {
        return attempt(job, observe, live, sup, &heartbeat, &cancel, clock)
            .map_err(AttemptError::Sim);
    }
    let (tx, rx) = mpsc::channel();
    let handle = {
        let job = job.clone();
        let sup = sup.clone();
        let heartbeat = Arc::clone(&heartbeat);
        let cancel = Arc::clone(&cancel);
        std::thread::Builder::new()
            .name(format!("ccsim-job:{}", job.name))
            .spawn(move || {
                let _ = tx.send(attempt(
                    &job, observe, live, &sup, &heartbeat, &cancel, clock,
                ));
            })
            .expect("spawn job attempt thread")
    };
    loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(r) => {
                let _ = handle.join();
                return r.map_err(AttemptError::Sim);
            }
            Err(RecvTimeoutError::Disconnected) => {
                // The attempt thread died without sending (it cannot
                // panic past the request's guard; this is belt-and-braces).
                let _ = handle.join();
                return Err(AttemptError::Hang(
                    "job thread exited without reporting a result".to_string(),
                ));
            }
            Err(RecvTimeoutError::Timeout) => {
                let elapsed = clock.elapsed();
                if let Some(budget) = sup.job_budget {
                    if elapsed > budget {
                        cancel.store(true, Ordering::Relaxed);
                        return Err(AttemptError::Hang(format!(
                            "attempt exceeded its wall-clock budget ({}ms > {}ms); abandoned",
                            elapsed.as_millis(),
                            budget.as_millis()
                        )));
                    }
                }
                if let Some(limit) = sup.heartbeat_timeout {
                    let last = Duration::from_nanos(heartbeat.load(Ordering::Relaxed));
                    let silence = elapsed.saturating_sub(last);
                    if silence > limit {
                        cancel.store(true, Ordering::Relaxed);
                        return Err(AttemptError::Hang(format!(
                            "no progress heartbeat for {}ms (limit {}ms); attempt abandoned as hung",
                            silence.as_millis(),
                            limit.as_millis()
                        )));
                    }
                }
            }
        }
    }
}

fn run_one(job: CampaignJob, opts: &ExecutorOptions, sup: &SupervisorOptions) -> JobResult {
    let config_digest = scenario_digest(&job.scenario);
    let mut observe = if opts.profile {
        ObserveOptions::profiled()
    } else {
        ObserveOptions::default()
    };
    observe.timeline = opts.timeline;
    let max_attempts = sup.max_retries.saturating_add(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let failure = match supervised_attempt(&job, observe, opts.live.clone(), sup) {
            Ok(obs) => {
                return JobResult {
                    job,
                    config_digest,
                    run: Ok(obs),
                    crash_bundle: None,
                    attempts,
                    quarantined: false,
                }
            }
            Err(e) => e,
        };
        if attempts < max_attempts {
            std::thread::sleep(sup.backoff.saturating_mul(attempts));
            continue;
        }
        // Final failure: quarantine. A crash bundle only makes sense for
        // typed errors/panics — a hung attempt never produced one.
        let crash_bundle = match (&opts.crash_dir, &failure) {
            (Some(dir), AttemptError::Sim(error)) => {
                crash::write_bundle(dir, &job.scenario, error).ok()
            }
            _ => None,
        };
        return JobResult {
            job,
            config_digest,
            run: Err(failure.message()),
            crash_bundle,
            attempts,
            quarantined: true,
        };
    }
}

/// Run every job on a pool of `opts.workers` threads, returning results
/// in input order. `on_done` fires from the worker thread as each job
/// completes (completion order, not input order) — feed it a
/// [`ccsim_telemetry::CampaignProgress`] and/or a ledger writer.
pub fn run_campaign<F>(jobs: Vec<CampaignJob>, opts: &ExecutorOptions, on_done: F) -> Vec<JobResult>
where
    F: Fn(&JobResult) + Sync,
{
    run_campaign_supervised(jobs, opts, &SupervisorOptions::default(), on_done)
}

/// [`run_campaign`] with an explicit supervision policy (budgets, hang
/// detection, retries, quarantine). The default policy reproduces the
/// plain executor exactly: one inline attempt, fail fast.
pub fn run_campaign_supervised<F>(
    jobs: Vec<CampaignJob>,
    opts: &ExecutorOptions,
    sup: &SupervisorOptions,
    on_done: F,
) -> Vec<JobResult>
where
    F: Fn(&JobResult) + Sync,
{
    let workers = opts.workers.max(1).min(jobs.len().max(1));
    if workers == 1 {
        return jobs
            .into_iter()
            .map(|job| {
                let r = run_one(job, opts, sup);
                on_done(&r);
                r
            })
            .collect();
    }
    let mut results: Vec<Option<JobResult>> = Vec::new();
    results.resize_with(jobs.len(), || None);
    let jobs_shared: Vec<Mutex<Option<CampaignJob>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let results_mutex = Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs_shared.len() {
                    break;
                }
                let job = jobs_shared[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each job is claimed exactly once");
                let r = run_one(job, opts, sup);
                on_done(&r);
                results_mutex.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect()
}

/// Run plain scenarios through the campaign executor (no axes — job
/// names are the scenario names): results come back in input order.
pub fn run_scenarios<F>(
    scenarios: &[Scenario],
    opts: &ExecutorOptions,
    on_done: F,
) -> Vec<JobResult>
where
    F: Fn(&JobResult) + Sync,
{
    let jobs = scenarios
        .iter()
        .map(|s| CampaignJob {
            name: s.name.clone(),
            axis: Vec::new(),
            seed: s.seed,
            scenario: s.clone(),
        })
        .collect();
    run_campaign(jobs, opts, on_done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_cca::CcaKind;
    use ccsim_core::FlowGroup;
    use ccsim_sim::{Bandwidth, SimDuration};

    fn tiny(seed: u64) -> Scenario {
        let mut s = Scenario::edge_scale()
            .named(format!("tiny/seed={seed}"))
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .seed(seed);
        s.bottleneck = Bandwidth::from_mbps(10);
        s.buffer_bytes = 100_000;
        s.warmup = SimDuration::from_secs(1);
        s.duration = SimDuration::from_secs(4);
        s.start_jitter = SimDuration::from_millis(100);
        s.convergence = None;
        s
    }

    #[test]
    fn results_come_back_in_input_order() {
        let scenarios: Vec<Scenario> = (1..=4).map(tiny).collect();
        let opts = ExecutorOptions {
            workers: 4,
            ..ExecutorOptions::default()
        };
        let results = run_scenarios(&scenarios, &opts, |_| {});
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.job.seed, i as u64 + 1);
            assert!(r.run.is_ok(), "{:?}", r.run.as_ref().err());
        }
    }

    #[test]
    fn failed_jobs_surface_as_errors_not_panics() {
        // An invalid scenario (zero duration) fails inside the runner.
        let mut bad = tiny(1);
        bad.duration = SimDuration::from_secs(0);
        let jobs = vec![CampaignJob {
            name: "bad".into(),
            axis: Vec::new(),
            seed: 1,
            scenario: bad,
        }];
        let results = run_campaign(jobs, &ExecutorOptions::default(), |_| {});
        assert_eq!(results.len(), 1);
        let err = results[0].run.as_ref().unwrap_err();
        assert!(err.contains("duration"), "{err}");
        assert!(results[0].crash_bundle.is_none());
    }

    #[test]
    fn forced_panic_is_retried_then_quarantined() {
        let sup = SupervisorOptions {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            force_panic_jobs: Some("victim".into()),
            ..SupervisorOptions::default()
        };
        let jobs = vec![
            CampaignJob {
                name: "victim/seed=1".into(),
                axis: Vec::new(),
                seed: 1,
                scenario: tiny(1),
            },
            CampaignJob {
                name: "healthy/seed=2".into(),
                axis: Vec::new(),
                seed: 2,
                scenario: tiny(2),
            },
        ];
        let opts = ExecutorOptions {
            workers: 1,
            ..ExecutorOptions::default()
        };
        let results = run_campaign_supervised(jobs, &opts, &sup, |_| {});
        // The sabotaged job burned all three attempts and was
        // quarantined; the campaign still completed the healthy job.
        assert_eq!(results[0].attempts, 3);
        assert!(results[0].quarantined);
        let err = results[0].run.as_ref().unwrap_err();
        assert!(err.contains("forced panic"), "{err}");
        assert_eq!(results[1].attempts, 1);
        assert!(!results[1].quarantined);
        assert!(results[1].run.is_ok());
    }

    #[test]
    fn panic_payload_text_reaches_the_crash_bundle_manifest() {
        let dir = std::env::temp_dir().join(format!("ccsim-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sup = SupervisorOptions {
            force_panic_jobs: Some("victim".into()),
            ..SupervisorOptions::default()
        };
        let jobs = vec![CampaignJob {
            name: "victim/seed=1".into(),
            axis: Vec::new(),
            seed: 1,
            scenario: tiny(1),
        }];
        let opts = ExecutorOptions {
            workers: 1,
            crash_dir: Some(dir.clone()),
            ..ExecutorOptions::default()
        };
        let results = run_campaign_supervised(jobs, &opts, &sup, |_| {});
        let bundle = results[0].crash_bundle.as_ref().expect("bundle written");
        let manifest = std::fs::read_to_string(bundle.join("crash.json")).unwrap();
        // The panic payload text survives into the bundle manifest.
        assert!(manifest.contains("forced panic"), "{manifest}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hung_jobs_are_detected_and_quarantined_without_blocking() {
        let sup = SupervisorOptions {
            heartbeat_timeout: Some(Duration::from_millis(120)),
            max_retries: 1,
            backoff: Duration::from_millis(1),
            force_hang_jobs: Some("wedged".into()),
            ..SupervisorOptions::default()
        };
        let jobs = vec![
            CampaignJob {
                name: "wedged/seed=1".into(),
                axis: Vec::new(),
                seed: 1,
                scenario: tiny(1),
            },
            CampaignJob {
                name: "healthy/seed=2".into(),
                axis: Vec::new(),
                seed: 2,
                scenario: tiny(2),
            },
        ];
        let opts = ExecutorOptions {
            workers: 1,
            ..ExecutorOptions::default()
        };
        let start = Instant::now();
        let results = run_campaign_supervised(jobs, &opts, &sup, |_| {});
        assert_eq!(results[0].attempts, 2);
        assert!(results[0].quarantined);
        let err = results[0].run.as_ref().unwrap_err();
        assert!(err.contains("heartbeat"), "{err}");
        // A hang never produced a typed error, so no bundle either way.
        assert!(results[0].crash_bundle.is_none());
        assert!(results[1].run.is_ok());
        // The supervisor abandoned the wedged attempts instead of
        // waiting on them: the whole campaign finishes promptly.
        assert!(start.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn wall_clock_budget_bounds_an_attempt() {
        let sup = SupervisorOptions {
            job_budget: Some(Duration::from_millis(1)),
            ..SupervisorOptions::default()
        };
        // Long enough that the run cannot beat the first supervisor poll.
        let mut slow = tiny(1);
        slow.duration = SimDuration::from_secs(120);
        let jobs = vec![CampaignJob {
            name: "slow/seed=1".into(),
            axis: Vec::new(),
            seed: 1,
            scenario: slow,
        }];
        let opts = ExecutorOptions {
            workers: 1,
            ..ExecutorOptions::default()
        };
        let results = run_campaign_supervised(jobs, &opts, &sup, |_| {});
        assert!(results[0].quarantined);
        let err = results[0].run.as_ref().unwrap_err();
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn rollup_reads_the_paper_metrics() {
        let results = run_scenarios(&[tiny(3)], &ExecutorOptions::default(), |_| {});
        let rollup = results[0].rollup().unwrap();
        assert!(rollup.utilization > 0.5);
        assert!(rollup.jfi.unwrap() > 0.5);
        // Two Reno flows halving against a 100 kB buffer: both Mathis
        // fits (Table 1, Figure 2) and the Figure 3 ratio are present.
        assert!(rollup.mathis_c_loss.unwrap() > 0.0);
        assert!(rollup.mathis_c_halving.unwrap() > 0.0);
        assert!(rollup.mathis_err_halving.is_some());
        assert!(rollup.loss_to_halving_ratio.unwrap() >= 1.0);
        // No trace configured: the sync index is absent, not invented.
        assert_eq!(rollup.sync_index, None);
        // No timeline configured: no convergence time either.
        assert_eq!(rollup.convergence_time, None);
        // Every row reads back from the ledger entry what it took from
        // the run.
        let entry = crate::LedgerEntry::from_result(&results[0]);
        let run = Run::new(results[0].run.as_ref().unwrap());
        for metric in METRICS {
            let (read, extracted) = ((metric.read)(&entry), (metric.extract)(&run));
            assert_eq!(read, extracted, "{}", metric.name);
        }
    }

    #[test]
    fn timeline_option_fills_convergence_time_without_changing_digests() {
        let plain = run_scenarios(&[tiny(3)], &ExecutorOptions::default(), |_| {});
        let opts = ExecutorOptions {
            timeline: Some(TimelineConfig::default()),
            ..ExecutorOptions::default()
        };
        let timelined = run_scenarios(&[tiny(3)], &opts, |_| {});
        let obs = timelined[0].run.as_ref().unwrap();
        assert_eq!(
            plain[0].run.as_ref().unwrap().manifest.outcome_digest,
            obs.manifest.outcome_digest
        );
        let summary = obs.manifest.timeline.as_ref().expect("timeline summary");
        assert!(summary.rows > 0);
        let rollup = timelined[0].rollup().unwrap();
        assert_eq!(rollup.convergence_time, summary.time_to_alpha_fair);
        // Two fair Reno flows at equal RTT converge quickly: the rollup
        // actually carries a time, it is not vacuously None.
        assert!(rollup.convergence_time.is_some());
    }
}
