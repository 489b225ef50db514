//! One end-to-end run: `--workload W --seed N --seconds S --trace 0`.
//!
//! The process repeats the whole scenario until `--seconds` of measuring
//! have passed, timing a batch of set-ups (`BuiltNetwork::try_build`, each
//! network dropped before the next) before every repetition, and reports
//! each timing's first quartile (`stats::low_quartile` says why not the
//! median). Every repetition must reproduce the first one's outcome and,
//! where the (workload, seed) is pinned, `expected.json`.

use crate::compat::{self, num, obj, Json, OutcomeSummary};
use crate::expected::{mismatch, Expected};
use crate::{stats, workloads};
use ccsim_core::{run, BuiltNetwork, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is timed in a batch before every repetition, so its median
/// samples the same stretch of wall time as the repetitions' does (the
/// reference box changes speed by the minute). Each batch: at least this
/// many builds, then more until the budget is spent or the cap reached.
const SETUP_BATCH_MIN: usize = 3;
const SETUP_BATCH_MAX: usize = 100;
const SETUP_BATCH_BUDGET_SECS: f64 = 0.1;

pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Scratch directory for the observed workload's exports, inside the
/// checkout and private to this process.
pub fn scratch_dir() -> PathBuf {
    results_dir().join(format!("tmp-{}", std::process::id()))
}

/// Time one batch of `try_build` calls, each network dropped before the
/// next build, appending the seconds each took to `samples`.
pub fn time_setup_batch(scenario: &Scenario, samples: &mut Vec<f64>) -> Result<(), String> {
    let started = Instant::now();
    let mut built = 0;
    while built < SETUP_BATCH_MIN
        || (started.elapsed().as_secs_f64() < SETUP_BATCH_BUDGET_SECS && built < SETUP_BATCH_MAX)
    {
        let t0 = Instant::now();
        let net = BuiltNetwork::try_build(scenario).map_err(|e| e.to_string())?;
        samples.push(t0.elapsed().as_secs_f64());
        drop(net);
        built += 1;
    }
    Ok(())
}

/// One timed execution of the workload. `Err` covers both a typed
/// failure and a panic inside the simulator.
pub fn timed_run(workload: &str, scenario: &Scenario) -> (f64, Result<OutcomeSummary, String>) {
    let scratch = scratch_dir();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if workloads::is_observed(workload) {
            compat::run_observed_exporting(scenario, &scratch, |_| {}).map(|(o, _)| o)
        } else {
            Ok(run(scenario))
        }
    }));
    let wall = t0.elapsed().as_secs_f64();
    let outcome = match result {
        Ok(Ok(outcome)) => Ok(compat::summarize(outcome)),
        Ok(Err(e)) => Err(e),
        Err(panic) => Err(panic_text(panic)),
    };
    (wall, outcome)
}

pub fn panic_text(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// `VmHWM` of this process, in bytes.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

#[derive(Debug, Default)]
pub struct E2eReport {
    pub wall_reps: Vec<f64>,
    pub setup_reps: Vec<f64>,
    pub events: u64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_bytes: u64,
    /// Human-readable notes (failures, what was checked).
    pub notes: Vec<String>,
}

impl E2eReport {
    pub fn wall_s(&self) -> f64 {
        stats::low_quartile(&self.wall_reps)
    }

    pub fn setup_s(&self) -> f64 {
        stats::low_quartile(&self.setup_reps)
    }

    pub fn events_per_s(&self) -> f64 {
        let wall = self.wall_s();
        if wall > 0.0 {
            self.events as f64 / wall
        } else {
            0.0
        }
    }

    /// The driver's result line.
    pub fn to_json(&self) -> Json {
        let metric = |value: f64, unit: &str| {
            obj(vec![
                ("value", num(value)),
                ("unit", Json::Str(unit.into())),
            ])
        };
        obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", num(self.attempted.max(1) as f64)),
            ("failed", num(self.failed as f64)),
            (
                "metrics",
                obj(vec![
                    ("wall_s", metric(self.wall_s(), "s")),
                    ("events_per_s", metric(self.events_per_s(), "1/s")),
                    ("setup_s", metric(self.setup_s(), "s")),
                    (
                        "peak_rss_bytes",
                        metric(self.peak_rss_bytes as f64, "bytes"),
                    ),
                ]),
            ),
        ])
    }
}

pub fn run_e2e(workload: &str, seed: u64, seconds: f64) -> Result<E2eReport, String> {
    let scenario = workloads::scenario(workload, seed)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let expected = Expected::load()?;
    let pinned = expected.get(workload, scenario.seed);
    let mut report = E2eReport::default();

    let started = Instant::now();
    let mut first: Option<OutcomeSummary> = None;
    loop {
        time_setup_batch(&scenario, &mut report.setup_reps)?;
        let (wall, outcome) = timed_run(workload, &scenario);
        report.attempted += 1;
        match outcome {
            Ok(summary) => {
                let reference = pinned.or(first.as_ref());
                match reference.and_then(|want| mismatch(want, &summary)) {
                    Some(diff) => {
                        report.failed += 1;
                        let against = if pinned.is_some() {
                            "expected.json"
                        } else {
                            "first repetition"
                        };
                        report.notes.push(format!(
                            "repetition {} differs from {against}: {diff}",
                            report.attempted
                        ));
                    }
                    None => report.wall_reps.push(wall),
                }
                report.events = summary.events;
                if first.is_none() {
                    // One scenario's peak, as a user running it once would
                    // see: later repetitions only add allocator slack, and
                    // how many fit into `--seconds` varies.
                    report.peak_rss_bytes = peak_rss_bytes();
                    first = Some(summary);
                }
            }
            Err(e) => {
                report.failed += 1;
                report
                    .notes
                    .push(format!("repetition {} failed: {e}", report.attempted));
            }
        }
        let typical = stats::median(&report.wall_reps).max(wall);
        if started.elapsed().as_secs_f64() + typical / 2.0 >= seconds {
            break;
        }
    }

    // The observed workload's outcome must equal its unobserved twin's.
    // A pin is generated from the unobserved run, so matching it already
    // proves that; an unpinned seed pays for one extra plain run.
    if workloads::is_observed(workload) && pinned.is_none() {
        report.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| compat::summarize(run(&scenario)))) {
            Ok(plain) => {
                if let Some(diff) = first.as_ref().and_then(|obs| mismatch(&plain, obs)) {
                    report.failed += 1;
                    report
                        .notes
                        .push(format!("observed outcome differs from unobserved: {diff}"));
                }
            }
            Err(panic) => {
                report.failed += 1;
                report
                    .notes
                    .push(format!("unobserved twin failed: {}", panic_text(panic)));
            }
        }
    }
    let _ = std::fs::remove_dir_all(scratch_dir());

    if scenario.seed != seed {
        report.notes.push(format!(
            "{workload} is a fixed cell: --seed {seed} runs scenario seed {}",
            scenario.seed
        ));
    }
    report.notes.push(match pinned {
        Some(_) => format!(
            "outcome checked against expected.json (scenario seed {})",
            scenario.seed
        ),
        None => format!(
            "scenario seed {} is not pinned: repetitions checked against each other",
            scenario.seed
        ),
    });
    if report.peak_rss_bytes == 0 {
        report.peak_rss_bytes = peak_rss_bytes();
    }
    Ok(report)
}
