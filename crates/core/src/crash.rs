//! Crash-bundle capture and replay.
//!
//! When a guarded run fails — a typed [`SimError`] or an outright panic —
//! [`RunRequest::guard`](crate::RunRequest::guard) captures everything
//! needed to reproduce the failure into a self-contained directory:
//!
//! ```text
//! crash-<config-digest>/
//!   scenario.json      complete scenario (flows, seed, fault plan, …)
//!   fault_plan.json    the fault plan alone, for quick inspection
//!   crash.json         manifest: error class, message, watchdog report
//!   trace_tail.jsonl   flight-recorder contents up to the abort, when
//!                      the scenario had tracing enabled
//! ```
//!
//! Because the simulator is deterministic, `scenario.json` plus the seed
//! *is* the reproduction: `ccsim replay <dir>` re-runs it and reports
//! whether the failure recurs (and, for clean replays, the outcome
//! digest). The bundle directory name is the scenario's config digest, so
//! re-crashing the same configuration overwrites rather than accumulates.

use crate::codec::{scenario_from_json, scenario_to_json};
use crate::error::SimError;
use crate::observe::scenario_digest;
use crate::outcome::RunOutcome;
use crate::request::RunRequest;
use crate::scenario::Scenario;
use ccsim_sim::json::{Json, JsonError, JsonWriter};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Best-effort text of a panic payload (the common `&str`/`String` cases).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Write a bundle for `error` under `base`, returning the bundle path.
pub fn write_bundle(base: &Path, scenario: &Scenario, error: &SimError) -> io::Result<PathBuf> {
    let dir = base.join(format!("crash-{:016x}", scenario_digest(scenario)));
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("scenario.json"), scenario_to_json(scenario))?;
    fs::write(dir.join("fault_plan.json"), scenario.fault.to_json())?;

    let trace = match error {
        SimError::Invariant { trace, .. } => trace.as_ref(),
        _ => None,
    };
    let mut manifest = String::with_capacity(256);
    JsonWriter::compact(&mut manifest).obj(|w| {
        w.key("schema").str("ccsim-crash/1");
        w.key("scenario").str(&scenario.name);
        w.key("seed").u64(scenario.seed);
        w.key("config_digest")
            .str(&format!("{:016x}", scenario_digest(scenario)));
        w.key("error_class").str(error.class());
        w.key("error").str(&error.to_string());
        if let Some(report) = error.watchdog_report() {
            w.key("checks_run").u64(report.checks_run);
            w.key("violations").arr(&report.violations, |w, v| {
                w.obj(|w| {
                    w.key("at_ns").u64(v.at.as_nanos());
                    w.key("kind").str(v.kind.name());
                    w.key("detail").str(&v.detail);
                })
            });
        }
        w.key("trace_records")
            .u64(trace.map_or(0, |t| t.records.len() as u64));
    });
    fs::write(dir.join("crash.json"), manifest)?;

    if let Some(trace) = trace {
        let mut f = fs::File::create(dir.join("trace_tail.jsonl"))?;
        ccsim_trace::write_jsonl(trace, &mut f)?;
    }
    Ok(dir)
}

/// A loaded crash bundle, ready to replay.
#[derive(Debug)]
pub struct CrashBundle {
    pub dir: PathBuf,
    /// The exact scenario that failed (fault plan and seed included).
    pub scenario: Scenario,
    /// Error class recorded at capture time ("panic", "invariant", …).
    pub error_class: String,
    /// The captured error message.
    pub error: String,
}

/// Why a bundle failed to load.
#[derive(Debug)]
pub enum BundleError {
    Io(io::Error),
    Parse(JsonError),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "cannot read bundle: {e}"),
            BundleError::Parse(e) => write!(f, "malformed bundle: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<io::Error> for BundleError {
    fn from(e: io::Error) -> Self {
        BundleError::Io(e)
    }
}

impl From<JsonError> for BundleError {
    fn from(e: JsonError) -> Self {
        BundleError::Parse(e)
    }
}

impl CrashBundle {
    /// Load a bundle directory written by [`write_bundle`].
    pub fn load(dir: &Path) -> Result<CrashBundle, BundleError> {
        let scenario = scenario_from_json(&fs::read_to_string(dir.join("scenario.json"))?)?;
        let manifest = Json::parse(&fs::read_to_string(dir.join("crash.json"))?)?;
        Ok(CrashBundle {
            dir: dir.to_path_buf(),
            scenario,
            error_class: manifest.req_str("error_class")?.to_string(),
            error: manifest.req_str("error")?.to_string(),
        })
    }

    /// Re-run the captured scenario. Deterministic failures recur with
    /// the same typed error; externally-injected ones (a forced panic)
    /// replay clean and yield the outcome the crashed run never produced.
    pub fn replay(&self) -> Result<RunOutcome, SimError> {
        Ok(RunRequest::new(&self.scenario).execute()?.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FlowGroup;
    use ccsim_cca::CcaKind;
    use ccsim_sim::{Bandwidth, SimDuration, SimTime};

    fn tiny(seed: u64) -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("crash-tiny")
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .seed(seed);
        s.bottleneck = Bandwidth::from_mbps(10);
        s.buffer_bytes = 100_000;
        s.start_jitter = SimDuration::from_millis(100);
        s.warmup = SimDuration::from_secs(1);
        s.duration = SimDuration::from_secs(3);
        s.convergence = None;
        s
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccsim-crash-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn clean_run_passes_through() {
        let out = RunRequest::new(&tiny(1)).guard(None).execute().unwrap();
        assert!(out.outcome.events_processed > 0);
    }

    #[test]
    fn forced_panic_is_caught_and_bundled() {
        let base = temp_dir("panic");
        let failure = RunRequest::new(&tiny(2))
            .guard(Some(base.clone()))
            .on_progress(|p| {
                if p.now >= SimTime::from_secs(2) {
                    panic!("forced panic at {}", p.now);
                }
            })
            .execute()
            .unwrap_err();
        assert!(matches!(failure.error, SimError::Panic { .. }));
        assert!(failure.write_error.is_none());
        let bundle_dir = failure.bundle.unwrap();
        assert!(bundle_dir.join("scenario.json").is_file());
        assert!(bundle_dir.join("fault_plan.json").is_file());
        assert!(bundle_dir.join("crash.json").is_file());

        let bundle = CrashBundle::load(&bundle_dir).unwrap();
        assert_eq!(bundle.error_class, "panic");
        assert!(bundle.error.contains("forced panic"));
        assert_eq!(bundle.scenario.seed, 2);

        // The panic was injected from outside: the replay runs clean and
        // is deterministic.
        let a = bundle.replay().unwrap();
        let b = bundle.replay().unwrap();
        assert_eq!(a.digest(), b.digest());
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn scenario_error_needs_no_unwind() {
        let base = temp_dir("scenario");
        let bad = Scenario::edge_scale().named("empty"); // no flows
        let failure = RunRequest::new(&bad)
            .guard(Some(base.clone()))
            .execute()
            .unwrap_err();
        assert!(matches!(failure.error, SimError::Scenario(_)));
        let bundle = CrashBundle::load(&failure.bundle.unwrap()).unwrap();
        assert_eq!(bundle.error_class, "scenario");
        // Deterministic failure: the replay reproduces it.
        assert!(bundle.replay().is_err());
        let _ = fs::remove_dir_all(&base);
    }
}
