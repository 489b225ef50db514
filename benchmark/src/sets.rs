//! `run`, `aa` and `pin`: sets of fresh-process runs.
//!
//! A set runs every workload `RUNS_PER_SET` times, each run a child process
//! of this binary in single-run mode, strictly one after another (so peak
//! RSS is per run and nothing competes for the two cores), and reports
//! each end-to-end metric's median with quartiles, minimum and CV.

use crate::compat::{self, num, obj, Json};
use crate::e2e::{results_dir, E2eReport};
use crate::expected::{self, Entry, Expected};
use crate::spec::{self, Better, MetricSpec};
use crate::{stats, workloads, Args};
use ccsim_core::run;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A child that has not finished by then is killed and counted as failed.
const CHILD_WATCHDOG: Duration = Duration::from_secs(180);

pub struct SetOptions {
    pub seed: u64,
    pub seconds: f64,
    /// Every workload, or the one `--workload` named.
    pub workloads: Vec<&'static str>,
}

impl SetOptions {
    pub fn from_args(args: &Args) -> Result<SetOptions, String> {
        let workloads = match args.get("workload") {
            None => spec::WORKLOADS.to_vec(),
            Some(name) => vec![*spec::WORKLOADS
                .iter()
                .find(|w| **w == name)
                .ok_or_else(|| format!("unknown workload `{name}`"))?],
        };
        Ok(SetOptions {
            seed: args.num("seed", spec::DEFAULT_SEED)?,
            seconds: args.num("seconds", spec::RUN_SECONDS as f64)?,
            workloads,
        })
    }
}

/// What a single-run child printed on its last line.
#[derive(Debug, Clone, Default)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let doc = Json::parse(line).map_err(|e| format!("child result line: {e}"))?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("child result lacks metrics".into());
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(1),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// Run one single-run child to completion under the watchdog.
fn spawn_child(
    workload: &str,
    opts: &SetOptions,
    trace: bool,
) -> Result<(ChildResult, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut pipe = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = pipe.read_to_string(&mut out);
        out
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break Some(status),
            None if started.elapsed() > CHILD_WATCHDOG => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let stdout = reader.join().map_err(|_| "stdout reader panicked")?;
    match status {
        None => Err(format!(
            "watchdog: no result within {} s",
            CHILD_WATCHDOG.as_secs()
        )),
        Some(_) => parse_child(&stdout).map(|r| (r, stdout)),
    }
}

/// One workload's runs within a set.
#[derive(Debug, Default)]
struct WorkloadRuns {
    /// Per end-to-end metric, one value per successful run.
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    traced: Option<ChildResult>,
}

type Set = BTreeMap<&'static str, WorkloadRuns>;

fn run_set(opts: &SetOptions, traced: bool, label: &str) -> Set {
    let mut set = Set::new();
    for &workload in &opts.workloads {
        let mut runs = WorkloadRuns::default();
        for i in 0..spec::RUNS_PER_SET {
            eprint!(
                "[{label}] {workload} run {}/{} ... ",
                i + 1,
                spec::RUNS_PER_SET
            );
            match spawn_child(workload, opts, false) {
                Ok((child, _)) => {
                    runs.attempted += child.attempted;
                    runs.failed += child.failed;
                    eprintln!(
                        "wall_s {:.3}{}",
                        child.metrics.get("wall_s").copied().unwrap_or(0.0),
                        if child.correct { "" } else { "  FAILED" }
                    );
                    if child.correct {
                        for (name, value) in child.metrics {
                            runs.values.entry(name).or_default().push(value);
                        }
                    }
                }
                Err(e) => {
                    runs.attempted += 1;
                    runs.failed += 1;
                    eprintln!("FAILED: {e}");
                }
            }
        }
        if traced {
            eprintln!("[{label}] {workload} traced run ...");
            match spawn_child(workload, opts, true) {
                Ok((child, stdout)) => {
                    runs.attempted += child.attempted;
                    runs.failed += child.failed;
                    // Everything but the machine-readable last line.
                    let body: Vec<&str> = stdout.lines().collect();
                    for line in &body[..body.len().saturating_sub(1)] {
                        println!("{line}");
                    }
                    runs.traced = Some(child);
                }
                Err(e) => {
                    runs.attempted += 1;
                    runs.failed += 1;
                    eprintln!("traced run FAILED: {e}");
                }
            }
        }
        set.insert(workload, runs);
    }
    set
}

fn print_set(set: &Set, opts: &SetOptions) {
    println!(
        "# end-to-end metrics: median of {} fresh-process runs, seed {}, {} s each",
        spec::RUNS_PER_SET,
        opts.seed,
        opts.seconds
    );
    println!(
        "{:<26} {:<15} {:>14} {:>14} {:>14} {:>14} {:>7} {:>8}  unit",
        "workload", "metric", "median", "q1", "q3", "min", "cv", "spread"
    );
    for (workload, runs) in set {
        for m in &spec::END_TO_END {
            let v = runs.values.get(m.name).map(Vec::as_slice).unwrap_or(&[]);
            let (q1, _, q3) = stats::quartiles(v);
            println!(
                "{:<26} {:<15} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>7.4} {:>8.4}  {}",
                workload,
                m.name,
                stats::median(v),
                q1,
                q3,
                if v.is_empty() { 0.0 } else { stats::min(v) },
                stats::cv(v),
                stats::spread(v),
                m.unit
            );
        }
        println!(
            "{workload:<26} {:<15} {:>14}  count",
            "runs_attempted", runs.attempted
        );
        println!(
            "{workload:<26} {:<15} {:>14}  count",
            "runs_failed", runs.failed
        );
    }
}

fn set_failed(set: &Set) -> u64 {
    set.values().map(|r| r.failed).sum()
}

/// The human-readable part of a single end-to-end run.
pub fn print_e2e_report(workload: &str, seed: u64, r: &E2eReport) {
    println!(
        "# {workload} seed {seed}: {} repetitions, {} set-up builds",
        r.wall_reps.len(),
        r.setup_reps.len()
    );
    let (_, q2, q3) = stats::quartiles(&r.wall_reps);
    println!(
        "wall_s {:.6} s (first quartile; median {q2:.6}, q3 {q3:.6}, min {:.6}, cv {:.4})",
        r.wall_s(),
        stats::min(&r.wall_reps),
        stats::cv(&r.wall_reps)
    );
    println!(
        "events_per_s {:.1} 1/s ({} events per repetition)",
        r.events_per_s(),
        r.events
    );
    println!("setup_s {:.6} s", r.setup_s());
    println!("peak_rss_bytes {} bytes", r.peak_rss_bytes);
    println!("runs_attempted {} count", r.attempted);
    println!("runs_failed {} count", r.failed);
    for note in &r.notes {
        println!("note: {note}");
    }
}

pub fn cmd_run(opts: &SetOptions, traced: bool) -> Result<bool, String> {
    let set = run_set(opts, traced, "run");
    print_set(&set, opts);
    Ok(set_failed(&set) == 0)
}

/// How far `b` is *worse* than `a` as a share of `a` (negative = better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn git_head() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        None => "unknown".into(),
        Some(head) => match git(&["status", "--porcelain"]) {
            Some(dirty) if !dirty.is_empty() => format!("{head}-dirty"),
            _ => head,
        },
    }
}

pub fn cmd_aa(opts: &SetOptions) -> Result<bool, String> {
    let a = run_set(opts, true, "A");
    let b = run_set(opts, true, "B");
    println!("# set A");
    print_set(&a, opts);
    println!("# set B");
    print_set(&b, opts);

    println!("# A/A: same code, two sets");
    println!(
        "{:<26} {:<15} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "bound", "spread"
    );
    let mut disagreements = 0;
    let mut unresolved = 0;
    let mut rows = Vec::new();
    for &workload in &opts.workloads {
        let (ra, rb) = (&a[workload], &b[workload]);
        for m in &spec::END_TO_END {
            let empty = Vec::new();
            let (va, vb) = (
                ra.values.get(m.name).unwrap_or(&empty),
                rb.values.get(m.name).unwrap_or(&empty),
            );
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let spread = stats::spread(va).max(stats::spread(vb));
            // Same code on both sides, so a move in either direction
            // beyond the bound is a disagreement.
            let moved = worsening(m, ma, mb).abs().max(worsening(m, mb, ma).abs());
            let verdict = if moved > m.bound {
                disagreements += 1;
                "DISAGREE"
            } else if spread > m.bound {
                unresolved += 1;
                "unresolved"
            } else {
                "agree"
            };
            println!(
                "{:<26} {:<15} {:>14.6} {:>14.6} {:>8.4} {:>7.2} {:>8.4}  {verdict}",
                workload,
                m.name,
                ma,
                mb,
                if ma == 0.0 { 0.0 } else { mb / ma },
                m.bound,
                spread
            );
            rows.push(obj(vec![
                ("workload", Json::Str(workload.into())),
                ("metric", Json::Str(m.name.into())),
                ("median_a", num(ma)),
                ("median_b", num(mb)),
                ("spread", num(spread)),
                ("verdict", Json::Str(verdict.into())),
            ]));
        }
        // Exact counts must repeat exactly.
        if let (Some(ta), Some(tb)) = (&ra.traced, &rb.traced) {
            for m in spec::PER_LAYER.iter().filter(|m| m.unit == "count") {
                let (ca, cb) = (ta.metrics.get(m.name), tb.metrics.get(m.name));
                if ca != cb {
                    disagreements += 1;
                    println!(
                        "{workload:<26} {:<40} {ca:?} vs {cb:?}  COUNT DIFFERS",
                        m.name
                    );
                }
            }
        } else {
            disagreements += 1;
            println!("{workload:<26} traced run missing from a set");
        }
    }
    let failed = set_failed(&a) + set_failed(&b);
    println!("runs_failed {failed} count");
    println!("disagreements {disagreements} count");
    println!("unresolved {unresolved} count");

    let record = obj(vec![
        ("commit", Json::Str(git_head())),
        (
            "unix_time",
            num(SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0.0, |d| d.as_secs() as f64)),
        ),
        ("seed", num(opts.seed as f64)),
        ("seconds", num(opts.seconds)),
        ("runs_per_set", num(spec::RUNS_PER_SET as f64)),
        ("runs_failed", num(failed as f64)),
        ("disagreements", num(f64::from(disagreements))),
        ("unresolved", num(f64::from(unresolved))),
        ("rows", Json::Arr(rows)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", record.render()).map_err(|e| e.to_string())?;
    println!("appended to {}", path.display());
    // An `unresolved` pair has not been shown to agree, so it fails the
    // A/A check just as a disagreement does.
    Ok(failed == 0 && disagreements == 0 && unresolved == 0)
}

/// Regenerate `expected.json`: every workload at every pinned seed, run
/// twice, unobserved; the two must agree before the outcome is pinned.
pub fn cmd_pin() -> Result<bool, String> {
    let mut entries = Vec::new();
    for workload in spec::WORKLOADS {
        for seed in spec::PINNED_SEEDS {
            let scenario = workloads::scenario(workload, seed).expect("named workload");
            eprintln!("pinning {workload} seed {seed} ...");
            let first = compat::summarize(run(&scenario));
            let second = compat::summarize(run(&scenario));
            if let Some(diff) = expected::mismatch(&first, &second) {
                return Err(format!(
                    "{workload} seed {seed} is not deterministic: {diff}"
                ));
            }
            entries.push(Entry {
                workload: workload.to_string(),
                seed,
                summary: first,
            });
        }
    }
    let expected = Expected { entries };
    std::fs::write(expected::path(), expected.render()).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} entries)",
        expected::path().display(),
        expected.entries.len()
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_s_result_line_parses_back() {
        let report = E2eReport {
            wall_reps: vec![2.5, 2.0, 3.0],
            setup_reps: vec![0.001_234_567],
            events: 1000,
            attempted: 3,
            failed: 1,
            peak_rss_bytes: 4096,
            notes: Vec::new(),
        };
        let line = format!("human-readable text\n{}\n", report.to_json().render());
        let child = parse_child(&line).unwrap();
        assert!(!child.correct);
        assert_eq!((child.attempted, child.failed), (3, 1));
        assert_eq!(child.metrics["wall_s"], 2.0);
        assert_eq!(child.metrics["events_per_s"], 500.0);
        assert_eq!(child.metrics["setup_s"], 0.001_234_567);
        assert_eq!(child.metrics.len(), spec::END_TO_END.len());
        assert!(parse_child("no json here").is_err());
    }
}
