//! CLI contract tests: exit codes and stream discipline, by shelling
//! out to the real `ccsim` binary.
//!
//! Conventions under test: usage errors complain on **stderr** and exit
//! 2; `--help` prints on **stdout** and exits 0; runtime failures exit
//! 1; `campaign diff` exits 1 on findings and 0 when clean.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ccsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccsim"))
        .args(args)
        .output()
        .expect("spawn ccsim")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim-cli-itest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_errors_go_to_stderr_with_exit_2() {
    for args in [
        &[][..],
        &["campaign"][..],
        &["campaign", "frobnicate"][..],
        &["campaign", "run"][..],
        &["campaign", "diff", "only-one.jsonl"][..],
        &["campaign", "run", "--workers"][..],
    ] {
        let out = ccsim(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            stderr(&out).contains("usage:"),
            "args {args:?}: no usage on stderr"
        );
        assert!(
            stdout(&out).is_empty(),
            "args {args:?}: usage error leaked to stdout"
        );
    }
}

#[test]
fn flow_totals_past_the_limit_are_a_named_usage_error() {
    // 2^32 and 2^32 + 1 flows: a wrapping u32 sum reads 0 and 1.
    for last in ["reno:1:20", "reno:2:20"] {
        let out = ccsim(&["run", "--flows", "reno:4294967295:20", "--flows", last]);
        assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains("invalid scenario: scenario has 42949672"),
            "{err}"
        );
        assert!(err.contains("at most 1073741824"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(stdout(&out).is_empty());
    }
}

#[test]
fn help_goes_to_stdout_with_exit_0() {
    for args in [
        &["--help"][..],
        &["run", "--help"][..],
        &["campaign", "--help"][..],
        &["campaign", "run", "--help"][..],
    ] {
        let out = ccsim(args);
        assert_eq!(out.status.code(), Some(0), "args {args:?}");
        assert!(
            stdout(&out).contains("usage:"),
            "args {args:?}: no usage on stdout"
        );
        assert!(
            stderr(&out).is_empty(),
            "args {args:?}: help leaked to stderr"
        );
    }
}

/// End-to-end: run a tiny campaign twice, report it, diff the ledgers
/// clean, then doctor the current ledger and watch the sentinel fire.
#[test]
fn campaign_run_report_diff_round_trip() {
    let dir = temp_dir("campaign");
    let spec_path = dir.join("spec.json");
    std::fs::write(
        &spec_path,
        r#"{
            "name": "cli-itest",
            "base": {
                "preset": "edge", "bw_mbps": 10, "buffer_bytes": 100000,
                "flows": [{"cca": "reno", "count": 2, "rtt_ms": 20}],
                "fidelity": "quick", "warmup_s": 0.5, "duration_s": 2.0,
                "jitter_s": 0.1, "convergence": false
            },
            "axes": [{"param": "cca", "values": ["reno", "cubic"]}],
            "seeds": [1, 2]
        }"#,
    )
    .unwrap();
    let spec = spec_path.to_str().unwrap();
    let base = dir.join("base.jsonl");
    let cur = dir.join("cur.jsonl");

    let out = ccsim(&[
        "campaign",
        "run",
        spec,
        "--workers",
        "2",
        "--ledger",
        base.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let out = ccsim(&[
        "campaign",
        "run",
        spec,
        "--workers",
        "1",
        "--ledger",
        cur.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    // Report renders to a file.
    let report = dir.join("report.md");
    let out = ccsim(&[
        "campaign",
        "report",
        base.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let md = std::fs::read_to_string(&report).unwrap();
    assert!(md.contains("# Campaign report: cli-itest"));
    assert!(md.contains("## Jobs"));

    // Same campaign, different worker counts: the sentinel is clean
    // (skip the wall-clock-sensitive events/sec gate across runs).
    let out = ccsim(&[
        "campaign",
        "diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--skip-eps",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "expected clean diff, got: {}",
        stdout(&out)
    );
    assert!(stdout(&out).contains("clean"));

    // Doctor one outcome digest in the current ledger: exit 1.
    let text = std::fs::read_to_string(&cur).unwrap();
    let doctored = text.replacen("\"outcome_digest\":\"", "\"outcome_digest\":\"f00d", 1);
    assert_ne!(text, doctored);
    std::fs::write(&cur, doctored).unwrap();
    let out = ccsim(&[
        "campaign",
        "diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--skip-eps",
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("determinism-break"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_run_fails_with_exit_1_on_missing_spec() {
    let out = ccsim(&["campaign", "run", "/nonexistent/spec.json", "--quiet"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read spec"));
}

#[test]
fn campaign_diff_fails_with_exit_1_on_missing_ledger() {
    let out = ccsim(&[
        "campaign",
        "diff",
        "/nonexistent/a.jsonl",
        "/nonexistent/b.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot load ledger"));
}

/// A 2-flow run small enough for the debug binary.
const TINY: &[&str] = &[
    "run",
    "--flows",
    "reno:2:20",
    "--bw",
    "10",
    "--buffer",
    "100000",
    "--warmup",
    "1",
    "--duration",
    "4",
    "--seed",
    "3",
    "--json",
];

fn tiny_with(extra: &[&str]) -> Output {
    ccsim(&[TINY, extra].concat())
}

/// `--checkpoint-at` used to pick the one entry point without a callback:
/// the progress line and the `done in` summary went missing.
#[test]
fn checkpointing_keeps_the_progress_line_and_the_outcome() {
    let dir = temp_dir("ckpt-progress");
    let ckpt = dir.join("x.ckpt");
    let flags = [
        "--checkpoint-at",
        "2",
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
    ];

    let plain = tiny_with(&["--quiet"]);
    assert_eq!(plain.status.code(), Some(0), "stderr: {}", stderr(&plain));

    let loud = tiny_with(&flags);
    assert_eq!(loud.status.code(), Some(0), "stderr: {}", stderr(&loud));
    assert!(
        stderr(&loud).contains("[ccsim] done in"),
        "{}",
        stderr(&loud)
    );
    assert!(ckpt.is_file());
    assert_eq!(stdout(&loud), stdout(&plain));

    let quiet = tiny_with(&[&flags[..], &["--quiet"]].concat());
    assert!(!stderr(&quiet).contains("[ccsim]"), "{}", stderr(&quiet));
    assert_eq!(stdout(&quiet), stdout(&plain));
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint carries its own scenario: a scenario-shaping flag beside
/// `--resume-from` is a named usage error, not silently dropped.
#[test]
fn resume_from_rejects_scenario_flags_by_name() {
    for (args, named) in [
        (&["run", "--resume-from", "x", "--seed", "9"][..], "--seed"),
        (
            &["run", "--duration", "100", "--resume-from", "x"][..],
            "--duration",
        ),
        (
            &["run", "--resume-from", "x", "--watchdog"][..],
            "--watchdog",
        ),
        (&["trace", "--resume-from", "x"][..], "trace"),
    ] {
        let out = ccsim(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = stderr(&out);
        let complaint = err.lines().next().unwrap_or_default();
        assert!(complaint.contains(named), "args {args:?}: {complaint}");
        assert!(
            complaint.contains("--resume-from"),
            "args {args:?}: {complaint}"
        );
        assert!(stdout(&out).is_empty());
    }
    // The other rule that stays: no restored flight recorder is proven exact.
    let out = ccsim(&["trace", "--flows", "reno:2:20", "--checkpoint-at", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("trace cannot be combined with --checkpoint-at"));
}

/// `resume × observe` had no entry point before the request: it is legal
/// now, inert, and the manifest describes the whole run's outcome.
#[test]
fn a_resumed_run_can_be_observed() {
    let dir = temp_dir("resume-observed");
    let ckpt = dir.join("x.ckpt");
    let prom = dir.join("resumed.prom");

    let full = tiny_with(&[
        "--quiet",
        "--checkpoint-at",
        "2",
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(full.status.code(), Some(0), "stderr: {}", stderr(&full));

    let resumed = ccsim(&[
        "run",
        "--resume-from",
        ckpt.to_str().unwrap(),
        "--metrics",
        prom.to_str().unwrap(),
        "--json",
        "--quiet",
    ]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&resumed)
    );
    assert_eq!(stdout(&resumed), stdout(&full));
    assert!(prom.is_file());
    let manifest = std::fs::read_to_string(prom.with_extension("manifest.json")).unwrap();
    let digest = stderr(&resumed)
        .lines()
        .find_map(|l| l.strip_prefix("outcome digest  : ").map(str::to_string))
        .expect("resume prints the outcome digest");
    assert!(
        manifest.contains(&format!("\"outcome_digest\": \"{digest}\"")),
        "{manifest}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every pair the parser used to forbid, at once: an observed,
/// timelined, checkpointing run under the crash guard. The forced panic
/// still becomes exit 1 and a bundle that replays clean.
#[test]
fn the_crash_guard_composes_with_every_other_option() {
    let dir = temp_dir("guard-composes");
    let crashes = dir.join("crashes");
    let out = tiny_with(&[
        "--quiet",
        "--metrics",
        dir.join("m.prom").to_str().unwrap(),
        "--timeline",
        "--checkpoint-at",
        "2",
        "--checkpoint-out",
        dir.join("x.ckpt").to_str().unwrap(),
        "--crash-dir",
        crashes.to_str().unwrap(),
        "--force-panic",
        "3",
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("run failed: run panicked: forced panic"),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty(), "a failed run reports no outcome");

    let bundle = std::fs::read_dir(&crashes)
        .expect("crash dir written")
        .next()
        .expect("one bundle")
        .unwrap()
        .path();
    let replay = ccsim(&["replay", bundle.to_str().unwrap(), "--quiet", "--json"]);
    assert_eq!(replay.status.code(), Some(0), "stderr: {}", stderr(&replay));
    let clean = tiny_with(&["--quiet"]);
    assert_eq!(
        stdout(&replay).lines().next(),
        stdout(&clean).lines().next()
    );
    std::fs::remove_dir_all(&dir).ok();
}
