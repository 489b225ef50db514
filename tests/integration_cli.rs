//! CLI contract tests: exit codes and stream discipline, by shelling
//! out to the real `ccsim` binary.
//!
//! Conventions under test: usage errors complain on **stderr** and exit
//! 2; `--help` prints on **stdout** and exits 0; runtime failures exit
//! 1; `campaign diff` exits 1 on findings and 0 when clean, as `gates`
//! does on a failing row.

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
        &["-h"][..],
        &["campaign", "--help"][..],
        &["run", "--help"][..],
        &["trace", "--help"][..],
        &["perf", "-h"][..],
        &["timeline", "--help"][..],
        &["replay", "--help"][..],
        &["bisect", "--help"][..],
        &["campaign", "run", "--help"][..],
        &["campaign", "report", "--help"][..],
        &["campaign", "diff", "--help"][..],
        &["gates", "--help"][..],
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
    // A subcommand's help is its own, not the run flags'.
    for args in [&["replay", "--help"][..], &["bisect", "--help"][..]] {
        let help = stdout(&ccsim(args));
        assert!(
            help.starts_with(&format!("usage: ccsim {}", args[0])),
            "{help}"
        );
        assert!(!help.contains("--flows"), "args {args:?}: {help}");
    }
}

/// A value spelled `help` is a value: the run runs and writes its files.
#[test]
fn help_is_a_request_only_where_a_flag_may_stand() {
    let dir = temp_dir("help-value");
    let out = Command::new(env!("CARGO_BIN_EXE_ccsim"))
        .args([TINY, &["--quiet", "--metrics", "help"]].concat())
        .current_dir(&dir)
        .output()
        .expect("spawn ccsim");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).starts_with('{'), "{}", stdout(&out));
    assert!(dir.join("help").is_file() && dir.join("help.manifest.json").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag under the wrong subcommand names the subcommands that take it.
#[test]
fn wrong_subcommand_errors_name_the_ones_that_take_the_flag() {
    for (args, complaint) in [
        (
            &["timeline", "--policy", "keepall"][..],
            "--policy is only valid with the trace subcommand",
        ),
        (
            &["run", "--stride", "8"][..],
            "--stride is only valid with the perf subcommand",
        ),
        (
            &["run", "--out", "x"][..],
            "--out is only valid with the trace, timeline, bisect, campaign report subcommands",
        ),
    ] {
        let out = ccsim(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert_eq!(
            stderr(&out).lines().next(),
            Some(complaint),
            "args {args:?}"
        );
    }
}

/// Every seconds or milliseconds value goes through one parser: negative,
/// non-finite and clock-overflowing values are usage errors (some used to
/// panic or clamp to 0), fractions are accepted, and whole numbers give
/// the outcome they always did.
#[test]
fn time_values_are_checked_and_may_be_fractional() {
    let flows = ["run", "--flows", "reno:2:20"];
    let spec = ["campaign", "run", "spec.json"];
    for (prefix, flag, value) in [
        (&spec[..], "--job-budget", "-1"),
        (&spec[..], "--heartbeat-timeout", "nan"),
        (&spec[..], "--backoff", "-5"),
        (&spec[..], "--timeline-window", "inf"),
        (&flows[..], "--duration", "18446744073709551615"),
        (&flows[..], "--warmup", "18446744073.8"),
        (&flows[..], "--jitter", "-0.5"),
        (&flows[..], "--checkpoint-at", "-1"),
        (&flows[..], "--force-panic", "nan"),
        (&flows[..], "--timeline-window", "1e30"),
        (&flows[..], "--fault", "blackout:-3:1"),
        (&flows[..], "--fault", "delay:1:-4"),
        (&["run", "--flows"][..], "reno:2:-20", "--quiet"),
        (&["timeline", "--flows", "reno:2:20"][..], "--window", "-1"),
        (&["trace", "--flows", "reno:2:20"][..], "--sync-bin", "inf"),
    ] {
        let out = ccsim(&[prefix, &[flag, value]].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err}");
        assert!(
            err.starts_with("bad ") && !err.contains("panicked"),
            "{err}"
        );
    }
    // `--warmup 1 --duration 4` written as fractions: the same outcome.
    let whole = tiny_with(&["--quiet"]);
    let fractional = tiny_with(&["--quiet", "--warmup", "1.0", "--duration", "4.000"]);
    assert_eq!(fractional.status.code(), Some(0));
    assert_eq!(stdout(&fractional), stdout(&whole));
    let half = tiny_with(&["--quiet", "--duration", "1.5"]);
    assert_eq!(half.status.code(), Some(0), "{}", stderr(&half));
    assert_ne!(stdout(&half), stdout(&whole));
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

#[test]
fn gates_exits_0_when_every_row_passes_1_on_a_failing_row_2_on_an_unknown_job() {
    // The megascale job's two artefacts, as its commands write them.
    let dir = temp_dir("gates");
    let d = dir.to_str().unwrap();
    let write = |per_flow: &str| {
        let bench =
            format!("{{\"campaign\":\"megascale-smoke\",\"memory_per_flow_bytes\":{per_flow}}}");
        std::fs::write(dir.join("BENCH_megascale.json"), bench).unwrap();
    };
    let last_line = "{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{}}";
    std::fs::write(
        dir.join("mega100k.txt"),
        format!("runs_failed 0 count\n{last_line}\n"),
    )
    .unwrap();
    write("1924.372");
    let out = ccsim(&["gates", "megascale", d]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert_eq!(stdout(&out).lines().count(), 3);
    assert!(
        stdout(&out).lines().all(|l| l.ends_with(" ok")),
        "{}",
        stdout(&out)
    );

    // Its trip value: a 48-byte scoreboard segment.
    write("2168");
    let out = ccsim(&["gates", "megascale", d]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    let failing: Vec<&str> = text.lines().filter(|l| l.contains("FAIL")).collect();
    assert_eq!(failing.len(), 1, "{text}");
    assert!(failing[0].starts_with("megascale_smoke.memory_per_flow_bytes"));

    // A missing artefact fails its rows; it does not read 0.
    std::fs::remove_file(dir.join("BENCH_megascale.json")).unwrap();
    let out = ccsim(&["gates", "megascale", d]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout(&out).contains("BENCH_megascale.json"),
        "{}",
        stdout(&out)
    );

    for args in [&["gates", "nosuchjob", d][..], &["gates", "megascale"][..]] {
        let out = ccsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage: ccsim gates <job> <dir>"));
    }
    let _ = std::fs::remove_dir_all(&dir);
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

/// Scenario flags apply in the settings table's order (`--setting`,
/// `--fidelity`, then the rest), so an explicit time wins over the
/// fidelity preset wherever it stands on the line.
#[test]
fn explicit_times_win_over_the_fidelity_preset() {
    let small = ["run", "--flows", "reno:1:20", "--bw", "1", "--quiet"];
    for order in [
        ["--fidelity", "quick", "--duration", "60"],
        ["--duration", "60", "--fidelity", "quick"],
    ] {
        let out = ccsim(&[&small[..], &order].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(0), "{err}");
        assert!(
            err.contains("warmup 5.000000s, duration 60.000000s"),
            "{order:?}: {err}"
        );
    }
    // `--setting` is the spec's `preset` row, so it takes `mega` too.
    let out = ccsim(&[&small[..], &["--setting", "mega"]].concat());
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(
        err.contains("warmup 1.500000s, duration 1.000000s"),
        "{err}"
    );
}

/// A jitter inherited from the preset is capped at a shorter `--warmup`
/// (`TINY`'s 1 s warm-up under EdgeScale's 2 s jitter); an explicit one is
/// taken as given, and one longer than the warm-up is refused as it is in
/// a spec.
#[test]
fn only_an_inherited_jitter_is_capped_at_the_warm_up() {
    let out = tiny_with(&["--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = tiny_with(&["--quiet", "--jitter", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    let complaint = "invalid scenario: warm-up must cover the start-jitter window";
    assert!(err.starts_with(complaint), "{err}");
    assert!(stdout(&out).is_empty());
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
