//! `ccsim` — run ad-hoc congestion-control experiments from the shell.
//!
//! `ccsim --help` lists the subcommands and `ccsim <cmd> --help` the
//! flags one takes. Both, and the usage printed with every usage error,
//! are generated from [`FLAGS`]: one row per (subcommands, flag), read by
//! the one argv parser, so the help cannot drift from what is accepted.
//!
//! `trace`, `perf` and `timeline` run the same experiment as `run` with
//! the flight recorder, the `ccsim-prof` profiler or the windowed
//! time-series sampler attached. The profiler, the sampler and
//! `--metrics` are inert: the simulated outcome is bit-identical with or
//! without them.
//!
//! Every run flag composes with every other: `run`, `trace`, `perf`,
//! `timeline` and `--resume-from` all build one `RunRequest`, so metrics,
//! a timeline, a live endpoint, a checkpoint and the crash guard can ride
//! on the same run. Two combinations are rejected, both because they
//! would be wrong rather than because nothing implements them:
//! `--resume-from` with any flag that shapes the scenario (the checkpoint
//! carries its own — the `trace` subcommand counts, tracing is part of the
//! scenario), and `trace` with `--checkpoint-at` (no test yet proves a
//! restored flight recorder byte-exact). The table's `shapes` column is
//! the first list.
//!
//! `--checkpoint-at` snapshots the engine at the first snapshot-slice
//! boundary at or after the given time and the run continues to its end;
//! `--resume-from` restores it and produces an outcome byte-identical to
//! the uninterrupted run. An observed resume's manifest reports the
//! events/s of the resumed segment only.
//!
//! The scenario flags are the rows of `ccsim_core`'s settings table
//! ([`SETTINGS`]) that have a flag: a campaign spec's `base` keys and axes
//! read the same rows, so a flag and its spec key parse alike. They apply
//! in table order (`--setting`, then `--fidelity`, then the rest), so an
//! explicit `--warmup`/`--duration`/`--jitter` wins over `--fidelity`.
//!
//! Every time value, in a flag or inside a `--flows`/`--fault` spec, goes
//! through [`parse_time`]: whole numbers are exact (so whole-second inputs
//! keep their digests), fractions round to the nanosecond, and negative,
//! non-finite or clock-overflowing values are usage errors.
//!
//! Exit codes: 0 on success or help, 2 on a usage error, 1 on a runtime
//! failure (and on `campaign diff` findings or a `bisect` divergence), 3
//! when `replay` reproduces the captured failure.
//!
//! Examples:
//!
//! ```sh
//! # The paper's Figure 5 in one line: 25 cubic vs 25 reno on EdgeScale.
//! ccsim run --setting edge --flows cubic:25:20 --flows reno:25:20
//!
//! # A mini-CoreScale BBR fairness probe with self-observability.
//! ccsim run --setting core --bw 1000 --flows bbr:100:20 --duration 20 \
//!     --metrics out.prom
//!
//! # Record a traced run, thinned to a 16 MB budget.
//! ccsim trace --flows reno:10:20 --fidelity quick \
//!     --policy decimate:4 --trace-budget 16000000 --out /tmp/reno10
//! ```

use ccsim::cca::CcaKind;
use ccsim::experiments::settings::{build, parse_time, MILLIS, SECS};
use ccsim::experiments::{
    scenario_from_checkpoint, Checkpoint, CrashBundle, LiveState, ObserveOptions, RunOutcome,
    RunRequest, Scenario, ServeHandle, SettingError, Timeline, TimelineConfig, SETTINGS,
};
use ccsim::fault::{FaultPlan, WatchdogConfig};
use ccsim::prof::DEFAULT_STRIDE;
use ccsim::sim::json::Json;
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::telemetry::{validate_exposition, RunProgress};
use ccsim::trace::{RetentionPolicy, TraceConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::{Arc, LazyLock};

// Subcommand bits: a row of `FLAGS` names the subcommands that take it.
const RUN: u16 = 1;
const TRACE: u16 = 1 << 1;
const PERF: u16 = 1 << 2;
const TIMELINE: u16 = 1 << 3;
const REPLAY: u16 = 1 << 4;
const BISECT: u16 = 1 << 5;
const CAMPAIGN_RUN: u16 = 1 << 6;
const CAMPAIGN_REPORT: u16 = 1 << 7;
const CAMPAIGN_DIFF: u16 = 1 << 8;
/// The subcommands that build one `RunRequest` from the run flags.
const RUNS: u16 = RUN | TRACE | PERF | TIMELINE;
const CAMPAIGN: u16 = CAMPAIGN_RUN | CAMPAIGN_REPORT | CAMPAIGN_DIFF;
const ALL: u16 = RUNS | REPLAY | BISECT | CAMPAIGN;

/// Every subcommand: its bit, its name and its positional arguments.
const SUBCOMMANDS: [(u16, &str, &[&str]); 9] = [
    (RUN, "run", &[]),
    (TRACE, "trace", &[]),
    (PERF, "perf", &[]),
    (TIMELINE, "timeline", &[]),
    (REPLAY, "replay", &["<bundle-dir>"]),
    (BISECT, "bisect", &["<a.json>", "<b.json>"]),
    (CAMPAIGN_RUN, "campaign run", &["<spec.json>"]),
    (CAMPAIGN_REPORT, "campaign report", &["<ledger.jsonl>"]),
    (
        CAMPAIGN_DIFF,
        "campaign diff",
        &["<baseline.jsonl>", "<current.jsonl>"],
    ),
];

/// What each subcommand does, for `--help`.
fn about(cmd: u16) -> &'static str {
    match cmd {
        RUN => "run one experiment and print its outcome",
        TRACE => "run with the flight recorder; write it, report sync index and burstiness",
        PERF => "run with the profiler; print event counts, wheel counters, memory",
        TIMELINE => "run with the windowed sampler; print rows, time-to-α-fair, JFI trajectory",
        REPLAY => "re-run a crash bundle's scenario; exit 3 when the failure reproduces",
        BISECT => "find the first checkpoint slice where two scenarios diverge (exit 1)",
        CAMPAIGN_RUN => "run a spec's jobs on a worker pool into a ledger; exit 1 if any failed",
        CAMPAIGN_REPORT => "render a ledger as a Markdown or HTML fidelity report",
        CAMPAIGN_DIFF => "the regression sentinel: exit 1 on digest change, metric drift, eps drop",
        _ => unreachable!("{cmd:b} is not one subcommand"),
    }
}

/// One row of the flag table: a flag as the subcommands in `cmds` take
/// it. Rows are keyed on (subcommand, name) because `--out` means four
/// different things.
#[derive(Clone, Copy)]
struct Flag {
    cmds: u16,
    name: &'static str,
    /// The value's metavar, `None` for a switch. An `a|b|c` metavar is
    /// also the set of values [`Args::choice`] accepts.
    metavar: Option<&'static str>,
    /// Shapes the scenario, so `--resume-from` (whose checkpoint carries
    /// its own) refuses it.
    shapes: bool,
    help: &'static str,
}

const fn value(cmds: u16, name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        cmds,
        name,
        metavar: Some(metavar),
        shapes: false,
        help,
    }
}

const fn switch(cmds: u16, name: &'static str, help: &'static str) -> Flag {
    Flag {
        cmds,
        name,
        metavar: None,
        shapes: false,
        help,
    }
}

impl Flag {
    const fn shapes(self) -> Flag {
        Flag {
            shapes: true,
            ..self
        }
    }
}

/// Every flag, in the order `--help` lists them: one row per settings-table
/// row with a flag (scenario-shaping, under the four run subcommands),
/// then the CLI's own.
static FLAGS: LazyLock<Vec<Flag>> = LazyLock::new(|| {
    let settings = SETTINGS.iter().filter_map(|s| {
        let flag = Flag {
            cmds: RUNS,
            name: s.flag?,
            metavar: s.metavar,
            shapes: true,
            help: s.help,
        };
        Some(flag)
    });
    settings.chain(CLI_FLAGS.iter().copied()).collect()
});

/// The flags that are not scenario settings. One row per line: the table
/// is read across, so rustfmt leaves its layout alone.
#[rustfmt::skip]
const CLI_FLAGS: &[Flag] = &[
    value(RUNS, "--seed", "<n>", "master seed").shapes(),
    value(RUNS, "--fault", "<spec>", "timed link impairment (repeatable)").shapes(),
    switch(RUNS, "--watchdog", "check invariants at every snapshot slice").shapes(),
    value(TRACE, "--policy", "<policy>", "keepall, decimate:N or reservoir:K").shapes(),
    value(TRACE, "--trace-budget", "<bytes>", "trace byte budget").shapes(),
    value(TRACE, "--queue-every", "<n>", "record every n-th queue sample").shapes(),
    switch(RUNS | REPLAY, "--json", "print the outcome as one JSON line"),
    switch(RUNS | REPLAY | CAMPAIGN_RUN, "--quiet", "no live progress line"),
    value(RUNS, "--metrics", "<path>", "Prometheus dump; manifest beside it (.manifest.json)"),
    switch(RUNS | CAMPAIGN_RUN, "--timeline", "attach the windowed sampler"),
    value(RUNS | CAMPAIGN_RUN, "--timeline-window", "<ms>", "sampler window (implies --timeline)"),
    value(RUNS, "--timeline-out", "<path>", "export the timeline (.cctl: binary)"),
    value(RUNS | CAMPAIGN_RUN, "--serve", "<port>", "serve /metrics, /timeline.jsonl on 127.0.0.1"),
    value(RUNS | CAMPAIGN_RUN, "--crash-dir", "<dir>", "write a replayable crash bundle there"),
    value(RUNS, "--force-panic", "<secs>", "testing: panic at this simulated time"),
    value(RUNS, "--checkpoint-at", "<secs>", "snapshot at the first slice from here"),
    value(RUNS, "--checkpoint-out", "<path>", "checkpoint file (default ccsim.ckpt)"),
    value(RUNS, "--resume-from", "<ckpt>", "restore a checkpoint, run to its horizon"),
    value(TRACE, "--out", "<prefix>", "write <prefix>.jsonl/.cctr (default trace)"),
    value(TRACE, "--format", "jsonl|bin|both", "trace files to write (default both)"),
    value(TRACE, "--sync-bin", "<ms>", "loss-synchronization bin (default 10)"),
    value(PERF, "--folded", "<path>", "write folded stacks for flamegraphs"),
    value(PERF, "--stride", "<events>", "events per clock sample (default 1024)"),
    value(TIMELINE, "--window", "<ms>", "sampler window"),
    value(TIMELINE, "--budget", "<bytes>", "retained-row byte budget"),
    value(TIMELINE, "--max-flows", "<n>", "flows with a per-flow series"),
    value(TIMELINE, "--out", "<path>", "export the retained rows"),
    value(TIMELINE, "--format", "jsonl|cctl", "export format (default by --out's extension)"),
    value(BISECT, "--out", "<dir>", "write the two divergent checkpoints here"),
    value(CAMPAIGN_RUN, "--workers", "<n>", "worker threads (default: available cores)"),
    value(CAMPAIGN_RUN, "--ledger", "<path>", "ledger (default <campaign>.ledger.jsonl)"),
    value(CAMPAIGN_RUN, "--report", "<path>", "also render the fidelity report"),
    switch(CAMPAIGN_RUN | CAMPAIGN_REPORT, "--html", "render the report as HTML"),
    value(CAMPAIGN_RUN, "--bench", "<path>", "write a machine-readable run summary"),
    switch(CAMPAIGN_RUN, "--profile", "profile every job (per-kind events/s in the ledger)"),
    value(CAMPAIGN_RUN, "--resume", "<ledger>", "skip the jobs it completed, append the rest"),
    value(CAMPAIGN_RUN, "--job-budget", "<secs>", "wall-clock cap per attempt"),
    value(CAMPAIGN_RUN, "--heartbeat-timeout", "<secs>", "silence after which an attempt hung"),
    value(CAMPAIGN_RUN, "--retries", "<n>", "retries before a job is quarantined"),
    value(CAMPAIGN_RUN, "--backoff", "<ms>", "linear backoff between attempts (default 50)"),
    value(CAMPAIGN_RUN, "--force-panic-job", "<substr>", "testing: matching jobs panic"),
    value(CAMPAIGN_RUN, "--force-hang-job", "<substr>", "testing: matching jobs hang"),
    value(CAMPAIGN_REPORT, "--out", "<path>", "write here (default -, stdout)"),
    value(CAMPAIGN_DIFF, "--eps-tol", "<frac>", "events/s drop tolerated (default: baseline's)"),
    switch(CAMPAIGN_DIFF, "--skip-eps", "no events/s gate (cross-machine diffs)"),
];

/// Appended to the help of the four run subcommands.
const RUN_NOTES: &str = "
ccas: reno, cubic, bbr, vegas
fault specs: blackout:<at_s>:<dur_s>  bw:<at_s>:<mbps>  delay:<at_s>:<ms>
             loss:<at_s>:<rate> (0 clears)  burstloss:<at_s>:<enter>:<exit>
             reorder:<at_s>:<rate>:<ms>  dup:<at_s>:<rate>
Times may be fractional. Run flags compose freely, with two exceptions:
--resume-from takes no flag that shapes the scenario (the checkpoint carries
its own; the trace subcommand counts), and trace takes no --checkpoint-at.
";

/// `usage:` with one synopsis per subcommand in `scope`, and for a single
/// subcommand one line per flag it takes.
fn usage_text(scope: u16) -> String {
    let mut out = String::new();
    for (i, (_, name, positionals)) in SUBCOMMANDS.iter().filter(|s| s.0 & scope != 0).enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        let args: String = positionals.iter().map(|p| format!("{p} ")).collect();
        let _ = writeln!(out, "{lead} ccsim {name} {args}[flags]");
    }
    if scope.count_ones() > 1 {
        return out + "\n`ccsim <cmd> --help` lists a subcommand's flags.\n";
    }
    for f in FLAGS.iter().filter(|f| f.cmds & scope != 0) {
        let flag = format!("{} {}", f.name, f.metavar.unwrap_or_default());
        let _ = writeln!(out, "  {:<32} {}", flag.trim_end(), f.help);
    }
    out
}

fn help_text(scope: u16) -> String {
    let mut out = usage_text(scope) + "\n";
    for &(cmd, name, _) in SUBCOMMANDS.iter().filter(|s| s.0 & scope != 0) {
        let _ = writeln!(out, "{name}: {}", about(cmd));
    }
    if scope & RUNS == scope {
        out.push_str(RUN_NOTES);
    }
    out + "\nexit codes: 0 success or help, 1 runtime failure, 2 usage error, 3 replay reproduced\n"
}

/// A usage error: the subcommands whose usage follows it, and the
/// complaint.
type Usage = (u16, String);

/// Bad invocation: complaint + usage to stderr, exit 2.
fn usage((scope, err): Usage) -> ! {
    eprint!("{err}\n\n{}", usage_text(scope));
    exit(2)
}

/// A command line the table accepted.
struct Args {
    cmd: u16,
    positionals: Vec<String>,
    /// Every flag given, with its value, in argv order.
    flags: Vec<(&'static Flag, Option<String>)>,
}

enum Parsed {
    Help(u16),
    Run(Args),
}

/// The one argv walk: the subcommand, then each word as a flag of its
/// table row (taking the next word when the row has a metavar) or as a
/// positional. `--help`/`-h` asks for help only where a flag may stand.
fn parse(argv: &[&str]) -> Result<Parsed, Usage> {
    let (name, rest) = match argv {
        ["--help" | "-h" | "help", ..] => return Ok(Parsed::Help(ALL)),
        ["campaign", "--help" | "-h", ..] => return Ok(Parsed::Help(CAMPAIGN)),
        ["campaign"] => {
            let err = "campaign needs a subcommand: run, report, or diff";
            return Err((CAMPAIGN, err.into()));
        }
        ["campaign", sub, rest @ ..] => (format!("campaign {sub}"), rest),
        [name, rest @ ..] => (name.to_string(), rest),
        [] => (String::new(), argv),
    };
    let Some(&(cmd, _, positionals)) = SUBCOMMANDS.iter().find(|s| s.1 == name) else {
        return Err(match name.strip_prefix("campaign ") {
            Some(sub) => (
                CAMPAIGN,
                format!("unknown campaign subcommand '{sub}' (want run, report, or diff)"),
            ),
            None => {
                let err =
                    "expected a subcommand: run, trace, perf, timeline, replay, bisect or campaign";
                (ALL, err.into())
            }
        });
    };
    let mut args = Args {
        cmd,
        positionals: Vec::new(),
        flags: Vec::new(),
    };
    let mut words = rest.iter();
    while let Some(&word) = words.next() {
        if matches!(word, "--help" | "-h") {
            return Ok(Parsed::Help(cmd));
        }
        if !word.starts_with('-') && args.positionals.len() < positionals.len() {
            args.positionals.push(word.to_string());
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name == word && f.cmds & cmd != 0) else {
            let takers: Vec<&str> = SUBCOMMANDS
                .iter()
                .filter(|s| FLAGS.iter().any(|f| f.name == word && f.cmds & s.0 != 0))
                .map(|s| s.1)
                .collect();
            if takers.is_empty() {
                return Err((cmd, format!("unknown {name} argument {word}")));
            }
            let (list, plural) = (takers.join(", "), if takers.len() > 1 { "s" } else { "" });
            return Err((
                cmd,
                format!("{word} is only valid with the {list} subcommand{plural}"),
            ));
        };
        let value = match flag.metavar {
            Some(_) => match words.next() {
                Some(v) => Some(v.to_string()),
                None => return Err((cmd, format!("missing value for {word}"))),
            },
            None => None,
        };
        args.flags.push((flag, value));
    }
    if args.positionals.len() < positionals.len() {
        return Err((cmd, format!("{name} needs {}", positionals.join(" "))));
    }
    // The checkpoint carries its own scenario, flight-recorder
    // configuration included; anything shaping one here would be ignored.
    let shaping = args
        .flags
        .iter()
        .find(|(f, _)| f.shapes)
        .map(|(f, _)| f.name);
    let shaping = shaping.or((cmd == TRACE).then_some("trace"));
    if let (true, Some(what)) = (args.has("--resume-from"), shaping) {
        let why = "the checkpoint carries its own scenario";
        return Err((
            cmd,
            format!("{what} cannot be combined with --resume-from: {why}"),
        ));
    }
    if cmd == TRACE && args.has("--checkpoint-at") {
        // No test yet proves a restored flight recorder byte-exact.
        return Err((cmd, "trace cannot be combined with --checkpoint-at".into()));
    }
    Ok(Parsed::Run(args))
}

impl Args {
    /// Exit 2 with `err` and this subcommand's usage.
    fn usage(&self, err: impl Into<String>) -> ! {
        usage((self.cmd, err.into()))
    }

    /// The rows and values given for `name`, in argv order.
    fn given(&self, name: &str) -> Vec<(&'static Flag, Option<&str>)> {
        debug_assert!(FLAGS.iter().any(|f| f.name == name), "{name} has no row");
        let given = self.flags.iter().filter(|(f, _)| f.name == name);
        given.map(|(f, v)| (*f, v.as_deref())).collect()
    }

    fn has(&self, name: &str) -> bool {
        !self.given(name).is_empty()
    }

    /// Every value of a repeatable flag.
    fn all(&self, name: &str) -> Vec<&str> {
        self.given(name)
            .into_iter()
            .filter_map(|(_, v)| v)
            .collect()
    }

    /// The last value given for `name`, read by `read`; a value it rejects
    /// is a usage error naming the flag and its metavar.
    fn value<'a, T>(&'a self, name: &str, read: impl FnOnce(&'a str) -> Option<T>) -> Option<T> {
        let (flag, v) = self.given(name).pop()?;
        let v = v?;
        let want = flag.metavar.unwrap_or_default();
        Some(read(v).unwrap_or_else(|| self.usage(format!("bad {name} {v} (want {want})"))))
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.value(name, Some)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name, |v| v.parse().ok())
    }

    /// A time value in units of `unit` nanoseconds (see [`parse_time`]).
    fn time(&self, name: &str, unit: u64) -> Option<SimDuration> {
        self.value(name, |v| parse_time(v, unit))
    }

    /// One of the alternatives the row's `a|b|c` metavar lists.
    fn choice(&self, name: &str) -> Option<&str> {
        let choices = self.given(name).pop()?.0.metavar?;
        self.value(name, |v| choices.split('|').any(|c| c == v).then_some(v))
    }
}

/// Parse one `--fault` spec onto the plan (times are seconds, delays
/// milliseconds, both possibly fractional).
fn parse_fault(plan: FaultPlan, spec: &str) -> Result<FaultPlan, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = |s: &str| format!("bad number '{s}' in --fault '{spec}'");
    let num = |i: usize| parts[i].parse::<f64>().map_err(|_| bad(parts[i]));
    let time = |i: usize, unit| parse_time(parts[i], unit).ok_or_else(|| bad(parts[i]));
    let at = || time(1, SECS).map(|d| SimTime::ZERO + d);
    Ok(match (parts[0], parts.len()) {
        ("blackout", 3) => plan.blackout(at()?, time(2, SECS)?),
        ("bw", 3) => plan.set_bandwidth(at()?, Bandwidth::from_mbps(num(2)? as u64)),
        ("delay", 3) => plan.set_extra_delay(at()?, time(2, MILLIS)?),
        ("loss", 3) if num(2)? == 0.0 => plan.clear_loss(at()?),
        ("loss", 3) => plan.iid_loss(at()?, num(2)?),
        ("burstloss", 4) => plan.burst_loss(at()?, num(2)?, num(3)?),
        ("reorder", 4) => plan.reorder(at()?, num(2)?, time(3, MILLIS)?),
        ("dup", 3) => plan.duplicate(at()?, num(2)?),
        _ => return Err(format!("bad --fault spec '{spec}' (see fault specs)")),
    })
}

/// The scenario the run flags describe (absent `--resume-from`): the
/// settings table's flags, then the CLI's own.
fn scenario_from_flags(args: &Args) -> Scenario {
    // A switch reads `true`, a repeatable flag the list of its values and
    // any other flag its last value.
    let given: Vec<_> = SETTINGS
        .iter()
        .filter_map(|row| {
            let given = args.given(row.flag?);
            let text = |v: &Option<&str>| Json::Str(v.unwrap_or_default().into());
            let value = match given.last()? {
                (_, None) => Json::Bool(true),
                _ if row.many => Json::Arr(given.iter().map(|(_, v)| text(v)).collect()),
                (_, v) => text(v),
            };
            Some((row, value))
        })
        .collect();
    let bad = |e: SettingError| {
        let flag = e.setting.flag.unwrap_or_default();
        args.usage(format!("bad {flag}: {}", e.reason))
    };
    let mut s = build(&given).unwrap_or_else(bad).named("cli");
    s.seed = args.parse("--seed").unwrap_or(s.seed);
    if args.cmd == TRACE {
        let mut trace = TraceConfig::standard();
        trace.policy = args
            .value("--policy", RetentionPolicy::parse)
            .unwrap_or(trace.policy);
        trace.max_bytes = args.parse("--trace-budget").unwrap_or(trace.max_bytes);
        let every = args.parse("--queue-every");
        trace.queue_sample_every = every.unwrap_or(trace.queue_sample_every);
        s = s.traced(trace);
    }
    let fault = args
        .all("--fault")
        .into_iter()
        .try_fold(FaultPlan::none(), parse_fault);
    s = s.faulted(fault.unwrap_or_else(|e| args.usage(e)));
    if args.has("--watchdog") {
        s = s.watched(WatchdogConfig::every_slice());
    }
    if let Err(e) = s.validate() {
        args.usage(format!("invalid scenario: {e}"));
    }
    s
}

/// A sampler window of at least 1 ms.
fn window(args: &Args, name: &str) -> Option<SimDuration> {
    let window = args.time(name, MILLIS)?;
    if window < SimDuration::from_millis(1) {
        args.usage(format!("{name} must be at least 1 ms"));
    }
    Some(window)
}

/// The sampler the flags ask for: always under `timeline`, otherwise on
/// any `--timeline*` flag.
fn timeline_config(args: &Args) -> Option<TimelineConfig> {
    let flags = ["--timeline", "--timeline-window", "--timeline-out"];
    let on = args.cmd == TIMELINE || flags.iter().any(|f| args.has(f));
    let mut config = on.then(TimelineConfig::default)?;
    let window = window(args, "--window").or_else(|| window(args, "--timeline-window"));
    config.window = window.unwrap_or(config.window);
    config.budget_bytes = args.parse("--budget").unwrap_or(config.budget_bytes);
    config.max_flows = args.parse("--max-flows").unwrap_or(config.max_flows);
    Some(config)
}

/// Exit 1 with a message — runtime (not usage) failures.
fn fail(msg: impl AsRef<str>) -> ! {
    eprintln!("{}", msg.as_ref());
    exit(1);
}

fn load_ledger(path: &str) -> ccsim::campaign::Ledger {
    ccsim::campaign::Ledger::load(Path::new(path))
        .unwrap_or_else(|e| fail(format!("cannot load ledger {path}: {e}")))
}

/// The `campaign run` subcommand.
fn campaign_run(args: &Args) -> ! {
    use ccsim::campaign::{
        run_campaign_supervised, CampaignSpec, ExecutorOptions, Ledger, LedgerEntry, LedgerWriter,
        SupervisorOptions,
    };
    use ccsim::telemetry::CampaignProgress;
    use std::time::Duration;

    let wall = |name, unit| {
        args.time(name, unit)
            .map(|d| Duration::from_nanos(d.as_nanos()))
    };
    let mut opts = ExecutorOptions {
        crash_dir: args.str("--crash-dir").map(PathBuf::from),
        profile: args.has("--profile"),
        timeline: timeline_config(args),
        ..ExecutorOptions::default()
    };
    opts.workers = args.parse("--workers").unwrap_or(opts.workers);
    let mut sup = SupervisorOptions {
        job_budget: wall("--job-budget", SECS),
        heartbeat_timeout: wall("--heartbeat-timeout", SECS),
        force_panic_jobs: args.str("--force-panic-job").map(str::to_string),
        force_hang_jobs: args.str("--force-hang-job").map(str::to_string),
        ..SupervisorOptions::default()
    };
    sup.max_retries = args.parse("--retries").unwrap_or(sup.max_retries);
    sup.backoff = wall("--backoff", MILLIS).unwrap_or(sup.backoff);
    let serve_port: Option<u16> = args.parse("--serve");
    let (ledger_path, resume_path) = (args.str("--ledger"), args.str("--resume"));
    if resume_path.is_some() && ledger_path.is_some() {
        args.usage("--resume appends to the given ledger; --ledger would name a second one");
    }
    let spec_path = &args.positionals[0];
    let text = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| fail(format!("cannot read spec {spec_path}: {e}")));
    let spec = CampaignSpec::from_json(&text)
        .unwrap_or_else(|e| fail(format!("bad campaign spec {spec_path}: {e}")));
    let mut jobs = spec
        .jobs()
        .unwrap_or_else(|e| fail(format!("cannot expand campaign: {e}")));
    let total_jobs = jobs.len();
    let (ledger_path, writer) = match resume_path {
        Some(path) => {
            // Skip every job whose config digest already has a successful
            // entry, then append the remainder to the same file (torn
            // final line truncated first).
            let prior = Ledger::load(Path::new(path))
                .unwrap_or_else(|e| fail(format!("cannot load resume ledger {path}: {e}")));
            if prior.campaign != spec.name {
                fail(format!(
                    "resume ledger {path} is for campaign \"{}\", spec is \"{}\"",
                    prior.campaign, spec.name
                ));
            }
            let done = prior.completed_digests();
            jobs.retain(|j| {
                let digest = format!(
                    "{:016x}",
                    ccsim::experiments::observe::scenario_digest(&j.scenario)
                );
                !done.contains(&digest)
            });
            eprintln!(
                "resuming campaign {}: {} of {total_jobs} jobs already complete, {} to run",
                spec.name,
                total_jobs - jobs.len(),
                jobs.len()
            );
            let writer = LedgerWriter::resume(Path::new(path))
                .unwrap_or_else(|e| fail(format!("cannot reopen ledger {path}: {e}")));
            (path.to_string(), writer)
        }
        None => {
            let path =
                ledger_path.map_or_else(|| format!("{}.ledger.jsonl", spec.name), str::to_string);
            let writer = LedgerWriter::create(
                Path::new(&path),
                &spec.name,
                &spec.tolerances,
                &spec.expectations,
            )
            .unwrap_or_else(|e| fail(format!("cannot create ledger {path}: {e}")));
            (path, writer)
        }
    };

    eprintln!(
        "campaign {}: {} jobs on {} workers -> {ledger_path}",
        spec.name,
        jobs.len(),
        opts.workers
    );
    // Bind before dispatching jobs so the endpoint is up for the whole
    // campaign; every worker publishes through the shared state.
    let live = serve_port.map(|port| serve_live(port, "campaign"));
    opts.live = live.as_ref().map(|(state, _)| Arc::clone(state));
    let progress = (!args.has("--quiet")).then(|| CampaignProgress::new(&spec.name, jobs.len()));
    // The ledger is appended in completion order from worker threads; a
    // write failure is recorded and reported once at the end.
    let sink = std::sync::Mutex::new((writer, None::<std::io::Error>));
    let results = run_campaign_supervised(jobs, &opts, &sup, |r| {
        let entry = LedgerEntry::from_result(r);
        let mut sink = sink.lock().unwrap();
        if sink.1.is_none() {
            if let Err(e) = sink.0.append(&entry) {
                sink.1 = Some(e);
            }
        }
        if let Some(p) = &progress {
            p.job_done(&entry.job, entry.events_processed, entry.ok());
        }
    });
    if let Some(p) = &progress {
        p.finish();
    }
    if let Some(live) = live {
        stop_live(live);
    }
    if let Some(e) = sink.into_inner().unwrap().1 {
        fail(format!("ledger write failed: {e}"));
    }

    let failed: Vec<_> = results.iter().filter(|r| r.run.is_err()).collect();
    for r in &failed {
        let verdict = if r.quarantined {
            "QUARANTINED"
        } else {
            "FAILED"
        };
        eprintln!(
            "{verdict} {} after {} attempt{}: {}{}",
            r.job.name,
            r.attempts,
            if r.attempts == 1 { "" } else { "s" },
            r.run.as_ref().err().unwrap(),
            r.crash_bundle
                .as_ref()
                .map(|p| format!(" (replay with: ccsim replay {})", p.display()))
                .unwrap_or_default()
        );
    }
    if let Some(path) = args.str("--bench") {
        let summary = load_ledger(&ledger_path).bench_summary_json(results.len(), failed.len());
        write_file(Path::new(path), summary);
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.str("--report") {
        write_campaign_report(&load_ledger(&ledger_path), path, args.has("--html"));
    }
    exit(if failed.is_empty() { 0 } else { 1 });
}

fn write_campaign_report(ledger: &ccsim::campaign::Ledger, path: &str, html: bool) {
    let rendered = if html {
        ccsim::campaign::report::html(ledger)
    } else {
        ccsim::campaign::report::markdown(ledger)
    };
    if path == "-" {
        print!("{rendered}");
    } else {
        write_file(Path::new(path), rendered);
        eprintln!("wrote {path}");
    }
}

/// The `campaign diff` subcommand — the regression sentinel.
fn campaign_diff(args: &Args) -> ! {
    let opts = ccsim::campaign::DiffOptions {
        eps_tol: args.parse("--eps-tol"),
        check_eps: !args.has("--skip-eps"),
    };
    let baseline = load_ledger(&args.positionals[0]);
    let current = load_ledger(&args.positionals[1]);
    let report = ccsim::campaign::diff(&baseline, &current, &opts);
    print!("{}", report.render());
    exit(if report.is_clean() { 0 } else { 1 });
}

/// Bind `127.0.0.1:<port>` for the duration of a run or campaign; the
/// state is what the progress hooks publish into.
fn serve_live(port: u16, what: &str) -> (Arc<LiveState>, ServeHandle) {
    let state = Arc::new(LiveState::new());
    let handle = ccsim::experiments::serve(port, Arc::clone(&state))
        .unwrap_or_else(|e| fail(format!("cannot bind --serve port {port}: {e}")));
    eprintln!(
        "serving http://{0}/metrics and http://{0}/timeline.jsonl for the {what}",
        handle.addr()
    );
    (state, handle)
}

fn stop_live((state, handle): (Arc<LiveState>, ServeHandle)) {
    eprintln!(
        "live endpoint served {} request(s); shutting down",
        state.hits()
    );
    handle.stop();
}

/// Write an output file or exit 1 naming it.
fn write_file(path: &Path, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
}

/// Report a captured checkpoint (or its absence) after a
/// `--checkpoint-at` run.
fn write_checkpoint(cp: &Option<Checkpoint>, out: &Path, requested: SimTime) {
    match cp {
        Some(cp) => {
            cp.write_file(out).unwrap_or_else(|e| {
                fail(format!("cannot write checkpoint {}: {e}", out.display()))
            });
            eprintln!(
                "wrote {} ({} bytes, t={}, state digest {:016x})",
                out.display(),
                cp.encoded_len(),
                SimTime::from_nanos(cp.taken_at_nanos),
                cp.state_digest(),
            );
        }
        None => eprintln!("no checkpoint written: the run ended before t={requested}"),
    }
}

/// The `bisect` subcommand: binary-search two scenarios' checkpoint
/// slices for the first divergent engine state.
fn bisect(args: &Args) -> ! {
    use ccsim::experiments::{bisect_divergence, scenario_from_json};
    let load = |p: &str| -> Scenario {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| fail(format!("cannot read {p}: {e}")));
        scenario_from_json(&text).unwrap_or_else(|e| fail(format!("bad scenario {p}: {e}")))
    };
    let a = load(&args.positionals[0]);
    let b = load(&args.positionals[1]);
    eprintln!("bisecting '{}' vs '{}'...", a.name, b.name);
    let mut probes = 0usize;
    let outcome = bisect_divergence(&a, &b, &mut |slice, at, diverged| {
        probes += 1;
        eprintln!(
            "  probe {probes}: slice {slice} (t={at}) -> {}",
            if diverged { "diverges" } else { "identical" }
        );
    })
    .unwrap_or_else(|e| fail(format!("bisect failed: {e}")));
    match outcome.first_divergence {
        None => {
            println!(
                "identical: engine states agree at all {} checkpoint slices",
                outcome.boundaries.len()
            );
            exit(0);
        }
        Some(d) => {
            println!(
                "first divergent slice: {} of {} (t={})",
                d.slice,
                outcome.boundaries.len(),
                d.at
            );
            println!(
                "state digests   : {:016x} vs {:016x}",
                d.digest_a, d.digest_b
            );
            if let Some(dir) = args.str("--out").map(Path::new) {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
                for (name, cp) in [
                    ("diverge-a.ckpt", &d.checkpoint_a),
                    ("diverge-b.ckpt", &d.checkpoint_b),
                ] {
                    let path = dir.join(name);
                    cp.write_file(&path)
                        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
                    println!("wrote {}", path.display());
                }
            }
            exit(1);
        }
    }
}

/// The `replay` subcommand: load a crash bundle, re-run its scenario.
fn replay(args: &Args) -> ! {
    let dir = Path::new(&args.positionals[0]);
    let bundle = CrashBundle::load(dir)
        .unwrap_or_else(|e| fail(format!("cannot load crash bundle {}: {e}", dir.display())));
    eprintln!(
        "replaying {} (seed {}, {} fault actions; captured failure: [{}] {})",
        bundle.scenario.name,
        bundle.scenario.seed,
        bundle.scenario.fault.sorted_actions().len(),
        bundle.error_class,
        bundle.error
    );
    let mut progress = (!args.has("--quiet")).then(|| RunProgress::new("replay"));
    let result = RunRequest::new(&bundle.scenario)
        .on_progress(|p| {
            if let Some(prog) = &mut progress {
                prog.update(p.fraction, p.events_processed);
            }
        })
        .execute();
    match result {
        Ok(report) => {
            let outcome = report.outcome;
            if let Some(prog) = &mut progress {
                prog.finish(outcome.events_processed);
            }
            if args.has("--json") {
                println!("{}", outcome.to_json());
            } else {
                print_human(&outcome);
            }
            println!("outcome digest  : {:016x}", outcome.digest());
            println!("replay clean    : captured failure did not reproduce");
            exit(0);
        }
        Err(e) => {
            println!("failure reproduced: {e}");
            exit(3);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let args = match parse(&argv) {
        Ok(Parsed::Run(args)) => args,
        Ok(Parsed::Help(scope)) => {
            print!("{}", help_text(scope));
            exit(0);
        }
        Err(e) => usage(e),
    };
    match args.cmd {
        REPLAY => replay(&args),
        BISECT => bisect(&args),
        CAMPAIGN_RUN => campaign_run(&args),
        CAMPAIGN_REPORT => {
            let ledger = load_ledger(&args.positionals[0]);
            write_campaign_report(
                &ledger,
                args.str("--out").unwrap_or("-"),
                args.has("--html"),
            );
        }
        CAMPAIGN_DIFF => campaign_diff(&args),
        _ => run(&args),
    }
}

/// The `run`, `trace`, `perf` and `timeline` subcommands: the flags build
/// one `RunRequest`.
fn run(args: &Args) {
    let cmd = args.cmd;
    // Every usage error comes before the run reads a file or binds a port.
    let stride = args.parse("--stride").unwrap_or(DEFAULT_STRIDE);
    if stride == 0 {
        args.usage("--stride must be at least 1");
    }
    let timeline = timeline_config(args);
    let (out, format) = (args.str("--out"), args.choice("--format"));
    let timeline_out = out
        .filter(|_| cmd == TIMELINE)
        .or(args.str("--timeline-out"));
    let cctl = timeline_out.is_some_and(|p| p.ends_with(".cctl"));
    let timeline_format =
        (format.filter(|_| cmd == TIMELINE)).unwrap_or(if cctl { "cctl" } else { "jsonl" });
    let serve_port: Option<u16> = args.parse("--serve");
    let at = |name: &str| args.time(name, SECS).map(|d| SimTime::ZERO + d);
    let (force_panic, checkpoint_at) = (at("--force-panic"), at("--checkpoint-at"));
    let sync_bin = args
        .time("--sync-bin", MILLIS)
        .unwrap_or(SimDuration::from_millis(10));

    // What to run: a checkpoint and the scenario embedded in it, or the
    // flags' scenario (usage errors in it come before any file is read).
    let checkpoint = args.str("--resume-from").map(|path| {
        Checkpoint::read_file(Path::new(path))
            .unwrap_or_else(|e| fail(format!("cannot load checkpoint {path}: {e}")))
    });
    let scenario = match &checkpoint {
        Some(cp) => {
            let scenario = scenario_from_checkpoint(cp)
                .unwrap_or_else(|e| fail(format!("bad checkpoint: {e}")));
            eprintln!(
                "resuming {} at t={} ({} snapshot bytes, state digest {:016x})...",
                scenario.name,
                SimTime::from_nanos(cp.taken_at_nanos),
                cp.encoded_len(),
                cp.state_digest(),
            );
            scenario
        }
        None => {
            let scenario = scenario_from_flags(args);
            eprintln!(
                "running {} flows on {} (buffer {:.2} MB, warmup {}, duration {})...",
                scenario.flow_count(),
                scenario.bottleneck,
                scenario.buffer_bytes as f64 / 1e6,
                scenario.warmup,
                scenario.duration
            );
            scenario
        }
    };

    // How to run it: one request, every option independent of the others.
    let mut request = match &checkpoint {
        Some(cp) => RunRequest::resume(cp),
        None => RunRequest::new(&scenario),
    };
    let metrics_out = args.str("--metrics");
    if cmd == PERF || metrics_out.is_some() || timeline.is_some() {
        request = request.observe(ObserveOptions {
            profile: cmd == PERF,
            profile_stride: stride,
            timeline,
        });
    }
    // The endpoint binds before the run and serves snapshots the
    // progress hook publishes; it never touches simulator state.
    let live = serve_port.map(|port| serve_live(port, "run"));
    if let Some((state, _)) = &live {
        request = request.live(Arc::clone(state));
    }
    if let Some(at) = checkpoint_at {
        request = request.checkpoint_at(at);
    }
    let crash_dir = args.str("--crash-dir").map(PathBuf::from);
    if crash_dir.is_some() || force_panic.is_some() {
        request = request.guard(crash_dir);
    }
    let label = checkpoint.as_ref().map_or("ccsim", |_| "resume");
    let mut progress = (!args.has("--quiet")).then(|| RunProgress::new(label));
    let result = request
        .on_progress(|p| {
            if let Some(prog) = &mut progress {
                prog.update(p.fraction, p.events_processed);
            }
            if force_panic.is_some_and(|t| p.now >= t) {
                panic!("forced panic at {} (--force-panic)", p.now);
            }
        })
        .execute();
    if let Some(live) = live {
        stop_live(live);
    }
    let report = result.unwrap_or_else(|failure| {
        eprintln!("\nrun failed: {failure}");
        if let Some(e) = &failure.write_error {
            eprintln!("crash-bundle write failed: {e}");
        }
        if let Some(dir) = &failure.bundle {
            eprintln!("replay with: ccsim replay {}", dir.display());
        }
        exit(1);
    });

    // What came back.
    let outcome = &report.outcome;
    if let Some(prog) = &mut progress {
        prog.finish(outcome.events_processed);
    }
    if let Some(at) = checkpoint_at {
        let out = args.str("--checkpoint-out").unwrap_or("ccsim.ckpt");
        write_checkpoint(&report.checkpoint, Path::new(out), at);
    }
    if let (Some(metrics_path), Some(prometheus), Some(manifest)) =
        (metrics_out, &report.prometheus, &report.manifest)
    {
        if let Err(e) = validate_exposition(prometheus) {
            fail(format!(
                "internal error: metrics dump failed validation: {e}"
            ));
        }
        let manifest_path = Path::new(metrics_path).with_extension("manifest.json");
        write_file(Path::new(metrics_path), prometheus);
        write_file(&manifest_path, manifest.to_json());
        eprintln!(
            "wrote {metrics_path} ({} series) and {} (outcome digest {})",
            manifest.metric_series,
            manifest_path.display(),
            manifest.outcome_digest
        );
    }
    // Present only under `perf`: nothing else asks for a profile.
    let profile = report.manifest.as_ref().and_then(|m| m.profile.as_ref());
    if let (Some(profile), Some(path)) = (profile, args.str("--folded")) {
        write_file(Path::new(path), profile.to_folded());
        eprintln!("wrote {path}");
    }

    if args.has("--json") {
        println!("{}", outcome.to_json());
    } else {
        print_human(outcome);
    }
    if checkpoint.is_some() {
        eprintln!("outcome digest  : {:016x}", outcome.digest());
    }
    if let Some(profile) = profile {
        println!();
        print!("{}", profile.render_table());
    }
    if let Some(tl) = &report.timeline {
        if cmd == TIMELINE {
            println!();
            print_timeline_summary(tl);
        }
        if let Some(path) = timeline_out {
            let bytes = if timeline_format == "cctl" {
                ccsim::timeline::export::to_binary(tl)
            } else {
                ccsim::timeline::export::to_jsonl(tl).into_bytes()
            };
            write_file(Path::new(path), bytes);
            eprintln!("wrote {path} ({timeline_format})");
        }
    }

    if cmd == TRACE {
        let format = format.unwrap_or("both");
        let written = outcome
            .export_trace(
                Path::new(out.unwrap_or("trace")),
                format != "bin",
                format != "jsonl",
            )
            .unwrap_or_else(|e| fail(format!("trace export failed: {e}")));
        print_trace_summary(outcome, sync_bin);
        for path in written {
            println!("wrote {}", path.display());
        }
    }
}

/// The `ccsim timeline` capture summary: row accounting, convergence,
/// and a unicode JFI trajectory over the retained measurement windows.
fn print_timeline_summary(tl: &Timeline) {
    let s = tl.summary();
    println!(
        "timeline        : {} rows ({} retained, {} evicted), window {} s",
        s.rows, s.retained, s.evicted, s.window_secs
    );
    println!(
        "  flows sampled : {} of the run's flows ({} series, {:.1} KB retained)",
        s.flows_sampled,
        s.series,
        tl.memory_bytes() as f64 / 1e3
    );
    match s.time_to_alpha_fair {
        Some(t) => println!("  {}-fair after : {t:.2} s of measurement", s.alpha),
        None => println!("  {}-fair after : never (JFI never reached α)", s.alpha),
    }
    if let Some(j) = s.final_jfi {
        println!("  final JFI     : {j:.4}");
    }
    let (times, jfi) = tl.jfi_series();
    if !jfi.is_empty() {
        println!(
            "  JFI trajectory: `{}` ({} windows from t={:.1} s)",
            jfi_sparkline(&jfi),
            jfi.len(),
            times.first().copied().unwrap_or(0.0)
        );
    }
}

/// Scale the per-window JFI series onto eight block glyphs; idle windows
/// (no delivery, JFI undefined) render as `·`.
fn jfi_sparkline(jfi: &[Option<f64>]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let vals: Vec<f64> = jfi.iter().copied().flatten().collect();
    let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    jfi.iter()
        .map(|v| match v {
            None => '·',
            Some(x) => {
                let f = if span > 0.0 { (x - lo) / span } else { 1.0 };
                GLYPHS[((f * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn print_trace_summary(o: &RunOutcome, sync_bin: SimDuration) {
    let Some(trace) = &o.trace else {
        return;
    };
    println!(
        "trace           : {} records ({:.2} MB wire), {} evicted, {} thinned",
        trace.records.len(),
        trace.wire_bytes() as f64 / 1e6,
        trace.evicted,
        trace.thinned
    );
    match o.trace_synchronization_index(sync_bin) {
        Some(s) => println!("sync index      : {s:.4} (bin {sync_bin})"),
        None => println!("sync index      : n/a (no congestion events in window)"),
    }
    match o.trace_drop_burstiness() {
        Some(b) => println!("drop burstiness : {b:.4} (from trace)"),
        None => println!("drop burstiness : n/a (too few recorded drops)"),
    }
}

fn print_human(o: &RunOutcome) {
    println!("measured window : {}", o.measured_for);
    println!(
        "aggregate       : {:.2} Mbps",
        o.aggregate_throughput_mbps()
    );
    println!("utilization     : {:.1}%", o.utilization() * 100.0);
    println!("loss rate       : {:.4}%", o.aggregate_loss_rate * 100.0);
    println!(
        "JFI (all flows) : {:.4}",
        o.jain_index().unwrap_or(f64::NAN)
    );
    if let Some(b) = o.drop_burstiness {
        println!("drop burstiness : {b:.3}");
    }
    for b in &o.bottlenecks {
        let jfi = match b.jfi {
            Some(j) => format!("{j:.4}"),
            None => "n/a".to_string(),
        };
        println!(
            "  bottleneck {:<2} {:<11} util {:>5.1}%  JFI {jfi}  loss {:.4}%  CE {}",
            b.link,
            b.label,
            b.utilization * 100.0,
            b.loss_rate * 100.0,
            b.ce_marked_pkts
        );
    }
    // Per-CCA aggregates.
    let mut kinds: Vec<CcaKind> = o.flow_cca.clone();
    kinds.sort_by_key(|k| k.name());
    kinds.dedup();
    for k in kinds {
        let share = o.share_of(k).unwrap_or(0.0);
        let jfi = o.jain_index_for(k).unwrap_or(f64::NAN);
        println!(
            "  {:<5} x{:<5} share {:>5.1}%   intra-JFI {:.4}",
            k.name(),
            o.count_of(k),
            share * 100.0,
            jfi
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cmd`'s words, a placeholder per positional, then `extra`.
    fn argv<'a>(cmd: u16, extra: &[&'a str]) -> Vec<&'a str> {
        let (_, name, positionals) = SUBCOMMANDS.iter().find(|s| s.0 == cmd).unwrap();
        let mut argv: Vec<&str> = name.split(' ').collect();
        argv.extend(positionals.iter().map(|_| "p"));
        argv.extend(extra);
        argv
    }

    /// Every (row, subcommand) pair the table defines.
    fn pairs() -> impl Iterator<Item = (&'static Flag, u16)> {
        FLAGS.iter().flat_map(|f| {
            let cmds = SUBCOMMANDS.iter().map(|s| s.0).filter(|&c| f.cmds & c != 0);
            cmds.map(move |c| (f, c))
        })
    }

    #[test]
    fn no_two_rows_share_a_subcommand_and_name() {
        for (i, a) in FLAGS.iter().enumerate() {
            for b in &FLAGS[i + 1..] {
                assert!(a.name != b.name || a.cmds & b.cmds == 0, "{}", a.name);
            }
            assert!(a.cmds != 0 && a.cmds & !ALL == 0, "{}", a.name);
        }
    }

    #[test]
    fn a_row_takes_a_value_if_and_only_if_it_has_a_metavar() {
        for (flag, cmd) in pairs() {
            let bare = parse(&argv(cmd, &[flag.name]));
            let given = parse(&argv(cmd, &[flag.name, "v"]));
            let (read, taken) = match (flag.metavar, bare, given) {
                (Some(_), Err((_, err)), Ok(Parsed::Run(args))) => {
                    assert_eq!(err, format!("missing value for {}", flag.name));
                    (args.str(flag.name).map(str::to_string), Some("v".into()))
                }
                // `trace` refuses these two rows once they are read.
                (Some(_), Err(_), Err((_, err))) if cmd == TRACE => {
                    assert!(err.starts_with("trace cannot be combined"), "{err}");
                    continue;
                }
                (None, Ok(Parsed::Run(args)), _) => (args.str(flag.name).map(str::to_string), None),
                _ => panic!("{} under {cmd:b}", flag.name),
            };
            assert_eq!(read, taken, "{}", flag.name);
        }
    }

    #[test]
    fn every_row_is_in_its_subcommands_usage_and_nowhere_else() {
        for &(cmd, name, _) in &SUBCOMMANDS {
            let usage = usage_text(cmd);
            let listed: Vec<&str> = usage
                .lines()
                .filter_map(|l| l.strip_prefix("  "))
                .filter_map(|l| l.split_whitespace().next())
                .collect();
            let rows: Vec<&str> = pairs().filter(|p| p.1 == cmd).map(|p| p.0.name).collect();
            assert_eq!(listed, rows, "{name}");
            assert!(help_text(cmd).starts_with(&usage));
        }
        for scope in [ALL, CAMPAIGN] {
            assert!(!usage_text(scope).contains("  --"), "{scope:b}");
        }
    }

    #[test]
    fn every_scenario_shaping_row_is_refused_by_name_beside_resume_from() {
        for (flag, cmd) in pairs().filter(|p| p.0.shapes) {
            let value: &[&str] = if flag.metavar.is_some() { &["v"] } else { &[] };
            let words = [&["--resume-from", "x", flag.name][..], value].concat();
            let (_, err) = parse(&argv(cmd, &words)).err().expect(flag.name);
            let expected = format!("{} cannot be combined with --resume-from", flag.name);
            assert!(err.starts_with(&expected), "{err}");
        }
    }
}
