//! The ccsim benchmark harness.
//!
//! ```text
//! ccsim-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! ccsim-benchmark run [--traced] [--seed N] [--seconds S] [--workload W]
//! ccsim-benchmark aa  [--seed N] [--seconds S] [--workload W]
//! ccsim-benchmark pin
//! ```
//!
//! See README.md for what each workload and metric means.

mod attribution;
mod compat;
mod e2e;
mod expected;
mod isolated;
mod sets;
mod spans;
mod spec;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

/// `--key value` pairs plus bare flags, in order.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            pairs: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if flags.contains(&key) {
                args.flags.push(key.to_string());
            } else {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                args.pairs.push((key.to_string(), value.clone()));
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value `{v}`")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn single_run(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &[])?;
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let workload = args.get("workload").ok_or("--workload is required")?;
    if !spec::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            spec::WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = args.num("seed", spec::DEFAULT_SEED)?;
    let seconds: f64 = args.num("seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    match args.get("trace").unwrap_or("0") {
        "0" => {
            let report = e2e::run_e2e(workload, seed, seconds)?;
            sets::print_e2e_report(workload, seed, &report);
            println!("{}", report.to_json().render());
            Ok(report.failed == 0)
        }
        "1" => {
            let report = traced::run_traced(workload, seed, seconds)?;
            report.print(workload, seed);
            println!("{}", report.to_json().render());
            Ok(report.failed == 0)
        }
        other => Err(format!("--trace must be 0 or 1, not `{other}`")),
    }
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    match raw.first().map(String::as_str) {
        Some("run") => {
            let args = Args::parse(&raw[1..], &["traced"])?;
            args.only(&["seed", "seconds", "workload"])?;
            sets::cmd_run(
                &sets::SetOptions::from_args(&args)?,
                args.flags.iter().any(|f| f == "traced"),
            )
        }
        Some("aa") => {
            let args = Args::parse(&raw[1..], &[])?;
            args.only(&["seed", "seconds", "workload"])?;
            sets::cmd_aa(&sets::SetOptions::from_args(&args)?)
        }
        Some("pin") if raw.len() == 1 => sets::cmd_pin(),
        Some(first) if first.starts_with("--") => single_run(raw),
        _ => Err("usage: ccsim-benchmark (--workload W --seed N --seconds S --trace 0|1 | run [--traced] | aa | pin)".into()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ccsim-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
