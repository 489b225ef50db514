//! # ccsim-bench — experiment regeneration harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — best-fit Mathis constants |
//! | `fig2` | Figure 2 — Mathis median prediction error |
//! | `fig3` | Figure 3 — packet-loss / CWND-halving ratio |
//! | `fig4` | Figure 4 — BBR intra-CCA JFI |
//! | `finding4` | Finding 4 — NewReno & Cubic intra-CCA JFI |
//! | `fig5` | Figure 5 — Cubic share vs NewReno |
//! | `fig6` | Figure 6 — 1 BBR vs N NewReno |
//! | `fig7` | Figure 7 — 1 BBR vs N Cubic |
//! | `fig8` | Figure 8 — N BBR vs N NewReno / N Cubic |
//! | `burstiness` | Finding 3 corroboration — drop burstiness |
//! | `all_experiments` | everything above, EXPERIMENTS.md-ready |
//!
//! All binaries accept:
//!
//! ```text
//! --fidelity quick|standard|paper   time-parameter preset
//! --seed N                          master seed (default 1)
//! --scale down|paper                flow-count grid (default down)
//! --rtts 20,100,200                 prune/extend the RTT sweep (ms)
//! --counts 1000,3000,5000           CoreScale counts (paper-scale values;
//!                                   scaled-down mode divides them by 5)
//! ```
//!
//! `--scale down` divides the paper's CoreScale flow counts *and* the
//! bottleneck bandwidth/buffer by 5 (2 Gbps, 200/600/1000 flows) — every
//! per-flow quantity matches the paper's grid exactly while a full figure
//! regenerates in minutes on a laptop; `--scale paper` runs the literal
//! 10 Gbps 1000/3000/5000 grid.
//!
//! Criterion micro-benchmarks (`cargo bench`) cover the engine, the queue,
//! CCA ACK-processing cost, the min/max filter, and scaled-down end-to-end
//! scenario runs, plus the DESIGN.md ablations and the observability
//! registry's overhead (`registry_overhead`).

use ccsim_campaign::executor::{run_scenarios, ExecutorOptions};
use ccsim_campaign::ledger::{LedgerEntry, LedgerWriter};
use ccsim_campaign::spec::Tolerances;
use ccsim_core::experiments::ExperimentConfig;
use ccsim_core::{Fidelity, RunOutcome, Scenario};
use ccsim_telemetry::CampaignProgress;
use std::path::Path;
use std::sync::Mutex;

/// Command-line options shared by every figure binary.
pub struct BenchOptions {
    /// The experiment grid.
    pub config: ExperimentConfig,
    /// Whether the full paper-scale flow counts were requested.
    pub paper_scale: bool,
    exec: GridExec,
}

impl BenchOptions {
    /// The executor to hand to a `run_grid`: runs the grid's scenarios on
    /// the campaign worker pool under a progress line titled `label`.
    pub fn grid<'a>(&'a self, label: &'a str) -> impl FnOnce(&[Scenario]) -> Vec<RunOutcome> + 'a {
        move |scenarios| self.exec.run(label, scenarios)
    }
}

/// Parse common CLI arguments (exits with usage on malformed input).
pub fn parse_args() -> BenchOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fidelity = Fidelity::Standard;
    let mut seed = 1u64;
    let mut paper_scale = false;
    let mut rtts: Option<Vec<u64>> = None;
    let mut counts: Option<Vec<u32>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fidelity" => {
                i += 1;
                fidelity = match args.get(i).map(String::as_str) {
                    Some("quick") => Fidelity::Quick,
                    Some("standard") => Fidelity::Standard,
                    Some("paper") => Fidelity::Paper,
                    other => usage(&format!("bad --fidelity {other:?}")),
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --seed"));
            }
            "--scale" => {
                i += 1;
                paper_scale = match args.get(i).map(String::as_str) {
                    Some("down") => false,
                    Some("paper") => true,
                    other => usage(&format!("bad --scale {other:?}")),
                };
            }
            "--rtts" => {
                i += 1;
                rtts = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("missing --rtts value"))
                        .split(',')
                        .map(|x| x.parse().unwrap_or_else(|_| usage("bad --rtts")))
                        .collect(),
                );
            }
            "--counts" => {
                i += 1;
                counts = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("missing --counts value"))
                        .split(',')
                        .map(|x| x.parse().unwrap_or_else(|_| usage("bad --counts")))
                        .collect(),
                );
            }
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let mut config = ExperimentConfig::paper_grid();
    config.fidelity = fidelity;
    config.seed = seed;
    if !paper_scale {
        // Divide flow counts AND bandwidth/buffer by 5: per-flow dynamics
        // are identical to the paper's 10 Gbps / 1000-5000 grid (see
        // ExperimentConfig::core_divisor), at a fifth of the event cost.
        config.core_counts = config.core_counts.iter().map(|&c| c / 5).collect();
        config.core_divisor = 5;
    }
    if let Some(r) = rtts {
        config.rtts_ms = r;
    }
    if let Some(c) = counts {
        // Paper-scale counts given directly; scaled-down mode divides them
        // alongside the bandwidth.
        config.core_counts = if paper_scale {
            c.clone()
        } else {
            c.iter().map(|&x| x / 5).collect()
        };
    }
    BenchOptions {
        config,
        paper_scale,
        exec: GridExec::new(),
    }
}

fn usage(err: &str) -> ! {
    eprintln!(
        "{err}\n\nusage: <bin> [--fidelity quick|standard|paper] [--seed N] [--scale down|paper]"
    );
    std::process::exit(2);
}

/// What every figure binary's grids run on: the campaign worker pool
/// (cells run in parallel with a live aggregate progress line; outcomes
/// depend only on configuration and seed) plus an optional ledger sink —
/// set `CCSIM_LEDGER=<path>` to append every run to a campaign ledger
/// (named after the binary) that `ccsim campaign report`/`diff` can read.
struct GridExec {
    opts: ExecutorOptions,
    ledger: Option<Mutex<LedgerWriter>>,
}

impl GridExec {
    fn new() -> GridExec {
        let ledger = std::env::var("CCSIM_LEDGER").ok().map(|path| {
            let exe = std::env::args().next().unwrap_or_default();
            let name = Path::new(&exe).file_stem().and_then(|s| s.to_str());
            let name = name.unwrap_or("ccsim-bench");
            let w = LedgerWriter::create(Path::new(&path), name, &Tolerances::default(), &[])
                .unwrap_or_else(|e| panic!("cannot create ledger {path}: {e}"));
            eprintln!("[ledger: {path}]");
            Mutex::new(w)
        });
        GridExec {
            opts: ExecutorOptions::default(),
            ledger,
        }
    }

    /// Run one grid's scenarios on the pool, in input order; panic on any
    /// failed cell.
    fn run(&self, label: &str, scenarios: &[Scenario]) -> Vec<RunOutcome> {
        let progress = CampaignProgress::new(label, scenarios.len());
        let results = run_scenarios(scenarios, &self.opts, |r| {
            let entry = LedgerEntry::from_result(r);
            if let Some(l) = &self.ledger {
                l.lock()
                    .unwrap()
                    .append(&entry)
                    .unwrap_or_else(|e| panic!("ledger write failed: {e}"));
            }
            progress.job_done(&entry.job, entry.events_processed, entry.ok());
        });
        progress.finish();
        results
            .into_iter()
            .map(|r| match r.run {
                Ok(obs) => obs.outcome,
                Err(e) => panic!("{} failed: {e}", r.job.name),
            })
            .collect()
    }
}

/// Print a titled report section.
pub fn section(title: &str, body: &str) {
    println!("\n## {title}\n");
    println!("{body}");
}

// Stage timing and run progress for the figure binaries. These replace
// the old local `Stopwatch` + ad-hoc `eprintln!` pattern: every timing
// line now goes to stderr in one format, keeping stdout clean for the
// EXPERIMENTS.md-ready report bodies.
pub use ccsim_telemetry::{RunProgress, StageTimer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_scaled_down() {
        // parse_args reads real argv; test the scaling rule directly.
        let mut config = ExperimentConfig::paper_grid();
        config.core_counts = config.core_counts.iter().map(|&c| c / 5).collect();
        assert_eq!(config.core_counts, vec![200, 600, 1000]);
    }
}
