//! Run every table and figure of the paper in one pass and emit an
//! EXPERIMENTS.md-ready report on stdout.
//!
//! ```sh
//! cargo run --release -p ccsim-bench --bin all_experiments            # scaled grid
//! cargo run --release -p ccsim-bench --bin all_experiments -- --scale paper
//! ```
//!
//! Every grid executes on the campaign worker pool
//! ([`ccsim_bench::BenchOptions::grid`]), with `CCSIM_LEDGER=<path>` as an
//! optional ledger sink.

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_cca::CcaKind;
use ccsim_core::experiments::{inter, intra, mathis, single_bbr};

fn main() {
    let opts = parse_args();
    let total = StageTimer::new("all experiments");
    println!("# ccsim experiment report");
    println!(
        "\ngrid: core {:?}, edge {:?}, rtts {:?} ms, fidelity {:?}, seed {}{}",
        opts.config.core_counts,
        opts.config.edge_counts,
        opts.config.rtts_ms,
        opts.config.fidelity,
        opts.config.seed,
        if opts.paper_scale {
            " (paper scale)"
        } else {
            " (scaled-down counts; pass --scale paper for 1000/3000/5000)"
        }
    );

    let sw = StageTimer::new("mathis grid");
    let mathis_rows = mathis::run_grid(&opts.config, opts.grid("mathis"));
    section(
        "Table 1 + Figures 2 & 3 + burstiness — the Mathis model at scale",
        &mathis::render(&mathis_rows),
    );
    sw.finish();

    let sw = StageTimer::new("fig4");
    let bbr_intra = intra::run_grid(&opts.config, CcaKind::Bbr, opts.grid("fig4"));
    section(
        "Figure 4 — BBR intra-CCA fairness",
        &intra::render(&bbr_intra),
    );
    sw.finish();

    let sw = StageTimer::new("finding4");
    let reno_intra = intra::run_grid(&opts.config, CcaKind::Reno, opts.grid("finding4/reno"));
    section(
        "Finding 4 — NewReno intra-CCA fairness",
        &intra::render(&reno_intra),
    );
    let cubic_intra = intra::run_grid(&opts.config, CcaKind::Cubic, opts.grid("finding4/cubic"));
    section(
        "Finding 4 — Cubic intra-CCA fairness",
        &intra::render(&cubic_intra),
    );
    sw.finish();

    let sw = StageTimer::new("fig5");
    let fig5 = inter::run_grid(
        &opts.config,
        CcaKind::Cubic,
        CcaKind::Reno,
        opts.grid("fig5"),
    );
    section("Figure 5 — Cubic vs NewReno", &inter::render(&fig5));
    sw.finish();

    let sw = StageTimer::new("fig6+fig7");
    let fig6 = single_bbr::run_grid(&opts.config, CcaKind::Reno, opts.grid("fig6"));
    section("Figure 6 — 1 BBR vs N NewReno", &single_bbr::render(&fig6));
    let fig7 = single_bbr::run_grid(&opts.config, CcaKind::Cubic, opts.grid("fig7"));
    section("Figure 7 — 1 BBR vs N Cubic", &single_bbr::render(&fig7));
    sw.finish();

    let sw = StageTimer::new("fig8");
    let fig8a = inter::run_grid(
        &opts.config,
        CcaKind::Bbr,
        CcaKind::Reno,
        opts.grid("fig8a"),
    );
    section("Figure 8a — BBR vs NewReno", &inter::render(&fig8a));
    let fig8b = inter::run_grid(
        &opts.config,
        CcaKind::Bbr,
        CcaKind::Cubic,
        opts.grid("fig8b"),
    );
    section("Figure 8b — BBR vs Cubic", &inter::render(&fig8b));
    sw.finish();

    total.finish();
}
