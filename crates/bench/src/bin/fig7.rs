//! Regenerate **Figure 7**: a single BBR flow against thousands of Cubic
//! flows (paper: ~40% share, as against NewReno).

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_cca::CcaKind;
use ccsim_core::experiments::single_bbr;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("fig7");
    let rows = single_bbr::run_grid(&opts.config, CcaKind::Cubic, opts.grid("fig7"));
    section("Figure 7 — 1 BBR vs N Cubic", &single_bbr::render(&rows));
    println!("\npaper: ~40% BBR share regardless of the Cubic flow count.",);
    sw.finish();
}
