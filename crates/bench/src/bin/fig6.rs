//! Regenerate **Figure 6**: a single BBR flow against thousands of
//! NewReno flows (paper: the BBR flow holds ~40% of total throughput
//! regardless of the competitor count — the Ware et al. model).

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_cca::CcaKind;
use ccsim_core::experiments::single_bbr;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("fig6");
    let rows = single_bbr::run_grid(&opts.config, CcaKind::Reno, opts.grid("fig6"));
    section("Figure 6 — 1 BBR vs N NewReno", &single_bbr::render(&rows));
    println!(
        "\npaper: ~40% BBR share at every N, 'Home Link' reference ~40%;\n\
         at 5000 flows that is ~4 Gbps for one flow vs ~1.2 Mbps each for\n\
         everyone else.",
    );
    sw.finish();
}
