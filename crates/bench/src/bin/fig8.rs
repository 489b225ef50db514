//! Regenerate **Figure 8**: N BBR vs N NewReno (a) and N BBR vs N Cubic
//! (b) — BBR's aggregate share (paper: up to 99.9%).

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_cca::CcaKind;
use ccsim_core::experiments::inter;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("fig8");
    let a = inter::run_grid(
        &opts.config,
        CcaKind::Bbr,
        CcaKind::Reno,
        opts.grid("fig8a"),
    );
    section(
        "Figure 8a — BBR vs NewReno (equal counts)",
        &inter::render(&a),
    );
    let b = inter::run_grid(
        &opts.config,
        CcaKind::Bbr,
        CcaKind::Cubic,
        opts.grid("fig8b"),
    );
    section(
        "Figure 8b — BBR vs Cubic (equal counts)",
        &inter::render(&b),
    );
    println!(
        "\npaper: BBR takes up to 99.9% of total throughput in CoreScale\n\
         against either loss-based CCA.",
    );
    sw.finish();
}
