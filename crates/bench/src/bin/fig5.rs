//! Regenerate **Figure 5**: Cubic's share of throughput against an equal
//! number of NewReno flows (paper: 70-80% in CoreScale).

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_cca::CcaKind;
use ccsim_core::experiments::inter;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("fig5");
    let rows = inter::run_grid(
        &opts.config,
        CcaKind::Cubic,
        CcaKind::Reno,
        opts.grid("fig5"),
    );
    section(
        "Figure 5 — Cubic vs NewReno (equal counts)",
        &inter::render(&rows),
    );
    println!(
        "\npaper: Cubic takes 70-80% of total throughput at every scale\n\
         (the 'Home Link' reference in the figure is ~80%).",
    );
    sw.finish();
}
