//! Regenerate **Figure 3**: the packet-loss to CWND-halving ratio in
//! CoreScale (a) and EdgeScale (b).

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_core::experiments::mathis;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("fig3");
    let rows = mathis::run_grid(&opts.config, opts.grid("fig3"));
    section(
        "Figure 3 — packet-loss / CWND-halving ratio",
        &mathis::render(&rows),
    );
    println!(
        "\npaper: ratio ~1.7 and flow-count independent in EdgeScale;\n\
         6-9 and flow-count dependent in CoreScale.",
    );
    sw.finish();
}
