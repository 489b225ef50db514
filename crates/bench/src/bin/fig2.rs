//! Regenerate **Figure 2**: median Mathis prediction error per flow count,
//! under both interpretations of `p`, with EdgeScale reference values.

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_core::experiments::mathis;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("fig2");
    let rows = mathis::run_grid(&opts.config, opts.grid("fig2"));
    section(
        "Figure 2 — Mathis median prediction error",
        &mathis::render(&rows),
    );
    println!("\nseries 'err (loss)' and 'err (halving)' are the figure's bars;");
    println!("EdgeScale rows are the figure's horizontal reference lines.");
    println!(
        "paper: <=10% error with CWND halving at scale, 45-55% with packet\n\
         loss; both <10% at the edge.",
    );
    sw.finish();
}
