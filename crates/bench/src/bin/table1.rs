//! Regenerate **Table 1**: the best-fit Mathis constant `C` derived with
//! `p` = packet-loss rate vs `p` = CWND-halving rate, per setting and
//! flow count.

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_core::experiments::mathis;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("table1");
    let rows = mathis::run_grid(&opts.config, opts.grid("table1"));
    section(
        "Table 1 — Mathis constant C by p-interpretation",
        &mathis::render(&rows),
    );
    println!(
        "\npaper: C from packet loss varies with setting & flow count\n\
         (1.78 edge; 3.95/3.64/3.24 core) while C from CWND halving stays\n\
         ~1.4 everywhere.",
    );
    sw.finish();
}
