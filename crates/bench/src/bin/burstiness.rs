//! Regenerate the **Finding 3 corroboration** (figure not shown in the
//! paper): Goh–Barabási burstiness of bottleneck drop trains.

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_core::experiments::mathis;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("burstiness");
    let rows = mathis::run_grid(&opts.config, opts.grid("burstiness"));
    section(
        "Finding 3 corroboration — queue-drop burstiness",
        &mathis::render(&rows),
    );
    println!(
        "\npaper: median burstiness ~0.2 in EdgeScale vs ~0.35 in CoreScale\n\
         — losses are burstier at scale, which is why one CWND halving\n\
         absorbs many drops.",
    );
    sw.finish();
}
