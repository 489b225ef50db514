//! Regenerate **Figure 4**: BBR intra-CCA fairness (JFI) vs flow count at
//! 20/100/200 ms RTTs, in CoreScale (a) and EdgeScale (b).

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_cca::CcaKind;
use ccsim_core::experiments::intra;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("fig4");
    let rows = intra::run_grid(&opts.config, CcaKind::Bbr, opts.grid("fig4"));
    section(
        "Figure 4 — BBR intra-CCA fairness (JFI)",
        &intra::render(&rows),
    );
    println!(
        "\npaper: JFI as low as 0.4 in CoreScale (20/100 ms), milder\n\
         unfairness (>10 flows, JFI down to 0.7) in EdgeScale; past work's\n\
         reference line sits at 0.99.",
    );
    sw.finish();
}
