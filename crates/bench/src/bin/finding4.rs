//! Regenerate **Finding 4** (figure not shown in the paper): NewReno and
//! Cubic keep intra-CCA JFI > 0.99 even in CoreScale.

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_cca::CcaKind;
use ccsim_core::experiments::intra;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("finding4");
    let reno = intra::run_grid(&opts.config, CcaKind::Reno, opts.grid("finding4/reno"));
    section(
        "Finding 4 — NewReno intra-CCA fairness",
        &intra::render(&reno),
    );
    let cubic = intra::run_grid(&opts.config, CcaKind::Cubic, opts.grid("finding4/cubic"));
    section(
        "Finding 4 — Cubic intra-CCA fairness",
        &intra::render(&cubic),
    );
    println!("\npaper: JFI > 0.99 for both, at every scale.",);
    sw.finish();
}
