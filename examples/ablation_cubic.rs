//! Ablation: CUBIC's optional mechanisms (HyStart, fast convergence).
//!
//! DESIGN.md lists the CCA feature set as a fidelity decision; this
//! example quantifies how much each Linux-default mechanism matters in
//! the paper's two settings via all-Cubic same-RTT runs (Figure-4 style
//! metrics). It is the one probe a campaign spec cannot express: the
//! switches are constructor arguments of `Cubic`, so the network is built
//! with a custom CCA factory and driven by hand.
//!
//! ```sh
//! cargo run --release --example ablation_cubic
//! ```

use ccsim::analysis::jain_fairness_index;
use ccsim::cca::{CcaKind, Cubic};
use ccsim::experiments::{BuiltNetwork, FlowGroup, Scenario};
use ccsim::net::Link;
use ccsim::sim::{Bandwidth, SimDuration, SimTime};

/// Run an all-Cubic scenario with explicit feature switches; returns
/// (JFI, utilization, loss rate) over the measurement window.
fn run_variant(scenario: &Scenario, fast_convergence: bool, hystart: bool) -> (f64, f64, f64) {
    let mut net = BuiltNetwork::build_with_factory(scenario, &|_, _, mss, _| {
        Box::new(Cubic::with_options(mss, fast_convergence, hystart))
    });
    let warmup_end = SimTime::ZERO + scenario.warmup;
    net.sim.run_until(warmup_end);
    net.sim.component_mut::<Link>(net.link).reset_stats();
    let base = net.per_flow_delivered();
    net.sim.run_until(warmup_end + scenario.duration);
    let secs = scenario.duration.as_secs_f64();
    let rates: Vec<f64> = net
        .per_flow_delivered()
        .iter()
        .zip(&base)
        .map(|(&end, &start)| (end - start) as f64 / secs)
        .collect();
    let jfi = jain_fairness_index(&rates).unwrap_or(0.0);
    let util = rates.iter().sum::<f64>() / scenario.bottleneck.as_bytes_per_sec();
    let loss = net.sim.component::<Link>(net.link).stats().loss_rate();
    (jfi, util, loss)
}

fn main() {
    let all_cubic = |count| {
        vec![FlowGroup::new(
            CcaKind::Cubic,
            count,
            SimDuration::from_millis(20),
        )]
    };
    let edge = Scenario::edge_scale().flows(all_cubic(30)).seed(1);
    // A 1 Gbps mini-core with 100 flows: CoreScale's per-flow share, BDP
    // and window at a tenth of the events, so the example stays snappy.
    let mut core = Scenario::core_scale().flows(all_cubic(100)).seed(1);
    core.bottleneck = Bandwidth::from_gbps(1);
    core.buffer_bytes /= 10;
    core.duration = SimDuration::from_secs(60);

    println!("CUBIC fast convergence x HyStart (all-Cubic, 20 ms RTT)\n");
    println!(
        "{:<12} {:>5} {:>9} {:>7} {:>7} {:>6} {:>7}",
        "setting", "flows", "fast-conv", "hystart", "JFI", "util", "loss"
    );
    for (label, scenario) in [("EdgeScale", &edge), ("CoreScale/10", &core)] {
        for (fc, hs) in [(true, true), (true, false), (false, true), (false, false)] {
            let (jfi, util, loss) = run_variant(scenario, fc, hs);
            let on_off = |on| if on { "on" } else { "off" };
            println!(
                "{:<12} {:>5} {:>9} {:>7} {:>7.3} {:>5.1}% {:>6.3}%",
                label,
                scenario.flow_count(),
                on_off(fc),
                on_off(hs),
                jfi,
                util * 100.0,
                loss * 100.0
            );
        }
    }
}
