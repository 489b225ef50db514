//! The five named workloads, as `Scenario` builders.
//!
//! Shapes (rate, buffer, topology, AQM, flow mix, RTTs, jitter, tuning)
//! are the ones issue 11 fixed. Simulated *durations* are shorter than the
//! issue's so that one driver run of `RUN_SECONDS` fits several
//! repetitions; README.md records both sets of values. Every field not
//! set here keeps its preset default, and `convergence` is always off so
//! the event count depends on the seed alone.

use crate::spec::{DEFAULT_SEED, HELD_OUT_SEED};
use ccsim_cca::CcaKind;
use ccsim_core::{FlowGroup, Scenario};
use ccsim_net::AqmKind;
use ccsim_sim::{Bandwidth, SimDuration};
use ccsim_topo::TopologyKind;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn group(cca: CcaKind, count: u32, rtt_ms: u64) -> FlowGroup {
    FlowGroup::new(cca, count, ms(rtt_ms))
}

/// The scenario seed `fatflows_mixed_recovery` runs for `--seed seed`:
/// the held-out cell for the held-out seed, the default cell for every
/// other. It is the one workload whose scenario seed is not `--seed`.
///
/// Its twelve start times are the whole input, and they decide how big a
/// window the first starters reach before the rest arrive and so how long
/// thousand-segment scoreboards stay in recovery, walked once per ACK.
/// Over scenario seeds 11–20 this shape costs 3.5 s to 9.5 s (interquartile
/// range 54 % of the median; 95 % with a 6 s horizon, 74 % with 1.5 s), and
/// what explains it is not visible in the schedule. A metric that a seed
/// moves by that much cannot be held to a 25 % bound over ten seeds, and
/// summing cells does not rescue it: cells of 1.5 s simulated cost 1.7 s
/// each with a CV of 0.47, so a sum steady to a third of the bound needs
/// some sixty of them per run. With no jitter the swing goes, and so do
/// the big windows (2 M events/s instead of 0.3 M). README, "Departures".
fn fatflows_cell(seed: u64) -> u64 {
    if seed == HELD_OUT_SEED {
        HELD_OUT_SEED
    } else {
        DEFAULT_SEED
    }
}

/// True for the workload that runs through the observed entry point.
pub fn is_observed(workload: &str) -> bool {
    workload == "core1k_observed"
}

/// Build the scenario for `workload` (observers off — the observed
/// workload's observers are switched on by `compat::run_observed_exporting`,
/// so that the same scenario also serves as its unobserved twin).
pub fn scenario(workload: &str, seed: u64) -> Option<Scenario> {
    let mut scenario_seed = seed;
    let mut s = match workload {
        "core5k_droptail" => {
            let mut s = Scenario::core_scale().flows(vec![group(CcaKind::Reno, 5000, 20)]);
            s.start_jitter = ms(1000);
            s.warmup = ms(1000);
            s.duration = ms(1000);
            s
        }
        "mega100k_batched" => {
            let mut s = Scenario::mega_scale().flows(vec![
                group(CcaKind::Reno, 50_000, 20),
                group(CcaKind::Cubic, 50_000, 40),
            ]);
            s.bottleneck = Bandwidth::from_gbps(10);
            s.buffer_bytes = 250_000_000;
            s.duration = ms(250);
            s
        }
        "parkinglot_codel_ecn" => {
            let mut s = Scenario::edge_scale()
                .flows(vec![
                    group(CcaKind::Reno, 200, 20),
                    group(CcaKind::Cubic, 200, 40),
                ])
                .topology(TopologyKind::ParkingLot(3))
                .aqm(AqmKind::Codel)
                .ecn(true);
            s.bottleneck = Bandwidth::from_gbps(1);
            s.buffer_bytes = 2_500_000;
            s.start_jitter = ms(1000);
            s.warmup = ms(2000);
            s.duration = ms(8000);
            s
        }
        "fatflows_mixed_recovery" => {
            let mut s = Scenario::edge_scale().flows(vec![
                group(CcaKind::Bbr, 4, 20),
                group(CcaKind::Cubic, 4, 20),
                group(CcaKind::Reno, 4, 20),
            ]);
            s.bottleneck = Bandwidth::from_gbps(1);
            s.buffer_bytes = 2_500_000;
            s.start_jitter = ms(1000);
            s.warmup = ms(2000);
            s.duration = ms(1000);
            scenario_seed = fatflows_cell(seed);
            s
        }
        "core1k_observed" => {
            let mut s = Scenario::core_scale().flows(vec![
                group(CcaKind::Reno, 500, 20),
                group(CcaKind::Cubic, 500, 20),
            ]);
            s.bottleneck = Bandwidth::from_gbps(2);
            s.buffer_bytes = 50_000_000;
            s.start_jitter = ms(1000);
            s.warmup = ms(1000);
            s.duration = ms(10_000);
            s
        }
        _ => return None,
    };
    s.convergence = None;
    Some(s.seed(scenario_seed).named(workload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_named_workload_builds_a_valid_scenario() {
        for name in WORKLOADS {
            let s = scenario(name, 3).unwrap_or_else(|| panic!("{name} has no scenario"));
            s.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(s.convergence.is_none());
            assert!(!s.trace.enabled, "{name}: observers are attached by compat");
        }
        assert!(scenario("no_such_workload", 1).is_none());
    }

    #[test]
    fn the_seed_reaches_the_scenario() {
        for name in WORKLOADS {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert_eq!(scenario(name, seed).unwrap().seed, seed, "{name}");
            }
            let followed = scenario(name, 3).unwrap().seed == 3;
            assert_eq!(followed, name != "fatflows_mixed_recovery", "{name}");
        }
        assert_eq!(WORKLOADS.iter().filter(|w| is_observed(w)).count(), 1);
    }
}
