//! Network construction: wire a [`Scenario`] into a live simulator.
//!
//! The network shape comes from the scenario's [`TopologyKind`](ccsim_topo::TopologyKind)
//! (single-bottleneck by default — the paper's dumbbell reduced to its
//! essential elements, DESIGN.md decision D5): `ccsim-topo` generates the
//! [`Topology`] description, instantiates its [`Link`]s (chained directly
//! or through per-flow routers), and this module attaches the AQM
//! disciplines, trace recorders, and fault injector, then wires the
//! senders and receivers. Receivers return ACKs delayed by the flow's
//! base RTT (the netem substitution) — straight to their senders unless
//! the topology models an explicit reverse path.
//!
//! Senders and receivers are interleaved in the component arena right
//! after the links and routers; ids are pre-computed and cross-checked so
//! the circular sender↔receiver references resolve without
//! post-construction mutation.
//!
//! [`Link`]: ccsim_net::Link

use crate::scenario::{Scenario, ScenarioError};
use ccsim_cca::{make_cca, CcaKind};
use ccsim_fault::LinkFaultInjector;
use ccsim_net::link::{Link, FAULT_TICK};
use ccsim_net::msg::{Msg, TimerToken};
use ccsim_net::packet::FlowId;
use ccsim_net::AqmKind;
use ccsim_sim::{ComponentId, SimDuration, SimTime, Simulator};
use ccsim_tcp::receiver::Receiver;
use ccsim_tcp::sender::{start_msg, Sender, SenderConfig};
use ccsim_tcp::CongestionControl;
use ccsim_topo::{instantiate, Topology};
use ccsim_trace::{FlowRecorder, QueueRecorder};
use rand::Rng;

/// A scenario wired into a simulator, ready to run.
pub struct BuiltNetwork {
    /// The simulator holding all components.
    pub sim: Simulator<Msg>,
    /// The primary bottleneck link (anchor for legacy single-link
    /// reporting: loss rate, drop burstiness, hop-0 queue trace).
    pub link: ComponentId,
    /// Every link, indexed like [`BuiltNetwork::topology`]`.links`.
    pub links: Vec<ComponentId>,
    /// Per-flow routers created for diverging links (often empty).
    pub routers: Vec<ComponentId>,
    /// The instantiated topology description.
    pub topology: Topology,
    /// Per-link trace hop number (primary bottleneck = 0).
    pub hop_index: Vec<u32>,
    /// Per-flow sender component ids (index = flow id).
    pub senders: Vec<ComponentId>,
    /// Per-flow receiver component ids.
    pub receivers: Vec<ComponentId>,
    /// Per-flow CCA kinds.
    pub flow_cca: Vec<CcaKind>,
    /// Per-flow base RTTs.
    pub flow_rtt: Vec<SimDuration>,
    /// Per-flow start instants (after jitter).
    pub start_times: Vec<SimTime>,
    /// Always `None`. The frozen `benchmark/` harness still names this
    /// field (`compat.rs::harvest`); a benchmark-archetype PR drops that
    /// line, `InSitu::slab_bytes` and `tcp.slab.bytes_per_flow`, then this.
    #[doc(hidden)]
    pub slab: Option<std::cell::RefCell<RetiredSlab>>,
}

/// Uninhabited: `BuiltNetwork::slab` can never be `Some`.
#[doc(hidden)]
pub enum RetiredSlab {}
impl RetiredSlab {
    pub fn memory_bytes(&self) -> u64 {
        match *self {}
    }
}

/// Per-flow CCA construction: `(flow_index, kind, mss, seed)` → instance.
pub type CcaFactory<'a> = dyn Fn(u32, CcaKind, u32, u64) -> Box<dyn CongestionControl> + 'a;

impl BuiltNetwork {
    /// Construct the network for `scenario` and schedule all flow starts,
    /// using the stock CCA implementations.
    ///
    /// # Panics
    /// Panics on an invalid scenario ([`BuiltNetwork::try_build`] reports
    /// the error instead).
    pub fn build(scenario: &Scenario) -> BuiltNetwork {
        BuiltNetwork::try_build(scenario).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct the network for `scenario`, surfacing validation errors.
    pub fn try_build(scenario: &Scenario) -> Result<BuiltNetwork, ScenarioError> {
        BuiltNetwork::try_build_with_factory(scenario, &|_, kind, mss, seed| {
            make_cca(kind, mss, seed)
        })
    }

    /// Like [`BuiltNetwork::build`], but with a custom CCA factory —
    /// the hook ablations use to instantiate variant algorithm
    /// configurations (e.g. CUBIC without HyStart).
    ///
    /// # Panics
    /// Panics on an invalid scenario.
    pub fn build_with_factory(scenario: &Scenario, factory: &CcaFactory<'_>) -> BuiltNetwork {
        BuiltNetwork::try_build_with_factory(scenario, factory).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BuiltNetwork::build_with_factory`], surfacing validation errors.
    pub fn try_build_with_factory(
        scenario: &Scenario,
        factory: &CcaFactory<'_>,
    ) -> Result<BuiltNetwork, ScenarioError> {
        scenario.validate()?;
        let mut sim = Simulator::new(scenario.seed);
        let rng_factory = sim.rng();

        let topology = scenario.topology_description();
        // Per-link AQM: the link spec's override, else the scenario-wide
        // choice. Drop-tail keeps the link's built-in queue — the
        // digest-identical legacy path.
        let built = instantiate(&topology, &mut sim, |i, spec| {
            let kind = spec.aqm.unwrap_or(scenario.aqm);
            (kind != AqmKind::DropTail).then(|| {
                kind.build(
                    spec.buffer_bytes,
                    spec.rate,
                    scenario.ecn,
                    rng_factory.derive_seed("aqm", i as u64),
                )
            })
        })?;
        let link = built.links[built.primary];

        if scenario.trace.enabled {
            let cfg = &scenario.trace;
            for (i, &id) in built.links.iter().enumerate() {
                sim.component_mut::<Link>(id).enable_trace(
                    QueueRecorder::new(
                        cfg.policy,
                        cfg.queue_budget(),
                        cfg.queue_sample_every,
                        rng_factory.derive_seed("trace-queue", i as u64),
                    )
                    .with_hop(built.hop_index[i]),
                );
            }
        }
        if !scenario.fault.is_empty() {
            // Faults get their own RNG stream so the same scenario with
            // and without a plan keeps identical jitter/CCA randomness.
            // Impairments target the primary bottleneck only.
            let injector =
                LinkFaultInjector::new(&scenario.fault, rng_factory.derive_seed("fault", 0));
            if let Some(first) = injector.next_action_at() {
                sim.schedule(first, link, Msg::Timer(TimerToken::pack(FAULT_TICK, 0)));
            }
            sim.component_mut::<Link>(link).enable_faults(injector);
        }

        if scenario.tuning.tx_burst > 1 {
            for &id in &built.links {
                sim.component_mut::<Link>(id)
                    .set_tx_burst(scenario.tuning.tx_burst);
            }
        }

        let endpoint_base = built.links.len() + built.routers.len();
        let n = scenario.flow_count() as usize;
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        let mut flow_cca = Vec::with_capacity(n);
        let mut flow_rtt = Vec::with_capacity(n);
        let mut start_times = Vec::with_capacity(n);

        let mut flow: u32 = 0;
        for group in &scenario.flows {
            for _ in 0..group.count {
                // Ids are sequential: sender then receiver for each flow,
                // right after the links and routers.
                let sender_id = ComponentId::from_raw(endpoint_base + 2 * flow as usize);
                let receiver_id = ComponentId::from_raw(endpoint_base + 1 + 2 * flow as usize);

                let seed = rng_factory.derive_seed("cca", flow as u64);
                let cca = factory(flow, group.cca, scenario.mss, seed);
                let cfg = SenderConfig {
                    flow: FlowId(flow),
                    mss: scenario.mss,
                    receiver: receiver_id,
                    first_hop: built.first_hop[flow as usize],
                    data_limit: None, // infinite sources, as in the paper
                    ecn: scenario.ecn,
                };
                let actual_sender = sim.add_component(Sender::new(cfg, cca));
                assert_eq!(actual_sender, sender_id, "sender id prediction");
                if scenario.trace.enabled {
                    let tc = &scenario.trace;
                    sim.component_mut::<Sender>(sender_id)
                        .enable_trace(FlowRecorder::new(
                            flow,
                            tc.policy,
                            tc.flow_budget(scenario.flow_count()),
                            rng_factory.derive_seed("trace", flow as u64),
                        ));
                }
                let actual_receiver = sim.add_component(Receiver::new(
                    FlowId(flow),
                    sender_id,
                    group.base_rtt,
                    scenario.mss,
                ));
                assert_eq!(actual_receiver, receiver_id, "receiver id prediction");
                if let Some(hop) = built.ack_first_hop[flow as usize] {
                    // Asymmetric topology: ACKs traverse the reverse-path
                    // link(s) instead of being delivered directly.
                    sim.component_mut::<Receiver>(receiver_id)
                        .set_ack_first_hop(hop);
                }
                if scenario.tuning.delack_segments != ccsim_tcp::receiver::DELACK_SEGMENTS {
                    sim.component_mut::<Receiver>(receiver_id)
                        .set_delack_segments(scenario.tuning.delack_segments);
                }

                // Start jitter: uniform in [0, start_jitter).
                let start = if scenario.start_jitter.is_zero() {
                    SimTime::ZERO
                } else {
                    let mut rng = rng_factory.stream("start", flow as u64);
                    SimTime::from_nanos(rng.gen_range(0..scenario.start_jitter.as_nanos()))
                };
                sim.schedule(start, sender_id, start_msg());

                senders.push(sender_id);
                receivers.push(receiver_id);
                flow_cca.push(group.cca);
                flow_rtt.push(group.base_rtt);
                start_times.push(start);
                flow += 1;
            }
        }

        Ok(BuiltNetwork {
            sim,
            link,
            links: built.links,
            routers: built.routers,
            topology,
            hop_index: built.hop_index,
            senders,
            receivers,
            flow_cca,
            flow_rtt,
            start_times,
            slab: None,
        })
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.senders.len()
    }

    /// Cumulative delivered bytes for every flow (receiver-side).
    pub fn per_flow_delivered(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.per_flow_delivered_into(&mut out);
        out
    }

    /// Fill `out` with cumulative delivered bytes for every flow,
    /// reusing its capacity — the per-slice snapshot path.
    pub fn per_flow_delivered_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.receivers
                .iter()
                .map(|&id| self.sim.component::<Receiver>(id).delivered_bytes()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FlowGroup;
    use ccsim_sim::SimDuration;
    use ccsim_topo::TopologyKind;

    fn tiny_scenario() -> Scenario {
        Scenario::edge_scale()
            .flows(vec![
                FlowGroup::new(CcaKind::Reno, 3, SimDuration::from_millis(20)),
                FlowGroup::new(CcaKind::Bbr, 2, SimDuration::from_millis(100)),
            ])
            .seed(7)
    }

    #[test]
    fn builds_expected_component_layout() {
        let net = BuiltNetwork::build(&tiny_scenario());
        assert_eq!(net.flow_count(), 5);
        assert_eq!(net.link, ComponentId::from_raw(0));
        assert_eq!(net.senders[0], ComponentId::from_raw(1));
        assert_eq!(net.receivers[0], ComponentId::from_raw(2));
        assert_eq!(net.senders[4], ComponentId::from_raw(9));
        assert_eq!(net.flow_cca[3], CcaKind::Bbr);
        assert_eq!(net.flow_rtt[0], SimDuration::from_millis(20));
        assert_eq!(net.flow_rtt[4], SimDuration::from_millis(100));
    }

    #[test]
    fn start_times_fall_within_jitter_window() {
        let s = tiny_scenario();
        let net = BuiltNetwork::build(&s);
        for &t in &net.start_times {
            assert!(t < SimTime::ZERO + s.start_jitter);
        }
        // With 5 flows and a 2 s window, starts should not all collide.
        let distinct: std::collections::BTreeSet<_> = net.start_times.iter().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn same_seed_same_start_times() {
        let a = BuiltNetwork::build(&tiny_scenario());
        let b = BuiltNetwork::build(&tiny_scenario());
        assert_eq!(a.start_times, b.start_times);
        let c = BuiltNetwork::build(&tiny_scenario().seed(8));
        assert_ne!(a.start_times, c.start_times);
    }

    #[test]
    fn delivered_counts_start_at_zero() {
        let net = BuiltNetwork::build(&tiny_scenario());
        assert_eq!(net.per_flow_delivered(), vec![0; 5]);
    }

    #[test]
    fn flows_actually_transfer_data() {
        let mut net = BuiltNetwork::build(&tiny_scenario());
        net.sim.run_until(SimTime::from_secs(5));
        let delivered = net.per_flow_delivered();
        for (i, &d) in delivered.iter().enumerate() {
            assert!(d > 0, "flow {i} delivered nothing");
        }
    }

    #[test]
    fn single_bottleneck_layout_is_unchanged_by_the_topology_layer() {
        let net = BuiltNetwork::build(&tiny_scenario());
        assert_eq!(net.links, vec![ComponentId::from_raw(0)]);
        assert!(net.routers.is_empty());
        assert_eq!(net.link, ComponentId::from_raw(0));
        assert_eq!(net.hop_index, vec![0]);
        assert_eq!(net.topology.kind, TopologyKind::SingleBottleneck);
    }

    #[test]
    fn parking_lot_places_endpoints_after_links_and_routers() {
        let net = BuiltNetwork::build(&tiny_scenario().topology(TopologyKind::ParkingLot(3)));
        assert_eq!(net.links.len(), 3);
        assert_eq!(net.routers.len(), 2);
        // Primary bottleneck is the first chained link.
        assert_eq!(net.link, ComponentId::from_raw(0));
        // Endpoints follow the 3 links + 2 routers.
        assert_eq!(net.senders[0], ComponentId::from_raw(5));
        assert_eq!(net.receivers[0], ComponentId::from_raw(6));
        assert_eq!(net.senders[4], ComponentId::from_raw(13));
    }

    #[test]
    fn every_topology_kind_transfers_data_end_to_end() {
        for kind in [
            TopologyKind::Dumbbell,
            TopologyKind::ParkingLot(3),
            TopologyKind::DumbbellAsym,
        ] {
            let mut net = BuiltNetwork::build(&tiny_scenario().topology(kind));
            net.sim.run_until(SimTime::from_secs(5));
            for (i, &d) in net.per_flow_delivered().iter().enumerate() {
                assert!(d > 0, "{kind:?} flow {i} delivered nothing");
            }
        }
    }
}
