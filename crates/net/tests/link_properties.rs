//! Property-based tests of the drop-tail link: conservation, ordering,
//! and rate compliance under randomized packet storms.

use ccsim_net::link::{Link, NextHop};
use ccsim_net::msg::Msg;
use ccsim_net::packet::{FlowId, Packet};
use ccsim_sim::{Bandwidth, Component, Ctx, SimDuration, SimTime, Simulator};
use proptest::prelude::*;

struct Sink {
    received: Vec<(SimTime, u64)>, // (arrival, seq)
    bytes: u64,
}

impl Component<Msg> for Sink {
    fn on_event(&mut self, now: SimTime, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Packet(p) = msg {
            self.received.push((now, p.seq()));
            self.bytes += p.wire_bytes as u64;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every arrived packet is transmitted, dropped, or
    /// still queued; FIFO order is preserved; the sink never receives
    /// faster than the line rate allows.
    #[test]
    fn link_conserves_and_orders_packets(
        mbps in 1u64..1000,
        buffer_pkts in 0u64..64,
        arrivals in prop::collection::vec((0u64..2_000_000, 100u32..1600), 1..300),
    ) {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![], bytes: 0 });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(mbps),
            SimDuration::from_micros(50),
            buffer_pkts * 1600,
            NextHop::ToPacketDst,
        ));
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut total_bytes = 0u64;
        for (i, &(t_ns, size)) in sorted.iter().enumerate() {
            let mut p = Packet::data(FlowId(0), sink, i as u64, i as u64 + 1, SimTime::ZERO);
            p.wire_bytes = size;
            total_bytes += size as u64;
            sim.schedule(SimTime::from_nanos(t_ns), link, Msg::Packet(p));
        }
        sim.run();
        let stats = sim.component::<Link>(link).stats().clone();
        let backlog = sim.component::<Link>(link).backlog_bytes();
        // Conservation (queue drains fully once arrivals stop).
        prop_assert_eq!(backlog, 0);
        prop_assert_eq!(stats.arrived_pkts, sorted.len() as u64);
        prop_assert_eq!(stats.transmitted_pkts + stats.dropped_pkts, stats.arrived_pkts);
        prop_assert_eq!(stats.arrived_bytes, total_bytes);
        let sink_ref = sim.component::<Sink>(sink);
        prop_assert_eq!(sink_ref.received.len() as u64, stats.transmitted_pkts);
        prop_assert_eq!(sink_ref.bytes, stats.transmitted_bytes);
        // FIFO: sequence numbers arrive in increasing order (drop-tail
        // never reorders).
        for w in sink_ref.received.windows(2) {
            prop_assert!(w[0].1 < w[1].1, "reordered: {:?}", w);
            prop_assert!(w[0].0 <= w[1].0);
        }
        // Rate compliance: delivered bytes within what the line could
        // carry between first and last delivery (+1 packet of slack).
        if sink_ref.received.len() >= 2 {
            let span = sink_ref.received.last().unwrap().0
                - sink_ref.received.first().unwrap().0;
            let cap = Bandwidth::from_mbps(mbps).bytes_in(span) + 1600;
            prop_assert!(
                sink_ref.bytes <= cap + 1600,
                "delivered {} > capacity {}",
                sink_ref.bytes,
                cap
            );
        }
    }

    /// With an infinite buffer nothing is ever dropped, regardless of the
    /// arrival pattern.
    #[test]
    fn infinite_buffer_never_drops(
        arrivals in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![], bytes: 0 });
        let link = sim.add_component(Link::new(
            Bandwidth::from_mbps(1),
            SimDuration::ZERO,
            u64::MAX,
            NextHop::ToPacketDst,
        ));
        for (i, &t_ns) in arrivals.iter().enumerate() {
            let p = Packet::data(FlowId(0), sink, i as u64 * 100, i as u64 * 100 + 100, SimTime::ZERO);
            sim.schedule(SimTime::from_nanos(t_ns), link, Msg::Packet(p));
        }
        sim.run();
        prop_assert_eq!(sim.component::<Link>(link).stats().dropped_pkts, 0);
        prop_assert_eq!(
            sim.component::<Sink>(sink).received.len(),
            arrivals.len()
        );
    }
}
