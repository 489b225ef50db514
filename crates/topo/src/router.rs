//! Per-flow forwarding between links.
//!
//! A [`Router`] sits behind a link whose flows diverge: some continue to
//! another link, others exit toward their destination endpoint. It holds a
//! static per-flow route table computed at instantiation time and forwards
//! each packet with zero delay — all queueing and serialization happens in
//! the links themselves, so a router never reorders or drops.
//!
//! Routers are elided whenever possible (see [`plan_wiring`]): a link whose
//! flows all exit uses [`NextHop::ToPacketDst`] directly, and a link whose
//! flows all continue to the same next link chains via [`NextHop::Fixed`].
//! Only genuinely diverging links pay for a router hop, which keeps the
//! single-bottleneck event sequence byte-identical to the router-free
//! engine.
//!
//! [`plan_wiring`]: crate::instantiate::plan_wiring
//! [`NextHop::ToPacketDst`]: ccsim_net::NextHop::ToPacketDst
//! [`NextHop::Fixed`]: ccsim_net::NextHop::Fixed

use ccsim_net::Msg;
use ccsim_sim::{snap, Component, ComponentId, Ctx, SimTime};

/// A zero-delay per-flow packet forwarder.
#[derive(Debug)]
pub struct Router {
    /// `routes[flow]` — next component for the flow's packets. `None` (or
    /// an index beyond the table) delivers to the packet's own `dst`
    /// endpoint, the "exit" action.
    routes: Vec<Option<ComponentId>>,
    forwarded_pkts: u64,
}

impl Router {
    /// A router with the given per-flow route table.
    pub fn new(routes: Vec<Option<ComponentId>>) -> Router {
        Router {
            routes,
            forwarded_pkts: 0,
        }
    }

    /// Packets forwarded so far (exits included).
    pub fn forwarded_pkts(&self) -> u64 {
        self.forwarded_pkts
    }

    /// The route table (for diagnostics/tests).
    pub fn routes(&self) -> &[Option<ComponentId>] {
        &self.routes
    }

    snap! {
        /// Serialize mutable state for a checkpoint (the route table is
        /// configuration, recomputed at instantiation).
        pub fn save_state;
        /// Overlay checkpointed state.
        pub fn load_state;
        forwarded_pkts,
    }
}

impl Component<Msg> for Router {
    fn on_event(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Packet(p) = msg {
            let next = self
                .routes
                .get(p.flow.index())
                .copied()
                .flatten()
                .unwrap_or(p.dst);
            self.forwarded_pkts += 1;
            ctx.send(next, Msg::Packet(p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_net::{FlowId, Packet};
    use ccsim_sim::{SimTime, Simulator};

    #[derive(Default)]
    struct Sink {
        got: Vec<Packet>,
    }

    impl Component<Msg> for Sink {
        fn on_event(&mut self, _now: SimTime, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Packet(p) = msg {
                self.got.push(p);
            }
        }
    }

    fn pkt(flow: u32, dst: ComponentId) -> Packet {
        Packet::data(FlowId(flow), dst, 0, 1448, SimTime::ZERO)
    }

    #[test]
    fn routes_by_flow_and_falls_back_to_packet_dst() {
        let mut sim: Simulator<Msg> = Simulator::new(0);
        let next_hop = sim.add_component(Sink::default());
        let endpoint = sim.add_component(Sink::default());
        let router = sim.add_component(Router::new(vec![Some(next_hop), None]));

        // Flow 0 is routed onward; flow 1 exits; flow 7 (beyond the table)
        // also exits.
        sim.schedule(SimTime::ZERO, router, Msg::Packet(pkt(0, endpoint)));
        sim.schedule(SimTime::ZERO, router, Msg::Packet(pkt(1, endpoint)));
        sim.schedule(SimTime::ZERO, router, Msg::Packet(pkt(7, endpoint)));
        sim.run_until(SimTime::from_nanos(1));

        assert_eq!(sim.component::<Sink>(next_hop).got.len(), 1);
        assert_eq!(sim.component::<Sink>(next_hop).got[0].flow, FlowId(0));
        assert_eq!(sim.component::<Sink>(endpoint).got.len(), 2);
        assert_eq!(sim.component::<Router>(router).forwarded_pkts(), 3);
    }
}
