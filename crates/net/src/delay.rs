//! A pure delay element — the `netem` equivalent.
//!
//! [`DelayLine`] forwards every packet unchanged after a fixed delay, with
//! infinite capacity and no reordering. The paper used `tc netem` on the
//! receiver hosts to impose per-flow base RTTs; in ccsim the same effect is
//! usually folded into endpoint scheduling (zero extra events), but the
//! explicit element is provided for topologies that want the delay as a
//! first-class hop (e.g. ablations measuring event-count overhead).

use crate::msg::Msg;
use crate::path::{deliver_after, hop_latency};
use ccsim_sim::{snap, Component, ComponentId, Ctx, SimDuration, SimTime};

/// Where a delay line forwards packets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DelayNext {
    /// A fixed downstream component.
    Fixed(ComponentId),
    /// The endpoint named in [`crate::packet::Packet::dst`].
    ToPacketDst,
}

/// Forwards packets after a constant delay. FIFO order is preserved because
/// equal delays map equal-ordered arrivals to equal-ordered departures.
pub struct DelayLine {
    delay: SimDuration,
    next: DelayNext,
    forwarded: u64,
}

impl DelayLine {
    /// A delay line adding `delay` to every traversal.
    pub fn new(delay: SimDuration, next: DelayNext) -> DelayLine {
        DelayLine {
            delay,
            next,
            forwarded: 0,
        }
    }

    /// The configured delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    snap! {
        /// Serialize mutable state for a checkpoint (delay and next hop are
        /// configuration).
        pub fn save_state;
        /// Overlay checkpointed state.
        pub fn load_state;
        forwarded,
    }
}

impl Component<Msg> for DelayLine {
    fn on_event(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Packet(p) => {
                self.forwarded += 1;
                let dst = match self.next {
                    DelayNext::Fixed(id) => id,
                    DelayNext::ToPacketDst => p.dst,
                };
                deliver_after(ctx, hop_latency(self.delay, SimDuration::ZERO), dst, p);
            }
            // A delay line arms no timers of its own; with the token-based
            // cancellation API a timer landing here means a mis-routed or
            // stale event escaped its owner's cancel — fail loudly in
            // debug instead of silently swallowing it.
            Msg::Timer(t) => {
                debug_assert!(false, "DelayLine received stray timer kind {}", t.kind());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use ccsim_sim::Simulator;

    struct Sink {
        received: Vec<(SimTime, u64)>,
    }

    impl Component<Msg> for Sink {
        fn on_event(&mut self, now: SimTime, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Packet(p) = msg {
                self.received.push((now, p.seq()));
            }
        }
    }

    #[test]
    fn adds_exactly_the_configured_delay() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let dl = sim.add_component(DelayLine::new(
            SimDuration::from_millis(20),
            DelayNext::ToPacketDst,
        ));
        let p = Packet::data(FlowId(0), sink, 0, 100, SimTime::ZERO);
        sim.schedule(SimTime::from_millis(5), dl, Msg::Packet(p));
        sim.run();
        let rx = &sim.component::<Sink>(sink).received;
        assert_eq!(rx, &[(SimTime::from_millis(25), 0)]);
        assert_eq!(sim.component::<DelayLine>(dl).forwarded(), 1);
    }

    #[test]
    fn preserves_fifo_order() {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Sink { received: vec![] });
        let dl = sim.add_component(DelayLine::new(
            SimDuration::from_millis(10),
            DelayNext::ToPacketDst,
        ));
        for i in 0..50u64 {
            let p = Packet::data(FlowId(0), sink, i, i + 1, SimTime::ZERO);
            sim.schedule(SimTime::from_micros(i), dl, Msg::Packet(p));
        }
        sim.run();
        let seqs: Vec<u64> = sim
            .component::<Sink>(sink)
            .received
            .iter()
            .map(|&(_, s)| s)
            .collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
    }
}
