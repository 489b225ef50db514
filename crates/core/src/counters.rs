//! One reading of every count a run is measured by. A window is the
//! difference of two readings, `later.since(&earlier)`; a run stores the
//! earlier reading of each window it reports:
//!
//! * the **warm-up reading** (the measurement cursor), taken after the
//!   warm-up boundary reset the link counters: the outcome counts since
//!   it, and the watchdog's conservation check starts from its links;
//! * the **start reading**, taken once the network holds its starting
//!   state: every observer view (events by kind, the RTO and recovery
//!   families, `events_per_sec`, the timeline) counts since it.
//!
//! So on a resumed run the observer views (and the profile's cells,
//! counted the same way) count since the restore, while `events_processed`
//! and the outcome count the whole run: a checkpoint carries the engine's
//! event count and the warm-up reading, but no observer state.

use crate::build::BuiltNetwork;
use crate::error::SimError;
use crate::observe::EVENT_KINDS;
use crate::watchdog::Watchdog;
use ccsim_net::link::Link;
use ccsim_resume::Checkpoint;
use ccsim_tcp::sender::Sender;

/// A plain struct of `N` `u64` counts, convertible to and from an array
/// in field order, with a field-wise difference.
macro_rules! counts {
    ($(#[$doc:meta])* $name:ident [$n:literal] { $($field:ident),+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(pub $field: u64,)+
        }

        impl $name {
            /// The counts in field order.
            pub(crate) fn to_array(self) -> [u64; $n] {
                [$(self.$field),+]
            }

            /// The counts from an array in field order.
            pub(crate) fn from_array([$($field),+]: [u64; $n]) -> $name {
                $name { $($field),+ }
            }

            fn subtract(&mut self, earlier: &$name) {
                $(self.$field = self.$field.wrapping_sub(earlier.$field);)+
            }
        }
    };
}

counts!(
    /// One sender's [`ccsim_tcp::SenderStats`] counts.
    FlowCounts[5] { data_pkts_sent, retransmits, rtos, congestion_events, fast_recoveries }
);

counts!(
    /// One link's [`ccsim_net::link::LinkStats`] counts, and its backlog
    /// (queued or in service): a level, so its difference may be negative
    /// and, like every field, reads modulo 2^64.
    LinkCounts[6] {
        arrived_pkts,
        dropped_pkts,
        transmitted_pkts,
        backlog_pkts,
        transmitted_bytes,
        ce_marked_pkts
    }
);

/// Every count of a run at one instant. A reading may hold only the parts
/// its window needs: in a difference, what the earlier reading lacks
/// counts from zero, and what the later one lacks stays absent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Sender counts, by flow id.
    pub flows: Vec<FlowCounts>,
    /// Receiver-side delivered bytes, by flow id.
    pub delivered: Vec<u64>,
    /// Link counts, indexed like [`BuiltNetwork::links`].
    pub links: Vec<LinkCounts>,
    /// Engine events processed.
    pub events: u64,
    /// Engine events by kind (`data`, `ack`, `timer`): counted on observed
    /// runs only, and never checkpointed.
    pub events_by_kind: [u64; EVENT_KINDS.len()],
}

impl Counters {
    /// Every count of `net`, read in one pass.
    pub fn read(net: &BuiltNetwork) -> Counters {
        Counters::read_some(net, net.flow_count(), &net.per_flow_delivered(), false)
    }

    /// The start reading of a run resumed from `cp`.
    pub fn at_checkpoint(cp: &Checkpoint) -> Result<Counters, SimError> {
        let scenario = crate::runner::scenario_from_checkpoint(cp)?;
        let mut net = BuiltNetwork::try_build(&scenario)?;
        let mut watchdog = Watchdog::new(scenario.watchdog);
        let window = scenario.convergence.map_or(0, |rule| rule.window_snapshots);
        crate::checkpoint::restore_into(&mut net, &mut watchdog, window, &cp.body)?;
        Ok(Counters::read(&net))
    }

    /// Read `delivered` as every flow's delivered bytes, the sender counts
    /// of the first `senders` flows, every link and the engine. An
    /// `opening` reading opens the measurement window at this instant, so
    /// it leaves out the congestion events *at* it, which belong to the
    /// window ([`ccsim_tcp::SenderStats::congestion_events_before`]).
    pub(crate) fn read_some(
        net: &BuiltNetwork,
        senders: usize,
        delivered: &[u64],
        opening: bool,
    ) -> Counters {
        let flows = net.senders[..senders].iter().map(|&id| {
            let s = net.sim.component::<Sender>(id).stats();
            FlowCounts {
                data_pkts_sent: s.data_pkts_sent,
                retransmits: s.retransmits,
                rtos: s.rtos,
                fast_recoveries: s.fast_recoveries,
                congestion_events: if opening {
                    s.congestion_events_before(net.sim.now())
                } else {
                    s.congestion_events()
                },
            }
        });
        let links = net.links.iter().map(|&id| {
            let link = net.sim.component::<Link>(id);
            let s = link.stats();
            LinkCounts {
                arrived_pkts: s.arrived_pkts,
                dropped_pkts: s.dropped_pkts,
                transmitted_pkts: s.transmitted_pkts,
                transmitted_bytes: s.transmitted_bytes,
                ce_marked_pkts: s.ce_marked_pkts,
                backlog_pkts: link.queued_pkts() + link.in_service_pkts(),
            }
        });
        let by_kind = net.sim.event_class_counts();
        Counters {
            flows: flows.collect(),
            delivered: delivered.to_vec(),
            links: links.collect(),
            events: net.sim.events_processed(),
            events_by_kind: std::array::from_fn(|k| by_kind.get(k).copied().unwrap_or(0)),
        }
    }

    /// The counts between `earlier` and this reading, field by field.
    pub fn since(mut self, earlier: &Counters) -> Counters {
        for (c, e) in self.flows.iter_mut().zip(&earlier.flows) {
            c.subtract(e);
        }
        for (c, e) in self.links.iter_mut().zip(&earlier.links) {
            c.subtract(e);
        }
        for (c, e) in self.delivered.iter_mut().zip(&earlier.delivered) {
            *c = c.wrapping_sub(*e);
        }
        for (c, e) in self.events_by_kind.iter_mut().zip(earlier.events_by_kind) {
            *c = c.wrapping_sub(e);
        }
        self.events = self.events.wrapping_sub(earlier.events);
        self
    }
}
