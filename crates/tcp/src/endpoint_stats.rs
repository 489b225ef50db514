//! Endpoint counters exposed to the experiment harness and telemetry.
//!
//! These are the simulator's equivalent of `ss -i` / `tcpprobe` state: the
//! sender side counts transmissions, retransmissions, and — crucially for
//! the paper — *congestion events* (CWND reductions), split into fast
//! recoveries, RTOs and ECE reductions. The harness derives the "CWND
//! halving rate" from these and the packet counts.

use ccsim_sim::{snap, SimTime};

/// Sender-side counters.
#[derive(Debug, Clone, Default)]
pub struct SenderStats {
    /// Data segments transmitted (including retransmissions).
    pub data_pkts_sent: u64,
    /// Data bytes transmitted (including retransmissions).
    pub bytes_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// ACK packets processed.
    pub acks_received: u64,
    /// Entries into fast recovery (multiplicative-decrease events).
    pub fast_recoveries: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// Segments declared lost by loss detection or RTO.
    pub segments_marked_lost: u64,
    /// ECE-triggered congestion responses (RFC 3168: at most one per
    /// window of data). Zero when ECN is off.
    pub ecn_reductions: u64,
    /// Instant of the latest congestion event (zero before the first).
    pub last_event_at: SimTime,
    /// How many congestion events happened at exactly `last_event_at`.
    pub events_at_last: u64,
}

impl SenderStats {
    /// Total congestion events: fast recoveries + RTOs + ECE reductions,
    /// every cwnd reduction. This is the event count whose per-packet rate
    /// feeds the Mathis model's "CWND halving rate" interpretation of `p`.
    pub fn congestion_events(&self) -> u64 {
        self.fast_recoveries + self.rtos + self.ecn_reductions
    }

    /// Count a congestion event at `now` (the caller bumps its kind's
    /// counter).
    pub(crate) fn note_event(&mut self, now: SimTime) {
        if now == self.last_event_at {
            self.events_at_last += 1;
        } else {
            self.last_event_at = now;
            self.events_at_last = 1;
        }
    }

    /// Congestion events strictly before `t`, for a `t` no earlier than
    /// the latest event: the harness's warm-up baseline, taken after the
    /// events *at* the boundary have run, which belong to the window.
    pub fn congestion_events_before(&self, t: SimTime) -> u64 {
        debug_assert!(t >= self.last_event_at, "events past {t:?} counted");
        if t == self.last_event_at {
            self.congestion_events() - self.events_at_last
        } else {
            self.congestion_events()
        }
    }
}

snap!(SenderStats {
    data_pkts_sent,
    bytes_sent,
    retransmits,
    acks_received,
    fast_recoveries,
    rtos,
    segments_marked_lost,
    ecn_reductions,
    last_event_at,
    events_at_last
});

/// Receiver-side counters.
#[derive(Debug, Clone, Default)]
pub struct ReceiverStats {
    /// Data segments received (any order, including duplicates).
    pub data_pkts_received: u64,
    /// Payload bytes received (including duplicates).
    pub bytes_received: u64,
    /// Out-of-order arrivals buffered.
    pub ooo_pkts: u64,
    /// Entirely duplicate segments (spurious retransmissions).
    pub duplicate_pkts: u64,
    /// Segments observed with the retransmit flag.
    pub retransmits_received: u64,
    /// ACKs emitted.
    pub acks_sent: u64,
    /// ACKs emitted carrying SACK blocks.
    pub sack_acks_sent: u64,
    /// Data segments that arrived CE-marked.
    pub ce_pkts_received: u64,
    /// ACKs emitted with the ECE echo set.
    pub ece_acks_sent: u64,
}

snap!(ReceiverStats {
    data_pkts_received,
    bytes_received,
    ooo_pkts,
    duplicate_pkts,
    retransmits_received,
    acks_sent,
    sack_acks_sent,
    ce_pkts_received,
    ece_acks_sent
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_events_sum_every_kind() {
        let s = SenderStats {
            fast_recoveries: 7,
            rtos: 2,
            ecn_reductions: 3,
            ..SenderStats::default()
        };
        assert_eq!(s.congestion_events(), 12);
    }

    #[test]
    fn defaults_are_zero() {
        let s = SenderStats::default();
        assert_eq!(s.congestion_events(), 0);
        assert_eq!(s.congestion_events_before(SimTime::ZERO), 0);
        let r = ReceiverStats::default();
        assert_eq!(r.acks_sent, 0);
    }

    /// One fast recovery at each of `times` (milliseconds).
    fn with_events(times: &[u64]) -> SenderStats {
        let mut s = SenderStats::default();
        for &ms in times {
            s.fast_recoveries += 1;
            s.note_event(SimTime::from_millis(ms));
        }
        s
    }

    #[test]
    fn an_event_at_the_boundary_counts_after_it() {
        let s = with_events(&[100, 900, 1000]);
        let boundary = SimTime::from_millis(1000);
        assert_eq!(s.congestion_events_before(boundary), 2);
        // Past the boundary every event lies before it.
        assert_eq!(s.congestion_events_before(SimTime::from_millis(1001)), 3);
    }

    #[test]
    fn events_sharing_the_boundary_all_count_after_it() {
        let s = with_events(&[100, 1000, 1000]);
        assert_eq!(
            (s.last_event_at, s.events_at_last),
            (SimTime::from_millis(1000), 2)
        );
        assert_eq!(s.congestion_events_before(SimTime::from_millis(1000)), 1);
        // Two events sharing an earlier instant are both before.
        let s = with_events(&[100, 500, 500]);
        assert_eq!(s.congestion_events_before(SimTime::from_millis(1000)), 3);
    }

    #[test]
    fn no_events_means_none_before_any_boundary() {
        let s = with_events(&[]);
        assert_eq!(s.congestion_events_before(SimTime::ZERO), 0);
        assert_eq!(s.congestion_events_before(SimTime::from_secs(5)), 0);
        // An event at t = 0 is at a zero-length warm-up's boundary.
        let s = with_events(&[0]);
        assert_eq!(s.congestion_events_before(SimTime::ZERO), 0);
    }
}
