//! Delivery-rate estimation, after Linux `tcp_rate.c` (Cheng et al.,
//! "Delivery Rate Estimation", IETF draft).
//!
//! Each transmitted segment snapshots the connection's delivery state
//! ([`TxRecord`]). When the segment is (S)ACKed, the delta between the
//! current state and the snapshot yields a bandwidth sample over
//! `max(send_interval, ack_interval)` — robust to both sender bursts and
//! compressed ACKs. BBR's bandwidth filter consumes these samples; the
//! estimator is CCA-agnostic and always on.

use ccsim_sim::{snap, Bandwidth, SimDuration, SimTime};

/// Connection-level delivery accounting.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    /// Total bytes delivered (cumulatively or selectively ACKed).
    delivered: u64,
    /// When `delivered` last advanced.
    delivered_time: SimTime,
    /// Send time of the first packet of the current flight window
    /// (`tp->first_tx_mstamp`).
    first_tx_time: SimTime,
    /// Samples are app-limited until `delivered` passes this point.
    app_limited_until: u64,
}

// Everything in the estimator is mutable runtime state.
snap!(RateEstimator {
    delivered,
    delivered_time,
    first_tx_time,
    app_limited_until
});

/// Per-segment snapshot taken at transmission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRecord {
    /// When this segment was (last) sent.
    pub sent_time: SimTime,
    /// `delivered` at send time.
    pub delivered: u64,
    /// `delivered_time` at send time.
    pub delivered_time: SimTime,
    /// `first_tx_time` at send time.
    pub first_tx_time: SimTime,
    /// Whether the sender was app-limited at send time.
    pub app_limited: bool,
}

snap!(TxRecord {
    sent_time,
    delivered,
    delivered_time,
    first_tx_time,
    app_limited
});

/// A delivery-rate sample generated by an ACK.
#[derive(Debug, Clone, Copy)]
pub struct RateSample {
    /// Measured delivery rate, when the interval was usable.
    pub delivery_rate: Option<Bandwidth>,
    /// The measurement interval (`max(send_elapsed, ack_elapsed)`).
    pub interval: SimDuration,
    /// Bytes delivered over the interval.
    pub delivered_bytes: u64,
    /// `delivered` at the time the ACKed packet was sent.
    pub prior_delivered: u64,
    /// Whether the sample is app-limited (underestimates capacity).
    pub is_app_limited: bool,
}

impl Default for RateEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RateEstimator {
    /// A fresh estimator (zero bytes delivered at t = 0).
    pub fn new() -> Self {
        RateEstimator {
            delivered: 0,
            delivered_time: SimTime::ZERO,
            first_tx_time: SimTime::ZERO,
            app_limited_until: 0,
        }
    }

    /// Total bytes delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// When delivery last advanced.
    pub fn delivered_time(&self) -> SimTime {
        self.delivered_time
    }

    /// Record a transmission. `flight_was_empty` must be true iff no data
    /// was in flight before this send (restarts the rate window so idle
    /// periods don't dilute samples).
    pub fn on_send(&mut self, now: SimTime, flight_was_empty: bool) -> TxRecord {
        if flight_was_empty {
            self.first_tx_time = now;
            self.delivered_time = now;
        }
        TxRecord {
            sent_time: now,
            delivered: self.delivered,
            delivered_time: self.delivered_time,
            first_tx_time: self.first_tx_time,
            app_limited: self.delivered < self.app_limited_until,
        }
    }

    /// Mark the connection app-limited at the current delivery point: all
    /// samples until everything currently in flight is delivered will carry
    /// [`RateSample::is_app_limited`].
    pub fn set_app_limited(&mut self, in_flight_bytes: u64) {
        self.app_limited_until = self.delivered + in_flight_bytes.max(1);
    }

    /// Process an ACK that newly delivered `newly_delivered` bytes, where
    /// `latest` is the [`TxRecord`] of the most recently *sent* segment
    /// among those this ACK (S)ACKed. Returns a rate sample.
    pub fn on_ack(&mut self, now: SimTime, newly_delivered: u64, latest: &TxRecord) -> RateSample {
        self.delivered += newly_delivered;
        self.delivered_time = now;
        // Advance the send-window anchor to the just-ACKed segment's send
        // time, so the next sample's send interval starts there.
        self.first_tx_time = latest.sent_time;

        let send_elapsed = latest.sent_time.saturating_since(latest.first_tx_time);
        let ack_elapsed = now.saturating_since(latest.delivered_time);
        let interval = send_elapsed.max(ack_elapsed);
        let delivered_bytes = self.delivered - latest.delivered;
        let delivery_rate = Bandwidth::from_bytes_per(delivered_bytes, interval);
        RateSample {
            delivery_rate,
            interval,
            delivered_bytes,
            prior_delivered: latest.delivered,
            is_app_limited: latest.app_limited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn steady_state_rate_matches_throughput() {
        use std::collections::VecDeque;
        let mut est = RateEstimator::new();
        // A pipelined flow: 10 packets in flight, 1000 B each, each ACKed
        // 100 ms after its send; every ACK triggers the next send (ACK
        // clocking). True throughput: 10 packets per 100 ms RTT = 800 kbps.
        let mut window: VecDeque<(u64, TxRecord)> =
            (0..10).map(|i| (i, est.on_send(t(i), i == 0))).collect();
        let mut last = None;
        for _ in 0..300 {
            let (sent_ms, rec) = window.pop_front().unwrap();
            let ack_ms = sent_ms + 100;
            last = Some(est.on_ack(t(ack_ms), 1000, &rec));
            window.push_back((ack_ms, est.on_send(t(ack_ms), false)));
        }
        let s = last.unwrap();
        assert_eq!(s.delivery_rate.unwrap(), Bandwidth::from_kbps(800));
        assert_eq!(est.delivered(), 300_000);
    }

    #[test]
    fn first_ack_uses_ack_elapsed() {
        let mut est = RateEstimator::new();
        let rec = est.on_send(t(0), true);
        // Only packet in flight: send interval is 0, ack interval is 50 ms.
        let s = est.on_ack(t(50), 1000, &rec);
        assert_eq!(s.interval, SimDuration::from_millis(50));
        // 1000 B / 50 ms = 160 kbps.
        assert_eq!(s.delivery_rate.unwrap(), Bandwidth::from_kbps(160));
    }

    #[test]
    fn compressed_acks_measure_over_the_full_window() {
        let mut est = RateEstimator::new();
        // Two packets sent 10 ms apart; both acked at the same instant.
        // The second sample's snapshot dates from before the first delivery,
        // so the ACK-side interval spans the whole window (100 ms) and the
        // sample reports 2000 B over it — the true average, not an inflated
        // burst rate. This is the compressed-ACK robustness property.
        let r0 = est.on_send(t(0), true);
        let r1 = est.on_send(t(10), false);
        est.on_ack(t(100), 1000, &r0);
        let s = est.on_ack(t(100), 1000, &r1);
        assert_eq!(s.interval, SimDuration::from_millis(100));
        assert_eq!(s.delivered_bytes, 2000);
        // 2000 B / 100 ms = 160 kbps.
        assert_eq!(s.delivery_rate.unwrap(), Bandwidth::from_kbps(160));
    }

    #[test]
    fn idle_restart_resets_window() {
        let mut est = RateEstimator::new();
        let r0 = est.on_send(t(0), true);
        est.on_ack(t(20), 1000, &r0);
        // Long idle, then a fresh flight: the send anchor restarts, so the
        // idle gap must not appear in the sample interval.
        let r1 = est.on_send(t(10_000), true);
        let s = est.on_ack(t(10_020), 1000, &r1);
        assert_eq!(s.interval, SimDuration::from_millis(20));
    }

    #[test]
    fn degenerate_interval_yields_no_rate() {
        let mut est = RateEstimator::new();
        let rec = est.on_send(t(0), true);
        let s = est.on_ack(t(0), 1000, &rec);
        assert!(s.delivery_rate.is_none());
        assert_eq!(s.interval, SimDuration::ZERO);
    }

    #[test]
    fn app_limited_marks_samples_until_flight_drains() {
        let mut est = RateEstimator::new();
        let r0 = est.on_send(t(0), true);
        est.set_app_limited(1000);
        let r1 = est.on_send(t(1), false);
        // r1 was sent while app-limited.
        assert!(r1.app_limited);
        est.on_ack(t(50), 1000, &r0);
        let s1 = est.on_ack(t(51), 1000, &r1);
        assert!(s1.is_app_limited);
        // After delivery passes the app-limited point, new sends are clean.
        let r2 = est.on_send(t(60), true);
        assert!(!r2.app_limited);
    }

    #[test]
    fn prior_delivered_supports_round_tracking() {
        let mut est = RateEstimator::new();
        let r0 = est.on_send(t(0), true);
        let s0 = est.on_ack(t(10), 1000, &r0);
        assert_eq!(s0.prior_delivered, 0);
        let r1 = est.on_send(t(11), true);
        let s1 = est.on_ack(t(20), 1000, &r1);
        assert_eq!(s1.prior_delivered, 1000);
        assert_eq!(s1.delivered_bytes, 1000);
    }
}
