//! The congestion-control interface.
//!
//! Modeled on Linux's `tcp_congestion_ops`: the endpoint (in `sender.rs`)
//! owns reliability — sequence numbers, SACK bookkeeping, loss detection,
//! RTO, PRR — and consults a [`CongestionControl`] implementation for the
//! congestion window and (optionally) a pacing rate. The CCA receives a
//! rich [`AckSample`] on every ACK (including delivery-rate samples in the
//! style of `tcp_rate.c`, which BBR requires) and lifecycle callbacks for
//! recovery episodes and RTO.
//!
//! All window quantities are in **bytes**.

use ccsim_sim::{snap, Bandwidth, SimDuration, SimTime, SnapError, SnapReader, SnapWriter};

/// Per-ACK information handed to the congestion controller.
///
/// Field semantics follow Linux (`struct rate_sample` + ack bookkeeping);
/// see `rate.rs` for how delivery-rate samples are produced.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Virtual time of ACK processing.
    pub now: SimTime,
    /// A valid RTT measurement from this ACK (Karn-filtered: only from
    /// segments never retransmitted), if any.
    pub rtt: Option<SimDuration>,
    /// Smoothed RTT (RFC 6298).
    pub srtt: SimDuration,
    /// Connection-lifetime minimum RTT.
    pub min_rtt: SimDuration,
    /// Bytes newly delivered by this ACK (cumulative + SACK).
    pub newly_acked: u64,
    /// Bytes newly marked lost by this ACK's loss detection.
    pub newly_lost: u64,
    /// Total bytes delivered so far on this connection (`tp->delivered`).
    pub delivered: u64,
    /// `delivered` at the time the ACKed packet was sent — BBR uses this for
    /// round counting.
    pub prior_delivered: u64,
    /// Bytes in flight before processing this ACK.
    pub prior_in_flight: u64,
    /// Bytes in flight after processing this ACK.
    pub in_flight: u64,
    /// Delivery-rate sample (None when the interval was degenerate).
    pub delivery_rate: Option<Bandwidth>,
    /// Interval over which `delivery_rate` was measured.
    pub interval: SimDuration,
    /// Whether the rate sample was taken while the sender was
    /// application-limited (never true for the paper's infinite sources,
    /// but kept for API completeness).
    pub is_app_limited: bool,
    /// Whether the endpoint is currently in fast recovery.
    pub in_recovery: bool,
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// The cumulative ACK sequence carried by this ACK.
    pub cumulative_ack: u64,
}

/// A congestion-control algorithm.
///
/// Implementations are per-flow state machines (one instance per sender).
/// The `Any` supertrait lets diagnostics downcast to concrete algorithm
/// types (e.g. to read BBR's mode) via trait upcasting.
pub trait CongestionControl: std::any::Any {
    /// Short algorithm name ("reno", "cubic", "bbr").
    fn name(&self) -> &'static str;

    /// Current congestion window in bytes. The endpoint sends while
    /// `bytes_in_flight < cwnd()` (subject to PRR during recovery when
    /// [`CongestionControl::uses_prr`] is true).
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes (diagnostic; `u64::MAX` when
    /// unset).
    fn ssthresh(&self) -> u64;

    /// Pacing rate, or `None` for pure ACK clocking. BBR paces; classic
    /// loss-based CCAs in the paper's era did not.
    fn pacing_rate(&self) -> Option<Bandwidth>;

    /// Process delivery progress. Called on every ACK, including during
    /// recovery.
    fn on_ack(&mut self, s: &AckSample);

    /// Loss detected: the endpoint is entering fast recovery. Loss-based
    /// CCAs apply their multiplicative decrease here (set ssthresh).
    fn on_enter_recovery(&mut self, s: &AckSample);

    /// A loss episode ended (recovery point cumulatively ACKed).
    /// `after_rto` distinguishes RTO (Loss-state) episodes from fast
    /// recovery: loss-based CCAs finalize `cwnd = ssthresh` only for the
    /// latter (after an RTO, slow start simply continues).
    fn on_exit_recovery(&mut self, s: &AckSample, after_rto: bool);

    /// Retransmission timeout fired: the endpoint has marked all in-flight
    /// data lost and will slow-start from a minimal window.
    fn on_rto(&mut self, s: &AckSample);

    /// An ECN ECE echo was accepted (at most once per window of data, RFC
    /// 3168 §6.1.2). Classic CCAs respond as to a loss — multiplicative
    /// decrease without retransmission; DCTCP-style algorithms apply a
    /// fractional cut. The default ignores the signal (BBR's behaviour).
    fn on_ecn(&mut self, _s: &AckSample) {}

    /// Whether the endpoint should run Proportional Rate Reduction during
    /// recovery (true for loss-based CCAs, false for BBR, which manages its
    /// own in-flight cap).
    fn uses_prr(&self) -> bool {
        true
    }

    /// Short label for the algorithm's current operating phase, recorded
    /// by the flight recorder on transitions ("slowstart"/"avoidance" for
    /// loss-based CCAs, BBR's four modes, "steady" when the algorithm has
    /// no phase structure). Labels must be ≤ 16 ASCII characters.
    fn phase(&self) -> &'static str {
        "steady"
    }

    /// Serialize the algorithm's mutable state for a checkpoint.
    ///
    /// Deliberately mandatory (no default body), like the AQM trait's
    /// counterpart: a new algorithm that forgot to implement it would
    /// silently break restore digests, and that class of bug is far
    /// cheaper to catch at compile time.
    fn save_state(&self, w: &mut SnapWriter);

    /// Overlay checkpointed state written by
    /// [`CongestionControl::save_state`] onto a freshly constructed
    /// instance of the same algorithm with the same configuration.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Linux's default initial congestion window: 10 segments (RFC 6928).
pub const INITIAL_CWND_SEGMENTS: u64 = 10;

/// Floor for the congestion window: 2 segments.
pub const MIN_CWND_SEGMENTS: u64 = 2;

/// A trivial fixed-window "CCA" — not a real algorithm, but invaluable in
/// tests and ablations: it turns the TCP machinery into a pure
/// sliding-window protocol with a constant window.
#[derive(Debug, Clone)]
pub struct FixedWindow {
    cwnd: u64,
}

impl FixedWindow {
    /// A fixed window of `cwnd_bytes`.
    pub fn new(cwnd_bytes: u64) -> Self {
        FixedWindow { cwnd: cwnd_bytes }
    }
}

impl CongestionControl for FixedWindow {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn cwnd(&self) -> u64 {
        self.cwnd
    }
    fn ssthresh(&self) -> u64 {
        u64::MAX
    }
    fn pacing_rate(&self) -> Option<Bandwidth> {
        None
    }
    fn on_ack(&mut self, _s: &AckSample) {}
    fn on_enter_recovery(&mut self, _s: &AckSample) {}
    fn on_exit_recovery(&mut self, _s: &AckSample, _after_rto: bool) {}
    fn on_rto(&mut self, _s: &AckSample) {}
    snap! {
        fn save_state;
        fn load_state;
        cwnd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_window_is_inert() {
        let mut f = FixedWindow::new(10_000);
        let s = AckSample {
            now: SimTime::ZERO,
            rtt: None,
            srtt: SimDuration::ZERO,
            min_rtt: SimDuration::ZERO,
            newly_acked: 1448,
            newly_lost: 0,
            delivered: 1448,
            prior_delivered: 0,
            prior_in_flight: 1448,
            in_flight: 0,
            delivery_rate: None,
            interval: SimDuration::ZERO,
            is_app_limited: false,
            in_recovery: false,
            mss: 1448,
            cumulative_ack: 1448,
        };
        f.on_ack(&s);
        f.on_enter_recovery(&s);
        f.on_rto(&s);
        assert_eq!(f.cwnd(), 10_000);
        assert_eq!(f.name(), "fixed");
        assert!(f.pacing_rate().is_none());
        assert!(f.uses_prr());
    }
}
