//! RTT estimation and retransmission timeout per RFC 6298.
//!
//! Classic Jacobson/Karels smoothing: `SRTT`, `RTTVAR`, and
//! `RTO = SRTT + 4·RTTVAR`, clamped to `[rto_min, rto_max]` with binary
//! exponential backoff on timeout. Linux defaults are used for the clamps
//! (200 ms floor, 120 s ceiling).
//!
//! The estimator also tracks the connection-lifetime minimum RTT, which the
//! endpoint passes to the CCA (BBR keeps its own *windowed* min on top).

use ccsim_sim::{snap, SimDuration};

/// Linux's RTO floor (`TCP_RTO_MIN` = 200 ms).
pub const DEFAULT_RTO_MIN: SimDuration = SimDuration::from_millis(200);
/// Linux's RTO ceiling (`TCP_RTO_MAX` = 120 s).
pub const DEFAULT_RTO_MAX: SimDuration = SimDuration::from_secs(120);
/// RTO before any RTT sample exists (RFC 6298 §2.1: 1 second).
pub const DEFAULT_INITIAL_RTO: SimDuration = SimDuration::from_secs(1);
/// Maximum exponential-backoff doublings.
const MAX_BACKOFF_SHIFT: u32 = 16;

/// RFC 6298 RTT estimator + RTO calculator.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: SimDuration,
    latest: Option<SimDuration>,
    rto_min: SimDuration,
    rto_max: SimDuration,
    backoff_shift: u32,
    samples: u64,
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new(DEFAULT_RTO_MIN, DEFAULT_RTO_MAX)
    }
}

impl RttEstimator {
    /// Estimator with custom RTO clamps.
    pub fn new(rto_min: SimDuration, rto_max: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: SimDuration::MAX,
            latest: None,
            rto_min,
            rto_max,
            backoff_shift: 0,
            samples: 0,
        }
    }

    snap! {
        /// Serialize mutable estimator state for a checkpoint (the RTO clamps
        /// are configuration).
        pub fn save_state;
        /// Overlay checkpointed state.
        pub fn load_state;
        srtt, rttvar, min_rtt, latest, backoff_shift, samples,
    }

    /// Incorporate a new RTT measurement (already Karn-filtered by the
    /// caller). Resets any timeout backoff, per RFC 6298 §5.7.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.samples += 1;
        self.latest = Some(rtt);
        if rtt < self.min_rtt {
            self.min_rtt = rtt;
        }
        match self.srtt {
            None => {
                // First measurement: SRTT = R, RTTVAR = R/2.
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3 + err) / 4;
                // SRTT = 7/8·SRTT + 1/8·R
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        self.backoff_shift = 0;
    }

    /// Smoothed RTT (zero before the first sample).
    pub fn srtt(&self) -> SimDuration {
        self.srtt.unwrap_or(SimDuration::ZERO)
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// Most recent raw sample, if any.
    pub fn latest(&self) -> Option<SimDuration> {
        self.latest
    }

    /// Connection-lifetime minimum RTT ([`SimDuration::MAX`] before the
    /// first sample).
    pub fn min_rtt(&self) -> SimDuration {
        self.min_rtt
    }

    /// Number of samples incorporated.
    pub fn sample_count(&self) -> u64 {
        self.samples
    }

    /// Current retransmission timeout, including any backoff.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => DEFAULT_INITIAL_RTO,
            Some(srtt) => {
                // RTO = SRTT + max(G, 4·RTTVAR); clock granularity G is
                // 1 ns here, effectively zero.
                srtt.saturating_add(self.rttvar * 4)
            }
        };
        let clamped = base.max(self.rto_min).min(self.rto_max);
        let backed_off = SimDuration::from_nanos(
            clamped
                .as_nanos()
                .saturating_mul(1u64 << self.backoff_shift),
        );
        backed_off.min(self.rto_max)
    }

    /// Double the RTO after a timeout (RFC 6298 §5.5).
    pub fn backoff(&mut self) {
        if self.backoff_shift < MAX_BACKOFF_SHIFT {
            self.backoff_shift += 1;
        }
    }

    /// Current backoff exponent (0 when not backed off).
    pub fn backoff_shift(&self) -> u32 {
        self.backoff_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1;
    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v * MS)
    }

    #[test]
    fn initial_rto_is_one_second() {
        let e = RttEstimator::default();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        assert_eq!(e.srtt(), SimDuration::ZERO);
        assert_eq!(e.min_rtt(), SimDuration::MAX);
    }

    #[test]
    fn first_sample_initializes_per_rfc() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        assert_eq!(e.srtt(), ms(100));
        assert_eq!(e.rttvar(), ms(50));
        // RTO = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), ms(300));
    }

    #[test]
    fn smoothing_converges_on_constant_rtt() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.on_sample(ms(80));
        }
        assert_eq!(e.srtt(), ms(80));
        // Variance decays toward zero; RTO bottoms out at the floor.
        assert!(e.rttvar() < ms(1));
        assert_eq!(e.rto(), DEFAULT_RTO_MIN);
    }

    #[test]
    fn rto_floor_applies() {
        let mut e = RttEstimator::default();
        for _ in 0..50 {
            e.on_sample(ms(10));
        }
        assert_eq!(e.rto(), DEFAULT_RTO_MIN);
    }

    #[test]
    fn min_rtt_tracks_minimum() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(50));
        e.on_sample(ms(20));
        e.on_sample(ms(90));
        assert_eq!(e.min_rtt(), ms(20));
        assert_eq!(e.latest(), Some(ms(90)));
        assert_eq!(e.sample_count(), 3);
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100)); // RTO 300 ms
        e.backoff();
        assert_eq!(e.rto(), ms(600));
        e.backoff();
        assert_eq!(e.rto(), ms(1200));
        e.on_sample(ms(100));
        assert_eq!(e.backoff_shift(), 0);
        // Second identical sample decays RTTVAR: 3/4*50 = 37.5 ms, so
        // RTO = 100 + 4*37.5 = 250 ms.
        assert_eq!(e.rto(), ms(250));
    }

    #[test]
    fn backoff_respects_ceiling() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        for _ in 0..40 {
            e.backoff();
        }
        assert_eq!(e.rto(), DEFAULT_RTO_MAX);
    }

    #[test]
    fn variance_reacts_to_jitter() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        e.on_sample(ms(200));
        // RTTVAR = 3/4*50 + 1/4*|100-200| = 37.5 + 25 = 62.5 ms
        assert_eq!(e.rttvar(), SimDuration::from_micros(62_500));
        // SRTT = 7/8*100 + 1/8*200 = 112.5 ms
        assert_eq!(e.srtt(), SimDuration::from_micros(112_500));
    }
}
