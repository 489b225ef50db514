//! TCP NewReno (RFC 5681 / RFC 6582) with appropriate byte counting
//! (RFC 3465), the classic loss-based AIMD the Mathis model describes.
//!
//! * Slow start: `cwnd += bytes_acked` per ACK up to `ssthresh`.
//! * Congestion avoidance: +1 MSS per cwnd of ACKed bytes.
//! * Loss: `ssthresh = cwnd / 2` (the "halving" of the paper's
//!   CWND-halving rate); the endpoint's PRR drains cwnd to `ssthresh`
//!   during recovery.
//! * RTO: `ssthresh = cwnd / 2`, restart from 1 MSS.

use crate::util::cap_add;
use ccsim_sim::{snap, Bandwidth};
use ccsim_tcp::cc::{AckSample, CongestionControl, INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS};

/// NewReno congestion control.
#[derive(Debug, Clone)]
pub struct NewReno {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Bytes ACKed since the last congestion-avoidance increment.
    bytes_acked: u64,
}

impl NewReno {
    /// A NewReno instance for the given MSS with the standard initial
    /// window (10 segments, RFC 6928).
    pub fn new(mss: u32) -> NewReno {
        let mss = mss as u64;
        NewReno {
            mss,
            cwnd: INITIAL_CWND_SEGMENTS * mss,
            ssthresh: u64::MAX,
            bytes_acked: 0,
        }
    }

    fn min_cwnd(&self) -> u64 {
        MIN_CWND_SEGMENTS * self.mss
    }

    fn halve(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(self.min_cwnd());
    }
}

impl CongestionControl for NewReno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn pacing_rate(&self) -> Option<Bandwidth> {
        None
    }

    fn phase(&self) -> &'static str {
        if self.cwnd < self.ssthresh {
            "slowstart"
        } else {
            "avoidance"
        }
    }

    fn on_ack(&mut self, s: &AckSample) {
        if s.in_recovery || s.newly_acked == 0 {
            return; // PRR owns the window during recovery
        }
        if self.cwnd < self.ssthresh {
            // Slow start with appropriate byte counting (the delayed-ACK-
            // compensating behavior Linux uses), capped at ssthresh.
            let room = self.ssthresh - self.cwnd;
            self.cwnd = cap_add(self.cwnd, s.newly_acked.min(room));
            if s.newly_acked > room {
                // Leftover ACKed bytes continue in congestion avoidance.
                self.bytes_acked += s.newly_acked - room;
            }
        } else {
            // Congestion avoidance: +1 MSS per cwnd bytes ACKed.
            self.bytes_acked += s.newly_acked;
            while self.bytes_acked >= self.cwnd {
                self.bytes_acked -= self.cwnd;
                self.cwnd = cap_add(self.cwnd, self.mss);
            }
        }
    }

    fn on_enter_recovery(&mut self, _s: &AckSample) {
        self.halve();
        self.bytes_acked = 0;
    }

    fn on_exit_recovery(&mut self, _s: &AckSample, after_rto: bool) {
        if !after_rto {
            // Complete the PRR reduction: cwnd lands exactly on ssthresh.
            self.cwnd = self.ssthresh.max(self.min_cwnd());
        }
    }

    fn on_rto(&mut self, _s: &AckSample) {
        self.halve();
        self.cwnd = self.mss;
        self.bytes_acked = 0;
    }

    fn on_ecn(&mut self, _s: &AckSample) {
        // RFC 3168: respond to the echo as to a loss, but nothing was
        // dropped — no recovery episode, the reduction lands immediately.
        self.halve();
        self.cwnd = self.ssthresh;
        self.bytes_acked = 0;
    }

    snap! {
        fn save_state;
        fn load_state;
        cwnd, ssthresh, bytes_acked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_sim::{SimDuration, SimTime};

    const MSS: u32 = 1000;

    fn ack(newly_acked: u64, in_recovery: bool) -> AckSample {
        AckSample {
            now: SimTime::ZERO,
            rtt: None,
            srtt: SimDuration::from_millis(20),
            min_rtt: SimDuration::from_millis(20),
            newly_acked,
            newly_lost: 0,
            delivered: 0,
            prior_delivered: 0,
            prior_in_flight: 0,
            in_flight: 0,
            delivery_rate: None,
            interval: SimDuration::ZERO,
            is_app_limited: false,
            in_recovery,
            mss: MSS,
            cumulative_ack: 0,
        }
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let r = NewReno::new(MSS);
        assert_eq!(r.cwnd(), 10_000);
        assert_eq!(r.ssthresh(), u64::MAX);
        assert!(r.pacing_rate().is_none());
        assert!(r.uses_prr());
        assert_eq!(r.name(), "reno");
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = NewReno::new(MSS);
        // One "RTT" worth of ACKs: every byte of the window ACKed.
        r.on_ack(&ack(10_000, false));
        assert_eq!(r.cwnd(), 20_000);
        r.on_ack(&ack(20_000, false));
        assert_eq!(r.cwnd(), 40_000);
    }

    #[test]
    fn congestion_avoidance_adds_one_mss_per_window() {
        let mut r = NewReno::new(MSS);
        // Force CA by setting a low ssthresh via a loss.
        r.on_enter_recovery(&ack(0, true));
        r.on_exit_recovery(&ack(0, false), false);
        let w0 = r.cwnd();
        assert_eq!(w0, 5_000); // halved from 10k
                               // ACK one full window: +1 MSS.
        r.on_ack(&ack(w0, false));
        assert_eq!(r.cwnd(), w0 + MSS as u64);
        // Partial window: no growth yet.
        let w1 = r.cwnd();
        r.on_ack(&ack(100, false));
        assert_eq!(r.cwnd(), w1);
    }

    #[test]
    fn recovery_halves_via_ssthresh() {
        let mut r = NewReno::new(MSS);
        r.on_enter_recovery(&ack(0, true));
        assert_eq!(r.ssthresh(), 5_000);
        // During recovery ACKs do not grow cwnd.
        r.on_ack(&ack(5_000, true));
        assert_eq!(r.cwnd(), 10_000);
        r.on_exit_recovery(&ack(0, false), false);
        assert_eq!(r.cwnd(), 5_000);
    }

    #[test]
    fn ssthresh_floor_is_two_segments() {
        let mut r = NewReno::new(MSS);
        for _ in 0..10 {
            r.on_enter_recovery(&ack(0, true));
            r.on_exit_recovery(&ack(0, false), false);
        }
        assert_eq!(r.cwnd(), 2_000);
        assert_eq!(r.ssthresh(), 2_000);
    }

    #[test]
    fn rto_collapses_to_one_segment_and_slow_starts() {
        let mut r = NewReno::new(MSS);
        r.on_rto(&ack(0, false));
        assert_eq!(r.cwnd(), 1_000);
        assert_eq!(r.ssthresh(), 5_000);
        // Slow start back up to ssthresh.
        r.on_ack(&ack(1_000, false));
        assert_eq!(r.cwnd(), 2_000);
        r.on_ack(&ack(2_000, false));
        assert_eq!(r.cwnd(), 4_000);
        // Crossing ssthresh: growth caps at ssthresh, leftover counts
        // toward congestion avoidance.
        r.on_ack(&ack(4_000, false));
        assert_eq!(r.cwnd(), 5_000);
        // After-RTO exit does not reset cwnd.
        r.on_exit_recovery(&ack(0, false), true);
        assert_eq!(r.cwnd(), 5_000);
    }

    #[test]
    fn zero_byte_acks_are_ignored() {
        let mut r = NewReno::new(MSS);
        r.on_ack(&ack(0, false));
        assert_eq!(r.cwnd(), 10_000);
    }
}
