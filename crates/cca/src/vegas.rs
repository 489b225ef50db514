//! TCP Vegas (Brakmo, O'Malley, Peterson 1994) — the classic delay-based
//! CCA, cited in the paper's background (§2). Not part of the paper's
//! evaluation grid; provided as an extension so the harness can probe how
//! a delay-based algorithm fares in the CoreScale setting.
//!
//! Model follows Linux `tcp_vegas.c`:
//!
//! * Once per RTT, compare the *expected* rate `cwnd / base_rtt` with the
//!   *actual* rate `cwnd / observed_rtt`; the difference times `base_rtt`
//!   estimates the segments this flow keeps queued at the bottleneck.
//! * Fewer than `ALPHA` queued segments → grow cwnd by one segment per
//!   RTT; more than `BETA` → shrink by one; otherwise hold.
//! * Below ssthresh, slow-start at half pace (Linux doubles every *other*
//!   RTT for Vegas) with the same delay-based exit.
//! * On loss, fall back to Reno-style halving (Vegas is loss-tolerant only
//!   in the sense that it rarely causes losses itself).

use crate::util::{cap_add, RoundTracker};
use ccsim_sim::{snap, Bandwidth, SimDuration};
use ccsim_tcp::cc::{AckSample, CongestionControl, INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS};

/// Lower bound on estimated queued segments (grow below this).
pub const VEGAS_ALPHA: f64 = 2.0;
/// Upper bound on estimated queued segments (shrink above this).
pub const VEGAS_BETA: f64 = 4.0;
/// Slow-start queue bound (Linux `gamma`).
pub const VEGAS_GAMMA: f64 = 1.0;

/// TCP Vegas congestion control.
#[derive(Debug, Clone)]
pub struct Vegas {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Minimum RTT observed over the connection (the "base RTT").
    base_rtt: SimDuration,
    /// Minimum RTT observed during the current round.
    round_min_rtt: SimDuration,
    /// RTT samples seen this round.
    round_samples: u32,
    rounds: RoundTracker,
    /// Slow-start toggle: Vegas grows every other round in slow start.
    ss_grow_this_round: bool,
}

impl Vegas {
    /// A Vegas instance for the given MSS.
    pub fn new(mss: u32) -> Vegas {
        let mss = mss as u64;
        Vegas {
            mss,
            cwnd: INITIAL_CWND_SEGMENTS * mss,
            ssthresh: u64::MAX,
            base_rtt: SimDuration::MAX,
            round_min_rtt: SimDuration::MAX,
            round_samples: 0,
            rounds: RoundTracker::new(),
            ss_grow_this_round: true,
        }
    }

    fn min_cwnd(&self) -> u64 {
        MIN_CWND_SEGMENTS * self.mss
    }

    /// Estimated segments this flow holds in the bottleneck queue.
    fn queued_segments(&self, rtt: SimDuration) -> f64 {
        let base = self.base_rtt.as_secs_f64();
        let cur = rtt.as_secs_f64();
        if base <= 0.0 || cur <= 0.0 {
            return 0.0;
        }
        let cwnd_segs = self.cwnd as f64 / self.mss as f64;
        let expected = cwnd_segs / base; // segs/sec
        let actual = cwnd_segs / cur;
        (expected - actual) * base
    }

    /// End-of-round window adjustment.
    fn on_round_end(&mut self) {
        if self.round_samples == 0 || self.round_min_rtt == SimDuration::MAX {
            return;
        }
        let diff = self.queued_segments(self.round_min_rtt);
        if self.cwnd < self.ssthresh {
            // Slow start: exit on queue build-up, else double every other
            // round.
            if diff > VEGAS_GAMMA {
                self.ssthresh = self.cwnd;
                // Drain the excess we just measured.
                let excess = (diff.ceil() as u64) * self.mss;
                self.cwnd = self.cwnd.saturating_sub(excess).max(self.min_cwnd());
            } else if self.ss_grow_this_round {
                self.cwnd = cap_add(self.cwnd, self.cwnd);
            }
            self.ss_grow_this_round = !self.ss_grow_this_round;
        } else if diff < VEGAS_ALPHA {
            self.cwnd = cap_add(self.cwnd, self.mss);
        } else if diff > VEGAS_BETA {
            self.cwnd = (self.cwnd - self.mss).max(self.min_cwnd());
        }
        self.round_min_rtt = SimDuration::MAX;
        self.round_samples = 0;
    }
}

impl CongestionControl for Vegas {
    fn name(&self) -> &'static str {
        "vegas"
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
        if s.newly_acked == 0 {
            return;
        }
        if let Some(rtt) = s.rtt {
            self.base_rtt = self.base_rtt.min(rtt);
            self.round_min_rtt = self.round_min_rtt.min(rtt);
            self.round_samples += 1;
        }
        self.rounds.update(s);
        if self.rounds.is_round_start() && !s.in_recovery {
            self.on_round_end();
        }
    }

    fn on_enter_recovery(&mut self, _s: &AckSample) {
        // Loss fallback: Reno-style halving.
        self.ssthresh = (self.cwnd / 2).max(self.min_cwnd());
    }

    fn on_exit_recovery(&mut self, _s: &AckSample, after_rto: bool) {
        if !after_rto {
            self.cwnd = self.ssthresh.max(self.min_cwnd());
        }
    }

    fn on_rto(&mut self, _s: &AckSample) {
        self.ssthresh = (self.cwnd / 2).max(self.min_cwnd());
        self.cwnd = self.mss;
    }

    snap! {
        fn save_state;
        fn load_state;
        cwnd, ssthresh, base_rtt, round_min_rtt, round_samples, rounds, ss_grow_this_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_sim::SimTime;

    const MSS: u32 = 1000;

    fn ack(
        ms: u64,
        rtt_ms: u64,
        newly_acked: u64,
        delivered: u64,
        prior_delivered: u64,
    ) -> AckSample {
        AckSample {
            now: SimTime::from_millis(ms),
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            srtt: SimDuration::from_millis(rtt_ms),
            min_rtt: SimDuration::from_millis(rtt_ms),
            newly_acked,
            newly_lost: 0,
            delivered,
            prior_delivered,
            prior_in_flight: 0,
            in_flight: 0,
            delivery_rate: None,
            interval: SimDuration::ZERO,
            is_app_limited: false,
            in_recovery: false,
            mss: MSS,
            cumulative_ack: 0,
        }
    }

    /// Drive `n` rounds at a constant observed RTT.
    fn feed_rounds(v: &mut Vegas, n: u64, rtt_ms: u64) {
        let mut delivered = v.rounds.rounds() * 100_000;
        let mut t = 0;
        for _ in 0..n {
            let prior = delivered;
            delivered += 50_000;
            t += rtt_ms;
            v.on_ack(&ack(t, rtt_ms, 1000, delivered, prior)); // round start
            v.on_ack(&ack(t + 1, rtt_ms, 1000, delivered + 10, prior));
            delivered += 10;
        }
    }

    #[test]
    fn initial_state() {
        let v = Vegas::new(MSS);
        assert_eq!(v.cwnd(), 10_000);
        assert_eq!(v.name(), "vegas");
        assert!(v.pacing_rate().is_none());
        assert!(v.uses_prr());
    }

    #[test]
    fn holds_steady_inside_the_alpha_beta_band() {
        let mut v = Vegas::new(MSS);
        v.ssthresh = 5_000; // force congestion avoidance
        v.cwnd = 20_000;
        v.base_rtt = SimDuration::from_millis(20);
        // Observed RTT such that queued = cwnd_segs*(1 - base/cur)*...:
        // choose cur so diff ≈ 3 segments (inside [2, 4]).
        // diff = cwnd_segs * (1 - base/cur) ... solve: 20 segs,
        // diff=3 => base/cur = 17/20 => cur = 20ms * 20/17 ≈ 23.5ms.
        feed_rounds(&mut v, 5, 24);
        assert_eq!(v.cwnd(), 20_000, "cwnd should hold in-band");
    }

    #[test]
    fn grows_when_queue_is_short() {
        let mut v = Vegas::new(MSS);
        v.ssthresh = 5_000;
        v.cwnd = 20_000;
        v.base_rtt = SimDuration::from_millis(20);
        // Observed ≈ base: diff ≈ 0 < alpha => +1 MSS per round.
        feed_rounds(&mut v, 4, 20);
        assert!(v.cwnd() > 20_000);
        assert!(v.cwnd() <= 20_000 + 4 * MSS as u64);
    }

    #[test]
    fn shrinks_when_queue_is_long() {
        let mut v = Vegas::new(MSS);
        v.ssthresh = 5_000;
        v.cwnd = 20_000;
        v.base_rtt = SimDuration::from_millis(20);
        // Much larger observed RTT: diff = 20*(1-20/40) = 10 > beta.
        feed_rounds(&mut v, 3, 40);
        assert!(v.cwnd() < 20_000, "cwnd = {}", v.cwnd());
    }

    #[test]
    fn slow_start_exits_on_delay() {
        let mut v = Vegas::new(MSS);
        v.base_rtt = SimDuration::from_millis(20);
        // Big queue signal while in slow start => ssthresh set, growth ends.
        feed_rounds(&mut v, 4, 40);
        assert_ne!(v.ssthresh(), u64::MAX);
        assert!(v.cwnd() <= 10_000);
    }

    #[test]
    fn loss_fallback_halves() {
        let mut v = Vegas::new(MSS);
        v.cwnd = 30_000;
        let s = ack(0, 20, 0, 0, 0);
        v.on_enter_recovery(&s);
        assert_eq!(v.ssthresh(), 15_000);
        v.on_exit_recovery(&s, false);
        assert_eq!(v.cwnd(), 15_000);
        v.on_rto(&s);
        assert_eq!(v.cwnd(), MSS as u64);
    }
}
