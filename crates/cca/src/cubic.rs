//! CUBIC (RFC 8312), including fast convergence, the TCP-friendly region,
//! and HyStart slow-start exit — Linux's default CCA and the paper's
//! second loss-based algorithm.
//!
//! Window arithmetic follows the Linux `bictcp` structure, done in `f64`
//! segments rather than scaled fixed point: the cubic function
//! `W(t) = C·(t−K)³ + W_max` gives a per-ACK growth divisor `cnt`
//! ("increase cwnd by one segment per `cnt` ACKed segments"), and a byte
//! accumulator applies it.

use crate::util::{cap_add, RoundTracker};
use ccsim_sim::{snap, Bandwidth, SimDuration, SimTime};
use ccsim_tcp::cc::{AckSample, CongestionControl, INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS};

/// RFC 8312 C constant (window growth scaling), in segments/s³.
pub const CUBIC_C: f64 = 0.4;
/// RFC 8312 multiplicative-decrease factor β.
pub const CUBIC_BETA: f64 = 0.7;

/// HyStart: minimum window (segments) before exit heuristics engage.
const HYSTART_LOW_WINDOW: f64 = 16.0;
/// HyStart ACK-train spacing threshold.
const HYSTART_ACK_DELTA: SimDuration = SimDuration::from_millis(2);
/// HyStart delay-increase thresholds.
const HYSTART_DELAY_MIN: SimDuration = SimDuration::from_millis(4);
const HYSTART_DELAY_MAX: SimDuration = SimDuration::from_millis(16);
/// HyStart: RTT samples per round used for the delay heuristic.
const HYSTART_MIN_SAMPLES: u32 = 8;

#[derive(Debug, Clone)]
struct HyStart {
    enabled: bool,
    /// Exit already triggered (ssthresh set).
    found: bool,
    round_start_time: SimTime,
    last_ack_time: SimTime,
    curr_round_min_rtt: SimDuration,
    rtt_samples_this_round: u32,
}

impl HyStart {
    fn new(enabled: bool) -> Self {
        HyStart {
            enabled,
            found: false,
            round_start_time: SimTime::ZERO,
            last_ack_time: SimTime::ZERO,
            curr_round_min_rtt: SimDuration::MAX,
            rtt_samples_this_round: 0,
        }
    }

    fn reset_round(&mut self, now: SimTime) {
        self.round_start_time = now;
        self.last_ack_time = now;
        self.curr_round_min_rtt = SimDuration::MAX;
        self.rtt_samples_this_round = 0;
    }

    snap! {
        /// Serialize mutable state (`enabled` is configuration).
        fn save_state;
        /// Overlay checkpointed state.
        fn load_state;
        found, round_start_time, last_ack_time, curr_round_min_rtt, rtt_samples_this_round,
    }
}

/// CUBIC congestion control.
#[derive(Debug, Clone)]
pub struct Cubic {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Fast convergence (RFC 8312 §4.6), on by default as in Linux.
    fast_convergence: bool,
    /// Last W_max, in segments.
    w_max: f64,
    /// Time to reach W_max from the epoch start, in seconds.
    k: f64,
    epoch_start: Option<SimTime>,
    /// Window at epoch start (plateau origin), segments.
    origin_point: f64,
    /// TCP-friendly (AIMD-equivalent) window estimate, segments.
    tcp_cwnd: f64,
    /// Byte accumulator for congestion-avoidance growth.
    ai_bytes: u64,
    rounds: RoundTracker,
    hystart: HyStart,
}

impl Cubic {
    /// A CUBIC instance with Linux defaults (fast convergence and HyStart
    /// enabled).
    pub fn new(mss: u32) -> Cubic {
        Cubic::with_options(mss, true, true)
    }

    /// A CUBIC instance with explicit feature switches (for ablations).
    pub fn with_options(mss: u32, fast_convergence: bool, hystart: bool) -> Cubic {
        let mss = mss as u64;
        Cubic {
            mss,
            cwnd: INITIAL_CWND_SEGMENTS * mss,
            ssthresh: u64::MAX,
            fast_convergence,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            origin_point: 0.0,
            tcp_cwnd: 0.0,
            ai_bytes: 0,
            rounds: RoundTracker::new(),
            hystart: HyStart::new(hystart),
        }
    }

    fn segs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mss as f64
    }

    fn min_cwnd(&self) -> u64 {
        MIN_CWND_SEGMENTS * self.mss
    }

    /// Multiplicative decrease + fast convergence (shared by loss and RTO).
    fn on_loss_event(&mut self) {
        let cwnd_segs = self.segs(self.cwnd);
        self.epoch_start = None;
        if self.fast_convergence && cwnd_segs < self.w_max {
            // Release bandwidth early so new flows can take it.
            self.w_max = cwnd_segs * (2.0 - CUBIC_BETA) / 2.0;
        } else {
            self.w_max = cwnd_segs;
        }
        self.ssthresh = ((self.cwnd as f64 * CUBIC_BETA) as u64).max(self.min_cwnd());
    }

    /// Compute the CA growth divisor `cnt` (segments ACKed per +1 segment).
    fn cubic_cnt(&mut self, now: SimTime, min_rtt: SimDuration, newly_acked: u64) -> f64 {
        let cwnd_segs = self.segs(self.cwnd);
        let epoch = match self.epoch_start {
            Some(e) => e,
            None => {
                // New epoch: anchor the cubic curve.
                self.epoch_start = Some(now);
                if cwnd_segs < self.w_max {
                    self.k = ((self.w_max - cwnd_segs) / CUBIC_C).cbrt();
                    self.origin_point = self.w_max;
                } else {
                    self.k = 0.0;
                    self.origin_point = cwnd_segs;
                }
                self.tcp_cwnd = cwnd_segs;
                now
            }
        };
        // Look one RTT ahead, as Linux does.
        let t = now.saturating_since(epoch).as_secs_f64() + min_rtt.as_secs_f64();
        let target = self.origin_point + CUBIC_C * (t - self.k).powi(3);

        let mut cnt = if target > cwnd_segs {
            cwnd_segs / (target - cwnd_segs)
        } else {
            // At or above target: grow very slowly.
            100.0 * cwnd_segs
        };

        // TCP-friendly region (RFC 8312 §4.2): estimate what AIMD with
        // β=0.7 would achieve and never grow slower than that.
        // W_est gains 3(1−β)/(1+β) segments per cwnd of ACKed bytes.
        let aimd_gain = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA);
        self.tcp_cwnd += aimd_gain * self.segs(newly_acked) / cwnd_segs.max(1.0);
        if self.tcp_cwnd > cwnd_segs {
            let max_cnt = cwnd_segs / (self.tcp_cwnd - cwnd_segs);
            cnt = cnt.min(max_cnt);
        }
        // Linux floor: at most one segment per two ACKed segments in CA.
        cnt.max(2.0)
    }

    fn hystart_update(&mut self, s: &AckSample) {
        if !self.hystart.enabled || self.hystart.found {
            return;
        }
        if self.segs(self.cwnd) < HYSTART_LOW_WINDOW {
            return;
        }
        let min_rtt = s.min_rtt;
        if min_rtt == SimDuration::MAX {
            return;
        }
        if self.rounds.is_round_start() {
            self.hystart.reset_round(s.now);
        }
        // ACK-train heuristic: a train of closely spaced ACKs spanning more
        // than min_rtt/2 means the pipe is full.
        if s.now.saturating_since(self.hystart.last_ack_time) <= HYSTART_ACK_DELTA {
            self.hystart.last_ack_time = s.now;
            let train = s.now.saturating_since(self.hystart.round_start_time);
            if train > min_rtt / 2 {
                self.hystart.found = true;
            }
        }
        // Delay-increase heuristic: current round's early RTT samples
        // exceeding min_rtt by eta means queue build-up.
        if let Some(rtt) = s.rtt {
            if self.hystart.rtt_samples_this_round < HYSTART_MIN_SAMPLES {
                self.hystart.rtt_samples_this_round += 1;
                self.hystart.curr_round_min_rtt = self.hystart.curr_round_min_rtt.min(rtt);
                if self.hystart.rtt_samples_this_round == HYSTART_MIN_SAMPLES {
                    let eta = (min_rtt / 8).max(HYSTART_DELAY_MIN).min(HYSTART_DELAY_MAX);
                    if self.hystart.curr_round_min_rtt >= min_rtt.saturating_add(eta) {
                        self.hystart.found = true;
                    }
                }
            }
        }
        if self.hystart.found {
            // Exit slow start at the current window.
            self.ssthresh = self.cwnd;
        }
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
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
        self.rounds.update(s);
        if s.in_recovery {
            return; // PRR owns the window
        }
        if self.cwnd < self.ssthresh {
            self.hystart_update(s);
            let room = self.ssthresh.saturating_sub(self.cwnd);
            self.cwnd = cap_add(self.cwnd, s.newly_acked.min(room));
            if s.newly_acked <= room {
                return;
            }
            // Fall through with the leftover into congestion avoidance.
        }
        let cnt = self.cubic_cnt(s.now, s.min_rtt, s.newly_acked);
        let threshold = (cnt * self.mss as f64) as u64;
        self.ai_bytes += s.newly_acked;
        while self.ai_bytes >= threshold.max(1) {
            self.ai_bytes -= threshold.max(1);
            self.cwnd = cap_add(self.cwnd, self.mss);
        }
    }

    fn on_enter_recovery(&mut self, _s: &AckSample) {
        self.on_loss_event();
        self.ai_bytes = 0;
    }

    fn on_exit_recovery(&mut self, _s: &AckSample, after_rto: bool) {
        if !after_rto {
            self.cwnd = self.ssthresh.max(self.min_cwnd());
        }
    }

    fn on_rto(&mut self, _s: &AckSample) {
        self.on_loss_event();
        self.cwnd = self.mss;
        self.ai_bytes = 0;
    }

    fn on_ecn(&mut self, _s: &AckSample) {
        // RFC 3168 response: the CUBIC multiplicative decrease applied
        // immediately (no loss episode to finish it at exit-recovery).
        self.on_loss_event();
        self.cwnd = self.ssthresh;
        self.ai_bytes = 0;
    }

    snap! {
        fn save_state;
        fn load_state;
        cwnd, ssthresh, w_max, k, epoch_start, origin_point, tcp_cwnd, ai_bytes, rounds,
        in hystart,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1000;

    fn ack_at(ms: u64, newly_acked: u64, in_recovery: bool, min_rtt_ms: u64) -> AckSample {
        AckSample {
            now: SimTime::from_millis(ms),
            rtt: Some(SimDuration::from_millis(min_rtt_ms)),
            srtt: SimDuration::from_millis(min_rtt_ms),
            min_rtt: SimDuration::from_millis(min_rtt_ms),
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

    /// Drive into congestion avoidance with a known window.
    fn in_ca(cwnd_segs: u64) -> Cubic {
        let mut c = Cubic::with_options(MSS, true, false);
        c.cwnd = cwnd_segs * MSS as u64;
        c.on_enter_recovery(&ack_at(0, 0, true, 20));
        c.on_exit_recovery(&ack_at(0, 0, false, 20), false);
        c
    }

    #[test]
    fn initial_state() {
        let c = Cubic::new(MSS);
        assert_eq!(c.cwnd(), 10_000);
        assert_eq!(c.ssthresh(), u64::MAX);
        assert!(c.pacing_rate().is_none());
        assert_eq!(c.name(), "cubic");
    }

    #[test]
    fn loss_reduces_by_beta() {
        let mut c = Cubic::with_options(MSS, false, false);
        c.cwnd = 100_000;
        c.on_enter_recovery(&ack_at(0, 0, true, 20));
        assert_eq!(c.ssthresh(), 70_000);
        c.on_exit_recovery(&ack_at(0, 0, false, 20), false);
        assert_eq!(c.cwnd(), 70_000);
    }

    #[test]
    fn fast_convergence_shrinks_w_max_on_consecutive_losses() {
        let mut c = Cubic::with_options(MSS, true, false);
        c.cwnd = 100_000;
        c.on_enter_recovery(&ack_at(0, 0, true, 20));
        assert!((c.w_max - 100.0).abs() < 1e-9);
        c.on_exit_recovery(&ack_at(0, 0, false, 20), false);
        // Second loss at a smaller window than w_max: w_max shrinks below
        // the current window (release bandwidth for newcomers).
        c.on_enter_recovery(&ack_at(1000, 0, true, 20));
        assert!((c.w_max - 70.0 * (2.0 - CUBIC_BETA) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn concave_growth_approaches_w_max() {
        // Large-window regime so the cubic curve (not the TCP-friendly
        // AIMD estimate) governs. Post-loss window 490 segs, W_max 1000:
        // K = cbrt((1000-490)/0.4) ≈ 10.9 s; after 5 s of full-window ACKs
        // every 20 ms the curve sits near 1000 − 0.4·(5−10.9)³ ≈ 920 segs.
        let mut c = in_ca(700); // exit leaves cwnd at 0.7·700 = 490 segs
        c.w_max = 1000.0;
        let mut now = 0u64;
        for _ in 0..250 {
            now += 20;
            c.on_ack(&ack_at(now, c.cwnd(), false, 20));
        }
        assert!(
            c.cwnd() > 800_000,
            "cwnd={} should approach w_max",
            c.cwnd()
        );
        assert!(c.cwnd() < 1_100_000, "cwnd={} overshot w_max", c.cwnd());
    }

    #[test]
    fn plateau_region_grows_slowly() {
        let mut c = in_ca(100);
        c.w_max = 100.0;
        let before = c.cwnd();
        // A couple of windows right at the plateau: growth ≈ stalled
        // (cnt is huge near the inflection point).
        c.on_ack(&ack_at(20, c.cwnd(), false, 20));
        c.on_ack(&ack_at(40, c.cwnd(), false, 20));
        let grown = c.cwnd() - before;
        assert!(grown <= 2 * MSS as u64, "grew {grown} bytes at plateau");
    }

    #[test]
    fn tcp_friendly_region_keeps_up_with_reno_in_small_windows() {
        // Small window, short RTT: the cubic curve alone would be slower
        // than AIMD; the TCP-friendly region must kick in. Expect growth
        // of at least ~0.3 segments per RTT (AIMD with beta=.7 equivalent).
        let mut c = in_ca(10);
        let start = c.cwnd();
        let mut now = 0;
        for _ in 0..50 {
            now += 10;
            c.on_ack(&ack_at(now, c.cwnd(), false, 10));
        }
        let grown_segs = (c.cwnd() - start) / MSS as u64;
        assert!(grown_segs >= 10, "grew only {grown_segs} segs in 50 RTTs");
    }

    #[test]
    fn rto_resets_to_one_segment() {
        let mut c = Cubic::new(MSS);
        c.cwnd = 50_000;
        c.on_rto(&ack_at(0, 0, false, 20));
        assert_eq!(c.cwnd(), 1_000);
        assert_eq!(c.ssthresh(), 35_000);
    }

    #[test]
    fn hystart_delay_exits_slow_start() {
        let mut c = Cubic::with_options(MSS, true, true);
        c.cwnd = 20_000; // past the 16-segment HyStart floor
                         // Deliver 8 RTT samples in one round, all 30 ms against a 20 ms
                         // min_rtt — well past eta (max(20/8,4)=4 ms).
        for i in 0..8 {
            let mut s = ack_at(i, 500, false, 20);
            s.rtt = Some(SimDuration::from_millis(30));
            s.delivered = (i + 1) * 500;
            s.prior_delivered = 0; // same round
            c.on_ack(&s);
        }
        assert_ne!(c.ssthresh(), u64::MAX, "HyStart should have set ssthresh");
        assert!(c.ssthresh() <= c.cwnd());
    }

    #[test]
    fn recovery_acks_do_not_grow_window() {
        let mut c = in_ca(50);
        let w = c.cwnd();
        c.on_ack(&ack_at(100, 10_000, true, 20));
        assert_eq!(c.cwnd(), w);
    }
}
