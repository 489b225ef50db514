//! BBRv1 (Cardwell et al., "BBR: Congestion-Based Congestion Control",
//! ACM Queue 2016), modeled on Linux `tcp_bbr.c` as shipped in the kernels
//! the paper measured.
//!
//! The full v1 state machine is implemented:
//!
//! * **Startup** — pacing gain 2/ln2 ≈ 2.885 until the bandwidth estimate
//!   plateaus for three rounds ("full pipe").
//! * **Drain** — inverse gain until in-flight falls to the estimated BDP.
//! * **ProbeBW** — the 8-phase gain cycle `[1.25, 0.75, 1×6]`, advancing
//!   per min_rtt, with the Linux phase-skip conditions.
//! * **ProbeRTT** — every 10 s the min-RTT filter expires; the flow cuts
//!   its window to 4 packets for max(200 ms, 1 round).
//! * **Long-term (policer) sampling** — detects sustained high-loss
//!   intervals with consistent delivery rate and pins pacing to it.
//! * **Recovery modulation** — one round of packet conservation on entering
//!   recovery, window restore on exit.
//!
//! Bandwidth is tracked as a windowed max over 10 packet-timed rounds of the
//! delivery-rate samples produced by `ccsim-tcp`'s rate estimator; min RTT
//! as a 10 s windowed min. BBR ignores loss as a congestion signal — the
//! property behind the paper's Findings 6 and 7.

use crate::util::{RoundTracker, WindowedMax};
use ccsim_sim::{snap, Bandwidth, SimDuration, SimTime, SnapError};
use ccsim_tcp::cc::{AckSample, CongestionControl, INITIAL_CWND_SEGMENTS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Startup/Drain pacing gain: 2/ln(2).
pub const HIGH_GAIN: f64 = 2.885;
/// ProbeBW pacing-gain cycle.
pub const PACING_GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// cwnd gain outside Startup.
pub const CWND_GAIN: f64 = 2.0;
/// Bandwidth-filter window, in packet-timed rounds.
pub const BW_FILTER_ROUNDS: u64 = 10;
/// Min-RTT filter window.
pub const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Time spent at minimal cwnd in ProbeRTT.
pub const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
/// Floor on the window: 4 packets.
pub const MIN_CWND_SEGMENTS: u64 = 4;
/// "Full pipe": bandwidth must grow 25% per round, else count a plateau.
const FULL_BW_THRESH: f64 = 1.25;
const FULL_BW_CNT: u32 = 3;
/// Pacing margin: pace at 99% of the computed rate.
const PACING_MARGIN: f64 = 0.99;

// Long-term (policer) sampling parameters, from tcp_bbr.c.
const LT_INTVL_MIN_RTTS: u64 = 4;
/// Loss-rate threshold for a policed interval: 50/256 ≈ 20%.
const LT_LOSS_THRESH_NUM: u64 = 50;
const LT_LOSS_THRESH_DEN: u64 = 256;
/// Two consecutive intervals must agree within 1/8 (or 4 KB/s).
const LT_BW_RATIO: f64 = 0.125;
const LT_BW_DIFF_BYTES_PER_SEC: f64 = 4000.0;
/// Stop using lt_bw after this many rounds and re-probe.
const LT_BW_MAX_RTTS: u64 = 48;

/// BBR operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exponential bandwidth probing.
    Startup,
    /// Draining the queue Startup built.
    Drain,
    /// Steady-state bandwidth cycling.
    ProbeBw,
    /// Periodic min-RTT re-measurement at minimal window.
    ProbeRtt,
}

snap!(Mode as "BBR mode" [Startup, Drain, ProbeBw, ProbeRtt]);

/// BBRv1 congestion control.
pub struct Bbr {
    mss: u64,
    cwnd: u64,
    pacing: Bandwidth,
    mode: Mode,

    rounds: RoundTracker,
    bw_filter: WindowedMax,

    min_rtt: SimDuration,
    min_rtt_stamp: SimTime,

    // Startup plateau detection.
    full_bw: u64,
    full_bw_cnt: u32,
    full_bw_reached: bool,

    // ProbeBW cycle.
    cycle_idx: usize,
    cycle_stamp: SimTime,

    // ProbeRTT.
    probe_rtt_done_stamp: Option<SimTime>,
    probe_rtt_round_done: bool,

    // Recovery modulation.
    prior_cwnd: u64,
    packet_conservation: bool,
    conservation_entry_round: u64,
    in_recovery: bool,

    // Long-term sampling.
    total_lost: u64,
    lt_is_sampling: bool,
    lt_rtt_cnt: u64,
    lt_use_bw: bool,
    lt_bw: u64, // bytes/sec
    lt_last_delivered: u64,
    lt_last_lost: u64,
    lt_last_stamp: SimTime,

    rng: SmallRng,
}

impl Bbr {
    /// A BBR instance. `seed` drives the randomized ProbeBW phase entry
    /// (Linux uses `prandom`); derive it from the deterministic per-flow
    /// RNG factory.
    pub fn new(mss: u32, seed: u64) -> Bbr {
        let mss = mss as u64;
        // Initial pacing estimate: initial window over 1 ms (Linux uses
        // init cwnd / max(srtt, 1ms) * high_gain before any RTT sample).
        let init_bw =
            Bandwidth::from_bytes_per(INITIAL_CWND_SEGMENTS * mss, SimDuration::from_millis(1))
                .expect("non-zero duration");
        Bbr {
            mss,
            cwnd: INITIAL_CWND_SEGMENTS * mss,
            pacing: init_bw.mul_f64(HIGH_GAIN * PACING_MARGIN),
            mode: Mode::Startup,
            rounds: RoundTracker::new(),
            bw_filter: WindowedMax::new(),
            min_rtt: SimDuration::MAX,
            min_rtt_stamp: SimTime::ZERO,
            full_bw: 0,
            full_bw_cnt: 0,
            full_bw_reached: false,
            cycle_idx: 0,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done_stamp: None,
            probe_rtt_round_done: false,
            prior_cwnd: 0,
            packet_conservation: false,
            conservation_entry_round: 0,
            in_recovery: false,
            total_lost: 0,
            lt_is_sampling: false,
            lt_rtt_cnt: 0,
            lt_use_bw: false,
            lt_bw: 0,
            lt_last_delivered: 0,
            lt_last_lost: 0,
            lt_last_stamp: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The max-filter bandwidth estimate in bytes/sec (0 until sampled).
    pub fn max_bw_bytes_per_sec(&self) -> u64 {
        self.bw_filter.get()
    }

    /// The bandwidth BBR currently paces against (long-term estimate when
    /// policer detection is active).
    fn bw(&self) -> u64 {
        if self.lt_use_bw {
            self.lt_bw
        } else {
            self.bw_filter.get()
        }
    }

    /// Whether the windowed min-RTT estimate exists.
    fn has_min_rtt(&self) -> bool {
        self.min_rtt != SimDuration::MAX
    }

    /// BDP in bytes under `gain`, or `None` before estimates exist.
    fn target_inflight(&self, gain: f64) -> Option<u64> {
        if !self.has_min_rtt() || self.bw() == 0 {
            return None;
        }
        let bdp = self.bw() as f64 * self.min_rtt.as_secs_f64();
        Some((gain * bdp) as u64)
    }

    fn min_cwnd(&self) -> u64 {
        MIN_CWND_SEGMENTS * self.mss
    }

    fn pacing_gain(&self) -> f64 {
        if self.lt_use_bw {
            return 1.0;
        }
        match self.mode {
            Mode::Startup => HIGH_GAIN,
            Mode::Drain => 1.0 / HIGH_GAIN,
            Mode::ProbeBw => PACING_GAIN_CYCLE[self.cycle_idx],
            Mode::ProbeRtt => 1.0,
        }
    }

    fn cwnd_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup | Mode::Drain => HIGH_GAIN,
            Mode::ProbeBw => CWND_GAIN,
            Mode::ProbeRtt => 1.0,
        }
    }

    fn save_cwnd(&mut self) {
        self.prior_cwnd = if !self.in_recovery && self.mode != Mode::ProbeRtt {
            self.cwnd
        } else {
            self.prior_cwnd.max(self.cwnd)
        };
    }

    // ----- long-term (policer) sampling ---------------------------------

    fn lt_reset_interval(&mut self, s: &AckSample) {
        self.lt_last_stamp = s.now;
        self.lt_last_delivered = s.delivered;
        self.lt_last_lost = self.total_lost;
        self.lt_rtt_cnt = 0;
    }

    fn lt_reset_sampling(&mut self, s: &AckSample) {
        self.lt_is_sampling = false;
        self.lt_use_bw = false;
        self.lt_bw = 0;
        self.lt_reset_interval(s);
    }

    fn lt_interval_done(&mut self, s: &AckSample, bw: u64) {
        if self.lt_bw > 0 {
            let diff = bw.abs_diff(self.lt_bw) as f64;
            if diff <= LT_BW_RATIO * self.lt_bw as f64 || diff <= LT_BW_DIFF_BYTES_PER_SEC {
                // Two consistent policed intervals: engage.
                self.lt_bw = (bw + self.lt_bw) / 2;
                self.lt_use_bw = true;
                self.lt_rtt_cnt = 0;
                return;
            }
        }
        self.lt_bw = bw;
        self.lt_reset_interval(s);
    }

    fn lt_sampling(&mut self, s: &AckSample) {
        if self.lt_use_bw {
            // Using the long-term estimate; after enough rounds, re-probe.
            if self.mode == Mode::ProbeBw && self.rounds.is_round_start() {
                self.lt_rtt_cnt += 1;
                if self.lt_rtt_cnt >= LT_BW_MAX_RTTS {
                    self.lt_reset_sampling(s);
                    self.enter_probe_bw(s.now);
                }
            }
            return;
        }
        if !self.lt_is_sampling {
            if s.newly_lost == 0 {
                return;
            }
            // First loss: begin a sampling interval.
            self.lt_is_sampling = true;
            self.lt_reset_interval(s);
            return;
        }
        if s.is_app_limited {
            self.lt_reset_sampling(s);
            return;
        }
        if self.rounds.is_round_start() {
            self.lt_rtt_cnt += 1;
        }
        if self.lt_rtt_cnt < LT_INTVL_MIN_RTTS {
            return;
        }
        if self.lt_rtt_cnt > 4 * LT_INTVL_MIN_RTTS {
            // Interval too long: restart.
            self.lt_reset_sampling(s);
            self.lt_is_sampling = true;
            self.lt_reset_interval(s);
            return;
        }
        if s.newly_lost == 0 {
            return; // end intervals only on a loss, like Linux
        }
        let delivered = s.delivered - self.lt_last_delivered;
        let lost = self.total_lost - self.lt_last_lost;
        if delivered == 0 || lost * LT_LOSS_THRESH_DEN < LT_LOSS_THRESH_NUM * delivered {
            return; // loss rate below the ~20% policer threshold
        }
        let elapsed = s.now.saturating_since(self.lt_last_stamp);
        if elapsed.is_zero() {
            return;
        }
        let bw = (delivered as f64 / elapsed.as_secs_f64()) as u64;
        self.lt_interval_done(s, bw);
    }

    // ----- mode transitions ----------------------------------------------

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.mode = Mode::ProbeBw;
        // Random initial phase, excluding the 0.75 drain phase (Linux picks
        // uniformly from the 7 non-drain phases).
        let r = self.rng.gen_range(0..7u32) as usize;
        self.cycle_idx = if r == 1 { 7 } else { r };
        self.cycle_stamp = now;
    }

    fn check_full_bw_reached(&mut self, s: &AckSample) {
        if self.full_bw_reached || !self.rounds.is_round_start() || s.is_app_limited {
            return;
        }
        let bw = self.bw_filter.get();
        if (bw as f64) >= self.full_bw as f64 * FULL_BW_THRESH {
            self.full_bw = bw;
            self.full_bw_cnt = 0;
            return;
        }
        self.full_bw_cnt += 1;
        self.full_bw_reached = self.full_bw_cnt >= FULL_BW_CNT;
    }

    fn check_drain(&mut self, s: &AckSample) {
        if self.mode == Mode::Startup && self.full_bw_reached {
            self.mode = Mode::Drain;
        }
        if self.mode == Mode::Drain {
            if let Some(target) = self.target_inflight(1.0) {
                if s.in_flight <= target {
                    self.enter_probe_bw(s.now);
                }
            }
        }
    }

    fn advance_cycle_phase(&mut self, s: &AckSample) {
        if self.mode != Mode::ProbeBw || self.lt_use_bw {
            return;
        }
        let gain = PACING_GAIN_CYCLE[self.cycle_idx];
        let is_full_length = s.now.saturating_since(self.cycle_stamp) > self.min_rtt;
        let advance = if (gain - 1.0).abs() < f64::EPSILON {
            is_full_length
        } else if gain > 1.0 {
            // Probe until we've filled the pipe at the higher rate or
            // created loss.
            is_full_length
                && (s.newly_lost > 0
                    || self
                        .target_inflight(gain)
                        .is_some_and(|t| s.prior_in_flight >= t))
        } else {
            // Drain phase ends early once in-flight reaches the BDP.
            is_full_length
                || self
                    .target_inflight(1.0)
                    .is_some_and(|t| s.prior_in_flight <= t)
        };
        if advance {
            self.cycle_idx = (self.cycle_idx + 1) % PACING_GAIN_CYCLE.len();
            self.cycle_stamp = s.now;
        }
    }

    fn update_min_rtt(&mut self, s: &AckSample) {
        let filter_expired = s.now > self.min_rtt_stamp.saturating_add(MIN_RTT_WINDOW);
        if let Some(rtt) = s.rtt {
            if rtt <= self.min_rtt || filter_expired {
                self.min_rtt = rtt;
                self.min_rtt_stamp = s.now;
            }
        }
        if filter_expired && self.mode != Mode::ProbeRtt {
            self.mode = Mode::ProbeRtt;
            self.save_cwnd();
            self.probe_rtt_done_stamp = None;
        }
        if self.mode == Mode::ProbeRtt {
            match self.probe_rtt_done_stamp {
                None => {
                    if s.in_flight <= self.min_cwnd() {
                        // Dwell for 200 ms and at least one packet-timed
                        // round (tracked by the shared round counter).
                        self.probe_rtt_done_stamp = Some(s.now + PROBE_RTT_DURATION);
                        self.probe_rtt_round_done = false;
                    }
                }
                Some(done) => {
                    if self.rounds.is_round_start() {
                        self.probe_rtt_round_done = true;
                    }
                    if self.probe_rtt_round_done && s.now >= done {
                        self.min_rtt_stamp = s.now;
                        self.cwnd = self.cwnd.max(self.prior_cwnd);
                        if self.full_bw_reached {
                            self.enter_probe_bw(s.now);
                        } else {
                            self.mode = Mode::Startup;
                        }
                    }
                }
            }
        }
    }

    fn set_pacing_rate(&mut self) {
        let bw = self.bw();
        if bw == 0 {
            return; // keep the initial estimate until samples arrive
        }
        let rate =
            Bandwidth::from_bps((bw as f64 * 8.0 * self.pacing_gain() * PACING_MARGIN) as u64);
        // Never reduce the pacing rate before the pipe is known full: early
        // samples underestimate.
        if self.full_bw_reached || rate.as_bps() > self.pacing.as_bps() {
            self.pacing = rate;
        }
    }

    fn set_cwnd(&mut self, s: &AckSample) {
        if s.newly_acked == 0 {
            return;
        }
        // One round of packet conservation after entering recovery.
        if self.packet_conservation {
            if self.rounds.rounds() > self.conservation_entry_round {
                self.packet_conservation = false;
            } else {
                self.cwnd = self.cwnd.max(s.in_flight + s.newly_acked);
            }
        }
        if !self.packet_conservation {
            match self.target_inflight(self.cwnd_gain()) {
                Some(target) => {
                    if self.full_bw_reached {
                        self.cwnd = (self.cwnd + s.newly_acked).min(target);
                    } else if self.cwnd < target || s.delivered < INITIAL_CWND_SEGMENTS * self.mss {
                        self.cwnd += s.newly_acked;
                    }
                }
                None => self.cwnd += s.newly_acked,
            }
        }
        self.cwnd = self.cwnd.max(self.min_cwnd());
        if self.mode == Mode::ProbeRtt {
            self.cwnd = self.cwnd.min(self.min_cwnd());
        }
    }

    /// Refuse a restored gain-cycle index past the cycle.
    fn check_cycle_idx(&self) -> Result<(), SnapError> {
        if self.cycle_idx >= PACING_GAIN_CYCLE.len() {
            return Err(SnapError::Corrupt(format!(
                "BBR cycle index {} out of range",
                self.cycle_idx
            )));
        }
        Ok(())
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        u64::MAX // BBR has no ssthresh
    }

    fn pacing_rate(&self) -> Option<Bandwidth> {
        Some(self.pacing)
    }

    fn phase(&self) -> &'static str {
        match self.mode {
            Mode::Startup => "startup",
            Mode::Drain => "drain",
            Mode::ProbeBw => "probe_bw",
            Mode::ProbeRtt => "probe_rtt",
        }
    }

    fn uses_prr(&self) -> bool {
        false // BBR modulates its own window in recovery
    }

    fn on_ack(&mut self, s: &AckSample) {
        self.total_lost += s.newly_lost;
        self.rounds.update(s);
        self.lt_sampling(s);
        // Feed the bandwidth filter; app-limited samples only count when
        // they raise the estimate.
        if let Some(rate) = s.delivery_rate {
            let bps_bytes = rate.as_bps() / 8;
            if !s.is_app_limited || bps_bytes >= self.bw_filter.get() {
                self.bw_filter
                    .update(BW_FILTER_ROUNDS, self.rounds.rounds(), bps_bytes);
            }
        }
        self.check_full_bw_reached(s);
        self.check_drain(s);
        self.advance_cycle_phase(s);
        self.update_min_rtt(s);
        self.set_pacing_rate();
        self.set_cwnd(s);
    }

    fn on_enter_recovery(&mut self, s: &AckSample) {
        self.save_cwnd();
        self.in_recovery = true;
        self.packet_conservation = true;
        self.conservation_entry_round = self.rounds.rounds();
        self.cwnd = s.in_flight + s.newly_acked.max(self.mss);
    }

    fn on_exit_recovery(&mut self, _s: &AckSample, _after_rto: bool) {
        self.in_recovery = false;
        self.packet_conservation = false;
        self.cwnd = self.cwnd.max(self.prior_cwnd);
    }

    fn on_rto(&mut self, _s: &AckSample) {
        self.save_cwnd();
        self.in_recovery = true;
        self.packet_conservation = false;
        self.cwnd = self.mss;
    }

    snap! {
        fn save_state;
        fn load_state then check_cycle_idx;
        cwnd, pacing, mode, rounds, bw_filter, min_rtt, min_rtt_stamp, full_bw, full_bw_cnt,
        full_bw_reached, cycle_idx, cycle_stamp, probe_rtt_done_stamp, probe_rtt_round_done,
        prior_cwnd, packet_conservation, conservation_entry_round, in_recovery, total_lost,
        lt_is_sampling, lt_rtt_cnt, lt_use_bw, lt_bw, lt_last_delivered, lt_last_lost,
        lt_last_stamp, rng,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1448;

    /// Synthetic ACK with a delivery-rate sample.
    #[allow(clippy::too_many_arguments)]
    fn s(
        now_ms: u64,
        rtt_ms: u64,
        rate_mbps: u64,
        newly_acked: u64,
        delivered: u64,
        prior_delivered: u64,
        in_flight: u64,
        newly_lost: u64,
    ) -> AckSample {
        AckSample {
            now: SimTime::from_millis(now_ms),
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            srtt: SimDuration::from_millis(rtt_ms),
            min_rtt: SimDuration::from_millis(rtt_ms),
            newly_acked,
            newly_lost,
            delivered,
            prior_delivered,
            prior_in_flight: in_flight + newly_acked,
            in_flight,
            delivery_rate: Some(Bandwidth::from_mbps(rate_mbps)),
            interval: SimDuration::from_millis(rtt_ms),
            is_app_limited: false,
            in_recovery: false,
            mss: MSS,
            cumulative_ack: delivered,
        }
    }

    #[test]
    fn starts_in_startup_with_high_gain() {
        let b = Bbr::new(MSS, 1);
        assert_eq!(b.mode(), Mode::Startup);
        assert!((b.pacing_gain() - HIGH_GAIN).abs() < 1e-9);
        assert!(b.pacing_rate().is_some());
        assert!(!b.uses_prr());
        assert_eq!(b.ssthresh(), u64::MAX);
        assert_eq!(b.name(), "bbr");
    }

    /// Drive a BBR instance through `n` rounds of constant-rate samples.
    /// Reported in-flight is large (500 KB) so Drain does not exit on its
    /// own; tests that want the Drain→ProbeBW transition feed a small
    /// in-flight sample explicitly.
    fn feed_rounds(b: &mut Bbr, rounds: u64, rate_mbps: u64, start_ms: u64) -> u64 {
        let mut now = start_ms;
        let mut delivered = b.rounds.rounds() * 100_000 + 1;
        for _ in 0..rounds {
            // Two acks per round: the round-starting one and a follower.
            let prior = delivered;
            delivered += 50_000;
            b.on_ack(&s(now, 20, rate_mbps, 14_480, delivered, prior, 500_000, 0));
            now += 10;
            b.on_ack(&s(
                now,
                20,
                rate_mbps,
                14_480,
                delivered + 10,
                prior,
                500_000,
                0,
            ));
            delivered += 10;
            now += 10;
        }
        now
    }

    #[test]
    fn startup_exits_after_three_flat_rounds() {
        let mut b = Bbr::new(MSS, 1);
        // Growing bandwidth: stays in startup.
        let mut now = 0;
        for (i, rate) in [10u64, 20, 40, 80].iter().enumerate() {
            now = feed_rounds(&mut b, 1, *rate, now + i as u64);
        }
        assert_eq!(b.mode(), Mode::Startup);
        assert!(!b.full_bw_reached);
        // Plateau: three rounds with no 25% growth => Drain.
        now = feed_rounds(&mut b, 4, 80, now);
        assert!(b.full_bw_reached);
        // Drain exits to ProbeBW once inflight <= BDP; our synthetic
        // inflight is large, so we stay in Drain here.
        assert_eq!(b.mode(), Mode::Drain);
        let _ = now;
    }

    #[test]
    fn drain_exits_to_probe_bw_when_inflight_reaches_bdp() {
        let mut b = Bbr::new(MSS, 1);
        let now = feed_rounds(&mut b, 8, 80, 0);
        assert_eq!(b.mode(), Mode::Drain);
        // 80 Mbps * 20 ms = 200 KB BDP; report tiny inflight.
        let d = b.rounds.rounds() * 100_000 + 900_000;
        b.on_ack(&s(now, 20, 80, 14_480, d, d - 1, 10_000, 0));
        assert_eq!(b.mode(), Mode::ProbeBw);
        // Entry phase is never the 0.75 drain phase.
        assert_ne!(b.cycle_idx, 1);
    }

    #[test]
    fn bw_filter_takes_windowed_max() {
        let mut b = Bbr::new(MSS, 1);
        feed_rounds(&mut b, 2, 100, 0);
        let high = b.max_bw_bytes_per_sec();
        feed_rounds(&mut b, 2, 50, 1000);
        // Max over the window still reflects the 100 Mbps samples.
        assert_eq!(b.max_bw_bytes_per_sec(), high);
        assert_eq!(high, 100_000_000 / 8);
    }

    #[test]
    fn cwnd_tracks_two_bdp_after_full_bw() {
        let mut b = Bbr::new(MSS, 1);
        let now = feed_rounds(&mut b, 8, 80, 0);
        // Force ProbeBW via small inflight.
        let d = b.rounds.rounds() * 100_000 + 900_000;
        b.on_ack(&s(now, 20, 80, 14_480, d, d - 1, 10_000, 0));
        // Feed more acks; cwnd must cap at cwnd_gain * BDP.
        // BDP = 10 MB/s * 20 ms = 200 KB; 2*BDP = 400 KB.
        let mut dd = d;
        for i in 0..200 {
            dd += 14_480;
            b.on_ack(&s(
                now + 20 + i,
                20,
                80,
                14_480,
                dd,
                dd - 14_480,
                100_000,
                0,
            ));
        }
        assert!(b.cwnd() <= 400_000 + 2 * MSS as u64, "cwnd={}", b.cwnd());
        assert!(b.cwnd() >= 350_000, "cwnd={}", b.cwnd());
    }

    #[test]
    fn probe_rtt_entered_on_filter_expiry_and_caps_cwnd() {
        let mut b = Bbr::new(MSS, 1);
        feed_rounds(&mut b, 8, 80, 0);
        // Jump time past the 10 s min-RTT window.
        let d = b.rounds.rounds() * 100_000 + 500_000;
        b.on_ack(&s(11_000, 20, 80, 14_480, d, d - 1, 50_000, 0));
        assert_eq!(b.mode(), Mode::ProbeRtt);
        // Window clamps to 4 segments.
        assert_eq!(b.cwnd(), 4 * MSS as u64);
    }

    #[test]
    fn probe_rtt_exits_after_duration_and_round() {
        let mut b = Bbr::new(MSS, 1);
        feed_rounds(&mut b, 8, 80, 0);
        let mut d = b.rounds.rounds() * 100_000 + 500_000;
        b.on_ack(&s(11_000, 20, 80, 14_480, d, d - 1, 50_000, 0));
        assert_eq!(b.mode(), Mode::ProbeRtt);
        // Inflight drops below 4 packets: the 200 ms dwell starts.
        d += 1000;
        b.on_ack(&s(11_050, 20, 80, 1000, d, d - 1000, 4000, 0));
        // A round passes and 200 ms elapse.
        d += 1000;
        b.on_ack(&s(11_300, 20, 80, 1000, d, d - 1, 4000, 0));
        assert_ne!(b.mode(), Mode::ProbeRtt, "should have exited ProbeRTT");
    }

    #[test]
    fn recovery_saves_and_restores_cwnd() {
        let mut b = Bbr::new(MSS, 1);
        feed_rounds(&mut b, 8, 80, 0);
        let w = b.cwnd();
        let sample = s(200, 20, 80, 14_480, 1_000_000, 999_000, 50_000, 14_480);
        b.on_enter_recovery(&sample);
        assert!(b.cwnd() <= 50_000 + 14_480 + MSS as u64);
        b.on_exit_recovery(&sample, false);
        assert!(b.cwnd() >= w, "cwnd restored to at least prior");
    }

    #[test]
    fn rto_collapses_then_restores() {
        let mut b = Bbr::new(MSS, 1);
        feed_rounds(&mut b, 8, 80, 0);
        let w = b.cwnd();
        let sample = s(200, 20, 80, 0, 1_000_000, 999_000, 0, 100_000);
        b.on_rto(&sample);
        assert_eq!(b.cwnd(), MSS as u64);
        b.on_exit_recovery(&sample, true);
        assert!(b.cwnd() >= w);
    }

    #[test]
    fn app_limited_samples_do_not_lower_estimate() {
        let mut b = Bbr::new(MSS, 1);
        feed_rounds(&mut b, 2, 100, 0);
        let high = b.max_bw_bytes_per_sec();
        let mut sample = s(100, 20, 10, 14_480, 500_000, 499_000, 50_000, 0);
        sample.is_app_limited = true;
        for i in 0..30 {
            let mut sa = sample;
            sa.now = SimTime::from_millis(100 + i);
            sa.delivered += i * 1000;
            sa.prior_delivered += i * 1000;
            b.on_ack(&sa);
        }
        assert_eq!(b.max_bw_bytes_per_sec(), high);
    }

    #[test]
    fn pacing_never_drops_before_full_bw() {
        let mut b = Bbr::new(MSS, 1);
        feed_rounds(&mut b, 1, 100, 0);
        let p = b.pacing_rate().unwrap();
        feed_rounds(&mut b, 1, 10, 100);
        assert!(b.pacing_rate().unwrap() >= p.mul_f64(0.99));
    }
}
