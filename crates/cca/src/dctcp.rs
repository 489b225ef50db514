//! DCTCP-style fractional ECN response — **stub, not yet in the factory**.
//!
//! DCTCP (Alizadeh et al., SIGCOMM 2010 / RFC 8257) reduces cwnd in
//! proportion to the *fraction* of CE-marked packets per window
//! (`cwnd ← cwnd · (1 − α/2)`), instead of the RFC 3168 full multiplicative
//! decrease. The paper's testbed does not run DCTCP, so this module only
//! sketches the state machine on top of the classic Reno core: the α EWMA
//! is fed from the once-per-window ECE episodes the sender surfaces today,
//! which under-samples the true mark fraction. Wiring it into [`CcaKind`]
//! is blocked on per-ACK ECE counting at the endpoint (see ROADMAP).
//!
//! [`CcaKind`]: crate::CcaKind

use ccsim_sim::{snap, Bandwidth};
use ccsim_tcp::{AckSample, CongestionControl, INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS};

/// EWMA gain for the mark-fraction estimate (RFC 8257's g = 1/16).
const DCTCP_G: f64 = 1.0 / 16.0;

/// DCTCP congestion control (experimental stub).
#[derive(Debug, Clone)]
pub struct Dctcp {
    mss: u32,
    cwnd: u64,
    ssthresh: u64,
    /// EWMA of the fraction of windows that saw a congestion mark.
    alpha: f64,
    /// Bytes acked since the α window started, and marks seen in it.
    window_acked: u64,
    window_marked: u64,
    bytes_acked: u64,
}

impl Dctcp {
    /// A DCTCP instance with the standard initial window.
    pub fn new(mss: u32) -> Dctcp {
        Dctcp {
            mss,
            cwnd: INITIAL_CWND_SEGMENTS * mss as u64,
            ssthresh: u64::MAX,
            alpha: 1.0, // conservative start, as in RFC 8257 §4.2
            window_acked: 0,
            window_marked: 0,
            bytes_acked: 0,
        }
    }

    fn min_cwnd(&self) -> u64 {
        MIN_CWND_SEGMENTS * self.mss as u64
    }

    /// Current mark-fraction estimate α ∈ [0, 1].
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Close an observation window: fold the observed mark fraction into
    /// α with gain [`DCTCP_G`].
    fn roll_window(&mut self) {
        if self.window_acked == 0 {
            return;
        }
        let f = self.window_marked as f64 / self.window_acked.max(1) as f64;
        self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f.min(1.0);
        self.window_acked = 0;
        self.window_marked = 0;
    }
}

impl CongestionControl for Dctcp {
    fn name(&self) -> &'static str {
        "dctcp"
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

    fn on_ack(&mut self, s: &AckSample) {
        self.window_acked += s.newly_acked;
        if self.window_acked >= self.cwnd {
            self.roll_window();
        }
        if s.in_recovery {
            return;
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += s.newly_acked.min(self.mss as u64 * 2);
            return;
        }
        // Reno-style additive increase between marks.
        self.bytes_acked += s.newly_acked;
        if self.bytes_acked >= self.cwnd {
            self.bytes_acked -= self.cwnd;
            self.cwnd += self.mss as u64;
        }
    }

    fn on_enter_recovery(&mut self, _s: &AckSample) {
        // Packet loss: classic halving, as RFC 8257 §3.3 requires.
        self.ssthresh = (self.cwnd / 2).max(self.min_cwnd());
        self.bytes_acked = 0;
    }

    fn on_exit_recovery(&mut self, _s: &AckSample, after_rto: bool) {
        if !after_rto {
            self.cwnd = self.ssthresh.max(self.min_cwnd());
        }
    }

    fn on_rto(&mut self, _s: &AckSample) {
        self.ssthresh = (self.cwnd / 2).max(self.min_cwnd());
        self.cwnd = self.mss as u64;
        self.bytes_acked = 0;
    }

    fn on_ecn(&mut self, _s: &AckSample) {
        // Fractional response: cwnd ← cwnd · (1 − α/2). With the current
        // once-per-window echo plumbing each episode counts as one mark.
        self.window_marked += 1;
        let cut = (self.cwnd as f64 * self.alpha / 2.0) as u64;
        self.cwnd = self.cwnd.saturating_sub(cut).max(self.min_cwnd());
        self.ssthresh = self.cwnd;
        self.bytes_acked = 0;
    }

    snap! {
        fn save_state;
        fn load_state;
        cwnd, ssthresh, alpha, window_acked, window_marked, bytes_acked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_sim::{SimDuration, SimTime};

    const MSS: u32 = 1000;

    fn ack(newly_acked: u64) -> AckSample {
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
            in_recovery: false,
            mss: MSS,
            cumulative_ack: 0,
        }
    }

    #[test]
    fn fractional_cut_scales_with_alpha() {
        let mut d = Dctcp::new(MSS);
        let before = d.cwnd();
        // α starts at 1.0: first response is the full RFC 3168 halving.
        d.on_ecn(&ack(0));
        assert_eq!(d.cwnd(), before / 2);
        // Drive α down with clean windows; the cut shrinks accordingly.
        for _ in 0..64 {
            d.window_acked = d.cwnd();
            d.roll_window();
        }
        assert!(d.alpha() < 0.05, "alpha = {}", d.alpha());
        let before = d.cwnd();
        d.on_ecn(&ack(0));
        let cut = before - d.cwnd();
        assert!(cut < before / 10, "cut {cut} of {before}");
    }

    #[test]
    fn loss_still_halves() {
        let mut d = Dctcp::new(MSS);
        let cwnd = d.cwnd();
        d.on_enter_recovery(&ack(0));
        d.on_exit_recovery(&ack(0), false);
        assert_eq!(d.cwnd(), cwnd / 2);
    }
}
