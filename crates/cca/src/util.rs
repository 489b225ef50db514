//! Shared CCA utilities: packet-timed round tracking and windowed
//! min/max filters.

use ccsim_sim::snap;
use ccsim_tcp::AckSample;

/// Saturating window addition — congestion windows never wrap.
#[inline]
pub fn cap_add(cwnd: u64, inc: u64) -> u64 {
    cwnd.saturating_add(inc)
}

/// Packet-timed round trips, counted the way BBR does: a round ends when a
/// packet sent *after* the previous round's end is (S)ACKed, detected via
/// the delivered-bytes watermark carried in each [`AckSample`].
#[derive(Debug, Clone, Default)]
pub struct RoundTracker {
    next_round_delivered: u64,
    rounds: u64,
    round_start: bool,
}

impl RoundTracker {
    /// A fresh tracker (round 0 in progress).
    pub fn new() -> Self {
        Self::default()
    }

    /// Update with an ACK; afterwards [`RoundTracker::is_round_start`]
    /// reports whether this ACK began a new round.
    pub fn update(&mut self, s: &AckSample) {
        self.round_start = s.prior_delivered >= self.next_round_delivered;
        if self.round_start {
            self.next_round_delivered = s.delivered;
            self.rounds += 1;
        }
    }

    /// Whether the most recent [`RoundTracker::update`] started a round.
    pub fn is_round_start(&self) -> bool {
        self.round_start
    }

    /// Completed round count.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

snap!(RoundTracker {
    next_round_delivered,
    rounds,
    round_start
});

/// Windowed running maximum over an integer "time" axis, after Linux's
/// `lib/win_minmax.c` (Kathleen Nichols' streaming min/max): tracks the
/// best three samples so the estimate degrades gracefully as the window
/// slides. BBR uses this for max-bandwidth over 10 packet-timed rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowedMax {
    /// (value, time) best-first.
    samples: [(u64, u64); 3],
    initialized: bool,
}

impl WindowedMax {
    /// An empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current maximum over the window (0 if no samples yet).
    pub fn get(&self) -> u64 {
        self.samples[0].0
    }

    /// True once at least one sample has been accepted.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Insert `value` observed at `time`, expiring samples older than
    /// `window` time units, and return the updated maximum.
    pub fn update(&mut self, window: u64, time: u64, value: u64) -> u64 {
        if !self.initialized
            || value >= self.samples[0].0
            || time.saturating_sub(self.samples[2].1) > window
        {
            // New best, or the whole filter has gone stale: reset.
            self.samples = [(value, time); 3];
            self.initialized = true;
            return self.get();
        }
        if value >= self.samples[1].0 {
            self.samples[2] = (value, time);
            self.samples[1] = (value, time);
        } else if value >= self.samples[2].0 {
            self.samples[2] = (value, time);
        }
        // Sub-window maintenance (verbatim from lib/win_minmax.c): all age
        // checks anchor on the current best's timestamp.
        let dt = time.saturating_sub(self.samples[0].1);
        if dt > window {
            // Best expired: promote the runners-up.
            self.samples[0] = self.samples[1];
            self.samples[1] = self.samples[2];
            self.samples[2] = (value, time);
            if time.saturating_sub(self.samples[0].1) > window {
                self.samples[0] = self.samples[1];
                self.samples[1] = self.samples[2];
                self.samples[2] = (value, time);
            }
        } else if self.samples[1].1 == self.samples[0].1 && dt > window / 4 {
            // A quarter of the window passed without a distinct 2nd best.
            self.samples[2] = (value, time);
            self.samples[1] = (value, time);
        } else if self.samples[2].1 == self.samples[1].1 && dt > window / 2 {
            // Half the window passed without a distinct 3rd best.
            self.samples[2] = (value, time);
        }
        self.get()
    }
}

snap!(WindowedMax {
    samples,
    initialized
});

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_sim::{SimDuration, SimTime};

    fn sample(delivered: u64, prior: u64) -> AckSample {
        AckSample {
            now: SimTime::ZERO,
            rtt: None,
            srtt: SimDuration::ZERO,
            min_rtt: SimDuration::ZERO,
            newly_acked: 1448,
            newly_lost: 0,
            delivered,
            prior_delivered: prior,
            prior_in_flight: 0,
            in_flight: 0,
            delivery_rate: None,
            interval: SimDuration::ZERO,
            is_app_limited: false,
            in_recovery: false,
            mss: 1448,
            cumulative_ack: 0,
        }
    }

    #[test]
    fn rounds_advance_on_delivered_watermark() {
        let mut rt = RoundTracker::new();
        // First ack: prior_delivered 0 >= watermark 0 => round 1 starts.
        rt.update(&sample(1000, 0));
        assert!(rt.is_round_start());
        assert_eq!(rt.rounds(), 1);
        // Packets sent before delivered reached 1000: same round.
        rt.update(&sample(2000, 500));
        assert!(!rt.is_round_start());
        rt.update(&sample(3000, 999));
        assert!(!rt.is_round_start());
        // A packet sent after delivered hit 1000: next round.
        rt.update(&sample(4000, 1000));
        assert!(rt.is_round_start());
        assert_eq!(rt.rounds(), 2);
    }

    #[test]
    fn windowed_max_tracks_max() {
        let mut f = WindowedMax::new();
        assert_eq!(f.get(), 0);
        assert!(!f.is_initialized());
        f.update(10, 0, 100);
        assert_eq!(f.get(), 100);
        f.update(10, 1, 50);
        assert_eq!(f.get(), 100);
        f.update(10, 2, 120);
        assert_eq!(f.get(), 120);
    }

    #[test]
    fn windowed_max_expires_old_peak() {
        let mut f = WindowedMax::new();
        f.update(10, 0, 1000);
        for t in 1..=10 {
            f.update(10, t, 500);
        }
        // Peak at t=0 still within window at t=10.
        assert_eq!(f.get(), 1000);
        // At t=11 the peak is older than the window; second-best (500)
        // takes over.
        f.update(10, 11, 400);
        assert_eq!(f.get(), 500);
    }

    #[test]
    fn windowed_max_fully_stale_resets() {
        let mut f = WindowedMax::new();
        f.update(10, 0, 1000);
        // Nothing for 30 time units: filter resets to the new value.
        f.update(10, 31, 10);
        assert_eq!(f.get(), 10);
    }

    #[test]
    fn windowed_max_decays_through_ranks() {
        let mut f = WindowedMax::new();
        f.update(10, 0, 1000);
        f.update(10, 3, 800);
        f.update(10, 6, 600);
        // t=11: 1000 (t=0) expires; 800 promoted.
        f.update(10, 11, 100);
        assert_eq!(f.get(), 800);
        // t=14: 800 (t=3) expires; 600 promoted.
        f.update(10, 14, 100);
        assert_eq!(f.get(), 600);
    }
}
