//! Per-flow delivered-bytes snapshots over time.
//!
//! The experiment runner advances the simulation in slices and records a
//! snapshot of every flow's cumulative delivered bytes after each slice.
//! From these the tracker implements the paper's stopping rule: *run until
//! the metric changes by less than 1% over a window* (§3.2; 20 minutes in
//! the paper, configurable here because the harness scales time). The rule
//! compares the last two windows of `w` slices, so the tracker keeps only
//! the last `2w + 1` snapshots: a 3 h paper-fidelity run at 5000 flows
//! would otherwise hold (and checkpoint) every slice it ever took.

use ccsim_sim::{SimTime, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// The last `2w + 1` snapshots of cumulative per-flow delivered bytes.
#[derive(Debug, Clone)]
pub struct ThroughputTracker {
    /// `w`: snapshots per comparison window.
    window: usize,
    times: VecDeque<SimTime>,
    /// `snapshots[i][f]` = flow f's cumulative delivered bytes at `times[i]`.
    snapshots: VecDeque<Vec<u64>>,
}

impl ThroughputTracker {
    /// An empty tracker for a stopping rule over windows of
    /// `window_snapshots` slices (0: no rule, keep the latest snapshot).
    pub fn new(window_snapshots: usize) -> Self {
        ThroughputTracker {
            window: window_snapshots,
            times: VecDeque::new(),
            snapshots: VecDeque::new(),
        }
    }

    /// Snapshots kept: the `2w + 1` the rule reads.
    fn capacity(&self) -> usize {
        2 * self.window + 1
    }

    /// Record a snapshot, dropping the oldest beyond the `2w + 1` kept.
    /// `per_flow_delivered[f]` is flow f's cumulative delivered byte count
    /// at `time`. Snapshots must arrive in time order.
    pub fn record(&mut self, time: SimTime, per_flow_delivered: Vec<u64>) {
        if let Some(&last) = self.times.back() {
            assert!(time >= last, "snapshots must be time-ordered");
            assert_eq!(
                self.snapshots[0].len(),
                per_flow_delivered.len(),
                "flow count changed between snapshots"
            );
        }
        if self.times.len() == self.capacity() {
            self.times.pop_front();
            self.snapshots.pop_front();
        }
        self.times.push_back(time);
        self.snapshots.push_back(per_flow_delivered);
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<&[u64]> {
        self.snapshots.back().map(Vec::as_slice)
    }

    /// Serialize the kept snapshots for a checkpoint (`w` is scenario
    /// configuration).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.times.len());
        for &t in &self.times {
            w.time(t);
        }
        w.usize(self.snapshots.len());
        for snap in &self.snapshots {
            w.seq(snap, |w, &v| w.u64(v));
        }
    }

    /// Overlay checkpointed state onto a tracker built for the same `w`,
    /// replacing any recorded snapshots.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let times = r.seq(|r| r.time())?;
        let snapshots = r.seq(|r| r.seq(|r| r.u64()))?;
        if times.len() != snapshots.len() {
            return Err(SnapError::Corrupt(format!(
                "tracker has {} times but {} snapshots",
                times.len(),
                snapshots.len()
            )));
        }
        if times.len() > self.capacity() {
            return Err(SnapError::Corrupt(format!(
                "tracker holds {} snapshots, a {}-slice window keeps {}",
                times.len(),
                self.window,
                self.capacity()
            )));
        }
        self.times = times.into();
        self.snapshots = snapshots.into();
        Ok(())
    }

    /// Per-flow throughput (bytes/sec) between kept snapshots `i < j`.
    fn throughputs_between(&self, i: usize, j: usize) -> Option<Vec<f64>> {
        let dt = (self.times[j] - self.times[i]).as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        Some(
            self.snapshots[i]
                .iter()
                .zip(&self.snapshots[j])
                .map(|(&a, &b)| (b.saturating_sub(a)) as f64 / dt)
                .collect(),
        )
    }

    /// The paper's convergence rule: compare `metric` over the last `w`
    /// slices against the preceding `w` and report the relative change.
    /// `None` until `2w + 1` snapshots exist, when `w` is 0, or when the
    /// earlier value is zero.
    pub fn relative_change<F>(&self, metric: F) -> Option<f64>
    where
        F: Fn(&[f64]) -> Option<f64>,
    {
        let w = self.window;
        if w == 0 || self.times.len() < self.capacity() {
            return None;
        }
        let recent = metric(&self.throughputs_between(w, 2 * w)?)?;
        let earlier = metric(&self.throughputs_between(0, w)?)?;
        if earlier == 0.0 {
            return None;
        }
        Some(((recent - earlier) / earlier).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sum(rates: &[f64]) -> Option<f64> {
        Some(rates.iter().sum())
    }

    /// Two flows: one at 1000 B/s, one at 500 B/s, snapshots each second.
    fn steady(window: usize, n: u64) -> ThroughputTracker {
        let mut tr = ThroughputTracker::new(window);
        for i in 0..n {
            tr.record(t(i), vec![i * 1000, i * 500]);
        }
        tr
    }

    #[test]
    fn convergence_detects_steady_state() {
        let change = steady(5, 21).relative_change(sum).unwrap();
        assert!(change < 1e-12);
    }

    #[test]
    fn convergence_detects_ramping_flows() {
        // Quadratic delivery = linearly growing rate: windows differ.
        let mut tr = ThroughputTracker::new(5);
        for i in 0..21u64 {
            tr.record(t(i), vec![i * i * 100]);
        }
        let change = tr.relative_change(sum).unwrap();
        assert!(change > 0.2, "change = {change}");
    }

    #[test]
    fn convergence_needs_enough_snapshots() {
        assert!(steady(5, 10).relative_change(sum).is_none());
        assert!(steady(0, 30).relative_change(sum).is_none());
    }

    #[test]
    fn only_the_snapshots_the_rule_reads_are_kept() {
        // 100·k B/s in second k: the last two 2-slice windows of a
        // 30-slice run average 2750 and 2950 B/s.
        let mut tr = ThroughputTracker::new(2);
        let mut delivered = 0;
        for k in 0..=30u64 {
            delivered += k * 100;
            tr.record(t(k), vec![delivered]);
        }
        assert_eq!(tr.times.len(), 5);
        assert_eq!(tr.times[0], t(26));
        let change = tr.relative_change(sum).unwrap();
        assert!((change - 200.0 / 2750.0).abs() < 1e-12, "change = {change}");
        // The checkpoint carries the five and only them.
        let mut w = SnapWriter::new();
        tr.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = ThroughputTracker::new(2);
        back.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.relative_change(sum), tr.relative_change(sum));
        // A narrower rule cannot hold them.
        let mut narrow = ThroughputTracker::new(1);
        assert!(matches!(
            narrow.load_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_snapshots_panic() {
        let mut tr = ThroughputTracker::new(1);
        tr.record(t(5), vec![0]);
        tr.record(t(4), vec![0]);
    }

    #[test]
    #[should_panic(expected = "flow count changed")]
    fn flow_count_change_panics() {
        let mut tr = ThroughputTracker::new(1);
        tr.record(t(1), vec![0, 0]);
        tr.record(t(2), vec![0]);
    }
}
