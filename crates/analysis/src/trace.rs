//! Analysis entry points over recorded flight-recorder traces.
//!
//! The metrics themselves live in [`crate::sync`] and [`crate::burstiness`](mod@crate::burstiness)
//! and operate on plain timestamp trains; these wrappers extract the trains
//! from a [`RunTrace`] so callers (the runner, the CLI `trace` subcommand,
//! notebooks reading exported files) go from trace to number in one call.

use crate::{burstiness, synchronization_index};
use ccsim_sim::{SimDuration, SimTime};
use ccsim_trace::RunTrace;

/// Synchronization index (see [`crate::sync`]) of the trace's congestion
/// events over `[start, end)` with bin width `bin`.
pub fn trace_synchronization_index(
    trace: &RunTrace,
    start: SimTime,
    end: SimTime,
    bin: SimDuration,
) -> Option<f64> {
    synchronization_index(&trace.congestion_event_trains(), start, end, bin)
}

/// Goh–Barabási burstiness (see [`crate::burstiness`](fn@crate::burstiness)) of the trace's
/// bottleneck drop train.
pub fn trace_drop_burstiness(trace: &RunTrace) -> Option<f64> {
    burstiness(&trace.drop_times())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_trace::{CongestionKind, RunTrace, TraceMeta, TraceRecord};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn trace_with(records: Vec<TraceRecord>, flows: u32) -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                scenario: "t".into(),
                seed: 0,
                flows,
            },
            records: records.into(),
            evicted: 0,
            thinned: 0,
        }
    }

    #[test]
    fn synchronized_trace_scores_one() {
        // Both flows halve together at the same instants.
        let mut recs = Vec::new();
        for flow in 0..2 {
            for ms in [100, 200, 300] {
                recs.push(TraceRecord::congestion(
                    t(ms),
                    flow,
                    CongestionKind::FastRecovery,
                ));
            }
        }
        let tr = trace_with(recs, 2);
        let idx =
            trace_synchronization_index(&tr, t(0), t(400), SimDuration::from_millis(20)).unwrap();
        assert!((idx - 1.0).abs() < 1e-12, "idx = {idx}");
    }

    #[test]
    fn periodic_drop_train_is_anti_bursty() {
        let recs = (1..=100)
            .map(|i| TraceRecord::drop(t(i * 10), 0, 1000))
            .collect();
        let tr = trace_with(recs, 1);
        let b = trace_drop_burstiness(&tr).unwrap();
        assert!((b - (-1.0)).abs() < 1e-9, "B = {b}");
    }

    #[test]
    fn empty_trace_yields_none() {
        let tr = trace_with(Vec::new(), 3);
        assert_eq!(
            trace_synchronization_index(&tr, t(0), t(100), SimDuration::from_millis(10)),
            None
        );
        assert_eq!(trace_drop_burstiness(&tr), None);
    }
}
