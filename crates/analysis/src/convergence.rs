//! Convergence over a windowed JFI series.
//!
//! The paper's fairness and throughput-model claims are all statements
//! about a *steady-state measurement window* — but a single end-of-run
//! aggregate can only say that a run converged, never **when**. The
//! time-to-α-fair instant (the first window after which JFI stays at or
//! above α) turns the timeline sampler's per-window JFI series into the
//! convergence time the BBR-fairness literature reports.
//!
//! Inputs are plain slices (one entry per window, oldest first), so the
//! function works identically on live timeline rings, exported JSONL, and
//! hand-built test fixtures.

/// The default α for time-to-α-fair: JFI ≥ 0.9 is the homogeneous
/// fairness band the paper's Figure 4 reports for loss-based CCAs.
pub const DEFAULT_ALPHA: f64 = 0.9;

/// Time-to-α-fair: the earliest time from which the JFI trajectory stays
/// at or above `alpha` through the end of the series.
///
/// `times[i]` is window `i`'s end instant in seconds, parallel to
/// `jfi[i]`. A window with no JFI value (`None`) counts as *not* fair —
/// an idle window cannot carry a fairness claim. Returns `None` when the
/// series is empty, the lengths differ, or the final window is below α
/// (the run never settled).
pub fn time_to_alpha_fair(times: &[f64], jfi: &[Option<f64>], alpha: f64) -> Option<f64> {
    if times.is_empty() || times.len() != jfi.len() {
        return None;
    }
    // Walk backwards over the all-fair suffix; its first window is the
    // convergence instant.
    let mut first_fair = None;
    for i in (0..jfi.len()).rev() {
        match jfi[i] {
            Some(v) if v >= alpha => first_fair = Some(i),
            _ => break,
        }
    }
    first_fair.map(|i| times[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_to_alpha_fair_finds_the_stable_suffix_start() {
        let times = [1.0, 2.0, 3.0, 4.0, 5.0];
        let jfi = [
            Some(0.5),
            Some(0.95), // transient excursion above α …
            Some(0.7),  // … does not count: the suffix must be unbroken
            Some(0.92),
            Some(0.97),
        ];
        assert_eq!(time_to_alpha_fair(&times, &jfi, 0.9), Some(4.0));
        // Fair from the very first window.
        let all = [Some(0.95); 5];
        assert_eq!(time_to_alpha_fair(&times, &all, 0.9), Some(1.0));
    }

    #[test]
    fn never_converging_yields_none() {
        let times = [1.0, 2.0];
        assert_eq!(
            time_to_alpha_fair(&times, &[Some(0.95), Some(0.5)], 0.9),
            None
        );
        // A trailing idle window breaks the suffix too.
        assert_eq!(time_to_alpha_fair(&times, &[Some(0.95), None], 0.9), None);
        assert_eq!(time_to_alpha_fair(&[], &[], 0.9), None);
        assert_eq!(time_to_alpha_fair(&times, &[Some(1.0)], 0.9), None);
    }
}
