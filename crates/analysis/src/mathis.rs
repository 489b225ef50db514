//! The Mathis throughput model (Mathis, Semke, Mahdavi, Ott 1997) and the
//! empirical constant-fitting procedure the paper uses (§4).
//!
//! ```text
//!               MSS · C
//! Throughput = ─────────      [bytes/sec when MSS is bytes]
//!               RTT · √p
//! ```
//!
//! `p` is the *congestion event rate* — the paper's central point is that
//! interpreting `p` as the packet-loss rate (common practice) diverges from
//! interpreting it as the CWND-halving rate once thousands of flows share a
//! fat pipe. Both interpretations flow through the same fitting code here;
//! the experiment harness supplies whichever `p` it is testing.
//!
//! Fitting follows the original paper's methodology: find the `C` that
//! minimizes the least-squared throughput prediction error over a set of
//! flow observations (closed form, since throughput is linear in `C`).

/// One flow's observation: measured throughput plus the model inputs.
#[derive(Debug, Clone, Copy)]
pub struct FlowObservation {
    /// Measured goodput in bytes/sec.
    pub throughput_bytes_per_sec: f64,
    /// Round-trip time in seconds (the paper uses the base RTT).
    pub rtt_secs: f64,
    /// Congestion event rate `p` (events per packet), under whichever
    /// interpretation is being evaluated.
    pub p: f64,
    /// Maximum segment size in bytes.
    pub mss_bytes: f64,
}

impl FlowObservation {
    /// The model's throughput-per-unit-C coefficient `MSS / (RTT · √p)`.
    /// `None` when `p` or RTT is non-positive (model undefined).
    pub fn coefficient(&self) -> Option<f64> {
        if self.p <= 0.0 || self.rtt_secs <= 0.0 || self.mss_bytes <= 0.0 {
            return None;
        }
        Some(self.mss_bytes / (self.rtt_secs * self.p.sqrt()))
    }

    /// Predicted throughput (bytes/sec) under constant `c`.
    pub fn predict(&self, c: f64) -> Option<f64> {
        Some(c * self.coefficient()?)
    }

    /// Relative prediction error `|pred − actual| / actual` under `c`.
    pub fn relative_error(&self, c: f64) -> Option<f64> {
        if self.throughput_bytes_per_sec <= 0.0 {
            return None;
        }
        let pred = self.predict(c)?;
        Some((pred - self.throughput_bytes_per_sec).abs() / self.throughput_bytes_per_sec)
    }
}

/// Predict throughput in bytes/sec for explicit parameters.
pub fn mathis_throughput(mss_bytes: f64, rtt_secs: f64, p: f64, c: f64) -> f64 {
    debug_assert!(p > 0.0 && rtt_secs > 0.0);
    c * mss_bytes / (rtt_secs * p.sqrt())
}

/// Result of fitting the Mathis constant to a set of observations.
#[derive(Debug, Clone)]
pub struct MathisFit {
    /// The least-squares-optimal constant `C`.
    pub c: f64,
    /// Per-flow relative prediction errors under the fitted `C`.
    pub relative_errors: Vec<f64>,
    /// Median of `relative_errors`.
    pub median_error: f64,
    /// Observations skipped because the model was undefined for them
    /// (zero `p`, zero throughput, …).
    pub skipped: usize,
}

/// Fit `C` by least squares over `obs`: minimizing
/// `Σ (C·k_i − T_i)²` gives `C = Σ T_i·k_i / Σ k_i²`, with
/// `k_i = MSS/(RTT·√p)`. Returns `None` when no observation is usable.
pub fn fit_constant(obs: &[FlowObservation]) -> Option<MathisFit> {
    let mut num = 0.0;
    let mut den = 0.0;
    let mut skipped = 0;
    for o in obs {
        match o.coefficient() {
            Some(k) if o.throughput_bytes_per_sec > 0.0 => {
                num += o.throughput_bytes_per_sec * k;
                den += k * k;
            }
            _ => skipped += 1,
        }
    }
    if den == 0.0 {
        return None;
    }
    let c = num / den;
    let relative_errors: Vec<f64> = obs.iter().filter_map(|o| o.relative_error(c)).collect();
    let median_error = crate::stats::median(&relative_errors)?;
    Some(MathisFit {
        c,
        relative_errors,
        median_error,
        skipped,
    })
}

/// Evaluate prediction errors under a *fixed* constant (e.g. applying an
/// EdgeScale-fitted `C` to CoreScale data). Returns the per-flow relative
/// errors; empty when no observation is usable.
pub fn errors_under_constant(obs: &[FlowObservation], c: f64) -> Vec<f64> {
    obs.iter().filter_map(|o| o.relative_error(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t: f64, rtt: f64, p: f64) -> FlowObservation {
        FlowObservation {
            throughput_bytes_per_sec: t,
            rtt_secs: rtt,
            p,
            mss_bytes: 1448.0,
        }
    }

    #[test]
    fn prediction_matches_formula() {
        // MSS=1448, RTT=20ms, p=0.01, C=1: 1448/(0.02*0.1) = 724_000 B/s.
        let o = obs(0.0, 0.02, 0.01);
        assert!((o.predict(1.0).unwrap() - 724_000.0).abs() < 1e-6);
        assert_eq!(
            mathis_throughput(1448.0, 0.02, 0.01, 1.0),
            o.predict(1.0).unwrap()
        );
    }

    #[test]
    fn fit_recovers_exact_constant() {
        // Synthetic flows generated exactly by the model with C = 0.94.
        let c_true = 0.94;
        let observations: Vec<FlowObservation> = (1..=20)
            .map(|i| {
                let p = 0.001 * i as f64;
                let rtt = 0.02;
                let t = mathis_throughput(1448.0, rtt, p, c_true);
                obs(t, rtt, p)
            })
            .collect();
        let fit = fit_constant(&observations).unwrap();
        assert!((fit.c - c_true).abs() < 1e-9);
        assert!(fit.median_error < 1e-9);
        assert_eq!(fit.skipped, 0);
    }

    #[test]
    fn fit_is_least_squares_under_noise() {
        // Perturb throughputs ±10% alternately; the optimal C still lands
        // near the true value and median error near 10%.
        let c_true = 1.2;
        let observations: Vec<FlowObservation> = (1..=100)
            .map(|i| {
                let p = 0.0005 * i as f64;
                let t = mathis_throughput(1448.0, 0.02, p, c_true);
                let noisy = if i % 2 == 0 { t * 1.1 } else { t * 0.9 };
                obs(noisy, 0.02, p)
            })
            .collect();
        let fit = fit_constant(&observations).unwrap();
        assert!((fit.c - c_true).abs() / c_true < 0.11);
        assert!(fit.median_error > 0.05 && fit.median_error < 0.15);
    }

    #[test]
    fn unusable_observations_are_skipped() {
        let observations = vec![
            obs(1000.0, 0.02, 0.01),
            obs(1000.0, 0.02, 0.0), // p = 0: skipped
            obs(0.0, 0.02, 0.01),   // zero throughput: skipped
        ];
        let fit = fit_constant(&observations).unwrap();
        assert_eq!(fit.skipped, 2);
        assert_eq!(fit.relative_errors.len(), 1);
    }

    #[test]
    fn all_unusable_yields_none() {
        assert!(fit_constant(&[obs(10.0, 0.02, 0.0)]).is_none());
        assert!(fit_constant(&[]).is_none());
    }

    #[test]
    fn errors_under_wrong_constant_scale_linearly() {
        let observations: Vec<FlowObservation> = (1..=10)
            .map(|i| {
                let p = 0.001 * i as f64;
                obs(mathis_throughput(1448.0, 0.02, p, 1.0), 0.02, p)
            })
            .collect();
        // Applying C = 2 to flows generated with C = 1 => 100% error.
        let errs = errors_under_constant(&observations, 2.0);
        for e in errs {
            assert!((e - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn higher_loss_predicts_lower_throughput() {
        let low = mathis_throughput(1448.0, 0.02, 0.001, 1.0);
        let high = mathis_throughput(1448.0, 0.02, 0.004, 1.0);
        // 4x the loss rate => half the throughput (inverse sqrt).
        assert!((low / high - 2.0).abs() < 1e-9);
    }
}
