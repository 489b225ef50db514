//! Order statistics for run sets.
//!
//! [`quartiles`] reproduces Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is the formula the
//! acceptance check applies to ten runs of each workload: a spread
//! computed here is the spread the check will see.

/// Sorted copy (NaNs, which no metric should produce, sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// Needs at least two values; fewer return the single value thrice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The value a run reports for a timing taken several times: the first
/// quartile. On a shared box noise only ever *adds* time (a busy sibling
/// core, page faults served late), so the low end of the samples is where
/// the code's own cost shows; over three ten-seed sets it spread less from
/// run to run than the median did in 11 of 15 cells (README, "Bounds and
/// steadiness"). A real slow-down moves every sample and so moves this too. (With two
/// samples Python's formula extrapolates below both; the smaller one is
/// returned instead, so the value is always one that was measured or lies
/// between two that were.)
pub fn low_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quartiles(values).0.max(min(values))
}

/// Interquartile range as a share of the median — the steadiness figure
/// compared against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Coefficient of variation (sample standard deviation / mean).
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt() / mean.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), (3.0, 4.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn low_quartile_ignores_a_slow_tail() {
        let clean = [2.0, 2.1, 2.05, 2.02, 2.08, 2.04];
        let noisy = [2.0, 2.1, 2.05, 2.02, 6.0, 5.5];
        assert!((low_quartile(&clean) - low_quartile(&noisy)).abs() < 0.02);
        assert!(median(&noisy) - median(&clean) > 0.02);
        assert_eq!(low_quartile(&[3.0]), 3.0);
        assert_eq!(low_quartile(&[3.0, 2.0]), 2.0);
        assert_eq!(low_quartile(&[]), 0.0);
    }

    #[test]
    fn cv_and_min() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        let c = cv(&[1.0, 2.0, 3.0]);
        assert!((c - 0.5).abs() < 1e-12, "{c}");
    }
}
