//! The regression sentinel: compare two ledgers of the same campaign.
//!
//! `campaign diff <baseline> <current>` matches entries by config digest
//! and flags, in decreasing order of severity:
//!
//! 1. **Determinism breaks** — the same configuration produced a
//!    different outcome digest. The simulator is bit-reproducible for a
//!    seed, so any mismatch is a behavior change, never noise.
//! 2. **Status changes** — a run that used to succeed now fails (or vice
//!    versa).
//! 3. **Fidelity drift** — a paper metric with a drift tolerance in
//!    [`METRICS`] (JFI, Mathis median error, synchronization index,
//!    convergence time) moved beyond the tolerance stored in the
//!    baseline header. Only reachable when the digest *also* changed, but
//!    reported separately because it means the change is large enough to
//!    alter the paper's conclusions, not just flip low bits.
//! 4. **Throughput regressions** — events/sec dropped by more than the
//!    configured fraction (default 10%). Only meaningful when both
//!    ledgers come from comparable hardware; `--skip-eps` disables it.
//! 5. **Coverage changes** — configs present in one ledger only.

use crate::ledger::{Ledger, LedgerEntry};
use crate::metric::METRICS;
use std::fmt::Write as _;

/// What kind of regression a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    DeterminismBreak,
    StatusChange,
    FidelityDrift,
    EpsRegression,
    Missing,
    Added,
}

impl FindingKind {
    fn label(self) -> &'static str {
        match self {
            FindingKind::DeterminismBreak => "determinism-break",
            FindingKind::StatusChange => "status-change",
            FindingKind::FidelityDrift => "fidelity-drift",
            FindingKind::EpsRegression => "eps-regression",
            FindingKind::Missing => "missing",
            FindingKind::Added => "added",
        }
    }
}

/// One flagged difference.
#[derive(Debug, Clone)]
pub struct Finding {
    pub kind: FindingKind,
    /// Job name (from the current ledger where present).
    pub job: String,
    pub detail: String,
}

/// Sentinel configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Maximum tolerated fractional events/sec drop. `None` uses the
    /// baseline header's `events_per_sec_frac`.
    pub eps_tol: Option<f64>,
    /// Whether to check events/sec at all (off for cross-machine diffs).
    pub check_eps: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            eps_tol: None,
            check_eps: true,
        }
    }
}

/// The sentinel's verdict.
#[derive(Debug, Clone)]
pub struct DiffReport {
    pub findings: Vec<Finding>,
    /// Number of configs present in both ledgers.
    pub compared: usize,
}

impl DiffReport {
    /// True when nothing was flagged — the gate `campaign diff` exits 0 on.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Count findings of one kind.
    pub fn count(&self, kind: FindingKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }

    /// Human-readable summary (what `campaign diff` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            let _ = writeln!(
                out,
                "clean: {} configs compared, no findings",
                self.compared
            );
            return out;
        }
        let _ = writeln!(
            out,
            "{} finding(s) across {} compared config(s):",
            self.findings.len(),
            self.compared
        );
        for f in &self.findings {
            let _ = writeln!(out, "  [{}] {}: {}", f.kind.label(), f.job, f.detail);
        }
        out
    }
}

/// Compare `current` against `baseline`. Tolerances come from the
/// baseline header ([`crate::spec::Tolerances`]), with the events/sec
/// fraction overridable via [`DiffOptions::eps_tol`].
pub fn diff(baseline: &Ledger, current: &Ledger, opts: &DiffOptions) -> DiffReport {
    let tol = &baseline.tolerances;
    let eps_tol = opts.eps_tol.unwrap_or(tol.events_per_sec_frac);
    let base_idx = baseline.by_config();
    let cur_idx = current.by_config();
    let mut findings = Vec::new();
    let mut compared = 0usize;

    for base in &baseline.entries {
        let Some(&cur) = cur_idx.get(base.config_digest.as_str()) else {
            findings.push(Finding {
                kind: FindingKind::Missing,
                job: base.job.clone(),
                detail: format!("config {} present in baseline only", base.config_digest),
            });
            continue;
        };
        compared += 1;
        compare_pair(&mut findings, base, cur, tol, eps_tol, opts.check_eps);
    }
    for cur in &current.entries {
        if !base_idx.contains_key(cur.config_digest.as_str()) {
            findings.push(Finding {
                kind: FindingKind::Added,
                job: cur.job.clone(),
                detail: format!("config {} present in current only", cur.config_digest),
            });
        }
    }
    DiffReport { findings, compared }
}

fn compare_pair(
    findings: &mut Vec<Finding>,
    base: &LedgerEntry,
    cur: &LedgerEntry,
    tol: &crate::spec::Tolerances,
    eps_tol: f64,
    check_eps: bool,
) {
    match (base.ok(), cur.ok()) {
        (true, false) => {
            findings.push(Finding {
                kind: FindingKind::StatusChange,
                job: cur.job.clone(),
                detail: format!(
                    "run now fails: {}",
                    cur.error.as_deref().unwrap_or("unknown error")
                ),
            });
            return;
        }
        (false, true) => {
            findings.push(Finding {
                kind: FindingKind::StatusChange,
                job: cur.job.clone(),
                detail: "run now succeeds (baseline had a failure)".to_string(),
            });
            return;
        }
        (false, false) => return,
        (true, true) => {}
    }

    if base.outcome_digest != cur.outcome_digest {
        findings.push(Finding {
            kind: FindingKind::DeterminismBreak,
            job: cur.job.clone(),
            detail: format!(
                "outcome digest {} -> {}",
                base.outcome_digest.as_deref().unwrap_or("?"),
                cur.outcome_digest.as_deref().unwrap_or("?")
            ),
        });
    }
    // A metric gates only when both entries carry it: a baseline recorded
    // without `--timeline` never gates convergence time.
    for metric in METRICS {
        let Some(tolerance) = metric.tolerance.map(|t| t(tol)) else {
            continue;
        };
        if let (Some(b), Some(c)) = ((metric.read)(base), (metric.read)(cur)) {
            if (c - b).abs() > tolerance {
                findings.push(Finding {
                    kind: FindingKind::FidelityDrift,
                    job: cur.job.clone(),
                    detail: format!(
                        "{} drifted {b:.4} -> {c:.4} (tolerance ±{tolerance})",
                        metric.name
                    ),
                });
            }
        }
    }
    if check_eps && base.events_per_sec > 0.0 {
        let frac = (base.events_per_sec - cur.events_per_sec) / base.events_per_sec;
        if frac > eps_tol {
            findings.push(Finding {
                kind: FindingKind::EpsRegression,
                job: cur.job.clone(),
                detail: format!(
                    "events/sec fell {:.1}% ({:.0} -> {:.0}, tolerance {:.0}%)",
                    frac * 100.0,
                    base.events_per_sec,
                    cur.events_per_sec,
                    eps_tol * 100.0
                ),
            });
        }
    }
    // Per-kind gate: a regression confined to one event kind (say, timer
    // dispatch got slow) can hide inside a flat aggregate when that kind
    // is a small share of the stream. Only kinds present in both entries
    // are compared, so unprofiled ledgers on either side are a no-op.
    if check_eps {
        for (kind, base_eps) in &base.eps_by_kind {
            if *base_eps <= 0.0 {
                continue;
            }
            let Some((_, cur_eps)) = cur.eps_by_kind.iter().find(|(k, _)| k == kind) else {
                continue;
            };
            let frac = (base_eps - cur_eps) / base_eps;
            if frac > eps_tol {
                findings.push(Finding {
                    kind: FindingKind::EpsRegression,
                    job: cur.job.clone(),
                    detail: format!(
                        "{kind} events/sec fell {:.1}% ({:.0} -> {:.0}, tolerance {:.0}%)",
                        frac * 100.0,
                        base_eps,
                        cur_eps,
                        eps_tol * 100.0
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rollup;
    use crate::spec::Tolerances;

    fn entry(seed: u64) -> LedgerEntry {
        LedgerEntry {
            job: format!("c/seed={seed}"),
            axis: Vec::new(),
            seed,
            config_digest: format!("{seed:016x}"),
            outcome_digest: Some(format!("{:016x}", seed * 31)),
            error: None,
            crash_bundle: None,
            attempts: 1,
            quarantined: false,
            sim_secs: 5.0,
            wall_secs: 0.5,
            events_processed: 1_000_000,
            events_per_sec: 2_000_000.0,
            eps_by_kind: Vec::new(),
            metrics: Some(Rollup {
                jfi: Some(0.95),
                utilization: 0.9,
                aggregate_mbps: 9.0,
                loss_rate: 0.01,
                mathis_err: Some(0.10),
                sync_index: Some(0.5),
                share_a: Some(1.0),
                convergence_time: Some(2.0),
                ..Rollup::default()
            }),
            manifest: None,
        }
    }

    fn ledger(entries: Vec<LedgerEntry>) -> Ledger {
        let mut l = Ledger::new("c", Tolerances::default());
        l.entries = entries;
        l
    }

    #[test]
    fn identical_ledgers_are_clean() {
        let a = ledger(vec![entry(1), entry(2)]);
        let report = diff(&a, &a.clone(), &DiffOptions::default());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.compared, 2);
        assert!(report.render().contains("clean"));
    }

    #[test]
    fn digest_change_is_a_determinism_break() {
        let base = ledger(vec![entry(1)]);
        let mut cur = ledger(vec![entry(1)]);
        cur.entries[0].outcome_digest = Some("deadbeefdeadbeef".into());
        let report = diff(&base, &cur, &DiffOptions::default());
        assert_eq!(report.count(FindingKind::DeterminismBreak), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn metric_drift_beyond_tolerance_is_flagged() {
        let base = ledger(vec![entry(1)]);
        let mut cur = ledger(vec![entry(1)]);
        let m = cur.entries[0].metrics.as_mut().unwrap();
        m.jfi = Some(0.80); // drift 0.15 > default tolerance 0.05
        let report = diff(&base, &cur, &DiffOptions::default());
        assert_eq!(report.count(FindingKind::FidelityDrift), 1);
        assert!(report.render().contains("jfi"));
        // Within tolerance: clean.
        let mut close = ledger(vec![entry(1)]);
        close.entries[0].metrics.as_mut().unwrap().jfi = Some(0.92);
        assert!(diff(&base, &close, &DiffOptions::default()).is_clean());
    }

    #[test]
    fn convergence_time_drift_gate() {
        let base = ledger(vec![entry(1)]);
        // Drift beyond the 1.0s default tolerance fires.
        let mut cur = ledger(vec![entry(1)]);
        cur.entries[0].metrics.as_mut().unwrap().convergence_time = Some(3.5);
        let report = diff(&base, &cur, &DiffOptions::default());
        assert_eq!(report.count(FindingKind::FidelityDrift), 1);
        assert!(report.render().contains("convergence_time"));
        // Within tolerance: clean.
        let mut close = ledger(vec![entry(1)]);
        close.entries[0].metrics.as_mut().unwrap().convergence_time = Some(2.6);
        assert!(diff(&base, &close, &DiffOptions::default()).is_clean());
        // A baseline without timelines never gates the metric.
        let mut legacy = ledger(vec![entry(1)]);
        legacy.entries[0].metrics.as_mut().unwrap().convergence_time = None;
        assert!(diff(&legacy, &cur, &DiffOptions::default()).is_clean());
    }

    #[test]
    fn eps_regression_gate() {
        let base = ledger(vec![entry(1)]);
        let mut cur = ledger(vec![entry(1)]);
        cur.entries[0].events_per_sec = 1_500_000.0; // 25% drop
        let report = diff(&base, &cur, &DiffOptions::default());
        assert_eq!(report.count(FindingKind::EpsRegression), 1);
        // --skip-eps silences it.
        let skipped = diff(
            &base,
            &cur,
            &DiffOptions {
                eps_tol: None,
                check_eps: false,
            },
        );
        assert!(skipped.is_clean());
        // Speedups are never findings.
        let mut faster = ledger(vec![entry(1)]);
        faster.entries[0].events_per_sec = 9_000_000.0;
        assert!(diff(&base, &faster, &DiffOptions::default()).is_clean());
    }

    #[test]
    fn per_kind_eps_regression_gate() {
        let mut b = entry(1);
        b.eps_by_kind = vec![
            ("data".into(), 1_000_000.0),
            ("ack".into(), 500_000.0),
            ("timer".into(), 100_000.0),
        ];
        let base = ledger(vec![b.clone()]);

        // Aggregate flat, but timer dispatch fell 25%: the per-kind gate
        // catches what the aggregate one cannot.
        let mut doctored = b.clone();
        doctored.eps_by_kind[2].1 = 75_000.0;
        let cur = ledger(vec![doctored]);
        let report = diff(&base, &cur, &DiffOptions::default());
        assert_eq!(report.count(FindingKind::EpsRegression), 1);
        assert!(report.render().contains("timer events/sec fell 25.0%"));

        // Within tolerance (default 10%): clean.
        let mut close = b.clone();
        close.eps_by_kind[2].1 = 95_000.0;
        assert!(diff(&base, &ledger(vec![close]), &DiffOptions::default()).is_clean());

        // A current entry without per-kind data (unprofiled run) is not
        // a finding, and neither is a per-kind speedup.
        let mut bare = b.clone();
        bare.eps_by_kind.clear();
        assert!(diff(&base, &ledger(vec![bare]), &DiffOptions::default()).is_clean());
        let mut faster = b.clone();
        faster.eps_by_kind[0].1 = 9_000_000.0;
        assert!(diff(&base, &ledger(vec![faster]), &DiffOptions::default()).is_clean());

        // --skip-eps silences the per-kind gate too.
        let mut worse = b;
        worse.eps_by_kind[2].1 = 1.0;
        let skipped = diff(
            &base,
            &ledger(vec![worse]),
            &DiffOptions {
                eps_tol: None,
                check_eps: false,
            },
        );
        assert!(skipped.is_clean());
    }

    #[test]
    fn coverage_changes_are_flagged() {
        let base = ledger(vec![entry(1), entry(2)]);
        let cur = ledger(vec![entry(2), entry(3)]);
        let report = diff(&base, &cur, &DiffOptions::default());
        assert_eq!(report.count(FindingKind::Missing), 1);
        assert_eq!(report.count(FindingKind::Added), 1);
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn status_flips_are_flagged() {
        let base = ledger(vec![entry(1)]);
        let mut cur = ledger(vec![entry(1)]);
        cur.entries[0].outcome_digest = None;
        cur.entries[0].error = Some("boom".into());
        let report = diff(&base, &cur, &DiffOptions::default());
        assert_eq!(report.count(FindingKind::StatusChange), 1);
    }
}
