//! Vocabulary of the runtime invariant watchdog.
//!
//! The watchdog itself runs inside `ccsim-core` (it needs access to the
//! built network's links and endpoints); this module defines what it
//! *says*: a [`WatchdogConfig`] carried by the
//! `Scenario`, and structured [`InvariantViolation`]s collected into a
//! [`WatchdogReport`] instead of `assert!`-style aborts. Like PR 2's
//! metrics, the watchdog is opt-in and digest-inert when off: checks are
//! read-only and the report never enters the `RunOutcome`.

use ccsim_sim::SimTime;
use std::fmt;

/// Watchdog switch carried by the scenario. Default is disabled — a
/// scenario that doesn't mention the watchdog behaves (and digests)
/// exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch; when false no check ever runs.
    pub enabled: bool,
    /// Run the checks every `every`-th runner slice (≥ 1). Slices are
    /// `snapshot_interval` long, so `every: 1` on the default scenarios
    /// checks once per simulated second.
    pub every: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::disabled()
    }
}

impl WatchdogConfig {
    /// No checks (the default).
    pub const fn disabled() -> WatchdogConfig {
        WatchdogConfig {
            enabled: false,
            every: 1,
        }
    }

    /// Check at every slice boundary — what CI's fault matrix runs.
    pub const fn every_slice() -> WatchdogConfig {
        WatchdogConfig {
            enabled: true,
            every: 1,
        }
    }

    /// Check every `every`-th slice boundary.
    pub const fn every_n(every: u32) -> WatchdogConfig {
        WatchdogConfig {
            enabled: true,
            every,
        }
    }

    /// Effective stride (guards against a hand-built `every: 0`).
    pub fn stride(&self) -> u64 {
        u64::from(self.every.max(1))
    }
}

/// Which invariant class a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Packet conservation at the bottleneck: over any interval,
    /// arrivals = drops (queue + fault) + transmissions + backlog change.
    Conservation,
    /// Queue occupancy within the configured buffer plus one in-service
    /// frame.
    QueueBound,
    /// Sender congestion state sane: cwnd ≥ 1 MSS, in-flight not
    /// wildly past cwnd, delivered ≤ sent.
    CwndSanity,
    /// Engine clock and processed-event counters never move backwards.
    TimeMonotonic,
}

impl InvariantKind {
    pub fn name(&self) -> &'static str {
        match self {
            InvariantKind::Conservation => "conservation",
            InvariantKind::QueueBound => "queue_bound",
            InvariantKind::CwndSanity => "cwnd_sanity",
            InvariantKind::TimeMonotonic => "time_monotonic",
        }
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One failed invariant check, with enough context to debug it from a
/// crash bundle alone.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// Engine time of the check that failed.
    pub at: SimTime,
    pub kind: InvariantKind,
    /// Human-readable specifics (the numbers that disagreed).
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.kind, self.at, self.detail)
    }
}

/// Everything the watchdog observed during a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WatchdogReport {
    /// Number of check passes executed (a clean report with zero checks
    /// means the watchdog never actually ran — CI distinguishes that).
    pub checks_run: u64,
    pub violations: Vec<InvariantViolation>,
}

impl WatchdogReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "watchdog: {} checks, {} violations",
            self.checks_run,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(!WatchdogConfig::default().enabled);
        assert!(WatchdogConfig::every_slice().enabled);
        assert_eq!(WatchdogConfig::every_n(5).stride(), 5);
    }

    #[test]
    fn zero_stride_is_clamped() {
        let cfg = WatchdogConfig {
            enabled: true,
            every: 0,
        };
        assert_eq!(cfg.stride(), 1);
    }

    #[test]
    fn report_displays_violations() {
        let mut report = WatchdogReport {
            checks_run: 3,
            violations: vec![],
        };
        assert!(report.is_clean());
        report.violations.push(InvariantViolation {
            at: SimTime::from_secs(7),
            kind: InvariantKind::Conservation,
            detail: "arrived 10 != accounted 9".into(),
        });
        let text = report.to_string();
        assert!(text.contains("1 violations"));
        assert!(text.contains("conservation"));
        assert!(!report.is_clean());
    }
}
