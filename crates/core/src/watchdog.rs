//! The runtime invariant watchdog driver.
//!
//! The vocabulary (config, violation, report) lives in
//! [`ccsim_fault::watchdog`]; this module is the part that actually looks
//! at a [`BuiltNetwork`] and checks the invariants at runner slice
//! boundaries. Everything here is **read-only**: the watchdog inspects
//! counters and component state but never mutates the simulation or
//! contributes to the outcome, so enabling it cannot change a run's
//! digest (asserted by the integration tests).
//!
//! Checked invariants (see [`InvariantKind`]):
//!
//! * **Conservation** — over any interval at every link of the topology,
//!   `Δarrived = Δdropped + Δtransmitted + Δbacklog_pkts`. Fault-injected
//!   drops count as drops and duplicates are minted *after* the
//!   transmission counter, so the identity holds under every fault kind.
//! * **QueueBound** — waiting bytes never exceed the configured buffer,
//!   on every link.
//! * **CwndSanity** — every started sender keeps `cwnd ≥ 1 MSS` and never
//!   delivers more than it sent.
//! * **TimeMonotonic** — the engine clock and event counter never move
//!   backwards between checks.

use crate::build::BuiltNetwork;
use crate::counters::{Counters, LinkCounts};
use crate::scenario::Scenario;
use ccsim_fault::{InvariantKind, InvariantViolation, WatchdogConfig, WatchdogReport};
use ccsim_net::link::Link;
use ccsim_sim::{SimTime, Snap, SnapError, SnapReader, SnapWriter};
use ccsim_tcp::receiver::Receiver;
use ccsim_tcp::sender::Sender;

/// Cap on recorded violations: a systemic bug fails every subsequent
/// check, and the report only needs enough instances to diagnose it.
const MAX_VIOLATIONS: usize = 64;

/// The per-run check driver. Constructed enabled or inert; an inert
/// watchdog's methods are no-ops so the runner calls them unconditionally.
pub(crate) struct Watchdog {
    cfg: WatchdogConfig,
    report: WatchdogReport,
    slice: u64,
    /// The links of the reading the conservation deltas start from: the
    /// warm-up reading once measuring, zero counters before it.
    base: Counters,
    last_now: SimTime,
    last_events: u64,
}

impl Watchdog {
    pub(crate) fn new(cfg: WatchdogConfig) -> Watchdog {
        Watchdog {
            cfg,
            report: WatchdogReport::default(),
            slice: 0,
            base: Counters::default(),
            last_now: SimTime::ZERO,
            last_events: 0,
        }
    }

    /// Re-anchor the conservation base on the warm-up reading, taken
    /// right after the warm-up boundary reset the link counters.
    pub(crate) fn rebaseline(&mut self, warmup: &Counters) {
        if self.cfg.enabled {
            self.base.links.clone_from(&warmup.links);
        }
    }

    /// True if any check has failed so far.
    pub(crate) fn tripped(&self) -> bool {
        !self.report.is_clean()
    }

    pub(crate) fn into_report(self) -> WatchdogReport {
        self.report
    }

    fn record(&mut self, at: SimTime, kind: InvariantKind, detail: String) {
        if self.report.violations.len() < MAX_VIOLATIONS {
            self.report
                .violations
                .push(InvariantViolation { at, kind, detail });
        }
    }

    /// Serialize the check-pass cursor for a checkpoint, with four counts
    /// per link of the base (arrived, dropped, transmitted, backlog).
    /// Violations are not serialized: a tripped watchdog aborts the run
    /// before any checkpoint can be taken, so checkpoints only ever hold
    /// clean state.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        let base = self.base.links.iter().map(|l| {
            let [arrived, dropped, transmitted, backlog, ..] = l.to_array();
            [arrived, dropped, transmitted, backlog]
        });
        let cursor = (self.slice, self.report.checks_run, self.last_now);
        (cursor, self.last_events, base.collect::<Vec<_>>()).put(w);
    }

    /// Overlay a checkpointed check-pass cursor.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let base: Vec<[u64; 4]>;
        let cursor: (u64, u64, SimTime);
        (cursor, self.last_events, base) = Snap::take(r)?;
        (self.slice, self.report.checks_run, self.last_now) = cursor;
        let base = base.into_iter().map(|[a, d, t, b]| [a, d, t, b, 0, 0]);
        self.base.links = base.map(LinkCounts::from_array).collect();
        Ok(())
    }

    /// Run one check pass at a slice boundary (respecting the stride).
    /// Returns `true` if this pass found a new violation.
    pub(crate) fn check(&mut self, net: &BuiltNetwork, scenario: &Scenario) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        self.slice += 1;
        if !(self.slice - 1).is_multiple_of(self.cfg.stride()) {
            return false;
        }
        let before = self.report.violations.len();
        self.report.checks_run += 1;
        let now = net.sim.now();
        let events = net.sim.events_processed();

        // Time monotonicity.
        if now < self.last_now || events < self.last_events {
            self.record(
                now,
                InvariantKind::TimeMonotonic,
                format!(
                    "clock {now} < {} or events {events} < {}",
                    self.last_now, self.last_events
                ),
            );
        }
        self.last_now = now;
        self.last_events = events;

        // Before the first rebaseline every delta is measured from zero
        // counters, which is exactly what a fresh simulator has. The base
        // holds one entry per link from the first pass on, as checkpoints
        // have always recorded it.
        self.base
            .links
            .resize(net.links.len(), LinkCounts::default());
        let window = Counters::read_some(net, 0, &[], false).since(&self.base);

        for (li, (&link_id, d)) in net.links.iter().zip(&window.links).enumerate() {
            let link = net.sim.component::<Link>(link_id);

            // Conservation at this link. The backlog is a level whose
            // delta may be negative, so the identity is checked modulo
            // 2^64 and the deltas print signed.
            let accounted = d.dropped_pkts.wrapping_add(d.transmitted_pkts);
            if d.arrived_pkts != accounted.wrapping_add(d.backlog_pkts) {
                self.record(
                    now,
                    InvariantKind::Conservation,
                    format!(
                        "link {li}: Δarrived {} != Δdropped {} + Δtransmitted {} + Δbacklog {}",
                        d.arrived_pkts as i64,
                        d.dropped_pkts as i64,
                        d.transmitted_pkts as i64,
                        d.backlog_pkts as i64
                    ),
                );
            }

            // Queue bound: waiting bytes within the configured buffer.
            let backlog = link.backlog_bytes();
            let buffer = link.buffer_bytes();
            if backlog > buffer {
                self.record(
                    now,
                    InvariantKind::QueueBound,
                    format!("link {li}: backlog {backlog} B > buffer {buffer} B"),
                );
            }
        }

        // Sender congestion-state sanity. Flows that haven't started yet
        // (jitter window) are skipped via the start-time table.
        let mss = u64::from(scenario.mss);
        for (i, &id) in net.senders.iter().enumerate() {
            if net.start_times[i] > now {
                continue;
            }
            let sender = net.sim.component::<Sender>(id);
            let cwnd = sender.cca().cwnd();
            if cwnd < mss {
                self.record(
                    now,
                    InvariantKind::CwndSanity,
                    format!("flow {i}: cwnd {cwnd} B < 1 MSS ({mss} B)"),
                );
            }
            let sent = sender.stats().bytes_sent;
            let delivered = net
                .sim
                .component::<Receiver>(net.receivers[i])
                .delivered_bytes();
            if delivered > sent {
                self.record(
                    now,
                    InvariantKind::CwndSanity,
                    format!("flow {i}: delivered {delivered} B > sent {sent} B"),
                );
            }
        }

        self.report.violations.len() > before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FlowGroup;
    use ccsim_cca::CcaKind;
    use ccsim_sim::{Bandwidth, SimDuration};

    fn tiny() -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("wd-tiny")
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .seed(11);
        s.bottleneck = Bandwidth::from_mbps(10);
        s.buffer_bytes = 100_000;
        s.start_jitter = SimDuration::from_millis(100);
        s.warmup = SimDuration::from_secs(1);
        s.duration = SimDuration::from_secs(2);
        s
    }

    #[test]
    fn disabled_watchdog_never_checks() {
        let s = tiny();
        let net = BuiltNetwork::build(&s);
        let mut wd = Watchdog::new(WatchdogConfig::disabled());
        assert!(!wd.check(&net, &s));
        assert_eq!(wd.into_report().checks_run, 0);
    }

    #[test]
    fn clean_run_passes_all_checks() {
        let s = tiny();
        let mut net = BuiltNetwork::build(&s);
        let mut wd = Watchdog::new(WatchdogConfig::every_slice());
        wd.rebaseline(&Counters::read(&net));
        for k in 1..=10u64 {
            net.sim
                .run_until(SimTime::ZERO + SimDuration::from_millis(300 * k));
            assert!(!wd.check(&net, &s), "violation at slice {k}");
        }
        let report = wd.into_report();
        assert_eq!(report.checks_run, 10);
        assert!(report.is_clean());
    }

    #[test]
    fn stride_skips_slices() {
        let s = tiny();
        let mut net = BuiltNetwork::build(&s);
        let mut wd = Watchdog::new(WatchdogConfig::every_n(3));
        wd.rebaseline(&Counters::read(&net));
        for k in 1..=9u64 {
            net.sim
                .run_until(SimTime::ZERO + SimDuration::from_millis(100 * k));
            wd.check(&net, &s);
        }
        // Slices 1, 4, 7 → 3 passes.
        assert_eq!(wd.into_report().checks_run, 3);
    }

    #[test]
    fn stale_baseline_trips_conservation() {
        let s = tiny();
        let mut net = BuiltNetwork::build(&s);
        let mut wd = Watchdog::new(WatchdogConfig::every_slice());
        wd.rebaseline(&Counters::read(&net));
        net.sim.run_until(SimTime::from_secs(1));
        // Corrupt the baseline behind the watchdog's back: the deltas can
        // no longer balance, which is exactly the kind of counter
        // corruption the check exists to catch.
        wd.base.links[0].arrived_pkts += 1000;
        assert!(wd.check(&net, &s));
        let report = wd.into_report();
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].kind, InvariantKind::Conservation);
    }
}
