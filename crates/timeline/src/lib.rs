//! # ccsim-timeline — windowed time-series observability
//!
//! The run outcome answers *whether* a population converged; this crate
//! answers *when and how*. A [`Timeline`] is a digest-inert, bounded-memory
//! sampler the runner feeds at its existing slice boundaries: it closes one
//! row per configured sim-time window, recording per-flow series (goodput,
//! cwnd, srtt, inflight, retransmits), per-link series (utilization, queue
//! depth, drops, CE marks), and aggregate series (per-window JFI and
//! goodput) into lockstep columnar rings under a global byte budget.
//!
//! Everything the sampler touches is read-only simulator state, so capture
//! cannot perturb the run — the digest-inertness tests in the workspace
//! prove outcome digests stay byte-identical with the timeline on or off.
//!
//! Row semantics (shared with the window-boundary proptests):
//!
//! * the sampler is armed with window width `w`; a row closes at the first
//!   slice boundary at or after each multiple of `w`;
//! * each row spans `(prev_row_end, now]` — spans tile the run, so the
//!   per-row deltas telescope exactly back to the cumulative counters and
//!   no sample is lost or double-counted at slice edges;
//! * a forced close (warm-up boundary, end of run) emits a possibly-short
//!   row so counter resets never corrupt a delta.

pub mod export;
pub mod ring;
pub mod serve;

use ccsim_analysis::{jain_fairness_index, time_to_alpha_fair};
use ccsim_sim::{SimDuration, SimTime};
use ring::ColumnSet;

/// Series recorded per sampled flow, in column order.
pub const FLOW_SERIES: [&str; 5] = [
    "goodput_bps",
    "cwnd_bytes",
    "srtt_secs",
    "inflight_bytes",
    "retrans",
];

/// Series recorded per link, in column order.
pub const LINK_SERIES: [&str; 4] = ["utilization", "queue_bytes", "drops", "ce_marks"];

/// Aggregate series (over *all* flows, not just the sampled subset), in
/// column order. These lead the column list.
pub const AGG_SERIES: [&str; 2] = ["jfi", "goodput_bps"];

/// Finite sentinel stored in the JFI column for an idle window (no flow
/// delivered a byte, so [`jain_fairness_index`] is undefined). JFI is
/// strictly positive whenever defined, so any negative cell means "idle".
///
/// Earlier versions stored `NaN` here; that leaked non-finite floats to
/// every raw-row consumer (the `.cctl` dump, Prometheus republishers,
/// ad-hoc column readers) and made row equality checks lie. Readers that
/// want the optional view should use [`Timeline::jfi_series`] or compare
/// against zero, never `is_nan`.
pub const IDLE_JFI: f64 = -1.0;

/// Timeline capture configuration.
///
/// All-integer so the containing observe options stay `Copy + Eq`; α is
/// expressed in permille (`900` → 0.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Window width in sim time; a row closes at the first slice boundary
    /// at or after each multiple of this.
    pub window: SimDuration,
    /// Global byte budget for the retained rows (oldest evicted first).
    pub budget_bytes: u64,
    /// Per-flow series are kept for at most this many flows (the first N
    /// by flow id); aggregate series always cover every flow.
    pub max_flows: u32,
    /// α for time-to-α-fair, in permille (900 → JFI ≥ 0.9).
    pub alpha_permille: u32,
}

impl Default for TimelineConfig {
    fn default() -> TimelineConfig {
        TimelineConfig {
            window: SimDuration::from_millis(1000),
            budget_bytes: 4 * 1024 * 1024,
            max_flows: 64,
            alpha_permille: 900,
        }
    }
}

impl TimelineConfig {
    /// α as a fraction.
    pub fn alpha(&self) -> f64 {
        self.alpha_permille as f64 / 1000.0
    }
}

/// One flow's instantaneous + cumulative readings at a slice boundary.
/// Cumulative counts run from the sampler's start instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowPoint {
    /// Cumulative retransmissions (the sampler diffs consecutive rows).
    pub retransmits: u64,
    /// Current congestion window, bytes.
    pub cwnd_bytes: u64,
    /// Smoothed RTT, seconds (0 when unmeasured).
    pub srtt_secs: f64,
    /// Bytes currently in flight.
    pub inflight_bytes: u64,
}

/// One link's instantaneous + cumulative readings at a slice boundary.
/// Cumulative counts run from the sampler's start instant (or the last
/// [`Timeline::note_link_reset`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkPoint {
    /// Cumulative bytes transmitted (diffed per row).
    pub transmitted_bytes: u64,
    /// Cumulative packets dropped (diffed per row).
    pub dropped_pkts: u64,
    /// Cumulative packets CE-marked (diffed per row).
    pub ce_marked_pkts: u64,
    /// Current queue backlog, bytes.
    pub queue_bytes: u64,
    /// Link rate, bytes per second (for utilization).
    pub rate_bytes_per_sec: f64,
}

/// Sim-deterministic capture summary; the run manifest carries it as its
/// `timeline` section.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSummary {
    /// Configured window width, seconds.
    pub window_secs: f64,
    /// Rows ever closed.
    pub rows: u64,
    /// Rows still retained in the rings.
    pub retained: u64,
    /// Rows evicted to stay under budget.
    pub evicted: u64,
    /// Flows with per-flow series (≤ `max_flows`).
    pub flows_sampled: u32,
    /// Total series columns.
    pub series: u32,
    /// α used for time-to-α-fair.
    pub alpha: f64,
    /// End time (seconds) of the first window after which JFI stayed ≥ α,
    /// over the retained measurement rows. `None`: never converged (or no
    /// measurement rows).
    pub time_to_alpha_fair: Option<f64>,
    /// JFI of the last retained row.
    pub final_jfi: Option<f64>,
}

/// The windowed sampler. Feed it every slice boundary via [`Timeline::wants_row`]
/// + [`Timeline::push_row`]; it closes rows on its own window grid.
#[derive(Debug, Clone)]
pub struct Timeline {
    cfg: TimelineConfig,
    n_flows: usize,
    n_links: usize,
    sampled_flows: usize,
    columns: Vec<String>,
    rows: ColumnSet,
    last_row_t: SimTime,
    next_boundary: SimTime,
    /// First row index that lies past the warm-up boundary (rows before it
    /// are excluded from convergence diagnostics).
    measured_from: u64,
    /// The cumulative counts the last row closed at: per flow delivered
    /// bytes and (sampled flows) retransmits, per link transmitted bytes,
    /// drops and CE marks.
    prev_delivered: Vec<u64>,
    prev_retrans: Vec<u64>,
    prev_links: Vec<[u64; 3]>,
}

impl Timeline {
    /// A sampler starting at `start` (usually `SimTime::ZERO`) for a run
    /// with `n_flows` flows and `n_links` links. Every cumulative count it
    /// is fed runs from `start`, so its first row's deltas start at zero.
    pub fn new(cfg: TimelineConfig, n_flows: usize, n_links: usize, start: SimTime) -> Timeline {
        let sampled_flows = n_flows.min(cfg.max_flows as usize);
        let mut columns = Vec::new();
        for s in AGG_SERIES {
            columns.push(format!("agg/{s}"));
        }
        for f in 0..sampled_flows {
            for s in FLOW_SERIES {
                columns.push(format!("flow{f}/{s}"));
            }
        }
        for l in 0..n_links {
            for s in LINK_SERIES {
                columns.push(format!("link{l}/{s}"));
            }
        }
        let rows = ColumnSet::new(columns.len(), cfg.budget_bytes);
        Timeline {
            cfg,
            n_flows,
            n_links,
            sampled_flows,
            columns,
            rows,
            last_row_t: start,
            next_boundary: next_multiple(start, cfg.window),
            measured_from: 0,
            prev_delivered: vec![0; n_flows],
            prev_retrans: vec![0; sampled_flows],
            prev_links: vec![[0; 3]; n_links],
        }
    }

    /// The capture configuration.
    pub fn config(&self) -> &TimelineConfig {
        &self.cfg
    }

    /// Number of flows with per-flow series.
    pub fn sampled_flows(&self) -> usize {
        self.sampled_flows
    }

    /// Column names, in row-value order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The underlying row storage.
    pub fn rows(&self) -> &ColumnSet {
        &self.rows
    }

    /// True when the window grid calls for a row at slice boundary `now`.
    pub fn wants_row(&self, now: SimTime) -> bool {
        now >= self.next_boundary && now > self.last_row_t
    }

    /// Close the row `(last_row_end, now]`.
    ///
    /// `delivered_all` is the per-flow delivered-bytes vector over *all*
    /// flows, cumulative since the sampler's start; `flows` carries the
    /// first [`Timeline::sampled_flows`] flows; `links` covers every link.
    /// A zero-span call (repeat `now`) is a no-op, so forced closes compose
    /// with grid closes.
    pub fn push_row(
        &mut self,
        now: SimTime,
        delivered_all: &[u64],
        flows: &[FlowPoint],
        links: &[LinkPoint],
    ) {
        assert_eq!(delivered_all.len(), self.n_flows, "delivered vector arity");
        assert_eq!(flows.len(), self.sampled_flows, "flow point arity");
        assert_eq!(links.len(), self.n_links, "link point arity");
        if now <= self.last_row_t {
            return;
        }
        let span = (now - self.last_row_t).as_secs_f64();
        let mut values = Vec::with_capacity(self.columns.len());

        // Aggregate series over every flow.
        let deltas: Vec<f64> = delivered_all
            .iter()
            .zip(&self.prev_delivered)
            .map(|(&cur, &prev)| cur.saturating_sub(prev) as f64)
            .collect();
        values.push(jain_fairness_index(&deltas).unwrap_or(IDLE_JFI));
        values.push(deltas.iter().sum::<f64>() / span);

        for (f, (point, prev)) in flows.iter().zip(&mut self.prev_retrans).enumerate() {
            let goodput = delivered_all[f].saturating_sub(self.prev_delivered[f]) as f64 / span;
            values.push(goodput);
            values.push(point.cwnd_bytes as f64);
            values.push(point.srtt_secs);
            values.push(point.inflight_bytes as f64);
            values.push(point.retransmits.saturating_sub(*prev) as f64);
            *prev = point.retransmits;
        }
        for (point, prev) in links.iter().zip(&mut self.prev_links) {
            let now = [
                point.transmitted_bytes,
                point.dropped_pkts,
                point.ce_marked_pkts,
            ];
            let [tx, drops, ce] = [0, 1, 2].map(|k| now[k].saturating_sub(prev[k]) as f64);
            let capacity = point.rate_bytes_per_sec * span;
            values.push(if capacity > 0.0 { tx / capacity } else { 0.0 });
            values.extend([point.queue_bytes as f64, drops, ce]);
            *prev = now;
        }
        self.rows.push(now.as_secs_f64(), span, &values);

        self.prev_delivered.copy_from_slice(delivered_all);
        self.last_row_t = now;
        self.next_boundary = next_multiple(now, self.cfg.window);
    }

    /// Note that the links' cumulative counters were just reset to zero
    /// (the runner does this at the warm-up boundary, after a forced row
    /// close). Re-baselines the link deltas so the next row is not
    /// negative-clamped to zero.
    pub fn note_link_reset(&mut self) {
        self.prev_links.fill([0; 3]);
        // Rows so far are warm-up; convergence diagnostics start after.
        self.measured_from = self.rows.pushed();
    }

    /// Row end instants (seconds) and per-row JFI over the retained
    /// *measurement* rows (warm-up rows excluded); `None` JFI entries are
    /// idle windows.
    pub fn jfi_series(&self) -> (Vec<f64>, Vec<Option<f64>>) {
        let skip = self.measured_from.saturating_sub(self.rows.evicted()) as usize;
        let times = self.rows.times().skip(skip).collect();
        let jfi = self
            .rows
            .column(0)
            .skip(skip)
            // `< 0.0` catches [`IDLE_JFI`]; the non-finite arm is defensive
            // only (rows have stored no NaN since the sentinel went finite).
            .map(|v| {
                if v < 0.0 || !v.is_finite() {
                    None
                } else {
                    Some(v)
                }
            })
            .collect();
        (times, jfi)
    }

    /// Approximate resident bytes of the retained rows.
    pub fn memory_bytes(&self) -> usize {
        self.rows.memory_bytes()
    }

    /// The sim-deterministic capture summary for the run manifest.
    pub fn summary(&self) -> TimelineSummary {
        let (times, jfi) = self.jfi_series();
        TimelineSummary {
            window_secs: self.cfg.window.as_secs_f64(),
            rows: self.rows.pushed(),
            retained: self.rows.len() as u64,
            evicted: self.rows.evicted(),
            flows_sampled: self.sampled_flows as u32,
            series: self.columns.len() as u32,
            alpha: self.cfg.alpha(),
            time_to_alpha_fair: time_to_alpha_fair(&times, &jfi, self.cfg.alpha()),
            final_jfi: jfi.last().copied().flatten(),
        }
    }
}

/// The smallest multiple of `window` strictly after `t`.
fn next_multiple(t: SimTime, window: SimDuration) -> SimTime {
    let w = window.as_nanos().max(1);
    SimTime::from_nanos((t.as_nanos() / w + 1) * w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn flows(points: &[(u64, u64)]) -> Vec<FlowPoint> {
        points
            .iter()
            .map(|&(retransmits, cwnd_bytes)| FlowPoint {
                retransmits,
                cwnd_bytes,
                srtt_secs: 0.02,
                inflight_bytes: cwnd_bytes / 2,
            })
            .collect()
    }

    #[test]
    fn rows_close_on_the_window_grid() {
        let cfg = TimelineConfig {
            window: SimDuration::from_millis(100),
            ..TimelineConfig::default()
        };
        let mut tl = Timeline::new(cfg, 2, 0, SimTime::ZERO);
        // Slices every 40 ms: boundaries 40, 80, 120, 160, 200, ...
        assert!(!tl.wants_row(t(40)));
        assert!(!tl.wants_row(t(80)));
        assert!(tl.wants_row(t(120)), "first boundary past 100 ms");
        tl.push_row(t(120), &[1200, 600], &flows(&[(0, 10), (0, 10)]), &[]);
        assert!(!tl.wants_row(t(160)));
        assert!(tl.wants_row(t(200)), "boundary exactly on the grid");
        tl.push_row(t(200), &[2000, 1400], &flows(&[(1, 10), (0, 10)]), &[]);

        let rows = tl.rows();
        assert_eq!(rows.len(), 2);
        let (end, span, v) = rows.row(1).unwrap();
        assert!((end - 0.2).abs() < 1e-12);
        assert!((span - 0.08).abs() < 1e-12);
        // flow0 goodput: 800 bytes over 80 ms.
        assert!((v[2] - 800.0 / 0.08).abs() < 1e-9);
        // flow0 retrans delta.
        assert!((v[6] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_span_push_is_a_no_op() {
        let mut tl = Timeline::new(TimelineConfig::default(), 1, 0, SimTime::ZERO);
        tl.push_row(t(1000), &[100], &flows(&[(0, 1)]), &[]);
        let before = tl.rows().len();
        tl.push_row(t(1000), &[100], &flows(&[(0, 1)]), &[]);
        assert_eq!(tl.rows().len(), before);
    }

    #[test]
    fn link_reset_rebaselines_instead_of_clamping() {
        let cfg = TimelineConfig {
            window: SimDuration::from_millis(100),
            ..TimelineConfig::default()
        };
        let mut tl = Timeline::new(cfg, 1, 1, SimTime::ZERO);
        let link = |tx: u64| LinkPoint {
            transmitted_bytes: tx,
            dropped_pkts: 0,
            ce_marked_pkts: 0,
            queue_bytes: 0,
            rate_bytes_per_sec: 125_000.0,
        };
        // Warm-up row, then the runner resets link counters.
        tl.push_row(t(100), &[1000], &flows(&[(0, 1)]), &[link(12_500)]);
        tl.note_link_reset();
        // Post-reset counters restart from zero; utilization must use the
        // fresh baseline (6 250 bytes over 100 ms at 125 kB/s = 0.5).
        tl.push_row(t(200), &[2000], &flows(&[(0, 1)]), &[link(6_250)]);
        let (_, _, v) = tl.rows().row(1).unwrap();
        let util = v[AGG_SERIES.len() + FLOW_SERIES.len()];
        assert!((util - 0.5).abs() < 1e-9, "utilization {util}");
    }

    #[test]
    fn jfi_series_skips_warmup_and_summary_converges() {
        let cfg = TimelineConfig {
            window: SimDuration::from_millis(100),
            ..TimelineConfig::default()
        };
        let mut tl = Timeline::new(cfg, 2, 0, SimTime::ZERO);
        // Warm-up: wildly unfair.
        tl.push_row(t(100), &[1000, 0], &flows(&[(0, 1), (0, 1)]), &[]);
        tl.note_link_reset();
        // Measurement: perfectly fair deltas.
        tl.push_row(t(200), &[1500, 500], &flows(&[(0, 1), (0, 1)]), &[]);
        tl.push_row(t(300), &[2000, 1000], &flows(&[(0, 1), (0, 1)]), &[]);

        let (times, jfi) = tl.jfi_series();
        assert_eq!(times.len(), 2, "warm-up row excluded");
        assert!(jfi.iter().all(|j| (j.unwrap() - 1.0).abs() < 1e-12));

        let summary = tl.summary();
        assert_eq!(summary.rows, 3);
        assert_eq!(summary.retained, 3);
        assert_eq!(summary.time_to_alpha_fair, Some(0.2));
        assert!((summary.final_jfi.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_flow_series_cap_leaves_aggregates_global() {
        let cfg = TimelineConfig {
            window: SimDuration::from_millis(100),
            max_flows: 2,
            ..TimelineConfig::default()
        };
        let mut tl = Timeline::new(cfg, 4, 0, SimTime::ZERO);
        assert_eq!(tl.sampled_flows(), 2);
        assert_eq!(tl.columns().len(), AGG_SERIES.len() + 2 * FLOW_SERIES.len());
        // All four flows fair -> JFI 1 even though only two have series.
        tl.push_row(
            t(100),
            &[500, 500, 500, 500],
            &flows(&[(0, 1), (0, 1)]),
            &[],
        );
        let (_, _, v) = tl.rows().row(0).unwrap();
        assert!((v[0] - 1.0).abs() < 1e-12);
        // Aggregate goodput covers all flows: 2000 bytes over 100 ms.
        assert!((v[1] - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn idle_window_jfi_is_absent_not_zero() {
        let mut tl = Timeline::new(TimelineConfig::default(), 2, 0, SimTime::ZERO);
        tl.push_row(t(1000), &[0, 0], &flows(&[(0, 1), (0, 1)]), &[]);
        let (_, jfi) = tl.jfi_series();
        assert_eq!(jfi, vec![None]);
        assert_eq!(tl.summary().final_jfi, None);
    }

    #[test]
    fn idle_windows_store_a_finite_sentinel_never_nan() {
        // Regression: all-zero delta windows used to store NaN in the JFI
        // column, which leaked into raw-row consumers and broke equality.
        let mut tl = Timeline::new(TimelineConfig::default(), 2, 0, SimTime::ZERO);
        tl.push_row(t(1000), &[0, 0], &flows(&[(0, 1), (0, 1)]), &[]);
        tl.push_row(t(2000), &[500, 500], &flows(&[(0, 1), (0, 1)]), &[]);
        tl.push_row(t(3000), &[500, 500], &flows(&[(0, 1), (0, 1)]), &[]);
        for r in 0..tl.rows().len() {
            let (_, _, v) = tl.rows().row(r).unwrap();
            assert!(
                v.iter().all(|c| c.is_finite()),
                "row {r} carries a non-finite cell: {v:?}"
            );
        }
        let (_, _, idle) = tl.rows().row(0).unwrap();
        assert_eq!(idle[0], IDLE_JFI);
        // The optional view still reports idle windows as absent, and the
        // summary ignores them on both ends.
        let (_, jfi) = tl.jfi_series();
        assert_eq!(jfi[0], None);
        assert!((jfi[1].unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(tl.summary().final_jfi, None, "trailing idle window");
    }
}
