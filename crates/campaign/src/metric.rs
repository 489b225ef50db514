//! One table of campaign metrics.
//!
//! Every number a campaign judges the paper by — Table 1's two Mathis
//! constants, Figure 2's errors, Figure 3's ratio, the JFIs of Figure 4
//! and Finding 4, the shares of Figures 5–8 — is one row of [`METRICS`]:
//! its name, how it is read out of a finished run, how it is read back
//! from a ledger entry, how its key appears in the ledger, the paper
//! artefact the report cites and the drift tolerance `campaign diff`
//! applies. The rollup, the ledger codec, the report's tables, the
//! expectation check and the sentinel all walk this table, so a new metric
//! is one row plus its [`Rollup`] field.

use crate::ledger::LedgerEntry;
use crate::spec::Tolerances;
use ccsim_analysis::mathis::{fit_constant, MathisFit};
use ccsim_cca::CcaKind;
use ccsim_core::{BottleneckMetrics, ObservedRun, PInterpretation, RunOutcome};
use ccsim_sim::SimDuration;
use ccsim_telemetry::RunManifest;

/// The trace bin used for the ledger's synchronization-index rollup
/// (matches the CLI's `--sync-bin` default).
pub(crate) const SYNC_BIN: SimDuration = SimDuration::from_millis(10);

/// The paper-fidelity metrics distilled from one run — what the ledger
/// stores per entry and what `campaign diff` compares across ledgers.
/// Each field is one row of [`METRICS`], which says how the run fills it
/// and how the ledger writes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollup {
    /// Jain's Fairness Index across all flows.
    pub jfi: Option<f64>,
    /// Bottleneck utilization over the window.
    pub utilization: f64,
    /// Aggregate throughput, Mbps.
    pub aggregate_mbps: f64,
    /// Aggregate bottleneck loss rate.
    pub loss_rate: f64,
    /// Median relative Mathis prediction error (packet-loss
    /// interpretation) for the run's majority CCA.
    pub mathis_err: Option<f64>,
    /// Trace-based loss-synchronization index (needs tracing enabled).
    pub sync_index: Option<f64>,
    /// Goh–Barabási burstiness of the drop train.
    pub drop_burstiness: Option<f64>,
    /// Throughput share of the first flow group's CCA.
    pub share_a: Option<f64>,
    /// Best-fit Mathis constant for the majority CCA with `p` = packet
    /// loss rate (Table 1).
    pub mathis_c_loss: Option<f64>,
    /// Best-fit Mathis constant with `p` = CWND-halving rate (Table 1).
    pub mathis_c_halving: Option<f64>,
    /// Median relative Mathis prediction error under the halving-rate
    /// fit (Figure 2; `mathis_err` is the packet-loss side).
    pub mathis_err_halving: Option<f64>,
    /// Packet-loss to CWND-halving ratio (Figure 3).
    pub loss_to_halving_ratio: Option<f64>,
    /// Time to α-fair convergence (seconds, sim time) from the run's
    /// timeline capture. `None` for runs without a timeline and runs that
    /// never reached α.
    pub convergence_time: Option<f64>,
    /// Per-bottleneck utilization/fairness records. Empty for legacy
    /// single-bottleneck drop-tail runs (the runner only populates them
    /// for topology-subsystem configurations), so old ledger lines parse
    /// and re-serialize byte-identically.
    pub bottlenecks: Vec<BottleneckMetrics>,
}

/// A finished run as the extractors see it: the outcome, its manifest
/// (the timeline summary and the event rate live there, because the
/// outcome stays digest-inert), and the majority CCA's two Mathis fits,
/// made once for the four rows that read them.
pub(crate) struct Run<'a> {
    outcome: &'a RunOutcome,
    manifest: &'a RunManifest,
    loss_fit: Option<MathisFit>,
    halving_fit: Option<MathisFit>,
}

impl<'a> Run<'a> {
    pub(crate) fn new(obs: &'a ObservedRun) -> Run<'a> {
        let outcome = &obs.outcome;
        let majority = majority_cca(outcome);
        let fit = |p| majority.and_then(|cca| fit_constant(&outcome.mathis_observations(cca, p)));
        Run {
            outcome,
            manifest: &obs.manifest,
            loss_fit: fit(PInterpretation::PacketLoss),
            halving_fit: fit(PInterpretation::CwndHalving),
        }
    }
}

fn majority_cca(outcome: &RunOutcome) -> Option<CcaKind> {
    let mut kinds: Vec<CcaKind> = outcome.flow_cca.clone();
    kinds.sort_by_key(|k| k.name());
    kinds.dedup();
    kinds.into_iter().max_by_key(|&k| outcome.count_of(k))
}

/// Worst-case fairness across a topology's bottlenecks — lets an
/// expectation bound every congested link at once.
fn worst_jfi(bottlenecks: &[BottleneckMetrics]) -> Option<f64> {
    bottlenecks
        .iter()
        .filter_map(|b| b.jfi)
        .min_by(f64::total_cmp)
}

/// The one metric kept on the ledger entry itself rather than in its
/// `metrics` object; the entry codec writes its key by this name.
pub(crate) const EVENTS_PER_SEC: &str = "events_per_sec";

/// How a metric's key appears in a ledger entry's `metrics` object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Presence {
    /// Always written: the field is a plain `f64`.
    Always,
    /// Written as `null` when the run has no value.
    NullWhenNone,
    /// Left out when the run has no value, so ledger lines that predate
    /// the key re-serialize byte-identically.
    AbsentWhenNone,
    /// Never written there: derived from other keys, or kept on the entry.
    NotStored,
}

/// One campaign metric, as every part of the campaign layer spells it.
pub struct Metric {
    /// The name an expectation, a ledger key and a report column use.
    pub name: &'static str,
    pub(crate) presence: Presence,
    /// Reads the metric out of a finished run.
    pub(crate) extract: fn(&Run<'_>) -> Option<f64>,
    /// Reads the metric back from a ledger entry.
    pub(crate) read: fn(&LedgerEntry) -> Option<f64>,
    /// Puts a value into the rollup; does nothing for a row not stored.
    pub(crate) store: fn(&mut Rollup, f64),
    /// The paper artefact the report cites; rows without one are not
    /// report columns.
    pub(crate) paper: Option<&'static str>,
    /// The drift `campaign diff` tolerates between two runs of one config.
    pub(crate) tolerance: Option<fn(&Tolerances) -> f64>,
}

impl Metric {
    /// The row named `name`.
    pub fn find(name: &str) -> Option<&'static Metric> {
        METRICS.iter().find(|m| m.name == name)
    }

    /// Every row's name, comma-separated, in table order.
    pub fn names() -> String {
        let names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.join(", ")
    }
}

use Presence::{AbsentWhenNone, Always, NotStored, NullWhenNone};

/// Every campaign metric. Stored rows are in the order the ledger writes
/// their keys; the report's columns follow the same order. Two lines a
/// row, so rustfmt leaves the table alone.
#[rustfmt::skip]
pub static METRICS: &[Metric] = &[
    Metric { name: "jfi", presence: NullWhenNone, paper: Some("Figure 4 + Finding 4 (intra-CCA fairness)"), tolerance: Some(|t| t.jfi),
        extract: |r| r.outcome.jain_index(), read: |e| e.metrics.as_ref()?.jfi, store: |m, v| m.jfi = Some(v) },
    Metric { name: "utilization", presence: Always, paper: Some("§3 testbed (bottleneck saturation)"), tolerance: None,
        extract: |r| Some(r.outcome.utilization()), read: |e| Some(e.metrics.as_ref()?.utilization), store: |m, v| m.utilization = v },
    Metric { name: "aggregate_mbps", presence: Always, paper: None, tolerance: None,
        extract: |r| Some(r.outcome.aggregate_throughput_mbps()), read: |e| Some(e.metrics.as_ref()?.aggregate_mbps), store: |m, v| m.aggregate_mbps = v },
    Metric { name: "loss_rate", presence: Always, paper: Some("§4 (the Mathis model's p, read as packet loss)"), tolerance: None,
        extract: |r| Some(r.outcome.aggregate_loss_rate), read: |e| Some(e.metrics.as_ref()?.loss_rate), store: |m, v| m.loss_rate = v },
    Metric { name: "mathis_err", presence: NullWhenNone, paper: Some("Figure 2 (median error, packet-loss rate)"), tolerance: Some(|t| t.mathis_err),
        extract: |r| Some(r.loss_fit.as_ref()?.median_error), read: |e| e.metrics.as_ref()?.mathis_err, store: |m, v| m.mathis_err = Some(v) },
    Metric { name: "sync_index", presence: NullWhenNone, paper: Some("§5 (loss synchronization)"), tolerance: Some(|t| t.sync_index),
        extract: |r| r.outcome.trace_synchronization_index(SYNC_BIN), read: |e| e.metrics.as_ref()?.sync_index, store: |m, v| m.sync_index = Some(v) },
    Metric { name: "drop_burstiness", presence: NullWhenNone, paper: Some("Finding 3 (drop-train burstiness)"), tolerance: None,
        extract: |r| r.outcome.drop_burstiness, read: |e| e.metrics.as_ref()?.drop_burstiness, store: |m, v| m.drop_burstiness = Some(v) },
    Metric { name: "share_a", presence: NullWhenNone, paper: Some("Figures 5–8 (inter-CCA shares)"), tolerance: None,
        extract: |r| r.outcome.share_of(*r.outcome.flow_cca.first()?), read: |e| e.metrics.as_ref()?.share_a, store: |m, v| m.share_a = Some(v) },
    Metric { name: "mathis_c_loss", presence: AbsentWhenNone, paper: Some("Table 1 (C from the packet-loss rate)"), tolerance: None,
        extract: |r| Some(r.loss_fit.as_ref()?.c), read: |e| e.metrics.as_ref()?.mathis_c_loss, store: |m, v| m.mathis_c_loss = Some(v) },
    Metric { name: "mathis_c_halving", presence: AbsentWhenNone, paper: Some("Table 1 (C from the CWND-halving rate)"), tolerance: None,
        extract: |r| Some(r.halving_fit.as_ref()?.c), read: |e| e.metrics.as_ref()?.mathis_c_halving, store: |m, v| m.mathis_c_halving = Some(v) },
    Metric { name: "mathis_err_halving", presence: AbsentWhenNone, paper: Some("Figure 2 (median error, CWND-halving rate)"), tolerance: None,
        extract: |r| Some(r.halving_fit.as_ref()?.median_error), read: |e| e.metrics.as_ref()?.mathis_err_halving, store: |m, v| m.mathis_err_halving = Some(v) },
    Metric { name: "loss_to_halving_ratio", presence: AbsentWhenNone, paper: Some("Figure 3 (packet-loss / CWND-halving ratio)"), tolerance: None,
        extract: |r| r.outcome.loss_to_halving_ratio(), read: |e| e.metrics.as_ref()?.loss_to_halving_ratio, store: |m, v| m.loss_to_halving_ratio = Some(v) },
    Metric { name: "convergence_time", presence: AbsentWhenNone, paper: Some("§4 (time to α-fair allocation)"), tolerance: Some(|t| t.convergence_secs),
        extract: |r| r.manifest.timeline.as_ref()?.time_to_alpha_fair, read: |e| e.metrics.as_ref()?.convergence_time, store: |m, v| m.convergence_time = Some(v) },
    Metric { name: "bottleneck_jfi_min", presence: NotStored, paper: None, tolerance: None,
        extract: |r| worst_jfi(&r.outcome.bottlenecks), read: |e| worst_jfi(&e.metrics.as_ref()?.bottlenecks), store: |_, _| {} },
    Metric { name: EVENTS_PER_SEC, presence: NotStored, paper: None, tolerance: None,
        extract: |r| Some(r.manifest.events_per_sec), read: |e| Some(e.events_per_sec), store: |_, _| {} },
];
