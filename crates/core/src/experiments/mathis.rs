//! §4 — Revisiting the Mathis throughput model.
//!
//! One experiment grid powers four paper artifacts:
//!
//! * **Table 1** — the best-fit Mathis constant `C` per setting/flow-count,
//!   derived with `p` = packet-loss rate vs `p` = CWND-halving rate.
//! * **Figure 2** — median relative prediction error under each
//!   interpretation.
//! * **Figure 3** — the packet-loss to CWND-halving ratio.
//! * **Finding 3's corroboration** — Goh–Barabási burstiness of queue
//!   drops (≈0.2 EdgeScale vs ≈0.35 CoreScale in the paper).
//!
//! Every cell is one all-NewReno run at 20 ms RTT, exactly as in the paper.

use crate::experiments::grid::ExperimentConfig;
use crate::outcome::{PInterpretation, RunOutcome};
use crate::report::render_table;
use crate::scenario::{FlowGroup, Scenario};
use ccsim_analysis::mathis::fit_constant;
use ccsim_cca::CcaKind;
use ccsim_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One (setting, flow-count) cell of the Mathis grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MathisRow {
    /// "EdgeScale" or "CoreScale".
    pub setting: String,
    /// Competing NewReno flows.
    pub flow_count: u32,
    /// Best-fit C with `p` = packet loss rate.
    pub c_loss: Option<f64>,
    /// Best-fit C with `p` = CWND halving rate.
    pub c_halving: Option<f64>,
    /// Median relative prediction error under the loss-rate fit.
    pub median_err_loss: Option<f64>,
    /// Median relative prediction error under the halving-rate fit.
    pub median_err_halving: Option<f64>,
    /// Packet-loss to CWND-halving ratio (Figure 3).
    pub loss_to_halving_ratio: Option<f64>,
    /// Drop-train burstiness (Finding 3 corroboration).
    pub burstiness: Option<f64>,
    /// Aggregate queue loss rate over the window.
    pub loss_rate: f64,
    /// Link utilization over the window.
    pub utilization: f64,
}

impl MathisRow {
    fn from_outcome(setting: &str, flow_count: u32, o: &RunOutcome) -> MathisRow {
        let loss_fit =
            fit_constant(&o.mathis_observations(CcaKind::Reno, PInterpretation::PacketLoss));
        let halving_fit =
            fit_constant(&o.mathis_observations(CcaKind::Reno, PInterpretation::CwndHalving));
        MathisRow {
            setting: setting.to_string(),
            flow_count,
            c_loss: loss_fit.as_ref().map(|f| f.c),
            c_halving: halving_fit.as_ref().map(|f| f.c),
            median_err_loss: loss_fit.as_ref().map(|f| f.median_error),
            median_err_halving: halving_fit.as_ref().map(|f| f.median_error),
            loss_to_halving_ratio: o.loss_to_halving_ratio(),
            burstiness: o.drop_burstiness,
            loss_rate: o.aggregate_loss_rate,
            utilization: o.utilization(),
        }
    }
}

/// Build the scenario for one cell: `count` NewReno flows at 20 ms.
pub fn cell_scenario(skeleton: Scenario, count: u32) -> Scenario {
    let name = format!("{}/reno x{} @20ms", skeleton.name, count);
    skeleton
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            count,
            SimDuration::from_millis(20),
        )])
        .named(name)
}

/// Run the full Mathis grid: every EdgeScale and CoreScale flow count on a
/// caller-supplied executor (the bench binaries pass the campaign worker
/// pool). `runner` must return one outcome per scenario, in input order.
pub fn run_grid(
    cfg: &ExperimentConfig,
    runner: impl FnOnce(&[Scenario]) -> Vec<RunOutcome>,
) -> Vec<MathisRow> {
    let mut scenarios = Vec::new();
    let mut labels = Vec::new();
    for &count in &cfg.edge_counts {
        scenarios.push(cell_scenario(cfg.edge(), count));
        labels.push(("EdgeScale", count));
    }
    for &count in &cfg.core_counts {
        scenarios.push(cell_scenario(cfg.core(), count));
        labels.push(("CoreScale", count));
    }
    let outcomes = runner(&scenarios);
    labels
        .iter()
        .zip(&outcomes)
        .map(|(&(setting, count), o)| MathisRow::from_outcome(setting, count, o))
        .collect()
}

/// Render the grid as the Table 1 / Figure 2 / Figure 3 report.
pub fn render(rows: &[MathisRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setting.clone(),
                r.flow_count.to_string(),
                r.c_loss.map_or("-".into(), |c| format!("{c:.2}")),
                r.c_halving.map_or("-".into(), |c| format!("{c:.2}")),
                r.median_err_loss
                    .map_or("-".into(), |e| format!("{:.1}%", e * 100.0)),
                r.median_err_halving
                    .map_or("-".into(), |e| format!("{:.1}%", e * 100.0)),
                r.loss_to_halving_ratio
                    .map_or("-".into(), |x| format!("{x:.2}")),
                r.burstiness.map_or("-".into(), |b| format!("{b:.2}")),
                format!("{:.3}%", r.loss_rate * 100.0),
                format!("{:.1}%", r.utilization * 100.0),
            ]
        })
        .collect();
    render_table(
        &[
            "setting",
            "flows",
            "C (loss)",
            "C (halving)",
            "err (loss)",
            "err (halving)",
            "loss/halving",
            "burstiness",
            "loss rate",
            "util",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn smoke_grid_produces_full_rows() {
        let cfg = ExperimentConfig::smoke();
        let rows = run_grid(&cfg, |s| s.iter().map(crate::run).collect());
        assert_eq!(rows.len(), 2); // 1 edge + 1 core cell
        let edge = &rows[0];
        assert_eq!(edge.setting, "EdgeScale");
        assert!(edge.utilization > 0.5, "util = {}", edge.utilization);
        // The smoke horizon may fall between EdgeScale loss epochs (one
        // sawtooth is ~30 s); behavioral assertions use the core cell,
        // where small per-flow windows make losses frequent.
        let core = &rows[1];
        assert!(core.utilization > 0.5, "core util = {}", core.utilization);
        assert!(core.loss_rate > 0.0, "core cell must see losses");
        assert!(core.c_loss.is_some(), "no loss-rate fit: {core:?}");
        assert!(core.c_halving.is_some(), "no halving fit: {core:?}");
        if let Some(ratio) = core.loss_to_halving_ratio {
            assert!(ratio > 0.5, "ratio = {ratio}");
        }
        let report = render(&rows);
        assert!(report.contains("CoreScale"));
        assert!(report.contains("C (halving)"));
    }
}
