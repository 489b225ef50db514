//! §5.2 — Inter-CCA fairness with equal flow counts.
//!
//! * **Figure 5** — N Cubic vs N NewReno: Cubic takes 70–80% of total
//!   throughput at scale, as at the edge.
//! * **Figure 8** — N BBR vs N NewReno (a) / N Cubic (b): BBR takes up to
//!   99.9% of total throughput.

use crate::experiments::grid::ExperimentConfig;
use crate::outcome::RunOutcome;
use crate::report::render_table;
use crate::scenario::{FlowGroup, Scenario};
use ccsim_cca::CcaKind;
use ccsim_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One equal-split inter-CCA cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterRow {
    /// "EdgeScale" or "CoreScale".
    pub setting: String,
    /// The aggressor CCA (whose share is reported).
    pub cca_a: CcaKind,
    /// The victim CCA.
    pub cca_b: CcaKind,
    /// Total flows (half per CCA).
    pub flow_count: u32,
    /// Base RTT in ms (same for everyone).
    pub rtt_ms: u64,
    /// Fraction of total throughput held by `cca_a` flows.
    pub share_a: f64,
    /// Link utilization in the window.
    pub utilization: f64,
}

/// Scenario for one cell: `count/2` flows of each CCA at `rtt`.
pub fn cell_scenario(
    skeleton: Scenario,
    a: CcaKind,
    b: CcaKind,
    count: u32,
    rtt_ms: u64,
) -> Scenario {
    assert!(count >= 2, "need at least one flow per CCA");
    let rtt = SimDuration::from_millis(rtt_ms);
    let name = format!("{}/{}v{} x{} @{}ms", skeleton.name, a, b, count, rtt_ms);
    skeleton
        .flows(vec![
            FlowGroup::new(a, count / 2, rtt),
            FlowGroup::new(b, count - count / 2, rtt),
        ])
        .named(name)
}

/// Run the equal-split grid for the pair `(a, b)` over both settings on a
/// caller-supplied executor (the bench binaries pass the campaign worker
/// pool). `runner` must return one outcome per scenario, in input order.
pub fn run_grid(
    cfg: &ExperimentConfig,
    a: CcaKind,
    b: CcaKind,
    runner: impl FnOnce(&[Scenario]) -> Vec<RunOutcome>,
) -> Vec<InterRow> {
    let mut scenarios = Vec::new();
    let mut labels = Vec::new();
    for &rtt in &cfg.rtts_ms {
        for &count in &cfg.edge_counts {
            scenarios.push(cell_scenario(cfg.edge(), a, b, count, rtt));
            labels.push(("EdgeScale", count, rtt));
        }
        for &count in &cfg.core_counts {
            scenarios.push(cell_scenario(cfg.core(), a, b, count, rtt));
            labels.push(("CoreScale", count, rtt));
        }
    }
    let outcomes = runner(&scenarios);
    labels
        .iter()
        .zip(&outcomes)
        .map(|(&(setting, count, rtt), o)| InterRow {
            setting: setting.to_string(),
            cca_a: a,
            cca_b: b,
            flow_count: count,
            rtt_ms: rtt,
            share_a: o.share_of(a).unwrap_or(0.0),
            utilization: o.utilization(),
        })
        .collect()
}

/// Render rows as the Figure 5 / Figure 8 report table.
pub fn render(rows: &[InterRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setting.clone(),
                format!("{} vs {}", r.cca_a, r.cca_b),
                r.flow_count.to_string(),
                r.rtt_ms.to_string(),
                format!("{:.1}%", r.share_a * 100.0),
                format!("{:.1}%", r.utilization * 100.0),
            ]
        })
        .collect();
    render_table(
        &["setting", "pair", "flows", "rtt(ms)", "share(A)", "util"],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn cubic_beats_reno_in_smoke_grid() {
        let cfg = ExperimentConfig::smoke();
        let rows = run_grid(&cfg, CcaKind::Cubic, CcaKind::Reno, |s| {
            s.iter().map(crate::run).collect()
        });
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // Cubic should get at least half; the paper reports 70-80%.
            assert!(
                r.share_a > 0.45,
                "cubic share = {} in {}",
                r.share_a,
                r.setting
            );
            assert!(r.utilization > 0.5);
        }
    }

    #[test]
    fn odd_counts_split_without_losing_flows() {
        let s = cell_scenario(
            ExperimentConfig::smoke().edge(),
            CcaKind::Bbr,
            CcaKind::Reno,
            5,
            20,
        );
        assert_eq!(s.flow_count(), 5);
        assert_eq!(s.flows[0].count, 2);
        assert_eq!(s.flows[1].count, 3);
    }
}
