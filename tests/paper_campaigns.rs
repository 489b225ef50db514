//! The paper's grid is data: every table and figure is an
//! `examples/campaigns/paper-<figure>-<setting>.json` spec. These tests
//! pin the checked-in specs to the paper's constants (§3.1: EdgeScale
//! 100 Mbps with 10/30/50 flows, CoreScale 10 Gbps with 1000/3000/5000,
//! base RTTs 20/100/200 ms) and run one shrunken Mathis cell end to end.

use ccsim::campaign::{run_campaign, CampaignSpec, ExecutorOptions, Metric};
use ccsim::sim::{Bandwidth, SimDuration};
use std::collections::BTreeSet;
use std::path::Path;

/// `(file stem, parsed spec)` for every checked-in campaign.
fn specs() -> Vec<(String, CampaignSpec)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/campaigns");
    let mut specs = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        specs.push((stem, spec));
    }
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    specs
}

fn paper_spec(stem: &str) -> CampaignSpec {
    let (_, spec) = specs().into_iter().find(|(s, _)| s == stem).unwrap();
    spec
}

#[test]
fn every_checked_in_spec_expands_and_round_trips() {
    let specs = specs();
    for (stem, spec) in specs {
        assert_eq!(spec.name, stem, "a spec is named after its file");
        // `jobs` validates every expanded scenario.
        let jobs = spec.jobs().unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(!jobs.is_empty(), "{stem}");
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(back.to_json(), json, "{stem}: to_json → from_json moved");
        assert_eq!(back.jobs().unwrap().len(), jobs.len(), "{stem}");
    }
}

#[test]
fn paper_specs_sweep_the_papers_grid() {
    const FIGURES: [&str; 8] = [
        "mathis", "fig4", "finding4", "fig5", "fig6", "fig7", "fig8a", "fig8b",
    ];
    let specs = specs();
    let paper: Vec<_> = specs
        .iter()
        .filter(|(s, _)| s.starts_with("paper-"))
        .collect();
    let expected: BTreeSet<String> = FIGURES
        .iter()
        .flat_map(|f| ["edge", "core"].map(|s| format!("paper-{f}-{s}")))
        .collect();
    let found: BTreeSet<String> = paper.iter().map(|(s, _)| s.clone()).collect();
    assert_eq!(found, expected);

    for (stem, spec) in paper {
        let edge = stem.ends_with("-edge");
        let (bandwidth, counts) = if edge {
            (Bandwidth::from_mbps(100), [10, 30, 50])
        } else {
            (Bandwidth::from_gbps(10), [1000, 3000, 5000])
        };
        assert!(spec.seeds.len() >= 5, "{stem}: {} seeds", spec.seeds.len());
        let jobs = spec.jobs().unwrap();
        let single_bbr = stem.contains("fig6") || stem.contains("fig7");
        let mut totals = BTreeSet::new();
        let mut rtts = BTreeSet::new();
        for job in &jobs {
            let s = &job.scenario;
            assert_eq!(s.bottleneck, bandwidth, "{}", job.name);
            assert_eq!(s.warmup, SimDuration::from_secs(40), "{}", job.name);
            assert_eq!(s.duration, SimDuration::from_secs(300), "{}", job.name);
            assert!(s.convergence.is_some(), "{}: <1 % rule off", job.name);
            totals.insert(s.flow_count());
            let rtt = s.flows[0].base_rtt;
            assert!(s.flows.iter().all(|g| g.base_rtt == rtt), "{}", job.name);
            rtts.insert(rtt.as_nanos() / 1_000_000);
            if single_bbr {
                assert_eq!(s.flows[0].count, 1, "{}", job.name);
            }
        }
        // One BBR flow against N: the paper's count is the rivals'.
        let want: BTreeSet<u32> = counts.iter().map(|c| c + u32::from(single_bbr)).collect();
        assert_eq!(totals, want, "{stem}: flow counts");
        // The Mathis grid is 20 ms only; every fairness figure sweeps RTT.
        let want_rtts: &[u64] = if stem.contains("mathis") {
            &[20]
        } else {
            &[20, 100, 200]
        };
        assert_eq!(rtts, want_rtts.iter().copied().collect(), "{stem}: RTTs");
        let cells = jobs.len() / spec.seeds.len();
        let ccas = if stem.contains("finding4") { 2 } else { 1 };
        assert_eq!(
            cells,
            ccas * want_rtts.len() * counts.len(),
            "{stem}: cells"
        );

        assert!(!spec.expectations.is_empty(), "{stem}: no expectation");
        for e in &spec.expectations {
            assert!(Metric::find(&e.metric).is_some(), "{stem}: {}", e.metric);
            assert!(
                e.min.is_some() || e.max.is_some(),
                "{stem}: {} is unbounded",
                e.metric
            );
            assert!(
                ["Table ", "Figure ", "Finding "]
                    .iter()
                    .any(|p| e.source.starts_with(p)),
                "{stem}: \"{}\" names no table, figure or finding",
                e.source
            );
        }
    }
}

#[test]
fn flow_count_values_name_one_count_per_group() {
    let mut spec = paper_spec("paper-fig6-core");
    let first = &spec.jobs().unwrap()[0];
    assert!(first.name.contains("/flow_count=1+1000/"), "{}", first.name);
    let counts: Vec<u32> = first.scenario.flows.iter().map(|g| g.count).collect();
    assert_eq!(counts, [1, 1000]);

    let axis = spec.axes.iter_mut().find(|a| a.param.key == "flow_count");
    axis.unwrap().values = vec!["1+2+3".into()];
    let err = spec.jobs().unwrap_err().to_string();
    assert!(
        err.contains("flow_count") && err.contains("\"1+2+3\""),
        "{err}"
    );
    assert!(err.contains("2 flow groups"), "{err}");
}

/// One Mathis CoreScale cell with bandwidth, buffer and flow count ÷ 10
/// (1 Gbps, 25 MB, 100 flows — CoreScale's per-flow share) on a short
/// horizon: the spec → executor → rollup path produces a full Table 1 /
/// Figure 2 / Figure 3 row.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
fn a_shrunken_mathis_core_cell_produces_a_full_row() {
    let mut spec = paper_spec("paper-mathis-core");
    spec.base.bottleneck = Bandwidth::from_bps(spec.base.bottleneck.as_bps() / 10);
    spec.base.buffer_bytes /= 10;
    spec.base.start_jitter = SimDuration::from_millis(500);
    spec.base.warmup = SimDuration::from_secs(5);
    spec.base.duration = SimDuration::from_secs(20);
    spec.axes[0].values = vec!["100".into()];
    spec.seeds = vec![1];

    let results = run_campaign(spec.jobs().unwrap(), &ExecutorOptions::default(), |_| {});
    assert_eq!(results.len(), 1);
    let row = results[0].rollup().expect("the cell ran");
    assert!(row.utilization > 0.5, "{row:?}");
    assert!(row.loss_rate > 0.0, "the cell must see losses");
    assert!(
        row.mathis_c_loss.unwrap() > 0.0,
        "no loss-rate fit: {row:?}"
    );
    assert!(
        row.mathis_c_halving.unwrap() > 0.0,
        "no halving fit: {row:?}"
    );
    assert!(row.mathis_err.is_some() && row.mathis_err_halving.is_some());
    assert!(row.loss_to_halving_ratio.unwrap() > 0.5, "{row:?}");
    assert!(row.drop_burstiness.is_some(), "{row:?}");
    let jfi = row.jfi.unwrap();
    assert!(jfi > 0.1 && jfi <= 1.0, "jfi = {jfi}");
}
