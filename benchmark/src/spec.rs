//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics, with units, directions and regression bounds.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for
//! the driver; `tests::benchmark_json_matches_the_spec` keeps the two in
//! step. Later issues refer to these names, so they are append-only.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics carry 0).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Higher, 0.0)
}

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Fresh-process runs per workload in one `run`/`aa` set.
pub const RUNS_PER_SET: usize = 5;

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Held out: a claim tuned on other seeds is checked with `--seed 7`, which
/// must not be used while an optimisation is being tuned.
pub const HELD_OUT_SEED: u64 = 7;

/// Seeds whose outcomes `expected.json` pins (`-- pin` writes them).
pub const PINNED_SEEDS: [u64; 2] = [DEFAULT_SEED, HELD_OUT_SEED];

pub const WORKLOADS: [&str; 5] = [
    "core5k_droptail",
    "mega100k_batched",
    "parkinglot_codel_ecn",
    "fatflows_mixed_recovery",
    "core1k_observed",
];

/// Wider than the 8 %/8 %/10 %/3 % the issue proposed for five runs of one
/// seed: the driver wants ten runs with ten different seeds to spread by
/// less than the bound, ideally a third of it, and across seeds the inputs
/// move too (README, "Bounds and steadiness", has the measured spreads).
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("events_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_bytes", "bytes", Better::Lower, 0.10),
];

pub const PER_LAYER: [MetricSpec; 85] = [
    // dispatch (cross-layer, in situ)
    lower("dispatch.data.events", "count"),
    lower("dispatch.ack.events", "count"),
    lower("dispatch.timer.events", "count"),
    lower("dispatch.data.ns_per_event", "ns"),
    lower("dispatch.ack.ns_per_event", "ns"),
    lower("dispatch.timer.ns_per_event", "ns"),
    lower("dispatch.coverage_frac", "ratio"),
    // sim
    lower("sim.events", "count"),
    lower("sim.max_pending", "count"),
    lower("sim.wheel.cascaded_per_event", "ratio"),
    lower("sim.wheel.cancel_miss_frac", "ratio"),
    higher("sim.batch.mean_events", "count"),
    lower("sim.wheel.bytes_per_flow", "bytes"),
    lower("sim.wheel.ns_per_pop_push", "ns"),
    lower("sim.wheel.ns_per_cancel_rearm", "ns"),
    lower("sim.dispatch.ns_per_event_floor", "ns"),
    // net
    lower("net.link.data_events", "count"),
    lower("net.link.timer_events", "count"),
    lower("net.link.events_per_tx_pkt", "ratio"),
    lower("net.link.drops", "count"),
    lower("net.link.ce_marks", "count"),
    lower("net.link.max_queue_bytes", "bytes"),
    lower("net.links.bytes_per_flow", "bytes"),
    lower("net.link.ns_per_pkt_tx", "ns"),
    lower("net.link.ns_per_pkt_dropped", "ns"),
    lower("net.aqm.droptail_boxed.ns_per_pkt", "ns"),
    lower("net.aqm.red.ns_per_pkt", "ns"),
    lower("net.aqm.codel.ns_per_pkt", "ns"),
    lower("net.aqm.pie.ns_per_pkt", "ns"),
    // topo
    lower("topo.router.events", "count"),
    lower("topo.hops_per_pkt", "ratio"),
    lower("topo.router.ns_per_pkt", "ns"),
    // tcp
    lower("tcp.sender.ack_events", "count"),
    lower("tcp.sender.timer_events", "count"),
    lower("tcp.receiver.data_events", "count"),
    lower("tcp.receiver.timer_events", "count"),
    lower("tcp.retransmits", "count"),
    lower("tcp.rtos", "count"),
    lower("tcp.fast_recoveries", "count"),
    lower("tcp.acks_per_data_pkt", "ratio"),
    lower("tcp.senders.bytes_per_flow", "bytes"),
    lower("tcp.slab.bytes_per_flow", "bytes"),
    lower("tcp.sender.ns_per_ack_clean", "ns"),
    lower("tcp.sender.ns_per_ack_recovery", "ns"),
    lower("tcp.sender.ns_per_rto", "ns"),
    lower("tcp.receiver.ns_per_seg_inorder", "ns"),
    lower("tcp.receiver.ns_per_seg_ooo", "ns"),
    lower("tcp.scoreboard.ns_per_ack_clean", "ns"),
    lower("tcp.scoreboard.ns_per_ack_sack_64", "ns"),
    lower("tcp.scoreboard.ns_per_ack_sack_1024", "ns"),
    lower("tcp.scoreboard.ns_per_ack_sack_8192", "ns"),
    // cca
    lower("cca.calls", "count"),
    lower("cca.ns_per_call", "ns"),
    lower("cca.share_of_ack_frac", "ratio"),
    lower("cca.reno.ns_per_ack", "ns"),
    lower("cca.cubic.ns_per_ack", "ns"),
    lower("cca.bbr.ns_per_ack", "ns"),
    lower("cca.vegas.ns_per_ack", "ns"),
    // core
    lower("core.setup.ns_per_flow", "ns"),
    lower("core.slices", "count"),
    lower("core.collect_s", "s"),
    lower("core.nondispatch_frac", "ratio"),
    lower("core.outcome_json.ns_per_flow", "ns"),
    // analysis
    lower("analysis.jfi.ns_per_flow", "ns"),
    lower("analysis.burstiness.ns_per_drop", "ns"),
    // observers
    lower("trace.records", "count"),
    lower("trace.bytes", "bytes"),
    lower("trace.ns_per_record", "ns"),
    lower("trace.export.ns_per_record", "ns"),
    lower("timeline.rows", "count"),
    lower("timeline.ns_per_row_flow", "ns"),
    lower("telemetry.registry.ns_per_inc", "ns"),
    lower("prof.ns_per_event", "ns"),
    lower("observers.wall_ratio", "ratio"),
    // resume, campaign
    lower("resume.checkpoint.bytes_per_flow", "bytes"),
    lower("resume.capture.ns_per_flow", "ns"),
    lower("resume.restore.ns_per_flow", "ns"),
    lower("campaign.ledger.ns_per_entry", "ns"),
    lower("campaign.overhead_s_per_job", "s"),
    // reconciliation
    lower("layers.predicted_dispatch_s", "s"),
    lower("layers.residual_frac", "ratio"),
    lower("layers.residual.data_frac", "ratio"),
    lower("layers.residual.ack_frac", "ratio"),
    lower("layers.residual.timer_frac", "ratio"),
    lower("trace_overhead_frac", "ratio"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_caps() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        let metric_names = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name);
        for name in WORKLOADS.iter().copied().chain(metric_names) {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    fn metric_rows(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let why = w.get("why").and_then(Json::as_str).unwrap();
                assert!(
                    why.len() <= 200 && !why.contains('\n'),
                    "why too long: {why}"
                );
                w.get("name").and_then(Json::as_str).unwrap()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let want = |specs: &[MetricSpec], bounded: bool| -> Vec<_> {
            specs
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(metric_rows(&doc, "end_to_end"), want(&END_TO_END, true));
        assert_eq!(metric_rows(&doc, "per_layer"), want(&PER_LAYER, false));
    }
}
