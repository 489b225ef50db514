//! Whole-system self-observability guarantees: metrics are inert (a run
//! observes identically with them on or off), and the per-run artifacts
//! — Prometheus exposition and JSON manifest — are well-formed and
//! internally consistent.

use ccsim::cca::CcaKind;
use ccsim::experiments::{
    run, Counters, FlowGroup, ObserveOptions, ObservedRun, RunRequest, Scenario,
};
use ccsim::fault::FaultPlan;
use ccsim::net::AqmKind;
use ccsim::sim::{Bandwidth, Log2Tally, SimDuration, SimTime};
use ccsim::telemetry::{validate_exposition, RunManifest};
use ccsim::trace::{CongestionKind, RetentionPolicy, TraceConfig, TraceKind};

fn run_observed(scenario: &Scenario) -> ObservedRun {
    RunRequest::new(scenario)
        .observe(ObserveOptions::default())
        .execute()
        .expect("run succeeds")
        .into_observed()
        .expect("observed request")
}

fn scenario(seed: u64, cca: CcaKind) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("observability")
        .flows(vec![FlowGroup::new(cca, 4, SimDuration::from_millis(20))])
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(20);
    s.buffer_bytes = 250_000;
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(4);
    s.start_jitter = SimDuration::from_millis(300);
    s.convergence = None;
    s
}

/// Reno and BBR over a 40-packet buffer: drops, RTOs, recoveries and
/// pacing stalls all happen within a few seconds.
fn mixed(seed: u64) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("observability-mixed")
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 3, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Bbr, 2, SimDuration::from_millis(30)),
        ])
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(20);
    s.buffer_bytes = 60_000;
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(5);
    s.start_jitter = SimDuration::from_millis(300);
    s.convergence = None;
    s
}

/// The value of the unlabelled sample `name` in a Prometheus dump.
fn sample(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample {name}"))
        .parse()
        .unwrap()
}

/// The sample lines a histogram family `name` holding `tally` exports:
/// cumulative buckets up to the highest non-empty one, `+Inf`, sum, count.
fn histogram_lines(name: &str, tally: &Log2Tally) -> Vec<String> {
    let top = tally
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |k| k + 1);
    let mut cumulative = 0;
    let mut lines: Vec<String> = (0..top)
        .map(|k| {
            cumulative += tally.buckets[k];
            let le = Log2Tally::bucket_upper_bound(k);
            format!("{name}_bucket{{le=\"{le}\"}} {cumulative}")
        })
        .collect();
    lines.push(format!("{name}_bucket{{le=\"+Inf\"}} {}", tally.count));
    lines.push(format!("{name}_sum {}", tally.sum));
    lines.push(format!("{name}_count {}", tally.count));
    lines
}

/// The tentpole guarantee: attaching the full instrument set changes
/// nothing about the simulation. Same (scenario, seed) with metrics on
/// and off yields byte-identical outcome JSON and the same digest, for
/// every CCA family.
#[test]
fn metrics_on_and_off_produce_identical_outcomes() {
    for cca in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr] {
        let plain = run(&scenario(42, cca));
        let observed = run_observed(&scenario(42, cca));
        assert_eq!(plain.to_json(), observed.outcome.to_json(), "{cca}");
        assert_eq!(plain.digest(), observed.outcome.digest(), "{cca}");
        assert_eq!(
            format!("{:016x}", plain.digest()),
            observed.manifest.outcome_digest,
            "{cca}"
        );
    }
}

/// The Prometheus dump passes the exposition-format validator and carries
/// the headline families with plausible values.
#[test]
fn prometheus_dump_is_valid_and_populated() {
    let obs = run_observed(&scenario(7, CcaKind::Reno));
    validate_exposition(&obs.prometheus).expect("exposition format");
    for family in [
        "ccsim_events_total",
        "ccsim_events_pending_peak",
        "ccsim_events_per_sec",
        "ccsim_sim_wall_ratio",
        "ccsim_link_queue_bytes",
        "ccsim_link_drop_burst_pkts",
        "ccsim_link_busy_nanos_total",
        "ccsim_tcp_rtos_total",
        "ccsim_tcp_fast_recoveries_total",
        "ccsim_tcp_pacing_stalls_total",
        "ccsim_phase_wall_nanos_total",
    ] {
        assert!(obs.prometheus.contains(family), "missing {family}");
    }
}

/// The manifest round-trips through its JSON codec bit-exactly and its
/// fields agree with the outcome it describes.
#[test]
fn manifest_round_trips_and_matches_outcome() {
    let obs = run_observed(&scenario(9, CcaKind::Cubic));
    let m = &obs.manifest;
    assert_eq!(m.scenario, "observability");
    assert_eq!(m.seed, 9);
    assert_eq!(m.flows, 4);
    assert_eq!(m.events_processed, obs.outcome.events_processed);
    assert_eq!(m.peak_queue_bytes, obs.outcome.max_queue_bytes);
    assert_eq!(m.metric_bytes, obs.prometheus.len() as u64);
    assert!(m.wall_secs > 0.0);
    assert!(m.events_per_sec > 0.0);
    let back = RunManifest::from_json(&m.to_json()).expect("manifest json");
    assert_eq!(&back, m);
}

/// A live publish reads the engine's per-kind event counts at a slice
/// boundary, so a `/metrics` scrape during the run sees them; the final
/// counts are still the manifest's.
#[test]
fn live_metrics_count_engine_events_while_the_run_goes() {
    use ccsim::experiments::LiveState;
    use std::sync::Arc;
    let data_events = |exposition: &str| -> u64 {
        let line = exposition
            .lines()
            .find(|l| l.starts_with("ccsim_events_total{kind=\"data\"}"))
            .expect("the data-event series is registered");
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    let live = Arc::new(LiveState::new());
    let mut slices = 0;
    let mut seen_at_second_slice = None;
    let report = RunRequest::new(&scenario(5, CcaKind::Reno))
        .live(Arc::clone(&live))
        .on_progress(|_| {
            slices += 1;
            // The snapshot published after the first slice.
            if slices == 2 {
                seen_at_second_slice = Some(data_events(&live.metrics_snapshot()));
            }
        })
        .execute()
        .expect("run succeeds");
    let seen = seen_at_second_slice.expect("the run has at least two slices");
    assert!(seen > 0, "live /metrics served {seen} data events mid-run");
    let manifest = report.manifest.expect("a live run is observed");
    let by_kind = |kind: &str| {
        manifest
            .events_by_kind
            .iter()
            .find(|(k, _)| k == kind)
            .unwrap()
            .1
    };
    assert!(by_kind("data") > seen);
    assert_eq!(data_events(&live.metrics_snapshot()), by_kind("data"));
}

/// Views that check each other: on one traced, observed run the metric
/// families and the flight recorder count the same events. The
/// occupancy histogram, bucket for bucket, is the one the bottleneck's
/// depth samples rebuild (every arrival sampled); the drop bursts sum to
/// the trace's drop records; the RTO and recovery counters equal its
/// congestion records of each kind. On a drop-tail bottleneck, on a
/// CoDel+ECN one (where drops also happen at dequeue), and on a drop-tail
/// one whose run ends inside a blackout, so the last drop burst is still
/// open when the run is collected.
#[test]
fn metric_families_agree_with_the_trace() {
    let mut ends_in_outage = mixed(21);
    ends_in_outage.fault =
        FaultPlan::none().blackout(SimTime::from_millis(5_500), SimDuration::from_secs(1));
    for (case, s) in [
        ("drop-tail", mixed(21)),
        ("codel+ecn", mixed(21).aqm(AqmKind::Codel).ecn(true)),
        ("ends in an outage", ends_in_outage),
    ] {
        let s = s.traced(TraceConfig {
            enabled: true,
            policy: RetentionPolicy::KeepAll,
            max_bytes: 1 << 30,
            queue_sample_every: 1,
        });
        let obs = run_observed(&s);
        let prom = &obs.prometheus;
        let trace = obs.outcome.trace.as_ref().expect("traced run");
        assert_eq!(
            (trace.evicted, trace.thinned),
            (0, 0),
            "{case}: budget too small"
        );

        let mut depth = Log2Tally::default();
        for r in trace.of_kind(TraceKind::QueueDepth) {
            depth.record(r.a);
        }
        let dumped: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("ccsim_link_queue_bytes_"))
            .collect();
        assert_eq!(
            dumped,
            histogram_lines("ccsim_link_queue_bytes", &depth),
            "{case}"
        );

        let drops = trace.of_kind(TraceKind::Drop).count() as u64;
        assert_eq!(
            sample(prom, "ccsim_link_drop_burst_pkts_sum"),
            drops,
            "{case}"
        );

        let congestion = |kind: CongestionKind| {
            trace
                .of_kind(TraceKind::Congestion)
                .filter(|r| r.congestion_kind() == Some(kind))
                .count() as u64
        };
        let (rtos, recoveries) = (
            congestion(CongestionKind::Rto),
            congestion(CongestionKind::FastRecovery),
        );
        assert_eq!(sample(prom, "ccsim_tcp_rtos_total"), rtos, "{case}");
        assert_eq!(
            sample(prom, "ccsim_tcp_fast_recoveries_total"),
            recoveries,
            "{case}"
        );
        assert!(
            depth.count > 0 && drops > 0 && rtos > 0 && recoveries > 0,
            "{case}: a view is empty"
        );
    }
}

/// A resumed run's component families count from its restore: each
/// counter (and the occupancy histogram's count and sum) equals the
/// uninterrupted run's value less its value at the checkpoint instant,
/// read from an observed run of the same scenario cut there. (The
/// drop-burst sizes do not subtract: a burst open at the checkpoint is
/// split in two.)
#[test]
fn a_resumed_run_counts_component_families_from_its_restore() {
    let s = mixed(17);
    let at = SimTime::from_secs(3);
    let mut cut = s.clone();
    cut.duration = SimDuration::from_secs(2);

    let full = run_observed(&s).prometheus;
    let before = run_observed(&cut).prometheus;
    let checkpoint = RunRequest::new(&s)
        .checkpoint_at(at)
        .capture()
        .expect("capture");
    let resumed = RunRequest::resume(&checkpoint)
        .observe(ObserveOptions::default())
        .execute()
        .expect("resume")
        .prometheus
        .expect("observed");
    for name in [
        "ccsim_link_queue_bytes_count",
        "ccsim_link_queue_bytes_sum",
        "ccsim_link_busy_nanos_total",
        "ccsim_tcp_rtos_total",
        "ccsim_tcp_fast_recoveries_total",
        "ccsim_tcp_pacing_stalls_total",
    ] {
        let (f, b, r) = (
            sample(&full, name),
            sample(&before, name),
            sample(&resumed, name),
        );
        assert!(
            b > 0 && r > 0,
            "{name}: {b} before, {r} after the checkpoint"
        );
        assert_eq!(r, f - b, "{name}");
    }
}

/// A timelined run resumed from the warm-up boundary (captured before the
/// warm-up actions run) and from mid-measurement: every timeline row after
/// the restore equals the uninterrupted run's row at the same instant, and
/// the RTO and recovery families equal the uninterrupted run's less the
/// counts in the resumed run's start reading.
#[test]
fn a_resumed_timeline_and_its_congestion_families_count_from_the_start_reading() {
    let s = mixed(29);
    let options = ObserveOptions::timelined();
    let observe = |request: RunRequest<'_>| {
        let report = request.observe(options).execute().expect("run succeeds");
        let timeline = report.timeline.expect("timelined");
        let rows: Vec<(f64, f64, Vec<f64>)> = (0..timeline.rows().len())
            .map(|r| timeline.rows().row(r).unwrap())
            .collect();
        (rows, report.prometheus.expect("observed"))
    };
    let (full_rows, full) = observe(RunRequest::new(&s));
    let families = ["ccsim_tcp_rtos_total", "ccsim_tcp_fast_recoveries_total"];
    for at in [1, 3].map(SimTime::from_secs) {
        let cp = RunRequest::new(&s)
            .checkpoint_at(at)
            .capture()
            .expect("capture");
        let (rows, resumed) = observe(RunRequest::resume(&cp));
        let after: Vec<_> = full_rows
            .iter()
            .filter(|(end, _, _)| *end > at.as_secs_f64())
            .collect();
        assert!(!after.is_empty());
        assert_eq!(rows.iter().collect::<Vec<_>>(), after, "rows from {at}");

        let start = Counters::at_checkpoint(&cp).unwrap();
        let counted = [
            start.flows.iter().map(|f| f.rtos).sum::<u64>(),
            start.flows.iter().map(|f| f.fast_recoveries).sum(),
        ];
        for (name, at_checkpoint) in families.into_iter().zip(counted) {
            assert!(sample(&full, name) > 0, "{name}");
            let want = sample(&full, name) - at_checkpoint;
            assert_eq!(sample(&resumed, name), want, "{name} from {at}");
        }
    }
}

/// One sample line of a Prometheus dump: family-level name (with any
/// `_bucket`/`_sum`/`_count` suffix), label block, value text.
struct Sample<'a> {
    name: &'a str,
    labels: &'a str,
    value: &'a str,
}

fn samples(exposition: &str) -> Vec<Sample<'_>> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("name and value");
            let (name, labels) = series.split_once('{').unwrap_or((series, ""));
            Sample {
                name,
                labels,
                value,
            }
        })
        .collect()
}

/// Views that check each other, on an observed, profiled, live-served
/// run that takes a checkpoint and on the resume of that checkpoint:
/// the dump's engine families are the manifest's counts, its rate
/// gauges spell the manifest's f64s exactly, its series are the
/// manifest's `metric_series`, the profile's event cells add up to the
/// events the run dispatched, and the live endpoint's final snapshot is
/// the dump itself. A resumed run's engine counters and profile cells
/// both count from the restore: they add up to the events dispatched
/// since its start reading, not to the whole run's `events_processed`.
#[test]
fn every_view_of_a_run_agrees_with_its_manifest() {
    use ccsim::experiments::{LiveState, RunReport};
    use std::sync::Arc;

    fn check(case: &str, report: &RunReport, live: &LiveState, dispatched: u64) {
        let prom = report.prometheus.as_deref().expect("observed");
        let m = report.manifest.as_ref().expect("observed");
        validate_exposition(prom).unwrap();
        let all = samples(prom);
        let one = |name: &str| {
            let mut found = all.iter().filter(|s| s.name == name);
            let s = found.next().unwrap_or_else(|| panic!("{case}: no {name}"));
            assert!(found.next().is_none(), "{case}: {name} is one series");
            s.value
        };

        let kinds: Vec<(String, u64)> = all
            .iter()
            .filter(|s| s.name == "ccsim_events_total")
            .map(|s| {
                let kind = s.labels.trim_start_matches("kind=\"");
                let kind = kind.trim_end_matches("\"}").to_string();
                (kind, s.value.parse().unwrap())
            })
            .collect();
        assert_eq!(kinds, m.events_by_kind, "{case}");
        let pending: u64 = one("ccsim_events_pending_peak").parse().unwrap();
        assert_eq!(pending, m.peak_pending_events, "{case}");
        let eps: f64 = one("ccsim_events_per_sec").parse().unwrap();
        assert_eq!(eps.to_bits(), m.events_per_sec.to_bits(), "{case}");
        let ratio: f64 = one("ccsim_sim_wall_ratio").parse().unwrap();
        assert_eq!(ratio.to_bits(), m.sim_wall_ratio.to_bits(), "{case}");

        // A histogram is one series of `_bucket`, `_sum` and `_count` lines.
        let histograms: Vec<&str> = prom
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" histogram"))
            .collect();
        let series = all
            .iter()
            .filter(|s| {
                !histograms
                    .iter()
                    .any(|h| matches!(s.name.strip_prefix(h), Some("_bucket" | "_sum")))
            })
            .count();
        assert_eq!(series as u64, m.metric_series, "{case}");

        let prof: u64 = all
            .iter()
            .filter(|s| s.name == "ccsim_prof_events_total")
            .map(|s| s.value.parse::<u64>().unwrap())
            .sum();
        let by_kind: u64 = m.events_by_kind.iter().map(|(_, n)| n).sum();
        assert_eq!((prof, by_kind), (dispatched, dispatched), "{case}");

        assert_eq!(live.metrics_snapshot(), prom, "{case}");
    }

    let s = mixed(23);
    let at = SimTime::from_secs(3);
    let live = Arc::new(LiveState::new());
    let report = RunRequest::new(&s)
        .observe(ObserveOptions::profiled())
        .live(Arc::clone(&live))
        .checkpoint_at(at)
        .execute()
        .expect("run succeeds");
    let events = report.outcome.events_processed;
    check("fresh", &report, &live, events);

    let checkpoint = report.checkpoint.as_ref().expect("checkpoint taken");
    // The resumed run's start reading: what its observer views count from.
    let events_at_checkpoint = Counters::at_checkpoint(checkpoint).unwrap().events;
    let live = Arc::new(LiveState::new());
    let resumed = RunRequest::resume(checkpoint)
        .observe(ObserveOptions::profiled())
        .live(Arc::clone(&live))
        .execute()
        .expect("resume succeeds");
    assert_eq!(resumed.outcome.events_processed, events);
    assert!(events_at_checkpoint > 0);
    check("resumed", &resumed, &live, events - events_at_checkpoint);
}
