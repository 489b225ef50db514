//! Every JSON artefact the workspace writes, pinned byte for byte.
//!
//! `documents()` builds one fixed, fully-populated instance of each of
//! the thirteen documents (every optional section present; floats
//! including `-0.0`, `1e300`, `5e-324`; a `u64` seed above 2^53). The
//! `golden` table next to it holds the bytes the hand-rolled `write!`
//! writers produced for those instances at the commit before
//! `ccsim_sim::json::JsonWriter` replaced them: the schema code on top of
//! the one writer must reproduce them exactly, and each document must be
//! a fixpoint under write → parse → write.

use ccsim::campaign::ledger::{header_json, Ledger};
use ccsim::campaign::{Axis, CampaignSpec, Expectation, LedgerEntry, Rollup, Tolerances};
use ccsim::cca::CcaKind;
use ccsim::experiments::crash::write_bundle;
use ccsim::experiments::{
    scenario_from_json, scenario_to_json, BottleneckMetrics, ConvergenceRule, FlowGroup,
    RunOutcome, Scenario, Setting, SimError, Tuning,
};
use ccsim::fault::{FaultPlan, InvariantKind, InvariantViolation, WatchdogConfig, WatchdogReport};
use ccsim::net::AqmKind;
use ccsim::prof::{EventCells, MemGauge, Profile, WheelProfile};
use ccsim::sim::json::Json;
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::telemetry::{FlowMetrics, RunManifest};
use ccsim::timeline::{FlowPoint, LinkPoint, Timeline, TimelineConfig, TimelineSummary};
use ccsim::topo::{Topology, TopologyKind};
use ccsim::trace::{
    CongestionKind, PhaseLabel, RetentionPolicy, RunTrace, TraceConfig, TraceMeta, TraceRecord,
};

#[path = "support/json_golden.rs"]
mod golden;

/// A seed no `f64` can hold: 2^63 + 2^53 + 1.
const BIG_SEED: u64 = (1 << 63) + (1 << 53) + 1;

fn flow(flow: u32, cca: &str, bytes_per_sec: f64) -> FlowMetrics {
    FlowMetrics {
        flow,
        cca: cca.into(),
        base_rtt_secs: 0.02,
        throughput_bytes_per_sec: bytes_per_sec,
        delivered_bytes: 40_000_000,
        data_pkts_sent: 27_700,
        retransmits: 31 + u64::from(flow),
        congestion_events: 5 + u64::from(flow),
        rtos: 1,
        queue_drops: 20,
        queue_arrivals: 1000,
    }
}

fn bottlenecks(label: &str) -> Vec<BottleneckMetrics> {
    vec![
        BottleneckMetrics {
            link: 0,
            label: label.into(),
            utilization: 0.912345678,
            jfi: Some(0.87654321),
            loss_rate: 5e-324,
            max_queue_bytes: 250_000,
            ce_marked_pkts: 0,
        },
        BottleneckMetrics {
            link: 3,
            label: "edge".into(),
            utilization: -0.0,
            jfi: None,
            loss_rate: 0.00123,
            max_queue_bytes: 1_200,
            ce_marked_pkts: 42,
        },
    ]
}

fn outcome(name: &str, label: &str) -> RunOutcome {
    RunOutcome {
        scenario: name.into(),
        seed: BIG_SEED,
        mss: 1448,
        bottleneck: Bandwidth::from_mbps(100),
        flows: vec![
            flow(0, "reno", 4_000_000.0),
            flow(1, "cubic", 2_123_456.789),
            flow(2, "bbr", 0.0),
        ],
        flow_cca: vec![CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr],
        measured_for: SimDuration::from_secs(10),
        converged: true,
        ended_at: SimTime::from_secs(30),
        aggregate_loss_rate: 0.015_000_004,
        drop_burstiness: Some(0.312_349),
        max_queue_bytes: 1_000_000,
        events_processed: 12_345_678_901,
        trace: None,
        bottlenecks: bottlenecks(label),
    }
}

fn fault_plan() -> FaultPlan {
    FaultPlan::none()
        .blackout(SimTime::from_secs(5), SimDuration::from_secs(1))
        .set_bandwidth(SimTime::from_secs(10), Bandwidth::from_mbps(50))
        .set_extra_delay(SimTime::from_secs(15), SimDuration::from_millis(20))
        .iid_loss(SimTime::from_secs(20), 5e-324)
        .burst_loss(SimTime::from_secs(25), 0.001, 1e300)
        .clear_loss(SimTime::from_secs(30))
        .reorder(SimTime::from_secs(35), -0.0, SimDuration::from_millis(5))
        .duplicate(SimTime::from_secs(40), 0.005)
}

fn scenario(name: &str) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named(name)
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 3, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Bbr, 2, SimDuration::from_micros(12_345)),
        ])
        .seed(BIG_SEED)
        .faulted(fault_plan())
        .watched(WatchdogConfig::every_n(4))
        .topology(TopologyKind::ParkingLot(3))
        .aqm(AqmKind::Codel)
        .ecn(true)
        .tuned(Tuning {
            delack_segments: 4,
            tx_burst: 8,
        });
    s.convergence = Some(ConvergenceRule {
        window_snapshots: 5,
        tolerance: 5e-324,
    });
    s.trace = TraceConfig {
        enabled: true,
        policy: RetentionPolicy::Reservoir(512),
        max_bytes: 1 << 20,
        queue_sample_every: 16,
    };
    s
}

fn trace(name: &str) -> RunTrace {
    let t = SimTime::from_millis;
    RunTrace {
        meta: TraceMeta {
            scenario: name.into(),
            seed: BIG_SEED,
            flows: 2,
        },
        records: vec![
            TraceRecord::cwnd(t(1), 0, 14_480, u64::MAX),
            TraceRecord::srtt(t(2), 0, SimDuration::from_micros(20_500)),
            TraceRecord::pacing(t(3), 1, 1_250_000),
            TraceRecord::phase(t(4), 1, PhaseLabel::new("probe_bw")),
            TraceRecord::congestion(t(5), 0, CongestionKind::FastRecovery),
            TraceRecord::queue_depth(t(6), 123_456, 83),
            TraceRecord::drop(t(7), 1, 99_000),
            TraceRecord::ecn_mark(t(8), 0, 64_000, 2),
            TraceRecord::hop_depth(t(9), 1, 32_000, 21),
        ]
        .into(),
        evicted: 3,
        thinned: 17,
    }
}

fn crash_json(name: &str) -> String {
    let report = WatchdogReport {
        checks_run: 7,
        violations: vec![
            InvariantViolation {
                at: SimTime::from_secs(3),
                kind: InvariantKind::QueueBound,
                detail: "backlog \"10\" > buffer 5\\".into(),
            },
            InvariantViolation {
                at: SimTime::from_nanos(4_000_000_001),
                kind: InvariantKind::Conservation,
                detail: "line one\nline two".into(),
            },
        ],
    };
    let error = SimError::Invariant {
        report,
        trace: Some(trace(name)),
    };
    let base = std::env::temp_dir().join(format!(
        "ccsim-json-artefacts-{}-{:016x}",
        std::process::id(),
        ccsim::sim::fnv1a_64(name.as_bytes())
    ));
    let dir = write_bundle(&base, &scenario(name), &error).unwrap();
    let text = std::fs::read_to_string(dir.join("crash.json")).unwrap();
    let _ = std::fs::remove_dir_all(&base);
    text
}

/// A profile recorded after the same-instant lane and re-arm reuse
/// existed (`legacy` false) or before either (`legacy` true: both lane
/// counters and the reuse count zero).
fn profile(legacy: bool) -> Profile {
    Profile {
        events: EventCells {
            classes: vec!["link".into(), "sen\"der".into()],
            kinds: vec!["data".into(), "ack".into(), "timer".into()],
            stride: 1024,
            counts: vec![100, 0, 5, 40, 60, u64::MAX],
            nanos: vec![900, 0, 10, 300, 500, 20],
            samples: vec![9, 0, 1, 3, 5, 1],
        },
        wheel: WheelProfile {
            level_high_water: vec![10, 4, 0, 1, 0, 0, 0, 0, 2],
            cascades: 12,
            cascaded_entries: 34,
            batch_hist: vec![50, 20, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            cancels: 8,
            cancel_misses: 2,
            cancellable_scheduled: 15,
            revived: if legacy { 0 } else { 11 },
            sends_now: if legacy { 0 } else { 90 },
            lane_merges: if legacy { 0 } else { 1 },
        },
        memory: vec![
            MemGauge {
                name: "net/link_queues".into(),
                bytes: 4096,
            },
            MemGauge {
                name: "tcp/\\senders".into(),
                bytes: 8192,
            },
        ],
        dispatch_nanos: 2_000_000,
        flows: 4,
    }
}

fn manifest(name: &str, label: &str) -> RunManifest {
    RunManifest {
        scenario: name.into(),
        seed: BIG_SEED,
        flows: 1000,
        config_digest: "0123456789abcdef".into(),
        outcome_digest: "fedcba9876543210".into(),
        sim_secs: 160.0,
        wall_secs: 12.345678901234567,
        dispatch_secs: 1e300,
        sim_wall_ratio: -0.0,
        events_processed: 987_654_321,
        events_per_sec: 8.0000001e7,
        peak_queue_bytes: 250_000_000,
        peak_pending_events: 12_345,
        trace_bytes: 77,
        metric_bytes: 4096,
        metric_series: 23,
        converged: true,
        checkpoint_bytes: 19_004_534,
        events_by_kind: vec![
            ("data".into(), 600_000_000),
            ("ack".into(), 300_000_000),
            ("ti\"mer".into(), 87_654_321),
        ],
        bottlenecks: bottlenecks(label),
        profile: Some(profile(false)),
        timeline: Some(TimelineSummary {
            window_secs: 2.0,
            rows: 80,
            retained: 64,
            evicted: 16,
            flows_sampled: 64,
            series: 326,
            alpha: 0.9,
            time_to_alpha_fair: Some(41.5000000003),
            final_jfi: None,
        }),
    }
}

fn ledger_entry(name: &str, label: &str) -> LedgerEntry {
    LedgerEntry {
        job: format!("{name}/cca=reno/seed={BIG_SEED}"),
        axis: vec![
            ("cca".into(), "reno".into()),
            ("to\"pology".into(), "parking_lot:3\\".into()),
        ],
        seed: BIG_SEED,
        config_digest: "0123456789abcdef".into(),
        outcome_digest: Some("fedcba9876543210".into()),
        error: Some("run panicked: boom \"quoted\"\n".into()),
        crash_bundle: Some("/tmp/crashes/crash-1".into()),
        attempts: 3,
        quarantined: true,
        sim_secs: 5.0,
        wall_secs: 0.25,
        events_processed: 120_000,
        events_per_sec: 480_000.0,
        eps_by_kind: vec![
            ("data".into(), 1_234_567.25),
            ("ack".into(), 1e300),
            ("timer".into(), 5e-324),
        ],
        metrics: Some(Rollup {
            jfi: Some(0.987654321),
            utilization: 0.93,
            aggregate_mbps: 9.3,
            loss_rate: -0.0,
            mathis_err: Some(0.08),
            sync_index: None,
            drop_burstiness: Some(0.21),
            share_a: Some(1.0),
            mathis_c_loss: Some(1.78),
            mathis_c_halving: Some(1.47),
            mathis_err_halving: Some(0.06),
            loss_to_halving_ratio: Some(1.7),
            convergence_time: Some(2.5),
            bottlenecks: bottlenecks(label),
        }),
        manifest: Some(manifest(name, label)),
    }
}

fn expectations() -> Vec<Expectation> {
    vec![
        Expectation {
            metric: "jfi".into(),
            min: Some(0.8),
            max: None,
            source: "Figure \"4\"".into(),
        },
        Expectation {
            metric: "loss_rate".into(),
            min: None,
            max: Some(5e-324),
            source: String::new(),
        },
    ]
}

fn tolerances() -> Tolerances {
    Tolerances {
        jfi: 0.05,
        mathis_err: 1e300,
        sync_index: -0.0,
        events_per_sec_frac: 0.1,
        convergence_secs: 1.0,
    }
}

fn spec(name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        base: scenario(name),
        axes: vec![
            Axis {
                param: Setting::find("cca").unwrap(),
                values: vec!["reno".into(), "cu\"bic".into()],
            },
            Axis {
                param: Setting::find("rtt_ms").unwrap(),
                values: vec!["20".into(), "100".into()],
            },
        ],
        seeds: vec![1, BIG_SEED],
        expectations: expectations(),
        tolerances: tolerances(),
    }
}

fn ledger(name: &str, label: &str) -> Ledger {
    let mut ledger = Ledger::new(name, tolerances());
    let mut second = ledger_entry(name, label);
    second.wall_secs = 1.75;
    second.events_processed = 880_000;
    let m = second.manifest.as_mut().unwrap();
    m.dispatch_secs = 0.125;
    m.profile.as_mut().unwrap().flows = 3;
    ledger.entries = vec![ledger_entry(name, label), second];
    ledger.entries[0].manifest.as_mut().unwrap().dispatch_secs = 0.0625;
    ledger
}

fn topology(label: &str) -> Topology {
    let mut t = Topology::parking_lot(2, Bandwidth::from_mbps(100), 250_000, 3);
    t.links[0].label = label.into();
    t.links[1].aqm = Some(AqmKind::Codel);
    t.nodes[0] = format!("node {label}");
    t
}

fn timeline() -> Timeline {
    let cfg = TimelineConfig {
        window: SimDuration::from_millis(100),
        ..TimelineConfig::default()
    };
    let mut tl = Timeline::new(cfg, 2, 1, SimTime::ZERO);
    let fp = |r| FlowPoint {
        retransmits: r,
        cwnd_bytes: 14_600,
        srtt_secs: 0.020_000_000_000_000_004,
        inflight_bytes: 7_300,
    };
    let lp = |tx| LinkPoint {
        transmitted_bytes: tx,
        dropped_pkts: 3,
        ce_marked_pkts: 1,
        queue_bytes: 64_000,
        rate_bytes_per_sec: 12_500_000.0,
    };
    tl.push_row(
        SimTime::from_millis(100),
        &[1000, 3000],
        &[fp(0), fp(0)],
        &[lp(1_000_000)],
    );
    // Saturating-zero deltas: an idle window, so JFI renders as `null`.
    tl.push_row(
        SimTime::from_millis(200),
        &[0, 0],
        &[fp(1), fp(0)],
        &[lp(1_000_000)],
    );
    tl
}

fn trace_jsonl(name: &str) -> String {
    let mut buf = Vec::new();
    ccsim::trace::write_jsonl(&trace(name), &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// `(document, bytes)` for the fixed instances, in the order of the
/// golden table. `name`/`label` are the free-form strings every document
/// carries.
fn documents(name: &str, label: &str) -> Vec<(&'static str, String)> {
    let e = expectations();
    vec![
        ("outcome", outcome(name, label).to_json()),
        ("scenario", scenario_to_json(&scenario(name))),
        ("crash", crash_json(name)),
        ("manifest", manifest(name, label).to_json()),
        ("manifest_inline", manifest(name, label).to_json_inline()),
        ("profile", profile(false).to_json()),
        ("ledger_entry", ledger_entry(name, label).to_json()),
        ("ledger_header", header_json(name, &tolerances(), &e)),
        ("campaign_spec", spec(name).to_json()),
        ("fault_plan", fault_plan().to_json()),
        ("topology", topology(label).to_json()),
        (
            "timeline_jsonl",
            ccsim::timeline::export::to_jsonl(&timeline()),
        ),
        ("trace_jsonl", trace_jsonl(name)),
        (
            "bench_summary",
            ledger(name, label).bench_summary_json(7, 1),
        ),
    ]
}

/// The golden instances use names that are plain where the parent's
/// writers did not escape (`RunOutcome::to_json`, the `--bench` summary)
/// — `names_are_escaped_everywhere` covers those.
const GOLDEN_NAME: &str = "golden core-scale";
const GOLDEN_LABEL: &str = "bn0";

#[test]
fn writers_reproduce_the_golden_bytes() {
    let docs = documents(GOLDEN_NAME, GOLDEN_LABEL);
    assert_eq!(docs.len(), golden::GOLDEN.len());
    for ((doc, got), (name, want)) in docs.iter().zip(golden::GOLDEN) {
        assert_eq!(doc, name);
        assert_eq!(got, want, "{doc} moved");
    }
}

/// The four Mathis keys are one of the two deliberate changes to the
/// golden table since it was taken: an entry without them (every ledger
/// line written before they existed) still writes the parent's bytes.
#[test]
fn ledger_entry_without_mathis_keys_writes_the_parent_bytes() {
    const NEW_KEYS: &str = ",\"mathis_c_loss\":1.78,\"mathis_c_halving\":1.47,\
        \"mathis_err_halving\":0.06,\"loss_to_halving_ratio\":1.7";
    let (_, golden) = golden::GOLDEN
        .iter()
        .find(|(doc, _)| *doc == "ledger_entry")
        .unwrap();
    assert_eq!(golden.matches(NEW_KEYS).count(), 1);
    let mut entry = ledger_entry(GOLDEN_NAME, GOLDEN_LABEL);
    let m = entry.metrics.as_mut().unwrap();
    m.mathis_c_loss = None;
    m.mathis_c_halving = None;
    m.mathis_err_halving = None;
    m.loss_to_halving_ratio = None;
    assert_eq!(entry.to_json(), golden.replace(NEW_KEYS, ""));
}

/// The other: `wheel_revived` in every profile. A profile whose queue
/// reused no key (every profile written before the reuse existed) still
/// writes the parent's bytes.
#[test]
fn profile_without_revived_writes_the_parent_bytes() {
    const NEW_KEY: &str = ",\"wheel_revived\":11";
    let (_, golden) = golden::GOLDEN
        .iter()
        .find(|(doc, _)| *doc == "profile")
        .unwrap();
    assert_eq!(golden.matches(NEW_KEY).count(), 1);
    let mut p = profile(false);
    p.wheel.revived = 0;
    assert_eq!(p.to_json(), golden.replace(NEW_KEY, ""));
}

/// Parse one JSON document per non-empty line (whole-text for the pretty
/// manifest, which is the one multi-line document).
fn parse_all(doc: &str, text: &str) -> Vec<Json> {
    let parse = |t: &str| Json::parse(t).unwrap_or_else(|e| panic!("{doc}: {e}\n{t}"));
    if doc == "manifest" {
        return vec![parse(text)];
    }
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse)
        .collect()
}

#[test]
fn every_document_is_a_write_parse_write_fixpoint() {
    let name = "fix\"point\\ \n";
    let label = "b\"n\\0";
    // Where a typed reader exists, decode → encode must give the bytes
    // back; everywhere, the generic value must re-render to text that
    // parses to the same value.
    for (doc, text) in documents(name, label) {
        for v in parse_all(doc, &text) {
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{doc}");
        }
        let again = match doc {
            "scenario" => scenario_to_json(&scenario_from_json(&text).unwrap()),
            "manifest" => RunManifest::from_json(&text).unwrap().to_json(),
            "manifest_inline" => RunManifest::from_json(&text).unwrap().to_json_inline(),
            "profile" => Profile::from_json(&text).unwrap().to_json(),
            "ledger_entry" => LedgerEntry::from_value(&Json::parse(&text).unwrap())
                .unwrap()
                .to_json(),
            "ledger_header" => {
                let l = Ledger::from_text(&text).unwrap();
                header_json(&l.campaign, &l.tolerances, &l.expectations)
            }
            "campaign_spec" => CampaignSpec::from_json(&text).unwrap().to_json(),
            "fault_plan" => FaultPlan::from_json(&text).unwrap().to_json(),
            "topology" => Topology::from_json(&text).unwrap().to_json(),
            "trace_jsonl" => {
                let back = ccsim::trace::read_jsonl(text.as_bytes()).unwrap();
                let mut buf = Vec::new();
                ccsim::trace::write_jsonl(&back, &mut buf).unwrap();
                String::from_utf8(buf).unwrap()
            }
            _ => continue,
        };
        assert_eq!(again, text, "{doc}: decode → encode moved bytes");
    }
    // A profile older than the same-instant lane has no lane keys and no
    // reuse count, and keeps having none.
    let legacy = profile(true).to_json();
    assert!(!legacy.contains("wheel_sends_now") && !legacy.contains("wheel_lane_merges"));
    assert!(!legacy.contains("wheel_revived"));
    assert_eq!(Profile::from_json(&legacy).unwrap().to_json(), legacy);
}

#[test]
fn names_are_escaped_everywhere() {
    let name = "a\"b\\c\n";
    let label = "l\"b\\l\n";
    let docs = documents(name, label);
    let first = |doc: &str| {
        let text = &docs.iter().find(|(d, _)| *d == doc).unwrap().1;
        parse_all(doc, text).remove(0)
    };
    let str_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);

    let out = first("outcome");
    assert_eq!(str_at(&out, "scenario").as_deref(), Some(name));
    let bn = &out.get("bottlenecks").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(str_at(bn, "label").as_deref(), Some(label));

    assert_eq!(
        str_at(&first("bench_summary"), "campaign").as_deref(),
        Some(name)
    );
    let meta = first("trace_jsonl");
    assert_eq!(
        str_at(meta.get("meta").unwrap(), "scenario").as_deref(),
        Some(name)
    );
    // The timeline header carries no free-form string; its column names
    // must still come back as written.
    let header = first("timeline_jsonl");
    let cols = header.get("columns").and_then(Json::as_arr).unwrap();
    assert_eq!(cols[0].as_str(), Some("agg/jfi"));
    assert_eq!(cols.len(), timeline().columns().len());

    assert_eq!(str_at(&first("crash"), "scenario").as_deref(), Some(name));
    assert_eq!(
        str_at(&first("ledger_header"), "campaign").as_deref(),
        Some(name)
    );
    let entry = first("ledger_entry");
    assert!(str_at(&entry, "job").unwrap().starts_with(name));
    let m = entry.get("manifest").unwrap();
    assert_eq!(str_at(m, "scenario").as_deref(), Some(name));
    let bn = &m.get("bottlenecks").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(str_at(bn, "label").as_deref(), Some(label));
}
