//! What `RunOutcome::digest` covers, pinned against materialised formulas.
//!
//! * Untraced outcomes hash exactly the bytes of `format!("{o:?}")` — the
//!   historical definition every committed ledger and `expected.json` row
//!   was computed with — here rebuilt as an oracle for three shapes.
//! * Traced outcomes hash the `Debug` text with `trace: None`, followed by
//!   the trace's `.cctr` bytes as `write_binary` writes them, so the digest
//!   is exact to the nanosecond (the old `t={:.6}s` text was not). A name
//!   too long for a `.cctr` header is refused before a run starts.
//! * A campaign ledger carries the manifest's digest, not a recomputation.
//!
//! Mutation check (applied to a copy of the tree, run, reverted): a digest
//! that skips the trace bytes fails both traced-digest tests.

use ccsim::campaign::{run_scenarios, ExecutorOptions, LedgerEntry};
use ccsim::cca::CcaKind;
use ccsim::experiments::{
    run, BottleneckMetrics, FlowGroup, RunOutcome, RunRequest, Scenario, ScenarioError, SimError,
};
use ccsim::net::AqmKind;
use ccsim::sim::{fnv1a_64, Bandwidth, SimDuration, SimTime};
use ccsim::telemetry::FlowMetrics;
use ccsim::topo::TopologyKind;
use ccsim::trace::{write_binary, RetentionPolicy, TraceConfig, TraceRecord};

/// The digest formula before traces were hashed as `.cctr` bytes.
fn debug_text_digest(o: &RunOutcome) -> u64 {
    fnv1a_64(format!("{o:?}").as_bytes())
}

/// The traced formula, materialised: `Debug` text with `trace: None`, then
/// the trace exactly as `write_binary` writes it.
fn materialised_digest(o: &RunOutcome) -> u64 {
    let mut bare = o.clone();
    let trace = bare.trace.take();
    let mut bytes = format!("{bare:?}").into_bytes();
    if let Some(trace) = &trace {
        write_binary(trace, &mut bytes).unwrap();
    }
    fnv1a_64(&bytes)
}

fn small(seed: u64) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("digest")
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 2, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Cubic, 1, SimDuration::from_millis(40)),
        ])
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(10);
    s.buffer_bytes = 100_000;
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(3);
    s.start_jitter = SimDuration::from_millis(100);
    s.convergence = None;
    s
}

fn traced(seed: u64) -> Scenario {
    small(seed).traced(TraceConfig {
        enabled: true,
        policy: RetentionPolicy::KeepAll,
        max_bytes: 4 * 1024 * 1024,
        queue_sample_every: 16,
    })
}

#[test]
fn untraced_digest_is_the_debug_text_digest() {
    let edge = run(&small(1));
    assert!(edge.trace.is_none() && edge.bottlenecks.is_empty());
    assert_eq!(edge.digest(), debug_text_digest(&edge));

    let parking = run(&small(2)
        .topology(TopologyKind::ParkingLot(2))
        .aqm(AqmKind::Codel)
        .ecn(true));
    assert_eq!(parking.bottlenecks.len(), 2, "bottlenecks are in the text");
    assert_eq!(parking.digest(), debug_text_digest(&parking));

    let empty = RunOutcome {
        scenario: "nan \"quoted\"".into(),
        seed: u64::MAX,
        mss: 0,
        bottleneck: Bandwidth::from_mbps(1),
        flows: vec![FlowMetrics {
            flow: 0,
            cca: String::new(),
            base_rtt_secs: f64::NAN,
            throughput_bytes_per_sec: f64::NAN,
            delivered_bytes: 0,
            data_pkts_sent: 0,
            retransmits: 0,
            congestion_events: 0,
            rtos: 0,
            queue_drops: 0,
            queue_arrivals: 0,
        }],
        flow_cca: vec![CcaKind::Bbr],
        measured_for: SimDuration::MAX,
        converged: false,
        ended_at: SimTime::MAX,
        aggregate_loss_rate: f64::NAN,
        drop_burstiness: None,
        max_queue_bytes: 0,
        events_processed: 0,
        trace: None,
        bottlenecks: vec![BottleneckMetrics {
            link: 0,
            label: String::new(),
            utilization: f64::NAN,
            jfi: None,
            loss_rate: -0.0,
            max_queue_bytes: 0,
            ce_marked_pkts: 0,
        }],
    };
    assert_eq!(empty.digest(), debug_text_digest(&empty));
}

#[test]
fn traced_digest_is_the_untraced_text_then_the_cctr_bytes() {
    let o = run(&traced(3));
    let trace = o.trace.as_ref().expect("trace enabled");
    assert!(trace.records.len() > 100);
    assert_eq!(o.digest(), materialised_digest(&o));
    // The trace participates: detaching it moves the digest.
    let mut bare = o.clone();
    bare.trace = None;
    assert_ne!(o.digest(), bare.digest());
    assert_eq!(bare.digest(), debug_text_digest(&bare));
}

#[test]
fn a_one_nanosecond_shift_in_one_record_moves_the_traced_digest() {
    let o = run(&traced(4));
    let records: Vec<TraceRecord> = o.trace.as_ref().unwrap().records.iter().collect();
    let i = records
        .iter()
        .position(|r| r.time >= SimTime::from_secs(1))
        .expect("records past 1 s");
    // Two instants inside one microsecond, away from its rounding edge.
    let base = records[i].time.as_nanos() / 1_000 * 1_000 + 100;
    // The shifted copy goes back as one run, which reads in the order given.
    let at = |ns: u64| {
        let mut shifted = records.clone();
        shifted[i].time = SimTime::from_nanos(ns);
        let mut o = o.clone();
        o.trace.as_mut().unwrap().records = shifted.into();
        o
    };
    let (a, b) = (at(base), at(base + 1));
    // The `Debug` text cannot tell them apart; the `.cctr` bytes can.
    assert_eq!(debug_text_digest(&a), debug_text_digest(&b));
    assert_ne!(a.digest(), b.digest());
}

/// `write_binary` cannot encode a name past a `u16` length, so a traced run
/// with one would have no `.cctr` bytes to digest: it is refused up front.
#[test]
fn a_traced_run_with_an_over_long_name_never_starts() {
    let s = traced(7).named("n".repeat(usize::from(u16::MAX) + 1));
    match RunRequest::new(&s).execute().map_err(SimError::from) {
        Err(SimError::Scenario(ScenarioError::NameTooLong { len })) => assert_eq!(len, 65_536),
        other => panic!("expected NameTooLong, got {:?}", other.map(|o| o.outcome)),
    }
}

#[test]
fn ledger_entries_carry_the_manifest_digest() {
    let results = run_scenarios(&[traced(5), traced(6)], &ExecutorOptions::default(), |_| {});
    assert_eq!(results.len(), 2);
    for r in &results {
        let obs = r.run.as_ref().expect("job ran");
        assert!(obs.outcome.trace.is_some());
        let want = format!("{:016x}", obs.outcome.digest());
        assert_eq!(obs.manifest.outcome_digest, want);
        assert_eq!(LedgerEntry::from_result(r).outcome_digest, Some(want));
    }
}
