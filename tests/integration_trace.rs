//! End-to-end flight-recorder tests: a real simulated run, recorded,
//! exported, and read back.

use ccsim::cca::CcaKind;
use ccsim::experiments::{Fidelity, FlowGroup, RunOutcome, Scenario};
use ccsim::net::AqmKind;
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::topo::TopologyKind;
use ccsim::trace::{read_binary, read_jsonl, write_binary, write_jsonl, RetentionPolicy};
use ccsim::trace::{TraceConfig, TraceKind, TraceRecord, QUEUE_FLOW};

/// A small traced scenario: 4 reno + 2 cubic on a 20 Mbps bottleneck.
fn traced_scenario(seed: u64, policy: RetentionPolicy) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("traced-small")
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 4, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Cubic, 2, SimDuration::from_millis(40)),
        ])
        .seed(seed)
        .traced(TraceConfig {
            enabled: true,
            policy,
            max_bytes: 8 * 1024 * 1024,
            queue_sample_every: 16,
        });
    s.bottleneck = Bandwidth::from_mbps(20);
    s.buffer_bytes = 500_000;
    s.start_jitter = SimDuration::from_millis(300);
    s.warmup = SimDuration::from_secs(2);
    s.duration = SimDuration::from_secs(6);
    s.convergence = None;
    s
}

#[test]
fn traced_run_records_all_kinds() {
    let o = traced_scenario(3, RetentionPolicy::KeepAll).run();
    let trace = o.trace.as_ref().expect("trace enabled");
    assert_eq!(trace.meta.flows, 6);
    assert_eq!(trace.meta.seed, 3);
    assert_eq!(trace.meta.scenario, "traced-small");
    for kind in [
        TraceKind::Cwnd,
        TraceKind::Srtt,
        TraceKind::Phase,
        TraceKind::Congestion,
        TraceKind::QueueDepth,
        TraceKind::Drop,
    ] {
        assert!(
            trace.of_kind(kind).next().is_some(),
            "no {kind:?} records in a congested run"
        );
    }
    // Every flow produced a cwnd series, and records are time-sorted.
    for flow in 0..6 {
        assert!(!trace.cwnd_series(flow).is_empty(), "flow {flow}");
    }
    assert!(trace.records.iter().is_sorted_by_key(|r| r.time));
    // The trace-level analysis entry points produce values on a lossy run.
    assert!(o
        .trace_synchronization_index(SimDuration::from_millis(10))
        .is_some());
    assert!(o.trace_drop_burstiness().is_some());
}

#[test]
fn untraced_run_records_nothing() {
    let mut s = traced_scenario(3, RetentionPolicy::KeepAll);
    s.trace = TraceConfig::disabled();
    let o = s.run();
    assert!(o.trace.is_none());
    assert!(o
        .trace_synchronization_index(SimDuration::from_millis(10))
        .is_none());
}

#[test]
fn same_seed_runs_export_byte_identical_binaries() {
    let export = |o: &RunOutcome| {
        let mut buf = Vec::new();
        write_binary(o.trace.as_ref().unwrap(), &mut buf).unwrap();
        buf
    };
    let a = traced_scenario(7, RetentionPolicy::Reservoir(2_000)).run();
    let b = traced_scenario(7, RetentionPolicy::Reservoir(2_000)).run();
    assert_eq!(export(&a), export(&b), "same seed, same bytes");
    let c = traced_scenario(8, RetentionPolicy::Reservoir(2_000)).run();
    assert_ne!(export(&a), export(&c), "different seed, different trace");
}

#[test]
fn real_trace_round_trips_through_both_formats() {
    let o = traced_scenario(5, RetentionPolicy::Decimate(3)).run();
    let trace = o.trace.as_ref().unwrap();
    assert!(trace.thinned > 0, "decimation engaged");

    let mut bin = Vec::new();
    write_binary(trace, &mut bin).unwrap();
    let from_bin = read_binary(&bin[..]).unwrap();
    assert_eq!(&from_bin, trace, "binary round trip");

    let mut jsonl = Vec::new();
    write_jsonl(trace, &mut jsonl).unwrap();
    let from_jsonl = read_jsonl(&jsonl[..]).unwrap();
    assert_eq!(&from_jsonl, trace, "JSONL round trip");
}

/// Every query merges only the runs that can hold what it asks for; each
/// must still equal a filter over the whole merged trace. A parking lot
/// under CoDel + ECN records every kind: per-hop depth and CE marks too,
/// and tail drops from a buffer too small for the BBR flows.
#[test]
fn queries_equal_a_filter_over_the_whole_trace() {
    let mut s = traced_scenario(6, RetentionPolicy::KeepAll)
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 4, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Bbr, 2, SimDuration::from_millis(40)),
        ])
        .topology(TopologyKind::ParkingLot(3))
        .aqm(AqmKind::Codel)
        .ecn(true);
    s.buffer_bytes = 30_000;
    let o = s.run();
    let trace = o.trace.as_ref().unwrap();
    let all: Vec<TraceRecord> = trace.records.iter().collect();
    assert_eq!(all.len(), trace.records.len());
    assert!(all.is_sorted_by_key(TraceRecord::sort_key));
    for kind in TraceKind::ALL {
        let want: Vec<_> = all.iter().copied().filter(|r| r.kind == kind).collect();
        let got: Vec<_> = trace.of_kind(kind).collect();
        assert_eq!(got, want, "of_kind({kind:?})");
        assert!(!want.is_empty(), "no {kind:?} records");
    }
    let hops = [1, 2, QUEUE_FLOW];
    for flow in (0..trace.meta.flows).chain(hops) {
        let want: Vec<_> = all.iter().copied().filter(|r| r.flow == flow).collect();
        assert!(!want.is_empty(), "flow {flow}");
        assert_eq!(
            trace.for_flow(flow).collect::<Vec<_>>(),
            want,
            "for_flow({flow})"
        );
        let cwnd: Vec<_> = want
            .iter()
            .filter(|r| r.kind == TraceKind::Cwnd)
            .map(|r| (r.time, r.a))
            .collect();
        assert_eq!(trace.cwnd_series(flow), cwnd, "cwnd_series({flow})");
    }
    let times = |kind: TraceKind| -> Vec<SimTime> {
        all.iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.time)
            .collect()
    };
    assert_eq!(trace.drop_times(), times(TraceKind::Drop));
    let depth: Vec<_> = all
        .iter()
        .filter(|r| r.kind == TraceKind::QueueDepth)
        .map(|r| (r.time, r.a))
        .collect();
    assert_eq!(trace.queue_depth_series(), depth);
    let trains = trace.congestion_event_trains();
    assert_eq!(trains.len(), trace.meta.flows as usize);
    for (flow, train) in trains.iter().enumerate() {
        let want: Vec<SimTime> = all
            .iter()
            .filter(|r| r.kind == TraceKind::Congestion && r.flow == flow as u32)
            .map(|r| r.time)
            .collect();
        assert_eq!(*train, want, "congestion train of flow {flow}");
    }
}

#[test]
fn retention_policies_bound_the_trace() {
    // A budget far below what KeepAll would record: the bound must hold
    // and the bookkeeping must show what was sacrificed.
    let mut s = traced_scenario(11, RetentionPolicy::KeepAll);
    s.trace.max_bytes = 64 * 1024;
    let o = s.run();
    let trace = o.trace.as_ref().unwrap();
    assert!(
        trace.wire_bytes() <= s.trace.max_bytes,
        "{} > {}",
        trace.wire_bytes(),
        s.trace.max_bytes
    );
    assert!(trace.evicted > 0, "tiny budget must evict");
}

/// The ISSUE acceptance bar: a 1000-flow CoreScale/5 mix with full
/// tracing completes, exports both formats, and the synchronization
/// index is identical across two same-seed runs.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
fn core_scale_thousand_flows_traced() {
    let scenario = || {
        let mut s = Scenario::core_scale()
            .named("CoreScale/5-traced")
            .flows(vec![
                FlowGroup::new(CcaKind::Reno, 500, SimDuration::from_millis(20)),
                FlowGroup::new(CcaKind::Cubic, 500, SimDuration::from_millis(20)),
            ])
            .seed(1)
            .fidelity(Fidelity::Quick)
            .traced(TraceConfig::standard());
        // 1/5th of CoreScale bandwidth and buffer, as in the experiments
        // module's scaled runs.
        s.bottleneck = Bandwidth::from_mbps(2_000);
        s.buffer_bytes = 50 * 1000 * 1000;
        s
    };
    let a = scenario().run();
    let trace = a.trace.as_ref().unwrap();
    assert!(trace.wire_bytes() <= TraceConfig::standard().max_bytes);
    assert!(!trace.records.is_empty());

    let mut bin = Vec::new();
    write_binary(trace, &mut bin).unwrap();
    let mut jsonl = Vec::new();
    write_jsonl(trace, &mut jsonl).unwrap();
    assert_eq!(read_binary(&bin[..]).unwrap(), *trace);

    let bin_width = SimDuration::from_millis(20);
    let sync_a = a.trace_synchronization_index(bin_width);
    assert!(sync_a.is_some(), "1000 congested flows must record events");

    let b = scenario().run();
    assert_eq!(sync_a, b.trace_synchronization_index(bin_width));
}
