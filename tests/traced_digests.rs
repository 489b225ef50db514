//! Traced outcome digests and trace exports, pinned.
//!
//! `RunOutcome::digest` hashes a traced outcome's `.cctr` bytes, so these
//! figures move if the trace's records, their order or their encoding
//! move — however the trace is held in memory between the recorders and
//! the export. The JSONL export is pinned by its FNV-1a as well. Each
//! shape is small (EdgeScale, a few flows, 4 simulated seconds).

use ccsim::cca::CcaKind;
use ccsim::experiments::{run, FlowGroup, RunOutcome, Scenario};
use ccsim::net::AqmKind;
use ccsim::sim::{fnv1a_64, Bandwidth, SimDuration};
use ccsim::topo::TopologyKind;
use ccsim::trace::{write_jsonl, RetentionPolicy, TraceConfig};

fn traced(seed: u64, policy: RetentionPolicy, max_bytes: u64) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("traced-digest")
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 3, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Cubic, 2, SimDuration::from_millis(40)),
            FlowGroup::new(CcaKind::Bbr, 1, SimDuration::from_millis(30)),
        ])
        .seed(seed)
        .traced(TraceConfig {
            enabled: true,
            policy,
            max_bytes,
            queue_sample_every: 8,
        });
    s.bottleneck = Bandwidth::from_mbps(10);
    s.buffer_bytes = 100_000;
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(3);
    s.start_jitter = SimDuration::from_millis(100);
    s.convergence = None;
    s
}

fn jsonl_digest(o: &RunOutcome) -> u64 {
    let mut bytes = Vec::new();
    write_jsonl(o.trace.as_ref().expect("traced"), &mut bytes).unwrap();
    fnv1a_64(&bytes)
}

#[test]
fn traced_digests_and_exports_are_pinned() {
    let shapes = [
        (
            "keepall",
            traced(1, RetentionPolicy::KeepAll, 4 << 20),
            0x8c647c2ba7f75cf6,
            0x45f44d4c83b8ebed,
        ),
        (
            "decimate:4",
            traced(2, RetentionPolicy::Decimate(4), 4 << 20),
            0x8f07243dceccabbf,
            0x53f4bc46e584e32f,
        ),
        (
            "reservoir, evicting",
            traced(3, RetentionPolicy::Reservoir(64), 24_000),
            0x5b0ad66c33a24ff6,
            0x19e5c4fbabe05820,
        ),
        (
            "parking lot, CoDel + ECN",
            traced(4, RetentionPolicy::KeepAll, 4 << 20)
                .topology(TopologyKind::ParkingLot(2))
                .aqm(AqmKind::Codel)
                .ecn(true),
            0xd2f71cb5bcb7fc93,
            0xfb46330f96c02b6a,
        ),
    ];
    for (what, scenario, digest, jsonl) in &shapes {
        let o = run(scenario);
        let trace = o.trace.as_ref().expect("traced");
        assert!(trace.records.len() > 100, "{what}");
        if what.starts_with("reservoir") {
            assert!(trace.evicted > 0 && trace.thinned > 0, "{what}");
        }
        assert_eq!(o.digest(), *digest, "{what}: outcome digest");
        assert_eq!(jsonl_digest(&o), *jsonl, "{what}: JSONL export");
    }
}
