//! Checkpoint bytes, pinned.
//!
//! Each case is a tiny scenario captured through
//! [`RunRequest::checkpoint_at`]; the test asserts the container's
//! encoded length and the FNV-1a digest of its body. Together the cases
//! write every checkpointed type: the four CCAs, the four AQMs with ECN
//! on, a fault plan whose injector holds each loss state, tracing (flow and queue
//! recorders), routers on `parking_lot:3`, the batched receiver and link
//! (`delack_segments: 4`, `tx_burst: 8`, so a burst tail is in service), a
//! watchdog, and both phases (a warm-up and a measurement capture).
//!
//! A refactor of any layer's snapshot code must leave these figures alone:
//! a changed figure is a changed checkpoint format, which needs a new
//! `SNAP_VERSION` and new figures in the same change.

use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, RunRequest, Scenario, Tuning};
use ccsim::fault::{FaultPlan, WatchdogConfig};
use ccsim::net::AqmKind;
use ccsim::resume::fnv1a_64;
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::topo::TopologyKind;
use ccsim::trace::TraceConfig;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn secs(v: f64) -> SimTime {
    SimTime::from_secs_f64(v)
}

/// Two seconds of warm-up, four of measurement, on a 10 Mbps bottleneck.
fn tiny(name: &str, flows: Vec<FlowGroup>, seed: u64) -> Scenario {
    let mut s = Scenario::edge_scale().named(name).flows(flows).seed(seed);
    s.bottleneck = Bandwidth::from_mbps(10);
    s.buffer_bytes = 60_000;
    s.start_jitter = ms(100);
    s.warmup = SimDuration::from_secs(2);
    s.duration = SimDuration::from_secs(4);
    s.convergence = None;
    s
}

fn group(cca: CcaKind, count: u32, rtt_ms: u64) -> FlowGroup {
    FlowGroup::new(cca, count, ms(rtt_ms))
}

/// `(case, capture instant, scenario)`: each is well under a second in a
/// debug build.
fn cases() -> Vec<(&'static str, SimTime, Scenario)> {
    let aqm = |name: &str| AqmKind::parse(name).expect("AQM name parses");
    vec![
        (
            "reno-droptail-warmup",
            secs(1.0),
            tiny("bytes/reno", vec![group(CcaKind::Reno, 2, 20)], 1),
        ),
        (
            "cubic-red-ecn-iid-loss",
            secs(3.0),
            tiny("bytes/cubic", vec![group(CcaKind::Cubic, 2, 20)], 2)
                .aqm(aqm("red"))
                .ecn(true)
                .faulted(FaultPlan::none().iid_loss(secs(1.5), 0.01)),
        ),
        (
            "bbr-codel-ecn-faults-traced-watched",
            secs(3.0),
            tiny(
                "bytes/bbr",
                vec![group(CcaKind::Bbr, 2, 20), group(CcaKind::Cubic, 1, 40)],
                3,
            )
            .aqm(aqm("codel"))
            .ecn(true)
            .faulted(
                FaultPlan::none()
                    .blackout(secs(0.8), ms(50))
                    .set_bandwidth(secs(1.0), Bandwidth::from_mbps(8))
                    .set_extra_delay(secs(1.2), ms(2))
                    .reorder(secs(1.4), 0.01, ms(1))
                    .duplicate(secs(1.6), 0.01)
                    .burst_loss(secs(2.2), 0.01, 0.5)
                    .iid_loss(secs(5.0), 0.01),
            )
            .traced(TraceConfig::standard())
            .watched(WatchdogConfig::every_slice()),
        ),
        (
            "vegas-pie-ecn-parking-lot-traced",
            secs(3.0),
            tiny(
                "bytes/vegas",
                vec![group(CcaKind::Vegas, 2, 20), group(CcaKind::Reno, 1, 30)],
                4,
            )
            .aqm(aqm("pie"))
            .ecn(true)
            .topology(TopologyKind::parse("parking_lot:3").expect("parking_lot:3 parses"))
            .traced(TraceConfig::standard()),
        ),
        (
            "reno-droptail-ecn-batched-watched",
            secs(2.5),
            tiny("bytes/batched", vec![group(CcaKind::Reno, 3, 20)], 5)
                .ecn(true)
                .tuned(Tuning {
                    delack_segments: 4,
                    tx_burst: 8,
                })
                .watched(WatchdogConfig::every_n(2)),
        ),
    ]
}

/// `(case, encoded_len, fnv1a_64(body))` at the current `SNAP_VERSION`.
const PINNED: [(&str, usize, u64); 5] = [
    ("reno-droptail-warmup", 7_928, 0xb995_83cf_d9d7_d7c6),
    ("cubic-red-ecn-iid-loss", 4_353, 0x7459_8f64_b61a_9980),
    (
        "bbr-codel-ecn-faults-traced-watched",
        57_410,
        0x7cab_1fdf_925e_885f,
    ),
    (
        "vegas-pie-ecn-parking-lot-traced",
        82_588,
        0xf66a_d60d_fabe_9945,
    ),
    (
        "reno-droptail-ecn-batched-watched",
        8_027,
        0x5048_d0cf_2fdd_80a9,
    ),
];

#[test]
fn checkpoint_bytes_are_pinned() {
    let mut got = Vec::new();
    for (name, at, s) in cases() {
        let cp = RunRequest::new(&s)
            .checkpoint_at(at)
            .capture()
            .unwrap_or_else(|e| panic!("{name}: capture failed: {e:?}"));
        got.push((name, cp.encoded_len(), fnv1a_64(&cp.body)));
    }
    let want: Vec<_> = PINNED.to_vec();
    assert_eq!(got, want, "checkpoint bytes moved; got {got:#x?}");
}
