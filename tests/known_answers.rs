//! Known answers: small scenarios whose outcome the literature fixes.
//!
//! Each case is a scenario, the answer it must give, and where that answer
//! comes from. A case the simulator gets wrong lands with
//! `#[ignore = "<measured value>"]`, so this file is also the list of
//! known congestion-control defects; `cargo test --release --test
//! known_answers -- --ignored` runs them.

use ccsim::cca::CcaKind;
use ccsim::experiments::{run, FlowGroup, Scenario};
use ccsim::sim::{Bandwidth, SimDuration};

fn edge(name: &str, cca: CcaKind, count: u32, rtt_ms: u64) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named(name)
        .flows(vec![FlowGroup::new(
            cca,
            count,
            SimDuration::from_millis(rtt_ms),
        )])
        .seed(1);
    s.convergence = None;
    s
}

/// One NewReno flow through a buffer of one bandwidth-delay product never
/// lets the link idle: the window halves from 2 BDP to 1 BDP, which still
/// fills the pipe, so the link runs at line rate and goodput is line rate
/// less the header share (1448 of every 1500 wire bytes). The fluid
/// answer is exact; whole packets and delayed ACKs leave the odd idle slot
/// at the bottom of each sawtooth, so the case allows 2 %.
///
/// Answer: Villamizar and Song, "High Performance TCP in ANSNET", ACM CCR
/// 24(5), 1994 (the buffer = RTT × C rule); Appenzeller, Keslassy and
/// McKeown, "Sizing Router Buffers", SIGCOMM 2004, §2.
#[test]
fn one_newreno_flow_with_a_one_bdp_buffer_fills_the_link() {
    let mut s = edge("known/newreno-1bdp", CcaKind::Reno, 1, 20);
    s.bottleneck = Bandwidth::from_mbps(10);
    s.buffer_bytes = 25_000; // 10 Mbit/s × 20 ms
    s.start_jitter = SimDuration::ZERO;
    s.warmup = SimDuration::from_secs(2);
    s.duration = SimDuration::from_secs(10);
    let o = run(&s);
    let line_rate_goodput = 1448.0 / 1500.0;
    let ratio = o.utilization() / line_rate_goodput;
    assert!(
        (0.98..=1.0 + 1e-9).contains(&ratio),
        "utilization {} is {ratio} of line rate less headers",
        o.utilization()
    );
}

/// Ten BBR flows with one base RTT share a bottleneck evenly: BBR's
/// ProbeBW gain cycle and ProbeRTT synchronisation converge equal flows to
/// equal shares.
///
/// Answer: Cardwell et al., "BBR: Congestion-Based Congestion Control",
/// ACM Queue 14(5), 2016 (equal-RTT BBR flows converge to a fair share).
/// The failure is reproduced independently in "BBR Fairness Evaluation
/// Using NS-3" (arXiv:2410.22560). Here the flows sink to the 4-packet
/// cwnd floor because `Bbr::set_cwnd` lacks Linux's
/// `bbr_quantization_budget` headroom.
#[test]
#[ignore = "JFI 0.40"]
fn ten_bbr_flows_at_one_rtt_share_the_link_fairly() {
    let mut s = edge("known/bbr-10x20ms", CcaKind::Bbr, 10, 20);
    s.warmup = SimDuration::from_secs(20);
    s.duration = SimDuration::from_secs(40);
    let jfi = run(&s).jain_index().expect("ten flows have a JFI");
    assert!(jfi >= 0.9, "JFI {jfi}");
}
