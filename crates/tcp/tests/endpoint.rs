//! Endpoint-level integration tests: a sender/receiver pair over a real
//! (simulated) link, exercising slow start, fast retransmit, RTO backoff,
//! and ACK clocking without any experiment-harness machinery.

use ccsim_net::link::{Link, NextHop};
use ccsim_net::msg::Msg;
use ccsim_net::packet::{FlowId, Packet, PacketKind, SackBlocks};
use ccsim_sim::{Bandwidth, Component, ComponentId, Ctx, SimDuration, SimTime, Simulator};
use ccsim_tcp::cc::{AckSample, CongestionControl, FixedWindow};
use ccsim_tcp::receiver::Receiver;
use ccsim_tcp::sender::{start_msg, CaState, Sender, SenderConfig};

const MSS: u32 = 1000;

/// Minimal AIMD congestion response for recovery tests: FixedWindow never
/// reduces its window, so a burst-loss scenario RTO-thrashes forever with
/// it — which is correct protocol behavior, but not what these tests probe.
struct MiniAimd {
    cwnd: u64,
    ssthresh: u64,
}

impl MiniAimd {
    fn new(cwnd_segments: u64) -> Self {
        MiniAimd {
            cwnd: cwnd_segments * MSS as u64,
            ssthresh: u64::MAX,
        }
    }
}

impl CongestionControl for MiniAimd {
    fn name(&self) -> &'static str {
        "mini-aimd"
    }
    fn cwnd(&self) -> u64 {
        self.cwnd
    }
    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }
    fn pacing_rate(&self) -> Option<ccsim_sim::Bandwidth> {
        None
    }
    fn on_ack(&mut self, s: &AckSample) {
        if !s.in_recovery {
            self.cwnd += s.newly_acked.min(MSS as u64);
        }
    }
    fn on_enter_recovery(&mut self, _s: &AckSample) {
        self.ssthresh = (self.cwnd / 2).max(2 * MSS as u64);
    }
    fn on_exit_recovery(&mut self, _s: &AckSample, after_rto: bool) {
        if !after_rto {
            self.cwnd = self.ssthresh;
        }
    }
    fn on_rto(&mut self, _s: &AckSample) {
        self.ssthresh = (self.cwnd / 2).max(2 * MSS as u64);
        self.cwnd = MSS as u64;
    }
    fn save_state(&self, w: &mut ccsim_sim::SnapWriter) {
        w.u64(self.cwnd);
        w.u64(self.ssthresh);
    }
    fn load_state(
        &mut self,
        r: &mut ccsim_sim::SnapReader<'_>,
    ) -> Result<(), ccsim_sim::SnapError> {
        self.cwnd = r.u64()?;
        self.ssthresh = r.u64()?;
        Ok(())
    }
}

/// Wire one flow: sender -> link -> receiver; ACKs return after `rtt`.
/// Returns (sim, sender_id, receiver_id, link_id).
fn one_flow(
    rate: Bandwidth,
    buffer: u64,
    rtt_ms: u64,
    cwnd_segments: u64,
    data_limit: Option<u64>,
) -> (Simulator<Msg>, ComponentId, ComponentId, ComponentId) {
    one_flow_with(
        rate,
        buffer,
        rtt_ms,
        Box::new(FixedWindow::new(cwnd_segments * MSS as u64)),
        data_limit,
    )
}

/// Like [`one_flow`] with an explicit CCA instance.
fn one_flow_with(
    rate: Bandwidth,
    buffer: u64,
    rtt_ms: u64,
    cca: Box<dyn CongestionControl>,
    data_limit: Option<u64>,
) -> (Simulator<Msg>, ComponentId, ComponentId, ComponentId) {
    let mut sim = Simulator::new(0);
    let link = sim.add_component(Link::new(
        rate,
        SimDuration::ZERO,
        buffer,
        NextHop::ToPacketDst,
    ));
    let sender_id = ComponentId::from_raw(1);
    let receiver_id = ComponentId::from_raw(2);
    let cfg = SenderConfig {
        flow: FlowId(0),
        mss: MSS,
        receiver: receiver_id,
        first_hop: link,
        data_limit,
        ecn: false,
    };
    let s = sim.add_component(Sender::new(cfg, cca));
    assert_eq!(s, sender_id);
    let r = sim.add_component(Receiver::new(
        FlowId(0),
        sender_id,
        SimDuration::from_millis(rtt_ms),
        MSS,
    ));
    assert_eq!(r, receiver_id);
    sim.schedule(SimTime::ZERO, sender_id, start_msg());
    (sim, sender_id, receiver_id, link)
}

#[test]
fn bounded_transfer_completes_exactly() {
    // 100 segments over a clean link.
    let (mut sim, sender, receiver, _) = one_flow(
        Bandwidth::from_mbps(10),
        u64::MAX,
        20,
        10,
        Some(100 * MSS as u64),
    );
    sim.run();
    let rx = sim.component::<Receiver>(receiver);
    assert_eq!(rx.delivered_bytes(), 100 * MSS as u64);
    assert_eq!(rx.ooo_ranges(), 0);
    let st = sim.component::<Sender>(sender).stats();
    assert_eq!(st.data_pkts_sent, 100);
    assert_eq!(st.retransmits, 0);
    assert_eq!(st.rtos, 0);
    assert_eq!(sim.component::<Sender>(sender).in_flight(), 0);
}

#[test]
fn throughput_is_window_limited_when_window_is_small() {
    // cwnd = 4 segments, RTT 100 ms => ~40 segs/sec = 40 KB/s regardless
    // of the 10 Mbps link.
    let (mut sim, _, receiver, _) = one_flow(Bandwidth::from_mbps(10), u64::MAX, 100, 4, None);
    sim.run_until(SimTime::from_secs(10));
    let delivered = sim.component::<Receiver>(receiver).delivered_bytes();
    let rate = delivered as f64 / 10.0;
    let expected = 4.0 * MSS as f64 / 0.1;
    assert!(
        (rate - expected).abs() / expected < 0.15,
        "rate {rate} vs window-limited {expected}"
    );
}

#[test]
fn fast_retransmit_repairs_single_drop_without_rto() {
    // Buffer sized to drop a few burst packets, with an AIMD responder so
    // the window adapts: recovery must complete via SACK fast retransmit.
    // Infinite source: there is always fresh data whose delivery provides
    // the loss-detection evidence, so no repair ever needs an RTO. (With a
    // bounded source, a loss of the final segments is a genuine tail loss
    // that only an RTO can repair — we model pre-TLP stacks.)
    let (mut sim, sender, receiver, link) = one_flow_with(
        Bandwidth::from_mbps(5),
        12 * 1500,
        20,
        Box::new(MiniAimd::new(16)),
        None,
    );
    sim.run_until(SimTime::from_secs(30));
    let st = sim.component::<Sender>(sender).stats();
    let drops = sim.component::<Link>(link).stats().dropped_pkts;
    assert!(drops > 0, "scenario must induce drops");
    assert!(st.retransmits > 0, "drops must trigger retransmissions");
    // The link must stay productive: ≥80% of 5 Mbps over 30 s.
    let delivered = sim.component::<Receiver>(receiver).delivered_bytes();
    assert!(
        delivered as f64 > 0.8 * 5e6 / 8.0 * 30.0,
        "delivered only {delivered} bytes"
    );
    // Fast recovery, not timeouts, does all the repair.
    assert!(
        st.fast_recoveries > 0,
        "expected SACK-based recovery episodes"
    );
    assert_eq!(
        st.rtos, 0,
        "no RTO should be needed with an infinite source"
    );
}

/// A blackhole that swallows every packet (for RTO tests).
struct Blackhole;

impl Component<Msg> for Blackhole {
    fn on_event(&mut self, _now: SimTime, _msg: Msg, _ctx: &mut Ctx<'_, Msg>) {}
}

#[test]
fn rto_fires_and_backs_off_through_a_blackhole() {
    let mut sim = Simulator::new(0);
    let hole = sim.add_component(Blackhole);
    let sender_id = ComponentId::from_raw(1);
    let cfg = SenderConfig {
        flow: FlowId(0),
        mss: MSS,
        receiver: hole,
        first_hop: hole,
        data_limit: None,
        ecn: false,
    };
    let s = sim.add_component(Sender::new(cfg, Box::new(FixedWindow::new(10_000))));
    assert_eq!(s, sender_id);
    sim.schedule(SimTime::ZERO, sender_id, start_msg());
    sim.run_until(SimTime::from_secs(30));
    let snd = sim.component::<Sender>(sender_id);
    // Initial RTO is 1 s; doubling thereafter: fires at ~1, 3, 7, 15 s.
    assert!(snd.stats().rtos >= 4, "rtos = {}", snd.stats().rtos);
    assert!(
        snd.stats().rtos <= 6,
        "rtos = {} (backoff broken?)",
        snd.stats().rtos
    );
    assert_eq!(snd.ca_state(), CaState::Loss);
    // Each timeout retransmits the head segment.
    assert!(snd.stats().retransmits >= snd.stats().rtos - 1);
}

#[test]
fn recovery_after_total_blackout_resumes_delivery() {
    // Normal link, but the buffer is so small that most of the initial
    // window burst is wiped out; the AIMD responder collapses its window
    // and the transfer must still complete.
    let (mut sim, sender, receiver, _) = one_flow_with(
        Bandwidth::from_kbps(500),
        2 * 1500,
        20,
        Box::new(MiniAimd::new(32)),
        Some(60 * MSS as u64),
    );
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(
        sim.component::<Receiver>(receiver).delivered_bytes(),
        60 * MSS as u64
    );
    let st = sim.component::<Sender>(sender).stats();
    assert!(st.retransmits > 0);
}

#[test]
fn delayed_acks_halve_ack_volume_on_clean_paths() {
    let (mut sim, sender, receiver, _) = one_flow(
        Bandwidth::from_mbps(10),
        u64::MAX,
        20,
        20,
        Some(1000 * MSS as u64),
    );
    sim.run();
    let sent = sim.component::<Sender>(sender).stats().data_pkts_sent;
    let acks = sim.component::<Receiver>(receiver).stats().acks_sent;
    assert_eq!(sent, 1000);
    // Delayed ACKs: about one ACK per two segments (plus timer stragglers).
    assert!(acks >= 500, "acks = {acks}");
    assert!(acks < 650, "acks = {acks}: delayed ACKing not effective");
}

/// Fixed window plus a fixed pacing rate: lets a test drain the flight
/// entirely between transmissions (the pacing gate blocks new data while
/// zero bytes are outstanding), which no pure window CCA can do.
struct PacedWindow {
    cwnd: u64,
    rate: Bandwidth,
}

impl CongestionControl for PacedWindow {
    fn name(&self) -> &'static str {
        "paced-window"
    }
    fn cwnd(&self) -> u64 {
        self.cwnd
    }
    fn ssthresh(&self) -> u64 {
        u64::MAX
    }
    fn pacing_rate(&self) -> Option<Bandwidth> {
        Some(self.rate)
    }
    fn on_ack(&mut self, _s: &AckSample) {}
    fn on_enter_recovery(&mut self, _s: &AckSample) {}
    fn on_exit_recovery(&mut self, _s: &AckSample, _after_rto: bool) {}
    fn on_rto(&mut self, _s: &AckSample) {}
    fn save_state(&self, w: &mut ccsim_sim::SnapWriter) {
        w.u64(self.cwnd);
    }
    fn load_state(
        &mut self,
        r: &mut ccsim_sim::SnapReader<'_>,
    ) -> Result<(), ccsim_sim::SnapError> {
        self.cwnd = r.u64()?;
        Ok(())
    }
}

/// Forwards packets to their destination after a fixed one-way delay,
/// except the *first* transmission of the data segment starting at
/// `drop_seq`, which it swallows (retransmissions pass).
struct DropFirstTx {
    drop_seq: u64,
    delay: SimDuration,
}

impl Component<Msg> for DropFirstTx {
    fn on_event(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Packet(p) = msg {
            if p.kind() == PacketKind::Data && p.seq() == self.drop_seq && !p.retransmit {
                return;
            }
            ctx.schedule_in(self.delay, p.dst, Msg::Packet(p));
        }
    }
}

/// Regression test for the flight-drain stall bug fixed by cancellation
/// tokens. A paced flow drains its flight (segment 1 is ACKed long before
/// pacing releases segment 2), which disarms the RTO. Segment 2 — the last
/// of the transfer — is then lost. The fix arms a fresh RTO when segment 2
/// is sent, so the loss is repaired in well under a second.
///
/// Under the old lazy-cancellation scheme this scenario stalled *forever*:
/// the drain set `rto_deadline = MAX` but left the initial 1 s timer event
/// parked in the queue (`rto_pending` still true), so the segment-2 send at
/// t ≈ 300 ms armed nothing. The parked event then fired as a no-op
/// (deadline was MAX), the queue went empty, and the flow hung with one
/// segment delivered and zero timeouts.
#[test]
fn rto_rearms_after_flight_drain_so_tail_loss_cannot_stall() {
    let mut sim = Simulator::new(0);
    // One-way 5 ms; drop the first transmission of the second segment.
    let hop = sim.add_component(DropFirstTx {
        drop_seq: MSS as u64,
        delay: SimDuration::from_millis(5),
    });
    let sender_id = ComponentId::from_raw(1);
    let receiver_id = ComponentId::from_raw(2);
    let cfg = SenderConfig {
        flow: FlowId(0),
        mss: MSS,
        receiver: receiver_id,
        first_hop: hop,
        data_limit: Some(2 * MSS as u64),
        ecn: false,
    };
    // ~28 kbps pacing => ~300 ms between 1052-byte wire segments: segment 1
    // is ACKed (flight drains, RTO disarmed) long before segment 2 leaves.
    let s = sim.add_component(Sender::new(
        cfg,
        Box::new(PacedWindow {
            cwnd: 10 * MSS as u64,
            rate: Bandwidth::from_bps(28_000),
        }),
    ));
    assert_eq!(s, sender_id);
    let r = sim.add_component(Receiver::new(
        FlowId(0),
        sender_id,
        SimDuration::from_millis(5),
        MSS,
    ));
    assert_eq!(r, receiver_id);
    sim.schedule(SimTime::ZERO, sender_id, start_msg());
    sim.run();
    let snd = sim.component::<Sender>(sender_id);
    let rx = sim.component::<Receiver>(receiver_id);
    assert_eq!(
        rx.delivered_bytes(),
        2 * MSS as u64,
        "tail loss after a flight drain must be repaired, not stall"
    );
    assert_eq!(snd.stats().rtos, 1, "exactly one timeout repairs the loss");
    assert_eq!(snd.stats().retransmits, 1);
    assert_eq!(snd.in_flight(), 0);
    // The RTO must fire from the deadline armed at the segment-2 send
    // (~500 ms), not from the stale initial-RTO event parked at t = 1 s.
    assert!(
        sim.now() < SimTime::from_secs(1),
        "transfer finished only at {} — timer fired late",
        sim.now()
    );
}

/// A backed-off RTO that is rearmed mid-recovery must fire exactly once, at
/// the rearmed deadline — neither early (from the superseded pre-ACK timer)
/// nor twice (superseded plus rearmed both dispatching).
///
/// Timeline (all exact, the sim is deterministic): two segments enter a
/// blackhole at t = 0; the initial RTO fires at 1 s and backs off to 2 s;
/// a straggler ACK for the head segment arrives at 1.5 s. Karn's rule
/// takes no RTT sample from the retransmitted head, so the backoff
/// survives and the rearm lands at 1.5 + 2 = 3.5 s. The superseded timer
/// sat at 3.0 s; firing there would be early, firing at both would double.
#[test]
fn backed_off_rto_rearmed_mid_recovery_fires_once_at_new_deadline() {
    let mut sim = Simulator::new(0);
    let hole = sim.add_component(Blackhole);
    let sender_id = ComponentId::from_raw(1);
    let cfg = SenderConfig {
        flow: FlowId(0),
        mss: MSS,
        receiver: hole,
        first_hop: hole,
        data_limit: Some(2 * MSS as u64),
        ecn: false,
    };
    let s = sim.add_component(Sender::new(cfg, Box::new(FixedWindow::new(2 * MSS as u64))));
    assert_eq!(s, sender_id);
    sim.schedule(SimTime::ZERO, sender_id, start_msg());
    // Straggler ACK covering the head segment, injected mid-backoff.
    let ack_at = SimTime::from_millis(1500);
    sim.schedule(
        ack_at,
        sender_id,
        Msg::Packet(Packet::ack(
            FlowId(0),
            sender_id,
            MSS as u64,
            SackBlocks::EMPTY,
            ack_at,
        )),
    );
    // Each fire is pinned by the latest-event instant at a step boundary.
    sim.run_until(SimTime::from_millis(3400));
    let st = sim.component::<Sender>(sender_id).stats();
    assert_eq!(
        st.rtos, 1,
        "only the initial fire before the rearmed deadline"
    );
    assert_eq!(
        (st.last_event_at, st.events_at_last),
        (SimTime::from_secs(1), 1)
    );
    sim.run_until(SimTime::from_secs(4));
    let snd = sim.component::<Sender>(sender_id);
    let st = snd.stats();
    assert_eq!(st.rtos, 2, "initial fire plus exactly one rearmed fire");
    // Both segments retransmitted at 1 s, the surviving tail again at 3.5 s.
    assert_eq!(st.retransmits, 3);
    assert_eq!(snd.ca_state(), CaState::Loss);
    assert_eq!(
        (st.last_event_at, st.events_at_last),
        (SimTime::from_millis(3500), 1),
        "rearmed RTO must fire at lastACK + backed-off RTO, exactly once"
    );
}

#[test]
fn srtt_converges_to_path_rtt() {
    let (mut sim, sender, _, _) = one_flow(Bandwidth::from_mbps(50), u64::MAX, 50, 10, None);
    sim.run_until(SimTime::from_secs(5));
    let srtt = sim.component::<Sender>(sender).srtt();
    let ms = srtt.as_nanos() as f64 / 1e6;
    // Base 50 ms + sub-ms serialization.
    assert!((49.0..55.0).contains(&ms), "srtt = {ms} ms");
    let min = sim.component::<Sender>(sender).min_rtt();
    assert!(min <= srtt);
}
