//! Isolated stages: each layer's public API driven alone, on inputs
//! sized from the in-situ counts of the workload being traced.
//!
//! Components that only react to events (`Link`, `Router`, `Sender`,
//! `Receiver`) are driven inside a miniature `Simulator` whose other
//! components are stubs, the way the criterion benches in
//! `crates/bench/benches` do. Where a stub's own events would pollute the
//! figure, the same strided timer as the in-situ pass separates the event
//! kinds, or the engine floor (`sim.dispatch.ns_per_event_floor`) is
//! subtracted; each function says which.
//!
//! Everything here runs cache-warm on a small working set. That is the
//! point: the gap between these figures and the in-situ ones on the
//! 5 k/100 k-flow workloads is memory-system cost (`layers.residual_*`).

use crate::attribution::{KindTimer, Ticker};
use crate::compat::classify;
use ccsim_analysis::{burstiness, jain_fairness_index};
use ccsim_cca::{make_cca, CcaKind};
use ccsim_net::link::{Link, NextHop};
use ccsim_net::packet::{SackBlock, SackBlocks};
use ccsim_net::{AqmKind, FlowId, Msg, Packet, TimerToken};
use ccsim_sim::{
    Bandwidth, Component, ComponentId, Ctx, EventQueue, SimDuration, SimTime, Simulator, SnapError,
    SnapReader, SnapWriter,
};
use ccsim_tcp::sender::{start_msg, SenderConfig};
use ccsim_tcp::{AckSample, CongestionControl, Receiver, Scoreboard, Sender, TxRecord};
use ccsim_telemetry::Counter;
use ccsim_timeline::{FlowPoint, LinkPoint, Timeline, TimelineConfig};
use ccsim_topo::Router;
use ccsim_trace::{write_binary, FlowRecorder, RetentionPolicy, RunTrace, TraceMeta, TraceRecord};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the stages are sized from.
#[derive(Debug, Clone)]
pub struct Sizing {
    pub flows: u64,
    pub links: u64,
    pub max_pending: u64,
    /// Mean segments in flight per flow (scoreboard length).
    pub window_segments: u64,
    /// One data packet in this many is dropped (0 = lossless).
    pub loss_every: u64,
    pub drops: u64,
    pub mss: u32,
    pub rate: Bandwidth,
    pub aqm: AqmKind,
    pub ecn: bool,
    pub tx_burst: u32,
    pub delack_segments: u32,
    /// Seeds the synthetic input patterns.
    pub seed: u64,
}

/// Median nanoseconds per operation over repeated batches. `batch` sets
/// up, times its work with [`timed`], and returns `(nanoseconds,
/// operations)`.
fn per_op(budget: Duration, mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 200) {
        let (nanos, ops) = batch();
        samples.push(nanos / ops.max(1) as f64);
    }
    crate::stats::median(&samples)
}

/// Nanoseconds `work` took.
fn timed(work: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    work();
    t0.elapsed().as_nanos() as f64
}

/// Swallows every message.
struct Blackhole;

impl Component<Msg> for Blackhole {
    fn on_event(&mut self, _now: SimTime, _msg: Msg, _ctx: &mut Ctx<'_, Msg>) {}
}

/// CoreScale-like delay mix (as `crates/bench/benches/event_queue.rs`):
/// mostly µs serializations and sub-ms deliveries, some RTT-scale ACK
/// clocks, a tail of RTO-scale rearms.
fn delay(i: u64) -> SimDuration {
    match i % 16 {
        0..=7 => SimDuration::from_nanos(1_200 + (i % 977)),
        8..=12 => SimDuration::from_micros(40 + (i % 613)),
        13..=14 => SimDuration::from_millis(1 + (i % 7)),
        _ => SimDuration::from_millis(200 + (i % 50)),
    }
}

fn timer_msg() -> Msg {
    Msg::Timer(TimerToken::pack(1, 7))
}

fn seeded_wheel(pending: u64) -> EventQueue<Msg> {
    let mut q = EventQueue::new();
    for i in 0..pending.max(1) {
        q.schedule(
            SimTime::ZERO + delay(i),
            ComponentId::from_raw(0),
            timer_msg(),
        );
    }
    q
}

const WHEEL_OPS: u64 = 50_000;

/// `sim.wheel.ns_per_pop_push`: hold pattern at the workload's pending
/// count — pop the head, schedule a replacement.
pub fn wheel_pop_push(s: &Sizing, budget: Duration) -> f64 {
    let dst = ComponentId::from_raw(0);
    let mut q = seeded_wheel(s.max_pending);
    let mut i = s.seed;
    per_op(budget, || {
        let ns = timed(|| {
            for _ in 0..WHEEL_OPS {
                let e = q.pop().expect("hold pattern never drains");
                q.schedule(e.time + delay(i), dst, timer_msg());
                i += 1;
            }
        });
        (ns, WHEEL_OPS)
    })
}

/// `sim.wheel.ns_per_cancel_rearm`: the RTO/delayed-ACK pattern — cancel
/// a pending cancellable event and schedule its replacement. Measured
/// inside the same hold pattern (time must advance), whose own cost
/// `pop_push_ns` is subtracted.
pub fn wheel_cancel_rearm(s: &Sizing, budget: Duration, pop_push_ns: f64) -> f64 {
    let dst = ComponentId::from_raw(0);
    let mut q = seeded_wheel(s.max_pending);
    let mut tok = q.schedule_cancellable(SimTime::ZERO + delay(0), dst, timer_msg());
    let mut i = s.seed;
    let with = per_op(budget, || {
        let ns = timed(|| {
            for _ in 0..WHEEL_OPS {
                let e = q.pop().expect("hold pattern never drains");
                q.cancel(tok);
                tok = q.schedule_cancellable(e.time + delay(i), dst, timer_msg());
                q.schedule(e.time + delay(i.wrapping_mul(7)), dst, timer_msg());
                i += 1;
            }
        });
        (ns, WHEEL_OPS)
    });
    (with - pop_push_ns).max(0.0)
}

const FLOOR_EVENTS: u64 = 50_000;

/// A simulator holding one blackhole and `pending` far-future events.
fn idle_sim(pending: u64) -> (Simulator<Msg>, ComponentId) {
    let mut sim = Simulator::new(0);
    let sink = sim.add_component(Blackhole);
    for i in 0..pending.min(200_000) {
        sim.schedule(SimTime::from_secs(1_000_000 + i), sink, timer_msg());
    }
    (sim, sink)
}

/// `sim.dispatch.ns_per_event_floor`: the least a self-sustaining event
/// costs — extract, dispatch, a handler that only schedules its successor
/// — beside the workload's pending population (as the `dispatch` group of
/// `crates/bench/benches/engine.rs`).
pub fn dispatch_floor(s: &Sizing, budget: Duration) -> f64 {
    let (mut sim, _) = idle_sim(s.max_pending);
    let ticker = sim.add_component(Ticker { remaining: 0 });
    let mut until = SimTime::ZERO;
    per_op(budget, || {
        sim.component_mut::<Ticker>(ticker).remaining = FLOOR_EVENTS - 1;
        sim.schedule(until, ticker, timer_msg());
        until += SimDuration::from_nanos(700 * FLOOR_EVENTS);
        let ns = timed(|| sim.run_until(until));
        (ns, FLOOR_EVENTS)
    })
}

/// Run `sim` to `until` under the strided timer.
fn run_timed(sim: &mut Simulator<Msg>, until: SimTime, timer: &mut KindTimer) {
    sim.run_until_classified(until, |m| {
        let k = classify(m);
        timer.on_event(k);
        k
    });
    timer.end_slice();
}

/// Run `batch` under one strided timer until the budget is spent (at
/// least once) and return the timer.
fn sample_kinds(
    budget: Duration,
    mean_gap: u32,
    mut batch: impl FnMut(&mut KindTimer),
) -> KindTimer {
    let mut timer = KindTimer::new(3, mean_gap);
    let started = Instant::now();
    loop {
        batch(&mut timer);
        if started.elapsed() >= budget {
            return timer;
        }
    }
}

/// `prof.ns_per_event`: what `enable_profiling` (stride 1024) adds to a
/// classified dispatch.
pub fn prof_per_event(s: &Sizing, budget: Duration) -> f64 {
    let run = |profiled: bool| {
        let (mut sim, _) = idle_sim(s.max_pending.min(10_000));
        let ticker = sim.add_component(Ticker { remaining: 0 });
        sim.set_event_classes(3);
        if profiled {
            sim.enable_profiling(vec![0], 4, 3, 1024);
        }
        let mut until = SimTime::ZERO;
        per_op(budget / 2, || {
            sim.component_mut::<Ticker>(ticker).remaining = FLOOR_EVENTS - 1;
            sim.schedule(until, ticker, timer_msg());
            until += SimDuration::from_nanos(700 * FLOOR_EVENTS);
            let ns = timed(|| sim.run_until_classified(until, classify));
            (ns, FLOOR_EVENTS)
        })
    };
    (run(true) - run(false)).max(0.0)
}

const LINK_PKTS: u64 = 20_000;
/// Past the last event of any packet storm.
const STORM_END: SimTime = SimTime::from_secs(3600);

fn data_pkt(flow: u64, dst: ComponentId, seq: u64, mss: u32) -> Packet {
    Packet::data(
        FlowId(flow as u32),
        dst,
        seq,
        seq + u64::from(mss),
        SimTime::ZERO,
    )
}

/// A fresh simulator with a blackhole, the component under test built by
/// `make` (told the blackhole's id), and `LINK_PKTS` data packets for it
/// pre-scheduled `gap_ns` apart.
fn packet_storm<C: Component<Msg>>(
    s: &Sizing,
    gap_ns: u64,
    make: impl FnOnce(ComponentId) -> Option<C>,
) -> (Simulator<Msg>, ComponentId) {
    let mut sim = Simulator::new(0);
    let sink = sim.add_component(Blackhole);
    let target = match make(sink) {
        Some(c) => sim.add_component(c),
        None => sink,
    };
    for i in 0..LINK_PKTS {
        let p = data_pkt(i % s.flows.clamp(1, 100_000), sink, 0, s.mss);
        sim.schedule(
            SimTime::from_nanos(i * gap_ns.max(1)),
            target,
            Msg::Packet(p),
        );
    }
    (sim, target)
}

/// Baseline for the packet-storm stages: the same pre-scheduled packets
/// delivered straight to the blackhole. Pre-scheduled events are dear to
/// extract (they cascade down the wheel); subtracting this leaves what the
/// component under test adds.
pub fn storm_baseline(s: &Sizing, budget: Duration) -> f64 {
    per_op(budget, || {
        let (mut sim, _) = packet_storm(s, 700, |_| None::<Blackhole>);
        (timed(|| sim.run_until(STORM_END)), LINK_PKTS)
    })
}

fn bench_link(s: &Sizing, buffer: u64, aqm: Option<AqmKind>) -> Link {
    let mut link = Link::new(s.rate, SimDuration::ZERO, buffer, NextHop::ToPacketDst);
    if let Some(kind) = aqm {
        link.set_aqm(kind.build(buffer, s.rate, s.ecn, s.seed));
    }
    if s.tx_burst > 1 {
        link.set_tx_burst(s.tx_burst);
    }
    link
}

/// Link costs for a packet that is transmitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCosts {
    /// `net.link.ns_per_pkt_tx`: arrival, serialization-done and hand-off
    /// to the next hop, above the storm baseline.
    pub per_pkt_ns: f64,
    /// One serialization-done timer event (dequeue, forward, start the
    /// next), from the strided timer.
    pub timer_ns: f64,
    pub timers_per_pkt: f64,
}

impl LinkCosts {
    /// One packet arrival: the per-packet cost less its timer share.
    pub fn data_ns(&self) -> f64 {
        (self.per_pkt_ns - self.timer_ns * self.timers_per_pkt).max(0.0)
    }
}

/// Packets offered just under line rate through the workload's own link
/// configuration (AQM, ECN, `tx_burst`) into a blackhole.
pub fn link_tx(s: &Sizing, budget: Duration, baseline_ns: f64) -> LinkCosts {
    let aqm = (s.aqm != AqmKind::DropTail).then_some(s.aqm);
    let wire = u64::from(s.mss) + 52;
    let gap = s.rate.serialization_time(wire).as_nanos() * 102 / 100;
    let storm = || packet_storm(s, gap, |_| Some(bench_link(s, u64::MAX / 4, aqm)));
    let per_pkt = per_op(budget / 2, || {
        let (mut sim, _) = storm();
        (timed(|| sim.run_until(STORM_END)), LINK_PKTS)
    });
    // Timer events are all the link's, so the strided timer isolates them.
    let (mut timers, mut pkts) = (0u64, 0u64);
    let timer = sample_kinds(budget / 2, 8, |timer| {
        let (mut sim, _) = storm();
        sim.set_event_classes(3);
        run_timed(&mut sim, STORM_END, timer);
        timers += sim.event_class_counts()[2];
        pkts += LINK_PKTS;
    });
    LinkCosts {
        per_pkt_ns: (per_pkt - baseline_ns).max(0.0),
        timer_ns: timer.totals()[2].ns_per_event(),
        timers_per_pkt: timers as f64 / pkts as f64,
    }
}

/// `net.link.ns_per_pkt_dropped`: a drop-tail link with a two-packet
/// buffer offered 100× its rate, so ~99 % of arrivals are dropped; per
/// offered packet, above the storm baseline.
pub fn link_dropped(s: &Sizing, budget: Duration, baseline_ns: f64) -> f64 {
    let wire = u64::from(s.mss) + 52;
    let gap = s.rate.serialization_time(wire).as_nanos() / 100;
    let raw = per_op(budget, || {
        let (mut sim, _) = packet_storm(s, gap, |_| {
            let mut link = Link::new(s.rate, SimDuration::ZERO, 2 * wire, NextHop::ToPacketDst);
            if s.tx_burst > 1 {
                link.set_tx_burst(s.tx_burst);
            }
            Some(link)
        });
        (timed(|| sim.run_until(STORM_END)), LINK_PKTS)
    });
    (raw - baseline_ns).max(0.0)
}

/// `net.aqm.<kind>.ns_per_pkt`: the saturated-link storm of
/// `crates/bench/benches/aqm_enqueue.rs` (10 Gbps, 256-packet buffer,
/// 2.4× overload) per offered packet, above the storm baseline.
pub fn aqm_per_pkt(s: &Sizing, kind: AqmKind, budget: Duration, baseline_ns: f64) -> f64 {
    const RATE: Bandwidth = Bandwidth::from_gbps(10);
    const BUFFER: u64 = 256 * 1500;
    let raw = per_op(budget, || {
        let (mut sim, _) = packet_storm(s, 500, |_| {
            let mut link = Link::new(RATE, SimDuration::ZERO, BUFFER, NextHop::ToPacketDst);
            link.set_aqm(kind.build(BUFFER, RATE, false, s.seed));
            Some(link)
        });
        (timed(|| sim.run_until(STORM_END)), LINK_PKTS)
    });
    (raw - baseline_ns).max(0.0)
}

/// `topo.router.ns_per_pkt`: packets through a per-flow route table into
/// a blackhole, above the storm baseline.
pub fn router_per_pkt(s: &Sizing, budget: Duration, baseline_ns: f64) -> f64 {
    let flows = s.flows.clamp(1, 100_000);
    let raw = per_op(budget, || {
        let (mut sim, _) = packet_storm(s, 700, |sink| {
            Some(Router::new(
                (0..flows).map(|f| (f % 2 == 0).then_some(sink)).collect(),
            ))
        });
        (timed(|| sim.run_until(STORM_END)), LINK_PKTS)
    });
    (raw - baseline_ns).max(0.0)
}

const RX_SEGS: u64 = 20_000;
const OOO_BLOCK: u64 = 64;

/// `tcp.receiver.ns_per_seg_*`: segments fed straight to a `Receiver`
/// whose ACKs go to a blackhole. Data events are all the receiver's, so
/// the strided timer's data kind is the figure. Out-of-order feeding
/// delays the first segment of every 64-segment block to the block's
/// end: 63 arrivals extend a SACK range, one fills the hole.
pub fn receiver_per_seg(s: &Sizing, out_of_order: bool, budget: Duration) -> f64 {
    let mss = u64::from(s.mss);
    let timer = sample_kinds(budget, 8, |timer| {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Blackhole);
        let mut rx = Receiver::new(FlowId(0), sink, SimDuration::from_millis(10), s.mss);
        rx.set_delack_segments(s.delack_segments.max(1));
        let rx = sim.add_component(rx);
        for i in 0..RX_SEGS {
            let seg = if !out_of_order {
                i
            } else if i % OOO_BLOCK == OOO_BLOCK - 1 {
                i + 1 - OOO_BLOCK
            } else {
                i + 1
            };
            let p = data_pkt(0, rx, seg * mss, s.mss);
            sim.schedule(SimTime::from_nanos(i * 1_000), rx, Msg::Packet(p));
        }
        sim.set_event_classes(3);
        run_timed(&mut sim, STORM_END, timer);
    });
    timer.totals()[0].ns_per_event()
}

/// Forwards packets to `to` after `delay`; drops every `drop_every`-th
/// first transmission (retransmissions always pass, so holes heal).
struct LossyWire {
    to: ComponentId,
    delay: SimDuration,
    drop_every: u64,
    seen: u64,
}

impl Component<Msg> for LossyWire {
    fn on_event(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Packet(p) = msg {
            if !p.retransmit {
                self.seen += 1;
                if self.drop_every > 0 && self.seen.is_multiple_of(self.drop_every) {
                    return;
                }
            }
            ctx.schedule_in(self.delay, self.to, Msg::Packet(p));
        }
    }
}

/// A constant window whose `ssthresh` equals it. (`FixedWindow` reports
/// an unset `ssthresh`, which leaves PRR's slow-start bound without a
/// ceiling: in recovery the sender would transmit without limit.)
struct PinnedWindow(u64);

impl CongestionControl for PinnedWindow {
    fn name(&self) -> &'static str {
        "pinned"
    }
    fn cwnd(&self) -> u64 {
        self.0
    }
    fn ssthresh(&self) -> u64 {
        self.0
    }
    fn pacing_rate(&self) -> Option<Bandwidth> {
        None
    }
    fn on_ack(&mut self, _s: &AckSample) {}
    fn on_enter_recovery(&mut self, _s: &AckSample) {}
    fn on_exit_recovery(&mut self, _s: &AckSample, _after_rto: bool) {}
    fn on_rto(&mut self, _s: &AckSample) {}
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0 = r.u64()?;
        Ok(())
    }
}

/// `tcp.sender.ns_per_ack_{clean,recovery}`: one flow in a closed loop —
/// `Sender` (pinned window of the workload's scoreboard length, so CCA
/// cost is excluded) → lossy wire → real `Receiver` → back. ACK events
/// are all the sender's, so the strided timer's ack kind is the figure:
/// scoreboard update, loss detection, RTO rearm and the transmissions the
/// ACK releases. With `lossy`, the wire drops one first transmission in
/// `loss_every`, which keeps the flow in SACK recovery.
pub fn sender_per_ack(s: &Sizing, lossy: bool, budget: Duration) -> f64 {
    let window = s.window_segments.clamp(4, 8192);
    let drop_every = if lossy {
        s.loss_every.clamp(8, 1000)
    } else {
        0
    };
    let mut sim = Simulator::new(s.seed);
    let wire_id = ComponentId::from_raw(0);
    let sender_id = ComponentId::from_raw(1);
    let receiver_id = ComponentId::from_raw(2);
    sim.add_component(LossyWire {
        to: receiver_id,
        delay: SimDuration::from_millis(1),
        drop_every,
        seen: s.seed % 7,
    });
    let cfg = SenderConfig {
        flow: FlowId(0),
        mss: s.mss,
        receiver: receiver_id,
        first_hop: wire_id,
        data_limit: None,
        ecn: s.ecn,
    };
    let cca = Box::new(PinnedWindow(window * u64::from(s.mss)));
    assert_eq!(sim.add_component(Sender::new(cfg, cca)), sender_id);
    let mut rx = Receiver::new(FlowId(0), sender_id, SimDuration::from_millis(1), s.mss);
    rx.set_delack_segments(s.delack_segments.max(1));
    assert_eq!(sim.add_component(rx), receiver_id);
    sim.schedule(SimTime::ZERO, sender_id, start_msg());
    sim.set_event_classes(3);
    // Fill the pipe and reach steady state untimed.
    sim.run_until(SimTime::from_millis(50));

    let mut timer = KindTimer::new(3, 8);
    let started = Instant::now();
    let mut until = SimTime::from_millis(50);
    while timer.totals()[1].samples < 1_000 || started.elapsed() < budget {
        until += SimDuration::from_millis(20);
        run_timed(&mut sim, until, &mut timer);
        if started.elapsed() > budget * 20 {
            break;
        }
    }
    timer.totals()[1].ns_per_event()
}

/// `tcp.sender.ns_per_rto`: Reno senders whose every packet vanishes, so
/// each fires a backed-off retransmission timeout again and again. After
/// the untimed start the only events are RTO timers (and the
/// retransmissions they send into the blackhole, which are data events),
/// so the strided timer's timer kind is the figure.
pub fn sender_per_rto(s: &Sizing, budget: Duration) -> f64 {
    const SENDERS: usize = 1_000;
    let timer = sample_kinds(budget, 4, |timer| {
        let mut sim = Simulator::new(s.seed);
        let sink = sim.add_component(Blackhole);
        for f in 0..SENDERS {
            let cfg = SenderConfig {
                flow: FlowId(f as u32),
                mss: s.mss,
                receiver: sink,
                first_hop: sink,
                data_limit: None,
                ecn: false,
            };
            let id = sim.add_component(Sender::new(cfg, make_cca(CcaKind::Reno, s.mss, s.seed)));
            sim.schedule(SimTime::from_micros(f as u64), id, start_msg());
        }
        sim.set_event_classes(3);
        sim.run_until(SimTime::from_millis(500));
        run_timed(&mut sim, SimTime::from_secs(300), timer);
    });
    timer.totals()[2].ns_per_event()
}

fn tx_record(now: SimTime) -> TxRecord {
    TxRecord {
        sent_time: now,
        delivered: 0,
        delivered_time: SimTime::ZERO,
        first_tx_time: SimTime::ZERO,
        app_limited: false,
    }
}

/// `tcp.scoreboard.ns_per_ack_clean`: what `Sender::on_ack_packet` asks
/// of the scoreboard for a cumulative ACK of two segments on a lossless
/// flow — retire them, look for losses (none), look for a retransmission
/// candidate (none), record two new transmissions.
pub fn scoreboard_clean(s: &Sizing, budget: Duration) -> f64 {
    let mss = u64::from(s.mss);
    let mut board = Scoreboard::new(s.mss);
    let mut now = SimTime::ZERO;
    for _ in 0..s.window_segments.clamp(4, 8192) {
        board.on_send_new(mss, tx_record(now));
    }
    const ACKS: u64 = 20_000;
    per_op(budget, || {
        let ns = timed(|| {
            for _ in 0..ACKS {
                now += SimDuration::from_micros(10);
                let ack = board.snd_una() + 2 * mss;
                black_box(board.process_ack(now, ack, &SackBlocks::EMPTY));
                black_box(board.detect_losses());
                black_box(board.next_lost_below(u64::MAX));
                board.on_send_new(mss, tx_record(now));
                board.on_send_new(mss, tx_record(now));
            }
        });
        (ns, ACKS)
    })
}

/// `tcp.scoreboard.ns_per_ack_sack_<n>`: a window of `n` segments whose
/// first is lost. Each duplicate ACK SACKs one more segment behind the
/// hole and the scoreboard is asked what the sender asks it: process the
/// ACK, detect losses, find the next lost segment, mark it retransmitted.
/// After `n − 1` ACKs the hole is filled, the window retired and re-sent.
/// The loss-detection and next-lost walks cross every SACKed segment, so
/// the cost per ACK grows with `n` — the O(window) behaviour that makes
/// `fatflows_mixed_recovery` slow.
pub fn scoreboard_sack(s: &Sizing, n: u64, budget: Duration) -> f64 {
    let mss = u64::from(s.mss);
    per_op(budget, || {
        let mut board = Scoreboard::new(s.mss);
        let mut now = SimTime::ZERO;
        let mut acks = 0u64;
        let ns = timed(|| {
            for _ in 0..(8192 / n).max(1) {
                let base = board.snd_nxt();
                for _ in 0..n {
                    board.on_send_new(mss, tx_record(now));
                }
                for k in 1..n {
                    now += SimDuration::from_micros(10);
                    let mut sack = SackBlocks::EMPTY;
                    sack.push(SackBlock {
                        start: base + mss,
                        end: base + (k + 1) * mss,
                    });
                    black_box(board.process_ack(now, base, &sack));
                    black_box(board.detect_losses());
                    if let Some((seq, _)) = board.next_lost_below(u64::MAX) {
                        board.mark_retransmitted(seq, tx_record(now));
                    }
                    acks += 1;
                }
                now += SimDuration::from_micros(10);
                black_box(board.process_ack(now, base + n * mss, &SackBlocks::EMPTY));
                acks += 1;
            }
        });
        (ns, acks)
    })
}

fn ack_sample(i: u64, mss: u32) -> AckSample {
    let m = u64::from(mss);
    AckSample {
        now: SimTime::from_micros(i * 50),
        rtt: Some(SimDuration::from_millis(20)),
        srtt: SimDuration::from_millis(20),
        min_rtt: SimDuration::from_millis(20),
        newly_acked: m,
        newly_lost: 0,
        delivered: i * m,
        prior_delivered: i.saturating_sub(30) * m,
        prior_in_flight: 45_000,
        in_flight: 45_000 - m,
        delivery_rate: Some(Bandwidth::from_mbps(50)),
        interval: SimDuration::from_millis(20),
        is_app_limited: false,
        in_recovery: false,
        mss,
        cumulative_ack: i * m,
    }
}

/// `cca.<kind>.ns_per_ack`: `on_ack` on a steady stream of clean samples
/// (as `crates/bench/benches/cca_step.rs`).
pub fn cca_per_ack(s: &Sizing, kind: CcaKind, budget: Duration) -> f64 {
    const ACKS: u64 = 10_000;
    let mut cca = make_cca(kind, s.mss, s.seed);
    let mut i = 0u64;
    per_op(budget, || {
        let ns = timed(|| {
            for _ in 0..ACKS {
                cca.on_ack(black_box(&ack_sample(i, s.mss)));
                i += 1;
            }
        });
        black_box(cca.cwnd());
        (ns, ACKS)
    })
}

/// `analysis.jfi.ns_per_flow`: Jain's index over one throughput per flow.
pub fn jfi_per_flow(s: &Sizing, budget: Duration) -> f64 {
    let n = s.flows.max(2);
    let xs: Vec<f64> = (0..n)
        .map(|i| 1e6 + ((i * 7919 + s.seed) % 1000) as f64)
        .collect();
    per_op(budget, || {
        let ns = timed(|| {
            black_box(jain_fairness_index(black_box(&xs)));
        });
        (ns, n)
    })
}

/// `analysis.burstiness.ns_per_drop`: the drop-burstiness statistic over
/// as many drop timestamps as the workload produced (capped at 1 M).
pub fn burstiness_per_drop(s: &Sizing, budget: Duration) -> f64 {
    let n = s.drops.clamp(1_000, 1_000_000);
    let mut t = 0u64;
    let times: Vec<SimTime> = (0..n)
        .map(|i| {
            t += 1_000 + ((i * 2_654_435_761 + s.seed) % 50_000);
            SimTime::from_nanos(t)
        })
        .collect();
    per_op(budget, || {
        let ns = timed(|| {
            black_box(burstiness(black_box(&times)));
        });
        (ns, n)
    })
}

/// `trace.ns_per_record`: the flight recorder's per-ACK call under
/// KeepAll with cwnd changing on every ACK (the worst case for its
/// on-change dedup; as `crates/bench/benches/trace_record.rs`).
pub fn trace_per_record(s: &Sizing, budget: Duration) -> f64 {
    const ACKS: u64 = 50_000;
    per_op(budget, || {
        let mut rec = FlowRecorder::new(0, RetentionPolicy::KeepAll, 4 << 20, s.seed);
        let ns = timed(|| {
            for t in 0..ACKS {
                let cwnd = 10_000 + (t % 1_000) * 29;
                let srtt = SimDuration::from_nanos(20_000_000 + (t / 100) * 1_000);
                rec.on_ack(SimTime::from_nanos(t * 50_000), cwnd, cwnd / 2, srtt, 0);
            }
        });
        black_box(rec.bytes());
        (ns, ACKS)
    })
}

/// `trace.export.ns_per_record`: `.cctr` encoding of a 100 k-record trace
/// into memory.
pub fn trace_export_per_record(s: &Sizing, budget: Duration) -> f64 {
    const RECORDS: u64 = 100_000;
    let records: Vec<TraceRecord> = (0..RECORDS)
        .map(|t| TraceRecord::cwnd(SimTime::from_nanos(t * 1_000), (t % 64) as u32, t, t / 2))
        .collect();
    let meta = TraceMeta {
        scenario: "bench".into(),
        seed: s.seed,
        flows: 64,
    };
    let trace = RunTrace::assemble(meta, vec![(records, 0, 0)]);
    per_op(budget, || {
        let mut buf = Vec::with_capacity(4 << 20);
        let ns = timed(|| write_binary(&trace, &mut buf).expect("in-memory write"));
        black_box(buf.len());
        (ns, RECORDS)
    })
}

/// `timeline.ns_per_row_flow`: closing one timeline row, per flow of the
/// workload (the aggregate series fold every flow; per-flow series cover
/// the first 64).
pub fn timeline_per_row_flow(s: &Sizing, budget: Duration) -> f64 {
    const ROWS: u64 = 50;
    let flows = s.flows.max(1) as usize;
    let links = s.links.max(1) as usize;
    per_op(budget, || {
        let mut tl = Timeline::new(TimelineConfig::default(), flows, links, SimTime::ZERO);
        let mut delivered = vec![0u64; flows];
        let points = vec![FlowPoint::default(); tl.sampled_flows()];
        let link_points = vec![LinkPoint::default(); links];
        let ns = timed(|| {
            for row in 1..=ROWS {
                for (f, d) in delivered.iter_mut().enumerate() {
                    *d += 1_000 + (f as u64 % 17);
                }
                tl.push_row(SimTime::from_secs(row), &delivered, &points, &link_points);
            }
        });
        black_box(tl.rows().pushed());
        (ns, ROWS * flows as u64)
    })
}

/// `telemetry.registry.ns_per_inc`: one relaxed atomic counter increment.
pub fn registry_per_inc(budget: Duration) -> f64 {
    const INCS: u64 = 100_000;
    let counter = Counter::new();
    per_op(budget, || {
        let ns = timed(|| {
            for _ in 0..INCS {
                black_box(&counter).inc();
            }
        });
        black_box(counter.get());
        (ns, INCS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizing() -> Sizing {
        Sizing {
            flows: 12,
            links: 1,
            max_pending: 2_000,
            window_segments: 64,
            loss_every: 20,
            drops: 5_000,
            mss: 1448,
            rate: Bandwidth::from_gbps(1),
            aqm: AqmKind::DropTail,
            ecn: false,
            tx_burst: 1,
            delack_segments: 2,
            seed: 3,
        }
    }

    const B: Duration = Duration::from_millis(5);

    #[test]
    fn every_stage_yields_a_positive_finite_cost() {
        let s = sizing();
        let baseline = storm_baseline(&s, B);
        let pop_push = wheel_pop_push(&s, B);
        let tx = link_tx(&s, B, baseline);
        let costs = [
            ("floor", dispatch_floor(&s, B)),
            ("baseline", baseline),
            ("pop_push", pop_push),
            ("link.per_pkt", tx.per_pkt_ns),
            ("link.timer", tx.timer_ns),
            ("aqm.codel", aqm_per_pkt(&s, AqmKind::Codel, B, baseline)),
            ("rx.inorder", receiver_per_seg(&s, false, B)),
            ("rx.ooo", receiver_per_seg(&s, true, B)),
            ("tx.clean", sender_per_ack(&s, false, B)),
            ("tx.recovery", sender_per_ack(&s, true, B)),
            ("tx.rto", sender_per_rto(&s, B)),
            ("board.clean", scoreboard_clean(&s, B)),
            ("board.sack64", scoreboard_sack(&s, 64, B)),
            ("cca.bbr", cca_per_ack(&s, CcaKind::Bbr, B)),
            ("jfi", jfi_per_flow(&s, B)),
            ("burstiness", burstiness_per_drop(&s, B)),
            ("trace", trace_per_record(&s, B)),
            ("trace.export", trace_export_per_record(&s, B)),
            ("timeline", timeline_per_row_flow(&s, B)),
            ("registry", registry_per_inc(B)),
        ];
        for (name, ns) in costs {
            assert!(ns.is_finite() && ns > 0.0, "{name} = {ns}");
        }
        assert!((0.9..=1.1).contains(&tx.timers_per_pkt), "{tx:?}");
        // Not asserted positive: differences that may round to zero.
        assert!(link_dropped(&s, B, baseline).is_finite());
        assert!(router_per_pkt(&s, B, baseline).is_finite());
        assert!(wheel_cancel_rearm(&s, B, pop_push).is_finite());
        assert!(prof_per_event(&s, B).is_finite());
    }

    #[test]
    fn sack_walks_grow_with_the_window() {
        let s = sizing();
        let long = Duration::from_millis(30);
        let small = scoreboard_sack(&s, 64, long);
        let large = scoreboard_sack(&s, 8192, long);
        assert!(large > 4.0 * small, "64 → {small} ns, 8192 → {large} ns");
    }

    #[test]
    fn lossy_wire_keeps_the_sender_in_recovery_work() {
        let mut s = sizing();
        s.window_segments = 1024;
        let long = Duration::from_millis(40);
        let clean = sender_per_ack(&s, false, long);
        let recovery = sender_per_ack(&s, true, long);
        assert!(recovery > clean, "clean {clean} ns, recovery {recovery} ns");
    }
}
