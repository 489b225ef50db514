//! Every `Msg` shape arrives bit-identical, and in `(time, seq)` order,
//! over every road the engine can carry it.
//!
//! A message is stored and moved as a value on each of these roads: the
//! wheel's payload slab (`schedule`), the same-instant lane (`Ctx::send`),
//! the lane merged into the ready stage when a zero-delay `schedule_in`
//! shares its instant, a cancelled timer's dead key carrying the re-arm
//! that took it over (a revived key), and the checkpoint codec when a run
//! is saved and resumed in a fresh engine. `Msg`'s layout (its tag word,
//! `Packet`'s shared data/ACK body) is what every one of those copies
//! moves, so each shape — data with each ECN and retransmit combination,
//! ACKs with 0–3 SACK blocks at the `u64::MAX` edges, timers with extreme
//! tokens — goes down each road, and the sink must log exactly the
//! messages, instants and order the script implies.
//!
//! Mutations this file was checked against: the checkpoint codec reading
//! a timer token with its low bit cleared (the hop test fails; the
//! caller's own kick tokens come back wrong), and a revived key carrying
//! its dead placeholder's time instead of the re-arm's (both tests fail
//! at the first re-armed delivery).

use ccsim_net::{
    FlowId, Msg, Packet, SackBlock, SackBlocks, TimerToken, ECN_CE, ECN_CWR, ECN_ECE, ECN_ECT,
};
use ccsim_sim::{
    CancelToken, Component, ComponentId, Ctx, SimDuration, SimTime, Simulator, Snap, SnapReader,
    SnapWriter,
};

/// Every shape under test.
fn shapes() -> Vec<Msg> {
    const MAX: u64 = u64::MAX;
    let mut out = Vec::new();
    let ids = [
        (FlowId(0), ComponentId::from_raw(0)),
        (FlowId(u32::MAX), ComponentId::from_raw(u32::MAX as usize)),
    ];
    for (i, ecn) in (0..16u8).enumerate() {
        for retransmit in [false, true] {
            let (flow, dst) = ids[i % 2];
            let (seq, end) = if retransmit {
                (MAX - 1448, MAX)
            } else {
                (0, 1)
            };
            let mut p = Packet::data(flow, dst, seq, end, SimTime::from_nanos(MAX - i as u64));
            p.retransmit = retransmit;
            p.ecn = ecn;
            out.push(Msg::Packet(p));
        }
    }
    let blocks = [
        SackBlock {
            start: MAX - 3,
            end: MAX,
        },
        SackBlock { start: 0, end: 1 },
        SackBlock {
            start: 1 << 63,
            end: MAX - 4,
        },
    ];
    for n in 0..=blocks.len() {
        for (ack_seq, ecn) in [(0, 0), (MAX, ECN_ECE), (MAX - 1, ECN_ECE | ECN_CE)] {
            let mut sack = SackBlocks::EMPTY;
            for &b in &blocks[..n] {
                sack.push(b);
            }
            let (flow, dst) = ids[n % 2];
            let mut p = Packet::ack(flow, dst, ack_seq, sack, SimTime::from_nanos(ack_seq));
            p.ecn = ecn;
            p.wire_bytes = u32::MAX - n as u32;
            out.push(Msg::Packet(p));
        }
    }
    for t in [
        TimerToken(0),
        TimerToken(1),
        TimerToken(MAX),
        TimerToken(1 << 63),
        TimerToken::pack(u16::MAX, MAX >> 16),
        TimerToken::pack(0, 1),
    ] {
        out.push(Msg::Timer(t));
    }
    assert!(out
        .iter()
        .any(|m| matches!(m, Msg::Packet(p) if p.ecn == ECN_ECT | ECN_CWR)));
    out
}

/// Bit-identical: `Packet`'s equality covers every field of both kinds.
fn same(a: &Msg, b: &Msg) -> bool {
    match (a, b) {
        (Msg::Packet(x), Msg::Packet(y)) => x == y,
        (Msg::Timer(x), Msg::Timer(y)) => x == y,
        _ => false,
    }
}

/// Logs every delivery.
#[derive(Clone, Default)]
struct Sink {
    log: Vec<(SimTime, Msg)>,
}

impl Component<Msg> for Sink {
    fn on_event(&mut self, now: SimTime, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
        self.log.push((now, msg));
    }
}

/// What the caller does on each kick (a timer token naming the step).
const SEND: u16 = 1;
const SEND_AND_SCHEDULE_NOW: u16 = 2;
const ARM: u16 = 3;
const REARM: u16 = 4;

/// Sends the shapes to the sink by the road each kick names.
#[derive(Clone)]
struct Caller {
    sink: ComponentId,
    shapes: Vec<Msg>,
    armed: Vec<CancelToken>,
}

impl Component<Msg> for Caller {
    fn on_event(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Timer(kick) = msg else {
            panic!("caller got a packet")
        };
        let sink = self.sink;
        match kick.kind() {
            SEND => {
                for &m in &self.shapes {
                    ctx.send(sink, m);
                }
            }
            SEND_AND_SCHEDULE_NOW => {
                for (i, &m) in self.shapes.iter().enumerate() {
                    if i % 2 == 0 {
                        ctx.send(sink, m);
                    } else {
                        ctx.schedule_in(SimDuration::ZERO, sink, m);
                    }
                }
            }
            ARM => {
                // Placeholders, each due before its re-arm below.
                for i in 0..self.shapes.len() {
                    let at = now + SimDuration::from_millis(1) + SimDuration::from_nanos(i as u64);
                    let dummy = Msg::Timer(TimerToken(u64::MAX - i as u64));
                    self.armed
                        .push(ctx.schedule_cancellable_at(at, sink, dummy));
                }
            }
            REARM => {
                let base = now + SimDuration::from_millis(2);
                for (i, &m) in self.shapes.iter().enumerate() {
                    assert!(ctx.cancel(self.armed[i]), "placeholder {i} already gone");
                    // Reverse order: a later index fires earlier.
                    let at = base + SimDuration::from_nanos((self.shapes.len() - i) as u64);
                    self.armed[i] = ctx.schedule_cancellable_at(at, sink, m);
                }
            }
            k => panic!("unknown kick {k}"),
        }
    }
}

const T_WHEEL: SimTime = SimTime::from_millis(1);
const T_SEND: SimTime = SimTime::from_millis(10);
const T_MERGE: SimTime = SimTime::from_millis(20);
const T_ARM: SimTime = SimTime::from_millis(30);
const T_REARM: SimTime = SimTime::from_micros(30_500);
const END: SimTime = SimTime::from_secs(10);

/// Offsets of the externally scheduled copies from [`T_WHEEL`]: ties, a
/// sub-granule step, and times that land in coarse wheel levels.
const WHEEL_OFFSETS: [u64; 6] = [0, 0, 700, 1_000, 3_000_000, 2_000_000_000];

struct Run {
    sim: Simulator<Msg>,
    caller: ComponentId,
    sink: ComponentId,
}

impl Run {
    fn new(shapes: &[Msg]) -> Run {
        let mut sim = Simulator::new(1);
        let sink = sim.add_component(Sink::default());
        let caller = sim.add_component(Caller {
            sink,
            shapes: shapes.to_vec(),
            armed: Vec::new(),
        });
        Run { sim, caller, sink }
    }

    /// The script: the wheel copies, then one kick per road.
    fn schedule_script(&mut self, shapes: &[Msg]) {
        for (i, &m) in shapes.iter().enumerate() {
            let at = T_WHEEL + SimDuration::from_nanos(WHEEL_OFFSETS[i % WHEEL_OFFSETS.len()]);
            self.sim.schedule(at, self.sink, m);
        }
        for (at, kick) in [
            (T_SEND, SEND),
            (T_MERGE, SEND_AND_SCHEDULE_NOW),
            (T_ARM, ARM),
            (T_REARM, REARM),
        ] {
            self.sim
                .schedule(at, self.caller, Msg::Timer(TimerToken::pack(kick, 0)));
        }
    }

    /// Save between slices, then continue in a fresh engine with copies of
    /// the components (the harness rebuilds and restores them the same way).
    fn hop(self, shapes: &[Msg]) -> Run {
        let mut w = SnapWriter::new();
        self.sim.save_state(&mut w, |w, m| m.put(w));
        let bytes = w.into_bytes();
        let mut fresh = Run::new(shapes);
        *fresh.sim.component_mut::<Sink>(fresh.sink) =
            self.sim.component::<Sink>(self.sink).clone();
        *fresh.sim.component_mut::<Caller>(fresh.caller) =
            self.sim.component::<Caller>(self.caller).clone();
        let mut r = SnapReader::new(&bytes);
        fresh
            .sim
            .restore_state(&mut r, Msg::take)
            .expect("the snapshot restores");
        assert!(r.is_exhausted());
        fresh
    }

    fn log(&self) -> &[(SimTime, Msg)] {
        &self.sim.component::<Sink>(self.sink).log
    }
}

/// The deliveries the script implies, in `(time, seq)` order: every road's
/// messages in the order they drew their seqs, then a stable sort by time.
fn expected(shapes: &[Msg]) -> Vec<(SimTime, Msg)> {
    let n = shapes.len() as u64;
    let rearm_base = T_REARM + SimDuration::from_millis(2);
    let mut out: Vec<(SimTime, Msg)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let off = WHEEL_OFFSETS[i % WHEEL_OFFSETS.len()];
            (T_WHEEL + SimDuration::from_nanos(off), m)
        })
        .collect();
    out.extend(shapes.iter().map(|&m| (T_SEND, m)));
    out.extend(shapes.iter().map(|&m| (T_MERGE, m)));
    out.extend(
        shapes
            .iter()
            .enumerate()
            .map(|(i, &m)| (rearm_base + SimDuration::from_nanos(n - i as u64), m)),
    );
    out.sort_by_key(|&(t, _)| t);
    out
}

fn assert_log(got: &[(SimTime, Msg)], want: &[(SimTime, Msg)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: delivery count");
    for (i, ((gt, gm), (wt, wm))) in got.iter().zip(want).enumerate() {
        assert_eq!(gt, wt, "{what}: delivery {i} time ({gm:?})");
        assert!(
            same(gm, wm),
            "{what}: delivery {i}: got {gm:?}, want {wm:?}"
        );
    }
}

#[test]
fn every_shape_arrives_intact_on_every_road() {
    let shapes = shapes();
    let want = expected(&shapes);
    let mut run = Run::new(&shapes);
    run.schedule_script(&shapes);
    run.sim.run_until(END);
    assert_log(run.log(), &want, "straight run");

    // Each road was taken, not merely survived.
    let stats = run.sim.wheel_stats();
    let n = shapes.len() as u64;
    assert!(
        stats.sends_now >= n + n / 2,
        "sends_now {}",
        stats.sends_now
    );
    assert!(
        stats.lane_merges >= 1,
        "the same-instant schedule merged no lane"
    );
    assert_eq!(stats.revived, n, "every re-arm rides its dead placeholder");
    assert_eq!(stats.cancels, n);
    assert!(stats.cascades > 0, "no key came down from a coarse level");
    assert_eq!(run.sim.events_pending(), 0);
}

#[test]
fn a_checkpoint_hop_anywhere_delivers_the_same() {
    let shapes = shapes();
    let want = expected(&shapes);
    let hops = [
        SimTime::from_micros(500),
        // Between the tied wheel copies and the sub-granule ones.
        T_WHEEL + SimDuration::from_nanos(300),
        T_WHEEL + SimDuration::from_nanos(1_000),
        SimTime::from_millis(15),
        SimTime::from_millis(25),
        // Placeholders live; then re-arms riding dead keys.
        SimTime::from_micros(30_200),
        SimTime::from_micros(30_700),
        SimTime::from_micros(32_499),
        SimTime::from_secs(1),
    ];
    for &at in &hops {
        let mut run = Run::new(&shapes);
        run.schedule_script(&shapes);
        run.sim.run_until(at);
        let mut run = run.hop(&shapes);
        run.sim.run_until(END);
        assert_log(run.log(), &want, &format!("hop at {at:?}"));
    }
    // Two hops in one run, the second while re-arms ride dead keys.
    let mut run = Run::new(&shapes);
    run.schedule_script(&shapes);
    run.sim.run_until(SimTime::from_millis(15));
    let mut run = run.hop(&shapes);
    run.sim.run_until(SimTime::from_micros(30_700));
    let mut run = run.hop(&shapes);
    run.sim.run_until(END);
    assert_log(run.log(), &want, "two hops");
}
