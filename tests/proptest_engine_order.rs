//! The engine's same-instant lane against a plain `(time, seq)` model, in
//! lock-step.
//!
//! `Ctx::send` does not go through the timer wheel: a send waits in a FIFO
//! lane that `run_until` drains a generation at a time, and only when some
//! other key shares the lane's instant (a zero-delay `schedule_in`, a
//! `schedule_at(now)`, a zero-delay cancellable timer, a leftover of the
//! sorted run under `try_step`) is the lane merged back into the ready
//! stage. Whatever road an event takes, it must fire exactly where a
//! single queue ordered by `(time, insertion seq)` would fire it, and the
//! engine's counters must read as if it had been extracted in
//! same-timestamp batches from such a queue.
//!
//! The model here is that queue — a `BTreeMap<(time, seq), _>` — and the
//! engine's documented loops written over it (`run_until`: extract every
//! event at the head timestamp, tally the batch, dispatch in order;
//! `try_step`: pop one). Scripted components do a generated mix of `send`,
//! `schedule_in(0)`, `schedule_at(now)`, `schedule_self_cancellable(0)`
//! with and without a `cancel`, cancels of older timers and later-dated
//! schedules; what each delivery does is a pure function of the seed and
//! the payload id, so engine and model diverge only if their orders do.
//! After every drive operation the clocks, `events_pending`,
//! `events_processed` and `max_pending` must agree; at the end so must the
//! delivery logs (with every cancel's outcome) and `batch_hist`.
//!
//! Mutations of `crates/sim/src/{event,engine}.rs` this file was checked
//! against, and the first assertion each one trips:
//!
//! * **Drain the lane before a lower-seq key** (`lane_generation` without
//!   its clash test): `a_timer_at_now_between_two_sends_fires_between_them`
//!   delivers 1, 3, 2 and
//!   `a_send_under_try_step_queues_behind_the_rest_of_the_sorted_run`
//!   0, 3, 1, 2 — the per-delivery log assertion in `check_case`; the
//!   property fails earlier still, on a per-operation `events_processed`
//!   or `events_pending`, because a slice ends between the swapped events.
//! * **Count a generation late** (the engine draining the lane until it is
//!   empty instead of `n` sends, so a generation swallows the sends its
//!   own handlers make): a pure-send run keeps its order and loses a
//!   batch — the `batch_hist` assertion, in
//!   `a_pure_send_cascade_never_leaves_the_lane`; a mixed script also
//!   misorders a zero-delay key scheduled meanwhile, and the property
//!   trips `events_pending`.
//! * **Drop the `live` decrement** (`pop_lane` without `live -= 1`):
//!   `Simulator::debug_check`, which `check_case` calls after every
//!   operation, panics with "live count drifted" (pending count vs live
//!   keys plus lane entries); without that call the next line's
//!   `events_pending` assertion fails, as the one in
//!   `a_dispatch_error_mid_generation_leaves_the_rest_deliverable` does.

use ccsim::sim::{
    CancelToken, Component, ComponentId, Ctx, EngineError, SimDuration, SimTime, Simulator,
    SnapReader, SnapWriter,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

/// Components in the arena.
const ACTORS: usize = 4;
/// Buckets of `WheelStats::batch_hist`.
const HIST: usize = 16;

/// One thing a handler does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Act {
    /// `ctx.send(dst, id)`.
    Send(usize),
    /// `ctx.schedule_in(ZERO, dst, id)`.
    InZero(usize),
    /// `ctx.schedule_at(ctx.now(), dst, id)`.
    AtNow(usize),
    /// `ctx.schedule_in(delay > 0, dst, id)`.
    Later(usize, u64),
    /// `ctx.schedule_self_cancellable(delay, id)`, the token kept;
    /// cancelled on the spot when the flag is set.
    Timer(u64, bool),
    /// Cancel the k-th newest token ever issued (live or stale).
    Cancel(usize),
}

/// The scheduling surface a script needs, over [`Ctx`] or over the model.
trait Sched {
    type Token: Copy;
    fn send(&mut self, dst: usize, id: u64);
    fn at_now(&mut self, dst: usize, id: u64);
    fn schedule_in(&mut self, dst: usize, delay: u64, id: u64);
    fn timer(&mut self, delay: u64, id: u64) -> Self::Token;
    fn cancel(&mut self, tok: Self::Token) -> bool;
}

impl Sched for Ctx<'_, u64> {
    type Token = CancelToken;
    fn send(&mut self, dst: usize, id: u64) {
        Ctx::send(self, ComponentId::from_raw(dst), id);
    }
    fn at_now(&mut self, dst: usize, id: u64) {
        self.schedule_at(self.now(), ComponentId::from_raw(dst), id);
    }
    fn schedule_in(&mut self, dst: usize, delay: u64, id: u64) {
        Ctx::schedule_in(
            self,
            SimDuration::from_nanos(delay),
            ComponentId::from_raw(dst),
            id,
        );
    }
    fn timer(&mut self, delay: u64, id: u64) -> CancelToken {
        self.schedule_self_cancellable(SimDuration::from_nanos(delay), id)
    }
    fn cancel(&mut self, tok: CancelToken) -> bool {
        Ctx::cancel(self, tok)
    }
}

/// Later-dated delays that reach the current granule (the overlay heap),
/// the next few granules (level 0) and the coarser wheel levels.
fn delay(x: u64) -> u64 {
    1 + match x % 6 {
        0 => x % 1_000,
        1 | 2 => 1_000 + x % 60_000,
        3 => 100_000 + x % 4_000_000,
        4 => 1_024 * (x % 8),
        _ => x % 300_000_000,
    }
}

/// One delivery: time, destination, payload id, then the outcome of every
/// cancel its handler made.
type Delivery = (SimTime, usize, u64, Vec<bool>);

/// Script state shared by every actor of one run, and the run's log.
struct World<T> {
    seed: u64,
    /// Explicit scripts by payload id; ids without one follow the seed.
    plan: HashMap<u64, Vec<Act>>,
    next_id: u64,
    budget: u64,
    tokens: Vec<T>,
    sends: u64,
    log: Vec<Delivery>,
}

impl<T: Copy> World<T> {
    fn new(seed: u64, budget: u64, plan: &HashMap<u64, Vec<Act>>) -> World<T> {
        World {
            seed,
            plan: plan.clone(),
            next_id: 0,
            budget,
            tokens: Vec::new(),
            sends: 0,
            log: Vec::new(),
        }
    }

    /// What the handler for payload `id` does.
    fn script(&self, id: u64) -> Vec<Act> {
        if let Some(acts) = self.plan.get(&id) {
            return acts.clone();
        }
        if !self.plan.is_empty() {
            return Vec::new();
        }
        let mut x = (self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Half the handlers only send and schedule ahead, as the
        // simulator's components do: their generations stay in the lane.
        // The other half mix in everything that can share the instant.
        let plain = draw() % 2 == 0;
        // About 1.5 events per handler, half of them later-dated: the
        // population grows slowly and spreads over many instants instead
        // of exploding at one.
        (0..draw() % 4)
            .map(|_| {
                let dst = (draw() % ACTORS as u64) as usize;
                match draw() % if plain { 4 } else { 12 } {
                    0 | 1 => Act::Send(dst),
                    2 | 3 => Act::Later(dst, delay(draw())),
                    4 => Act::InZero(dst),
                    5 => Act::AtNow(dst),
                    6 => Act::Timer(0, false),
                    7 => Act::Timer(0, true),
                    8 => Act::Timer(delay(draw()), draw() % 4 == 0),
                    9 | 10 => Act::Cancel((draw() % 4) as usize),
                    _ => Act::Send(dst),
                }
            })
            .collect()
    }

    fn react<S: Sched<Token = T>>(&mut self, now: SimTime, me: usize, id: u64, s: &mut S) {
        let mut cancels = Vec::new();
        for act in self.script(id) {
            if let Act::Cancel(back) = act {
                if let Some(&tok) = self.tokens.iter().rev().nth(back) {
                    cancels.push(s.cancel(tok));
                }
                continue;
            }
            if self.next_id >= self.budget {
                continue;
            }
            let new = self.next_id;
            self.next_id += 1;
            match act {
                Act::Send(dst) => {
                    self.sends += 1;
                    s.send(dst, new);
                }
                Act::InZero(dst) => s.schedule_in(dst, 0, new),
                Act::AtNow(dst) => s.at_now(dst, new),
                Act::Later(dst, d) => s.schedule_in(dst, d, new),
                Act::Timer(d, cancel_now) => {
                    let tok = s.timer(d, new);
                    self.tokens.push(tok);
                    if cancel_now {
                        cancels.push(s.cancel(tok));
                    }
                }
                Act::Cancel(_) => unreachable!("handled above"),
            }
        }
        self.log.push((now, me, id, cancels));
    }
}

// ----- the model -----------------------------------------------------------

/// Position of a pending event in the model queue; doubles as its
/// cancellation handle.
type Slot = (SimTime, u64);

/// The reference: one queue ordered by `(time, seq)`, and the engine's
/// two documented loops over it.
struct Model {
    pending: BTreeMap<Slot, (usize, u64)>,
    next_seq: u64,
    now: SimTime,
    processed: u64,
    max_pending: u64,
    hist: [u64; HIST],
    world: World<Slot>,
}

/// The model seen from inside a handler.
struct ModelCtx<'a> {
    now: SimTime,
    me: usize,
    pending: &'a mut BTreeMap<Slot, (usize, u64)>,
    next_seq: &'a mut u64,
}

impl ModelCtx<'_> {
    fn push(&mut self, at: SimTime, dst: usize, id: u64) -> Slot {
        let slot = (at, *self.next_seq);
        *self.next_seq += 1;
        self.pending.insert(slot, (dst, id));
        slot
    }
    fn after(&self, delay: u64) -> SimTime {
        SimTime::from_nanos(self.now.as_nanos() + delay)
    }
}

impl Sched for ModelCtx<'_> {
    type Token = Slot;
    fn send(&mut self, dst: usize, id: u64) {
        self.push(self.now, dst, id);
    }
    fn at_now(&mut self, dst: usize, id: u64) {
        self.push(self.now, dst, id);
    }
    fn schedule_in(&mut self, dst: usize, delay: u64, id: u64) {
        self.push(self.after(delay), dst, id);
    }
    fn timer(&mut self, delay: u64, id: u64) -> Slot {
        self.push(self.after(delay), self.me, id)
    }
    /// An event that fired, was cancelled or has been extracted into the
    /// batch being dispatched is no longer pending: its token is stale.
    fn cancel(&mut self, tok: Slot) -> bool {
        self.pending.remove(&tok).is_some()
    }
}

impl Model {
    fn new(world: World<Slot>) -> Model {
        Model {
            pending: BTreeMap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            max_pending: 0,
            hist: [0; HIST],
            world,
        }
    }

    fn schedule(&mut self, at: SimTime, dst: usize, id: u64) {
        self.pending.insert((at, self.next_seq), (dst, id));
        self.next_seq += 1;
    }

    fn deliver(&mut self, at: SimTime, dst: usize, id: u64) {
        self.now = at;
        let mut ctx = ModelCtx {
            now: at,
            me: dst,
            pending: &mut self.pending,
            next_seq: &mut self.next_seq,
        };
        self.world.react(at, dst, id, &mut ctx);
        self.processed += 1;
    }

    /// `Simulator::run_until`: batch by batch while the head timestamp is
    /// at or before the deadline; the event being dispatched still counts
    /// as pending for the high-water mark.
    fn run_until(&mut self, deadline: SimTime) {
        let mut batch = VecDeque::new();
        while let Some((&(at, _), _)) = self.pending.first_key_value() {
            if at > deadline {
                break;
            }
            while let Some(e) = self.pending.first_entry() {
                if e.key().0 != at {
                    break;
                }
                batch.push_back(e.remove());
            }
            self.hist[(batch.len().ilog2() as usize).min(HIST - 1)] += 1;
            while let Some((dst, id)) = batch.pop_front() {
                let pending = (self.pending.len() + batch.len() + 1) as u64;
                self.max_pending = self.max_pending.max(pending);
                self.deliver(at, dst, id);
            }
        }
        self.now = self.now.max(deadline);
    }

    /// `Simulator::try_step`: the single earliest event, no batch tally.
    fn step(&mut self) -> bool {
        self.max_pending = self.max_pending.max(self.pending.len() as u64);
        let Some(((at, _), (dst, id))) = self.pending.pop_first() else {
            return false;
        };
        self.deliver(at, dst, id);
        true
    }
}

// ----- the engine ----------------------------------------------------------

struct Actor(Rc<RefCell<World<CancelToken>>>);

impl Component<u64> for Actor {
    fn on_event(&mut self, now: SimTime, id: u64, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.self_id().as_usize();
        self.0.borrow_mut().react(now, me, id, ctx);
    }
}

fn engine(world: &Rc<RefCell<World<CancelToken>>>) -> Simulator<u64> {
    let mut sim = Simulator::new(0);
    for _ in 0..ACTORS {
        sim.add_component(Actor(world.clone()));
    }
    sim
}

/// How a case drives both sides.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `run_until(now + ns)`.
    Slice(u64),
    /// Up to this many `try_step`s.
    Steps(u64),
    /// `save_state` → a fresh engine → `restore_state` (a no-op for the
    /// model). Only ever placed after a `Slice`.
    Hop,
}

/// What a finished case reports beyond the assertions it already made.
struct Report {
    log: Vec<Delivery>,
    sends_now: u64,
    lane_merges: u64,
}

/// Run `drives` (then drain) on engine and model, asserting agreement
/// after every operation and on the final logs and histogram.
fn check_case(
    seed: u64,
    budget: u64,
    plan: &HashMap<u64, Vec<Act>>,
    kickoff: &[(u64, usize)],
    drives: &[Drive],
    finish_stepping: bool,
) -> Report {
    let mut model = Model::new(World::new(seed, budget, plan));
    let world = Rc::new(RefCell::new(World::new(seed, budget, plan)));
    let mut sim = engine(&world);
    for &(at, dst) in kickoff {
        let at = SimTime::from_nanos(at);
        let id = model.world.next_id;
        model.world.next_id += 1;
        world.borrow_mut().next_id += 1;
        model.schedule(at, dst, id);
        sim.schedule(at, ComponentId::from_raw(dst), id);
    }
    // The wheel's counters are telemetry, not state: a restored engine
    // starts them at zero, so carry the totals across hops.
    let (mut hist, mut sends_now, mut lane_merges) = ([0u64; HIST], 0, 0);
    let mut harvest = |sim: &Simulator<u64>| {
        let stats = sim.wheel_stats();
        for (sum, n) in hist.iter_mut().zip(stats.batch_hist) {
            *sum += n;
        }
        sends_now += stats.sends_now;
        lane_merges += stats.lane_merges;
    };
    let mut drives = drives.to_vec();
    // Then run dry: widening slices (or single steps) until nothing is
    // pending. The budget bounds the number of events ever created.
    let mut tail = 1_000u64;
    let mut i = 0;
    while i < drives.len() || !model.pending.is_empty() {
        if i == drives.len() {
            drives.push(if finish_stepping {
                Drive::Steps(64)
            } else {
                tail = tail.saturating_mul(4);
                Drive::Slice(tail)
            });
        }
        match drives[i] {
            Drive::Slice(ns) => {
                let deadline = SimTime::from_nanos(model.now.as_nanos() + ns);
                model.run_until(deadline);
                sim.run_until(deadline);
            }
            Drive::Steps(n) => {
                for _ in 0..n {
                    let more = model.step();
                    assert_eq!(sim.try_step(), Ok(more), "op {i}: step outcome");
                }
            }
            Drive::Hop => {
                let mut w = SnapWriter::new();
                sim.save_state(&mut w, |w, &id| w.u64(id));
                let mut resumed = engine(&world);
                resumed
                    .restore_state(&mut SnapReader::new(w.as_bytes()), |r| r.u64())
                    .expect("own snapshot restores");
                let mut again = SnapWriter::new();
                resumed.save_state(&mut again, |w, &id| w.u64(id));
                assert_eq!(again.as_bytes(), w.as_bytes(), "op {i}: snapshot fixpoint");
                harvest(&sim);
                sim = resumed;
            }
        }
        sim.debug_check();
        assert_eq!(sim.now(), model.now, "op {i}: clock");
        assert_eq!(
            sim.events_pending(),
            model.pending.len(),
            "op {i}: events_pending"
        );
        assert_eq!(
            sim.events_processed(),
            model.processed,
            "op {i}: events_processed"
        );
        assert_eq!(sim.max_pending(), model.max_pending, "op {i}: max_pending");
        i += 1;
    }
    harvest(&sim);
    let world = world.borrow();
    for (n, (got, want)) in world.log.iter().zip(&model.world.log).enumerate() {
        assert_eq!(got, want, "delivery {n}");
    }
    assert_eq!(world.log.len(), model.world.log.len(), "deliveries");
    assert_eq!(hist, model.hist, "batch_hist");
    assert_eq!(sends_now, world.sends, "sends_now counts every Ctx::send");
    Report {
        log: world.log.clone(),
        sends_now,
        lane_merges,
    }
}

/// A same-instant kick-off burst to several actors, as the existing
/// engine property uses.
fn burst(seed: u64) -> Vec<(u64, usize)> {
    (0..4 + seed % 5)
        .map(|i| (seed % 2_000, (i % ACTORS as u64) as usize))
        .collect()
}

fn ids(report: &Report) -> Vec<u64> {
    report.log.iter().map(|d| d.2).collect()
}

proptest! {
    #[test]
    fn engine_order_and_counters_match_the_time_seq_model(
        seed in 0u64..u64::MAX,
        budget in 20u64..1_200,
        mode in 0u8..3,
        ops in prop::collection::vec((0u8..8, 0u64..u64::MAX), 0..40),
    ) {
        // mode 0: `run_until` slices only (with checkpoint hops); mode 1:
        // `try_step` only; mode 2: both, interleaved.
        let mut drives = Vec::new();
        for (op, x) in ops {
            let slice = Drive::Slice(match x % 5 {
                0 => 0,
                1 => x % 2_000,
                2 => x % 100_000,
                3 => x % 5_000_000,
                _ => x % 400_000_000,
            });
            let steps = Drive::Steps(1 + x % 9);
            match (mode, op) {
                (0, 0) | (2, 0) if matches!(drives.last(), Some(Drive::Slice(_))) => {
                    drives.push(Drive::Hop)
                }
                (0, _) => drives.push(slice),
                (1, _) => drives.push(steps),
                (_, 0..=3) => drives.push(slice),
                _ => drives.push(steps),
            }
        }
        let none = HashMap::new();
        check_case(seed, budget, &none, &burst(seed), &drives, mode == 1);
    }
}

// ----- the cases the lane exists for, spelled out --------------------------

/// A plan from `(payload id, what its handler does)` pairs.
fn plan(scripts: &[(u64, &[Act])]) -> HashMap<u64, Vec<Act>> {
    scripts
        .iter()
        .map(|&(id, acts)| (id, acts.to_vec()))
        .collect()
}

#[test]
fn a_pure_send_cascade_never_leaves_the_lane() {
    // 0 fans out to 1, 2, 3; each of those sends once more (4, 5, 6), and
    // 4 schedules 7 ahead of time: generations of 3, 3 and a wheel batch
    // of 1, no merge anywhere.
    let plan = plan(&[
        (0, &[Act::Send(1), Act::Send(2), Act::Send(3)]),
        (1, &[Act::Send(0)]),
        (2, &[Act::Send(0)]),
        (3, &[Act::Send(0)]),
        (4, &[Act::Later(2, 700)]),
    ]);
    let r = check_case(0, 100, &plan, &[(500, 0)], &[Drive::Slice(10_000)], false);
    assert_eq!(ids(&r), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!((r.sends_now, r.lane_merges), (6, 0));
}

#[test]
fn a_timer_at_now_between_two_sends_fires_between_them() {
    let live = plan(&[(0, &[Act::Send(1), Act::Timer(0, false), Act::Send(2)])]);
    let r = check_case(0, 100, &live, &[(500, 0)], &[Drive::Slice(10_000)], false);
    assert_eq!(ids(&r), vec![0, 1, 2, 3]);
    assert!(r.lane_merges > 0, "the clash must take the fallback");

    // Cancelled on the spot, the timer is a tombstone at the lane's
    // instant: the sends still arrive in order, the timer never does.
    let dead = plan(&[(0, &[Act::Send(1), Act::Timer(0, true), Act::Send(2)])]);
    let r = check_case(0, 100, &dead, &[(500, 0)], &[Drive::Slice(10_000)], false);
    assert_eq!(ids(&r), vec![0, 1, 3]);
    assert_eq!(r.log[0].3, vec![true]);
}

#[test]
fn a_send_under_try_step_queues_behind_the_rest_of_the_sorted_run() {
    // Three events share the kick-off instant; stepping delivers 0, whose
    // send (3) must wait for 1 and 2 — still in the sorted run — whether
    // the engine goes on stepping or switches to `run_until`.
    let plan = plan(&[(0, &[Act::Send(3)]), (3, &[Act::Send(0)])]);
    let kickoff = [(500, 0), (500, 1), (500, 2)];
    for drives in [
        vec![Drive::Steps(1), Drive::Slice(10_000)],
        vec![Drive::Steps(5)],
        vec![Drive::Steps(2), Drive::Slice(0), Drive::Steps(2)],
    ] {
        let r = check_case(0, 100, &plan, &kickoff, &drives, false);
        assert_eq!(ids(&r), vec![0, 1, 2, 3, 4]);
        assert!(r.lane_merges > 0);
    }
}

#[test]
fn a_checkpoint_hop_at_a_slice_boundary_continues_identically() {
    let none = HashMap::new();
    let slices = |hop: bool| {
        let mut drives = Vec::new();
        for ns in [0, 1_500, 40_000, 3_000_000, 90_000_000] {
            drives.push(Drive::Slice(ns));
            if hop {
                drives.push(Drive::Hop);
            }
        }
        drives
    };
    for seed in [3, 0xDEAD_BEEF, 0x1234_5678_9ABC] {
        let kickoff = burst(seed);
        let plain = check_case(seed, 600, &none, &kickoff, &slices(false), false);
        let hopped = check_case(seed, 600, &none, &kickoff, &slices(true), false);
        assert_eq!(plain.log, hopped.log);
        assert!(plain.sends_now > 100, "the script must exercise the lane");
    }
}

#[test]
fn a_dispatch_error_mid_generation_leaves_the_rest_deliverable() {
    struct Fanout(Rc<RefCell<Vec<u64>>>);
    impl Component<u64> for Fanout {
        fn on_event(&mut self, _now: SimTime, id: u64, ctx: &mut Ctx<'_, u64>) {
            self.0.borrow_mut().push(id);
            if id == 0 {
                ctx.send(ComponentId::from_raw(0), 1);
                ctx.send(ComponentId::from_raw(9), 2); // no such component
                ctx.send(ComponentId::from_raw(0), 3);
            } else if id == 1 {
                ctx.send(ComponentId::from_raw(0), 4);
            }
        }
    }
    for resume_by_stepping in [false, true] {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(0);
        let c = sim.add_component(Fanout(seen.clone()));
        let t = SimTime::from_micros(3);
        sim.schedule(t, c, 0);
        assert_eq!(
            sim.try_run_until(t),
            Err(EngineError::UnknownComponent {
                dst: ComponentId::from_raw(9),
                at: t
            })
        );
        // 3 (the rest of the generation) and 4 (sent by 1) still wait.
        assert_eq!(sim.events_pending(), 2);
        sim.debug_check();
        if resume_by_stepping {
            while sim.step() {}
        } else {
            sim.run_until(t);
        }
        assert_eq!(*seen.borrow(), vec![0, 1, 3, 4]);
        assert_eq!((sim.events_pending(), sim.events_processed()), (0, 4));
        sim.debug_check();
    }
}
