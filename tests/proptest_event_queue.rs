//! The key/slab event queue against the reference heap, in lock-step.
//!
//! [`EventQueue`] keeps an event's payload in a slab and moves only a
//! 40-byte key through the wheel; the engine's dispatch batch holds
//! 16-byte records and claims each payload just before its handler runs.
//! What can go wrong is ownership of a slab slot: released twice, never
//! released, or reused while a record still points at it. Both properties
//! here give every payload a unique id, so a swapped, lost or duplicated
//! payload shows up as a differing pop sequence, and call the queue's
//! `debug_check` (each slot free xor owned by exactly one live key or
//! batch record, `len` equal to the owned count) after every step.
//!
//! * `queue_matches_heap_and_documented_checkpoint`: the public queue API
//!   against [`HeapQueue`], with a `save_state → load_state` hop at random
//!   points and the checkpoint bytes compared with an encoder written
//!   here from the documented format.
//! * `engine_batch_matches_heap_batch_loop`: a scripted component graph
//!   run by [`Simulator`] (the record batch) against the same script run
//!   by a hand-written batch loop over `HeapQueue`, including cancels of
//!   events already extracted into the current batch, sends at "now"
//!   while records are outstanding, dispatch errors that leave a batch
//!   half drained, and an engine checkpoint hop.

use ccsim::sim::{
    CancelToken, Component, ComponentId, Ctx, EngineError, Event, EventQueue, HeapQueue, SimTime,
    Simulator, SnapReader, SnapWriter,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

const NO_TOKEN: u32 = u32::MAX;

/// Delays that reach every part of the queue: the current granule (the
/// overlay heap), the same 1 µs granule at another nanosecond (the run
/// sort), and each coarser wheel level up to seconds (cascades).
fn delay(x: u64) -> u64 {
    match x % 9 {
        0 | 1 => 0,
        2 => x % 1_000,
        3 | 4 => 1_000 + x % 60_000,
        5 => 100_000 + x % 4_000_000,
        6 => 200_000_000 + x % 50_000_000,
        7 => x % 3_000_000_000,
        _ => 1_024 * (x % 8),
    }
}

/// `(idx, gen)` of a token, read through its checkpoint encoding.
fn token_parts(tok: CancelToken) -> (u32, u64) {
    let mut w = SnapWriter::new();
    tok.save_state(&mut w);
    let mut r = SnapReader::new(w.as_bytes());
    (r.u32().unwrap(), r.u64().unwrap())
}

/// One pending event as the checkpoint format describes it.
struct Pending {
    time: SimTime,
    seq: u64,
    tok: u32,
    tok_gen: u64,
    dst: usize,
}

/// What a checkpoint must contain, tracked from the calls made and the
/// oracle's pops alone: the token generation table and its free list
/// ("cancelling or firing bumps the generation and recycles the index"),
/// the two counters, and the live set keyed by payload id.
#[derive(Default)]
struct Model {
    gens: Vec<u64>,
    free: Vec<u32>,
    next_seq: u64,
    live: BTreeMap<u64, Pending>,
}

impl Model {
    fn scheduled(&mut self, time: SimTime, dst: usize, id: u64, tok: Option<CancelToken>) {
        let (tok, tok_gen) = match tok.map(token_parts) {
            Some((idx, gen)) => {
                // A token index is either the one most recently recycled
                // or a brand-new one.
                if idx as usize == self.gens.len() {
                    self.gens.push(gen);
                } else {
                    assert_eq!(self.free.pop(), Some(idx), "token reuse order");
                    assert_eq!(self.gens[idx as usize], gen);
                }
                (idx, gen)
            }
            None => (NO_TOKEN, 0),
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(
            id,
            Pending {
                time,
                seq,
                tok,
                tok_gen,
                dst,
            },
        );
    }

    /// The event with payload `id` fired or was cancelled.
    fn gone(&mut self, id: u64) {
        let p = self.live.remove(&id).expect("event gone twice");
        if p.tok != NO_TOKEN {
            self.gens[p.tok as usize] += 1;
            self.free.push(p.tok);
        }
    }

    /// `gens, free, next_seq, scheduled_total, n, (time, seq, tok,
    /// tok_gen, dst, msg)*` with the entries sorted by `(time, seq)`.
    fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.seq(&self.gens, |w, &g| w.u64(g));
        w.seq(&self.free, |w, &i| w.u32(i));
        w.u64(self.next_seq);
        w.u64(self.next_seq); // every scheduled event took one seq
        let mut entries: Vec<(&u64, &Pending)> = self.live.iter().collect();
        entries.sort_by_key(|(_, p)| (p.time, p.seq));
        w.u64(entries.len() as u64);
        for (&id, p) in entries {
            w.time(p.time);
            w.u64(p.seq);
            w.u32(p.tok);
            w.u64(p.tok_gen);
            w.usize(p.dst);
            w.u64(id);
        }
        w.into_bytes()
    }
}

fn save(q: &EventQueue<u64>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    q.save_state(&mut w, |w, &id| w.u64(id));
    w.into_bytes()
}

fn flat(e: &Event<u64>) -> (SimTime, usize, u64) {
    (e.time, e.dst.as_usize(), e.msg)
}

proptest! {
    #[test]
    fn queue_matches_heap_and_documented_checkpoint(
        ops in prop::collection::vec((0u8..16, 0u64..u64::MAX), 1..500),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut model = Model::default();
        // Every token ever issued, with its payload id: most are stale by
        // the time they are picked for a cancel.
        let mut issued: Vec<(CancelToken, u64)> = Vec::new();
        let mut clock = SimTime::ZERO;
        let mut next_id = 0u64;
        let (mut wb, mut hb) = (VecDeque::new(), VecDeque::new());
        for (op, x) in ops {
            match op {
                0..=4 => {
                    // 1–3 events, sharing a timestamp when more than one.
                    let at = SimTime::from_nanos(clock.as_nanos() + delay(x));
                    for i in 0..=(x >> 32) % 3 {
                        let dst = ((x >> 40) + i) as usize % 5;
                        wheel.schedule(at, ComponentId::from_raw(dst), next_id);
                        heap.schedule(at, ComponentId::from_raw(dst), next_id);
                        model.scheduled(at, dst, next_id, None);
                        next_id += 1;
                    }
                }
                5..=7 => {
                    let at = SimTime::from_nanos(clock.as_nanos() + delay(x));
                    let dst = (x >> 40) as usize % 5;
                    let tok = wheel.schedule_cancellable(at, ComponentId::from_raw(dst), next_id);
                    let oracle_tok = heap.schedule_cancellable(at, ComponentId::from_raw(dst), next_id);
                    prop_assert_eq!(tok, oracle_tok);
                    model.scheduled(at, dst, next_id, Some(tok));
                    issued.push((tok, next_id));
                    next_id += 1;
                }
                8 | 9 => {
                    // Live or stale, whichever the pick lands on; recent
                    // tokens are picked more often, so many are live.
                    if !issued.is_empty() {
                        let back = (x % issued.len() as u64).min(x >> 60) as usize;
                        let (tok, id) = issued[issued.len() - 1 - back];
                        let hit = wheel.cancel(tok);
                        prop_assert_eq!(hit, heap.cancel(tok));
                        prop_assert_eq!(hit, model.live.contains_key(&id));
                        prop_assert!(!wheel.is_pending(tok));
                        if hit {
                            model.gone(id);
                        }
                    }
                }
                10 | 11 => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    let (w, h) = (wheel.pop(), heap.pop());
                    prop_assert_eq!(w.as_ref().map(flat), h.as_ref().map(flat));
                    if let Some(e) = h {
                        clock = e.time;
                        model.gone(e.msg);
                    }
                }
                12 | 13 => {
                    let deadline = SimTime::from_nanos(clock.as_nanos() + delay(x >> 8));
                    let n = wheel.take_head_batch_until(deadline, &mut wb);
                    prop_assert_eq!(n, heap.take_head_batch_until(deadline, &mut hb));
                    prop_assert_eq!(
                        wb.iter().map(flat).collect::<Vec<_>>(),
                        hb.iter().map(flat).collect::<Vec<_>>()
                    );
                    for e in hb.drain(..) {
                        clock = e.time;
                        model.gone(e.msg);
                        // Extracted is fired: its token is already stale.
                        if let Some(&(tok, _)) = issued.iter().find(|&&(_, id)| id == e.msg) {
                            prop_assert!(!wheel.cancel(tok));
                            prop_assert!(!heap.cancel(tok));
                        }
                    }
                    wb.clear();
                }
                _ => {
                    let bytes = save(&wheel);
                    prop_assert_eq!(&bytes, &model.encode());
                    wheel = EventQueue::load_state(&mut SnapReader::new(&bytes), |r| r.u64())
                        .expect("own snapshot loads");
                    prop_assert_eq!(save(&wheel), bytes);
                }
            }
            wheel.debug_check();
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.len(), model.live.len());
        }
        prop_assert_eq!(save(&wheel), model.encode());
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w.as_ref().map(flat), h.as_ref().map(flat));
            wheel.debug_check();
            if h.is_none() {
                break;
            }
        }
        // Drained: `debug_check` has just shown every slab slot free.
        prop_assert!(wheel.is_empty());
    }
}

// ----- the engine's record batch -------------------------------------------

/// Components in the arena; destination `ACTORS` is deliberately outside it.
const ACTORS: usize = 4;
/// Payload id logged for an event that was dropped with a dispatch error
/// (the engine reports its destination and time, not its payload).
const DROPPED: u64 = u64::MAX;

/// The scheduling surface the script needs, over the engine's [`Ctx`] or
/// over the oracle heap.
trait Sched {
    fn schedule(&mut self, at: SimTime, dst: usize, id: u64);
    fn schedule_cancellable(&mut self, at: SimTime, dst: usize, id: u64) -> CancelToken;
    fn cancel(&mut self, tok: CancelToken) -> bool;
}

impl Sched for Ctx<'_, u64> {
    fn schedule(&mut self, at: SimTime, dst: usize, id: u64) {
        self.schedule_at(at, ComponentId::from_raw(dst), id);
    }
    fn schedule_cancellable(&mut self, at: SimTime, dst: usize, id: u64) -> CancelToken {
        self.schedule_cancellable_at(at, ComponentId::from_raw(dst), id)
    }
    fn cancel(&mut self, tok: CancelToken) -> bool {
        Ctx::cancel(self, tok)
    }
}

impl Sched for HeapQueue<u64> {
    fn schedule(&mut self, at: SimTime, dst: usize, id: u64) {
        HeapQueue::schedule(self, at, ComponentId::from_raw(dst), id);
    }
    fn schedule_cancellable(&mut self, at: SimTime, dst: usize, id: u64) -> CancelToken {
        HeapQueue::schedule_cancellable(self, at, ComponentId::from_raw(dst), id)
    }
    fn cancel(&mut self, tok: CancelToken) -> bool {
        HeapQueue::cancel(self, tok)
    }
}

/// Script state shared by every actor of one run, and the run's log.
struct World {
    seed: u64,
    next_id: u64,
    budget: u64,
    tokens: Vec<CancelToken>,
    /// `(time, dst, payload id)` per delivery, then the outcome of every
    /// cancel that delivery's handler made.
    log: Vec<(SimTime, usize, u64, Vec<bool>)>,
}

impl World {
    fn new(seed: u64, budget: u64) -> World {
        World {
            seed,
            next_id: 0,
            budget,
            tokens: Vec::new(),
            log: Vec::new(),
        }
    }

    /// What the handler for payload `id` does: a pure function of the
    /// seed and the id, so the two runs diverge only if the queues do.
    fn react(&mut self, now: SimTime, dst: usize, id: u64, s: &mut impl Sched) {
        let mut x = (self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut cancels = Vec::new();
        // Cancel first: the newest tokens mostly belong to events at this
        // very instant, some of them already extracted into this batch.
        for _ in 0..draw() % 3 {
            if !self.tokens.is_empty() {
                let back = (draw() % self.tokens.len() as u64).min(draw() % 4) as usize;
                cancels.push(s.cancel(self.tokens[self.tokens.len() - 1 - back]));
            }
        }
        // Then schedule, half of it at "now": with records of this batch
        // still unclaimed, a slot released too early would be reused here.
        for _ in 0..draw() % 4 {
            if self.next_id >= self.budget {
                break;
            }
            let d = draw();
            let at_now = d & 1 == 0;
            let at = SimTime::from_nanos(now.as_nanos() + if at_now { 0 } else { delay(d >> 1) });
            // One same-instant event in eight goes to a component that
            // does not exist. (Only same-instant ones, so that none is
            // pending at a slice boundary: a checkpoint holding one is
            // refused by `restore_state`.)
            let to = if at_now && draw() & 7 == 0 {
                ACTORS
            } else {
                (draw() % ACTORS as u64) as usize
            };
            if matches!(draw() % 3, 0) {
                let tok = s.schedule_cancellable(at, to, self.next_id);
                self.tokens.push(tok);
            } else {
                s.schedule(at, to, self.next_id);
            }
            self.next_id += 1;
        }
        self.log.push((now, dst, id, cancels));
    }
}

struct Actor(Rc<RefCell<World>>);

impl Component<u64> for Actor {
    fn on_event(&mut self, now: SimTime, id: u64, ctx: &mut Ctx<'_, u64>) {
        let dst = ctx.self_id().as_usize();
        self.0.borrow_mut().react(now, dst, id, ctx);
    }
}

fn engine(world: &Rc<RefCell<World>>) -> Simulator<u64> {
    let mut sim = Simulator::new(0);
    for _ in 0..ACTORS {
        sim.add_component(Actor(world.clone()));
    }
    sim
}

/// Kick-off events: a same-instant burst to several actors.
fn kickoff(seed: u64, world: &mut World, mut schedule: impl FnMut(SimTime, usize, u64)) {
    for i in 0..4 + seed % 5 {
        let dst = (i % ACTORS as u64) as usize;
        schedule(SimTime::from_nanos(seed % 2_000), dst, world.next_id);
        world.next_id += 1;
    }
}

proptest! {
    #[test]
    fn engine_batch_matches_heap_batch_loop(
        seed in 0u64..u64::MAX,
        budget in 50u64..1_500,
        first_slice_ns in 1_000u64..400_000_000,
        hop_at in 0usize..12,
    ) {
        // The oracle: the engine's documented loop — extract everything at
        // the head timestamp, dispatch in order — over the reference heap.
        let mut oracle = World::new(seed, budget);
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        kickoff(seed, &mut oracle, |at, dst, id| Sched::schedule(&mut heap, at, dst, id));
        let mut batch = VecDeque::new();
        while heap.take_head_batch(&mut batch) > 0 {
            while let Some(e) = batch.pop_front() {
                if e.dst.as_usize() < ACTORS {
                    oracle.react(e.time, e.dst.as_usize(), e.msg, &mut heap);
                } else {
                    oracle.log.push((e.time, e.dst.as_usize(), DROPPED, Vec::new()));
                }
            }
        }

        let world = Rc::new(RefCell::new(World::new(seed, budget)));
        let mut sim = engine(&world);
        kickoff(seed, &mut world.borrow_mut(), |at, dst, id| {
            sim.schedule(at, ComponentId::from_raw(dst), id)
        });
        let (mut slice, mut slice_ns) = (0, first_slice_ns);
        while sim.events_pending() > 0 {
            let deadline = SimTime::from_nanos(sim.now().as_nanos() + slice_ns);
            let log_before = world.borrow().log.len();
            // A dispatch error consumes its event and leaves the rest of
            // the batch extracted: the records still own their slots.
            while let Err(EngineError::UnknownComponent { dst, at }) = sim.try_run_until(deadline) {
                world.borrow_mut().log.push((at, dst.as_usize(), DROPPED, Vec::new()));
                sim.debug_check();
            }
            sim.debug_check();
            if slice == hop_at {
                let mut w = SnapWriter::new();
                sim.save_state(&mut w, |w, &id| w.u64(id));
                let mut resumed = engine(&world);
                resumed
                    .restore_state(&mut SnapReader::new(w.as_bytes()), |r| r.u64())
                    .expect("own snapshot restores");
                let mut again = SnapWriter::new();
                resumed.save_state(&mut again, |w, &id| w.u64(id));
                prop_assert_eq!(again.as_bytes(), w.as_bytes());
                sim = resumed;
                sim.debug_check();
            }
            slice += 1;
            if world.borrow().log.len() == log_before {
                // An idle stretch: stride out to the next event.
                slice_ns = slice_ns.saturating_mul(2);
            }
        }
        let world = world.borrow();
        prop_assert_eq!(world.log.len(), oracle.log.len());
        for (got, want) in world.log.iter().zip(&oracle.log) {
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(sim.events_processed() as usize, world.log.iter().filter(|l| l.2 != DROPPED).count());
    }
}
