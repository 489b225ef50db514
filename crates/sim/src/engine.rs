//! The simulation engine: component arena + event dispatch loop.
//!
//! A [`Simulator<M>`] owns every component of the modeled system and a single
//! [`EventQueue`]. Components interact **only** by scheduling events for each
//! other (message type `M`), which keeps the ownership story trivial and the
//! dispatch loop branch-predictable. Handlers receive a [`Ctx`] through which
//! they can schedule further events (including to themselves, the idiom for
//! timers).
//!
//! Components are `Any` so the harness can recover concrete types after a run
//! (e.g. to read final flow statistics) via [`Simulator::component`].

use crate::event::{CancelToken, EventQueue, Ready, READY_BYTES};
use crate::rng::RngFactory;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// Opaque handle addressing a component inside a [`Simulator`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Construct from a raw arena index. Exposed for tests and for wiring
    /// code that needs to pre-compute ids; normal code should use the id
    /// returned by [`Simulator::add_component`].
    #[inline]
    pub const fn from_raw(i: usize) -> Self {
        ComponentId(i)
    }

    /// The raw arena index.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A typed dispatch failure. The engine used to panic on these; the
/// `try_*` entry points surface them instead so the harness can capture a
/// crash bundle and unwind cleanly. The panicking entry points (`step`,
/// `run_until`, …) remain as thin wrappers for callers that treat wiring
/// bugs as fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// An event was addressed to a component id outside the arena —
    /// always a wiring bug, but one the harness should report with
    /// context rather than abort on.
    UnknownComponent { dst: ComponentId, at: SimTime },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownComponent { dst, at } => {
                write!(f, "event for unknown component {dst:?} at {at}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// An actor in the simulation. `M` is the workspace-wide message type.
pub trait Component<M>: Any {
    /// Handle a message delivered at virtual instant `now`.
    fn on_event(&mut self, now: SimTime, msg: M, ctx: &mut Ctx<'_, M>);
}

/// Handler-side view of the engine: the current time, the handler's own id,
/// and the ability to schedule events.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ComponentId,
    queue: &'a mut EventQueue<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently handling an event.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Deliver `msg` to `dst` at absolute instant `at`.
    ///
    /// # Panics
    /// Panics (debug) if `at` is in the past — causality violation.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, dst: ComponentId, msg: M) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.schedule(at, dst, msg);
    }

    /// Deliver `msg` to `dst` after `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, dst: ComponentId, msg: M) {
        self.queue.schedule(self.now + delay, dst, msg);
    }

    /// Deliver `msg` to `dst` "now" (after all already-queued events at the
    /// current instant — FIFO tiebreak). Ordered exactly like
    /// `schedule_at(self.now(), ..)`, but cheaper: a zero-delay hand-off
    /// has nothing to be sorted against, so it waits in the queue's
    /// same-instant FIFO lane instead of the timer wheel.
    #[inline]
    pub fn send(&mut self, dst: ComponentId, msg: M) {
        self.queue.send_now(self.now, dst, msg);
    }

    /// Schedule a message to self after `delay` (the timer idiom).
    #[inline]
    pub fn schedule_self(&mut self, delay: SimDuration, msg: M) {
        self.queue.schedule(self.now + delay, self.self_id, msg);
    }

    /// Like [`Ctx::schedule_at`], returning a token that can later
    /// [`Ctx::cancel`] the event. The idiom for rearmable timers (RTO,
    /// delayed ACK): cancel-and-rearm instead of leaving dead events
    /// parked in the queue.
    #[inline]
    pub fn schedule_cancellable_at(
        &mut self,
        at: SimTime,
        dst: ComponentId,
        msg: M,
    ) -> CancelToken {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.schedule_cancellable(at, dst, msg)
    }

    /// Like [`Ctx::schedule_in`], returning a cancellation token.
    #[inline]
    pub fn schedule_cancellable_in(
        &mut self,
        delay: SimDuration,
        dst: ComponentId,
        msg: M,
    ) -> CancelToken {
        self.queue.schedule_cancellable(self.now + delay, dst, msg)
    }

    /// Like [`Ctx::schedule_self`], returning a cancellation token.
    #[inline]
    pub fn schedule_self_cancellable(&mut self, delay: SimDuration, msg: M) -> CancelToken {
        self.queue
            .schedule_cancellable(self.now + delay, self.self_id, msg)
    }

    /// Cancel a pending cancellable event. Returns `true` iff the event
    /// was still pending (it will now never fire). Returns `false` for a
    /// stale token — including the edge where the event shares the
    /// current timestamp and was already extracted for dispatch, so
    /// timer owners that may cancel same-instant events should keep a
    /// generation guard on the message as belt-and-suspenders.
    #[inline]
    pub fn cancel(&mut self, tok: CancelToken) -> bool {
        self.queue.cancel(tok)
    }

    /// True iff `tok` refers to an event that has neither fired nor been
    /// cancelled.
    #[inline]
    pub fn is_pending(&self, tok: CancelToken) -> bool {
        self.queue.is_pending(tok)
    }
}

/// Per-(component-class × event-kind) attribution state for the opt-in
/// profiler (`ccsim-prof`). Lives behind an `Option<Box<..>>` on the
/// simulator so the disabled path pays one never-taken branch inside the
/// classified dispatch only; the plain (unclassified) path is untouched.
///
/// Cell **counts** are exact and deterministic given the event stream.
/// Wall time is attributed by strided sampling: every `stride`-th
/// classified event takes an `Instant` and charges the elapsed time since
/// the previous sample to its own cell. *Which* events are sampled is a
/// pure function of the event stream, so sample counts are deterministic
/// too — only the nanosecond values vary run to run.
struct EngineProf {
    /// Component arena index → class index (e.g. link/router/sender/
    /// receiver). Indices past the table clamp to the last class.
    comp_class: Vec<u8>,
    n_classes: usize,
    n_kinds: usize,
    /// Exact event counts per cell, row-major `class × kind`.
    cell_counts: Vec<u64>,
    /// Sampled wall nanoseconds per cell.
    cell_nanos: Vec<u64>,
    /// Samples charged per cell.
    cell_samples: Vec<u64>,
    stride: u64,
    tick: u64,
    last_sample: Option<std::time::Instant>,
}

impl EngineProf {
    #[inline]
    fn record(&mut self, comp: usize, kind: usize) {
        let class =
            (self.comp_class.get(comp).copied().unwrap_or(0) as usize).min(self.n_classes - 1);
        let cell = class * self.n_kinds + kind.min(self.n_kinds - 1);
        self.cell_counts[cell] += 1;
        self.tick += 1;
        if self.tick >= self.stride {
            self.tick = 0;
            let now = std::time::Instant::now();
            if let Some(prev) = self.last_sample.replace(now) {
                let nanos = u64::try_from(now.duration_since(prev).as_nanos()).unwrap_or(u64::MAX);
                self.cell_nanos[cell] = self.cell_nanos[cell].saturating_add(nanos);
                self.cell_samples[cell] += 1;
            }
        }
    }
}

/// The discrete-event simulator: component arena, clock, and event loop.
pub struct Simulator<M> {
    components: Vec<Box<dyn Component<M>>>,
    queue: EventQueue<M>,
    /// Same-timestamp dispatch batch: `run_until_*` extracts every event
    /// sharing the head timestamp in one queue operation and drains them
    /// here, instead of paying the peek/pop machinery per event. The
    /// records are 16 bytes each; a record's payload stays in the queue's
    /// slab until it is claimed immediately before its handler runs.
    batch: VecDeque<Ready>,
    now: SimTime,
    rng: RngFactory,
    processed: u64,
    /// High-water mark of pending events, sampled at each dispatch.
    max_pending: u64,
    /// Per-event-kind counts for [`Simulator::run_until_classified`]. The
    /// engine knows nothing about `M`'s structure (and must not depend on
    /// the telemetry crate, which depends on this one), so the harness
    /// supplies a pure classifier `M -> class index` per run call and
    /// reads the counts back afterwards.
    class_counts: Vec<u64>,
    /// Opt-in per-(component-class × event-kind) attribution; `None`
    /// (the default) keeps profiling entirely off the dispatch path.
    prof: Option<Box<EngineProf>>,
}

impl<M: 'static> Simulator<M> {
    /// A fresh simulator at t = 0 with the given master RNG seed.
    pub fn new(master_seed: u64) -> Self {
        Simulator {
            components: Vec::new(),
            queue: EventQueue::new(),
            batch: VecDeque::new(),
            now: SimTime::ZERO,
            rng: RngFactory::new(master_seed),
            processed: 0,
            max_pending: 0,
            class_counts: Vec::new(),
            prof: None,
        }
    }

    /// Enable per-(component-class × event-kind) profiling for subsequent
    /// [`Simulator::run_until_classified`] calls. `comp_class` maps each
    /// component arena index to a class in `0..n_classes` (missing or
    /// out-of-range entries clamp); `stride` is the wall-clock sampling
    /// period in events (≥ 1). Cell counts are exact; wall time is
    /// attributed by strided `Instant` sampling (see [`EngineProf`]).
    pub fn enable_profiling(
        &mut self,
        comp_class: Vec<u8>,
        n_classes: usize,
        n_kinds: usize,
        stride: u64,
    ) {
        assert!(n_classes > 0 && n_kinds > 0, "need at least one cell");
        assert!(stride > 0, "sampling stride must be >= 1");
        self.prof = Some(Box::new(EngineProf {
            comp_class,
            n_classes,
            n_kinds,
            cell_counts: vec![0; n_classes * n_kinds],
            cell_nanos: vec![0; n_classes * n_kinds],
            cell_samples: vec![0; n_classes * n_kinds],
            stride,
            tick: 0,
            last_sample: None,
        }));
    }

    /// True iff [`Simulator::enable_profiling`] was called.
    pub fn profiling_enabled(&self) -> bool {
        self.prof.is_some()
    }

    /// Profiling cell data as `(counts, nanos, samples)`, each row-major
    /// `class × kind` as configured by [`Simulator::enable_profiling`].
    /// `None` when profiling is off.
    pub fn profile_cells(&self) -> Option<(&[u64], &[u64], &[u64])> {
        self.prof
            .as_ref()
            .map(|p| (&p.cell_counts[..], &p.cell_nanos[..], &p.cell_samples[..]))
    }

    /// The always-on scheduler counters of the underlying timer wheel.
    pub fn wheel_stats(&self) -> &crate::event::WheelStats {
        self.queue.wheel_stats()
    }

    /// Heap footprint of the event queue (see
    /// [`EventQueue::memory_bytes`]) and the dispatch batch.
    pub fn queue_memory_bytes(&self) -> u64 {
        self.queue.memory_bytes() + (self.batch.capacity() * READY_BYTES) as u64
    }

    /// Panic unless the queue's payload slab is consistent with its keys
    /// and the undelivered part of the dispatch batch (see
    /// `EventQueue::debug_check_with`). Linear in the pending events: for
    /// tests.
    #[doc(hidden)]
    pub fn debug_check(&self) {
        self.queue
            .debug_check_with(self.batch.iter().map(|r| r.slot));
    }

    /// Size the per-class event counters for [`Simulator::run_until_classified`]
    /// (out-of-range class indices land in the last class).
    pub fn set_event_classes(&mut self, classes: usize) {
        assert!(classes > 0, "need at least one event class");
        self.class_counts = vec![0; classes];
    }

    /// Events processed per class index (empty unless
    /// [`Simulator::set_event_classes`] was called).
    pub fn event_class_counts(&self) -> &[u64] {
        &self.class_counts
    }

    /// High-water mark of the pending-event queue, sampled at each
    /// dispatch (within one event of the true peak).
    pub fn max_pending(&self) -> u64 {
        self.max_pending
    }

    /// The deterministic RNG factory for this run.
    pub fn rng(&self) -> RngFactory {
        self.rng
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently pending (including any extracted into
    /// the current same-timestamp dispatch batch but not yet delivered).
    pub fn events_pending(&self) -> usize {
        self.queue.len() + self.batch.len()
    }

    /// Install a component, returning its id.
    ///
    /// # Panics
    /// Panics if the arena would outgrow `u32` indices: the event queue
    /// stores a destination as `u32`.
    pub fn add_component<C: Component<M>>(&mut self, c: C) -> ComponentId {
        let id = ComponentId(self.components.len());
        assert!(u32::try_from(id.0).is_ok(), "component arena exceeds u32");
        self.components.push(Box::new(c));
        id
    }

    /// Schedule an initial event from outside any handler.
    pub fn schedule(&mut self, at: SimTime, dst: ComponentId, msg: M) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.queue.schedule(at, dst, msg);
    }

    /// Borrow a component, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the id is out of range or the type does not match —
    /// both indicate wiring bugs, not runtime conditions.
    pub fn component<C: Component<M>>(&self, id: ComponentId) -> &C {
        let c: &dyn Any = self.components[id.0].as_ref();
        c.downcast_ref::<C>().expect("component type mismatch")
    }

    /// Mutably borrow a component, downcast to its concrete type.
    ///
    /// # Panics
    /// Same conditions as [`Simulator::component`].
    pub fn component_mut<C: Component<M>>(&mut self, id: ComponentId) -> &mut C {
        let c: &mut dyn Any = self.components[id.0].as_mut();
        c.downcast_mut::<C>().expect("component type mismatch")
    }

    /// The dispatch core shared by the plain and classified entry points.
    /// `classify` is monomorphized in; the plain path passes `|_| None`
    /// and the whole classification block compiles away — keeping the
    /// per-event cost of observability off the uninstrumented hot loop.
    #[inline(always)]
    fn step_with<F: FnMut(&M) -> Option<usize>>(
        &mut self,
        classify: &mut F,
    ) -> Result<bool, EngineError> {
        self.max_pending = self
            .max_pending
            .max((self.queue.len() + self.batch.len()) as u64);
        let (time, dst, msg) = match self.batch.pop_front() {
            Some(r) => self.claim(r),
            None => match self.queue.pop() {
                Some(ev) => (ev.time, ev.dst, ev.msg),
                None => return Ok(false),
            },
        };
        self.dispatch(time, dst, msg, classify)?;
        Ok(true)
    }

    /// Take a batch record's payload out of the queue's slab.
    #[inline(always)]
    fn claim(&mut self, r: Ready) -> (SimTime, ComponentId, M) {
        (
            r.time,
            ComponentId(r.dst as usize),
            self.queue.claim(r.slot),
        )
    }

    /// Deliver one already-extracted event: advance the clock, classify,
    /// and run the destination component's handler.
    #[inline(always)]
    fn dispatch<F: FnMut(&M) -> Option<usize>>(
        &mut self,
        time: SimTime,
        dst: ComponentId,
        msg: M,
        classify: &mut F,
    ) -> Result<(), EngineError> {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        if let Some(k) = classify(&msg) {
            if let Some(last) = self.class_counts.len().checked_sub(1) {
                self.class_counts[k.min(last)] += 1;
            }
            if let Some(p) = self.prof.as_deref_mut() {
                p.record(dst.as_usize(), k);
            }
        }
        let Simulator {
            components, queue, ..
        } = self;
        let Some(comp) = components.get_mut(dst.as_usize()) else {
            return Err(EngineError::UnknownComponent { dst, at: time });
        };
        let mut ctx = Ctx {
            now: time,
            self_id: dst,
            queue,
        };
        comp.on_event(time, msg, &mut ctx);
        self.processed += 1;
        Ok(())
    }

    /// Process the single earliest pending event. Returns `Ok(false)` if
    /// the queue was empty.
    pub fn try_step(&mut self) -> Result<bool, EngineError> {
        self.step_with(&mut |_| None)
    }

    /// Process the single earliest pending event. Returns `false` if the
    /// queue was empty.
    ///
    /// # Panics
    /// Panics on a dispatch error ([`Simulator::try_step`] reports it).
    pub fn step(&mut self) -> bool {
        self.try_step().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run until the event queue drains.
    ///
    /// # Panics
    /// Panics on a dispatch error ([`Simulator::try_run`] reports it).
    pub fn run(&mut self) {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run until the event queue drains, surfacing dispatch errors.
    pub fn try_run(&mut self) -> Result<(), EngineError> {
        while self.try_step()? {}
        Ok(())
    }

    #[inline]
    fn run_until_with<F: FnMut(&M) -> Option<usize>>(
        &mut self,
        deadline: SimTime,
        mut classify: F,
    ) -> Result<(), EngineError> {
        loop {
            // Drain the current same-timestamp batch. Events a handler
            // schedules *at* the batch timestamp carry higher seqs and are
            // picked up by the next batch extraction, exactly where the
            // per-event pop loop would have placed them.
            while let Some(r) = self.batch.pop_front() {
                let pending = (self.queue.len() + self.batch.len()) as u64 + 1;
                self.max_pending = self.max_pending.max(pending);
                let (time, dst, msg) = self.claim(r);
                self.dispatch(time, dst, msg, &mut classify)?;
            }
            // Those handlers' `send`s are the next batch at this instant,
            // already in seq order in the queue's lane: deliver them
            // straight from it, generation by generation, until a
            // generation sends nothing (or another same-instant key turns
            // up and the queue merges the lane into the ready stage).
            while let Some((time, n)) = self.queue.lane_generation() {
                for _ in 0..n {
                    // As above: the event about to run still counts.
                    self.max_pending = self.max_pending.max(self.queue.len() as u64);
                    let (dst, msg) = self.queue.pop_lane();
                    self.dispatch(time, ComponentId(dst as usize), msg, &mut classify)?;
                }
            }
            if self.queue.take_head_ready_until(deadline, &mut self.batch) == 0 {
                // Queue drained, or the next event lies past the deadline:
                // advance the clock so callers observe a consistent
                // "simulated through deadline" state.
                if self.now < deadline {
                    self.now = deadline;
                }
                return Ok(());
            }
        }
    }

    /// Run until the event queue drains or virtual time would pass
    /// `deadline`. Events at exactly `deadline` are processed; the clock is
    /// left at `min(deadline, last event time)`.
    ///
    /// # Panics
    /// Panics on a dispatch error ([`Simulator::try_run_until`] reports it).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.try_run_until(deadline)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run_until`], surfacing dispatch errors instead of
    /// panicking.
    pub fn try_run_until(&mut self, deadline: SimTime) -> Result<(), EngineError> {
        self.run_until_with(deadline, |_| None)
    }

    /// [`Simulator::run_until`], additionally counting each processed event
    /// under the class index `classify` assigns it (clamped to the range
    /// set by [`Simulator::set_event_classes`], which must be called
    /// first). `classify` is a generic parameter so a function item passed
    /// here inlines into the event loop — measurably cheaper than an
    /// indirect call per event.
    ///
    /// # Panics
    /// Panics on a dispatch error ([`Simulator::try_run_until_classified`]
    /// reports it).
    pub fn run_until_classified<F: FnMut(&M) -> usize>(&mut self, deadline: SimTime, classify: F) {
        self.try_run_until_classified(deadline, classify)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run_until_classified`], surfacing dispatch errors
    /// instead of panicking.
    pub fn try_run_until_classified<F: FnMut(&M) -> usize>(
        &mut self,
        deadline: SimTime,
        mut classify: F,
    ) -> Result<(), EngineError> {
        assert!(
            !self.class_counts.is_empty(),
            "set_event_classes must be called before run_until_classified"
        );
        if let Some(p) = self.prof.as_deref_mut() {
            // Wall time between run slices (metric collection, convergence
            // checks) belongs to the harness, not to any event cell: drop
            // the sampling anchor so the first sample of this slice only
            // re-arms it. Sample *counts* stay deterministic — the anchor
            // affects the charged nanoseconds, never which events sample.
            p.last_sample = None;
        }
        self.run_until_with(deadline, |m| Some(classify(m)))
    }

    // ----- checkpoint/restore -------------------------------------------

    /// Serialize the engine's replay-relevant state: clock, event counts,
    /// and the full pending-event queue (see [`EventQueue::save_state`]).
    /// Components are **not** serialized here — the harness owns their
    /// concrete types and snapshots them alongside.
    ///
    /// Must be called between run slices (never from inside a handler):
    /// a partially-drained same-timestamp dispatch batch cannot be
    /// represented, and neither can sends still waiting in the queue's
    /// same-instant lane (a completed `run_until` leaves both empty).
    ///
    /// # Panics
    /// Panics if called mid-dispatch-batch or with sends undelivered.
    pub fn save_state(&self, w: &mut SnapWriter, save_msg: impl FnMut(&mut SnapWriter, &M)) {
        assert!(self.batch.is_empty(), "engine snapshot mid-dispatch-batch");
        assert_eq!(self.queue.lane_len(), 0, "engine snapshot mid-instant");
        if cfg!(debug_assertions) {
            self.debug_check();
        }
        w.time(self.now);
        w.u64(self.processed);
        w.u64(self.max_pending);
        w.seq(&self.class_counts, |w, &c| w.u64(c));
        self.queue.save_state(w, save_msg);
    }

    /// Restore state written by [`Simulator::save_state`] into this
    /// engine. The component arena is left untouched: the caller rebuilds
    /// components deterministically (same ids, same wiring) and then
    /// overwrites their mutable state, after which this call realigns the
    /// clock and pending events.
    ///
    /// Saved per-class event counts only apply when the current
    /// configuration has matching class dimensions (an unobserved
    /// snapshot restored into an observed run keeps its zeroed counters).
    ///
    /// A snapshot whose queue is inconsistent (see
    /// [`EventQueue::load_state`]) or holds an event for a component this
    /// engine does not have is [`SnapError::Corrupt`], and the engine is
    /// left as it was.
    pub fn restore_state<'a>(
        &mut self,
        r: &mut SnapReader<'a>,
        load_msg: impl FnMut(&mut SnapReader<'a>) -> Result<M, SnapError>,
    ) -> Result<(), SnapError> {
        let now = r.time()?;
        let processed = r.u64()?;
        let max_pending = r.u64()?;
        let class_counts = r.seq(|r| r.u64())?;
        // An entry addressed outside the arena would otherwise surface
        // mid-run as `UnknownComponent`; the snapshot never came from this
        // configuration.
        let queue = EventQueue::load_state_bounded(r, self.components.len(), load_msg)?;
        self.now = now;
        self.processed = processed;
        self.max_pending = max_pending;
        if !class_counts.is_empty() && class_counts.len() == self.class_counts.len() {
            self.class_counts = class_counts;
        }
        self.queue = queue;
        self.batch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: Option<ComponentId>,
        sent: u32,
        max: u32,
        log: Vec<(SimTime, u32)>,
    }

    impl Component<Msg> for Pinger {
        fn on_event(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match msg {
                Msg::Pong(n) => {
                    self.log.push((now, n));
                    if self.sent < self.max {
                        self.sent += 1;
                        ctx.schedule_in(
                            SimDuration::from_millis(10),
                            self.peer.unwrap(),
                            Msg::Ping(self.sent),
                        );
                    }
                }
                Msg::Ping(_) => unreachable!("pinger never receives pings"),
            }
        }
    }

    struct Ponger;

    impl Component<Msg> for Ponger {
        fn on_event(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                // Reply after a 5 ms "processing delay" to whoever is wired
                // as component 0 (test-local convention).
                ctx.schedule_in(
                    SimDuration::from_millis(5),
                    ComponentId::from_raw(0),
                    Msg::Pong(n),
                );
            }
        }
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = Simulator::new(0);
        let pinger = sim.add_component(Pinger {
            peer: None,
            sent: 0,
            max: 3,
            log: Vec::new(),
        });
        let ponger = sim.add_component(Ponger);
        sim.component_mut::<Pinger>(pinger).peer = Some(ponger);
        // Kick off: deliver Pong(0) to the pinger at t=0.
        sim.schedule(SimTime::ZERO, pinger, Msg::Pong(0));
        sim.run();
        let log = &sim.component::<Pinger>(pinger).log;
        // Pong(0) at t=0, then each round trip takes 15 ms.
        assert_eq!(
            log,
            &vec![
                (SimTime::ZERO, 0),
                (SimTime::from_millis(15), 1),
                (SimTime::from_millis(30), 2),
                (SimTime::from_millis(45), 3),
            ]
        );
        assert_eq!(sim.now(), SimTime::from_millis(45));
        assert_eq!(sim.events_processed(), 7); // 4 pongs + 3 pings
    }

    struct Counter {
        count: u64,
    }

    impl Component<Msg> for Counter {
        fn on_event(&mut self, _now: SimTime, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            self.count += 1;
            ctx.schedule_self(SimDuration::from_secs(1), Msg::Ping(0));
        }
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(0);
        let c = sim.add_component(Counter { count: 0 });
        sim.schedule(SimTime::ZERO, c, Msg::Ping(0));
        sim.run_until(SimTime::from_secs(10));
        // Fires at t=0,1,...,10 inclusive.
        assert_eq!(sim.component::<Counter>(c).count, 11);
        assert_eq!(sim.now(), SimTime::from_secs(10));
        // Continuing runs further.
        sim.run_until(SimTime::from_secs(12));
        assert_eq!(sim.component::<Counter>(c).count, 13);
    }

    #[test]
    fn run_until_advances_clock_when_queue_drains() {
        let mut sim: Simulator<Msg> = Simulator::new(0);
        sim.add_component(Ponger);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "component type mismatch")]
    fn downcast_mismatch_panics() {
        let mut sim: Simulator<Msg> = Simulator::new(0);
        let id = sim.add_component(Ponger);
        let _ = sim.component::<Counter>(id);
    }

    #[test]
    fn classifier_counts_per_kind_and_tracks_high_water() {
        let mut sim = Simulator::new(0);
        let pinger = sim.add_component(Pinger {
            peer: None,
            sent: 0,
            max: 3,
            log: Vec::new(),
        });
        let ponger = sim.add_component(Ponger);
        sim.component_mut::<Pinger>(pinger).peer = Some(ponger);
        sim.set_event_classes(2);
        sim.schedule(SimTime::ZERO, pinger, Msg::Pong(0));
        sim.run_until_classified(SimTime::from_secs(1_000), |m| match m {
            Msg::Ping(_) => 0,
            Msg::Pong(_) => 1,
        });
        assert_eq!(sim.event_class_counts(), &[3, 4]);
        assert_eq!(sim.max_pending(), 1);
    }

    #[test]
    fn profiling_attributes_counts_per_class_and_kind() {
        let mut sim = Simulator::new(0);
        let pinger = sim.add_component(Pinger {
            peer: None,
            sent: 0,
            max: 3,
            log: Vec::new(),
        });
        let ponger = sim.add_component(Ponger);
        sim.component_mut::<Pinger>(pinger).peer = Some(ponger);
        sim.set_event_classes(2);
        assert!(!sim.profiling_enabled());
        // Component 0 (pinger) is class 0, component 1 (ponger) class 1.
        sim.enable_profiling(vec![0, 1], 2, 2, 2);
        sim.schedule(SimTime::ZERO, pinger, Msg::Pong(0));
        sim.run_until_classified(SimTime::from_secs(1_000), |m| match m {
            Msg::Ping(_) => 0,
            Msg::Pong(_) => 1,
        });
        let (counts, _nanos, samples) = sim.profile_cells().unwrap();
        // The pinger receives 4 pongs → cell (class 0, kind 1); the ponger
        // receives 3 pings → cell (class 1, kind 0). Counts are exact.
        assert_eq!(counts, &[0, 4, 3, 0]);
        // 7 events at stride 2 sample at events 2, 4, 6; the first sample
        // only arms the anchor, so exactly 2 are charged — deterministic.
        assert_eq!(samples.iter().sum::<u64>(), 2);
    }

    #[test]
    fn classifier_clamps_out_of_range_to_last_class() {
        let mut sim = Simulator::new(0);
        let c = sim.add_component(Ponger);
        sim.set_event_classes(2);
        sim.schedule(SimTime::ZERO, c, Msg::Ping(1));
        sim.run_until_classified(SimTime::from_secs(1_000), |_| 99);
        // Ping + the Pong reply the Ponger schedules, both clamped.
        assert_eq!(sim.event_class_counts(), &[0, 2]);
    }

    #[test]
    fn unknown_component_is_a_typed_error() {
        let mut sim: Simulator<Msg> = Simulator::new(0);
        sim.schedule(
            SimTime::from_secs(3),
            ComponentId::from_raw(7),
            Msg::Ping(0),
        );
        let err = sim.try_run().unwrap_err();
        assert_eq!(
            err,
            EngineError::UnknownComponent {
                dst: ComponentId::from_raw(7),
                at: SimTime::from_secs(3),
            }
        );
        assert!(err.to_string().contains("unknown component #7"));
        // The clock still advanced to the faulty event's time.
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    /// Logs what it receives; on its first event cancels `victim`.
    struct Canceller {
        victim: CancelToken,
        cancel_hit: Option<bool>,
        seen: Vec<u32>,
    }

    impl Component<Msg> for Canceller {
        fn on_event(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                self.seen.push(n);
            }
            if self.cancel_hit.is_none() {
                self.cancel_hit = Some(ctx.cancel(self.victim));
            }
        }
    }

    fn canceller_sim() -> (Simulator<Msg>, ComponentId) {
        let mut sim = Simulator::new(0);
        let c = sim.add_component(Canceller {
            victim: CancelToken::default(),
            cancel_hit: None,
            seen: Vec::new(),
        });
        (sim, c)
    }

    #[test]
    fn cancelling_an_event_already_in_the_batch_misses_and_it_still_fires() {
        let (mut sim, c) = canceller_sim();
        let t = SimTime::from_micros(7);
        sim.schedule(t, c, Msg::Ping(1));
        let victim = sim.queue.schedule_cancellable(t, c, Msg::Ping(2));
        sim.component_mut::<Canceller>(c).victim = victim;
        sim.run_until(t);
        // Both were extracted together, so the token was already retired:
        // the cancel reports a miss, releases nothing, and Ping(2) arrives
        // with its own payload.
        let got = sim.component::<Canceller>(c);
        assert_eq!(got.cancel_hit, Some(false));
        assert_eq!(got.seen, vec![1, 2]);
        sim.debug_check();
    }

    #[test]
    fn a_dispatch_error_leaves_the_rest_of_the_batch_claimable() {
        let (mut sim, c) = canceller_sim();
        let t = SimTime::from_micros(7);
        sim.schedule(t, c, Msg::Ping(1));
        sim.schedule(t, ComponentId::from_raw(9), Msg::Ping(2));
        sim.schedule(t, c, Msg::Ping(3));
        assert!(sim.try_run_until(t).is_err());
        // Ping(3) sits in the batch as a record that still owns its slot.
        assert_eq!((sim.batch.len(), sim.events_pending()), (1, 1));
        sim.debug_check();
        assert!(sim.step());
        assert_eq!(sim.component::<Canceller>(c).seen, vec![1, 3]);
        sim.debug_check();
    }

    /// Answers every ping with a same-instant pong to itself.
    struct Echo;

    impl Component<Msg> for Echo {
        fn on_event(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                ctx.send(ctx.self_id(), Msg::Pong(n));
            }
        }
    }

    #[test]
    #[should_panic(expected = "engine snapshot mid-instant")]
    fn a_snapshot_with_a_send_undelivered_is_refused() {
        let mut sim = Simulator::new(0);
        let c = sim.add_component(Echo);
        sim.schedule(SimTime::from_micros(1), c, Msg::Ping(1));
        // One step delivers the ping; its pong waits in the lane, counted
        // as pending, where no snapshot would find it.
        assert!(sim.step());
        assert_eq!(sim.events_pending(), 1);
        sim.save_state(&mut SnapWriter::new(), |_, _| {});
    }

    #[test]
    fn restore_refuses_an_entry_addressed_outside_the_arena() {
        let snapshot_with_dst = |dst: usize| {
            let mut sim: Simulator<Msg> = Simulator::new(0);
            sim.add_component(Ponger);
            sim.schedule(
                SimTime::from_secs(1),
                ComponentId::from_raw(dst),
                Msg::Ping(4),
            );
            let mut w = SnapWriter::new();
            sim.save_state(&mut w, |w, m| match m {
                Msg::Ping(n) | Msg::Pong(n) => w.u32(*n),
            });
            w.into_bytes()
        };
        let restore = |bytes: &[u8]| {
            let mut sim: Simulator<Msg> = Simulator::new(0);
            sim.add_component(Ponger);
            sim.schedule(
                SimTime::from_secs(2),
                ComponentId::from_raw(0),
                Msg::Ping(5),
            );
            let r = sim.restore_state(&mut SnapReader::new(bytes), |r| Ok(Msg::Ping(r.u32()?)));
            (r, sim.now(), sim.events_pending())
        };
        let (ok, now, pending) = restore(&snapshot_with_dst(0));
        assert!(ok.is_ok());
        assert_eq!((now, pending), (SimTime::ZERO, 1));
        // One past the arena: refused, and the engine is as it was.
        let (bad, now, pending) = restore(&snapshot_with_dst(1));
        assert!(matches!(bad, Err(SnapError::Corrupt(ref m)) if m.contains("entry dst 1")));
        assert_eq!((now, pending), (SimTime::ZERO, 1));
    }

    #[test]
    #[should_panic(expected = "event for unknown component")]
    fn unknown_component_panics_via_legacy_entry_point() {
        let mut sim: Simulator<Msg> = Simulator::new(0);
        sim.schedule(SimTime::ZERO, ComponentId::from_raw(7), Msg::Ping(0));
        sim.run();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let pinger = sim.add_component(Pinger {
                peer: None,
                sent: 0,
                max: 50,
                log: Vec::new(),
            });
            let ponger = sim.add_component(Ponger);
            sim.component_mut::<Pinger>(pinger).peer = Some(ponger);
            sim.schedule(SimTime::ZERO, pinger, Msg::Pong(0));
            sim.run();
            sim.component::<Pinger>(pinger).log.clone()
        };
        assert_eq!(run(1), run(1));
    }
}
