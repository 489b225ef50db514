//! The pending-event set: a hierarchical timer wheel keyed on
//! (time, insertion sequence).
//!
//! The insertion-sequence tiebreak gives same-timestamp events FIFO order,
//! which is what makes whole-simulation runs deterministic: two events
//! scheduled for the same nanosecond always fire in the order they were
//! scheduled, independent of queue internals.
//!
//! ## Why a timer wheel
//!
//! A CoreScale run (10 Gbps × 5000 flows) keeps ~30 k events pending at all
//! times: pacing releases, link serialization completions, delayed-ACK and
//! RTO timers. A binary heap pays O(log n) comparisons at every push and
//! pop. Virtually all of these events are near-horizon and coarsely
//! bucketable, which is the textbook timer-wheel workload (Varghese &
//! Lauck, SOSP '87): O(1) insert into a slot keyed by the event's arrival
//! granule, and ordering work only for the handful of events sharing one
//! granule.
//!
//! ## Keys move, payloads stay
//!
//! An event is split in two. Its **key** — `(time, seq)`, the cancellation
//! token, the destination and a slab index, 40 bytes whatever `M` is — is
//! what the structures below hold, sort, sift and cascade. Its **payload**
//! (`M`; in the simulator an 88-byte `Msg`, an 80-byte packet behind a
//! word-wide tag) is written into a
//! slab slot by `schedule` and taken out once, at dispatch; in between it
//! does not move. A cancelled event gives its slab slot back at once, so
//! what a cancel leaves behind in a far wheel slot is a key, not a packet
//! (and usually the next re-arm takes it over). Slab slots are an
//! implementation detail: pop order depends on `(time, seq)` alone and
//! checkpoints never mention them.
//!
//! [`EventQueue`] is a tiered scheduler:
//!
//! * **Wheel** — [`LEVELS`] levels of [`SLOTS`] slots each. Level `L` buckets
//!   events whose delivery tick (time >> [`GRAN_BITS`]) first differs from
//!   the wheel's current tick in bit-group `L` (the tokio-style
//!   highest-differing-group rule). Together the levels cover the **entire**
//!   `u64` nanosecond range (GRAN_BITS + LEVELS·SLOT_BITS = 64 bits), so no
//!   separate far-future overflow structure is needed — `SimTime::MAX`
//!   sentinels simply land in the top level. A per-level occupancy bitmap
//!   finds the next nonempty slot with one `trailing_zeros`. A bucket is a
//!   chain of six-key chunks drawn from one arena shared by all 576
//!   buckets: a drained bucket's chunks go straight to whichever bucket
//!   fills next, so the wheel holds as much memory as its fullest moment
//!   needed and no bucket keeps a private high-water buffer.
//! * **Ready stage** — the current granule's keys: one drained level-0
//!   slot, sorted once into a run that pops off its tail, plus a small
//!   binary min-heap (the overlay) for keys that reach the current
//!   granule afterwards: a schedule a few hundred nanoseconds ahead, a
//!   cascade, a late external schedule. All intra-granule and
//!   same-timestamp ordering is resolved here, so the (time, seq) total
//!   order of the old global heap is preserved *exactly* — same pops,
//!   same digests.
//! * **Same-instant lane** — a handler's `Ctx::send` is an event at "now":
//!   about half of a CoreScale run's events (every sender → first hop and
//!   router → link hand-off). It has nothing to be sorted against except
//!   other sends of the same instant, which arrive in seq order already,
//!   so it skips the key, the slab and the heap: a FIFO of
//!   `(seq, dst, payload)` that the engine drains one *generation* at a
//!   time — the lane's length when the dispatch batch runs dry, which is
//!   exactly the next same-timestamp batch the ready stage would have
//!   produced. Seqs are drawn from the same counter as every other
//!   event's. The one thing that can interleave with a generation is
//!   another key at the lane's instant (a zero-delay `schedule`, or a
//!   leftover of the sorted run under single-stepping); when one exists
//!   the lane is merged into the overlay as ordinary keys carrying their
//!   original seqs, and the ready stage orders the lot. The lane is empty
//!   between run slices and is never serialized.
//! * **Cancellation tokens** — [`EventQueue::schedule_cancellable`] returns
//!   a [`CancelToken`]; [`EventQueue::cancel`] bumps the token's entry in a
//!   generation table and drops the payload, both O(1). The key stays where
//!   it is, dead: recognised by its stale generation when it surfaces, and
//!   never dispatched. A cancel-and-rearm timer (RTO, delayed ACK) gets its
//!   token index straight back from the LIFO free list, and when the new
//!   time is at or after the dead key's own, the re-arm inserts nothing: it
//!   records `(time, seq, dst)` for the index, and the dead key, when it
//!   surfaces, is re-inserted carrying them. The dead key sits no later in
//!   the `(time, seq)` order than the event it carries, so it reaches the
//!   ready stage's head (or is drained from its bucket) before that event's
//!   turn, and the order stays exact. Tokens, payload slots, seqs and the
//!   counters change exactly as cancel-then-insert would change them, so
//!   pops and checkpoints cannot tell the difference. A re-arm to an
//!   earlier time inserts a fresh key, and the old one is dropped when it
//!   surfaces.
//!
//! The binary heap the wheel replaced is kept verbatim as [`HeapQueue`],
//! payload inline in every entry: it is the ordering oracle for the
//! equivalence property tests (`tests/proptest_event_queue.rs` at the
//! workspace root, `tests/queue_model.rs` and
//! `tests/scheduler_equivalence.rs` in this crate).

use crate::engine::ComponentId;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A scheduled event: deliver `msg` to component `dst` at instant `time`.
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Delivery instant.
    pub time: SimTime,
    /// Destination component.
    pub dst: ComponentId,
    /// The message payload.
    pub msg: M,
}

/// Handle for a cancellable scheduled event (see
/// [`EventQueue::schedule_cancellable`]).
///
/// Tokens are single-use: once the event fires or is cancelled, the token
/// goes stale and further [`EventQueue::cancel`] calls return `false`. The
/// `Default` token is a null handle that never matches a live event, which
/// gives timer owners a cheap "nothing armed" state.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct CancelToken {
    idx: u32,
    gen: u64,
}

impl Default for CancelToken {
    #[inline]
    fn default() -> Self {
        CancelToken {
            idx: u32::MAX,
            gen: 0,
        }
    }
}

// Tokens survive a snapshot/restore cycle because `EventQueue::save_state`
// carries the generation table verbatim: a token live before the snapshot
// is live (and cancels the same event) after restore.
crate::snap!(CancelToken { idx, gen });

/// Sentinel for "entry has no cancellation token".
const NO_TOKEN: u32 = u32::MAX;

/// Generation table backing [`CancelToken`] liveness.
///
/// A token `(idx, gen)` is live iff `gens[idx] == gen`. Cancelling or
/// firing bumps the slot's generation (so the token can never act twice)
/// and recycles the slot through a free list; a stale entry still sitting
/// in the wheel carries the old generation and is dropped on contact.
#[derive(Default)]
struct TokenTable {
    gens: Vec<u64>,
    free: Vec<u32>,
}

impl TokenTable {
    #[inline]
    fn alloc(&mut self) -> CancelToken {
        if let Some(idx) = self.free.pop() {
            CancelToken {
                idx,
                gen: self.gens[idx as usize],
            }
        } else {
            let idx = u32::try_from(self.gens.len()).expect("token table exhausted");
            assert!(idx != NO_TOKEN, "token table exhausted");
            // Start at generation 1: the null token is (u32::MAX, 0) and a
            // nonzero generation keeps freshly-allocated slots distinct
            // from `CancelToken::default()` even at idx 0.
            self.gens.push(1);
            CancelToken { idx, gen: 1 }
        }
    }

    #[inline]
    fn is_live(&self, idx: u32, gen: u64) -> bool {
        idx == NO_TOKEN || self.gens[idx as usize] == gen
    }

    /// Bump the generation and recycle the slot. Caller must know the
    /// token is live (fire path) or has just checked it (cancel path).
    #[inline]
    fn retire(&mut self, idx: u32) {
        if idx != NO_TOKEN {
            self.gens[idx as usize] += 1;
            self.free.push(idx);
        }
    }

    fn cancel(&mut self, tok: CancelToken) -> bool {
        if tok.idx == NO_TOKEN || !self.is_live(tok.idx, tok.gen) {
            return false;
        }
        self.retire(tok.idx);
        true
    }
}

/// What the wheel orders: everything about a pending event except its
/// payload. Slots, the sorted run and the overlay heap hold only these, so
/// a cascade, a granule sort or a heap sift moves 40 bytes whatever `M`
/// is; the payload waits in the slab at index `slot` (see
/// [`EventQueue`]). `dst` is the component's arena index, which
/// [`crate::Simulator::add_component`] keeps within `u32`.
///
/// `repr(C)` with `dst` and `slot` side by side puts the pair a popped key
/// hands to dispatch in one aligned word, read by one load. Across a word
/// boundary, that load spans the two 4-byte stores that have just copied
/// the key, and waits for both (a store-forwarding stall; DESIGN.md §7
/// item 13).
#[derive(Clone, Copy)]
#[repr(C)]
struct Key {
    time: SimTime,
    seq: u64,
    tok_gen: u64,
    dst: u32,
    slot: u32,
    tok: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 40);
const _: () = assert!(std::mem::offset_of!(Key, dst) % 8 == 0);
const _: () = assert!(std::mem::offset_of!(Key, slot) == std::mem::offset_of!(Key, dst) + 4);

impl Key {
    /// What the queue orders by: earliest time first, then FIFO by seq.
    #[inline]
    fn at(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// The ready stage's overlay: a binary min-heap of keys by
/// [`Key::at`]. Written out rather than a `BinaryHeap<Key>` so that a key
/// is written into the heap once and never read straight back:
/// `BinaryHeap::push` stores the new key field by field and then its sift
/// loads it back as 16-byte pieces, each spanning two of those stores,
/// and `pop` does the same with the key it moves to the root
/// (DESIGN.md §7 item 13). Seqs are unique, so the pop order is the one
/// total order whatever the heap's shape.
#[derive(Default)]
struct Overlay {
    keys: Vec<Key>,
}

impl Overlay {
    /// The earliest key.
    #[inline]
    fn peek(&self) -> Option<&Key> {
        self.keys.first()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sift `k` up from a new leaf, moving each later parent down into
    /// the hole and writing `k` once, where it stops.
    #[inline]
    fn push(&mut self, k: Key) {
        let mut hole = self.keys.len();
        self.keys.push(k);
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if self.keys[parent].at() <= k.at() {
                break;
            }
            self.keys[hole] = self.keys[parent];
            hole = parent;
        }
        self.keys[hole] = k;
    }

    /// Remove the earliest key: sift the last leaf down from the root,
    /// moving each earlier child up into the hole.
    #[inline]
    fn pop(&mut self) -> Option<Key> {
        let last = self.keys.pop()?;
        let Some(&top) = self.keys.first() else {
            return Some(last);
        };
        let n = self.keys.len();
        let mut hole = 0;
        loop {
            let mut child = 2 * hole + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.keys[child + 1].at() < self.keys[child].at() {
                child += 1;
            }
            if last.at() <= self.keys[child].at() {
                break;
            }
            self.keys[hole] = self.keys[child];
            hole = child;
        }
        self.keys[hole] = last;
        Some(top)
    }
}

/// `TokRec::rearm_seq` while no re-arm rides the tracked key: seqs count
/// up from 0 and never reach it.
const NO_REARM: u64 = u64::MAX;

/// Per token index: where its live event's payload sits, and the key the
/// index last put in the queue, which a re-arm may take over (see the
/// module docs).
#[derive(Clone, Copy)]
struct TokRec {
    /// Payload slot of the live event bearing this index (meaningful only
    /// while its token is live), so `cancel` can release the payload
    /// without finding the key.
    slot: u32,
    /// Destination of the re-arm recorded below.
    rearm_dst: u32,
    /// Token generation of the index's **tracked** key — the one it last
    /// inserted, still resident — or 0 for none (generations start at 1).
    key_gen: u64,
    /// The tracked key's time: a re-arm at or after it can ride that key.
    key_time: SimTime,
    /// The re-arm riding the tracked key, made by the index's live token:
    /// its time and seq, or [`NO_REARM`]. Cancelling the live token clears
    /// it, so the live generation is the re-arm's own.
    rearm_time: SimTime,
    rearm_seq: u64,
}

const _: () = assert!(std::mem::size_of::<TokRec>() == 40);

impl TokRec {
    const NONE: TokRec = TokRec {
        slot: 0,
        rearm_dst: 0,
        key_gen: 0,
        key_time: SimTime::ZERO,
        rearm_time: SimTime::ZERO,
        rearm_seq: NO_REARM,
    };

    /// The key the recorded re-arm would have been inserted as, under
    /// the index's live generation `gen`.
    fn rearmed_key(&self, tok: u32, gen: u64) -> Key {
        Key {
            time: self.rearm_time,
            seq: self.rearm_seq,
            tok_gen: gen,
            tok,
            dst: self.rearm_dst,
            slot: self.slot,
        }
    }
}

/// An event extracted for dispatch whose payload is still in the slab:
/// what the engine's same-timestamp batch holds. The record owns payload
/// slot `slot` until [`EventQueue::claim`] takes the message out,
/// immediately before the handler runs.
#[derive(Clone, Copy)]
pub(crate) struct Ready {
    pub(crate) time: SimTime,
    pub(crate) dst: u32,
    pub(crate) slot: u32,
}

/// A same-instant send waiting in the lane (see [`EventQueue::send_now`]):
/// its delivery time is the lane's, it bears no token, and its payload
/// travels inline — it never touches the slab.
struct Sent<M> {
    seq: u64,
    dst: u32,
    msg: M,
}

/// "No chunk": end of a bucket's chain, or of the vacant-chunk list.
const NIL: u32 = u32::MAX;
/// Keys per [`Chunk`]: with the link they fill four cache lines. A level-0
/// bucket (one microsecond of events) usually fits in one chunk; a coarse
/// bucket of thousands is walked at one dependent load per six keys.
const CHUNK_KEYS: usize = 6;

/// The unit in which wheel buckets hold keys: a bucket is a chain of
/// chunks out of one arena, newest first, every chunk but the newest
/// full. One arena rather than a `Vec` per bucket: 576 buffers of 40-byte
/// keys, each doubling its way to its own bucket's crest and trimmed back
/// after a drain, are small enough to live in the allocator's heap, where
/// the holes they leave outlast the queue (measured: peak RSS 17 → 11 MB
/// on the parking-lot benchmark workload, 121 → 110 MB on CoreScale, and
/// the observed workload's export buffers no longer land on top of a
/// fragmented heap). The arena is one allocation, reused chunk by chunk
/// and handed back whole, and it makes per-bucket trimming unnecessary.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Chunk {
    next: u32,
    keys: [Key; CHUNK_KEYS],
}

impl Chunk {
    const EMPTY: Chunk = Chunk {
        keys: [Key {
            time: SimTime::ZERO,
            seq: 0,
            tok_gen: 0,
            tok: NO_TOKEN,
            dst: 0,
            slot: 0,
        }; CHUNK_KEYS],
        next: NIL,
    };
}

/// One wheel bucket: its newest chunk ([`NIL`] while the bucket is empty)
/// and how many keys that chunk holds. Every chunk further down the chain
/// is full, so the count lives here, beside the head, and an insert touches
/// nothing of the chunk but the key it writes.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    len: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { head: NIL, len: 0 };
}

/// Bytes per element of the wheel's buckets, run and overlay heap.
pub const KEY_BYTES: usize = std::mem::size_of::<Key>();
/// Bytes per element of the engine's dispatch batch.
pub const READY_BYTES: usize = std::mem::size_of::<Ready>();
// Neither type has a type parameter, so neither size can depend on the
// payload; these (and the asserts beside `Key`) pin the absolute figures
// the design rests on.
const _: () = assert!(READY_BYTES <= 16);

/// log2 of the wheel granularity: one tick = 1024 ns ≈ 1 µs, fine enough
/// that a drained slot holds only the events of a single microsecond-scale
/// granule (at 10 Gbps a 1500 B frame serializes in 1.2 µs).
const GRAN_BITS: u32 = 10;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels. GRAN_BITS + LEVELS × SLOT_BITS = 64: the wheel spans
/// the whole `u64` nanosecond range and nothing can overflow it.
pub const LEVELS: usize = 9;

/// log2 buckets of the batch-size histogram in [`WheelStats`].
pub const BATCH_BUCKETS: usize = 16;

/// Always-on scheduler counters: plain integer adds on paths that already
/// touch the same cache lines, harvested by the profiling layer
/// (`ccsim-prof`) after a run. Counting never changes which events fire
/// or in what order, so outcome digests are untouched by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WheelStats {
    /// High-water mark of physically-resident entries per wheel level
    /// (dead keys count until they surface).
    pub level_high_water: [u64; LEVELS],
    /// Slot drains at level > 0, each re-routing its entries downward.
    pub cascades: u64,
    /// Live entries moved by those cascades.
    pub cascaded_entries: u64,
    /// log2 histogram of same-timestamp dispatch batch sizes:
    /// `batch_hist[k]` counts batches whose size has bit-length k + 1
    /// (i.e. size in `[2^k, 2^(k+1))`); larger batches clamp into the
    /// last bucket.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Cancellations that hit a live event.
    pub cancels: u64,
    /// Cancel calls with a stale token (already fired or cancelled). The
    /// null token (`CancelToken::default()`, "nothing armed") is not
    /// counted.
    pub cancel_misses: u64,
    /// Events scheduled with a cancellation token (rearmable timers).
    pub cancellable_scheduled: u64,
    /// Of those, re-arms that took over the key their index's cancel left
    /// in the queue instead of inserting one.
    pub revived: u64,
    /// Same-instant sends that entered the FIFO lane (every `Ctx::send`).
    pub sends_now: u64,
    /// Times the lane was merged into the overlay heap because another
    /// key shared its instant (or the queue was popped directly): the
    /// fallback, 0 on a run whose only same-instant events are sends.
    pub lane_merges: u64,
}

impl Default for WheelStats {
    fn default() -> Self {
        WheelStats {
            level_high_water: [0; LEVELS],
            cascades: 0,
            cascaded_entries: 0,
            batch_hist: [0; BATCH_BUCKETS],
            cancels: 0,
            cancel_misses: 0,
            cancellable_scheduled: 0,
            revived: 0,
            sends_now: 0,
            lane_merges: 0,
        }
    }
}

/// Priority queue of pending events, earliest first, FIFO within a
/// timestamp. See the module docs for the internal structure.
pub struct EventQueue<M> {
    /// The current granule's keys, sorted **descending** by (time, seq):
    /// the next event to fire is `run.last()`, so a pop is an O(1) tail
    /// pop with no sift traffic. Filled (and sorted once) per drained
    /// level-0 slot. Always consulted before the wheel.
    run: Vec<Key>,
    /// Keys scheduled at or before the current granule *after* the run
    /// was sorted (a handler's schedule a fraction of a microsecond ahead
    /// or at "now", a cascaded key, a late external schedule, a merged
    /// lane). Usually empty or tiny; min-ordered by (time, seq). The head of the
    /// queue is the smaller of `run.last()` and `overlay.peek()`.
    overlay: Overlay,
    /// Same-instant sends in seq order, all due at `lane_time`; every one
    /// has a higher seq than any key extracted so far. Drained by the
    /// engine a generation at a time, or merged into `overlay` when a key
    /// elsewhere in the ready stage shares its instant.
    lane: VecDeque<Sent<M>>,
    /// Delivery instant of everything in `lane` (meaningless while empty).
    lane_time: SimTime,
    /// The `LEVELS × SLOTS` wheel buckets, row-major by level.
    buckets: Vec<Bucket>,
    /// The key arena every bucket draws its chunks from.
    chunks: Vec<Chunk>,
    /// Head of the vacant-chunk list (linked through `Chunk::next`).
    free_chunk: u32,
    /// The payload slab: `payload[k.slot]` is `Some` exactly while a live
    /// key `k` (or a [`Ready`] record extracted from one) owns the slot.
    /// Written by `schedule`, taken by [`EventQueue::claim`] or dropped by
    /// `cancel`; never moved in between.
    payload: Vec<Option<M>>,
    /// Vacant slab slots, reused last-freed-first so the slots in use stay
    /// the ones most recently in cache.
    free_slots: Vec<u32>,
    /// Per token index: its live event's payload slot and its re-arm
    /// bookkeeping. Kept apart from the generation table, which every
    /// drained key reads.
    toks: Vec<TokRec>,
    /// Per-level occupancy bitmaps (bit = slot has entries).
    occupied: [u64; LEVELS],
    /// Live (scheduled minus popped minus cancelled) entry count. Declared
    /// away from the two counters every schedule bumps with it: beside
    /// them, the three `+= 1`s became one 16-byte load-add-store over
    /// `live` and its neighbour, and that load straddled the 8-byte store
    /// with which the pop before had decremented `live` (DESIGN.md §7
    /// item 13).
    live: usize,
    /// The wheel's notion of "now", in ticks (ns >> GRAN_BITS). Invariant:
    /// every wheel entry has tick > cur_tick; the ready stage holds ticks
    /// ≤ cur_tick, so it is always globally earliest.
    cur_tick: u64,
    tokens: TokenTable,
    next_seq: u64,
    scheduled_total: u64,
    /// Physically-resident keys per level (dead keys included), the
    /// basis for the per-level high-water marks in `stats`.
    level_live: [u64; LEVELS],
    stats: WheelStats,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            overlay: Overlay::default(),
            lane: VecDeque::new(),
            lane_time: SimTime::ZERO,
            buckets: vec![Bucket::EMPTY; LEVELS * SLOTS],
            chunks: Vec::new(),
            free_chunk: NIL,
            payload: Vec::new(),
            free_slots: Vec::new(),
            toks: Vec::new(),
            occupied: [0; LEVELS],
            cur_tick: 0,
            tokens: TokenTable::default(),
            live: 0,
            next_seq: 0,
            scheduled_total: 0,
            level_live: [0; LEVELS],
            stats: WheelStats::default(),
        }
    }

    /// Pre-allocate capacity for `n` simultaneous pending events.
    ///
    /// The wheel's key arena grows on demand; `n` sizes the payload slab
    /// (one slot per pending event) and the sorted run.
    pub fn with_capacity(n: usize) -> Self {
        let mut q = Self::new();
        let n = n.min(1 << 16);
        q.run.reserve(n);
        q.payload.reserve(n);
        q
    }

    /// Park `msg` in a vacant slab slot until dispatch (or cancellation).
    #[inline]
    fn store(&mut self, msg: M) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            debug_assert!(self.payload[slot as usize].is_none(), "free slot occupied");
            self.payload[slot as usize] = Some(msg);
            slot
        } else {
            let slot = u32::try_from(self.payload.len()).expect("payload slab exhausted");
            self.payload.push(Some(msg));
            slot
        }
    }

    /// Take the payload an extracted [`Ready`] record owns, vacating its
    /// slot. Each record is claimed exactly once.
    #[inline]
    pub(crate) fn claim(&mut self, slot: u32) -> M {
        let msg = self.payload[slot as usize]
            .take()
            .expect("payload slot claimed twice");
        self.free_slots.push(slot);
        msg
    }

    /// Count one more pending event and give it the next sequence number.
    #[inline]
    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.live += 1;
        seq
    }

    /// The key for a new event: next sequence number, payload stored.
    #[inline]
    fn new_key(&mut self, time: SimTime, dst: ComponentId, tok: u32, tok_gen: u64, msg: M) -> Key {
        Key {
            time,
            seq: self.draw_seq(),
            tok_gen,
            tok,
            dst: dst.as_u32(),
            slot: self.store(msg),
        }
    }

    /// Deliver `msg` to `dst` at `now`, the instant being dispatched: the
    /// event joins the same-instant lane instead of the wheel. It draws
    /// its seq like any other event, so it fires exactly where
    /// `schedule(now, dst, msg)` would have put it.
    #[inline]
    pub(crate) fn send_now(&mut self, now: SimTime, dst: ComponentId, msg: M) {
        debug_assert!(
            self.lane.is_empty() || self.lane_time == now,
            "lane holds sends of another instant"
        );
        self.lane_time = now;
        self.stats.sends_now += 1;
        let sent = Sent {
            seq: self.draw_seq(),
            dst: dst.as_u32(),
            msg,
        };
        self.lane.push_back(sent);
    }

    /// Start a lane generation: the `n` sends now waiting are the next
    /// same-timestamp batch, to be taken with `n` calls of
    /// [`EventQueue::pop_lane`] (sends their handlers make queue up behind
    /// them, for the generation after). `None` when the lane is empty, or
    /// when a key in the ready stage shares the lane's instant: the lane
    /// has then been merged and the batch must come from
    /// [`EventQueue::take_head_ready_until`].
    #[inline]
    pub(crate) fn lane_generation(&mut self) -> Option<(SimTime, usize)> {
        let n = self.lane.len();
        if n == 0 {
            return None;
        }
        let time = self.lane_time;
        // Anything the ready stage holds at or before the lane's instant
        // was scheduled while these sends were, so seqs may interleave.
        // (A dead key there makes this a false alarm; merging is still
        // correct.) The wheel proper only holds later granules.
        let clash = |k: Option<&Key>| k.is_some_and(|k| k.time <= time);
        if clash(self.overlay.peek()) || clash(self.run.last()) {
            self.merge_lane();
            return None;
        }
        self.count_batch(n);
        Some((time, n))
    }

    /// The next send of the generation in progress.
    #[inline]
    pub(crate) fn pop_lane(&mut self) -> (u32, M) {
        let sent = self.lane.pop_front().expect("generation outlives the lane");
        self.live -= 1;
        (sent.dst, sent.msg)
    }

    /// The fallback: turn every waiting send into an ordinary key, with
    /// the seq it already drew, so the ready stage orders it against
    /// whatever shares its instant.
    #[cold]
    #[inline(never)]
    fn merge_lane(&mut self) {
        self.stats.lane_merges += 1;
        let time = self.lane_time;
        while let Some(Sent { seq, dst, msg }) = self.lane.pop_front() {
            let slot = self.store(msg);
            self.insert(Key {
                time,
                seq,
                tok_gen: 0,
                tok: NO_TOKEN,
                dst,
                slot,
            });
        }
    }

    /// Sends waiting in the lane (0 between run slices).
    #[inline]
    pub(crate) fn lane_len(&self) -> usize {
        self.lane.len()
    }

    /// Tally one same-timestamp dispatch batch of `n` ≥ 1 events.
    #[inline]
    fn count_batch(&mut self, n: usize) {
        let bucket = (usize::BITS - n.leading_zeros() - 1) as usize;
        self.stats.batch_hist[bucket.min(BATCH_BUCKETS - 1)] += 1;
    }

    /// Schedule `msg` for delivery to `dst` at absolute instant `time`.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, dst: ComponentId, msg: M) {
        let k = self.new_key(time, dst, NO_TOKEN, 0, msg);
        self.insert(k);
    }

    /// Schedule `msg` like [`EventQueue::schedule`], returning a token that
    /// can later [`EventQueue::cancel`] the event if it has not yet fired.
    #[inline]
    pub fn schedule_cancellable(&mut self, time: SimTime, dst: ComponentId, msg: M) -> CancelToken {
        let tok = self.tokens.alloc();
        self.stats.cancellable_scheduled += 1;
        let k = self.new_key(time, dst, tok.idx, tok.gen, msg);
        if tok.idx as usize == self.toks.len() {
            self.toks.push(TokRec::NONE);
        }
        let rec = &mut self.toks[tok.idx as usize];
        rec.slot = k.slot;
        // An index handed out again is retired, so a key it still tracks
        // is dead. If that key is due no later than this event, it reaches
        // the ready stage first and can carry the event there.
        if rec.key_gen != 0 && time >= rec.key_time {
            (rec.rearm_time, rec.rearm_seq, rec.rearm_dst) = (time, k.seq, k.dst);
            self.stats.revived += 1;
        } else {
            (rec.key_gen, rec.key_time) = (tok.gen, time);
            self.insert(k);
        }
        tok
    }

    /// Cancel a pending event. Returns `true` iff the token was live (the
    /// event had neither fired nor been cancelled); the event will then
    /// never be delivered. O(1): the payload is dropped and its slab slot
    /// vacated here; the key stays behind, dead, recognised by its stale
    /// token generation when it surfaces (and possibly taken over by the
    /// next re-arm of the same index first). The null token returns
    /// `false` without counting a miss: it is how a timer owner says
    /// "nothing was armed".
    pub fn cancel(&mut self, tok: CancelToken) -> bool {
        if tok.idx == NO_TOKEN {
            return false;
        }
        if self.tokens.cancel(tok) {
            let rec = &mut self.toks[tok.idx as usize];
            rec.rearm_seq = NO_REARM;
            let slot = rec.slot;
            debug_assert!(
                self.payload[slot as usize].is_some(),
                "live token, no payload"
            );
            self.payload[slot as usize] = None;
            self.free_slots.push(slot);
            self.live -= 1;
            self.stats.cancels += 1;
            true
        } else {
            self.stats.cancel_misses += 1;
            false
        }
    }

    /// True iff `tok` still refers to a pending (not fired, not cancelled)
    /// event.
    pub fn is_pending(&self, tok: CancelToken) -> bool {
        tok.idx != NO_TOKEN && self.tokens.is_live(tok.idx, tok.gen)
    }

    /// Route a key to the ready stage or the correct wheel slot.
    #[inline]
    fn insert(&mut self, k: Key) {
        let tick = k.time.as_nanos() >> GRAN_BITS;
        if tick <= self.cur_tick {
            // Current granule (or a causality-violating past schedule —
            // the engine debug-asserts against those; ordering is still
            // correct here either way): joins via the overlay heap, since
            // the sorted run must not be disturbed.
            self.overlay.push(k);
            return;
        }
        let diff = tick ^ self.cur_tick;
        // diff != 0 (tick > cur_tick), so the high bit index is well defined.
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        let bucket = level * SLOTS + slot;
        let Bucket { head, len } = self.buckets[bucket];
        let (mut c, mut len) = (head, len);
        if c == NIL || len as usize >= CHUNK_KEYS {
            let next = c;
            c = self.free_chunk;
            if c == NIL {
                c = u32::try_from(self.chunks.len()).expect("key arena exhausted");
                self.chunks.push(Chunk::EMPTY);
            } else {
                self.free_chunk = self.chunks[c as usize].next;
            }
            self.chunks[c as usize].next = next;
            len = 0;
        }
        self.chunks[c as usize].keys[len as usize] = k;
        self.buckets[bucket] = Bucket {
            head: c,
            len: len + 1,
        };
        self.occupied[level] |= 1 << slot;
        self.level_live[level] += 1;
        if self.level_live[level] > self.stats.level_high_water[level] {
            self.stats.level_high_water[level] = self.level_live[level];
        }
    }

    /// Make the globally-earliest live key poppable from the ready stage
    /// (tail of `run` or top of `overlay`). Returns `false` iff no live
    /// entries remain anywhere.
    ///
    /// Dead (cancelled) keys encountered on the way never surface from
    /// `pop`: each is re-inserted carrying the re-arm that rode it, or
    /// dropped (its payload slot was vacated by `cancel`). Sends still in
    /// the lane are merged in first: whoever asks the ready stage for its
    /// head (`pop`, `peek_time`, a batch extraction) wants them ordered
    /// with everything else.
    fn prepare(&mut self) -> bool {
        if !self.lane.is_empty() {
            self.merge_lane();
        }
        loop {
            // Clear dead keys off both ready-stage heads.
            while let Some(k) = self.run.last() {
                if self.tokens.is_live(k.tok, k.tok_gen) {
                    break;
                }
                let k = self.run.pop().expect("checked above");
                self.surface_dead(k);
            }
            while let Some(k) = self.overlay.peek() {
                if self.tokens.is_live(k.tok, k.tok_gen) {
                    break;
                }
                let k = self.overlay.pop().expect("checked above");
                self.surface_dead(k);
            }
            if !self.run.is_empty() || !self.overlay.is_empty() {
                return true;
            }
            if !self.advance_wheel() {
                return false;
            }
        }
    }

    /// After a successful [`EventQueue::prepare`]: true iff the next event
    /// comes from the sorted run (vs the overlay heap).
    #[inline]
    fn head_in_run(&self) -> bool {
        match (self.run.last(), self.overlay.peek()) {
            (Some(r), Some(o)) => r.at() <= o.at(),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// After a successful [`EventQueue::prepare`]: the timestamp of the
    /// next event.
    #[inline]
    fn head_time(&self) -> SimTime {
        if self.head_in_run() {
            self.run.last().expect("prepared").time
        } else {
            self.overlay.peek().expect("prepared").time
        }
    }

    /// After a successful [`EventQueue::prepare`]: extract the next key,
    /// retiring its token and untracking the key (a live key is always its
    /// index's tracked one). The caller now owns payload slot `slot`.
    #[inline]
    fn pop_prepared(&mut self) -> Key {
        let k = if self.head_in_run() {
            self.run.pop().expect("prepared")
        } else {
            self.overlay.pop().expect("prepared")
        };
        if k.tok != NO_TOKEN {
            self.tokens.retire(k.tok);
            self.toks[k.tok as usize].key_gen = 0;
        }
        self.live -= 1;
        k
    }

    /// What a resident dead key stands for: the re-arm riding it, if the
    /// key is its index's tracked one and a re-arm is recorded; otherwise
    /// nothing.
    fn carried(&self, k: &Key) -> Option<Key> {
        let rec = &self.toks[k.tok as usize];
        (rec.key_gen == k.tok_gen && rec.rearm_seq != NO_REARM)
            .then(|| rec.rearmed_key(k.tok, self.tokens.gens[k.tok as usize]))
    }

    /// The pending event a resident key stands for: itself while live,
    /// else the re-arm it carries, if any.
    fn effective(&self, k: &Key) -> Option<Key> {
        if self.tokens.is_live(k.tok, k.tok_gen) {
            Some(*k)
        } else {
            self.carried(k)
        }
    }

    /// A dead key has left the ready stage or its bucket: re-insert the
    /// re-arm it carries, now tracked in its place, or drop it, untracking
    /// it if it was tracked.
    #[cold]
    #[inline(never)]
    fn surface_dead(&mut self, k: Key) {
        let carried = self.carried(&k);
        let rec = &mut self.toks[k.tok as usize];
        match carried {
            Some(live) => {
                (rec.key_gen, rec.key_time) = (live.tok_gen, live.time);
                rec.rearm_seq = NO_REARM;
                self.insert(live);
            }
            None if rec.key_gen == k.tok_gen => rec.key_gen = 0,
            None => {}
        }
    }

    /// Claim an extracted key's payload and assemble the public event.
    #[inline]
    fn deliver(&mut self, k: Key) -> Event<M> {
        Event {
            time: k.time,
            dst: ComponentId::from_raw(k.dst as usize),
            msg: self.claim(k.slot),
        }
    }

    /// Advance `cur_tick` to the next occupied slot and drain it: the
    /// lowest nonempty level always holds the earliest wheel entries
    /// (higher levels differ from `cur_tick` in a more significant bit
    /// group, i.e. lie further out). A level-0 slot becomes the sorted
    /// run; a higher-level slot cascades its keys back through
    /// [`EventQueue::insert`] against the advanced `cur_tick`, so they
    /// land in lower levels (or the overlay) and the loop converges.
    /// Returns `false` iff the whole wheel is empty.
    fn advance_wheel(&mut self) -> bool {
        let Some(level) = self.occupied.iter().position(|&b| b != 0) else {
            return false;
        };
        let slot = self.occupied[level].trailing_zeros() as u64;
        let shift = level as u32 * SLOT_BITS;
        // Jump to the start of that slot's range: replace cur_tick's bit
        // group at `level` with the slot index and zero all lower groups.
        // Occupied slots always lie strictly ahead of cur_tick's own group
        // (entries at or before cur_tick go to the overlay on insert), so
        // this only moves the wheel forward.
        debug_assert!(slot > (self.cur_tick >> shift) & (SLOTS as u64 - 1) || level > 0);
        self.cur_tick = ((self.cur_tick >> (shift + SLOT_BITS)) << SLOT_BITS | slot) << shift;
        self.occupied[level] &= !(1 << slot);
        let bucket = &mut self.buckets[level * SLOTS + slot as usize];
        let Bucket { head, len } = std::mem::replace(bucket, Bucket::EMPTY);
        let (mut c, mut len) = (head, len);
        if level > 0 {
            self.stats.cascades += 1;
        }
        debug_assert!(level > 0 || self.run.is_empty());
        while c != NIL {
            self.level_live[level] -= len as u64;
            for i in 0..len as usize {
                let k = self.chunks[c as usize].keys[i];
                if !self.tokens.is_live(k.tok, k.tok_gen) {
                    self.surface_dead(k);
                    continue;
                }
                if level == 0 {
                    self.run.push(k);
                } else {
                    self.stats.cascaded_entries += 1;
                    self.insert(k);
                }
            }
            let chunk = &mut self.chunks[c as usize];
            let next = std::mem::replace(&mut chunk.next, self.free_chunk);
            self.free_chunk = c;
            c = next;
            len = CHUNK_KEYS as u32;
        }
        if level == 0 {
            // Every key in a level-0 slot shares the tick == cur_tick, so
            // they are exactly the new current granule: sort once
            // (descending, so pops come off the tail) instead of paying a
            // heap sift per event.
            self.run.sort_unstable_by_key(|k| std::cmp::Reverse(k.at()));
        }
        true
    }

    /// Remove and return the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<M>> {
        if !self.prepare() {
            return None;
        }
        let k = self.pop_prepared();
        Some(self.deliver(k))
    }

    /// The one batch extraction: if the head timestamp is at or before
    /// `deadline`, move **every** key sharing it out of the queue (in seq
    /// order), push `emit(self, key)` for each onto `out` and return how
    /// many there were; otherwise move nothing and return 0. Tokens are
    /// retired here, at extraction — so cancelling an event that already
    /// sits in the caller's batch reports `false` and releases nothing.
    #[inline]
    fn take_head_until<T>(
        &mut self,
        deadline: SimTime,
        out: &mut VecDeque<T>,
        mut emit: impl FnMut(&mut Self, Key) -> T,
    ) -> usize {
        if !self.prepare() {
            return 0;
        }
        let head_time = self.head_time();
        if head_time > deadline {
            return 0;
        }
        let mut n: usize = 0;
        loop {
            let k = self.pop_prepared();
            let item = emit(self, k);
            out.push_back(item);
            n += 1;
            // The ready stage always holds the entire current granule, and
            // wheel ticks beyond it cannot share head_time — so once the
            // prepared head moves past head_time the batch is complete.
            if !self.prepare() || self.head_time() != head_time {
                break;
            }
        }
        self.count_batch(n);
        n
    }

    /// The engine's extraction: the head-timestamp batch as [`Ready`]
    /// records, payloads left in the slab until each is
    /// [`EventQueue::claim`]ed. Events a handler schedules *at* that same
    /// timestamp carry higher seqs and correctly join the next batch, not
    /// the current one.
    #[inline]
    pub(crate) fn take_head_ready_until(
        &mut self,
        deadline: SimTime,
        out: &mut VecDeque<Ready>,
    ) -> usize {
        self.take_head_until(deadline, out, |_, k| Ready {
            time: k.time,
            dst: k.dst,
            slot: k.slot,
        })
    }

    /// Move **every** event sharing the earliest pending timestamp into
    /// `out` (in seq order), returning how many were moved.
    pub fn take_head_batch(&mut self, out: &mut VecDeque<Event<M>>) -> usize {
        self.take_head_batch_until(SimTime::MAX, out)
    }

    /// [`EventQueue::take_head_batch`], but only if the head timestamp is
    /// at or before `deadline` (otherwise moves nothing and returns 0).
    pub fn take_head_batch_until(
        &mut self,
        deadline: SimTime,
        out: &mut VecDeque<Event<M>>,
    ) -> usize {
        self.take_head_until(deadline, out, Self::deliver)
    }

    /// Timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self`: finding the earliest event may lazily advance the
    /// wheel (a pure reorganization — no ordering effect, no events fire).
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.prepare() {
            Some(self.head_time())
        } else {
            None
        }
    }

    /// Number of pending events (cancelled events no longer count).
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events ever scheduled (monotonic counter; useful for
    /// engine-throughput benchmarks).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// The always-on scheduler counters (see [`WheelStats`]).
    #[inline]
    pub fn wheel_stats(&self) -> &WheelStats {
        &self.stats
    }

    /// Heap footprint of everything the queue allocates: key arena and
    /// bucket table, ready stage and lane, payload slab with its free list,
    /// token table with its per-index records. Feeds the profile's `sim/wheel`
    /// memory gauge.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        fn held<T>(capacity: usize) -> u64 {
            (capacity * size_of::<T>()) as u64
        }
        size_of::<Self>() as u64
            + held::<Key>(self.run.capacity() + self.overlay.keys.capacity())
            + held::<Sent<M>>(self.lane.capacity())
            + held::<Bucket>(self.buckets.capacity())
            + held::<Chunk>(self.chunks.capacity())
            + held::<Option<M>>(self.payload.capacity())
            + held::<u32>(self.free_slots.capacity())
            + held::<TokRec>(self.toks.capacity())
            + held::<u64>(self.tokens.gens.capacity())
            + held::<u32>(self.tokens.free.capacity())
    }

    /// Every key still in the queue, dead ones included.
    fn keys(&self) -> impl Iterator<Item = &Key> {
        self.run
            .iter()
            .chain(self.overlay.keys.iter())
            .chain(self.buckets.iter().flat_map(move |b| {
                let (mut c, mut len) = (b.head, b.len);
                std::iter::from_fn(move || {
                    let chunk = self.chunks.get(c as usize)?;
                    let keys = &chunk.keys[..len as usize];
                    (c, len) = (chunk.next, CHUNK_KEYS as u32);
                    Some(keys)
                })
                .flatten()
            }))
    }

    /// Panic unless the slab is consistent with the keys: every slot is
    /// either on the free list and empty, or full and owned by exactly one
    /// pending event (a live key, or the re-arm a dead key carries) or one
    /// of `extracted` (the payload slots of [`Ready`] records not yet
    /// claimed); `len()` equals the pending count plus the sends in the
    /// lane (which own no slot); a live token maps to its key's slot; and
    /// every tracked key is resident, once, at its recorded time. Likewise
    /// the key arena: every chunk is on exactly one bucket's chain or on
    /// the vacant list.
    /// O(resident keys + slab) — for tests and rare debug-build
    /// checkpoints, not the dispatch path.
    pub(crate) fn debug_check_with(&self, extracted: impl Iterator<Item = u32>) {
        let mut linked = vec![false; self.chunks.len()];
        let chains = self.buckets.iter().map(|b| b.head);
        for mut c in chains.chain([self.free_chunk]) {
            while c != NIL {
                let seen = std::mem::replace(&mut linked[c as usize], true);
                assert!(!seen, "chunk {c} linked twice");
                c = self.chunks[c as usize].next;
            }
        }
        assert!(linked.iter().all(|&l| l), "chunk on no chain");

        const FREE: u8 = u8::MAX;
        let mut owners = vec![0u8; self.payload.len()];
        for &s in &self.free_slots {
            assert_eq!(owners[s as usize], 0, "slot {s} on the free list twice");
            owners[s as usize] = FREE;
        }
        let mut own = |s: u32, who: &str| {
            assert_eq!(
                owners[s as usize], 0,
                "slot {s}: second owner or free ({who})"
            );
            owners[s as usize] = 1;
        };
        let mut live = 0;
        let mut tracked = vec![false; self.toks.len()];
        for k in self.keys() {
            if k.tok != NO_TOKEN && self.toks[k.tok as usize].key_gen == k.tok_gen {
                let seen = std::mem::replace(&mut tracked[k.tok as usize], true);
                assert!(!seen, "token {}: tracked key resident twice", k.tok);
                assert_eq!(
                    self.toks[k.tok as usize].key_time, k.time,
                    "tracked key time"
                );
            }
            if let Some(k) = self.effective(k) {
                live += 1;
                own(k.slot, "pending event");
                assert!(
                    k.tok == NO_TOKEN || self.toks[k.tok as usize].slot == k.slot,
                    "token {} maps to slot {}, its key holds {}",
                    k.tok,
                    self.toks[k.tok as usize].slot,
                    k.slot
                );
            }
        }
        for (i, (rec, &seen)) in self.toks.iter().zip(&tracked).enumerate() {
            assert!(
                rec.key_gen == 0 || seen,
                "token {i}: tracked key not resident"
            );
        }
        assert_eq!(live + self.lane.len(), self.live, "live count drifted");
        extracted.for_each(|s| own(s, "batch record"));
        for (s, (p, &o)) in self.payload.iter().zip(&owners).enumerate() {
            assert_eq!(p.is_some(), o == 1, "slot {s}: payload vs owner mismatch");
            assert!(o != 0, "slot {s} leaked: neither free nor owned");
        }
    }

    /// [`EventQueue::debug_check_with`] for a queue with no extracted
    /// records outstanding (every `pop`/`take_head_batch*` caller).
    #[doc(hidden)]
    pub fn debug_check(&self) {
        self.debug_check_with(std::iter::empty());
    }

    // ----- checkpoint/restore -------------------------------------------

    /// Serialize the queue's live contents and ordering state.
    ///
    /// The encoding is canonical: pending events are written sorted by
    /// (time, seq) — a total order, seqs are unique — so
    /// encode → decode → encode is a byte fixpoint regardless of how
    /// keys were physically distributed across wheel levels, the run
    /// stage, and the overlay heap at snapshot time, which slab slots
    /// their payloads sat in (slot numbers are never written), or whether
    /// an event rides a dead key. A dead key is written as the re-arm it
    /// carries, if any, or skipped; its token index was already retired
    /// into the free list, which is carried verbatim so post-restore token
    /// allocation replays identically. Wheel telemetry
    /// (`WheelStats`, high-water marks) is *not* part of the state: it
    /// never influences pop order.
    pub fn save_state(&self, w: &mut SnapWriter, mut save_msg: impl FnMut(&mut SnapWriter, &M)) {
        self.tokens.gens.put(w);
        self.tokens.free.put(w);
        w.u64(self.next_seq);
        w.u64(self.scheduled_total);
        let mut entries: Vec<Key> = Vec::with_capacity(self.live);
        entries.extend(self.keys().filter_map(|k| self.effective(k)));
        debug_assert_eq!(entries.len(), self.live, "live count drifted");
        entries.sort_by_key(|k| (k.time, k.seq));
        w.u64(entries.len() as u64);
        for k in entries {
            (k.time, k.seq, k.tok, k.tok_gen, k.dst as usize).put(w);
            let msg = self.payload[k.slot as usize]
                .as_ref()
                .expect("live key owns a payload");
            save_msg(w, msg);
        }
    }

    /// Rebuild a queue from [`EventQueue::save_state`] bytes.
    ///
    /// Entries re-enter the wheel with their **original** sequence
    /// numbers, so the (time, seq) total order — and therefore every
    /// subsequent pop — is identical to the un-snapshotted queue's. The
    /// physical layout (current tick, level distribution, slab slots,
    /// token→slot map) need not match and is rebuilt here: it is an
    /// implementation detail the ordering contract hides.
    ///
    /// The entries are checked against each other as well as one by one:
    /// a snapshot with a repeated `seq`, a token index borne by two
    /// entries, or a live entry whose token is also on the free list is
    /// [`SnapError::Corrupt`] — each would otherwise load and later
    /// mis-order events or cancel the wrong one.
    pub fn load_state<'a>(
        r: &mut SnapReader<'a>,
        load_msg: impl FnMut(&mut SnapReader<'a>) -> Result<M, SnapError>,
    ) -> Result<EventQueue<M>, SnapError> {
        Self::load_state_bounded(r, usize::MAX, load_msg)
    }

    /// [`EventQueue::load_state`], additionally rejecting an entry whose
    /// destination index is not below `dst_limit` (the engine passes its
    /// component count).
    pub(crate) fn load_state_bounded<'a>(
        r: &mut SnapReader<'a>,
        dst_limit: usize,
        mut load_msg: impl FnMut(&mut SnapReader<'a>) -> Result<M, SnapError>,
    ) -> Result<EventQueue<M>, SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt(what));
        let gens = Vec::<u64>::take(r)?;
        let free = Vec::<u32>::take(r)?;
        // Per token index: on the free list, or borne by a loaded entry.
        let mut tok_taken = vec![false; gens.len()];
        for &idx in &free {
            match tok_taken.get_mut(idx as usize) {
                Some(taken) if !*taken => *taken = true,
                Some(_) => return corrupt(format!("token {idx} on the free list twice")),
                None => {
                    return corrupt(format!(
                        "token free-list index {idx} out of range ({} slots)",
                        gens.len()
                    ))
                }
            }
        }
        let next_seq = r.u64()?;
        let scheduled_total = r.u64()?;
        let mut q = EventQueue::new();
        q.toks = vec![TokRec::NONE; gens.len()];
        q.tokens = TokenTable { gens, free };
        q.next_seq = next_seq;
        q.scheduled_total = scheduled_total;
        let n = r.usize()?;
        let mut seqs = Vec::new();
        for _ in 0..n {
            let (time, seq, tok, tok_gen, dst) = <(SimTime, u64, u32, u64, usize)>::take(r)?;
            let msg = load_msg(r)?;
            if seq >= next_seq {
                return corrupt(format!("entry seq {seq} >= next_seq {next_seq}"));
            }
            let Some(dst) = u32::try_from(dst).ok().filter(|_| dst < dst_limit) else {
                return corrupt(format!("entry dst {dst} out of range"));
            };
            if tok != NO_TOKEN {
                if q.tokens.gens.get(tok as usize) != Some(&tok_gen) {
                    return corrupt(format!(
                        "entry token ({tok}, {tok_gen}) not live in restored table"
                    ));
                }
                if std::mem::replace(&mut tok_taken[tok as usize], true) {
                    return corrupt(format!(
                        "token {tok} borne by two entries, or by one and the free list"
                    ));
                }
            }
            seqs.push(seq);
            q.live += 1;
            let slot = q.store(msg);
            if tok != NO_TOKEN {
                let rec = &mut q.toks[tok as usize];
                (rec.slot, rec.key_gen, rec.key_time) = (slot, tok_gen, time);
            }
            q.insert(Key {
                time,
                seq,
                tok_gen,
                tok,
                dst,
                slot,
            });
        }
        seqs.sort_unstable();
        if let Some(w) = seqs.windows(2).find(|w| w[0] == w[1]) {
            return corrupt(format!("seq {} borne by two entries", w[0]));
        }
        Ok(q)
    }
}

// ---------------------------------------------------------------------------
// Reference implementation
// ---------------------------------------------------------------------------

struct HeapEntry<M> {
    time: SimTime,
    seq: u64,
    tok: u32,
    tok_gen: u64,
    dst: ComponentId,
    msg: M,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for HeapEntry<M> {}

impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-timer-wheel event queue: a single global `BinaryHeap` keyed on
/// (time, seq), with lazy tombstoning for cancellation.
///
/// Kept as the ordering **oracle**: `tests/scheduler_equivalence.rs` drives
/// arbitrary schedules (same-timestamp ties, in-handler cancellations)
/// through both implementations and asserts identical pop sequences, and
/// the `event_queue` bench measures the wheel's speedup against it. Not
/// used by the engine.
pub struct HeapQueue<M> {
    heap: BinaryHeap<HeapEntry<M>>,
    tokens: TokenTable,
    live: usize,
    next_seq: u64,
    scheduled_total: u64,
}

impl<M> Default for HeapQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> HeapQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            tokens: TokenTable::default(),
            live: 0,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// See [`EventQueue::schedule`].
    #[inline]
    pub fn schedule(&mut self, time: SimTime, dst: ComponentId, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.live += 1;
        self.heap.push(HeapEntry {
            time,
            seq,
            tok: NO_TOKEN,
            tok_gen: 0,
            dst,
            msg,
        });
    }

    /// See [`EventQueue::schedule_cancellable`].
    pub fn schedule_cancellable(&mut self, time: SimTime, dst: ComponentId, msg: M) -> CancelToken {
        let tok = self.tokens.alloc();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.live += 1;
        self.heap.push(HeapEntry {
            time,
            seq,
            tok: tok.idx,
            tok_gen: tok.gen,
            dst,
            msg,
        });
        tok
    }

    /// See [`EventQueue::cancel`].
    pub fn cancel(&mut self, tok: CancelToken) -> bool {
        if self.tokens.cancel(tok) {
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// See [`EventQueue::pop`].
    pub fn pop(&mut self) -> Option<Event<M>> {
        loop {
            let e = self.heap.pop()?;
            if self.tokens.is_live(e.tok, e.tok_gen) {
                self.tokens.retire(e.tok);
                self.live -= 1;
                return Some(Event {
                    time: e.time,
                    dst: e.dst,
                    msg: e.msg,
                });
            }
        }
    }

    /// See [`EventQueue::peek_time`] (lazily drops cancelled heads, hence
    /// also `&mut`).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(top) = self.heap.peek() {
            if self.tokens.is_live(top.tok, top.tok_gen) {
                return Some(top.time);
            }
            self.heap.pop();
        }
        None
    }

    /// See [`EventQueue::is_pending`].
    pub fn is_pending(&self, tok: CancelToken) -> bool {
        tok.idx != NO_TOKEN && self.tokens.is_live(tok.idx, tok.gen)
    }

    /// See [`EventQueue::take_head_batch`].
    pub fn take_head_batch(&mut self, out: &mut std::collections::VecDeque<Event<M>>) -> usize {
        self.take_head_batch_until(SimTime::MAX, out)
    }

    /// See [`EventQueue::take_head_batch_until`].
    pub fn take_head_batch_until(
        &mut self,
        deadline: SimTime,
        out: &mut std::collections::VecDeque<Event<M>>,
    ) -> usize {
        let Some(head) = self.peek_time() else {
            return 0;
        };
        if head > deadline {
            return 0;
        }
        let mut n = 0;
        while self.peek_time() == Some(head) {
            out.push_back(self.pop().expect("peeked head must pop"));
            n += 1;
        }
        n
    }

    /// See [`EventQueue::len`].
    pub fn len(&self) -> usize {
        self.live
    }

    /// See [`EventQueue::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// See [`EventQueue::scheduled_total`].
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn id(i: usize) -> ComponentId {
        ComponentId::from_raw(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), id(0), "c");
        q.schedule(SimTime::from_millis(1), id(0), "a");
        q.schedule(SimTime::from_millis(2), id(0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, id(0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_millis(7), id(1), ());
        q.schedule(SimTime::from_millis(4), id(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_millis(4));
        assert_eq!(e.dst, id(2));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, id(0), ());
        q.schedule(SimTime::ZERO, id(0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), id(0), 10);
        q.schedule(SimTime::from_millis(5), id(0), 5);
        assert_eq!(q.pop().unwrap().msg, 5);
        q.schedule(SimTime::from_millis(1), id(0), 1);
        q.schedule(SimTime::from_millis(20), id(0), 20);
        assert_eq!(q.pop().unwrap().msg, 1);
        assert_eq!(q.pop().unwrap().msg, 10);
        assert_eq!(q.pop().unwrap().msg, 20);
        assert!(q.pop().is_none());
    }

    #[test]
    fn spans_every_wheel_level() {
        // One event per decade of delay, nanoseconds to ~18 years, plus the
        // MAX sentinel: exercises insertion into (and cascade out of) every
        // level of the wheel.
        let mut q = EventQueue::new();
        let mut times: Vec<u64> = (0..19).map(|p| 3 * 10u64.pow(p)).collect();
        times.push(u64::MAX);
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(SimTime::from_nanos(t), id(0), i);
        }
        for (i, &t) in times.iter().enumerate() {
            let e = q.pop().unwrap();
            assert_eq!((e.time.as_nanos(), e.msg), (t, i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_granule_different_nanos_pop_in_time_order() {
        // Entries within one 1024 ns granule land in one slot; the ready
        // heap must still order them by exact nanosecond.
        let mut q = EventQueue::new();
        let base = 1 << 20;
        for off in [900u64, 100, 500, 1023, 0] {
            q.schedule(SimTime::from_nanos(base + off), id(0), off);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, vec![0, 100, 500, 900, 1023]);
    }

    #[test]
    fn cancel_removes_event_and_reports_liveness() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), id(0), 1);
        let tok = q.schedule_cancellable(SimTime::from_millis(2), id(0), 2);
        q.schedule(SimTime::from_millis(3), id(0), 3);
        assert_eq!(q.len(), 3);
        assert!(q.is_pending(tok));
        assert!(q.cancel(tok));
        assert!(!q.is_pending(tok));
        assert_eq!(q.len(), 2);
        // Second cancel is a no-op.
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, vec![1, 3]);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable(SimTime::from_millis(1), id(0), 1);
        assert_eq!(q.pop().unwrap().msg, 1);
        assert!(!q.is_pending(tok));
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stale_token_cannot_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let old = q.schedule_cancellable(SimTime::from_millis(1), id(0), 1);
        assert!(q.cancel(old));
        // The table slot is recycled for the next cancellable event; the
        // stale token must not be able to cancel it.
        let new = q.schedule_cancellable(SimTime::from_millis(2), id(0), 2);
        assert!(!q.cancel(old));
        assert!(q.is_pending(new));
        assert_eq!(q.pop().unwrap().msg, 2);
    }

    #[test]
    fn default_token_is_never_pending() {
        let mut q: EventQueue<()> = EventQueue::new();
        let tok = CancelToken::default();
        assert!(!q.is_pending(tok));
        assert!(!q.cancel(tok));
        // "Nothing armed" is not a miss; a stale token is (see
        // `wheel_stats_track_scheduler_activity`).
        assert_eq!(q.wheel_stats().cancel_misses, 0);
    }

    #[test]
    fn peek_does_not_disturb_order_across_wheel_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), id(0), 5);
        // Peek forces the wheel to advance to the 5 s slot...
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        // ...but an earlier schedule arriving afterwards must still pop
        // first (it routes through the ready heap).
        q.schedule(SimTime::from_secs(2), id(0), 2);
        assert_eq!(q.pop().unwrap().msg, 2);
        assert_eq!(q.pop().unwrap().msg, 5);
    }

    #[test]
    fn take_head_batch_moves_exactly_the_head_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(100);
        q.schedule(t, id(0), 0);
        q.schedule(t, id(1), 1);
        let cancelled = q.schedule_cancellable(t, id(2), 2);
        q.schedule(t, id(3), 3);
        q.schedule(SimTime::from_micros(101), id(4), 4);
        assert!(q.cancel(cancelled));
        let mut out = VecDeque::new();
        assert_eq!(q.take_head_batch(&mut out), 3);
        let msgs: Vec<_> = out.iter().map(|e| e.msg).collect();
        assert_eq!(msgs, vec![0, 1, 3]);
        assert!(out.iter().all(|e| e.time == t));
        assert_eq!(q.len(), 1);
        out.clear();
        assert_eq!(q.take_head_batch(&mut out), 1);
        assert_eq!(out[0].msg, 4);
        assert_eq!(q.take_head_batch(&mut out), 0);
    }

    #[test]
    fn wheel_stats_track_scheduler_activity() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(100);
        for i in 0..3 {
            q.schedule(t, id(0), i);
        }
        // Far-out events land in level > 0 and cascade downward on advance.
        q.schedule(SimTime::from_secs(2), id(0), 10);
        let tok = q.schedule_cancellable(SimTime::from_secs(3), id(0), 11);
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
        let mut out = VecDeque::new();
        assert_eq!(q.take_head_batch(&mut out), 3);
        out.clear();
        assert_eq!(q.take_head_batch(&mut out), 1);
        let s = q.wheel_stats();
        assert_eq!(s.cancellable_scheduled, 1);
        assert_eq!(s.cancels, 1);
        assert_eq!(s.cancel_misses, 1);
        assert!(s.cascades >= 1);
        assert!(s.cascaded_entries >= 1);
        // Batch of 3 has bit-length 2 → bucket 1; batch of 1 → bucket 0.
        assert_eq!(s.batch_hist[1], 1);
        assert_eq!(s.batch_hist[0], 1);
        assert!(s.level_high_water.iter().sum::<u64>() >= 4);
        assert!(q.memory_bytes() > 0);
    }

    #[test]
    fn cancel_vacates_the_payload_slot_at_once() {
        // The rearm pattern: each cancel must hand its slab slot to the
        // very next schedule, so the slab never outgrows the live set, and
        // each re-arm to a later time rides the key the cancel left, so
        // the wheel does not grow either.
        let mut q = EventQueue::new();
        let mut tok = q.schedule_cancellable(SimTime::from_secs(3), id(0), 0u64);
        for i in 1..=1_000 {
            assert!(q.cancel(tok));
            tok = q.schedule_cancellable(SimTime::from_micros(3_000_000 + i), id(0), i);
            q.debug_check();
        }
        assert_eq!(q.payload.len(), 1);
        assert_eq!(
            q.keys().count(),
            1,
            "one resident key carries the last re-arm"
        );
        assert_eq!(q.wheel_stats().revived, 1_000);
        // An earlier re-arm cannot ride it: a second key goes in.
        assert!(q.cancel(tok));
        q.schedule_cancellable(SimTime::from_secs(2), id(0), 1_001);
        assert_eq!(q.keys().count(), 2);
        assert_eq!(q.wheel_stats().revived, 1_000);
        q.debug_check();
        // The dead key that surfaces releases nothing: the slot it once
        // owned belongs to the survivor by now.
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.msg), (SimTime::from_secs(2), 1_001));
        assert!(q.pop().is_none());
        q.debug_check();
        assert_eq!(q.free_slots, vec![0]);
    }

    #[test]
    fn a_rearm_rides_the_dead_key_and_fires_in_its_own_turn() {
        // The re-armed event keeps the seq it drew: a key scheduled in
        // between at the same instant still fires first.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(40);
        let tok = q.schedule_cancellable(SimTime::from_millis(30), id(1), 1u64);
        q.schedule(t, id(2), 2);
        assert!(q.cancel(tok));
        let again = q.schedule_cancellable(t, id(3), 3);
        assert_eq!(q.wheel_stats().revived, 1);
        assert_eq!(q.keys().count(), 2);
        assert!(q.is_pending(again));
        let mut out = VecDeque::new();
        assert_eq!(q.take_head_batch(&mut out), 2);
        let got: Vec<_> = out.iter().map(|e| (e.time, e.dst, e.msg)).collect();
        assert_eq!(got, vec![(t, id(2), 2), (t, id(3), 3)]);
        // Fired: the index tracks nothing, so the next re-arm inserts.
        assert!(!q.cancel(again));
        q.schedule_cancellable(t, id(1), 4);
        assert_eq!(q.wheel_stats().revived, 1);
        assert_eq!(q.pop().unwrap().msg, 4);
        q.debug_check();
    }

    #[test]
    fn cancelling_a_ridden_key_twice_leaves_one_dead_key() {
        let mut q = EventQueue::new();
        let mut tok = q.schedule_cancellable(SimTime::from_millis(5), id(0), 0u64);
        assert!(q.cancel(tok));
        tok = q.schedule_cancellable(SimTime::from_millis(7), id(0), 1);
        assert!(q.cancel(tok));
        assert!(q.is_empty());
        q.debug_check();
        let mut w = SnapWriter::new();
        q.save_state(&mut w, |w, &m| w.u64(m));
        assert!(load(w.as_bytes()).unwrap().is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.keys().count(), 0);
        q.debug_check();
    }

    #[test]
    fn extracted_records_own_their_slots_until_claimed() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..4u64 {
            q.schedule(t, id(i as usize), i);
        }
        let mut batch = VecDeque::new();
        assert_eq!(q.take_head_ready_until(t, &mut batch), 4);
        assert_eq!(q.len(), 0);
        // A send at "now" while the batch is outstanding takes a fresh
        // slot, not one a record still points at.
        q.schedule(t, id(9), 9);
        q.debug_check_with(batch.iter().map(|r| r.slot));
        let got: Vec<_> = batch.drain(..).map(|r| (r.dst, q.claim(r.slot))).collect();
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        q.debug_check();
        assert_eq!(q.pop().unwrap().msg, 9);
    }

    #[test]
    fn the_lane_is_counted_checked_and_merged_on_a_direct_pop() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        q.schedule(t, id(0), 0u64);
        assert_eq!(q.pop().unwrap().msg, 0);
        let before = q.memory_bytes();
        q.send_now(t, id(1), 1);
        q.send_now(t, id(2), 2);
        assert_eq!((q.len(), q.scheduled_total(), q.lane_len()), (2, 3, 2));
        assert!(q.memory_bytes() >= before + 2 * std::mem::size_of::<Sent<u64>>() as u64);
        q.debug_check();
        // A generation is the lane as it stands; what its handlers send
        // waits for the next one.
        assert_eq!(q.lane_generation(), Some((t, 2)));
        assert_eq!(q.pop_lane(), (1, 1));
        q.send_now(t, id(3), 3);
        assert_eq!(q.pop_lane(), (2, 2));
        assert_eq!((q.len(), q.lane_len()), (1, 1));
        q.debug_check();
        // Asking the queue itself for its head merges the lane first.
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!((q.len(), q.lane_len()), (1, 0));
        q.debug_check();
        assert_eq!(q.pop().unwrap().msg, 3);
        let s = q.wheel_stats();
        assert_eq!((s.sends_now, s.lane_merges), (3, 1));
        assert_eq!(s.batch_hist[1], 1, "the generation of two was tallied");
    }

    #[test]
    fn memory_bytes_counts_the_slab_and_with_capacity_reserves_it() {
        let q: EventQueue<[u64; 14]> = EventQueue::with_capacity(1_000);
        let slab = 1_000 * std::mem::size_of::<Option<[u64; 14]>>() as u64;
        assert!(q.memory_bytes() >= slab + 1_000 * KEY_BYTES as u64);
        assert!(EventQueue::<[u64; 14]>::new().memory_bytes() < slab);
    }

    /// A snapshot entry less its payload: time, seq, tok, tok_gen, dst.
    type Row = (u64, u64, u32, u64, usize);
    /// An edit to a snapshot's entries and token free list.
    type Edit = dyn Fn(&mut [Row], &mut Vec<u32>);

    /// A two-entry snapshot (both cancellable, tokens 0 and 1, one retired
    /// token 2 on the free list), with `edit` applied to its fields.
    fn doctored_snapshot(edit: &Edit) -> Vec<u8> {
        let mut entries = [(1_000, 0, 0, 1, 3), (2_000, 1, 1, 1, 4)];
        let mut free = vec![2];
        edit(&mut entries, &mut free);
        let mut w = SnapWriter::new();
        w.seq(&[1u64, 1, 2], |w, &g| w.u64(g));
        w.seq(&free, |w, &i| w.u32(i));
        w.u64(3); // next_seq
        w.u64(3); // scheduled_total
        w.u64(entries.len() as u64);
        for (time, seq, tok, tok_gen, dst) in entries {
            w.time(SimTime::from_nanos(time));
            w.u64(seq);
            w.u32(tok);
            w.u64(tok_gen);
            w.usize(dst);
            w.u64(seq * 10); // msg
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<EventQueue<u64>, SnapError> {
        EventQueue::load_state(&mut SnapReader::new(bytes), |r| r.u64())
    }

    #[test]
    fn load_state_refuses_entries_that_contradict_each_other() {
        let good = doctored_snapshot(&|_, _| {});
        let q = load(&good).expect("consistent snapshot loads");
        q.debug_check();
        let mut w = SnapWriter::new();
        q.save_state(&mut w, |w, &m| w.u64(m));
        assert_eq!(w.as_bytes(), &good[..]);

        let cases: [(&str, &Edit); 5] = [
            ("seq 0 borne by two entries", &|e, _| e[1].1 = 0),
            ("token 0 borne by two entries", &|e, _| e[1].2 = 0),
            (
                "token 1 borne by two entries, or by one and the free list",
                &|_, f| f.push(1),
            ),
            ("token 2 on the free list twice", &|_, f| f.push(2)),
            ("entry dst 4294967296 out of range", &|e, _| {
                e[0].4 = 1 << 32
            }),
        ];
        for (what, edit) in cases {
            match load(&doctored_snapshot(edit)) {
                Err(SnapError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: got {msg}"),
                other => panic!("{what}: want Corrupt, got {:?}", other.map(|q| q.len())),
            }
        }
    }

    /// Drive the wheel and the reference heap through an identical
    /// pseudo-random op sequence (schedule / cancellable-schedule / cancel
    /// / pop, with clustered timestamps to force ties) and require
    /// identical observable behavior. The exhaustive version with arbitrary
    /// inputs lives in `tests/scheduler_equivalence.rs`; this is the fast
    /// in-crate smoke check.
    #[test]
    fn wheel_matches_reference_heap_smoke() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut tokens: Vec<(CancelToken, CancelToken)> = Vec::new();
        // Deterministic LCG so the test needs no rand dependency.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut clock = 0u64; // lower bound for new schedules, like sim time
        for i in 0..20_000u64 {
            match rng() % 10 {
                0..=3 => {
                    let t = clock + rng() % 5_000_000; // cluster near "now"
                    let t = SimTime::from_nanos(t);
                    wheel.schedule(t, id(0), i);
                    heap.schedule(t, id(0), i);
                }
                4..=5 => {
                    let t = SimTime::from_nanos(clock + rng() % 300_000_000);
                    let wt = wheel.schedule_cancellable(t, id(0), i);
                    let ht = heap.schedule_cancellable(t, id(0), i);
                    tokens.push((wt, ht));
                }
                6 => {
                    if !tokens.is_empty() {
                        let (wt, ht) = tokens.swap_remove((rng() % tokens.len() as u64) as usize);
                        assert_eq!(wheel.cancel(wt), heap.cancel(ht));
                    }
                }
                _ => {
                    assert_eq!(wheel.peek_time(), heap.peek_time());
                    let (we, he) = (wheel.pop(), heap.pop());
                    match (&we, &he) {
                        (Some(w), Some(h)) => {
                            assert_eq!((w.time, w.msg), (h.time, h.msg));
                            clock = w.time.as_nanos();
                        }
                        (None, None) => {}
                        _ => panic!("one queue empty, the other not"),
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let (we, he) = (wheel.pop(), heap.pop());
            match (&we, &he) {
                (Some(w), Some(h)) => assert_eq!((w.time, w.msg), (h.time, h.msg)),
                (None, None) => break,
                _ => panic!("one queue drained before the other"),
            }
        }
    }
}
