//! Bounded storage: retention-policy ring buffers.
//!
//! The flight recorder's core guarantee is a **bound on records**: no
//! matter how long a run lasts or how many events fire, a ring never holds
//! more than its capacity, `budget / RECORD_BYTES` records. The budget
//! counts *wire* bytes — what an export writes, 29 a record — so an
//! exported trace never exceeds it. Two mechanisms compose:
//!
//! * a **retention policy** decides which offered *samples* are admitted
//!   (all of them, every n-th, or a uniform random subset), and
//! * **drop-oldest eviction** enforces the capacity for whatever was
//!   admitted — newest data survives, which is what a flight recorder
//!   wants.
//!
//! Discrete *events* (phase transitions, congestion events, drops) bypass
//! the policy — thinning them would corrupt event-rate metrics — but still
//! respect the capacity.
//!
//! Memory is a different figure from the budget. A `KeepAll` or
//! `Decimate` ring holds its records as a delta-varint log: about 6 bytes a record on a CoreScale trace, never
//! more than 36, plus the log's spent front bytes and spare capacity. A
//! `Reservoir` ring keeps 32-byte slots: Algorithm R overwrites a random
//! position, which a delta log cannot do, and the ring never holds more
//! than k records. [`SampleRing::memory_bytes`] reports what a ring takes.

use crate::event::{TraceRecord, RECORD_BYTES};
use crate::log::{LogIter, RecordLog};
use ccsim_sim::{snap, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::{vec_deque, VecDeque};

/// How a ring thins dense sample streams.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Admit every sample (bounded only by the ring capacity).
    #[default]
    KeepAll,
    /// Admit every n-th sample (n = 0 behaves like n = 1).
    Decimate(u32),
    /// Keep a uniform random subset of at most k samples (Algorithm R).
    /// Deterministic for a given ring seed.
    Reservoir(u32),
}

impl RetentionPolicy {
    /// The policy's spelling: `keepall`, `decimate:N` or `reservoir:K`.
    pub fn as_str(self) -> String {
        match self {
            RetentionPolicy::KeepAll => "keepall".into(),
            RetentionPolicy::Decimate(n) => format!("decimate:{n}"),
            RetentionPolicy::Reservoir(k) => format!("reservoir:{k}"),
        }
    }

    /// Parse a policy spelled as [`RetentionPolicy::as_str`] writes it.
    /// The number stays as written (zeros included), so parsing what
    /// `as_str` wrote gives the policy back.
    pub fn parse(text: &str) -> Option<RetentionPolicy> {
        if text == "keepall" {
            return Some(RetentionPolicy::KeepAll);
        }
        if let Some(n) = text.strip_prefix("decimate:") {
            return n.parse().ok().map(RetentionPolicy::Decimate);
        }
        let k = text.strip_prefix("reservoir:")?;
        k.parse().ok().map(RetentionPolicy::Reservoir)
    }
}

/// SplitMix64 step — the deterministic source for reservoir replacement.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a ring keeps its records.
#[derive(Debug, Clone)]
enum Store {
    /// `KeepAll` and `Decimate`: records join at the back and leave at
    /// the front, so they are held as deltas.
    Log(RecordLog),
    /// `Reservoir`: Algorithm R overwrites a random position.
    Slots(VecDeque<TraceRecord>),
}

impl Store {
    fn len(&self) -> usize {
        match self {
            Store::Log(log) => log.len(),
            Store::Slots(slots) => slots.len(),
        }
    }

    fn push_back(&mut self, rec: TraceRecord) {
        match self {
            Store::Log(log) => log.push_back(&rec),
            Store::Slots(slots) => slots.push_back(rec),
        }
    }

    fn pop_front(&mut self) {
        match self {
            Store::Log(log) => {
                log.pop_front();
            }
            Store::Slots(slots) => {
                slots.pop_front();
            }
        }
    }

    fn iter(&self) -> Contents<'_> {
        match self {
            Store::Log(log) => Contents::Log(log.iter()),
            Store::Slots(slots) => Contents::Slots(slots.iter()),
        }
    }

    /// The records in insertion order: the bytes a `VecDeque` of them
    /// writes, whichever store holds them.
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for rec in self.iter() {
            rec.put(w);
        }
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let recs = r.seq(TraceRecord::take)?;
        *self = match self {
            Store::Log(_) => Store::Log(recs.iter().collect()),
            Store::Slots(_) => Store::Slots(recs.into()),
        };
        Ok(())
    }
}

/// A ring's records in insertion order, decoded one at a time.
enum Contents<'a> {
    Log(LogIter<'a>),
    Slots(vec_deque::Iter<'a, TraceRecord>),
}

impl Iterator for Contents<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        match self {
            Contents::Log(it) => it.next(),
            Contents::Slots(it) => it.next().copied(),
        }
    }
}

/// A bounded buffer of [`TraceRecord`]s with a retention policy.
#[derive(Debug, Clone)]
pub struct SampleRing {
    store: Store,
    /// Hard record capacity (derived from the byte budget).
    cap: usize,
    policy: RetentionPolicy,
    /// Samples offered so far (policy input).
    seen: u64,
    /// Admitted then evicted by the capacity bound.
    evicted: u64,
    /// Rejected by the retention policy.
    thinned: u64,
    rng: u64,
}

impl SampleRing {
    /// A ring holding at most `budget_bytes` worth of records (at least
    /// one record, so a tiny budget still records *something*). `seed`
    /// drives reservoir replacement only.
    pub fn new(policy: RetentionPolicy, budget_bytes: u64, seed: u64) -> SampleRing {
        let cap = (budget_bytes / RECORD_BYTES).max(1) as usize;
        let store = match policy {
            RetentionPolicy::Reservoir(_) => Store::Slots(VecDeque::new()),
            _ => Store::Log(RecordLog::default()),
        };
        SampleRing {
            store,
            cap,
            policy,
            seen: 0,
            evicted: 0,
            thinned: 0,
            rng: seed,
        }
    }

    /// Offer a *sample* — subject to the retention policy.
    pub fn offer(&mut self, rec: TraceRecord) {
        self.seen += 1;
        match self.policy {
            RetentionPolicy::KeepAll => self.push(rec),
            RetentionPolicy::Decimate(n) => {
                if (self.seen - 1).is_multiple_of(u64::from(n.max(1))) {
                    self.push(rec);
                } else {
                    self.thinned += 1;
                }
            }
            RetentionPolicy::Reservoir(k) => {
                let Store::Slots(slots) = &mut self.store else {
                    unreachable!("a reservoir ring keeps slots")
                };
                let target = (k as usize).min(self.cap);
                if slots.len() < target {
                    slots.push_back(rec);
                } else if target == 0 {
                    self.thinned += 1;
                } else {
                    // Algorithm R: admit with probability target/seen.
                    let j = (splitmix64(&mut self.rng) % self.seen) as usize;
                    if j < target {
                        slots[j] = rec;
                    }
                    self.thinned += 1;
                }
            }
        }
    }

    /// Push an *event* — bypasses the policy, respects the capacity.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.store.len() == self.cap {
            self.store.pop_front();
            self.evicted += 1;
        }
        self.store.push_back(rec);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True iff nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records held, in insertion order (reservoir replacement
    /// scrambles it).
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.store.iter()
    }

    /// Hard record capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current contents in wire bytes (never exceeds the budget rounded
    /// down to a whole record, except for the one-record minimum).
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * RECORD_BYTES
    }

    /// Heap memory the ring has allocated: its log, spent front bytes and
    /// spare capacity included, or its slots. The ring itself is counted
    /// by whatever holds it. Feeds the profiler's `trace/rings` account.
    pub fn memory_bytes(&self) -> u64 {
        match &self.store {
            Store::Log(log) => log.heap_bytes(),
            Store::Slots(slots) => (slots.capacity() * std::mem::size_of::<TraceRecord>()) as u64,
        }
    }

    /// Records admitted then evicted by the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Samples rejected by the retention policy.
    pub fn thinned(&self) -> u64 {
        self.thinned
    }

    /// Consume the ring into one run of a trace: its records as a log in
    /// insertion order, and `(evicted, thinned)`. A log ring hands over
    /// its own log; a reservoir ring's slots are encoded.
    pub(crate) fn into_log(self) -> (RecordLog, u64, u64) {
        let log = match self.store {
            Store::Log(log) => log,
            Store::Slots(slots) => slots.iter().collect(),
        };
        (log, self.evicted, self.thinned)
    }

    snap! {
        /// Serialize runtime state for a checkpoint. Capacity and policy are
        /// configuration (rebuilt from the scenario); the records are written
        /// in insertion order, as plain records whichever store holds them —
        /// reservoir replacement indexes positions, so the order itself is
        /// state.
        pub fn save_state;
        /// Overlay checkpointed state onto a ring freshly built with the same
        /// policy/budget/seed configuration.
        pub fn load_state then check_capacity;
        in store, seen, evicted, thinned, rng,
    }

    /// Refuse restored records over the rebuilt capacity.
    fn check_capacity(&self) -> Result<(), SnapError> {
        if self.len() > self.cap {
            return Err(SnapError::Corrupt(format!(
                "ring holds {} records but capacity is {}",
                self.len(),
                self.cap
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_sim::{SimDuration, SimTime};

    fn rec(i: u64) -> TraceRecord {
        TraceRecord::cwnd(SimTime::from_nanos(i), 0, i, 0)
    }

    fn sorted(r: SampleRing) -> Vec<TraceRecord> {
        let mut v: Vec<TraceRecord> = r.iter().collect();
        v.sort_by_key(TraceRecord::sort_key);
        v
    }

    #[test]
    fn keep_all_respects_capacity_drop_oldest() {
        let mut r = SampleRing::new(RetentionPolicy::KeepAll, 10 * RECORD_BYTES, 1);
        for i in 0..25 {
            r.offer(rec(i));
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.evicted(), 15);
        let v: Vec<TraceRecord> = r.iter().collect();
        assert_eq!(v[0].a, 15, "oldest surviving record");
        assert_eq!(v[9].a, 24, "newest record survives");
    }

    #[test]
    fn decimate_keeps_every_nth() {
        let mut r = SampleRing::new(RetentionPolicy::Decimate(4), 100 * RECORD_BYTES, 1);
        for i in 0..20 {
            r.offer(rec(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.thinned(), 15);
        let kept: Vec<u64> = r.iter().map(|x| x.a).collect();
        assert_eq!(kept, vec![0, 4, 8, 12, 16]);
    }

    #[test]
    fn decimate_zero_behaves_like_one() {
        let mut r = SampleRing::new(RetentionPolicy::Decimate(0), 100 * RECORD_BYTES, 1);
        for i in 0..5 {
            r.offer(rec(i));
        }
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn reservoir_holds_k_uniformish() {
        let mut r = SampleRing::new(RetentionPolicy::Reservoir(50), 1000 * RECORD_BYTES, 42);
        for i in 0..10_000 {
            r.offer(rec(i));
        }
        assert_eq!(r.len(), 50);
        let v = sorted(r);
        // A uniform subset spans the stream: some early, some late.
        assert!(v.first().unwrap().a < 2_000, "early records represented");
        assert!(v.last().unwrap().a > 8_000, "late records represented");
    }

    #[test]
    fn reservoir_is_deterministic_per_seed() {
        let run = |seed| {
            let mut r = SampleRing::new(RetentionPolicy::Reservoir(20), 100 * RECORD_BYTES, seed);
            for i in 0..1_000 {
                r.offer(rec(i));
            }
            sorted(r)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn reservoir_capped_by_budget() {
        let mut r = SampleRing::new(RetentionPolicy::Reservoir(1_000), 10 * RECORD_BYTES, 1);
        for i in 0..500 {
            r.offer(rec(i));
        }
        assert_eq!(r.len(), 10, "budget wins over k");
    }

    #[test]
    fn events_bypass_policy() {
        let mut r = SampleRing::new(RetentionPolicy::Decimate(1_000), 100 * RECORD_BYTES, 1);
        for i in 0..10 {
            r.push(rec(i));
        }
        assert_eq!(r.len(), 10, "pushed events are never thinned");
    }

    #[test]
    fn a_log_ring_holds_a_record_in_a_few_bytes_and_a_reservoir_in_a_slot() {
        let srtt = |i: u64| {
            let ns = 20_000_000 + (i * 7_919) % 50_000;
            TraceRecord::srtt(
                SimTime::from_nanos(i * 40_000),
                3,
                SimDuration::from_nanos(ns),
            )
        };
        let mut log = SampleRing::new(RetentionPolicy::KeepAll, 10_000 * RECORD_BYTES, 1);
        let mut slots = SampleRing::new(RetentionPolicy::Reservoir(1_000), 1 << 20, 1);
        for i in 0..10_000 {
            log.offer(srtt(i));
            slots.offer(srtt(i));
        }
        assert_eq!(log.len(), 10_000);
        assert!(log.memory_bytes() <= 10_000 * 8, "{} B", log.memory_bytes());
        assert!(slots.memory_bytes() >= 1_000 * 32);
    }

    #[test]
    fn minimum_one_record() {
        let mut r = SampleRing::new(RetentionPolicy::KeepAll, 0, 1);
        r.offer(rec(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.capacity(), 1);
    }
}
