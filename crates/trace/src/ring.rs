//! Bounded storage: retention-policy ring buffers.
//!
//! The flight recorder's core guarantee is a **hard memory bound**: no
//! matter how long a run lasts or how many events fire, a ring never holds
//! more than its configured capacity. Two mechanisms compose:
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

use crate::event::{TraceRecord, RECORD_BYTES};
use ccsim_sim::{snap, SnapError};
use std::collections::VecDeque;

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

/// A bounded buffer of [`TraceRecord`]s with a retention policy.
#[derive(Debug, Clone)]
pub struct SampleRing {
    buf: VecDeque<TraceRecord>,
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
        SampleRing {
            buf: VecDeque::new(),
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
                let target = (k as usize).min(self.cap);
                if self.buf.len() < target {
                    self.buf.push_back(rec);
                } else if target == 0 {
                    self.thinned += 1;
                } else {
                    // Algorithm R: admit with probability target/seen.
                    let j = (splitmix64(&mut self.rng) % self.seen) as usize;
                    if j < target {
                        self.buf[j] = rec;
                    }
                    self.thinned += 1;
                }
            }
        }
    }

    /// Push an *event* — bypasses the policy, respects the capacity.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(rec);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Hard record capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current contents in wire bytes (never exceeds the budget rounded
    /// down to a whole record, except for the one-record minimum).
    pub fn bytes(&self) -> u64 {
        self.buf.len() as u64 * RECORD_BYTES
    }

    /// Approximate heap footprint of the ring itself: the allocated buffer
    /// at its in-memory record size (not the wire size), plus the struct.
    /// Feeds the profiler's `trace/rings` memory account.
    pub fn memory_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.buf.capacity() * std::mem::size_of::<TraceRecord>())
            as u64
    }

    /// Records admitted then evicted by the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Samples rejected by the retention policy.
    pub fn thinned(&self) -> u64 {
        self.thinned
    }

    /// Consume the ring, returning its records sorted by time (reservoir
    /// retention scrambles insertion order; the merged trace is canonical
    /// time order).
    pub fn into_sorted_vec(self) -> Vec<TraceRecord> {
        let mut v: Vec<TraceRecord> = self.buf.into();
        v.sort_by_key(|r| r.sort_key());
        v
    }

    snap! {
        /// Serialize runtime state for a checkpoint. Capacity and policy are
        /// configuration (rebuilt from the scenario); the buffer is written in
        /// insertion order — reservoir replacement indexes positions, so the
        /// order itself is state.
        pub fn save_state;
        /// Overlay checkpointed state onto a ring freshly built with the same
        /// policy/budget/seed configuration.
        pub fn load_state then check_capacity;
        buf, seen, evicted, thinned, rng,
    }

    /// Refuse a restored buffer over the rebuilt capacity.
    fn check_capacity(&self) -> Result<(), SnapError> {
        if self.buf.len() > self.cap {
            return Err(SnapError::Corrupt(format!(
                "ring holds {} records but capacity is {}",
                self.buf.len(),
                self.cap
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_sim::SimTime;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord::cwnd(SimTime::from_nanos(i), 0, i, 0)
    }

    #[test]
    fn keep_all_respects_capacity_drop_oldest() {
        let mut r = SampleRing::new(RetentionPolicy::KeepAll, 10 * RECORD_BYTES, 1);
        for i in 0..25 {
            r.offer(rec(i));
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.evicted(), 15);
        let v = r.into_sorted_vec();
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
        let kept: Vec<u64> = r.into_sorted_vec().iter().map(|x| x.a).collect();
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
        let v = r.into_sorted_vec();
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
            r.into_sorted_vec()
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
    fn minimum_one_record() {
        let mut r = SampleRing::new(RetentionPolicy::KeepAll, 0, 1);
        r.offer(rec(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.capacity(), 1);
    }
}
