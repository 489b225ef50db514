//! Model test of the compact ring: a `SampleRing` holds its records as a
//! delta-varint log (or, under `Reservoir`, in slots), and must behave
//! exactly like a plain `VecDeque<TraceRecord>` ring under every policy —
//! the same records, counters, checkpoint bytes and restore — whatever the
//! field values: zeros, `u64::MAX`, `SimTime::MAX`, times that go
//! backwards, every kind, and a new flow on every record. Tiny capacities
//! make eviction the common case.

use ccsim_sim::{SimTime, Snap, SnapReader, SnapWriter};
use ccsim_trace::{
    QueueRecorder, RetentionPolicy, RunTrace, SampleRing, TraceKind, TraceMeta, TraceRecord,
    RECORD_BYTES,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The ring as it was before it was compacted: every record in a 32-byte
/// slot of a `VecDeque`.
#[derive(Debug)]
struct Model {
    buf: VecDeque<TraceRecord>,
    cap: usize,
    policy: RetentionPolicy,
    seen: u64,
    evicted: u64,
    thinned: u64,
    rng: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Model {
    fn new(policy: RetentionPolicy, budget: u64, seed: u64) -> Model {
        Model {
            buf: VecDeque::new(),
            cap: (budget / RECORD_BYTES).max(1) as usize,
            policy,
            seen: 0,
            evicted: 0,
            thinned: 0,
            rng: seed,
        }
    }

    fn offer(&mut self, rec: TraceRecord) {
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
                    let j = (splitmix64(&mut self.rng) % self.seen) as usize;
                    if j < target {
                        self.buf[j] = rec;
                    }
                    self.thinned += 1;
                }
            }
        }
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(rec);
    }

    /// The checkpoint bytes of the `VecDeque` ring.
    fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.buf.put(&mut w);
        for v in [self.seen, self.evicted, self.thinned, self.rng] {
            v.put(&mut w);
        }
        w.into_bytes()
    }
}

fn policy(tag: u8, n: u32) -> RetentionPolicy {
    match tag % 3 {
        0 => RetentionPolicy::KeepAll,
        1 => RetentionPolicy::Decimate(n),
        _ => RetentionPolicy::Reservoir(n),
    }
}

/// A field value: 0, the maximum, a small number, or any number.
fn field((pick, small, any): (u8, u64, u64), max: u64) -> u64 {
    match pick % 4 {
        0 => 0,
        1 => max,
        2 => small,
        _ => any & max,
    }
}

type Draw = (u8, u64, u64);
type RecDraw = (u8, Draw, Draw, Draw, Draw);

fn draw() -> (
    std::ops::Range<u8>,
    std::ops::Range<u64>,
    std::ops::RangeInclusive<u64>,
) {
    (0u8..4, 0u64..1_000, 0u64..=u64::MAX)
}

/// A record of any kind with extreme or ordinary fields; `SimTime::MAX`
/// and `u32::MAX` flows included, and times in any order.
fn record((kind, t, flow, a, b): RecDraw) -> TraceRecord {
    TraceRecord {
        time: SimTime::from_nanos(field(t, SimTime::MAX.as_nanos())),
        flow: field(flow, u64::from(u32::MAX)) as u32,
        kind: TraceKind::ALL[usize::from(kind) % TraceKind::ALL.len()],
        a: field(a, u64::MAX),
        b: field(b, u64::MAX),
    }
}

fn save(ring: &SampleRing) -> Vec<u8> {
    let mut w = SnapWriter::new();
    ring.save_state(&mut w);
    w.into_bytes()
}

/// The ring agrees with the model in every observable: contents, counts,
/// checkpoint bytes, and a restore from those bytes. Returns the restored
/// ring.
fn agree(ring: &SampleRing, model: &Model, config: (RetentionPolicy, u64, u64)) -> SampleRing {
    let want: Vec<TraceRecord> = model.buf.iter().copied().collect();
    assert_eq!(ring.iter().collect::<Vec<_>>(), want);
    assert_eq!(ring.len(), want.len());
    assert_eq!(ring.is_empty(), want.is_empty());
    assert_eq!(ring.bytes(), want.len() as u64 * RECORD_BYTES);
    assert_eq!(ring.capacity(), model.cap);
    assert_eq!(
        (ring.evicted(), ring.thinned()),
        (model.evicted, model.thinned)
    );
    let bytes = save(ring);
    assert_eq!(bytes, model.save(), "checkpoint bytes");
    let (policy, budget, seed) = config;
    let mut restored = SampleRing::new(policy, budget, seed);
    restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
    assert_eq!(restored.iter().collect::<Vec<_>>(), want);
    assert_eq!(save(&restored), bytes, "save after load");
    restored
}

proptest! {
    /// Any mix of offers and pushes, under any policy and a capacity of one
    /// to eight records, leaves the ring equal to the model after every
    /// step. Halfway through, the run continues on a ring restored from
    /// the checkpoint, so a restored log must encode onward correctly.
    #[test]
    fn the_compact_ring_behaves_like_a_plain_deque(
        shape in (0u64..9 * RECORD_BYTES, 0u8..3, 0u32..6, 0u64..=u64::MAX),
        ops in prop::collection::vec(
            (0u8..2, (0u8..9, draw(), draw(), draw(), draw())),
            0..120,
        ),
    ) {
        let (budget, tag, n, seed) = shape;
        let config = (policy(tag, n), budget, seed);
        let mut ring = SampleRing::new(config.0, budget, seed);
        let mut model = Model::new(config.0, budget, seed);
        agree(&ring, &model, config);
        for (i, (op, rec)) in ops.iter().enumerate() {
            let rec = record(*rec);
            if *op == 0 {
                ring.offer(rec);
                model.offer(rec);
            } else {
                ring.push(rec);
                model.push(rec);
            }
            let restored = agree(&ring, &model, config);
            if i == ops.len() / 2 {
                ring = restored;
            }
        }

        // Drained, the ring is one run of a trace, in canonical order.
        let mut sorted: Vec<TraceRecord> = model.buf.iter().copied().collect();
        sorted.sort_by_key(TraceRecord::sort_key);
        let trace = RunTrace::from_rings(TraceMeta::default(), [ring]);
        prop_assert_eq!(trace.records.iter().collect::<Vec<_>>(), sorted);
        prop_assert_eq!((trace.evicted, trace.thinned), (model.evicted, model.thinned));
    }

    /// A restore refuses more records than the rebuilt ring can hold.
    #[test]
    fn a_restore_over_capacity_is_refused(
        cap in 1u64..6,
        tag in 0u8..3,
        extra in 1usize..4,
    ) {
        let budget = cap * RECORD_BYTES;
        let mut big = Model::new(policy(tag, 50), 100 * RECORD_BYTES, 1);
        for i in 0..cap as usize + extra {
            big.push(TraceRecord::cwnd(SimTime::from_nanos(i as u64), 0, i as u64, 0));
        }
        let mut ring = SampleRing::new(policy(tag, 50), budget, 1);
        prop_assert!(ring.load_state(&mut SnapReader::new(&big.save())).is_err());
    }
}

/// Drops at one instant arrive in the order the link sees them, which
/// need not be `sort_key` order: the drained run is sorted.
#[test]
fn ties_out_of_key_order_are_sorted_at_drain() {
    let t = SimTime::from_millis(4);
    let drops = [5, 3, 9, 3, 0].map(|flow| TraceRecord::drop(t, flow, 1_000 + u64::from(flow)));
    let mut q = QueueRecorder::new(RetentionPolicy::KeepAll, 1 << 20, 0, 1);
    for r in drops {
        q.on_drop(r.time, r.flow, r.a);
    }
    let mut want = drops.to_vec();
    assert!(!want.is_sorted_by_key(TraceRecord::sort_key));
    want.sort_by_key(TraceRecord::sort_key);
    let trace = RunTrace::from_rings(TraceMeta::default(), q.finish());
    assert_eq!(trace.records.iter().collect::<Vec<_>>(), want);
}
