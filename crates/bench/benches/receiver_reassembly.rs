//! Receiver reassembly micro-benchmark: what one data segment costs the
//! receiver — buffer it, update the SACK recency ring, build the ACK — as a
//! function of how many holes are standing when it arrives.
//!
//! The `Receiver` sits in a miniature `Simulator` whose only other
//! component swallows ACKs. Each iteration dispatches `SEGS` pre-scheduled
//! segments; ACKs are 10 ms away and never delivered inside the timed
//! stretch, so the figure is schedule-pop + `Receiver::on_event` +
//! scheduling the ACK, the first and last the same in every row.
//!
//! * `inorder`: no holes; two segments per (delayed) ACK.
//! * `ooo/holes<h>`: `h` ranges stand above `h` holes and every arrival
//!   extends one of them, round-robin — a binary search into the run deque,
//!   an in-place update, one pass over the ring (at 256 holes the range
//!   touched has long fallen off it), three blocks read off its front.
//! * `recovery/holes<h>`: alternately the lowest hole is filled (in-order
//!   path, front pop, dead-flag, SACK ACK) and new data lands past the top
//!   leaving a fresh hole behind it (append), so `h` holes stay standing —
//!   what a receiver sees while its sender retransmits bottom-up.
//!
//! The per-segment cost must not grow with the hole count: CI's `perf` job
//! fails when `ooo/holes256` exceeds four times `ooo/holes1` (same process,
//! same machine, so the ratio transfers). With the `BTreeMap` + `retain`
//! receiver each out-of-order arrival did up to 16 tree lookups and each
//! ACK three more: 213 / 366 / 706 ns per segment at 1 / 16 / 256 holes on
//! the reference box against 204 / 213 / 208 ns now. That was a ratio of
//! 3.3, so the gate guards against a cost linear in the hole count; it
//! does not re-test the tree.

use ccsim_net::msg::Msg;
use ccsim_net::packet::{FlowId, Packet};
use ccsim_sim::{Component, ComponentId, Ctx, SimDuration, SimTime, Simulator};
use ccsim_tcp::Receiver;
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

const MSS: u64 = 1448;
/// Timed segments per iteration.
const SEGS: u64 = 4096;

struct Blackhole;

impl Component<Msg> for Blackhole {
    fn on_event(&mut self, _now: SimTime, _msg: Msg, _ctx: &mut Ctx<'_, Msg>) {}
}

/// A receiver fed segment numbers (MSS units), one per microsecond.
struct Feed {
    sim: Simulator<Msg>,
    rx: ComponentId,
    sent: u64,
}

impl Feed {
    fn new() -> Feed {
        let mut sim = Simulator::new(0);
        let sink = sim.add_component(Blackhole);
        let rx = sim.add_component(Receiver::new(
            FlowId(0),
            sink,
            SimDuration::from_millis(10),
            MSS as u32,
        ));
        Feed { sim, rx, sent: 0 }
    }

    fn push(&mut self, seg: u64) {
        let at = SimTime::from_micros(self.sent);
        let p = Packet::data(FlowId(0), self.rx, seg * MSS, (seg + 1) * MSS, at);
        self.sim.schedule(at, self.rx, Msg::Packet(p));
        self.sent += 1;
    }

    /// Dispatch every segment pushed so far (and no ACK: they are 10 ms
    /// out, the whole feed under 5).
    fn run(&mut self) -> u64 {
        self.sim.run_until(SimTime::from_micros(self.sent));
        self.sim.component::<Receiver>(self.rx).delivered_bytes()
    }
}

fn inorder() -> Feed {
    let mut f = Feed::new();
    (0..SEGS).for_each(|k| f.push(k));
    f
}

/// `holes` one-segment ranges, each `stride` segments above the last, then
/// `SEGS` arrivals extending them in turn.
fn ooo(holes: u64) -> Feed {
    let rounds = SEGS / holes;
    let stride = rounds + 2;
    let mut f = Feed::new();
    (0..holes).for_each(|k| f.push(1 + k * stride));
    f.run();
    for round in 1..=rounds {
        (0..holes).for_each(|k| f.push(1 + k * stride + round));
    }
    f
}

/// Odd segments delivered up to `2 * holes`, then `SEGS / 2` pairs of
/// (lowest missing even segment, next odd segment past the top).
fn recovery(holes: u64) -> Feed {
    let mut f = Feed::new();
    (0..holes).for_each(|k| f.push(2 * k + 1));
    f.run();
    for k in 0..SEGS / 2 {
        f.push(2 * k);
        f.push(2 * (holes + k) + 1);
    }
    f
}

fn bench_receiver(c: &mut Criterion) {
    let mut g = c.benchmark_group("receiver_reassembly");
    g.throughput(Throughput::Elements(SEGS));
    let mut row = |name: String, build: &dyn Fn() -> Feed| {
        g.bench_function(name, |b| {
            b.iter_batched(build, |mut f| black_box(f.run()), BatchSize::LargeInput)
        });
    };
    row("inorder".into(), &inorder);
    for holes in [1u64, 16, 256] {
        row(format!("ooo/holes{holes}"), &|| ooo(holes));
    }
    for holes in [1u64, 16, 256] {
        row(format!("recovery/holes{holes}"), &|| recovery(holes));
    }
    g.finish();
}

criterion_group!(benches, bench_receiver);
criterion_main!(benches);
