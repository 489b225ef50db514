//! Event-queue micro-benchmark: the tiered timer wheel ([`EventQueue`])
//! against the reference binary heap ([`HeapQueue`]) it replaced, under
//! the hold-pattern churn that dominates CoreScale runs — pop one event,
//! schedule the next — at a realistic pending count and delay mix, plus
//! the cancel-and-rearm pattern the TCP timers use.
//!
//! The wheel's win is O(1) schedule/cancel versus the heap's O(log n)
//! sift; `BENCH_perf.json` records the end-to-end consequence.
//!
//! The hold pattern pops from the sorted run and pushes into a wheel slot,
//! so it never sees what the size of a queue element costs. The last two
//! groups do, with a packet-sized payload: *fan-out at now* (every pop
//! schedules three same-instant events, which sift through the overlay
//! heap) and *rearm* (every pop cancels a 200 ms timer and arms another,
//! so tombstones pile up in the coarse levels and cascade).
//!
//! *Fan-out at now* calls `EventQueue::schedule` directly, which is not
//! what a component does: a handler's same-instant hand-off is
//! `Ctx::send`, which the engine keeps out of the wheel altogether. The
//! `send_at_now` group measures that road where it is taken, at engine
//! level: a `Simulator` whose component answers every arrival with k
//! sends.

use ccsim_net::msg::{Msg, TimerToken};
use ccsim_net::packet::{FlowId, Packet};
use ccsim_sim::{
    Component, ComponentId, Ctx, EventQueue, HeapQueue, SimDuration, SimTime, Simulator,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

/// CoreScale-like delay mix: mostly ~µs serializations and sub-ms
/// deliveries, some RTT-scale ACK clocks, a tail of RTO-scale rearms.
fn delay(i: u64) -> SimDuration {
    match i % 16 {
        0..=7 => SimDuration::from_nanos(1_200 + (i % 977)),
        8..=12 => SimDuration::from_micros(40 + (i % 613)),
        13..=14 => SimDuration::from_millis(1 + (i % 7)),
        _ => SimDuration::from_millis(200 + (i % 50)),
    }
}

const PENDING: u64 = 30_000;
const OPS: u64 = 100_000;

fn msg() -> Msg {
    Msg::Timer(TimerToken::pack(1, 7))
}

fn seeded_wheel() -> EventQueue<Msg> {
    let mut q = EventQueue::new();
    for i in 0..PENDING {
        q.schedule(SimTime::ZERO + delay(i), ComponentId::from_raw(0), msg());
    }
    q
}

fn seeded_heap() -> HeapQueue<Msg> {
    let mut q = HeapQueue::new();
    for i in 0..PENDING {
        q.schedule(SimTime::ZERO + delay(i), ComponentId::from_raw(0), msg());
    }
    q
}

fn bench_hold_pattern(c: &mut Criterion) {
    let dst = ComponentId::from_raw(0);
    let mut g = c.benchmark_group("event_queue/hold");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("wheel_pop_push", |b| {
        b.iter_batched(
            seeded_wheel,
            |mut q| {
                for i in 0..OPS {
                    let e = q.pop().unwrap();
                    q.schedule(e.time + delay(i), dst, msg());
                }
                q
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("heap_pop_push", |b| {
        b.iter_batched(
            seeded_heap,
            |mut q| {
                for i in 0..OPS {
                    let e = q.pop().unwrap();
                    q.schedule(e.time + delay(i), dst, msg());
                }
                q
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_cancel_rearm(c: &mut Criterion) {
    // The RTO/delayed-ACK pattern: schedule cancellable, cancel, rearm —
    // the heap can only tombstone (pop later); the wheel unlinks in O(1).
    let dst = ComponentId::from_raw(0);
    let mut g = c.benchmark_group("event_queue/cancel_rearm");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("wheel", |b| {
        b.iter_batched(
            seeded_wheel,
            |mut q| {
                let mut now = SimTime::ZERO;
                let mut tok = q.schedule_cancellable(now + delay(0), dst, msg());
                for i in 0..OPS {
                    let e = q.pop().unwrap();
                    now = e.time;
                    q.cancel(tok);
                    tok = q.schedule_cancellable(now + delay(i), dst, msg());
                    q.schedule(now + delay(i.wrapping_mul(7)), dst, msg());
                }
                q
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("heap", |b| {
        b.iter_batched(
            seeded_heap,
            |mut q| {
                let mut now = SimTime::ZERO;
                let mut tok = q.schedule_cancellable(now + delay(0), dst, msg());
                for i in 0..OPS {
                    let e = q.pop().unwrap();
                    now = e.time;
                    q.cancel(tok);
                    tok = q.schedule_cancellable(now + delay(i), dst, msg());
                    q.schedule(now + delay(i.wrapping_mul(7)), dst, msg());
                }
                q
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_batch_extraction(c: &mut Criterion) {
    // Same-timestamp bursts (ACK fan-out, synchronized drops): the
    // engine's dispatch loop pulls these with one batch call.
    let dst = ComponentId::from_raw(0);
    let seed_bursty_wheel = || {
        let mut q: EventQueue<Msg> = EventQueue::new();
        for i in 0..PENDING {
            // 16-way timestamp collisions.
            let t = SimTime::ZERO + delay(i / 16);
            q.schedule(t, dst, msg());
        }
        q
    };
    let seed_bursty_heap = || {
        let mut q: HeapQueue<Msg> = HeapQueue::new();
        for i in 0..PENDING {
            let t = SimTime::ZERO + delay(i / 16);
            q.schedule(t, dst, msg());
        }
        q
    };
    let mut g = c.benchmark_group("event_queue/batch");
    g.throughput(Throughput::Elements(PENDING));
    g.bench_function("wheel_take_head_batch", |b| {
        b.iter_batched(
            seed_bursty_wheel,
            |mut q| {
                let mut out = std::collections::VecDeque::new();
                let mut n = 0;
                while q.take_head_batch(&mut out) > 0 {
                    n += out.len();
                    out.clear();
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("heap_take_head_batch", |b| {
        b.iter_batched(
            seed_bursty_heap,
            |mut q| {
                let mut out = std::collections::VecDeque::new();
                let mut n = 0;
                while q.take_head_batch(&mut out) > 0 {
                    n += out.len();
                    out.clear();
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn packet(i: u64) -> Packet {
    Packet::data(
        FlowId(i as u32),
        ComponentId::from_raw(0),
        i,
        i + 1448,
        SimTime::ZERO,
    )
}

/// The two patterns, written once for both queues (they share no trait).
macro_rules! payload_patterns {
    ($fanout:ident, $rearm:ident, $queue:ident) => {
        /// Every arriving packet sends three more at the same instant (a
        /// link handing to a router handing to a receiver handing an ACK
        /// back) and schedules the next arrival; the same-instant ones,
        /// marked `retransmit`, send nothing, so the population is steady.
        fn $fanout() -> u64 {
            let dst = ComponentId::from_raw(0);
            let mut q: $queue<Msg> = $queue::new();
            for i in 0..PENDING / 4 {
                q.schedule(SimTime::ZERO + delay(i), dst, Msg::Packet(packet(i)));
            }
            for i in 0..OPS {
                let e = q.pop().unwrap();
                let Msg::Packet(p) = e.msg else {
                    unreachable!()
                };
                if !p.retransmit {
                    for k in 0..3 {
                        let hop = Packet {
                            retransmit: true,
                            ..packet(i + k)
                        };
                        q.schedule(e.time, dst, Msg::Packet(hop));
                    }
                    q.schedule(e.time + delay(i), dst, Msg::Packet(packet(i)));
                }
            }
            q.scheduled_total()
        }

        /// Every popped event cancels its flow's 200 ms timer and arms a
        /// new one (the RTO on every ACK) beside 20 k pending packets.
        fn $rearm() -> u64 {
            const FLOWS: usize = 1_000;
            let dst = ComponentId::from_raw(0);
            let mut q: $queue<Msg> = $queue::new();
            for i in 0..20_000 {
                q.schedule(SimTime::ZERO + delay(i), dst, Msg::Packet(packet(i)));
            }
            let rto = SimDuration::from_millis(200);
            let mut timers: Vec<_> = (0..FLOWS)
                .map(|_| q.schedule_cancellable(SimTime::ZERO + rto, dst, msg()))
                .collect();
            for i in 0..OPS {
                let e = q.pop().unwrap();
                let flow = i as usize % FLOWS;
                q.cancel(timers[flow]);
                timers[flow] = q.schedule_cancellable(e.time + rto, dst, msg());
                q.schedule(e.time + delay(i), dst, Msg::Packet(packet(i)));
            }
            q.scheduled_total()
        }
    };
}

payload_patterns!(wheel_fanout, wheel_rearm, EventQueue);
payload_patterns!(heap_fanout, heap_rearm, HeapQueue);

fn bench_payload_patterns(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/fanout_at_now");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("wheel", |b| b.iter(wheel_fanout));
    g.bench_function("heap", |b| b.iter(heap_fanout));
    g.finish();
    let mut g = c.benchmark_group("event_queue/rearm");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("wheel", |b| b.iter(wheel_rearm));
    g.bench_function("heap", |b| b.iter(heap_rearm));
    g.finish();
}

/// Answers each arriving packet with `k` same-instant sends to itself
/// (marked `retransmit`; those answer nothing) and, until `arrivals` runs
/// out, schedules the next arrival: the sender → link → router hand-off
/// chain, with the population held steady.
struct Fan {
    k: u64,
    arrivals: u64,
}

impl Component<Msg> for Fan {
    fn on_event(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Packet(p) = msg else { unreachable!() };
        if p.retransmit {
            return;
        }
        for i in 0..self.k {
            let hop = Packet {
                retransmit: true,
                ..packet(p.seq + i)
            };
            ctx.send(ctx.self_id(), Msg::Packet(hop));
        }
        if self.arrivals > 0 {
            self.arrivals -= 1;
            ctx.schedule_self(delay(p.seq), Msg::Packet(packet(p.seq + 1)));
        }
    }
}

/// `OPS` arrivals (beyond the seeded ones) through the engine's batch
/// loop, each fanning out `k` sends; returns the events processed.
fn engine_send_fanout(k: u64) -> u64 {
    let mut sim: Simulator<Msg> = Simulator::new(0);
    let fan = sim.add_component(Fan { k, arrivals: OPS });
    for i in 0..PENDING / 4 {
        sim.schedule(SimTime::ZERO + delay(i), fan, Msg::Packet(packet(i)));
    }
    sim.run_until(SimTime::MAX);
    sim.events_processed()
}

fn bench_send_at_now(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/send_at_now");
    for k in [1, 4, 16] {
        // Every arrival, seeded or scheduled, is one event plus k sends.
        g.throughput(Throughput::Elements((OPS + PENDING / 4) * (k + 1)));
        g.bench_function(format!("engine_k{k}"), |b| b.iter(|| engine_send_fanout(k)));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_hold_pattern,
    bench_cancel_rearm,
    bench_batch_extraction,
    bench_payload_patterns,
    bench_send_at_now
);
criterion_main!(benches);
