//! Microbench isolating event-queue cost from dispatch cost: hold-pattern
//! churn (pop one, push one) at CoreScale-like pending counts and delay
//! mix, wheel vs reference heap, with a `ccsim-net` sized payload.
//!
//! Usage: queue_probe [pending] [ops]

use ccsim_net::msg::Msg;
use ccsim_sim::event::{KEY_BYTES, READY_BYTES};
use ccsim_sim::{ComponentId, EventQueue, HeapQueue, SimDuration, SimTime};
use std::time::Instant;

fn delay(i: u64) -> SimDuration {
    // Rough CoreScale mix: mostly ~µs serializations and sub-ms deliveries,
    // some RTT-scale ACK clocks, a tail of RTO-scale rearms.
    match i % 16 {
        0..=7 => SimDuration::from_nanos(1_200 + (i % 977)),
        8..=12 => SimDuration::from_micros(40 + (i % 613)),
        13..=14 => SimDuration::from_millis(1 + (i % 7)),
        _ => SimDuration::from_millis(200 + (i % 50)),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pending: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(30_000);
    let ops: u64 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000_000);
    let dst = ComponentId::from_raw(0);
    let msg = Msg::Timer(ccsim_net::msg::TimerToken::pack(1, 7));
    println!(
        "payload: Msg={}B, pending={pending}, ops={ops}",
        std::mem::size_of::<Msg>()
    );
    // What the wheel moves per event, against what it parks once.
    println!(
        "wheel: key={KEY_BYTES}B, batch record={READY_BYTES}B, slab slot={}B",
        std::mem::size_of::<Option<Msg>>()
    );

    let mut wheel: EventQueue<Msg> = EventQueue::new();
    let mut now = SimTime::ZERO;
    for i in 0..pending {
        wheel.schedule(now + delay(i), dst, msg);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        let e = wheel.pop().unwrap();
        now = e.time;
        wheel.schedule(now + delay(i), dst, msg);
    }
    let dt = t0.elapsed();
    println!(
        "wheel: {:7.1} ns/op  ({:.2}M ops/s)  end={now}",
        dt.as_nanos() as f64 / ops as f64,
        ops as f64 / dt.as_secs_f64() / 1e6
    );

    let mut heap: HeapQueue<Msg> = HeapQueue::new();
    let mut now = SimTime::ZERO;
    for i in 0..pending {
        heap.schedule(now + delay(i), dst, msg);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        let e = heap.pop().unwrap();
        now = e.time;
        heap.schedule(now + delay(i), dst, msg);
    }
    let dt = t0.elapsed();
    println!(
        "heap:  {:7.1} ns/op  ({:.2}M ops/s)  end={now}",
        dt.as_nanos() as f64 / ops as f64,
        ops as f64 / dt.as_secs_f64() / 1e6
    );
}
