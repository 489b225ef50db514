//! Cost gates: ratios of two timings taken in one process on one machine,
//! so they transfer to any hardware where absolute times do not. Tier-1
//! skips them (`#[ignore]`: debug builds time nothing useful); CI's `perf`
//! job runs them one at a time, so no gate shares the CPU with another:
//!
//! ```text
//! cargo test --release --test cost_gates -- --ignored --test-threads=1
//! ```
//!
//! Each gate writes its ratio to stderr, passing or not.
//!
//! * `profiler_costs_under_two_percent` — an observed quickstart run with
//!   the event-attribution profiler at its default stride against the
//!   same run bare: per event a class-table lookup, a cell increment in
//!   place of the bare run's per-kind one, and a tick; an out-of-line
//!   clock read per 1024 events; and the profile's export at the end.
//!   Must stay under 1.02.
//! * `timeline_costs_under_two_percent` — the same pair with the windowed
//!   sampler (1 s windows), which reads slice snapshots and never touches
//!   the event loop. Must stay under 1.02.
//! * `receiver_ooo_cost_is_flat_in_hole_count` — 4096 segments into a
//!   receiver with 256 standing holes against 1 hole: a binary search into
//!   the run deque and one pass over a 16-entry ring either way. Must stay
//!   at or under 4 (the `BTreeMap` + `retain` receiver read 3.3).
//!
//! Mutation checks (each made in a throwaway copy; each gate failed):
//! * profiler — `profile_stride: 1` in `ObserveOptions::profiled`, a
//!   clock read per event: ratio 1.52.
//! * timeline — `ColumnSet::new` allocates and zeroes every ring to its
//!   share of the 4 MiB budget up front: ratio 1.06. (A 1 ms window is
//!   not a mutation this gate sees: rows close only at slice boundaries.)
//! * receiver — `sack_blocks` checks every run in the deque against the
//!   blocks on every ACK instead of stopping once they are full: ratio 5.1.

use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, ObserveOptions, RunRequest, Scenario};
use ccsim::net::msg::Msg;
use ccsim::net::packet::{FlowId, Packet};
use ccsim::sim::{Component, ComponentId, Ctx, SimDuration, SimTime, Simulator};
use ccsim::tcp::Receiver;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// What `other` costs relative to `base`, from pairs of back-to-back calls
/// of `run` made until `base` has run for `secs`. Within a pair the order
/// alternates, and each input is built just before its call, off the
/// clock. The figure is the median of other's time over base's across the
/// quarter of pairs with the smallest total. Paired, because a shared host
/// has phases in which every call runs up to 1.8x slow, and both calls of
/// a pair fall in the same phase. The quickest quarter, because the gates
/// are about the code's own cost and contention inflates it (on a shared
/// 2-vCPU x86-64 VM the profiler reads about 1 %, up to 2 % in slow
/// phases); this is min-of-N made robust to single lucky calls. The
/// median, to drop the pairs that straddle a phase change.
fn cost_ratio<I, O>(
    gate: &str,
    secs: f64,
    base: impl Fn() -> I,
    other: impl Fn() -> I,
    run: impl Fn(I) -> O,
) -> f64 {
    let timed = |input: I| {
        let start = Instant::now();
        black_box(run(black_box(input)));
        start.elapsed().as_secs_f64()
    };
    let (mut pairs, mut spent) = (Vec::new(), 0.0);
    while spent < secs {
        let (b, o) = if pairs.len() % 2 == 0 {
            let b = timed(base());
            (b, timed(other()))
        } else {
            let o = timed(other());
            (timed(base()), o)
        };
        pairs.push((b, o));
        spent += b;
    }
    pairs.sort_by(|(b1, o1), (b2, o2)| (b1 + o1).total_cmp(&(b2 + o2)));
    let mut ratios: Vec<f64> = pairs[..pairs.len() / 4]
        .iter()
        .map(|(b, o)| o / b)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    // Past libtest's output capture, so a passing run shows it too.
    writeln!(
        std::io::stderr(),
        "{gate}: ratio {ratio:.3} over the quickest {} of {} pairs",
        ratios.len(),
        pairs.len()
    )
    .expect("stderr is writable");
    ratio
}

/// The README quickstart scenario, shortened: 10 Reno flows, 3 s simulated.
fn quickstart() -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("quickstart")
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            10,
            SimDuration::from_millis(20),
        )])
        .seed(1);
    s.start_jitter = SimDuration::from_millis(200);
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(2);
    s.convergence = None;
    s
}

/// Bare observed quickstart runs against runs with `with` attached, for
/// 12 s of bare time: in a slow phase of a shared host (bare runs near
/// 14 ms, not 8) the profiler's read spread by 0.012 (sd) over 6 s and by
/// 0.006 over 12 s, centred at 1.000 and 1.005.
fn observer_ratio(gate: &str, with: fn() -> ObserveOptions) -> f64 {
    let s = quickstart();
    cost_ratio(gate, 12.0, ObserveOptions::default, with, |options| {
        RunRequest::new(&s)
            .observe(options)
            .execute()
            .expect("quickstart scenario runs clean")
            .outcome
            .events_processed
    })
}

#[test]
#[ignore = "release timing gate: cargo test --release --test cost_gates -- --ignored --test-threads=1"]
fn profiler_costs_under_two_percent() {
    let ratio = observer_ratio("profiler", ObserveOptions::profiled);
    assert!(ratio < 1.02, "profiled / bare = {ratio:.3}");
}

#[test]
#[ignore = "release timing gate: cargo test --release --test cost_gates -- --ignored --test-threads=1"]
fn timeline_costs_under_two_percent() {
    let ratio = observer_ratio("timeline", ObserveOptions::timelined);
    assert!(ratio < 1.02, "timelined / bare = {ratio:.3}");
}

const MSS: u64 = 1448;
/// Timed segments per feed.
const SEGS: u64 = 4096;

struct Blackhole;

impl Component<Msg> for Blackhole {
    fn on_event(&mut self, _now: SimTime, _msg: Msg, _ctx: &mut Ctx<'_, Msg>) {}
}

/// A receiver in a miniature simulator whose only other component
/// swallows ACKs, fed segment numbers (MSS units) one per microsecond.
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

    /// Dispatch every segment pushed so far, and no ACK: they are 10 ms
    /// out, the whole feed under 5.
    fn run(&mut self) -> u64 {
        self.sim.run_until(SimTime::from_micros(self.sent));
        self.sim.component::<Receiver>(self.rx).delivered_bytes()
    }
}

/// `holes` one-segment ranges, each `stride` segments above the last, then
/// `SEGS` arrivals extending them in turn, round-robin: every timed arrival
/// lands out of order, and at 256 holes on a range that has long fallen
/// off the 16-entry recency ring.
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

#[test]
#[ignore = "release timing gate: cargo test --release --test cost_gates -- --ignored --test-threads=1"]
fn receiver_ooo_cost_is_flat_in_hole_count() {
    let ratio = cost_ratio("receiver", 0.1, || ooo(1), || ooo(256), |mut f| f.run());
    assert!(ratio <= 4.0, "256 holes / 1 hole = {ratio:.3}");
}
