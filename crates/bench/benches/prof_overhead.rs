//! Profiler-overhead benchmark: the cost of running with the
//! `ccsim-prof` event-attribution profiler attached versus without.
//!
//! `prof_run/off` vs `prof_run/on` is the headline pair: the same
//! quickstart-sized observed run with profiling disabled and enabled at
//! the default stride. The enabled path adds one `u8` class-table lookup
//! plus two array increments per dispatched event and one `Instant::now()`
//! per stride (1024 events), so the two times must agree to under 2% —
//! the budget the CI `profile` job gates on. `prof_run/stride64` bounds
//! the cost of an aggressive sampling stride.

use ccsim_cca::CcaKind;
use ccsim_core::{FlowGroup, ObserveOptions, RunRequest, Scenario};
use ccsim_sim::SimDuration;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

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

fn observed(scenario: &Scenario, options: ObserveOptions) -> u64 {
    RunRequest::new(scenario)
        .observe(options)
        .execute()
        .expect("quickstart scenario runs clean")
        .outcome
        .events_processed
}

fn bench_prof_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("prof_run");
    g.sample_size(10);
    let s = quickstart();
    g.bench_function("off", |b| {
        b.iter(|| observed(black_box(&s), ObserveOptions::default()))
    });
    g.bench_function("on", |b| {
        b.iter(|| observed(black_box(&s), ObserveOptions::profiled()))
    });
    g.bench_function("stride64", |b| {
        b.iter(|| {
            observed(
                black_box(&s),
                ObserveOptions {
                    profile: true,
                    profile_stride: 64,
                    ..ObserveOptions::default()
                },
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_prof_run);
criterion_main!(benches);
