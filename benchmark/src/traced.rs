//! The traced run: `--workload W --seed N --seconds S --trace 1`.
//!
//! Three passes, all timed from the benchmark's own files:
//!
//! 1. **span pass** — the workload through its normal entry point with a
//!    progress callback: `core.run` ⊃ `core.setup`, `core.slice[i]`,
//!    `core.collect`;
//! 2. **engine pass** — a harness-owned `BuiltNetwork` advanced slice by
//!    slice through `try_run_until_classified`, the classifier feeding a
//!    [`KindTimer`] (`dispatch.{data,ack,timer}`) and every flow's CCA
//!    wrapped in a [`TimedCca`] (`cca.call`, a child of `dispatch.ack`),
//!    then every exact counter read off the components;
//! 3. **isolated stages** sized from the engine pass's counts, and the
//!    reconciliation of `Σ count × isolated cost` with the in-situ times.

use crate::attribution::{instant_pair_overhead_nanos, KindTimer};
use crate::compat::{self, num, obj, InSitu, Json, CCA_KINDS, CLASSES, KINDS};
use crate::e2e::{panic_text, results_dir, scratch_dir, time_setup_batch};
use crate::expected::{mismatch, Expected};
use crate::isolated::{self, Sizing};
use crate::spans::{SampledGroup, SpanLog};
use crate::{spec, workloads};
use ccsim_cca::make_cca;
use ccsim_core::{BuiltNetwork, Scenario};
use ccsim_net::AqmKind;
use ccsim_sim::{Bandwidth, SimTime, SnapError, SnapReader, SnapWriter};
use ccsim_tcp::{AckSample, CongestionControl};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Mean events between timed ones in the engine pass: two clock reads
/// per 64 events keep the pass within a few percent of an untimed one.
const DISPATCH_GAP: u32 = 64;
/// Every this-many-th CCA call is timed.
const CCA_GAP: u32 = 16;
/// `layers.residual_frac` beyond this, or `dispatch.coverage_frac` further
/// than this from 1, is printed as a finding.
const FINDING_THRESHOLD: f64 = 0.10;

/// Shared by every flow's [`TimedCca`].
#[derive(Default)]
struct CcaClock {
    calls: u64,
    samples: u64,
    nanos: u64,
    countdown: u32,
    overhead_nanos: u64,
    kept: Vec<(Instant, Instant)>,
}

/// A `CongestionControl` that delegates everything and times a strided
/// sample of the state-changing calls (`on_ack`, recovery entry/exit,
/// `on_rto`, `on_ecn`). Getters pass through untimed.
struct TimedCca {
    inner: Box<dyn CongestionControl>,
    clock: Rc<RefCell<CcaClock>>,
}

impl TimedCca {
    #[inline]
    fn call(&mut self, f: impl FnOnce(&mut dyn CongestionControl)) {
        let sample = {
            let mut c = self.clock.borrow_mut();
            c.calls += 1;
            c.countdown -= 1;
            if c.countdown == 0 {
                c.countdown = CCA_GAP;
                true
            } else {
                false
            }
        };
        if !sample {
            return f(self.inner.as_mut());
        }
        let t0 = Instant::now();
        f(self.inner.as_mut());
        let t1 = Instant::now();
        let mut c = self.clock.borrow_mut();
        c.samples += 1;
        c.nanos += ((t1 - t0).as_nanos() as u64).saturating_sub(c.overhead_nanos);
        if c.kept.len() < 512 {
            c.kept.push((t0, t1));
        }
    }
}

impl CongestionControl for TimedCca {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }
    fn ssthresh(&self) -> u64 {
        self.inner.ssthresh()
    }
    fn pacing_rate(&self) -> Option<Bandwidth> {
        self.inner.pacing_rate()
    }
    fn on_ack(&mut self, s: &AckSample) {
        self.call(|c| c.on_ack(s));
    }
    fn on_enter_recovery(&mut self, s: &AckSample) {
        self.call(|c| c.on_enter_recovery(s));
    }
    fn on_exit_recovery(&mut self, s: &AckSample, after_rto: bool) {
        self.call(|c| c.on_exit_recovery(s, after_rto));
    }
    fn on_rto(&mut self, s: &AckSample) {
        self.call(|c| c.on_rto(s));
    }
    fn on_ecn(&mut self, s: &AckSample) {
        self.call(|c| c.on_ecn(s));
    }
    fn uses_prr(&self) -> bool {
        self.inner.uses_prr()
    }
    fn phase(&self) -> &'static str {
        self.inner.phase()
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

struct EnginePass {
    in_situ: InSitu,
    timer: KindTimer,
    cca: CcaClock,
    /// Sum of the slices' wall time.
    dispatch_secs: f64,
    /// Window an average ACK saw, in segments (see
    /// [`compat::inflight_moments`]).
    ack_weighted_window: f64,
}

fn engine_pass(scenario: &Scenario, log: &mut SpanLog) -> Result<EnginePass, String> {
    let clock = Rc::new(RefCell::new(CcaClock {
        countdown: CCA_GAP,
        overhead_nanos: instant_pair_overhead_nanos(),
        ..CcaClock::default()
    }));
    let pass_started = Instant::now();
    let factory_clock = clock.clone();
    let mut net = BuiltNetwork::try_build_with_factory(scenario, &move |_, kind, mss, seed| {
        Box::new(TimedCca {
            inner: make_cca(kind, mss, seed),
            clock: factory_clock.clone(),
        })
    })
    .map_err(|e| e.to_string())?;
    net.sim.set_event_classes(KINDS.len());
    // Counts per (class × kind) only: a stride that is never reached keeps
    // the engine's own sampler silent.
    net.sim.enable_profiling(
        compat::class_table(&net),
        CLASSES.len(),
        KINDS.len(),
        u64::MAX,
    );
    let built = Instant::now();

    let mut timer = KindTimer::new(KINDS.len(), DISPATCH_GAP);
    let warmup_end = SimTime::ZERO + scenario.warmup;
    let horizon = scenario.horizon_end();
    let mut slices: Vec<(Instant, Instant)> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut moments = (0.0, 0.0);
    while now < horizon {
        let phase_end = if now < warmup_end {
            warmup_end
        } else {
            horizon
        };
        let next = (now + scenario.snapshot_interval).min(phase_end);
        let t0 = Instant::now();
        net.sim
            .try_run_until_classified(next, |m| {
                let k = compat::classify(m);
                timer.on_event(k);
                k
            })
            .map_err(|e| e.to_string())?;
        timer.end_slice();
        slices.push((t0, Instant::now()));
        now = next;
        let (s1, s2) = compat::inflight_moments(&net);
        moments = (moments.0 + s1, moments.1 + s2);
    }
    let pass_ended = Instant::now();
    let in_situ = compat::harvest(&net);
    drop(net);

    let pass = log.record("engine.pass", pass_started, pass_ended, None);
    log.record("engine.build", pass_started, built, Some(pass));
    let mut dispatch_secs = 0.0;
    for (i, &(t0, t1)) in slices.iter().enumerate() {
        log.record(&format!("engine.slice[{i}]"), t0, t1, Some(pass));
        dispatch_secs += (t1 - t0).as_secs_f64();
    }
    let origin_offset = log.ns_since_origin(timer.origin());
    for (kind, totals) in KINDS.iter().zip(timer.totals()) {
        log.add_group(SampledGroup {
            name: format!("dispatch.{kind}"),
            parent: Some(pass),
            count: totals.events,
            samples: totals.samples,
            estimated_total_ns: (totals.estimated_secs() * 1e9) as u64,
            kept: totals
                .kept
                .iter()
                .map(|&(a, b)| (a + origin_offset, b + origin_offset))
                .collect(),
        });
    }
    let cca = Rc::try_unwrap(clock)
        .map_err(|_| "a CCA wrapper outlived its network")?
        .into_inner();
    log.add_group(SampledGroup {
        // A child of `dispatch.ack`: almost every call happens inside an
        // ACK event (`on_rto`, in a timer event, is negligible in count),
        // so its time is already inside that group's estimate.
        name: "cca.call".into(),
        parent: Some(pass),
        count: cca.calls,
        samples: cca.samples,
        estimated_total_ns: 0,
        kept: cca
            .kept
            .iter()
            .map(|&(a, b)| (log.ns_since_origin(a), log.ns_since_origin(b)))
            .collect(),
    });
    Ok(EnginePass {
        in_situ,
        timer,
        cca,
        dispatch_secs,
        ack_weighted_window: ratio(moments.1, moments.0) / f64::from(scenario.mss),
    })
}

struct SpanPass {
    summary: compat::OutcomeSummary,
    wall_secs: f64,
    /// Sum of the slices' wall time, set-up removed from the first.
    slices_secs: f64,
    slices: u64,
    collect_secs: f64,
    outcome_json_secs: f64,
    artifacts: compat::ObservedArtifacts,
}

fn span_pass(
    workload: &str,
    scenario: &Scenario,
    setup_secs: f64,
    log: &mut SpanLog,
) -> Result<SpanPass, String> {
    let mut marks: Vec<Instant> = Vec::new();
    let started = Instant::now();
    let (outcome, artifacts) = if workloads::is_observed(workload) {
        compat::run_observed_exporting(scenario, &scratch_dir(), |_| marks.push(Instant::now()))?
    } else {
        let outcome = compat::run_sliced(scenario, |_| marks.push(Instant::now()));
        (outcome, compat::ObservedArtifacts::default())
    };
    let ended = Instant::now();
    let last = *marks.last().ok_or("run reported no slices")?;

    let root = log.record("core.run", started, ended, None);
    // The runner's build is not visible from outside; the separately
    // timed `try_build` median stands in for it.
    let setup_end = started + Duration::from_secs_f64(setup_secs).min(marks[0] - started);
    log.record("core.setup", started, setup_end, Some(root));
    let mut prev = setup_end;
    for (i, &mark) in marks.iter().enumerate() {
        log.record(&format!("core.slice[{i}]"), prev, mark, Some(root));
        prev = mark;
    }
    let collect = log.record("core.collect", last, ended, Some(root));
    if artifacts.export_secs > 0.0 {
        let export_start = ended - Duration::from_secs_f64(artifacts.export_secs).min(ended - last);
        log.record("observers.export", export_start, ended, Some(collect));
    }

    let t0 = Instant::now();
    std::hint::black_box(compat::outcome_json_len(&outcome));
    let outcome_json_secs = t0.elapsed().as_secs_f64();

    Ok(SpanPass {
        summary: compat::summarize(outcome),
        wall_secs: (ended - started).as_secs_f64(),
        slices_secs: (last - setup_end).as_secs_f64(),
        slices: marks.len() as u64,
        collect_secs: (ended - last).as_secs_f64(),
        outcome_json_secs,
        artifacts,
    })
}

#[derive(Default)]
pub struct TracedReport {
    /// One value per `spec::PER_LAYER` name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub findings: Vec<String>,
}

impl TracedReport {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    pub fn print(&self, workload: &str, seed: u64) {
        println!("# {workload} seed {seed}: per-layer metrics (traced run)");
        for m in &spec::PER_LAYER {
            let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
            println!("{:<40} {:>18.6} {}", m.name, v, m.unit);
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        for finding in &self.findings {
            println!("finding: {finding}");
        }
        println!("runs_attempted {} count", self.attempted);
        println!("runs_failed {} count", self.failed);
    }

    /// The driver's result line: every per-layer metric.
    pub fn to_json(&self) -> Json {
        let metrics = spec::PER_LAYER
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name,
                    obj(vec![("value", num(v)), ("unit", Json::Str(m.unit.into()))]),
                )
            })
            .collect();
        obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", num(self.attempted.max(1) as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }
}

/// Time one isolated stage as a span and record its cost under `name`.
fn stage(
    report: &mut TracedReport,
    log: &mut SpanLog,
    name: &'static str,
    f: impl FnOnce() -> f64,
) -> f64 {
    let (ns, _) = log.time(&format!("isolated.{name}"), None, f);
    report.set(name, ns);
    ns
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run_traced(workload: &str, seed: u64, seconds: f64) -> Result<TracedReport, String> {
    let scenario = workloads::scenario(workload, seed)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let expected = Expected::load()?;
    let mut report = TracedReport::default();
    let mut log = SpanLog::new(workload);
    let flows = f64::from(scenario.flow_count());

    // ---- core: set-up, span pass -------------------------------------
    let mut setup_samples = Vec::new();
    time_setup_batch(&scenario, &mut setup_samples)?;
    let setup_secs = crate::stats::low_quartile(&setup_samples);
    let span = span_pass(workload, &scenario, setup_secs, &mut log)?;
    if let Some(pinned) = expected.get(workload, scenario.seed) {
        let diff = mismatch(pinned, &span.summary);
        report.check(diff.is_none(), || {
            format!("span pass differs from expected.json: {}", diff.unwrap())
        });
    } else {
        report.attempted += 1;
    }
    report.set("core.setup.ns_per_flow", setup_secs * 1e9 / flows);
    report.set("core.slices", span.slices as f64);
    report.set("core.collect_s", span.collect_secs);
    report.set(
        "core.nondispatch_frac",
        1.0 - ratio(span.slices_secs, span.wall_secs),
    );
    report.set(
        "core.outcome_json.ns_per_flow",
        span.outcome_json_secs * 1e9 / flows,
    );

    // ---- observers: the observed workload against its unobserved twin --
    report.set("trace.records", span.artifacts.trace_records as f64);
    report.set("trace.bytes", span.artifacts.trace_bytes as f64);
    report.set("timeline.rows", span.artifacts.timeline_rows as f64);
    report.set("observers.wall_ratio", 0.0);
    // What the engine pass's dispatch time is compared with for
    // `trace_overhead_frac`: the slices of an *unobserved* run.
    let mut plain_slices_secs = span.slices_secs;
    if workloads::is_observed(workload) {
        let t0 = Instant::now();
        let mut last = t0;
        let plain = catch_unwind(AssertUnwindSafe(|| {
            compat::summarize(compat::run_sliced(&scenario, |_| last = Instant::now()))
        }));
        let plain_secs = t0.elapsed().as_secs_f64();
        match plain {
            Ok(plain) => {
                plain_slices_secs = (last - t0).as_secs_f64() - setup_secs;
                let diff = mismatch(&plain, &span.summary);
                report.check(diff.is_none(), || {
                    format!(
                        "observed outcome differs from unobserved: {}",
                        diff.unwrap()
                    )
                });
                report.set("observers.wall_ratio", ratio(span.wall_secs, plain_secs));
            }
            Err(panic) => report.check(false, || {
                format!("unobserved twin failed: {}", panic_text(panic))
            }),
        }
        let _ = std::fs::remove_dir_all(scratch_dir());
    }

    // ---- dispatch, sim, net, topo, tcp, cca: engine pass ----------------
    let engine = engine_pass(&scenario, &mut log)?;
    let s = &engine.in_situ;
    report.check(s.events == span.summary.events, || {
        format!(
            "engine pass processed {} events, the end-to-end run {}",
            s.events, span.summary.events
        )
    });
    // Per-kind cost, as sampled. The timer's own correction is calibrated
    // on trivial events; on memory-bound workloads a timed event loses more
    // than that (the clock reads fence the pipeline, so its cache misses
    // cannot overlap its neighbours'), so the per-kind totals can overshoot
    // the engine pass's wall clock. `dispatch.coverage_frac` says by how much.
    let t = engine.timer.totals();
    let names = [
        ("dispatch.data.events", "dispatch.data.ns_per_event"),
        ("dispatch.ack.events", "dispatch.ack.ns_per_event"),
        ("dispatch.timer.events", "dispatch.timer.ns_per_event"),
    ];
    for (k, (events, ns)) in names.into_iter().enumerate() {
        report.set(events, s.kind_events[k] as f64);
        report.set(ns, t[k].ns_per_event());
    }
    let in_situ_secs: Vec<f64> = t.iter().map(|k| k.estimated_secs()).collect();
    let in_situ_total: f64 = in_situ_secs.iter().sum();
    let coverage = ratio(in_situ_total, engine.dispatch_secs);
    report.set("dispatch.coverage_frac", coverage);
    if (coverage - 1.0).abs() > FINDING_THRESHOLD {
        report.findings.push(format!(
            "dispatch.coverage_frac = {coverage:.3}: per-kind in-situ times sum to {in_situ_total:.3} s against {:.3} s of engine-pass dispatch",
            engine.dispatch_secs
        ));
    }

    let events = s.events as f64;
    report.set("sim.events", events);
    report.set("sim.max_pending", s.max_pending as f64);
    report.set(
        "sim.wheel.cascaded_per_event",
        ratio(s.wheel_cascaded_entries as f64, events),
    );
    report.set(
        "sim.wheel.cancel_miss_frac",
        ratio(
            s.wheel_cancel_misses as f64,
            (s.wheel_cancels + s.wheel_cancel_misses) as f64,
        ),
    );
    report.set(
        "sim.batch.mean_events",
        ratio(events, s.wheel_batches as f64),
    );
    report.set("sim.wheel.bytes_per_flow", s.wheel_bytes as f64 / flows);

    let [link, router, sender, receiver] = s.cell_events;
    report.set("net.link.data_events", link[0] as f64);
    report.set("net.link.timer_events", link[2] as f64);
    report.set(
        "net.link.events_per_tx_pkt",
        ratio((link[0] + link[1] + link[2]) as f64, s.link_tx_pkts as f64),
    );
    report.set("net.link.drops", s.link_drops as f64);
    report.set("net.link.ce_marks", s.link_ce_marks as f64);
    report.set("net.link.max_queue_bytes", s.link_max_queue_bytes as f64);
    report.set("net.links.bytes_per_flow", s.links_bytes as f64 / flows);
    report.set(
        "topo.router.events",
        (router[0] + router[1] + router[2]) as f64,
    );
    report.set(
        "topo.hops_per_pkt",
        ratio(link[0] as f64, s.data_pkts_sent as f64),
    );
    report.set("tcp.sender.ack_events", sender[1] as f64);
    report.set("tcp.sender.timer_events", sender[2] as f64);
    report.set("tcp.receiver.data_events", receiver[0] as f64);
    report.set("tcp.receiver.timer_events", receiver[2] as f64);
    report.set("tcp.retransmits", s.retransmits as f64);
    report.set("tcp.rtos", s.rtos as f64);
    report.set("tcp.fast_recoveries", s.fast_recoveries as f64);
    report.set(
        "tcp.acks_per_data_pkt",
        ratio(s.acks_sent as f64, s.data_pkts_received as f64),
    );
    report.set("tcp.senders.bytes_per_flow", s.senders_bytes as f64 / flows);
    report.set("tcp.slab.bytes_per_flow", s.slab_bytes as f64 / flows);

    let cca_ns = ratio(engine.cca.nanos as f64, engine.cca.samples as f64);
    let cca_share = ratio(cca_ns * engine.cca.calls as f64 / 1e9, in_situ_secs[1]);
    report.set("cca.calls", engine.cca.calls as f64);
    report.set("cca.ns_per_call", cca_ns);
    report.set("cca.share_of_ack_frac", cca_share);

    // A plain run's slices include the runner's per-slice bookkeeping, so
    // the ratio slightly understates what the timers and the CCA wrapper add.
    report.set(
        "trace_overhead_frac",
        ratio(engine.dispatch_secs, plain_slices_secs) - 1.0,
    );

    // ---- isolated stages -------------------------------------------------
    let sizing = Sizing {
        flows: s.flows,
        links: scenario.topology_description().links.len() as u64,
        max_pending: s.max_pending,
        window_segments: engine.ack_weighted_window.round().max(1.0) as u64,
        loss_every: s.link_arrivals.checked_div(s.link_drops).unwrap_or(0),
        drops: s.link_drops,
        mss: scenario.mss,
        rate: scenario.bottleneck,
        aqm: scenario.aqm,
        ecn: scenario.ecn,
        tx_burst: scenario.tuning.tx_burst,
        delack_segments: scenario.tuning.delack_segments,
        seed,
    };
    let stage_budget = Duration::from_secs_f64((seconds * 0.006).clamp(0.005, 0.2));
    let b = stage_budget;
    stage(
        &mut report,
        &mut log,
        "sim.dispatch.ns_per_event_floor",
        || isolated::dispatch_floor(&sizing, b),
    );
    let pop_push = stage(&mut report, &mut log, "sim.wheel.ns_per_pop_push", || {
        isolated::wheel_pop_push(&sizing, b)
    });
    stage(
        &mut report,
        &mut log,
        "sim.wheel.ns_per_cancel_rearm",
        || isolated::wheel_cancel_rearm(&sizing, b, pop_push),
    );
    let (baseline, _) = log.time("isolated.storm_baseline", None, || {
        isolated::storm_baseline(&sizing, b)
    });
    let mut link_costs = isolated::LinkCosts::default();
    stage(&mut report, &mut log, "net.link.ns_per_pkt_tx", || {
        link_costs = isolated::link_tx(&sizing, b, baseline);
        link_costs.per_pkt_ns
    });
    stage(&mut report, &mut log, "net.link.ns_per_pkt_dropped", || {
        isolated::link_dropped(&sizing, b, baseline)
    });
    stage(
        &mut report,
        &mut log,
        "net.aqm.droptail_boxed.ns_per_pkt",
        || isolated::aqm_per_pkt(&sizing, AqmKind::DropTail, b, baseline),
    );
    stage(&mut report, &mut log, "net.aqm.red.ns_per_pkt", || {
        isolated::aqm_per_pkt(&sizing, AqmKind::Red, b, baseline)
    });
    stage(&mut report, &mut log, "net.aqm.codel.ns_per_pkt", || {
        isolated::aqm_per_pkt(&sizing, AqmKind::Codel, b, baseline)
    });
    stage(&mut report, &mut log, "net.aqm.pie.ns_per_pkt", || {
        isolated::aqm_per_pkt(&sizing, AqmKind::Pie, b, baseline)
    });
    let router_ns = stage(&mut report, &mut log, "topo.router.ns_per_pkt", || {
        isolated::router_per_pkt(&sizing, b, baseline)
    });
    let ack_clean = stage(&mut report, &mut log, "tcp.sender.ns_per_ack_clean", || {
        isolated::sender_per_ack(&sizing, false, b)
    });
    let ack_recovery = stage(
        &mut report,
        &mut log,
        "tcp.sender.ns_per_ack_recovery",
        || isolated::sender_per_ack(&sizing, true, b),
    );
    let rto_ns = stage(&mut report, &mut log, "tcp.sender.ns_per_rto", || {
        isolated::sender_per_rto(&sizing, b)
    });
    let seg_inorder = stage(
        &mut report,
        &mut log,
        "tcp.receiver.ns_per_seg_inorder",
        || isolated::receiver_per_seg(&sizing, false, b),
    );
    let seg_ooo = stage(&mut report, &mut log, "tcp.receiver.ns_per_seg_ooo", || {
        isolated::receiver_per_seg(&sizing, true, b)
    });
    stage(
        &mut report,
        &mut log,
        "tcp.scoreboard.ns_per_ack_clean",
        || isolated::scoreboard_clean(&sizing, b),
    );
    stage(
        &mut report,
        &mut log,
        "tcp.scoreboard.ns_per_ack_sack_64",
        || isolated::scoreboard_sack(&sizing, 64, b),
    );
    stage(
        &mut report,
        &mut log,
        "tcp.scoreboard.ns_per_ack_sack_1024",
        || isolated::scoreboard_sack(&sizing, 1024, b),
    );
    stage(
        &mut report,
        &mut log,
        "tcp.scoreboard.ns_per_ack_sack_8192",
        || isolated::scoreboard_sack(&sizing, 8192, b),
    );
    let mut cca_isolated = [0.0; 4];
    for (i, (kind, name)) in CCA_KINDS
        .iter()
        .zip([
            "cca.reno.ns_per_ack",
            "cca.cubic.ns_per_ack",
            "cca.bbr.ns_per_ack",
            "cca.vegas.ns_per_ack",
        ])
        .enumerate()
    {
        cca_isolated[i] = stage(&mut report, &mut log, name, || {
            isolated::cca_per_ack(&sizing, *kind, b)
        });
    }
    stage(&mut report, &mut log, "analysis.jfi.ns_per_flow", || {
        isolated::jfi_per_flow(&sizing, b)
    });
    stage(
        &mut report,
        &mut log,
        "analysis.burstiness.ns_per_drop",
        || isolated::burstiness_per_drop(&sizing, b),
    );
    stage(&mut report, &mut log, "trace.ns_per_record", || {
        isolated::trace_per_record(&sizing, b)
    });
    stage(&mut report, &mut log, "trace.export.ns_per_record", || {
        isolated::trace_export_per_record(&sizing, b)
    });
    stage(&mut report, &mut log, "timeline.ns_per_row_flow", || {
        isolated::timeline_per_row_flow(&sizing, b)
    });
    stage(
        &mut report,
        &mut log,
        "telemetry.registry.ns_per_inc",
        || isolated::registry_per_inc(b),
    );
    stage(&mut report, &mut log, "prof.ns_per_event", || {
        isolated::prof_per_event(&sizing, b)
    });

    // ---- resume (core5k_droptail only), campaign -------------------------
    for name in [
        "resume.checkpoint.bytes_per_flow",
        "resume.capture.ns_per_flow",
        "resume.restore.ns_per_flow",
    ] {
        report.set(name, 0.0);
    }
    if workload == "core5k_droptail" {
        let (costs, _) = log.time("resume.capture_and_restore", None, || {
            compat::checkpoint_costs(&scenario, setup_secs)
        });
        match costs {
            Ok(c) => {
                report.check(c.restore_exact, || {
                    "resumed run did not reproduce the donor's digest".into()
                });
                report.set("resume.checkpoint.bytes_per_flow", c.bytes as f64 / flows);
                report.set("resume.capture.ns_per_flow", c.capture_secs * 1e9 / flows);
                report.set("resume.restore.ns_per_flow", c.restore_secs * 1e9 / flows);
            }
            Err(e) => report.check(false, || format!("checkpoint pass failed: {e}")),
        }
    }
    let (campaign, _) = log.time("campaign.trivial", None, || {
        compat::campaign_costs(stage_budget.as_secs_f64())
    });
    report.check(campaign.jobs_ok, || "a trivial campaign job failed".into());
    report.set(
        "campaign.ledger.ns_per_entry",
        campaign.ledger_nanos_per_entry,
    );
    report.set(
        "campaign.overhead_s_per_job",
        campaign.overhead_secs_per_job,
    );

    // ---- reconciliation ---------------------------------------------------
    // Σ exact count × isolated cost, per kind. The model (README, "How the
    // layers add up") in one place:
    let cca_mix: f64 = (0..4)
        .map(|i| cca_isolated[i] * s.cca_flows[i] as f64)
        .sum::<f64>()
        / s.flows.max(1) as f64;
    let ooo_frac = ratio(s.ooo_pkts as f64, s.data_pkts_received as f64);
    let sack_frac = ratio(s.sack_acks_sent as f64, s.acks_sent as f64);
    let seg_ns = seg_inorder * (1.0 - ooo_frac) + seg_ooo * ooo_frac;
    let ack_ns = ack_clean * (1.0 - sack_frac) + ack_recovery * sack_frac + cca_mix;
    let predicted = [
        // data: link arrivals, router hops, receiver segments
        (link[0] as f64 * link_costs.data_ns()
            + router[0] as f64 * router_ns
            + receiver[0] as f64 * seg_ns)
            / 1e9,
        // ack: sender ACK processing (ACKs crossing links or routers only
        // exist on asymmetric topologies, which no workload uses)
        (sender[1] as f64 * ack_ns + (link[1] + router[1]) as f64 * link_costs.data_ns()) / 1e9,
        // timer: link serialization-done, RTOs, other sender timers (pacing
        // releases and starts, charged as a clean ACK's transmit half),
        // receiver delayed-ACK timers (charged as an in-order segment)
        (link[2] as f64 * link_costs.timer_ns
            + s.rtos as f64 * rto_ns
            + sender[2].saturating_sub(s.rtos) as f64 * ack_clean / 2.0
            + receiver[2] as f64 * seg_inorder)
            / 1e9,
    ];
    let predicted_total: f64 = predicted.iter().sum();
    let residual = |measured: f64, predicted: f64| ratio(measured - predicted, measured);
    report.set("layers.predicted_dispatch_s", predicted_total);
    report.set(
        "layers.residual_frac",
        residual(in_situ_total, predicted_total),
    );
    report.set(
        "layers.residual.data_frac",
        residual(in_situ_secs[0], predicted[0]),
    );
    report.set(
        "layers.residual.ack_frac",
        residual(in_situ_secs[1], predicted[1]),
    );
    report.set(
        "layers.residual.timer_frac",
        residual(in_situ_secs[2], predicted[2]),
    );
    let total_residual = residual(in_situ_total, predicted_total);
    if total_residual.abs() > FINDING_THRESHOLD {
        let worst = (0..3)
            .max_by(|&a, &b| {
                (in_situ_secs[a] - predicted[a])
                    .abs()
                    .total_cmp(&(in_situ_secs[b] - predicted[b]).abs())
            })
            .unwrap_or(0);
        report.findings.push(format!(
            "layers.residual_frac = {total_residual:.3}: isolated costs predict {predicted_total:.3} s of {in_situ_total:.3} s in-situ dispatch; largest gap in {} events ({:.3} s measured, {:.3} s predicted)",
            KINDS[worst], in_situ_secs[worst], predicted[worst]
        ));
    }
    let cca_of_wall = ratio(cca_ns * engine.cca.calls as f64 / 1e9, span.wall_secs);
    if workload == "core5k_droptail" && cca_of_wall >= 0.05 {
        report.findings.push(format!(
            "CCA calls take {:.1} % of wall_s on core5k_droptail (expected < 5 %)",
            cca_of_wall * 100.0
        ));
    }

    // ---- span file ----------------------------------------------------------
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, log.to_json().render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report
        .notes
        .push(format!("spans written to {}", path.display()));

    debug_assert_eq!(report.metrics.len(), spec::PER_LAYER.len());
    Ok(report)
}
