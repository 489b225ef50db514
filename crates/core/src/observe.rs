//! Self-observability for runs: metric attachment, harvesting, and the
//! per-run artifacts (Prometheus dump + manifest).
//!
//! An *observed* run is an ordinary run with instruments attached:
//! registry-backed metric handles on the bottleneck link and the senders,
//! an event classifier on the engine, and wall-clock profiling spans
//! around the runner's phases. Observation is **provably inert** — the
//! enablement lives here, outside [`Scenario`], so the simulated
//! configuration is bit-identical with and without it, and the metric
//! primitives only touch their own atomics, never simulation state. The
//! integration tests assert that a metrics-on run and a metrics-off run
//! of the same (scenario, seed) produce identical [`RunOutcome`] digests.
//!
//! Metric families emitted per run:
//!
//! | family | kind | meaning |
//! |---|---|---|
//! | `ccsim_events_total{kind}` | counter | engine events by data/ack/timer |
//! | `ccsim_events_pending_peak` | gauge | event-queue high-water mark |
//! | `ccsim_events_per_sec` | gauge | engine throughput, events/dispatch-sec |
//! | `ccsim_sim_wall_ratio` | gauge | sim-seconds per wall-second |
//! | `ccsim_slice_wall_nanos` | histogram | wall time per measurement slice |
//! | `ccsim_link_queue_bytes` | histogram | queue occupancy at arrivals |
//! | `ccsim_link_drop_burst_pkts` | histogram | consecutive-drop burst sizes |
//! | `ccsim_link_busy_nanos_total` | counter | serializer busy time (sim ns) |
//! | `ccsim_tcp_rtos_total` | counter | genuine RTOs, all flows |
//! | `ccsim_tcp_fast_recoveries_total` | counter | recovery entries, all flows |
//! | `ccsim_tcp_pacing_stalls_total` | counter | pacing-gate deferrals |
//! | `ccsim_phase_wall_nanos_total{phase}` | counter | runner phase wall time |
//! | `ccsim_phase_calls_total{phase}` | counter | runner phase span counts |
//!
//! With [`ObserveOptions::profile`] on, the `ccsim-prof` families join
//! the dump as well (`ccsim_prof_events_total{class,kind}`, timer-wheel
//! counters, `ccsim_mem_bytes{pool}` — see
//! [`ccsim_telemetry::export_profile_into`]).

use crate::outcome::RunOutcome;
use crate::scenario::Scenario;
use ccsim_net::link::LinkMetrics;
use ccsim_net::msg::Msg;
use ccsim_sim::{safe_rate, Fnv1a};
use ccsim_tcp::sender::SenderMetrics;
use ccsim_telemetry::manifest::{ManifestTimeline, RunManifest};
use ccsim_telemetry::prometheus::write_exposition;
use ccsim_telemetry::registry::{Counter, Gauge, Histogram, Registry};
use ccsim_telemetry::Profiler;
use ccsim_timeline::export::to_jsonl;
use ccsim_timeline::serve::LiveState;
use ccsim_timeline::{Timeline, TimelineConfig};
use std::sync::Arc;

/// Event classes for `ccsim_events_total{kind=...}`.
pub(crate) const EVENT_KINDS: [&str; 3] = ["data", "ack", "timer"];

/// Component classes for the profiler's event-attribution rows, in the
/// order the class table assigns them (see `comp_class_table`).
pub(crate) const COMPONENT_CLASSES: [&str; 4] = ["link", "router", "sender", "receiver"];

/// Classify an engine message into an [`EVENT_KINDS`] index. Installed on
/// the engine (which cannot depend on this crate) as a plain fn pointer.
pub(crate) fn classify_msg(m: &Msg) -> usize {
    match m {
        Msg::Packet(p) if p.is_data() => 0,
        Msg::Packet(_) => 1,
        Msg::Timer(_) => 2,
    }
}

/// Opt-in knobs for an observed run, beyond the always-on instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Attach the `ccsim-prof` event-attribution profiler to the engine.
    /// Digest-inert: the class-table lookup and strided `Instant` samples
    /// never touch simulation state.
    pub profile: bool,
    /// Sampling stride for the profiler's wall-clock samples: one
    /// `Instant::now()` per `stride` dispatched events. The stride is
    /// fixed, so *which* events sample is a pure function of the event
    /// stream.
    pub profile_stride: u64,
    /// Capture a windowed timeline (per-flow / per-link / aggregate
    /// series at the configured window granularity). Digest-inert: the
    /// sampler only reads component state at slice boundaries.
    pub timeline: Option<TimelineConfig>,
}

impl Default for ObserveOptions {
    fn default() -> ObserveOptions {
        ObserveOptions {
            profile: false,
            profile_stride: ccsim_prof::DEFAULT_STRIDE,
            timeline: None,
        }
    }
}

impl ObserveOptions {
    /// Options with profiling on at the default stride.
    pub fn profiled() -> ObserveOptions {
        ObserveOptions {
            profile: true,
            ..ObserveOptions::default()
        }
    }

    /// Options with timeline capture on at the default window/budget.
    pub fn timelined() -> ObserveOptions {
        ObserveOptions {
            timeline: Some(TimelineConfig::default()),
            ..ObserveOptions::default()
        }
    }
}

/// Everything attached to one observed run: the registry the metrics
/// live in, the profiler for phase spans, and the pre-registered handles
/// the runner wires into components (handles are created up front so the
/// hot path never performs a name lookup).
pub(crate) struct RunInstruments {
    /// The metric registry for this run.
    pub(crate) registry: Registry,
    /// Wall-clock profiling spans (build / warmup / measure / collect /
    /// dispatch).
    pub(crate) profiler: Profiler,
    /// Observation knobs this run was started with.
    pub(crate) options: ObserveOptions,
    pub(crate) events_kind: [Arc<Counter>; 3],
    pub(crate) pending_peak: Arc<Gauge>,
    pub(crate) events_per_sec: Arc<Gauge>,
    pub(crate) sim_wall_ratio: Arc<Gauge>,
    pub(crate) slice_wall: Arc<Histogram>,
    pub(crate) link: LinkMetrics,
    pub(crate) sender: SenderMetrics,
    /// Filled by the runner's collection phase when profiling is on
    /// (everything except `dispatch_nanos`, stamped afterwards).
    pub(crate) profile_out: std::cell::RefCell<Option<ccsim_prof::Profile>>,
    /// Encoded size of the checkpoint this run captured, if any — feeds
    /// the manifest's `checkpoint_bytes` and, under profiling, the
    /// `resume/checkpoint` memory pool.
    pub(crate) checkpoint_bytes: std::cell::Cell<u64>,
    /// The engine's event count right after a checkpoint restore (0 for a
    /// fresh run): the baseline of the manifest's `events_per_sec`, whose
    /// dispatch clock only covers the resumed segment.
    pub(crate) events_at_restore: std::cell::Cell<u64>,
    /// The windowed sampler, created by the runner once the network is
    /// built (it needs the flow/link counts) when
    /// [`ObserveOptions::timeline`] is set.
    pub(crate) timeline: std::cell::RefCell<Option<Timeline>>,
}

impl RunInstruments {
    /// Register every metric family an observed run emits and return the
    /// handles.
    pub(crate) fn with_options(options: ObserveOptions) -> RunInstruments {
        let registry = Registry::new();
        let events_kind = EVENT_KINDS.map(|kind| {
            registry.counter_with(
                "ccsim_events_total",
                "Engine events processed, by message kind",
                &[("kind", kind)],
            )
        });
        let pending_peak = registry.gauge(
            "ccsim_events_pending_peak",
            "High-water mark of the engine's pending-event queue",
        );
        let events_per_sec = registry.gauge(
            "ccsim_events_per_sec",
            "Engine events processed per wall-clock second",
        );
        let sim_wall_ratio = registry.gauge(
            "ccsim_sim_wall_ratio",
            "Simulated seconds per wall-clock second",
        );
        let slice_wall = registry.histogram(
            "ccsim_slice_wall_nanos",
            "Wall-clock nanoseconds per measurement slice",
        );
        let link = LinkMetrics {
            queue_bytes: registry.histogram(
                "ccsim_link_queue_bytes",
                "Bottleneck queue occupancy in bytes, sampled at packet arrivals",
            ),
            drop_burst_pkts: registry.histogram(
                "ccsim_link_drop_burst_pkts",
                "Sizes of consecutive-drop bursts at the bottleneck, in packets",
            ),
            busy_nanos: registry.counter(
                "ccsim_link_busy_nanos_total",
                "Simulated nanoseconds the bottleneck serializer was busy",
            ),
        };
        let sender = SenderMetrics {
            rtos: registry.counter(
                "ccsim_tcp_rtos_total",
                "Genuine retransmission timeouts across all flows",
            ),
            fast_recoveries: registry.counter(
                "ccsim_tcp_fast_recoveries_total",
                "Fast-recovery episode entries across all flows",
            ),
            pacing_stalls: registry.counter(
                "ccsim_tcp_pacing_stalls_total",
                "Transmissions deferred by the pacing gate across all flows",
            ),
        };
        RunInstruments {
            registry,
            profiler: Profiler::new(),
            options,
            events_kind,
            pending_peak,
            events_per_sec,
            sim_wall_ratio,
            slice_wall,
            link,
            sender,
            profile_out: std::cell::RefCell::new(None),
            checkpoint_bytes: std::cell::Cell::new(0),
            events_at_restore: std::cell::Cell::new(0),
            timeline: std::cell::RefCell::new(None),
        }
    }
}

/// The result of an observed run: the outcome itself plus the two
/// self-observability artifacts.
#[derive(Debug)]
pub struct ObservedRun {
    /// The ordinary run result (identical to an unobserved run's).
    pub outcome: RunOutcome,
    /// Provenance manifest for this run.
    pub manifest: RunManifest,
    /// Prometheus text-exposition dump of every metric.
    pub prometheus: String,
    /// The captured timeline when [`ObserveOptions::timeline`] was set
    /// (its summary is also embedded in the manifest).
    pub timeline: Option<Timeline>,
}

/// FNV-1a digest of a scenario's full configuration (streamed over its
/// `Debug` representation, which covers every field at full precision).
pub fn scenario_digest(scenario: &Scenario) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv1a::new();
    write!(h, "{scenario:?}").expect("hashing text cannot fail");
    h.finish()
}

impl RunInstruments {
    /// Publish the registry's current exposition (and the timeline so
    /// far, when one is being captured) into a live endpoint.
    pub(crate) fn publish_into(&self, state: &LiveState) {
        state.publish_metrics(write_exposition(&self.registry));
        if let Some(tl) = self.timeline.borrow().as_ref() {
            state.publish_timeline(to_jsonl(tl));
        }
    }

    /// Close an observed run: derive the rate gauges, export the profiler
    /// and profile into the registry, and assemble the manifest, the
    /// Prometheus dump and the captured timeline.
    pub(crate) fn finish(
        &self,
        scenario: &Scenario,
        outcome: &RunOutcome,
        wall_secs: f64,
    ) -> (RunManifest, String, Option<Timeline>) {
        let sim_secs = outcome.ended_at.as_secs_f64();
        // Engine throughput over *dispatch* time only: the runner wraps every
        // engine advance in a "dispatch" span, so build, snapshot
        // bookkeeping, and collection no longer dilute the figure.
        let dispatch_nanos = self
            .profiler
            .stats()
            .iter()
            .find(|(label, _)| *label == "dispatch")
            .map_or(0, |(_, s)| s.total_nanos);
        let dispatch_secs = dispatch_nanos as f64 / 1e9;
        // A resumed run's dispatch clock starts at the restore, so only the
        // events dispatched since then count towards its rate; the
        // manifest's `events_processed` stays the whole run's.
        let events_dispatched = outcome.events_processed - self.events_at_restore.get();
        // `safe_rate` keeps both figures finite on zero-event or
        // sub-microsecond runs (dispatch span rounds to 0 ns).
        let events_per_sec = safe_rate(events_dispatched as f64, dispatch_secs);
        let sim_wall_ratio = safe_rate(sim_secs, wall_secs);
        self.events_per_sec.set(events_per_sec);
        self.sim_wall_ratio.set(sim_wall_ratio);
        self.profiler.export_into(&self.registry);

        let mut profile = self.profile_out.borrow_mut().take();
        if let Some(p) = &mut profile {
            p.dispatch_nanos = dispatch_nanos;
            ccsim_telemetry::export_profile_into(p, &self.registry);
        }

        let prometheus = write_exposition(&self.registry);
        let timeline = self.timeline.borrow_mut().take();
        let timeline_summary = timeline.as_ref().map(|tl| {
            let s = tl.summary();
            ManifestTimeline {
                window_secs: s.window_secs,
                rows: s.rows,
                retained: s.retained,
                evicted: s.evicted,
                flows_sampled: s.flows_sampled,
                series: s.series,
                alpha: s.alpha,
                time_to_alpha_fair: s.time_to_alpha_fair,
                final_jfi: s.final_jfi,
            }
        });
        let events_by_kind = EVENT_KINDS
            .iter()
            .zip(&self.events_kind)
            .map(|(kind, counter)| (kind.to_string(), counter.get()))
            .collect();
        let manifest = RunManifest {
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            flows: scenario.flow_count(),
            config_digest: format!("{:016x}", scenario_digest(scenario)),
            outcome_digest: format!("{:016x}", outcome.digest()),
            sim_secs,
            wall_secs,
            dispatch_secs,
            sim_wall_ratio,
            events_processed: outcome.events_processed,
            events_per_sec,
            peak_queue_bytes: outcome.max_queue_bytes,
            peak_pending_events: self.pending_peak.get() as u64,
            trace_bytes: outcome.trace.as_ref().map_or(0, |t| t.wire_bytes()),
            metric_bytes: prometheus.len() as u64,
            metric_series: self.registry.len() as u64,
            converged: outcome.converged,
            checkpoint_bytes: self.checkpoint_bytes.get(),
            events_by_kind,
            bottlenecks: outcome.bottlenecks.clone(),
            profile,
            timeline: timeline_summary,
        };
        (manifest, prometheus, timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RunRequest;
    use crate::scenario::FlowGroup;
    use ccsim_cca::CcaKind;
    use ccsim_sim::{Bandwidth, SimDuration};
    use ccsim_telemetry::validate_exposition;

    fn tiny(seed: u64) -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("tiny")
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .seed(seed);
        s.bottleneck = Bandwidth::from_mbps(10);
        s.buffer_bytes = 100_000;
        s.warmup = SimDuration::from_secs(1);
        s.duration = SimDuration::from_secs(4);
        s.start_jitter = SimDuration::from_millis(100);
        s.convergence = None;
        s
    }

    fn observed(scenario: &Scenario, options: ObserveOptions) -> ObservedRun {
        RunRequest::new(scenario)
            .observe(options)
            .execute()
            .unwrap()
            .into_observed()
            .expect("observed request")
    }

    #[test]
    fn observed_run_emits_valid_artifacts() {
        let obs = observed(&tiny(5), ObserveOptions::default());
        validate_exposition(&obs.prometheus).unwrap();
        assert!(obs.prometheus.contains("ccsim_events_total{kind=\"data\"}"));
        assert!(obs.prometheus.contains("ccsim_link_queue_bytes_bucket"));
        assert!(obs.prometheus.contains("ccsim_phase_wall_nanos_total"));
        let m = &obs.manifest;
        assert_eq!(m.scenario, "tiny");
        assert_eq!(m.seed, 5);
        assert_eq!(m.flows, 2);
        assert_eq!(m.events_processed, obs.outcome.events_processed);
        assert!(m.events_processed > 0);
        assert!(m.peak_pending_events > 0);
        assert!(m.metric_series > 10);
        assert_eq!(m.metric_bytes, obs.prometheus.len() as u64);
        // Round-trip.
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(&back, m);
    }

    #[test]
    fn event_kind_counts_sum_to_events_processed() {
        let obs = observed(&tiny(6), ObserveOptions::default());
        let total: u64 = EVENT_KINDS
            .iter()
            .map(|kind| {
                let line = format!("ccsim_events_total{{kind=\"{kind}\"}} ");
                obs.prometheus
                    .lines()
                    .find(|l| l.starts_with(&line))
                    .and_then(|l| l.split_whitespace().last())
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, obs.outcome.events_processed);
    }

    #[test]
    fn metrics_are_inert_same_outcome_digest() {
        let plain = crate::request::run(&tiny(7));
        let observed = observed(&tiny(7), ObserveOptions::default());
        assert_eq!(plain.to_json(), observed.outcome.to_json());
        assert_eq!(plain.digest(), observed.outcome.digest());
        assert_eq!(
            format!("{:016x}", plain.digest()),
            observed.manifest.outcome_digest
        );
    }

    #[test]
    fn config_digest_tracks_configuration() {
        assert_eq!(scenario_digest(&tiny(1)), scenario_digest(&tiny(1)));
        assert_ne!(scenario_digest(&tiny(1)), scenario_digest(&tiny(2)));
    }

    #[test]
    fn observed_manifest_carries_per_kind_event_counts() {
        let obs = observed(&tiny(8), ObserveOptions::default());
        let m = &obs.manifest;
        assert_eq!(m.events_by_kind.len(), EVENT_KINDS.len());
        let total: u64 = m.events_by_kind.iter().map(|(_, c)| c).sum();
        assert_eq!(total, m.events_processed);
        assert!(m.dispatch_secs > 0.0);
        assert!(m.dispatch_secs <= m.wall_secs);
        // events_per_sec is events over dispatch time, not total wall.
        let implied = m.events_processed as f64 / m.dispatch_secs;
        assert!((implied - m.events_per_sec).abs() / implied < 1e-9);
        assert!(!m.eps_by_kind().is_empty());
    }

    #[test]
    fn profiling_is_digest_inert_and_fills_the_profile() {
        let plain = observed(&tiny(9), ObserveOptions::default());
        let profiled = observed(&tiny(9), ObserveOptions::profiled());
        // Byte-identical outcome with the profiler attached.
        assert_eq!(plain.outcome.to_json(), profiled.outcome.to_json());
        assert_eq!(
            plain.manifest.outcome_digest,
            profiled.manifest.outcome_digest
        );
        assert!(plain.manifest.profile.is_none());

        let p = profiled.manifest.profile.as_ref().unwrap();
        assert_eq!(p.events.total(), profiled.outcome.events_processed);
        assert_eq!(p.flows, 2);
        assert!(p.dispatch_nanos > 0);
        assert!(p.memory_total_bytes() > 0);
        let pools: Vec<&str> = p.memory.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            pools,
            [
                "net/link_queues",
                "sim/scratch",
                "sim/wheel",
                "tcp/senders",
                "trace/rings"
            ]
        );
        // Tracing was off, so the rings pool is empty but present.
        assert_eq!(
            p.memory
                .iter()
                .find(|g| g.name == "trace/rings")
                .unwrap()
                .bytes,
            0
        );
        // The profile's families joined the Prometheus dump.
        assert!(profiled.prometheus.contains("ccsim_prof_events_total"));
        assert!(profiled
            .prometheus
            .contains("ccsim_mem_bytes{pool=\"tcp/senders\"}"));
        // Manifest round-trips with the profile embedded.
        let back = RunManifest::from_json(&profiled.manifest.to_json()).unwrap();
        assert_eq!(&back, &profiled.manifest);
    }

    #[test]
    fn timeline_is_digest_inert_and_fills_the_summary() {
        let plain = observed(&tiny(11), ObserveOptions::default());
        let timelined = observed(&tiny(11), ObserveOptions::timelined());
        // Byte-identical outcome with the sampler attached.
        assert_eq!(plain.outcome.to_json(), timelined.outcome.to_json());
        assert_eq!(
            plain.manifest.outcome_digest,
            timelined.manifest.outcome_digest
        );
        assert!(plain.timeline.is_none());
        assert!(plain.manifest.timeline.is_none());

        let tl = timelined.timeline.as_ref().unwrap();
        // 1 s warm-up + 4 s duration at the default 1 s window: one
        // warm-up row plus four measurement rows.
        assert_eq!(tl.rows().pushed(), 5);
        assert_eq!(tl.sampled_flows(), 2);
        let s = timelined.manifest.timeline.as_ref().unwrap();
        assert_eq!(s.rows, 5);
        assert_eq!(s.retained, 5);
        assert_eq!(s.flows_sampled, 2);
        assert_eq!(s.series as usize, tl.columns().len());
        // Manifest round-trips with the timeline section embedded.
        let back = RunManifest::from_json(&timelined.manifest.to_json()).unwrap();
        assert_eq!(&back, &timelined.manifest);
        // The spans tile the run exactly: measurement rows (after the
        // warm-up close at 1 s) sum to the 4 s measurement phase.
        let spans: f64 = tl.rows().spans().skip(1).sum();
        assert!((spans - 4.0).abs() < 1e-9, "spans {spans}");
    }

    #[test]
    fn live_serving_publishes_both_endpoints() {
        use std::sync::Arc;
        let live = Arc::new(LiveState::new());
        let scenario = tiny(12);
        let obs = RunRequest::new(&scenario)
            .observe(ObserveOptions::timelined())
            .live(live.clone())
            .execute()
            .unwrap()
            .into_observed()
            .unwrap();
        // The final publish leaves the completed artifacts behind.
        assert_eq!(live.metrics_snapshot(), obs.prometheus);
        let jsonl = live.timeline_snapshot();
        assert!(jsonl.starts_with("{\"timeline\":"), "{jsonl}");
        assert_eq!(
            jsonl.lines().count() as u64,
            1 + obs.timeline.as_ref().unwrap().rows().len() as u64
        );
    }

    #[test]
    fn same_seed_profiles_are_identical_after_normalization() {
        let a = observed(&tiny(10), ObserveOptions::profiled());
        let b = observed(&tiny(10), ObserveOptions::profiled());
        let (pa, pb) = (
            a.manifest.profile.as_ref().unwrap().normalized(),
            b.manifest.profile.as_ref().unwrap().normalized(),
        );
        // Everything but wall time — counts, sample counts, wheel
        // internals, memory gauges — is a pure function of the event
        // stream, so the normalized JSON is byte-identical.
        assert_eq!(pa.to_json(), pb.to_json());
    }
}
