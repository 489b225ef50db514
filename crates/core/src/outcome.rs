//! Experiment results and the derived quantities the paper reports.

use ccsim_analysis::mathis::FlowObservation;
use ccsim_analysis::{group_share, jain_fairness_index};
use ccsim_cca::CcaKind;
use ccsim_sim::json::JsonWriter;
use ccsim_sim::{Bandwidth, Fnv1a, SimDuration, SimTime};
use ccsim_telemetry::FlowMetrics;
use ccsim_trace::RunTrace;
use std::io;
use std::path::{Path, PathBuf};

/// Which interpretation of the Mathis `p` parameter to evaluate (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PInterpretation {
    /// `p` = packet loss rate measured at the bottleneck queue.
    PacketLoss,
    /// `p` = CWND halving (congestion event) rate from end-host state.
    CwndHalving,
}

/// Defined beside [`FlowMetrics`] so the run manifest can embed it; this
/// is its historical path.
pub use ccsim_telemetry::BottleneckMetrics;

/// The complete result of one scenario run.
///
/// `Debug` is hand-written because [`RunOutcome::digest`] hashes the
/// `Debug` representation (with `trace` as `None`; the trace is hashed as
/// its `.cctr` bytes after it): `bottlenecks` is printed **only when
/// non-empty**, so outcomes of configurations that predate the topology
/// subsystem keep their exact historical digests.
#[derive(Clone)]
pub struct RunOutcome {
    /// Scenario label.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// MSS used.
    pub mss: u32,
    /// Bottleneck bandwidth.
    pub bottleneck: Bandwidth,
    /// Per-flow measurement records (window-scoped).
    pub flows: Vec<FlowMetrics>,
    /// Per-flow CCA kinds.
    pub flow_cca: Vec<CcaKind>,
    /// Length of the measurement window.
    pub measured_for: SimDuration,
    /// Whether the convergence rule stopped the run early.
    pub converged: bool,
    /// Final simulated instant.
    pub ended_at: SimTime,
    /// Aggregate packet loss rate at the bottleneck over the window.
    pub aggregate_loss_rate: f64,
    /// Goh–Barabási burstiness of the window's drop train, if computable.
    pub drop_burstiness: Option<f64>,
    /// Peak queue occupancy observed in the window (bytes).
    pub max_queue_bytes: u64,
    /// Total engine events processed (performance diagnostics).
    pub events_processed: u64,
    /// The assembled flight-recorder trace, when the scenario enabled
    /// tracing (see [`ccsim_trace::TraceConfig`]).
    pub trace: Option<RunTrace>,
    /// Per-bottleneck measurements. Empty for the legacy configuration
    /// (single drop-tail bottleneck, no ECN); populated for multi-link
    /// topologies and AQM/ECN runs.
    pub bottlenecks: Vec<BottleneckMetrics>,
}

impl std::fmt::Debug for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_with_trace(f, &self.trace)
    }
}

/// An outcome's `Debug` text with `trace` printed as `None` — the first
/// part of [`RunOutcome::digest`], rendered without cloning the outcome.
struct Untraced<'a>(&'a RunOutcome);

impl std::fmt::Debug for Untraced<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt_with_trace(f, &None)
    }
}

impl RunOutcome {
    fn fmt_with_trace(
        &self,
        f: &mut std::fmt::Formatter<'_>,
        trace: &Option<RunTrace>,
    ) -> std::fmt::Result {
        let mut d = f.debug_struct("RunOutcome");
        d.field("scenario", &self.scenario)
            .field("seed", &self.seed)
            .field("mss", &self.mss)
            .field("bottleneck", &self.bottleneck)
            .field("flows", &self.flows)
            .field("flow_cca", &self.flow_cca)
            .field("measured_for", &self.measured_for)
            .field("converged", &self.converged)
            .field("ended_at", &self.ended_at)
            .field("aggregate_loss_rate", &self.aggregate_loss_rate)
            .field("drop_burstiness", &self.drop_burstiness)
            .field("max_queue_bytes", &self.max_queue_bytes)
            .field("events_processed", &self.events_processed)
            .field("trace", trace);
        // Digest stability: present only when populated (see type docs).
        if !self.bottlenecks.is_empty() {
            d.field("bottlenecks", &self.bottlenecks);
        }
        d.finish()
    }
}

impl RunOutcome {
    /// Per-flow throughputs in bytes/sec.
    pub fn throughputs(&self) -> Vec<f64> {
        self.flows
            .iter()
            .map(|f| f.throughput_bytes_per_sec)
            .collect()
    }

    /// Aggregate throughput in Mbps.
    pub fn aggregate_throughput_mbps(&self) -> f64 {
        self.flows.iter().map(|f| f.throughput_mbps()).sum()
    }

    /// Bottleneck utilization in the window (aggregate goodput / capacity).
    pub fn utilization(&self) -> f64 {
        let total: f64 = self.flows.iter().map(|f| f.throughput_bytes_per_sec).sum();
        total / self.bottleneck.as_bytes_per_sec()
    }

    /// Jain's Fairness Index across all flows.
    pub fn jain_index(&self) -> Option<f64> {
        jain_fairness_index(&self.throughputs())
    }

    /// Jain's Fairness Index across the flows of one CCA.
    pub fn jain_index_for(&self, cca: CcaKind) -> Option<f64> {
        let xs: Vec<f64> = self
            .flows
            .iter()
            .zip(&self.flow_cca)
            .filter(|(_, &k)| k == cca)
            .map(|(f, _)| f.throughput_bytes_per_sec)
            .collect();
        jain_fairness_index(&xs)
    }

    /// Fraction of total throughput taken by the flows of one CCA
    /// (the Figures 5–8 metric).
    pub fn share_of(&self, cca: CcaKind) -> Option<f64> {
        group_share(&self.throughputs(), |i| self.flow_cca[i] == cca)
    }

    /// Number of flows of `cca`.
    pub fn count_of(&self, cca: CcaKind) -> usize {
        self.flow_cca.iter().filter(|&&k| k == cca).count()
    }

    /// Mathis-model observations for the flows of `cca` under the given
    /// `p` interpretation. Flows that recorded no events under the chosen
    /// interpretation produce `p = 0` and are skipped by the fitter.
    pub fn mathis_observations(&self, cca: CcaKind, p: PInterpretation) -> Vec<FlowObservation> {
        self.flows
            .iter()
            .zip(&self.flow_cca)
            .filter(|(_, &k)| k == cca)
            .map(|(f, _)| FlowObservation {
                throughput_bytes_per_sec: f.throughput_bytes_per_sec,
                rtt_secs: f.base_rtt_secs,
                p: match p {
                    PInterpretation::PacketLoss => f.loss_rate(),
                    PInterpretation::CwndHalving => f.halving_rate(self.mss),
                },
                mss_bytes: self.mss as f64,
            })
            .collect()
    }

    /// Aggregate packet-loss to CWND-halving ratio (the Figure 3 metric):
    /// total window drops at the queue over total congestion events.
    pub fn loss_to_halving_ratio(&self) -> Option<f64> {
        let drops: u64 = self.flows.iter().map(|f| f.queue_drops).sum();
        let halvings: u64 = self.flows.iter().map(|f| f.congestion_events).sum();
        if halvings == 0 {
            return None;
        }
        Some(drops as f64 / halvings as f64)
    }

    /// Mean per-flow throughput in Mbps.
    pub fn mean_throughput_mbps(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        self.aggregate_throughput_mbps() / self.flows.len() as f64
    }

    /// Start of the measurement window (the warm-up boundary).
    pub fn window_start(&self) -> SimTime {
        self.ended_at - self.measured_for
    }

    /// Loss-event synchronization index of the recorded trace over the
    /// measurement window. `None` without a trace or without events.
    pub fn trace_synchronization_index(&self, bin: SimDuration) -> Option<f64> {
        let trace = self.trace.as_ref()?;
        ccsim_analysis::trace_synchronization_index(trace, self.window_start(), self.ended_at, bin)
    }

    /// Burstiness of the recorded bottleneck drop train, restricted to
    /// the measurement window so it is comparable to
    /// [`RunOutcome::drop_burstiness`] (the trace itself also covers
    /// warm-up). `None` without a trace or with too few drops.
    pub fn trace_drop_burstiness(&self) -> Option<f64> {
        let trace = self.trace.as_ref()?;
        let start = self.window_start();
        let times: Vec<SimTime> = trace
            .drop_times()
            .into_iter()
            .filter(|&t| t >= start)
            .collect();
        ccsim_analysis::burstiness(&times)
    }

    /// Canonical single-line JSON export. This is what `ccsim --json`
    /// prints and what CI smoke checks parse. Derived quantities are
    /// rounded to a fixed number of decimals (the full-precision record is
    /// the digest); `bottlenecks` appears only when populated, keeping the
    /// legacy document shape byte-for-byte for legacy configurations.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(320 + 96 * self.flows.len());
        JsonWriter::compact(&mut out).obj(|w| {
            w.key("scenario").str(&self.scenario);
            w.key("seed").u64(self.seed);
            w.key("aggregate_mbps")
                .fixed(self.aggregate_throughput_mbps(), 4);
            w.key("utilization").fixed(self.utilization(), 6);
            w.key("loss_rate").fixed(self.aggregate_loss_rate, 8);
            w.key("jfi").opt(self.jain_index(), |w, v| w.fixed(v, 6));
            w.key("burstiness")
                .opt(self.drop_burstiness, |w, v| w.fixed(v, 4));
            w.key("events_processed").u64(self.events_processed);
            w.key("max_queue_bytes").u64(self.max_queue_bytes);
            w.key("converged").bool(self.converged);
            if !self.bottlenecks.is_empty() {
                w.key("bottlenecks").arr(&self.bottlenecks, |w, b| {
                    w.obj(|w| {
                        w.key("link").u64(b.link.into());
                        w.key("label").str(&b.label);
                        w.key("utilization").fixed(b.utilization, 6);
                        w.key("jfi").opt(b.jfi, |w, v| w.fixed(v, 6));
                        w.key("loss_rate").fixed(b.loss_rate, 8);
                        w.key("max_queue_bytes").u64(b.max_queue_bytes);
                        w.key("ce_marked").u64(b.ce_marked_pkts);
                    })
                });
            }
            w.key("flows").arr(&self.flows, |w, f| {
                w.obj(|w| {
                    w.key("flow").u64(f.flow.into());
                    w.key("cca").str(&f.cca);
                    w.key("mbps").fixed(f.throughput_mbps(), 4);
                    w.key("events").u64(f.congestion_events);
                    w.key("rtx").u64(f.retransmits);
                    w.key("drops").u64(f.queue_drops);
                })
            });
        });
        out
    }

    /// FNV-1a digest of the outcome at full precision. Two runs with equal
    /// digests produced identical results; the observability layer's
    /// inertness guarantee is stated in terms of this value.
    ///
    /// The hash streams over the `Debug` text with `trace` printed as
    /// `None` (every float participates bit-exactly) and, when a trace is
    /// present, continues over exactly the bytes
    /// [`ccsim_trace::write_binary`] writes for it — nanosecond-exact
    /// times, 29 bytes a record. Nothing is rendered into memory, and an
    /// untraced outcome hashes the same bytes as `format!("{self:?}")`.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut h = Fnv1a::new();
        write!(h, "{:?}", Untraced(self)).expect("hashing text cannot fail");
        if let Some(trace) = &self.trace {
            // The sink never fails, and `write_binary` refuses only a
            // scenario name over 65535 bytes, which `Scenario::validate`
            // rejects before any run starts.
            ccsim_trace::write_binary(trace, &mut h).expect("a run's trace always encodes");
        }
        h.finish()
    }

    /// Export the recorded trace next to `prefix`: `<prefix>.jsonl` when
    /// `jsonl` is set, `<prefix>.cctr` (columnar binary) when `binary`
    /// is set. Returns the paths written — empty when the run recorded
    /// no trace.
    pub fn export_trace(
        &self,
        prefix: &Path,
        jsonl: bool,
        binary: bool,
    ) -> io::Result<Vec<PathBuf>> {
        let Some(trace) = &self.trace else {
            return Ok(Vec::new());
        };
        let mut written = Vec::new();
        if jsonl {
            let path = prefix.with_extension("jsonl");
            let file = std::fs::File::create(&path)?;
            ccsim_trace::write_jsonl(trace, io::BufWriter::new(file))?;
            written.push(path);
        }
        if binary {
            let path = prefix.with_extension("cctr");
            let file = std::fs::File::create(&path)?;
            ccsim_trace::write_binary(trace, io::BufWriter::new(file))?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(cca: &str, tput: f64, drops: u64, events: u64) -> FlowMetrics {
        FlowMetrics {
            flow: 0,
            cca: cca.into(),
            base_rtt_secs: 0.02,
            throughput_bytes_per_sec: tput,
            delivered_bytes: (tput * 10.0) as u64,
            data_pkts_sent: 1000,
            retransmits: 10,
            congestion_events: events,
            rtos: 0,
            queue_drops: drops,
            queue_arrivals: 1000,
        }
    }

    fn outcome() -> RunOutcome {
        RunOutcome {
            scenario: "test".into(),
            seed: 0,
            mss: 1448,
            bottleneck: Bandwidth::from_mbps(100),
            flows: vec![
                flow("reno", 4_000_000.0, 20, 5),
                flow("reno", 4_000_000.0, 20, 5),
                flow("cubic", 2_000_000.0, 10, 2),
                flow("cubic", 2_000_000.0, 10, 3),
            ],
            flow_cca: vec![CcaKind::Reno, CcaKind::Reno, CcaKind::Cubic, CcaKind::Cubic],
            measured_for: SimDuration::from_secs(10),
            converged: true,
            ended_at: SimTime::from_secs(30),
            aggregate_loss_rate: 0.015,
            drop_burstiness: Some(0.3),
            max_queue_bytes: 1_000_000,
            events_processed: 12345,
            trace: None,
            bottlenecks: Vec::new(),
        }
    }

    #[test]
    fn shares_and_counts() {
        let o = outcome();
        assert!((o.share_of(CcaKind::Reno).unwrap() - 8.0 / 12.0).abs() < 1e-12);
        assert!((o.share_of(CcaKind::Cubic).unwrap() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(o.count_of(CcaKind::Reno), 2);
        assert_eq!(o.count_of(CcaKind::Bbr), 0);
    }

    #[test]
    fn jain_indices() {
        let o = outcome();
        // Within each CCA, flows are equal: JFI = 1.
        assert!((o.jain_index_for(CcaKind::Reno).unwrap() - 1.0).abs() < 1e-12);
        // Across all four (4,4,2,2 M): JFI = 144/(4*40) = 0.9.
        assert!((o.jain_index().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn utilization_and_aggregates() {
        let o = outcome();
        // 12 MB/s over 12.5 MB/s capacity.
        assert!((o.utilization() - 0.96).abs() < 1e-12);
        assert!((o.aggregate_throughput_mbps() - 96.0).abs() < 1e-9);
        assert!((o.mean_throughput_mbps() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn mathis_observations_pick_interpretation() {
        let o = outcome();
        let loss = o.mathis_observations(CcaKind::Reno, PInterpretation::PacketLoss);
        assert_eq!(loss.len(), 2);
        assert!((loss[0].p - 0.02).abs() < 1e-12); // 20/1000
        let halving = o.mathis_observations(CcaKind::Reno, PInterpretation::CwndHalving);
        // 5 events / (40 MB / 1448 B) packets.
        let expected = 5.0 / (4_000_000.0 * 10.0 / 1448.0);
        assert!((halving[0].p - expected).abs() < 1e-12);
    }

    #[test]
    fn loss_to_halving_ratio() {
        let o = outcome();
        // (20+20+10+10) / (5+5+2+3) = 60/15 = 4.
        assert!((o.loss_to_halving_ratio().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bottlenecks_stay_out_of_debug_and_json() {
        // Digest stability: outcomes with no per-bottleneck records must
        // render exactly as they did before the field existed.
        let o = outcome();
        assert!(!format!("{o:?}").contains("bottlenecks"));
        assert!(!o.to_json().contains("bottlenecks"));

        let mut with = outcome();
        with.bottlenecks.push(BottleneckMetrics {
            link: 1,
            label: "bn1".into(),
            utilization: 0.93,
            jfi: Some(0.88),
            loss_rate: 0.002,
            max_queue_bytes: 500_000,
            ce_marked_pkts: 42,
        });
        let dbg = format!("{with:?}");
        assert!(dbg.contains("bottlenecks"));
        assert_ne!(o.digest(), with.digest());
        let json = with.to_json();
        assert!(json.contains("\"bottlenecks\":[{\"link\":1,\"label\":\"bn1\""));
        assert!(json.contains("\"ce_marked\":42"));
        // The legacy keys keep their relative order either way.
        let legacy = o.to_json();
        assert!(legacy.find("\"converged\"").unwrap() < legacy.find("\"flows\"").unwrap());
    }
}
