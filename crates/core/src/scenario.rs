//! Scenario definitions: the paper's EdgeScale and CoreScale settings.
//!
//! A [`Scenario`] is a complete, reproducible experiment description: the
//! bottleneck (bandwidth + drop-tail buffer), the competing flow groups
//! (CCA × count × base RTT), timing (start jitter, warm-up exclusion,
//! measurement horizon, convergence rule), and the master seed.
//!
//! Presets implement §3.1 of the paper:
//!
//! | | EdgeScale | CoreScale |
//! |---|---|---|
//! | bottleneck | 100 Mbps | 10 Gbps |
//! | buffer (≈1 BDP @ 200 ms) | 3 MB | 250 MB* |
//! | flows | 2–50 | 1000–5000 |
//!
//! *The paper sizes buffers as `bandwidth × 200 ms` but reports "375 MB"
//! for 10 Gbps (10 Gbps × 300 ms); we follow the stated 1-BDP rule
//! (250 MB at 200 ms), as EXPERIMENTS.md does, and expose the knob
//! (`buffer_bytes`).
//!
//! Time parameters default to scaled-down values (the DES is noise-free, so
//! stationary metrics emerge in simulated tens of seconds rather than the
//! paper's wall-clock hours); [`Fidelity`] presets switch between them.

use ccsim_cca::CcaKind;
use ccsim_fault::{FaultPlan, FaultPlanError, WatchdogConfig};
use ccsim_net::AqmKind;
use ccsim_sim::{Bandwidth, SimDuration, SimTime};
use ccsim_topo::{Topology, TopologyError, TopologyKind};
use ccsim_trace::TraceConfig;
use std::fmt;

/// The paper's fixed MSS.
pub const DEFAULT_MSS: u32 = ccsim_net::DEFAULT_MSS;

/// A group of identical flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowGroup {
    /// Congestion control algorithm.
    pub cca: CcaKind,
    /// Number of flows.
    pub count: u32,
    /// Base RTT.
    pub base_rtt: SimDuration,
}

impl FlowGroup {
    /// A group of `count` flows of `cca` at `base_rtt`.
    pub fn new(cca: CcaKind, count: u32, base_rtt: SimDuration) -> FlowGroup {
        FlowGroup {
            cca,
            count,
            base_rtt,
        }
    }
}

/// The paper's stopping rule: stop early once the headline metrics change
/// by less than `tolerance` between consecutive windows of
/// `window_snapshots` snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceRule {
    /// Window length, in snapshots.
    pub window_snapshots: usize,
    /// Relative-change threshold (the paper uses 1%).
    pub tolerance: f64,
}

/// Event-economy tuning: the batching knobs of the megascale overhaul.
///
/// Every non-default value changes packet/ACK timing and therefore the
/// outcome digest, so the knobs live in the scenario (hashed into the
/// config digest, printed in `Debug` only when non-default) rather than
/// being ambient engine settings. The defaults reproduce the legacy
/// per-segment behavior byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Receiver ACK decimation: one ACK per this many full-size segments
    /// (RFC 5681 delayed ACK, generalized). The legacy value is 2.
    pub delack_segments: u32,
    /// Link-side transmit batching: serialize up to this many queued
    /// packets under one timer event. 1 = one SERIALIZATION_DONE per
    /// packet (legacy).
    pub tx_burst: u32,
}

impl Default for Tuning {
    fn default() -> Tuning {
        Tuning {
            delack_segments: ccsim_tcp::receiver::DELACK_SEGMENTS,
            tx_burst: 1,
        }
    }
}

impl Tuning {
    /// True when every knob is at its legacy default (the digest-inert
    /// configuration).
    pub fn is_default(&self) -> bool {
        *self == Tuning::default()
    }
}

/// Time-parameter presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Fast CI-friendly runs (seconds of simulated time).
    Quick,
    /// Default experiment runs (tens of simulated seconds).
    Standard,
    /// Paper-faithful horizons (minutes of jitter/warm-up; use only for
    /// targeted validation — CoreScale at this fidelity simulates hours).
    Paper,
}

/// A complete experiment description.
///
/// `Debug` is hand-written (not derived) because the campaign layer's
/// `config_digest` hashes the `Debug` representation: the topology / AQM /
/// ECN fields are printed **only when non-default**, so every scenario
/// that predates them keeps its exact historical digest.
#[derive(Clone)]
pub struct Scenario {
    /// Human-readable label used in reports.
    pub name: String,
    /// Bottleneck link rate.
    pub bottleneck: Bandwidth,
    /// Drop-tail buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// Maximum segment size.
    pub mss: u32,
    /// Competing flow groups.
    pub flows: Vec<FlowGroup>,
    /// Master seed for all randomness (start jitter, BBR phases).
    pub seed: u64,
    /// Flows start uniformly at random in `[0, start_jitter)`.
    pub start_jitter: SimDuration,
    /// Measurement excludes everything before this instant (from t = 0;
    /// must cover the jitter window).
    pub warmup: SimDuration,
    /// Maximum measurement-window length (after warm-up).
    pub duration: SimDuration,
    /// Interval between delivered-bytes snapshots.
    pub snapshot_interval: SimDuration,
    /// Early-stopping rule, if any.
    pub convergence: Option<ConvergenceRule>,
    /// Flight-recorder configuration (disabled by default; see
    /// [`ccsim_trace::TraceConfig`]).
    pub trace: TraceConfig,
    /// Timed link impairments (empty by default — a plan-free scenario
    /// behaves and digests exactly as before the fault subsystem existed).
    pub fault: FaultPlan,
    /// Runtime invariant watchdog (disabled by default; checks are
    /// read-only, so enabling it never changes an outcome digest).
    pub watchdog: WatchdogConfig,
    /// Network shape ([`TopologyKind::SingleBottleneck`] by default — the
    /// paper's network, byte-identical to the pre-topology engine).
    pub topology: TopologyKind,
    /// Queue discipline on every link ([`AqmKind::DropTail`] by default).
    pub aqm: AqmKind,
    /// ECN negotiation (RFC 3168): senders mark data ECT, AQMs mark CE
    /// instead of dropping, receivers echo ECE. Off by default.
    pub ecn: bool,
    /// Event-economy knobs (ACK decimation, transmit batching). Default
    /// values are digest-inert; see [`Tuning`].
    pub tuning: Tuning,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Scenario");
        d.field("name", &self.name)
            .field("bottleneck", &self.bottleneck)
            .field("buffer_bytes", &self.buffer_bytes)
            .field("mss", &self.mss)
            .field("flows", &self.flows)
            .field("seed", &self.seed)
            .field("start_jitter", &self.start_jitter)
            .field("warmup", &self.warmup)
            .field("duration", &self.duration)
            .field("snapshot_interval", &self.snapshot_interval)
            .field("convergence", &self.convergence)
            .field("trace", &self.trace)
            .field("fault", &self.fault)
            .field("watchdog", &self.watchdog);
        // Digest stability: print only when configured (see type docs).
        if self.topology != TopologyKind::SingleBottleneck {
            d.field("topology", &self.topology);
        }
        if self.aqm != AqmKind::DropTail {
            d.field("aqm", &self.aqm);
        }
        if self.ecn {
            d.field("ecn", &self.ecn);
        }
        if !self.tuning.is_default() {
            d.field("tuning", &self.tuning);
        }
        d.finish()
    }
}

/// Most flows one scenario may hold. Each flow is two components and the
/// simulator addresses its arena with `u32`, so this leaves half the index
/// space to the topology's links and routers.
const MAX_FLOWS: u64 = 1 << 30;

/// Structured scenario-validation failure, replacing the former
/// `assert!`-based validation. `Display` keeps the old assert messages so
/// operators (and tests) recognize them.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The name is longer than a `.cctr` header can hold (a `u16` length).
    NameTooLong {
        len: usize,
    },
    NoFlows,
    /// The flow groups sum past what one simulator can address.
    TooManyFlows {
        total: u64,
        max: u64,
    },
    ZeroBandwidth,
    ZeroMss,
    /// `warmup < start_jitter`: flows could start inside the measurement
    /// window.
    JitterExceedsWarmup,
    ZeroSnapshotInterval,
    ZeroDuration,
    /// Warm-up plus duration overflows the simulated clock.
    HorizonOverflow,
    BadConvergence,
    /// A [`Tuning`] knob is zero (both are batch sizes; minimum 1).
    BadTuning,
    /// The fault plan is invalid for this scenario's horizon.
    Fault(FaultPlanError),
    /// The generated topology fails structural validation.
    Topology(TopologyError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NameTooLong { len } => write!(
                f,
                "scenario name is {len} bytes; at most {} are supported",
                u16::MAX
            ),
            ScenarioError::NoFlows => f.write_str("scenario has no flows"),
            ScenarioError::TooManyFlows { total, max } => {
                write!(f, "scenario has {total} flows; at most {max} are supported")
            }
            ScenarioError::ZeroBandwidth => f.write_str("zero bottleneck bandwidth"),
            ScenarioError::ZeroMss => f.write_str("zero MSS"),
            ScenarioError::JitterExceedsWarmup => {
                f.write_str("warm-up must cover the start-jitter window")
            }
            ScenarioError::ZeroSnapshotInterval => f.write_str("zero snapshot interval"),
            ScenarioError::ZeroDuration => f.write_str("zero measurement duration"),
            ScenarioError::HorizonOverflow => {
                f.write_str("warm-up plus duration overflows the simulated clock")
            }
            ScenarioError::BadConvergence => f.write_str("bad convergence rule"),
            ScenarioError::BadTuning => f.write_str("tuning batch sizes must be at least 1"),
            ScenarioError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            ScenarioError::Topology(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Fault(e) => Some(e),
            ScenarioError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultPlanError> for ScenarioError {
    fn from(e: FaultPlanError) -> Self {
        ScenarioError::Fault(e)
    }
}

impl From<TopologyError> for ScenarioError {
    fn from(e: TopologyError) -> Self {
        ScenarioError::Topology(e)
    }
}

impl Scenario {
    /// EdgeScale preset: 100 Mbps bottleneck, 3 MB drop-tail buffer
    /// (≈1 BDP at 200 ms + headroom, the paper's stated figure).
    pub fn edge_scale() -> Scenario {
        Scenario {
            name: "EdgeScale".into(),
            bottleneck: Bandwidth::from_mbps(100),
            buffer_bytes: 3 * 1024 * 1024,
            mss: DEFAULT_MSS,
            flows: Vec::new(),
            seed: 0,
            start_jitter: SimDuration::from_secs(2),
            // With few flows and a 3 MB buffer the queue-inflated RTT is
            // ~260 ms and one Reno sawtooth lasts ~30 s: fairness needs
            // many periods. EdgeScale is ~100x cheaper than CoreScale per
            // simulated second, so run it long (the paper ran hours).
            warmup: SimDuration::from_secs(30),
            duration: SimDuration::from_secs(300),
            snapshot_interval: SimDuration::from_secs(1),
            convergence: Some(ConvergenceRule {
                window_snapshots: 10,
                tolerance: 0.01,
            }),
            trace: TraceConfig::disabled(),
            fault: FaultPlan::none(),
            watchdog: WatchdogConfig::disabled(),
            topology: TopologyKind::SingleBottleneck,
            aqm: AqmKind::DropTail,
            ecn: false,
            tuning: Tuning::default(),
        }
    }

    /// CoreScale preset: 10 Gbps bottleneck, 1 BDP (at 200 ms) drop-tail
    /// buffer.
    pub fn core_scale() -> Scenario {
        Scenario {
            name: "CoreScale".into(),
            bottleneck: Bandwidth::from_gbps(10),
            // 10 Gbps × 200 ms = 250 MB (the 1-BDP rule of §3.1).
            buffer_bytes: 250 * 1000 * 1000,
            mss: DEFAULT_MSS,
            flows: Vec::new(),
            seed: 0,
            start_jitter: SimDuration::from_secs(2),
            // Per-flow sawtooth periods at core scale are ~20 s (10 Mbps
            // share, queue-inflated 220 ms RTT), so shares and fairness
            // need a couple of minutes of simulated time to stabilize.
            warmup: SimDuration::from_secs(40),
            duration: SimDuration::from_secs(120),
            snapshot_interval: SimDuration::from_secs(2),
            convergence: Some(ConvergenceRule {
                window_snapshots: 10,
                tolerance: 0.01,
            }),
            trace: TraceConfig::disabled(),
            fault: FaultPlan::none(),
            watchdog: WatchdogConfig::disabled(),
            topology: TopologyKind::SingleBottleneck,
            aqm: AqmKind::DropTail,
            ecn: false,
            tuning: Tuning::default(),
        }
    }

    /// MegaScale preset: 100 Gbps bottleneck, 1 BDP (at 200 ms) drop-tail
    /// buffer, and a deliberately short horizon — with ~1 M flows each
    /// flow's fair share is ~12 kbps (≈1 MSS per second), so per-flow
    /// dynamics are RTO-dominated and stationary metrics emerge within a
    /// couple of simulated seconds. Batching knobs are on (`delack 4`,
    /// `tx_burst 8`): at this scale the preset trades per-segment event
    /// fidelity for event economy, which is the point of the regime.
    pub fn mega_scale() -> Scenario {
        Scenario {
            name: "MegaScale".into(),
            bottleneck: Bandwidth::from_gbps(100),
            // 100 Gbps × 200 ms = 2.5 GB (the 1-BDP rule of §3.1).
            buffer_bytes: 2_500_000_000,
            mss: DEFAULT_MSS,
            flows: Vec::new(),
            seed: 0,
            start_jitter: SimDuration::from_secs(1),
            warmup: SimDuration::from_millis(1500),
            duration: SimDuration::from_secs(1),
            snapshot_interval: SimDuration::from_millis(250),
            convergence: None,
            trace: TraceConfig::disabled(),
            fault: FaultPlan::none(),
            watchdog: WatchdogConfig::disabled(),
            topology: TopologyKind::SingleBottleneck,
            aqm: AqmKind::DropTail,
            ecn: false,
            tuning: Tuning {
                delack_segments: 4,
                tx_burst: 8,
            },
        }
    }

    /// Replace the flow groups.
    pub fn flows(mut self, flows: Vec<FlowGroup>) -> Scenario {
        self.flows = flows;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Set the report label.
    pub fn named(mut self, name: impl Into<String>) -> Scenario {
        self.name = name.into();
        self
    }

    /// Apply a fidelity preset, scaling jitter/warm-up/duration.
    pub fn fidelity(mut self, f: Fidelity) -> Scenario {
        let (jitter, warmup, duration) = match f {
            Fidelity::Quick => (
                SimDuration::from_millis(500),
                SimDuration::from_secs(5),
                SimDuration::from_secs(20),
            ),
            Fidelity::Standard => (self.start_jitter, self.warmup, self.duration),
            Fidelity::Paper => (
                SimDuration::from_secs(120),
                SimDuration::from_secs(300),
                SimDuration::from_secs(3 * 3600),
            ),
        };
        self.start_jitter = jitter;
        self.warmup = warmup;
        self.duration = duration;
        self
    }

    /// Enable the flight recorder with the given configuration.
    pub fn traced(mut self, trace: TraceConfig) -> Scenario {
        self.trace = trace;
        self
    }

    /// Override warm-up and measurement duration.
    pub fn horizon(mut self, warmup: SimDuration, duration: SimDuration) -> Scenario {
        self.warmup = warmup;
        self.duration = duration;
        self
    }

    /// Install a fault plan (validated against the horizon by
    /// [`Scenario::validate`]).
    pub fn faulted(mut self, fault: FaultPlan) -> Scenario {
        self.fault = fault;
        self
    }

    /// Enable the runtime invariant watchdog.
    pub fn watched(mut self, watchdog: WatchdogConfig) -> Scenario {
        self.watchdog = watchdog;
        self
    }

    /// Select the network shape.
    pub fn topology(mut self, kind: TopologyKind) -> Scenario {
        self.topology = kind;
        self
    }

    /// Select the queue discipline applied to every link.
    pub fn aqm(mut self, aqm: AqmKind) -> Scenario {
        self.aqm = aqm;
        self
    }

    /// Enable or disable ECN end-to-end.
    pub fn ecn(mut self, on: bool) -> Scenario {
        self.ecn = on;
        self
    }

    /// Override the event-economy tuning knobs.
    pub fn tuned(mut self, tuning: Tuning) -> Scenario {
        self.tuning = tuning;
        self
    }

    /// Generate this scenario's full [`Topology`] description (route
    /// tables included) from its kind, bottleneck, and buffer.
    pub fn topology_description(&self) -> Topology {
        Topology::generate(
            self.topology,
            self.bottleneck,
            self.buffer_bytes,
            self.flow_count(),
        )
    }

    /// Total number of flows. Group counts are outside input, so the sum
    /// is taken in `u64` and saturates; [`Scenario::validate`] rejects
    /// any total above `MAX_FLOWS` before anything is sized from it.
    pub fn flow_count(&self) -> u32 {
        u32::try_from(self.flow_total()).unwrap_or(u32::MAX)
    }

    fn flow_total(&self) -> u64 {
        self.flows.iter().map(|g| u64::from(g.count)).sum()
    }

    /// End of the scenario's time horizon (warm-up + measurement window);
    /// fault actions must fire before this.
    pub fn horizon_end(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.duration
    }

    /// Validate internal consistency, returning a structured error.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.len() > usize::from(u16::MAX) {
            return Err(ScenarioError::NameTooLong {
                len: self.name.len(),
            });
        }
        let total = self.flow_total();
        if total == 0 {
            return Err(ScenarioError::NoFlows);
        }
        if total > MAX_FLOWS {
            return Err(ScenarioError::TooManyFlows {
                total,
                max: MAX_FLOWS,
            });
        }
        if self.bottleneck.as_bps() == 0 {
            return Err(ScenarioError::ZeroBandwidth);
        }
        if self.mss == 0 {
            return Err(ScenarioError::ZeroMss);
        }
        if self.warmup < self.start_jitter {
            return Err(ScenarioError::JitterExceedsWarmup);
        }
        if self.snapshot_interval.is_zero() {
            return Err(ScenarioError::ZeroSnapshotInterval);
        }
        if self.duration.is_zero() {
            return Err(ScenarioError::ZeroDuration);
        }
        if (self.warmup.as_nanos())
            .checked_add(self.duration.as_nanos())
            .is_none()
        {
            return Err(ScenarioError::HorizonOverflow);
        }
        if let Some(c) = &self.convergence {
            if c.window_snapshots == 0 || c.tolerance <= 0.0 {
                return Err(ScenarioError::BadConvergence);
            }
        }
        if self.tuning.delack_segments == 0 || self.tuning.tx_burst == 0 {
            return Err(ScenarioError::BadTuning);
        }
        self.fault.validate(self.horizon_end())?;
        self.topology_description().validate()?;
        Ok(())
    }

    /// The buffer in bandwidth-delay products at the given RTT.
    pub fn buffer_in_bdp(&self, rtt: SimDuration) -> f64 {
        let bdp = self.bottleneck.as_bytes_per_sec() * rtt.as_secs_f64();
        self.buffer_bytes as f64 / bdp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let e = Scenario::edge_scale();
        assert_eq!(e.bottleneck, Bandwidth::from_mbps(100));
        assert_eq!(e.buffer_bytes, 3 * 1024 * 1024);
        let c = Scenario::core_scale();
        assert_eq!(c.bottleneck, Bandwidth::from_gbps(10));
        assert_eq!(c.buffer_bytes, 250_000_000);
        assert_eq!(c.mss, 1448);
    }

    #[test]
    fn buffer_is_about_one_bdp_at_200ms() {
        let e = Scenario::edge_scale();
        let ratio = e.buffer_in_bdp(SimDuration::from_millis(200));
        assert!((0.9..=1.5).contains(&ratio), "EdgeScale ratio {ratio}");
        let c = Scenario::core_scale();
        let ratio = c.buffer_in_bdp(SimDuration::from_millis(200));
        assert!((0.9..=1.1).contains(&ratio), "CoreScale ratio {ratio}");
    }

    #[test]
    fn builder_composes() {
        let s = Scenario::edge_scale()
            .flows(vec![
                FlowGroup::new(CcaKind::Reno, 10, SimDuration::from_millis(20)),
                FlowGroup::new(CcaKind::Cubic, 5, SimDuration::from_millis(100)),
            ])
            .seed(42)
            .named("test");
        assert_eq!(s.flow_count(), 15);
        assert_eq!(s.seed, 42);
        assert_eq!(s.name, "test");
        s.validate().unwrap();
    }

    #[test]
    fn fidelity_presets_scale_time() {
        let q = Scenario::core_scale().fidelity(Fidelity::Quick);
        assert_eq!(q.duration, SimDuration::from_secs(20));
        let p = Scenario::core_scale().fidelity(Fidelity::Paper);
        assert_eq!(p.warmup, SimDuration::from_secs(300));
        assert_eq!(p.duration, SimDuration::from_secs(3 * 3600));
    }

    #[test]
    fn empty_scenario_fails_validation() {
        let err = Scenario::edge_scale().validate().unwrap_err();
        assert_eq!(err, ScenarioError::NoFlows);
        assert_eq!(err.to_string(), "scenario has no flows");
    }

    #[test]
    fn flow_totals_past_the_limit_fail_validation_without_wrapping() {
        let reno = |count| FlowGroup::new(CcaKind::Reno, count, SimDuration::from_millis(20));
        // As a u32 sum the first wraps to 0 (read as NoFlows) and the second
        // to 1 (passed validation, then indexed out of bounds in the build);
        // the third is over the limit only as a total.
        for counts in [[u32::MAX, 1], [u32::MAX, 2], [1 << 29, (1 << 29) + 1]] {
            let total = counts.iter().map(|&c| u64::from(c)).sum::<u64>();
            let s = Scenario::edge_scale().flows(counts.map(reno).to_vec());
            assert_eq!(u64::from(s.flow_count()), total.min(u64::from(u32::MAX)));
            let err = s.validate().unwrap_err();
            let max = MAX_FLOWS;
            assert_eq!(err, ScenarioError::TooManyFlows { total, max });
            let text = format!("scenario has {total} flows; at most 1073741824 are supported");
            assert_eq!(err.to_string(), text);
        }
    }

    #[test]
    fn names_past_the_cctr_header_limit_fail_validation() {
        let reno = FlowGroup::new(CcaKind::Reno, 1, SimDuration::from_millis(20));
        let s = Scenario::edge_scale().flows(vec![reno]);
        s.clone().named("n".repeat(65_535)).validate().unwrap();
        let err = s.named("n".repeat(65_536)).validate().unwrap_err();
        assert_eq!(err, ScenarioError::NameTooLong { len: 65_536 });
        assert_eq!(
            err.to_string(),
            "scenario name is 65536 bytes; at most 65535 are supported"
        );
    }

    #[test]
    fn jitter_longer_than_warmup_fails() {
        let mut s = Scenario::edge_scale().flows(vec![FlowGroup::new(
            CcaKind::Reno,
            1,
            SimDuration::from_millis(20),
        )]);
        s.start_jitter = SimDuration::from_secs(60);
        assert_eq!(s.validate(), Err(ScenarioError::JitterExceedsWarmup));
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("cover the start-jitter"));
    }

    #[test]
    fn debug_omits_topology_fields_at_defaults() {
        // The campaign config digest hashes `Debug`; default scenarios
        // must render exactly as they did before the topology fields
        // existed (see the type docs).
        let base = Scenario::edge_scale().flows(vec![FlowGroup::new(
            CcaKind::Reno,
            2,
            SimDuration::from_millis(20),
        )]);
        let rendered = format!("{base:?}");
        assert!(!rendered.contains("topology"));
        assert!(!rendered.contains("aqm"));
        assert!(!rendered.contains("ecn"));
        assert!(!rendered.contains("tuning"));

        let custom = base
            .clone()
            .topology(TopologyKind::ParkingLot(3))
            .aqm(AqmKind::Codel)
            .ecn(true)
            .tuned(Tuning {
                delack_segments: 4,
                tx_burst: 8,
            });
        let rendered = format!("{custom:?}");
        assert!(rendered.contains("topology: ParkingLot(3)"));
        assert!(rendered.contains("aqm: Codel"));
        assert!(rendered.contains("ecn: true"));
        assert!(rendered.contains("tuning: Tuning { delack_segments: 4, tx_burst: 8 }"));
        // And each non-default field alone changes the digest.
        assert_ne!(format!("{base:?}"), format!("{:?}", base.clone().ecn(true)));
        assert_ne!(
            format!("{base:?}"),
            format!(
                "{:?}",
                base.clone().tuned(Tuning {
                    delack_segments: 2,
                    tx_burst: 2,
                })
            )
        );
    }

    #[test]
    fn mega_scale_preset_is_batched_and_short() {
        let m = Scenario::mega_scale();
        assert_eq!(m.bottleneck, Bandwidth::from_gbps(100));
        assert_eq!(m.buffer_bytes, 2_500_000_000);
        let ratio = m.buffer_in_bdp(SimDuration::from_millis(200));
        assert!((0.9..=1.1).contains(&ratio), "MegaScale ratio {ratio}");
        assert_eq!(m.tuning.delack_segments, 4);
        assert_eq!(m.tuning.tx_burst, 8);
        assert!(!m.tuning.is_default());
        assert!(m.horizon_end() <= SimTime::from_secs(3));
        m.clone()
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .validate()
            .unwrap();
    }

    #[test]
    fn zero_tuning_knobs_fail_validation() {
        let base = Scenario::edge_scale().flows(vec![FlowGroup::new(
            CcaKind::Reno,
            1,
            SimDuration::from_millis(20),
        )]);
        let bad = base.clone().tuned(Tuning {
            delack_segments: 0,
            tx_burst: 1,
        });
        assert_eq!(bad.validate(), Err(ScenarioError::BadTuning));
        let bad = base.tuned(Tuning {
            delack_segments: 2,
            tx_burst: 0,
        });
        assert_eq!(bad.validate(), Err(ScenarioError::BadTuning));
    }

    #[test]
    fn topology_scenarios_validate_and_generate() {
        let s = Scenario::edge_scale()
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                4,
                SimDuration::from_millis(20),
            )])
            .topology(TopologyKind::ParkingLot(3));
        s.validate().unwrap();
        let topo = s.topology_description();
        assert_eq!(topo.links.len(), 3);
        assert_eq!(topo.flow_count(), 4);
        assert_eq!(topo.links[0].rate, s.bottleneck);
        assert_eq!(topo.links[0].buffer_bytes, s.buffer_bytes);
    }

    #[test]
    fn fault_plan_is_validated_against_the_horizon() {
        use ccsim_fault::FaultPlan;
        let base = Scenario::edge_scale().flows(vec![FlowGroup::new(
            CcaKind::Reno,
            1,
            SimDuration::from_millis(20),
        )]);
        // EdgeScale horizon is 30 s warm-up + 300 s duration.
        let ok = base
            .clone()
            .faulted(FaultPlan::none().iid_loss(SimTime::from_secs(100), 0.01));
        ok.validate().unwrap();
        let late = base
            .clone()
            .faulted(FaultPlan::none().iid_loss(SimTime::from_secs(400), 0.01));
        assert!(matches!(
            late.validate(),
            Err(ScenarioError::Fault(FaultPlanError::BeyondHorizon { .. }))
        ));
        let overlapping = base.faulted(
            FaultPlan::none()
                .blackout(SimTime::from_secs(50), SimDuration::from_secs(5))
                .blackout(SimTime::from_secs(52), SimDuration::from_secs(5)),
        );
        assert!(matches!(
            overlapping.validate(),
            Err(ScenarioError::Fault(
                FaultPlanError::OverlappingBlackouts { .. }
            ))
        ));
    }
}
