//! Scenario serialization: schema code over `ccsim_sim::json`.
//!
//! Crash bundles must embed the *complete* scenario so a run can be
//! replayed from the bundle alone (`ccsim replay`); checkpoints and
//! campaign specs carry the same document. Numbers are emitted in their
//! exact integer form (nanoseconds, bits/sec, bytes) and the one float
//! (the convergence tolerance) shortest-round-trip, so a decode–encode
//! cycle is byte-identical and a replayed scenario is bit-for-bit the one
//! that crashed. Keys newer than the first release (`topology`, `aqm`,
//! `ecn`, `tuning`) are written only when non-default, so older documents
//! re-encode byte-identically.

use crate::scenario::{ConvergenceRule, FlowGroup, Scenario, Tuning};
use ccsim_fault::{FaultPlan, WatchdogConfig};
use ccsim_net::AqmKind;
use ccsim_sim::json::{Json, JsonError, JsonWriter};
use ccsim_sim::{Bandwidth, SimDuration};
use ccsim_topo::TopologyKind;
use ccsim_trace::{RetentionPolicy, TraceConfig};

/// Serialize a scenario to a single-line JSON document.
pub fn scenario_to_json(s: &Scenario) -> String {
    let mut out = String::with_capacity(512);
    JsonWriter::compact(&mut out).obj(|w| {
        w.key("name").str(&s.name);
        w.key("bottleneck_bps").u64(s.bottleneck.as_bps());
        w.key("buffer_bytes").u64(s.buffer_bytes);
        w.key("mss").u64(s.mss.into());
        w.key("flows").arr(&s.flows, |w, g| {
            w.obj(|w| {
                w.key("cca").str(g.cca.name());
                w.key("count").u64(g.count.into());
                w.key("base_rtt_ns").u64(g.base_rtt.as_nanos());
            })
        });
        w.key("seed").u64(s.seed);
        w.key("start_jitter_ns").u64(s.start_jitter.as_nanos());
        w.key("warmup_ns").u64(s.warmup.as_nanos());
        w.key("duration_ns").u64(s.duration.as_nanos());
        w.key("snapshot_interval_ns")
            .u64(s.snapshot_interval.as_nanos());
        w.key("convergence").opt(s.convergence.as_ref(), |w, c| {
            w.obj(|w| {
                w.key("window_snapshots").u64(c.window_snapshots as u64);
                w.key("tolerance").f64(c.tolerance);
            })
        });
        w.key("trace").obj(|w| {
            w.key("enabled").bool(s.trace.enabled);
            w.key("policy").str(&s.trace.policy.as_str());
            w.key("max_bytes").u64(s.trace.max_bytes);
            w.key("queue_sample_every")
                .u64(s.trace.queue_sample_every.into());
        });
        w.key("fault").raw(&s.fault.to_json());
        w.key("watchdog").obj(|w| {
            w.key("enabled").bool(s.watchdog.enabled);
            w.key("every").u64(s.watchdog.every.into());
        });
        if s.topology != TopologyKind::SingleBottleneck {
            w.key("topology").str(&s.topology.as_str());
        }
        if s.aqm != AqmKind::DropTail {
            w.key("aqm").str(s.aqm.as_str());
        }
        if s.ecn {
            w.key("ecn").bool(true);
        }
        if !s.tuning.is_default() {
            w.key("tuning").obj(|w| {
                w.key("delack_segments")
                    .u64(s.tuning.delack_segments.into());
                w.key("tx_burst").u64(s.tuning.tx_burst.into());
            });
        }
    });
    out
}

/// Parse a document produced by [`scenario_to_json`].
pub fn scenario_from_json(text: &str) -> Result<Scenario, JsonError> {
    scenario_from_value(&Json::parse(text)?)
}

/// Decode an already-parsed scenario document (how a campaign spec hands
/// its embedded `base` down).
pub fn scenario_from_value(doc: &Json) -> Result<Scenario, JsonError> {
    let nanos = |key: &str| doc.req_u64(key).map(SimDuration::from_nanos);

    let mut flows = Vec::new();
    for g in doc.req_arr("flows")? {
        flows.push(FlowGroup {
            cca: g
                .req_str("cca")?
                .parse()
                .map_err(|_| JsonError::new("unknown CCA kind"))?,
            count: g.req_u32("count")?,
            base_rtt: SimDuration::from_nanos(g.req_u64("base_rtt_ns")?),
        });
    }

    // `null` means "no rule"; the key itself is mandatory.
    let convergence = match doc.get("convergence") {
        None => return Err(JsonError::new("missing \"convergence\"")),
        Some(c) if c.is_null() => None,
        Some(c) => Some(ConvergenceRule {
            window_snapshots: c.req_u64("window_snapshots")? as usize,
            tolerance: c.req_f64("tolerance")?,
        }),
    };

    let trace_json = doc
        .get("trace")
        .ok_or_else(|| JsonError::new("missing \"trace\""))?;
    let policy = trace_json.req_str("policy")?;
    let trace = TraceConfig {
        enabled: trace_json.req_bool("enabled")?,
        policy: RetentionPolicy::parse(policy)
            .ok_or_else(|| JsonError::new(format!("unknown retention policy \"{policy}\"")))?,
        max_bytes: trace_json.req_u64("max_bytes")?,
        queue_sample_every: trace_json.req_u32("queue_sample_every")?,
    };

    let fault = match doc.get("fault") {
        Some(v) => FaultPlan::from_value(v)?,
        None => FaultPlan::none(),
    };
    let watchdog = match doc.get("watchdog") {
        Some(v) => WatchdogConfig {
            enabled: v.req_bool("enabled")?,
            every: v.req_u32("every")?,
        },
        None => WatchdogConfig::disabled(),
    };
    let topology = match doc.opt_str("topology")? {
        None => TopologyKind::SingleBottleneck,
        Some(name) => TopologyKind::parse(name)
            .ok_or_else(|| JsonError::new(format!("unknown topology \"{name}\"")))?,
    };
    let aqm = match doc.opt_str("aqm")? {
        None => AqmKind::DropTail,
        Some(name) => {
            AqmKind::parse(name).ok_or_else(|| JsonError::new(format!("unknown AQM \"{name}\"")))?
        }
    };
    let tuning = match doc.get("tuning") {
        None => Tuning::default(),
        Some(v) => Tuning {
            delack_segments: v.req_u32("delack_segments")?,
            tx_burst: v.req_u32("tx_burst")?,
        },
    };

    Ok(Scenario {
        name: doc.req_str("name")?.to_string(),
        bottleneck: Bandwidth::from_bps(doc.req_u64("bottleneck_bps")?),
        buffer_bytes: doc.req_u64("buffer_bytes")?,
        mss: doc.req_u32("mss")?,
        flows,
        seed: doc.req_u64("seed")?,
        start_jitter: nanos("start_jitter_ns")?,
        warmup: nanos("warmup_ns")?,
        duration: nanos("duration_ns")?,
        snapshot_interval: nanos("snapshot_interval_ns")?,
        convergence,
        trace,
        fault,
        watchdog,
        topology,
        aqm,
        ecn: doc.opt_bool("ecn")?.unwrap_or(false),
        tuning,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_cca::CcaKind;
    use ccsim_sim::SimTime;

    fn full_scenario() -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("codec \"quoted\" ✓")
            .flows(vec![
                FlowGroup::new(CcaKind::Reno, 3, SimDuration::from_millis(20)),
                FlowGroup::new(CcaKind::Bbr, 2, SimDuration::from_micros(12_345)),
            ])
            .seed(u64::MAX - 7)
            .faulted(
                FaultPlan::none()
                    .blackout(SimTime::from_secs(40), SimDuration::from_secs(2))
                    .iid_loss(SimTime::from_secs(60), 0.015),
            )
            .watched(WatchdogConfig::every_n(4));
        s.trace = TraceConfig {
            enabled: true,
            policy: RetentionPolicy::Reservoir(512),
            max_bytes: 1 << 20,
            queue_sample_every: 16,
        };
        s
    }

    #[test]
    fn round_trips_every_field() {
        let s = full_scenario();
        let json = scenario_to_json(&s);
        let back = scenario_from_json(&json).unwrap();
        // The Debug form covers every field at full precision.
        assert_eq!(format!("{s:?}"), format!("{back:?}"));
        // Decode → encode is byte-identical.
        assert_eq!(scenario_to_json(&back), json);
    }

    #[test]
    fn topology_fields_round_trip_and_stay_silent_at_defaults() {
        // Default: the three new keys are absent, so documents predating
        // them re-encode byte-identically.
        let s = full_scenario();
        let json = scenario_to_json(&s);
        assert!(!json.contains("\"topology\""));
        assert!(!json.contains("\"aqm\""));
        assert!(!json.contains("\"ecn\""));
        let back = scenario_from_json(&json).unwrap();
        assert_eq!(back.topology, TopologyKind::SingleBottleneck);
        assert_eq!(back.aqm, AqmKind::DropTail);
        assert!(!back.ecn);

        // Non-default: all three round-trip exactly.
        let s = full_scenario()
            .topology(TopologyKind::ParkingLot(3))
            .aqm(AqmKind::Codel)
            .ecn(true);
        let json = scenario_to_json(&s);
        assert!(json.contains("\"topology\":\"parking_lot:3\""));
        assert!(json.contains("\"aqm\":\"codel\""));
        assert!(json.contains("\"ecn\":true"));
        let back = scenario_from_json(&json).unwrap();
        assert_eq!(back.topology, TopologyKind::ParkingLot(3));
        assert_eq!(back.aqm, AqmKind::Codel);
        assert!(back.ecn);
        assert_eq!(scenario_to_json(&back), json);
    }

    #[test]
    fn tuning_round_trips_and_stays_silent_at_default() {
        // Default tuning emits no key, so pre-tuning documents re-encode
        // byte-identically.
        let s = full_scenario();
        let json = scenario_to_json(&s);
        assert!(!json.contains("\"tuning\""));
        let back = scenario_from_json(&json).unwrap();
        assert!(back.tuning.is_default());

        let s = full_scenario().tuned(Tuning {
            delack_segments: 4,
            tx_burst: 8,
        });
        let json = scenario_to_json(&s);
        assert!(json.contains("\"tuning\":{\"delack_segments\":4,\"tx_burst\":8}"));
        let back = scenario_from_json(&json).unwrap();
        assert_eq!(back.tuning, s.tuning);
        assert_eq!(scenario_to_json(&back), json);
    }

    #[test]
    fn big_seed_survives_exactly() {
        let s = full_scenario().seed((1 << 63) + 3);
        let back = scenario_from_json(&scenario_to_json(&s)).unwrap();
        assert_eq!(back.seed, (1 << 63) + 3);
    }

    #[test]
    fn null_convergence_round_trips() {
        let mut s = full_scenario();
        s.convergence = None;
        let back = scenario_from_json(&scenario_to_json(&s)).unwrap();
        assert_eq!(back.convergence, None);
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = scenario_from_json("{\"name\":\"x\"}").unwrap_err();
        assert!(err.message.contains("bottleneck_bps") || err.message.contains("flows"));
        assert!(scenario_from_json("not json").is_err());
    }

    /// A policy is read back as written, zeros included (a zero is not
    /// raised to one, so decode ∘ encode is the identity).
    #[test]
    fn policies_round_trip() {
        for (policy, text) in [
            (RetentionPolicy::KeepAll, "keepall"),
            (RetentionPolicy::Decimate(0), "decimate:0"),
            (RetentionPolicy::Decimate(7), "decimate:7"),
            (RetentionPolicy::Reservoir(0), "reservoir:0"),
            (RetentionPolicy::Reservoir(33), "reservoir:33"),
        ] {
            let mut s = full_scenario();
            s.trace.policy = policy;
            let json = scenario_to_json(&s);
            assert!(json.contains(&format!("\"policy\":\"{text}\"")), "{json}");
            let back = scenario_from_json(&json).unwrap();
            assert_eq!(back.trace.policy, policy);
        }
        for bad in ["keep", "decimate:", "decimate:-1", "reservoir"] {
            assert_eq!(RetentionPolicy::parse(bad), None, "{bad}");
        }
    }
}
