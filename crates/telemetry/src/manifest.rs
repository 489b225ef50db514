//! Per-run provenance manifests.
//!
//! The paper's pipeline kept per-experiment bookkeeping across thousands
//! of runs (§3); CoCo-Beholder makes the same point for any CC evaluation
//! harness. The [`RunManifest`] is ccsim's version: one small JSON file
//! written next to a run's outputs that answers, months later, *what ran,
//! from which configuration, how fast, and what it produced* — without
//! re-opening multi-megabyte traces.
//!
//! Both directions are schema code over `ccsim_sim::json`: the file form
//! and the single-line ledger form are the same field list written in
//! two of the writer's layouts, and the reader is `Json::parse` plus
//! typed access, so a field is found by its key in its object — never by
//! where its name first appears in the text. `f64` fields print
//! shortest-round-trip and parse back bit-exact, so
//! [`RunManifest::to_json`] → [`RunManifest::from_json`] is lossless
//! (asserted in tests and in CI's self-observability smoke job).

use crate::metrics::BottleneckMetrics;
use ccsim_sim::json::{Json, JsonError, JsonWriter};
use ccsim_timeline::TimelineSummary;
use std::io;

/// The workspace's canonical digest for scenario configurations and run
/// outcomes (defined in `ccsim-sim`; this is its historical path).
pub use ccsim_sim::fnv1a_64;

/// Machine-readable provenance record for one simulator run.
///
/// A run resumed from a checkpoint counts two ways. Its observer views
/// — `events_by_kind`, the profile's cells, the RTO and recovery
/// families of its Prometheus dump, and `events_per_sec` — count since the
/// restore: a checkpoint carries no observer state, so observed and
/// unobserved runs capture the same bytes. `events_processed` and the
/// outcome (and so `outcome_digest`) count the whole run. So a resumed
/// run's per-kind counts add up to its `events_processed` less the count
/// at the checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Scenario label.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Number of flows.
    pub flows: u32,
    /// FNV-1a digest (hex) of the full scenario configuration.
    pub config_digest: String,
    /// FNV-1a digest (hex) of the canonical `RunOutcome` export. Two runs
    /// with equal digests produced identical results — the metrics
    /// inertness check compares exactly this field.
    pub outcome_digest: String,
    /// Simulated seconds covered (warm-up + measurement).
    pub sim_secs: f64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Wall-clock seconds spent inside engine dispatch (`advance` calls)
    /// only — excludes build, warm-up bookkeeping, snapshot collection,
    /// and trace drain. `0.0` in legacy manifests that predate the field.
    pub dispatch_secs: f64,
    /// Sim-time / wall-time ratio (how much faster than real time).
    pub sim_wall_ratio: f64,
    /// Engine events processed.
    pub events_processed: u64,
    /// Engine events per *dispatch* second (events_processed /
    /// dispatch_secs, since the restore on a resumed run): the engine's
    /// own throughput, not diluted by harness phases. Legacy manifests
    /// divided by total wall time.
    pub events_per_sec: f64,
    /// Peak bottleneck queue occupancy, bytes.
    pub peak_queue_bytes: u64,
    /// Peak pending events in the engine's queue.
    pub peak_pending_events: u64,
    /// Wire bytes of the recorded flight-recorder trace (0 when tracing
    /// was off).
    pub trace_bytes: u64,
    /// Bytes of the Prometheus metrics dump for this run.
    pub metric_bytes: u64,
    /// Number of metric series registered for this run.
    pub metric_series: u64,
    /// Whether the convergence rule stopped the run early.
    pub converged: bool,
    /// Encoded size of the checkpoint this run captured, bytes. Zero (and
    /// absent from the JSON) for runs that took no checkpoint, so legacy
    /// manifests re-serialize byte-identically.
    pub checkpoint_bytes: u64,
    /// Engine events by classified kind (`data`/`ack`/`timer`), in
    /// classifier order; on a resumed run, since the restore (see the type's
    /// docs). Empty for unobserved or legacy runs; the key is then absent
    /// from the JSON so old manifests re-serialize byte-identically.
    pub events_by_kind: Vec<(String, u64)>,
    /// Per-bottleneck metrics for multi-bottleneck topologies. Empty (and
    /// absent from the JSON) for legacy single-bottleneck runs.
    pub bottlenecks: Vec<BottleneckMetrics>,
    /// Profiler output when the run was profiled (absent otherwise). The
    /// profile's own JSON is single-line and integers-only, so it embeds
    /// in both the pretty and inline manifest forms without float drift.
    pub profile: Option<ccsim_prof::Profile>,
    /// Timeline capture summary when the run sampled a windowed timeline
    /// (absent otherwise, so legacy manifests re-serialize byte-identically).
    pub timeline: Option<TimelineSummary>,
}

impl RunManifest {
    /// The one field list behind both layouts. Structured sections go
    /// last, each absent when empty so legacy manifests (and their ledger
    /// lines) re-serialize byte-identically.
    fn write(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.key("scenario").str(&self.scenario);
            w.key("seed").u64(self.seed);
            w.key("flows").u64(self.flows.into());
            w.key("config_digest").str(&self.config_digest);
            w.key("outcome_digest").str(&self.outcome_digest);
            w.key("sim_secs").f64(self.sim_secs);
            w.key("wall_secs").f64(self.wall_secs);
            w.key("dispatch_secs").f64(self.dispatch_secs);
            w.key("sim_wall_ratio").f64(self.sim_wall_ratio);
            w.key("events_processed").u64(self.events_processed);
            w.key("events_per_sec").f64(self.events_per_sec);
            w.key("peak_queue_bytes").u64(self.peak_queue_bytes);
            w.key("peak_pending_events").u64(self.peak_pending_events);
            w.key("trace_bytes").u64(self.trace_bytes);
            w.key("metric_bytes").u64(self.metric_bytes);
            w.key("metric_series").u64(self.metric_series);
            w.key("converged").bool(self.converged);
            if self.checkpoint_bytes > 0 {
                w.key("checkpoint_bytes").u64(self.checkpoint_bytes);
            }
            if !self.events_by_kind.is_empty() {
                w.key("events_by_kind").obj(|w| {
                    for (kind, count) in &self.events_by_kind {
                        w.key(kind).u64(*count);
                    }
                });
            }
            if !self.bottlenecks.is_empty() {
                w.key("bottlenecks")
                    .arr(&self.bottlenecks, |w, b| b.write(w));
            }
            if let Some(p) = &self.profile {
                // The profile document is compact in both layouts.
                w.key("profile").raw(&p.to_json());
            }
            if let Some(t) = &self.timeline {
                w.key("timeline").obj(|w| {
                    w.key("window_secs").f64(t.window_secs);
                    w.key("rows").u64(t.rows);
                    w.key("retained").u64(t.retained);
                    w.key("evicted").u64(t.evicted);
                    w.key("flows_sampled").u64(t.flows_sampled.into());
                    w.key("series").u64(t.series.into());
                    w.key("alpha").f64(t.alpha);
                    w.key("time_to_alpha_fair")
                        .opt(t.time_to_alpha_fair, JsonWriter::f64);
                    w.key("final_jfi").opt(t.final_jfi, JsonWriter::f64);
                });
            }
        });
    }

    /// Serialize to a single pretty-enough JSON object (one field per
    /// line, so diffs between runs read naturally).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut JsonWriter::pretty(&mut out));
        out
    }

    /// Single-line variant of [`RunManifest::to_json`], for embedding the
    /// manifest inside line-oriented formats (the campaign run ledger is
    /// one manifest-bearing JSON object per line). Parses back with
    /// [`RunManifest::from_json`] exactly like the pretty form.
    pub fn to_json_inline(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut JsonWriter::inline(&mut out));
        out
    }

    /// Parse a manifest produced by [`RunManifest::to_json`] or
    /// [`RunManifest::to_json_inline`]; see [`RunManifest::from_value`].
    pub fn from_json(json: &str) -> io::Result<RunManifest> {
        Ok(RunManifest::from_value(&Json::parse(json)?)?)
    }

    /// Decode an already-parsed manifest object (field order is not
    /// required; unknown fields are ignored). The fields added after the
    /// format's first release — `dispatch_secs`, `checkpoint_bytes`,
    /// `events_by_kind`, `bottlenecks`, `profile`, `timeline` — default to
    /// zero/empty when absent, so legacy manifests still parse; a field
    /// that is present but malformed is an error, never a default.
    pub fn from_value(v: &Json) -> Result<RunManifest, JsonError> {
        let bottlenecks = v
            .opt_arr("bottlenecks")?
            .unwrap_or(&[])
            .iter()
            .map(BottleneckMetrics::from_value)
            .collect::<Result<_, _>>()?;
        let profile = match v.get("profile") {
            Some(p) => Some(ccsim_prof::Profile::from_value(p)?),
            None => None,
        };
        let timeline = match v.get("timeline") {
            Some(t) => Some(TimelineSummary {
                window_secs: t.req_f64("window_secs")?,
                rows: t.req_u64("rows")?,
                retained: t.req_u64("retained")?,
                evicted: t.req_u64("evicted")?,
                flows_sampled: t.req_u32("flows_sampled")?,
                series: t.req_u32("series")?,
                alpha: t.req_f64("alpha")?,
                time_to_alpha_fair: t.opt_f64("time_to_alpha_fair")?,
                final_jfi: t.opt_f64("final_jfi")?,
            }),
            None => None,
        };
        Ok(RunManifest {
            scenario: v.req_str("scenario")?.to_string(),
            seed: v.req_u64("seed")?,
            flows: v.req_u32("flows")?,
            config_digest: v.req_str("config_digest")?.to_string(),
            outcome_digest: v.req_str("outcome_digest")?.to_string(),
            sim_secs: v.req_f64("sim_secs")?,
            wall_secs: v.req_f64("wall_secs")?,
            dispatch_secs: v.opt_f64("dispatch_secs")?.unwrap_or(0.0),
            sim_wall_ratio: v.req_f64("sim_wall_ratio")?,
            events_processed: v.req_u64("events_processed")?,
            events_per_sec: v.req_f64("events_per_sec")?,
            peak_queue_bytes: v.req_u64("peak_queue_bytes")?,
            peak_pending_events: v.req_u64("peak_pending_events")?,
            trace_bytes: v.req_u64("trace_bytes")?,
            metric_bytes: v.req_u64("metric_bytes")?,
            metric_series: v.req_u64("metric_series")?,
            converged: v.req_bool("converged")?,
            checkpoint_bytes: v.opt_u64("checkpoint_bytes")?.unwrap_or(0),
            events_by_kind: v.opt_pairs("events_by_kind", Json::as_u64)?,
            bottlenecks,
            profile,
            timeline,
        })
    }

    /// Engine events per dispatch second, split by classified kind: the
    /// quantity the campaign sentinel gates per-kind regressions on.
    /// Empty when the run recorded no kind counts or no dispatch time.
    pub fn eps_by_kind(&self) -> Vec<(String, f64)> {
        if self.dispatch_secs <= 0.0 {
            return Vec::new();
        }
        self.events_by_kind
            .iter()
            .map(|(kind, count)| {
                let eps = ccsim_sim::safe_rate(*count as f64, self.dispatch_secs);
                (kind.clone(), eps)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            scenario: "Core \"quoted\" \\ name".into(),
            seed: 42,
            flows: 1000,
            config_digest: format!("{:016x}", fnv1a_64(b"config")),
            outcome_digest: format!("{:016x}", fnv1a_64(b"outcome")),
            sim_secs: 160.0,
            wall_secs: 12.345678901234567,
            dispatch_secs: 10.5000000001,
            sim_wall_ratio: 12.960001,
            events_processed: 987_654_321,
            events_per_sec: 8.0000001e7,
            peak_queue_bytes: 250_000_000,
            peak_pending_events: 12_345,
            trace_bytes: 0,
            metric_bytes: 4096,
            metric_series: 23,
            converged: true,
            checkpoint_bytes: 0,
            events_by_kind: Vec::new(),
            bottlenecks: Vec::new(),
            profile: None,
            timeline: None,
        }
    }

    /// `sample()` with every structured section populated.
    fn sample_full() -> RunManifest {
        let mut m = sample();
        m.events_by_kind = vec![
            ("data".into(), 600_000_000),
            ("ack".into(), 300_000_000),
            ("timer".into(), 87_654_321),
        ];
        m.bottlenecks = vec![
            BottleneckMetrics {
                link: 0,
                label: "core \"bn\"".into(),
                utilization: 0.912345,
                jfi: Some(0.87654321),
                loss_rate: 0.00123,
                max_queue_bytes: 250_000,
                ce_marked_pkts: 0,
            },
            BottleneckMetrics {
                link: 3,
                label: "edge".into(),
                utilization: 0.5,
                jfi: None,
                loss_rate: 0.0,
                max_queue_bytes: 1_200,
                ce_marked_pkts: 42,
            },
        ];
        m.profile = Some(
            ccsim_prof::Profile::from_json(
                "{\"prof_classes\":[\"link\",\"sender\"],\"prof_kinds\":[\"data\",\"ack\"],\
             \"prof_stride\":1024,\"prof_counts\":[5,6,7,8],\"prof_nanos\":[1,2,3,4],\
             \"prof_samples\":[1,1,1,1],\"wheel_high_water\":[9,0,0,0,0,0,0,0,0],\
             \"wheel_cascades\":2,\"wheel_cascaded\":3,\
             \"wheel_batch_hist\":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"wheel_cancels\":4,\
             \"wheel_cancel_misses\":5,\"wheel_cancellable\":6,\
             \"mem_accounts\":[{\"pool\":\"tcp/senders\",\"pool_bytes\":4096}],\
             \"dispatch_nanos\":1000000,\"prof_flows\":2}",
            )
            .unwrap(),
        );
        m.timeline = Some(TimelineSummary {
            window_secs: 2.0,
            rows: 80,
            retained: 64,
            evicted: 16,
            flows_sampled: 64,
            series: 326,
            alpha: 0.9,
            time_to_alpha_fair: Some(41.5000000003),
            final_jfi: Some(0.98765),
        });
        m
    }

    #[test]
    fn zero_dispatch_manifests_stay_finite_end_to_end() {
        // Regression: a zero-event (or sub-microsecond) run must never put
        // inf/NaN into the manifest, its eps split, or the rendered JSON.
        let mut m = sample_full();
        m.dispatch_secs = 0.0;
        m.wall_secs = 0.0;
        m.events_per_sec = ccsim_sim::safe_rate(m.events_processed as f64, 0.0);
        m.sim_wall_ratio = ccsim_sim::safe_rate(m.sim_secs, 0.0);
        assert_eq!(m.events_per_sec, 0.0);
        assert_eq!(m.sim_wall_ratio, 0.0);
        assert!(m.eps_by_kind().is_empty(), "no rate without a denominator");
        let json = m.to_json();
        // Field *names* legitimately contain "nanos"; only value-position
        // tokens (`:inf`, `:NaN`, ...) would mean a non-finite leaked out.
        for tok in [":inf", ":-inf", ":NaN", ":-NaN", ":nan"] {
            assert!(!json.contains(tok), "non-finite value in manifest JSON");
        }
        let back = RunManifest::from_json(&json).unwrap();
        assert_eq!(back.events_per_sec, 0.0);
        assert!(back.eps_by_kind().is_empty());
    }

    #[test]
    fn json_round_trips_bit_exact() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // Floats survive exactly (shortest-round-trip Display).
        assert_eq!(back.wall_secs.to_bits(), m.wall_secs.to_bits());
        assert_eq!(back.events_per_sec.to_bits(), m.events_per_sec.to_bits());
    }

    #[test]
    fn inline_form_is_one_line_and_round_trips() {
        let m = sample();
        let inline = m.to_json_inline();
        assert!(!inline.contains('\n'));
        assert_eq!(RunManifest::from_json(&inline).unwrap(), m);
    }

    #[test]
    fn structured_sections_are_absent_when_empty() {
        let json = sample().to_json();
        assert!(!json.contains("events_by_kind"));
        assert!(!json.contains("bottlenecks"));
        assert!(!json.contains("\"profile\""));
        assert!(!json.contains("\"timeline\""));
        // dispatch_secs is a scalar and always present.
        assert!(json.contains("\"dispatch_secs\""));
    }

    #[test]
    fn structured_sections_round_trip_in_both_forms() {
        let m = sample_full();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        let inline = m.to_json_inline();
        assert!(!inline.contains('\n'));
        assert_eq!(RunManifest::from_json(&inline).unwrap(), m);
        // Floats inside bottleneck records survive bit-exactly.
        assert_eq!(
            back.bottlenecks[0].utilization.to_bits(),
            m.bottlenecks[0].utilization.to_bits()
        );
    }

    #[test]
    fn legacy_manifests_without_new_fields_still_parse() {
        let mut m = sample_full();
        let json = m.to_json();
        // Strip the new sections and scalar the way a pre-profiler
        // manifest would simply not have them.
        let legacy: String = json
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                !(t.starts_with("\"dispatch_secs\"")
                    || t.starts_with("\"events_by_kind\"")
                    || t.starts_with("\"bottlenecks\"")
                    || t.starts_with("\"profile\"")
                    || t.starts_with("\"timeline\""))
            })
            .collect::<Vec<_>>()
            .join("\n");
        // `converged` is now the last field again; drop its trailing comma.
        let legacy = legacy.replace(
            &format!("\"converged\": {},", m.converged),
            &format!("\"converged\": {}", m.converged),
        );
        let back = RunManifest::from_json(&legacy).unwrap();
        m.dispatch_secs = 0.0;
        m.events_by_kind.clear();
        m.bottlenecks.clear();
        m.profile = None;
        m.timeline = None;
        assert_eq!(back, m);
    }

    #[test]
    fn unconverged_timeline_round_trips_its_nulls() {
        let mut m = sample();
        m.timeline = Some(TimelineSummary {
            window_secs: 1.0,
            rows: 3,
            retained: 3,
            evicted: 0,
            flows_sampled: 2,
            series: 12,
            alpha: 0.95,
            time_to_alpha_fair: None,
            final_jfi: None,
        });
        let json = m.to_json();
        assert!(json.contains("\"time_to_alpha_fair\": null"));
        assert_eq!(RunManifest::from_json(&json).unwrap(), m);
        assert_eq!(RunManifest::from_json(&m.to_json_inline()).unwrap(), m);
    }

    #[test]
    fn eps_by_kind_divides_by_dispatch_time() {
        let mut m = sample_full();
        m.dispatch_secs = 2.0;
        m.events_by_kind = vec![("data".into(), 100), ("ack".into(), 50)];
        let eps = m.eps_by_kind();
        assert_eq!(eps[0], ("data".to_string(), 50.0));
        assert_eq!(eps[1], ("ack".to_string(), 25.0));
        m.dispatch_secs = 0.0;
        assert!(m.eps_by_kind().is_empty());
    }

    #[test]
    fn non_finite_floats_degrade_to_zero() {
        let mut m = sample();
        m.sim_wall_ratio = f64::INFINITY;
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.sim_wall_ratio, 0.0);
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(RunManifest::from_json("{}").is_err());
        assert!(RunManifest::from_json("{\"scenario\":\"x\"}").is_err());
    }

    /// `from_json` on a doctored copy of the full sample's inline form.
    fn doctored(from: &str, to: &str) -> io::Result<RunManifest> {
        let json = sample_full().to_json_inline();
        assert!(json.contains(from), "fixture lost {from}");
        RunManifest::from_json(&json.replacen(from, to, 1))
    }

    #[test]
    fn malformed_fields_are_typed_errors_not_defaults() {
        // What the substring scanner silently dropped or defaulted.
        let err = doctored("\"ack\": 300000000", "\"ack\": \"many\"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("events_by_kind \"ack\""), "{err}");
        // A string where a number is required — also in an optional field,
        // which used to fall back to its default.
        let err = doctored("\"seed\": 42", "\"seed\": \"42\"").unwrap_err();
        assert!(err.to_string().contains("\"seed\""), "{err}");
        assert!(doctored(
            "\"dispatch_secs\": 10.5000000001",
            "\"dispatch_secs\": \"x\""
        )
        .is_err());
        assert!(doctored("\"rows\": 80", "\"rows\": true").is_err());
        assert!(doctored("\"wheel_cascades\":2", "\"wheel_cascades\":[]").is_err());
        // A duplicated key, at the top level and inside a section.
        assert!(doctored("\"flows\": 1000,", "\"flows\": 1000, \"flows\": 1,").is_err());
        assert!(doctored("\"retained\": 64,", "\"retained\": 64, \"retained\": 64,").is_err());
        // A truncated document, at every length.
        let json = sample_full().to_json();
        for cut in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
            assert!(
                RunManifest::from_json(&json[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn key_shaped_text_inside_strings_is_not_a_field() {
        // A first-occurrence scanner would have read these as the fields.
        let mut m = sample_full();
        m.scenario = "decoy \"seed\": 7, \"flows\": 1, \"profile\": {} }".into();
        m.bottlenecks[0].label = "\"timeline\": {\"rows\": 0}".into();
        for json in [m.to_json(), m.to_json_inline()] {
            let back = RunManifest::from_json(&json).unwrap();
            assert_eq!(back, m);
            assert_eq!((back.seed, back.flows), (42, 1000));
        }
        // Unescaped, the same text is a key repeated in the object.
        assert!(RunManifest::from_json(&sample().to_json().replacen(
            "\"seed\": 42,",
            "\"seed\": 7, \"seed\": 42,",
            1
        ))
        .is_err());
    }

    #[test]
    fn inline_form_is_the_pretty_form_with_line_breaks_collapsed() {
        // Ledgers have always held exactly this: the pretty text, each
        // line break and its indent replaced by one space.
        let m = sample_full();
        let pretty = m.to_json();
        let joined: Vec<&str> = pretty.lines().map(str::trim_start).collect();
        assert_eq!(m.to_json_inline(), joined.join(" "));
    }
}
