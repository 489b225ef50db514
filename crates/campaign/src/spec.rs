//! Campaign specifications: a scenario template × override axes × seeds.
//!
//! A [`CampaignSpec`] is the campaign layer's unit of configuration — the
//! simulator-side analogue of the paper's testbed orchestration scripts
//! (§3): one scenario template, a set of parameter axes to sweep, and a
//! seed list. Expansion is a plain cartesian product, so a spec with a
//! 3-value RTT axis, a 2-value CCA axis, and 2 seeds yields 12 jobs, each
//! a fully validated [`Scenario`] with a stable, human-readable name.
//!
//! Specs are JSON documents (schema code over `ccsim_sim::json`, like
//! every wire format in the workspace) and round-trip exactly:
//! [`CampaignSpec::to_json`] → [`CampaignSpec::from_json`]
//! reproduces every field, including the embedded base scenario via
//! `ccsim_core::codec`. For hand-written specs the `base` object also
//! accepts a compact form (`{"preset": "edge", ...overrides}`) whose keys,
//! like every axis's `param`, are rows of `ccsim_core`'s settings table —
//! the same rows the `ccsim` run flags are — see [`CampaignSpec::from_json`].

use crate::executor::Rollup;
use ccsim_core::settings::build;
use ccsim_core::{scenario_from_value, scenario_to_json, Scenario, Setting};
use ccsim_sim::json::{Json, JsonError, JsonWriter};
use std::fmt::Write as _;

/// One sweep axis: a scenario setting and the values it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Any row of the settings table that sets only its own knob.
    pub param: &'static Setting,
    /// Values as strings (the JSON form; numbers keep their raw text).
    pub values: Vec<String>,
}

/// A fidelity expectation for a campaign metric, checked by the reporter
/// against each cell's mean over its seeds. `source` names the paper
/// artifact the range comes from (e.g. "Figure 4").
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// One of [`Rollup::METRICS`] or "events_per_sec"; anything else is
    /// rejected when the spec or ledger header is parsed.
    pub metric: String,
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub source: String,
}

/// Drift tolerances the regression sentinel (`campaign diff`) applies
/// when comparing two ledgers of the same campaign. Stored in the ledger
/// header so a baseline carries its own thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Maximum absolute JFI drift between runs of the same config.
    pub jfi: f64,
    /// Maximum absolute Mathis median-error drift.
    pub mathis_err: f64,
    /// Maximum absolute synchronization-index drift.
    pub sync_index: f64,
    /// Maximum fractional events/sec regression (0.10 = 10% slower).
    pub events_per_sec_frac: f64,
    /// Maximum absolute time-to-α-fair drift, seconds of sim time
    /// (compared only when both ledgers carried timeline captures).
    pub convergence_secs: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            jfi: 0.05,
            mathis_err: 0.10,
            sync_index: 0.10,
            events_per_sec_frac: 0.10,
            convergence_secs: 1.0,
        }
    }
}

/// A complete campaign description. See the module docs.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (prefixes every job name and the ledger header).
    pub name: String,
    /// The scenario template every job starts from.
    pub base: Scenario,
    /// Sweep axes, expanded as a cartesian product in order.
    pub axes: Vec<Axis>,
    /// Master seeds; every axis combination runs once per seed.
    pub seeds: Vec<u64>,
    /// Fidelity expectations for the reporter.
    pub expectations: Vec<Expectation>,
    /// Sentinel tolerances for `campaign diff`.
    pub tolerances: Tolerances,
}

/// One expanded job: a named, validated scenario plus the axis values
/// that produced it.
#[derive(Debug, Clone)]
pub struct CampaignJob {
    /// Stable job name: `{campaign}/{param}={value}/.../seed={seed}`.
    pub name: String,
    /// The (param, value) pairs this job was expanded from.
    pub axis: Vec<(String, String)>,
    /// Master seed.
    pub seed: u64,
    /// The fully built scenario (named after the job, seeded).
    pub scenario: Scenario,
}

impl CampaignSpec {
    /// Expand the spec into its full job list (cartesian product of axes
    /// × seeds), validating every resulting scenario.
    pub fn jobs(&self) -> Result<Vec<CampaignJob>, JsonError> {
        if self.seeds.is_empty() {
            return Err(JsonError::new("campaign has no seeds"));
        }
        let mut combos: Vec<Vec<(&'static Setting, String)>> = vec![Vec::new()];
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(JsonError::new(format!(
                    "axis {} has no values",
                    axis.param.key
                )));
            }
            let mut next = Vec::with_capacity(combos.len() * axis.values.len());
            for combo in &combos {
                for value in &axis.values {
                    let mut c = combo.clone();
                    c.push((axis.param, value.clone()));
                    next.push(c);
                }
            }
            combos = next;
        }
        let mut jobs = Vec::with_capacity(combos.len() * self.seeds.len());
        for combo in &combos {
            for &seed in &self.seeds {
                let mut name = self.name.clone();
                let mut scenario = self.base.clone();
                for (param, value) in combo {
                    let _ = write!(name, "/{}={value}", param.key);
                    param
                        .apply(&mut scenario, &Json::Str(value.clone()))
                        .map_err(|e| JsonError::new(format!("axis {e}")))?;
                }
                let _ = write!(name, "/seed={seed}");
                scenario = scenario.named(name.clone()).seed(seed);
                scenario
                    .validate()
                    .map_err(|e| JsonError::new(format!("job {name}: invalid scenario: {e}")))?;
                jobs.push(CampaignJob {
                    name,
                    axis: combo
                        .iter()
                        .map(|(p, v)| (p.key.into(), v.clone()))
                        .collect(),
                    seed,
                    scenario,
                });
            }
        }
        Ok(jobs)
    }

    /// Serialize to the canonical single-line JSON form (base scenario in
    /// its full `ccsim_core::codec` form). Round-trips through
    /// [`CampaignSpec::from_json`] exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        JsonWriter::compact(&mut out).obj(|w| {
            w.key("name").str(&self.name);
            w.key("base").raw(&scenario_to_json(&self.base));
            w.key("axes").arr(&self.axes, |w, axis| {
                w.obj(|w| {
                    w.key("param").str(axis.param.key);
                    w.key("values").arr(&axis.values, |w, v| w.str(v));
                })
            });
            w.key("seeds").arr(&self.seeds, |w, seed| w.u64(*seed));
            write_expectations(w.key("expectations"), &self.expectations);
            write_tolerances(w.key("tolerances"), &self.tolerances);
        });
        out
    }

    /// Parse a spec document.
    ///
    /// The `base` object is either a full scenario document (recognized
    /// by its `bottleneck_bps` field — the `ccsim_core::codec` form) or
    /// the compact form for hand-written specs, whose keys are the rows of
    /// the settings table ([`ccsim_core::SETTINGS`]), applied in table
    /// order:
    ///
    /// ```json
    /// {
    ///   "preset": "edge",
    ///   "bw_mbps": 10, "buffer_bytes": 100000,
    ///   "flows": [{"cca": "reno", "count": 2, "rtt_ms": 20}],
    ///   "fidelity": "quick",
    ///   "warmup_s": 1.0, "duration_s": 4.0, "jitter_s": 0.1,
    ///   "convergence": false
    /// }
    /// ```
    pub fn from_json(text: &str) -> Result<CampaignSpec, JsonError> {
        let doc = Json::parse(text)?;
        let base_json = doc
            .get("base")
            .ok_or_else(|| JsonError::new("missing \"base\""))?;
        let base = if base_json.get("bottleneck_bps").is_some() {
            scenario_from_value(base_json)?
        } else {
            base_from_settings(base_json)?
        };

        let mut axes = Vec::new();
        for a in doc.opt_arr("axes")?.unwrap_or(&[]) {
            let pname = a.req_str("param")?;
            let param = Setting::find(pname)
                .ok_or_else(|| JsonError::new(format!("unknown axis param \"{pname}\"")))?;
            if param.overwrites {
                return Err(JsonError::new(format!(
                    "axis param \"{pname}\" sets other settings too; sweep those instead"
                )));
            }
            let values = a.req_arr("values")?.iter().map(|v| match v {
                Json::Str(s) => Ok(s.clone()),
                Json::Num(raw) => Ok(raw.clone()),
                _ => Err(JsonError::new(format!("axis {pname}: bad value"))),
            });
            axes.push(Axis {
                param,
                values: values.collect::<Result<_, _>>()?,
            });
        }
        let seeds = match doc.get("seeds") {
            Some(_) => doc.req_u64s("seeds")?,
            None => vec![base.seed],
        };
        Ok(CampaignSpec {
            name: doc.req_str("name")?.to_string(),
            base,
            axes,
            seeds,
            expectations: parse_expectations(&doc)?,
            tolerances: parse_tolerances(doc.get("tolerances"))?,
        })
    }
}

/// Write a tolerances object (shared by the spec and the ledger header).
pub(crate) fn write_tolerances(w: &mut JsonWriter<'_>, t: &Tolerances) {
    w.obj(|w| {
        w.key("jfi").f64(t.jfi);
        w.key("mathis_err").f64(t.mathis_err);
        w.key("sync_index").f64(t.sync_index);
        w.key("events_per_sec_frac").f64(t.events_per_sec_frac);
        w.key("convergence_secs").f64(t.convergence_secs);
    });
}

/// Parse a tolerances object, falling back to defaults per absent field.
pub(crate) fn parse_tolerances(v: Option<&Json>) -> Result<Tolerances, JsonError> {
    let d = Tolerances::default();
    let Some(v) = v else { return Ok(d) };
    Ok(Tolerances {
        jfi: v.opt_f64("jfi")?.unwrap_or(d.jfi),
        mathis_err: v.opt_f64("mathis_err")?.unwrap_or(d.mathis_err),
        sync_index: v.opt_f64("sync_index")?.unwrap_or(d.sync_index),
        events_per_sec_frac: v
            .opt_f64("events_per_sec_frac")?
            .unwrap_or(d.events_per_sec_frac),
        convergence_secs: v.opt_f64("convergence_secs")?.unwrap_or(d.convergence_secs),
    })
}

/// Write an expectations array (shared by the spec and the ledger header).
pub(crate) fn write_expectations(w: &mut JsonWriter<'_>, expectations: &[Expectation]) {
    w.arr(expectations, |w, e| {
        w.obj(|w| {
            w.key("metric").str(&e.metric);
            w.key("min").opt(e.min, JsonWriter::f64);
            w.key("max").opt(e.max, JsonWriter::f64);
            w.key("source").str(&e.source);
        })
    });
}

/// Parse `doc`'s optional `expectations` array.
pub(crate) fn parse_expectations(doc: &Json) -> Result<Vec<Expectation>, JsonError> {
    let list = doc.opt_arr("expectations")?.unwrap_or(&[]).iter();
    list.map(|e| {
        let metric = e.req_str("metric")?;
        if !Rollup::METRICS.contains(&metric) && metric != "events_per_sec" {
            return Err(JsonError::new(format!(
                "expectation names unknown metric \"{metric}\" (known: {}, events_per_sec)",
                Rollup::METRICS.join(", ")
            )));
        }
        Ok(Expectation {
            metric: metric.to_string(),
            min: e.opt_f64("min")?,
            max: e.opt_f64("max")?,
            source: e.opt_str("source")?.unwrap_or("").to_string(),
        })
    })
    .collect()
}

/// A compact `base`: each key names a row of the settings table.
fn base_from_settings(v: &Json) -> Result<Scenario, JsonError> {
    let pairs = v
        .as_obj()
        .ok_or_else(|| JsonError::new("\"base\" is not an object"))?;
    let given = pairs.iter().map(|(key, value)| match Setting::find(key) {
        Some(setting) => Ok((setting, value.clone())),
        None => Err(JsonError::new(format!("unknown base key \"{key}\""))),
    });
    let given: Vec<_> = given.collect::<Result<_, _>>()?;
    build(&given).map_err(|e| JsonError::new(format!("base {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_cca::CcaKind;
    use ccsim_core::{FlowGroup, Tuning};
    use ccsim_net::AqmKind;
    use ccsim_sim::{Bandwidth, SimDuration};
    use ccsim_topo::TopologyKind;

    fn sample_spec() -> CampaignSpec {
        let mut base = Scenario::edge_scale()
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .fidelity(ccsim_core::Fidelity::Quick);
        base.bottleneck = Bandwidth::from_mbps(10);
        base.buffer_bytes = 100_000;
        CampaignSpec {
            name: "smoke".into(),
            base,
            axes: vec![
                Axis {
                    param: Setting::find("cca").unwrap(),
                    values: vec!["reno".into(), "cubic".into()],
                },
                Axis {
                    param: Setting::find("rtt_ms").unwrap(),
                    values: vec!["20".into(), "100".into()],
                },
            ],
            seeds: vec![1, 2],
            expectations: vec![Expectation {
                metric: "jfi".into(),
                min: Some(0.8),
                max: None,
                source: "Figure 4".into(),
            }],
            tolerances: Tolerances::default(),
        }
    }

    #[test]
    fn expansion_is_the_cartesian_product() {
        let jobs = sample_spec().jobs().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2);
        // First job: first value of each axis, first seed; names are stable.
        assert_eq!(jobs[0].name, "smoke/cca=reno/rtt_ms=20/seed=1");
        assert_eq!(jobs[0].scenario.seed, 1);
        assert_eq!(jobs[0].scenario.flows[0].cca, CcaKind::Reno);
        let last = jobs.last().unwrap();
        assert_eq!(last.name, "smoke/cca=cubic/rtt_ms=100/seed=2");
        assert_eq!(last.scenario.flows[0].cca, CcaKind::Cubic);
        assert_eq!(
            last.scenario.flows[0].base_rtt,
            SimDuration::from_millis(100)
        );
        // All job names are unique.
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), jobs.len());
    }

    #[test]
    fn json_round_trips() {
        let spec = sample_spec();
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(format!("{spec:?}"), format!("{back:?}"));
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn preset_base_form_parses() {
        let doc = r#"{
            "name": "preset-test",
            "base": {
                "preset": "edge", "bw_mbps": 10, "buffer_bytes": 100000,
                "flows": [{"cca": "reno", "count": 2, "rtt_ms": 20}],
                "fidelity": "quick", "warmup_s": 1.0, "duration_s": 4.0,
                "jitter_s": 0.1, "convergence": false
            },
            "axes": [{"param": "cca", "values": ["reno", "cubic"]}],
            "seeds": [7]
        }"#;
        let spec = CampaignSpec::from_json(doc).unwrap();
        assert_eq!(spec.base.bottleneck, Bandwidth::from_mbps(10));
        assert_eq!(spec.base.duration, SimDuration::from_secs(4));
        assert_eq!(spec.base.convergence, None);
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].seed, 7);
    }

    #[test]
    fn mega_preset_parses_with_tuning_overrides() {
        let doc = r#"{
            "name": "mega-test",
            "base": {
                "preset": "mega",
                "flows": [{"cca": "reno", "count": 1000, "rtt_ms": 20}],
                "delack_segments": 8, "tx_burst": 16
            }
        }"#;
        let spec = CampaignSpec::from_json(doc).unwrap();
        assert_eq!(spec.base.bottleneck, Bandwidth::from_gbps(100));
        assert_eq!(spec.base.tuning.delack_segments, 8);
        assert_eq!(spec.base.tuning.tx_burst, 16);
        // The batching knobs survive the spec's own JSON round trip
        // (the base re-encodes through the scenario codec).
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.base.tuning, spec.base.tuning);
    }

    #[test]
    fn topology_aqm_and_ecn_axes_expand_onto_the_scenario() {
        let mut spec = sample_spec();
        spec.axes = vec![
            Axis {
                param: Setting::find("topology").unwrap(),
                values: vec!["single".into(), "parking_lot:3".into()],
            },
            Axis {
                param: Setting::find("aqm").unwrap(),
                values: vec!["droptail".into(), "codel".into()],
            },
            Axis {
                param: Setting::find("ecn").unwrap(),
                values: vec!["off".into(), "on".into()],
            },
        ];
        spec.seeds = vec![1];
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2);
        let last = jobs.last().unwrap();
        assert_eq!(
            last.name,
            "smoke/topology=parking_lot:3/aqm=codel/ecn=on/seed=1"
        );
        assert_eq!(last.scenario.topology, TopologyKind::ParkingLot(3));
        assert_eq!(last.scenario.aqm, AqmKind::Codel);
        assert!(last.scenario.ecn);
        assert_eq!(jobs[0].scenario.topology, TopologyKind::SingleBottleneck);
        assert!(!jobs[0].scenario.ecn);
        // The names round-trip through the spec JSON form.
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.axes, spec.axes);
        // Bad values are rejected with the axis name.
        let torus = Json::Str("torus".into());
        let err = Setting::find("topology")
            .unwrap()
            .apply(&mut spec.base.clone(), &torus)
            .unwrap_err();
        assert_eq!(err.to_string(), "topology: \"torus\" is not a topology");
    }

    #[test]
    fn invalid_jobs_are_rejected_with_their_name() {
        let mut spec = sample_spec();
        spec.axes.push(Axis {
            param: Setting::find("flow_count").unwrap(),
            values: vec!["0".into()],
        });
        let err = spec.jobs().unwrap_err();
        assert!(err.message.contains("no flows"), "{err}");
        assert!(err.message.contains("flow_count=0"), "{err}");
    }

    #[test]
    fn flow_count_takes_one_count_per_group() {
        let mut spec = sample_spec();
        spec.base.flows = vec![
            FlowGroup::new(CcaKind::Bbr, 1, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Reno, 1, SimDuration::from_millis(20)),
        ];
        spec.seeds = vec![1];
        spec.axes = vec![Axis {
            param: Setting::find("flow_count").unwrap(),
            values: vec!["1+1000".into(), "7".into()],
        }];
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs[0].name, "smoke/flow_count=1+1000/seed=1");
        let counts = |j: &CampaignJob| j.scenario.flows.iter().map(|g| g.count).collect::<Vec<_>>();
        assert_eq!(counts(&jobs[0]), [1, 1000]);
        // A single number still means every group.
        assert_eq!(counts(&jobs[1]), [7, 7]);

        spec.axes[0].values = vec!["1+2+3".into()];
        let err = spec.jobs().unwrap_err();
        assert!(err.message.contains("flow_count"), "{err}");
        assert!(err.message.contains("3 counts"), "{err}");
        assert!(err.message.contains("2 flow groups"), "{err}");
        spec.axes[0].values = vec!["1+".into()];
        assert!(spec.jobs().unwrap_err().message.contains("bad count"));
    }

    #[test]
    fn a_base_only_and_a_cli_only_knob_sweep_as_axes() {
        let mut spec = sample_spec();
        spec.seeds = vec![1];
        let axis = |key, values: [&str; 2]| Axis {
            param: Setting::find(key).unwrap(),
            values: values.map(String::from).to_vec(),
        };
        spec.axes = vec![axis("tx_burst", ["1", "8"]), axis("warmup_s", ["2", "2.5"])];
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[3].name, "smoke/tx_burst=8/warmup_s=2.5/seed=1");
        for job in &jobs {
            let [(_, burst), (_, warmup)] = &job.axis[..] else {
                panic!("{:?}", job.axis)
            };
            let tuning = Tuning {
                tx_burst: burst.parse().unwrap(),
                ..spec.base.tuning
            };
            let warmup = SimDuration::from_secs_f64(warmup.parse().unwrap());
            let want = (spec.base.clone().tuned(tuning))
                .horizon(warmup, spec.base.duration)
                .named(job.name.clone())
                .seed(1);
            assert_eq!(scenario_to_json(&job.scenario), scenario_to_json(&want));
        }
    }

    #[test]
    fn rows_that_set_other_knobs_are_not_axes_and_base_keys_must_be_rows() {
        let spec = |base: &str, axis: &str| {
            let doc = format!(
                r#"{{"name": "x", "base": {{"flows": ["reno:1:20"]{base}}},
                    "axes": [{{"param": "{axis}", "values": ["1"]}}]}}"#
            );
            CampaignSpec::from_json(&doc)
                .map(|_| ())
                .unwrap_err()
                .message
        };
        for key in ["preset", "fidelity", "flows"] {
            let err = spec("", key);
            assert!(
                err.contains(&format!("\"{key}\" sets other settings")),
                "{err}"
            );
        }
        assert!(spec("", "bogus").contains("unknown axis param \"bogus\""));
        let err = spec(r#", "bw": 10"#, "cca");
        assert!(err.contains("unknown base key \"bw\""), "{err}");
        let err = spec(r#", "bw_mbps": "fast""#, "cca");
        assert_eq!(err, "base bw_mbps: \"fast\" is not a whole number");
    }

    #[test]
    fn a_misspelt_expectation_metric_is_rejected_by_name() {
        let doc = r#"{
            "name": "typo",
            "base": {"preset": "edge", "flows": [{"cca": "reno", "count": 2, "rtt_ms": 20}]},
            "expectations": [{"metric": "jif", "min": 0.9}]
        }"#;
        let err = CampaignSpec::from_json(doc).unwrap_err();
        assert!(err.message.contains("\"jif\""), "{err}");
        assert!(err.message.contains("jfi, utilization"), "{err}");
        // Every listed name, and the ledger-level events_per_sec, parses.
        for metric in Rollup::METRICS.iter().chain(&["events_per_sec"]) {
            let ok = doc.replace("jif", metric);
            assert!(CampaignSpec::from_json(&ok).is_ok(), "{metric}");
        }
    }

    #[test]
    fn empty_seed_list_is_an_error() {
        let mut spec = sample_spec();
        spec.seeds.clear();
        assert!(spec.jobs().is_err());
    }
}
