//! The persistent run ledger: one append-only JSONL file per campaign.
//!
//! Line 1 is a header (`ccsim-ledger/1` format tag, campaign name,
//! sentinel tolerances, expectations); every following line is one
//! enriched run record: job name and axis values, config and outcome
//! digests, wall/sim time, the per-run metric [`Rollup`], the full
//! provenance manifest, and a crash-bundle pointer on failure.
//!
//! Durability: [`LedgerWriter::append`] flushes after every line, so a
//! campaign killed mid-run leaves at worst one truncated final line.
//! [`Ledger::load`] detects that case (the *last* line failing to parse),
//! skips it, and sets [`Ledger::truncated`] instead of failing — interior
//! corruption, by contrast, is a hard error. The regression sentinel
//! (`campaign diff`) indexes entries by config digest via
//! [`Ledger::by_config`].

use crate::executor::JobResult;
use crate::metric::{Presence, Rollup, EVENTS_PER_SEC, METRICS};
use crate::spec::{
    parse_expectations, parse_tolerances, write_expectations, write_tolerances, Expectation,
    Tolerances,
};
use ccsim_core::BottleneckMetrics;
use ccsim_sim::json::{Json, JsonError, JsonWriter};
use ccsim_sim::safe_rate;
use ccsim_telemetry::RunManifest;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Format tag of the ledger header line.
pub const LEDGER_FORMAT: &str = "ccsim-ledger/1";

/// One run record.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Job name (`{campaign}/{param}={value}/.../seed={seed}`).
    pub job: String,
    /// The axis values the job was expanded from.
    pub axis: Vec<(String, String)>,
    /// Master seed.
    pub seed: u64,
    /// Scenario config digest, 16 hex digits.
    pub config_digest: String,
    /// Outcome digest, 16 hex digits; `None` for failed runs.
    pub outcome_digest: Option<String>,
    /// Error message for failed runs.
    pub error: Option<String>,
    /// Crash-bundle directory for failed runs, when one was written.
    pub crash_bundle: Option<String>,
    /// Attempts the supervisor spent on the job. 1 (and absent from the
    /// JSON, so legacy lines re-serialize byte-identically) when the
    /// first attempt settled it.
    pub attempts: u32,
    /// The job failed every attempt and was quarantined. False (and
    /// absent from the JSON) for successful or pre-supervisor entries.
    pub quarantined: bool,
    /// Simulated seconds covered.
    pub sim_secs: f64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Engine events processed.
    pub events_processed: u64,
    /// Engine events per wall-clock second.
    pub events_per_sec: f64,
    /// Engine events per *dispatch* second split by classified kind
    /// (`data`/`ack`/`timer`), from the manifest's per-kind counts. The
    /// sentinel gates per-kind throughput regressions on this. Empty (and
    /// absent from the JSON, so legacy lines re-serialize byte-identically)
    /// for failed or pre-profiler runs.
    pub eps_by_kind: Vec<(String, f64)>,
    /// Paper-metric rollup; `None` for failed runs.
    pub metrics: Option<Rollup>,
    /// Full provenance manifest; `None` for failed runs.
    pub manifest: Option<RunManifest>,
}

impl LedgerEntry {
    /// Whether the run completed.
    pub fn ok(&self) -> bool {
        self.outcome_digest.is_some()
    }

    /// Build the entry for one executed job. The outcome digest is the one
    /// the run's manifest already carries, not computed a second time.
    pub fn from_result(r: &JobResult) -> LedgerEntry {
        let (outcome_digest, error) = match &r.run {
            Ok(obs) => (Some(obs.manifest.outcome_digest.clone()), None),
            Err(e) => (None, Some(e.clone())),
        };
        let manifest = r.run.as_ref().ok().map(|obs| obs.manifest.clone());
        let (sim_secs, wall_secs, events_processed, events_per_sec) = manifest
            .as_ref()
            .map(|m| {
                (
                    m.sim_secs,
                    m.wall_secs,
                    m.events_processed,
                    m.events_per_sec,
                )
            })
            .unwrap_or((0.0, 0.0, 0, 0.0));
        let eps_by_kind = manifest.as_ref().map_or(Vec::new(), |m| m.eps_by_kind());
        LedgerEntry {
            job: r.job.name.clone(),
            axis: r.job.axis.clone(),
            seed: r.job.seed,
            config_digest: format!("{:016x}", r.config_digest),
            outcome_digest,
            error,
            crash_bundle: r.crash_bundle.as_ref().map(|p| p.display().to_string()),
            attempts: r.attempts,
            quarantined: r.quarantined,
            sim_secs,
            wall_secs,
            events_processed,
            events_per_sec,
            eps_by_kind,
            metrics: r.rollup(),
            manifest,
        }
    }

    /// Serialize to one JSONL line (no trailing newline). Keys newer than
    /// the first ledger (`attempts`, `quarantined`, `eps_by_kind`, and
    /// inside `metrics` every absent-when-`None` row of [`METRICS`] and
    /// `bottlenecks`) are absent — not `null`, `{}` or `[]` — at their
    /// defaults, so legacy lines and unsupervised, unprofiled runs
    /// re-serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        JsonWriter::compact(&mut out).obj(|w| {
            w.key("job").str(&self.job);
            w.key("axis").obj(|w| {
                for (param, value) in &self.axis {
                    w.key(param).str(value);
                }
            });
            w.key("seed").u64(self.seed);
            w.key("config_digest").str(&self.config_digest);
            w.key("outcome_digest")
                .opt(self.outcome_digest.as_deref(), JsonWriter::str);
            w.key("error").opt(self.error.as_deref(), JsonWriter::str);
            w.key("crash_bundle")
                .opt(self.crash_bundle.as_deref(), JsonWriter::str);
            w.key("sim_secs").f64(self.sim_secs);
            w.key("wall_secs").f64(self.wall_secs);
            w.key("events_processed").u64(self.events_processed);
            w.key(EVENTS_PER_SEC).f64(self.events_per_sec);
            if self.attempts != 1 {
                w.key("attempts").u64(self.attempts.into());
            }
            if self.quarantined {
                w.key("quarantined").bool(true);
            }
            if !self.eps_by_kind.is_empty() {
                w.key("eps_by_kind").obj(|w| {
                    for (kind, eps) in &self.eps_by_kind {
                        w.key(kind).f64(*eps);
                    }
                });
            }
            w.key("metrics").opt(self.metrics.as_ref(), |w, m| {
                w.obj(|w| {
                    for metric in METRICS {
                        match (metric.presence, (metric.read)(self)) {
                            (Presence::NotStored, _) | (Presence::AbsentWhenNone, None) => {}
                            (_, value) => w.key(metric.name).opt(value, JsonWriter::f64),
                        }
                    }
                    if !m.bottlenecks.is_empty() {
                        w.key("bottlenecks").arr(&m.bottlenecks, |w, b| b.write(w));
                    }
                })
            });
            w.key("manifest")
                .opt(self.manifest.as_ref(), |w, m| w.raw(&m.to_json_inline()));
        });
        out
    }

    /// Parse a line produced by [`LedgerEntry::to_json`]. The manifest
    /// (and the profile inside it) are decoded from the parsed nodes.
    pub fn from_value(v: &Json) -> Result<LedgerEntry, JsonError> {
        let opt_string = |key: &str| Ok::<_, JsonError>(v.opt_str(key)?.map(str::to_string));
        let metrics = match v.get("metrics") {
            Some(m) if !m.is_null() => {
                let bottlenecks = m
                    .opt_arr("bottlenecks")?
                    .unwrap_or(&[])
                    .iter()
                    .map(BottleneckMetrics::from_value)
                    .collect::<Result<_, _>>()?;
                let mut rollup = Rollup {
                    bottlenecks,
                    ..Rollup::default()
                };
                for metric in METRICS {
                    let value = match metric.presence {
                        Presence::Always => Some(m.req_f64(metric.name)?),
                        Presence::NotStored => None,
                        _ => m.opt_f64(metric.name)?,
                    };
                    if let Some(value) = value {
                        (metric.store)(&mut rollup, value);
                    }
                }
                Some(rollup)
            }
            _ => None,
        };
        let manifest = match v.get("manifest") {
            Some(m) if !m.is_null() => Some(RunManifest::from_value(m)?),
            _ => None,
        };
        Ok(LedgerEntry {
            job: v.req_str("job")?.to_string(),
            axis: v.opt_pairs("axis", |v| v.as_str().map(str::to_string))?,
            seed: v.req_u64("seed")?,
            config_digest: v.req_str("config_digest")?.to_string(),
            outcome_digest: opt_string("outcome_digest")?,
            error: opt_string("error")?,
            crash_bundle: opt_string("crash_bundle")?,
            attempts: v.opt_u32("attempts")?.unwrap_or(1),
            quarantined: v.opt_bool("quarantined")?.unwrap_or(false),
            sim_secs: v.opt_f64("sim_secs")?.unwrap_or(0.0),
            wall_secs: v.opt_f64("wall_secs")?.unwrap_or(0.0),
            events_processed: v.opt_u64("events_processed")?.unwrap_or(0),
            events_per_sec: v.opt_f64(EVENTS_PER_SEC)?.unwrap_or(0.0),
            eps_by_kind: v.opt_pairs("eps_by_kind", Json::as_f64)?,
            metrics,
            manifest,
        })
    }

    /// A copy with every wall-clock-dependent field zeroed — the stable
    /// projection two runs of the same campaign can be compared on
    /// byte-for-byte (the parallel-vs-serial equivalence tests use this).
    pub fn normalized(&self) -> LedgerEntry {
        let mut e = self.clone();
        e.wall_secs = 0.0;
        e.events_per_sec = 0.0;
        for (_, eps) in &mut e.eps_by_kind {
            *eps = 0.0;
        }
        if let Some(m) = &mut e.manifest {
            m.wall_secs = 0.0;
            m.dispatch_secs = 0.0;
            m.sim_wall_ratio = 0.0;
            m.events_per_sec = 0.0;
            // The metrics dump embeds wall-clock gauges, so its byte
            // length is timing-dependent too.
            m.metric_bytes = 0;
            // Profile event/kind counts, wheel counters, and memory
            // gauges are deterministic; only the sampled nanos and the
            // dispatch total are wall time.
            if let Some(p) = &mut m.profile {
                *p = p.normalized();
            }
        }
        e
    }
}

/// A loaded ledger: header fields plus the entry list.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Campaign name from the header.
    pub campaign: String,
    /// Sentinel tolerances from the header.
    pub tolerances: Tolerances,
    /// Fidelity expectations from the header.
    pub expectations: Vec<Expectation>,
    /// Run records, in file (completion) order.
    pub entries: Vec<LedgerEntry>,
    /// Whether a truncated final line was detected and skipped.
    pub truncated: bool,
}

/// Render the header line for a campaign.
pub fn header_json(
    campaign: &str,
    tolerances: &Tolerances,
    expectations: &[Expectation],
) -> String {
    let mut out = String::with_capacity(256);
    JsonWriter::compact(&mut out).obj(|w| {
        w.key("ledger").str(LEDGER_FORMAT);
        w.key("campaign").str(campaign);
        write_tolerances(w.key("tolerances"), tolerances);
        write_expectations(w.key("expectations"), expectations);
    });
    out
}

impl Ledger {
    /// An empty in-memory ledger for a campaign.
    pub fn new(campaign: impl Into<String>, tolerances: Tolerances) -> Ledger {
        Ledger {
            campaign: campaign.into(),
            tolerances,
            expectations: Vec::new(),
            entries: Vec::new(),
            truncated: false,
        }
    }

    /// Parse a full ledger document from text (see [`Ledger::load`]).
    pub fn from_text(text: &str) -> io::Result<Ledger> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines
            .next()
            .ok_or_else(|| invalid("empty ledger (no header line)"))?;
        let header =
            Json::parse(header_line).map_err(|e| invalid(format!("bad ledger header: {e}")))?;
        let format = header.opt_str("ledger")?.unwrap_or("");
        if format != LEDGER_FORMAT {
            return Err(invalid(format!(
                "unsupported ledger format \"{format}\" (want \"{LEDGER_FORMAT}\")"
            )));
        }
        let campaign = header.opt_str("campaign")?.unwrap_or("").to_string();
        let tolerances = parse_tolerances(header.get("tolerances"))?;
        let expectations = parse_expectations(&header)?;

        let body: Vec<&str> = lines.collect();
        let mut entries = Vec::with_capacity(body.len());
        let mut truncated = false;
        for (i, line) in body.iter().enumerate() {
            let parsed = Json::parse(line).and_then(|v| LedgerEntry::from_value(&v));
            match parsed {
                Ok(entry) => entries.push(entry),
                Err(e) if i + 1 == body.len() => {
                    // A killed campaign leaves at worst one torn final
                    // line; skip it and flag the ledger as truncated.
                    let _ = e;
                    truncated = true;
                }
                Err(e) => {
                    return Err(invalid(format!(
                        "corrupt ledger entry on line {}: {e}",
                        i + 2
                    )))
                }
            }
        }
        Ok(Ledger {
            campaign,
            tolerances,
            expectations,
            entries,
            truncated,
        })
    }

    /// Load a ledger file, tolerating a truncated final line.
    pub fn load(path: &Path) -> io::Result<Ledger> {
        Ledger::from_text(&std::fs::read_to_string(path)?)
    }

    /// Index entries by config digest (first entry per digest wins).
    pub fn by_config(&self) -> HashMap<&str, &LedgerEntry> {
        let mut map = HashMap::with_capacity(self.entries.len());
        for e in &self.entries {
            map.entry(e.config_digest.as_str()).or_insert(e);
        }
        map
    }

    /// Successful entries only.
    pub fn ok_entries(&self) -> impl Iterator<Item = &LedgerEntry> {
        self.entries.iter().filter(|e| e.ok())
    }

    /// The `campaign run --bench` summary document for a campaign that ran
    /// `jobs` jobs of which `failed` failed. `events_per_sec` divides by
    /// engine dispatch time only (scenario build, warm-up slicing and
    /// export wall time excluded) so it is comparable with the sentinel's
    /// eps gate; `wall_secs` stays as the end-to-end record. Profiled
    /// campaigns also record the worst memory-per-flow across jobs — the
    /// megascale headline number, read by the
    /// `megascale_smoke.memory_per_flow_bytes` gate row.
    pub fn bench_summary_json(&self, jobs: usize, failed: usize) -> String {
        let (mut events, mut wall, mut dispatch) = (0u64, 0.0, 0.0);
        for e in self.ok_entries() {
            events += e.events_processed;
            wall += e.wall_secs;
            dispatch += e.manifest.as_ref().map_or(0.0, |m| m.dispatch_secs);
        }
        let per_flow = |&(bytes, flows): &(u64, u32)| bytes as f64 / f64::from(flows);
        let peak_mem = self
            .ok_entries()
            .filter_map(|e| {
                let p = e.manifest.as_ref()?.profile.as_ref()?;
                (p.flows > 0).then(|| (p.memory_total_bytes(), p.flows))
            })
            .max_by(|a, b| per_flow(a).total_cmp(&per_flow(b)));
        let mut out = String::with_capacity(256);
        JsonWriter::compact(&mut out).obj(|w| {
            w.key("campaign").str(&self.campaign);
            w.key("jobs").u64(jobs as u64);
            w.key("failed").u64(failed as u64);
            w.key("events").u64(events);
            w.key("wall_secs").f64(wall);
            w.key("dispatch_secs").f64(dispatch);
            w.key(EVENTS_PER_SEC)
                .f64(safe_rate(events as f64, dispatch));
            if let Some(peak) = peak_mem {
                w.key("memory_bytes_peak").u64(peak.0);
                w.key("memory_peak_flows").u64(peak.1.into());
                w.key("memory_per_flow_bytes").f64(per_flow(&peak));
            }
        });
        out
    }

    /// Config digests of the successful entries — the set of jobs a
    /// `campaign run --resume` skips.
    pub fn completed_digests(&self) -> HashSet<String> {
        self.ok_entries().map(|e| e.config_digest.clone()).collect()
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Append-only ledger file writer. Every line is flushed as soon as it
/// is written, so a killed campaign loses at most the line in flight.
pub struct LedgerWriter {
    out: BufWriter<File>,
}

impl LedgerWriter {
    /// Create (truncate) `path` and write the header line.
    pub fn create(
        path: &Path,
        campaign: &str,
        tolerances: &Tolerances,
        expectations: &[Expectation],
    ) -> io::Result<LedgerWriter> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{}", header_json(campaign, tolerances, expectations))?;
        out.flush()?;
        Ok(LedgerWriter { out })
    }

    /// Append one entry line and flush.
    pub fn append(&mut self, entry: &LedgerEntry) -> io::Result<()> {
        writeln!(self.out, "{}", entry.to_json())?;
        self.out.flush()
    }

    /// Re-open an existing ledger for appending (for `--resume`). The
    /// header is kept, not rewritten. A torn final line — the in-flight
    /// write of a killed campaign, with or without its newline — is
    /// truncated away first so the resumed entries never concatenate
    /// onto partial bytes.
    pub fn resume(path: &Path) -> io::Result<LedgerWriter> {
        let text = std::fs::read_to_string(path)?;
        // Validate the header and interior lines up front; from_text
        // rejects anything worse than a single torn tail.
        Ledger::from_text(&text)?;
        let mut keep = 0usize;
        for (i, seg) in text.split_inclusive('\n').enumerate() {
            if !seg.ends_with('\n') {
                break; // incomplete final line: drop it
            }
            let line = seg.trim_end();
            let parses = if i == 0 {
                true // header, validated above
            } else {
                line.is_empty()
                    || Json::parse(line)
                        .and_then(|v| LedgerEntry::from_value(&v))
                        .is_ok()
            };
            if !parses {
                break; // complete-but-corrupt final line: drop it too
            }
            keep += seg.len();
        }
        if keep == 0 {
            return Err(invalid("ledger has no intact header line"));
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(keep as u64)?;
        use std::io::Seek;
        file.seek(io::SeekFrom::Start(keep as u64))?;
        Ok(LedgerWriter {
            out: BufWriter::new(file),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(seed: u64, ok: bool) -> LedgerEntry {
        LedgerEntry {
            job: format!("smoke/cca=reno/seed={seed}"),
            axis: vec![("cca".into(), "reno".into())],
            seed,
            config_digest: format!("{:016x}", 0xabcu64 + seed),
            outcome_digest: ok.then(|| format!("{:016x}", 0xdefu64 + seed)),
            error: (!ok).then(|| "run panicked: boom \"quoted\"".to_string()),
            crash_bundle: (!ok).then(|| "/tmp/crashes/crash-1".to_string()),
            attempts: 1,
            quarantined: false,
            sim_secs: 5.0,
            wall_secs: 0.25,
            events_processed: 120_000,
            events_per_sec: 480_000.0,
            eps_by_kind: Vec::new(),
            metrics: ok.then_some(Rollup {
                jfi: Some(0.987654321),
                utilization: 0.93,
                aggregate_mbps: 9.3,
                loss_rate: 0.0123,
                mathis_err: Some(0.08),
                drop_burstiness: Some(0.21),
                share_a: Some(1.0),
                ..Rollup::default()
            }),
            manifest: None,
        }
    }

    fn sample_text(n_ok: usize, n_failed: usize) -> String {
        let mut text = format!(
            "{}\n",
            header_json(
                "smoke",
                &Tolerances::default(),
                &[Expectation {
                    metric: "jfi".into(),
                    min: Some(0.8),
                    max: None,
                    source: "Figure 4".into(),
                }],
            )
        );
        for i in 0..n_ok {
            text.push_str(&sample_entry(i as u64, true).to_json());
            text.push('\n');
        }
        for i in 0..n_failed {
            text.push_str(&sample_entry(100 + i as u64, false).to_json());
            text.push('\n');
        }
        text
    }

    #[test]
    fn entries_round_trip() {
        for ok in [true, false] {
            let e = sample_entry(7, ok);
            let v = Json::parse(&e.to_json()).unwrap();
            let back = LedgerEntry::from_value(&v).unwrap();
            assert_eq!(back, e);
        }
    }

    /// Every row of the metric table: `None` is written as its presence
    /// rule says, `Some` comes back bit for bit through the ledger line,
    /// and an expectation may name it.
    #[test]
    fn every_metric_row_round_trips_keeps_its_presence_rule_and_names_an_expectation() {
        use crate::metric::{Metric, Presence};
        let spec = |metric: &str| {
            crate::CampaignSpec::from_json(&format!(
                r#"{{"name": "walk", "base": {{"flows": ["reno:2:20"]}},
                    "expectations": [{{"metric": "{metric}", "min": 0.5}}]}}"#
            ))
        };
        let reparse = |e: &LedgerEntry| {
            let v = Json::parse(&e.to_json()).unwrap();
            (LedgerEntry::from_value(&v).unwrap(), v)
        };
        let with = |metrics| LedgerEntry {
            metrics: Some(metrics),
            ..sample_entry(1, true)
        };
        let blank = with(Rollup::default());
        let (back, v) = reparse(&blank);
        assert_eq!(back, blank);
        for (i, metric) in METRICS.iter().enumerate() {
            let name = metric.name;
            assert!(spec(name).is_ok(), "{name} is not a valid expectation");
            let key = v.get("metrics").unwrap().get(name);
            match metric.presence {
                Presence::Always => assert_eq!(key.and_then(Json::as_f64), Some(0.0), "{name}"),
                Presence::NullWhenNone => assert!(key.is_some_and(Json::is_null), "{name}"),
                _ => assert!(key.is_none(), "{name}"),
            }
            if metric.presence == Presence::NotStored {
                continue;
            }
            let value = 1.0 / (i as f64 + 3.0);
            let mut rollup = Rollup::default();
            (metric.store)(&mut rollup, value);
            let (back, v) = reparse(&with(rollup));
            let written = v.get("metrics").unwrap().get(name).and_then(Json::as_f64);
            assert_eq!(written.map(f64::to_bits), Some(value.to_bits()), "{name}");
            let read = (metric.read)(&back).map(f64::to_bits);
            assert_eq!(read, Some(value.to_bits()), "{name}");
            // ...and it is the only metric that moved.
            let moved = METRICS
                .iter()
                .filter(|m| (m.read)(&back) != (m.read)(&blank));
            assert_eq!(moved.map(|m| m.name).collect::<Vec<_>>(), [name]);
        }
        // A name outside the table is refused, and the error lists them all.
        let err = spec("jif").map(|_| ()).unwrap_err().message;
        assert!(err.contains("\"jif\""), "{err}");
        assert!(err.contains(&Metric::names()), "{err}");
    }

    #[test]
    fn bottleneck_records_round_trip_and_stay_out_of_legacy_lines() {
        let plain = sample_entry(7, true);
        assert!(!plain.to_json().contains("bottlenecks"));

        let mut e = sample_entry(8, true);
        e.metrics.as_mut().unwrap().bottlenecks = vec![
            BottleneckMetrics {
                link: 0,
                label: "bn0".into(),
                utilization: 0.91,
                jfi: Some(0.88),
                loss_rate: 0.002,
                max_queue_bytes: 60_000,
                ce_marked_pkts: 0,
            },
            BottleneckMetrics {
                link: 2,
                label: "bn2".into(),
                utilization: 0.5,
                jfi: None,
                loss_rate: 0.0,
                max_queue_bytes: 1_200,
                ce_marked_pkts: 31,
            },
        ];
        let json = e.to_json();
        assert!(json.contains("\"bottlenecks\":[{\"link\":0,"));
        let back = LedgerEntry::from_value(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn eps_by_kind_round_trips_and_stays_out_of_legacy_lines() {
        let plain = sample_entry(7, true);
        assert!(!plain.to_json().contains("eps_by_kind"));

        let mut e = sample_entry(8, true);
        e.eps_by_kind = vec![
            ("data".into(), 1_234_567.25),
            ("ack".into(), 654_321.0),
            ("timer".into(), 98_765.5),
        ];
        let json = e.to_json();
        assert!(json.contains("\"eps_by_kind\":{\"data\":1234567.25,"));
        let back = LedgerEntry::from_value(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.to_json(), json);
        // Per-kind throughput is wall-clock-dependent; normalization
        // zeroes the values but keeps the (deterministic) kind keys.
        let n = e.normalized();
        assert_eq!(n.eps_by_kind.len(), 3);
        assert!(n.eps_by_kind.iter().all(|(_, eps)| *eps == 0.0));
    }

    #[test]
    fn ledger_text_round_trips_header_and_entries() {
        let ledger = Ledger::from_text(&sample_text(2, 1)).unwrap();
        assert_eq!(ledger.campaign, "smoke");
        assert_eq!(ledger.entries.len(), 3);
        assert_eq!(ledger.ok_entries().count(), 2);
        assert!(!ledger.truncated);
        assert_eq!(ledger.expectations.len(), 1);
        assert_eq!(ledger.expectations[0].metric, "jfi");
        assert_eq!(ledger.tolerances, Tolerances::default());
        let failed = &ledger.entries[2];
        assert!(failed.error.as_deref().unwrap().contains("boom"));
        assert!(failed.crash_bundle.is_some());
    }

    #[test]
    fn truncated_final_line_is_skipped_not_fatal() {
        let mut text = sample_text(3, 0);
        // Kill the writer mid-line: drop the last 25 bytes.
        text.truncate(text.len() - 25);
        let ledger = Ledger::from_text(&text).unwrap();
        assert!(ledger.truncated);
        assert_eq!(ledger.entries.len(), 2);
    }

    #[test]
    fn interior_corruption_is_fatal() {
        let text = sample_text(3, 0);
        let mut lines: Vec<&str> = text.lines().collect();
        lines[2] = "{\"job\": garbage";
        let err = Ledger::from_text(&lines.join("\n")).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn wrong_format_tag_is_rejected() {
        assert!(Ledger::from_text("{\"ledger\":\"other/9\"}\n").is_err());
        assert!(Ledger::from_text("").is_err());
    }

    #[test]
    fn by_config_indexes_first_entry_per_digest() {
        let ledger = Ledger::from_text(&sample_text(2, 0)).unwrap();
        let idx = ledger.by_config();
        assert_eq!(idx.len(), 2);
        assert!(idx.contains_key(ledger.entries[0].config_digest.as_str()));
    }

    #[test]
    fn normalization_zeroes_wall_clock_fields_only() {
        let e = sample_entry(1, true);
        let n = e.normalized();
        assert_eq!(n.wall_secs, 0.0);
        assert_eq!(n.events_per_sec, 0.0);
        assert_eq!(n.outcome_digest, e.outcome_digest);
        assert_eq!(n.metrics, e.metrics);
        assert_eq!(n.events_processed, e.events_processed);
    }
}
