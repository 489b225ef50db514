//! Gates as data: every numeric bound CI holds a measured value to is one
//! row of `baselines/gates.json`, and this module is the one evaluator.
//!
//! A row names the CI job that checks it, the artefact file that job
//! writes, the metric inside it, an optional `per` metric (the row then
//! bounds the ratio), and one inclusive `max` or `min`. It also says where
//! the bound came from: the value measured on the committed code
//! (`measured`), how the bound was derived from a measurement (`margin`),
//! the commit that set it (`set_by`), the value it must fail on
//! (`trips_on`: the figure of the regression it guards against) and why it
//! exists. The table is compiled in (`include_str!`), so the tests and
//! `ccsim gates <job> <dir>` read the same bytes.
//!
//! Three artefact kinds, told apart by extension and read only with the
//! readers that already exist:
//! * `.txt`, benchmark stdout: `name value unit` lines, plus the keys of
//!   the last line's JSON (`correct` reads 1 or 0, `failed`, and each
//!   `metrics.<name>.value`);
//! * `.jsonl`, a ledger ([`Ledger::from_text`]): metrics resolve through
//!   the first entry's manifest and profile (`events_processed`,
//!   `wheel.{sends_now,lane_merges,revived,cancellable}`, or `pool:<name>`
//!   for a memory account). A profile key its writer leaves out when zero
//!   reads 0 by `Profile::from_value`'s rule, not by one here. A torn last
//!   line, which `campaign run --resume` reads past, fails every row;
//! * `.json`, a JSON document: a top-level numeric key.
//!
//! A row whose artefact, metric or `per` metric is missing or does not
//! parse fails, naming what is missing. It never reads as 0.

use crate::ledger::Ledger;
use ccsim_sim::json::{Json, JsonError};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// `baselines/gates.json`, the table every CI job's rows come from.
const TABLE: &str = include_str!("../../../baselines/gates.json");

/// The metric names a ledger artefact knows, besides `pool:<name>`.
const LEDGER_METRICS: [&str; 5] = [
    "events_processed",
    "wheel.sends_now",
    "wheel.lane_merges",
    "wheel.revived",
    "wheel.cancellable",
];

/// An inclusive bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    Max(f64),
    Min(f64),
}

impl Bound {
    /// Whether `value` passes. NaN never does.
    pub fn admits(self, value: f64) -> bool {
        match self {
            Bound::Max(b) => value <= b,
            Bound::Min(b) => value >= b,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bound::Max(b) => write!(f, "<= {b}"),
            Bound::Min(b) => write!(f, ">= {b}"),
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub job: String,
    /// A file name inside the directory the job passes in.
    pub artefact: String,
    pub metric: String,
    /// When set, the row bounds `metric / per`.
    pub per: Option<String>,
    pub bound: Bound,
    /// The value on the committed code.
    pub measured: f64,
    /// How the bound was derived from a measurement.
    pub margin: String,
    /// The commit that set the bound.
    pub set_by: String,
    /// A value the row must fail on.
    pub trips_on: f64,
    pub why: String,
}

impl Gate {
    fn from_value(v: &Json) -> Result<Gate, JsonError> {
        let name = v.req_str("name")?;
        let row = |e: JsonError| JsonError::new(format!("gate {name}: {}", e.message));
        let (max, min) = (
            v.opt_f64("max").map_err(row)?,
            v.opt_f64("min").map_err(row)?,
        );
        let bound = match (max, min) {
            (Some(b), None) => Bound::Max(b),
            (None, Some(b)) => Bound::Min(b),
            _ => return Err(row(JsonError::new("want one of \"max\" and \"min\""))),
        };
        let text = |key: &str| v.req_str(key).map(str::to_string).map_err(row);
        Ok(Gate {
            name: name.to_string(),
            job: text("job")?,
            artefact: text("artefact")?,
            metric: text("metric")?,
            per: v.opt_str("per").map_err(row)?.map(str::to_string),
            bound,
            measured: v.req_f64("measured").map_err(row)?,
            margin: text("margin")?,
            set_by: text("set_by")?,
            trips_on: v.req_f64("trips_on").map_err(row)?,
            why: text("why")?,
        })
    }

    /// This row's value in a loaded artefact: the metric, or its ratio to
    /// `per`. A zero `per` is an error, not an infinite ratio.
    pub fn read(&self, artefact: &Artefact) -> Result<f64, String> {
        let metric = |name: &str| artefact.metric(name).map_err(|e| format!("{name}: {e}"));
        let value = metric(&self.metric)?;
        let Some(per) = &self.per else {
            return Ok(value);
        };
        let base = metric(per)?;
        if base == 0.0 {
            return Err(format!("{per}: reads 0"));
        }
        Ok(value / base)
    }
}

/// The compiled-in table: a JSON array of rows.
pub fn table() -> Result<Vec<Gate>, JsonError> {
    let doc = Json::parse(TABLE)?;
    let rows = doc
        .as_arr()
        .ok_or_else(|| JsonError::new("a gate table is an array of rows"))?;
    rows.iter().map(Gate::from_value).collect()
}

/// The jobs that have rows, sorted.
pub fn jobs(gates: &[Gate]) -> Vec<&str> {
    let mut jobs: Vec<&str> = gates.iter().map(|g| g.job.as_str()).collect();
    jobs.sort_unstable();
    jobs.dedup();
    jobs
}

/// A loaded artefact.
#[derive(Debug)]
pub enum Artefact {
    /// Benchmark stdout as `(name, value)` pairs, last-line JSON keys first.
    Bench(Vec<(String, f64)>),
    Ledger(Ledger),
    Doc(Json),
}

impl Artefact {
    /// Parse `text` as the kind `file`'s extension names.
    pub fn parse(file: &str, text: &str) -> Result<Artefact, String> {
        match Path::new(file).extension().and_then(|e| e.to_str()) {
            Some("txt") => Ok(Artefact::Bench(bench_values(text))),
            Some("jsonl") => match Ledger::from_text(text) {
                Ok(ledger) if ledger.truncated => Err("its last line does not parse".into()),
                Ok(ledger) => Ok(Artefact::Ledger(ledger)),
                Err(e) => Err(e.to_string()),
            },
            Some("json") => Json::parse(text)
                .map(Artefact::Doc)
                .map_err(|e| e.to_string()),
            _ => Err("unknown artefact kind (want .txt, .jsonl or .json)".into()),
        }
    }

    /// Read `dir/file`.
    fn load(dir: &Path, file: &str) -> Result<Artefact, String> {
        let text = std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
        Artefact::parse(file, &text).map_err(|e| format!("{file}: {e}"))
    }

    /// One named metric.
    pub fn metric(&self, name: &str) -> Result<f64, String> {
        match self {
            Artefact::Bench(values) => values
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| "no such line or last-line key".into()),
            Artefact::Ledger(ledger) => ledger_metric(ledger, name),
            Artefact::Doc(doc) => match doc.get(name) {
                None => Err("no such top-level key".into()),
                Some(v) => v.as_f64().ok_or_else(|| "not a number".into()),
            },
        }
    }
}

/// Benchmark stdout's numbers: the last line's JSON keys, then every
/// `name value unit` line whose value parses as a finite number.
fn bench_values(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let last = text.lines().rev().find(|l| !l.trim().is_empty());
    if let Some(Json::Obj(fields)) = last.and_then(|l| Json::parse(l).ok()) {
        for (key, v) in &fields {
            match (v.as_f64(), v.as_bool(), v.as_obj()) {
                (Some(x), ..) => out.push((key.clone(), x)),
                (_, Some(b), _) => out.push((key.clone(), f64::from(u8::from(b)))),
                (.., Some(metrics)) if key == "metrics" => {
                    for (name, m) in metrics {
                        if let Some(x) = m.get("value").and_then(Json::as_f64) {
                            out.push((name.clone(), x));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    for line in text.lines() {
        let mut words = line.split_whitespace();
        if let (Some(name), Some(Ok(x))) = (words.next(), words.next().map(str::parse::<f64>)) {
            if x.is_finite() {
                out.push((name.to_string(), x));
            }
        }
    }
    out
}

/// A ledger metric, read through the first entry's manifest and profile.
fn ledger_metric(ledger: &Ledger, name: &str) -> Result<f64, String> {
    let known = LEDGER_METRICS.contains(&name) || name.starts_with("pool:");
    if !known {
        let list = LEDGER_METRICS.join(", ");
        return Err(format!("not a ledger metric (known: {list}, pool:<name>)"));
    }
    let entry = ledger.entries.first().ok_or("the ledger has no entries")?;
    let manifest = entry
        .manifest
        .as_ref()
        .ok_or("its first entry has no manifest")?;
    if name == "events_processed" {
        return Ok(manifest.events_processed as f64);
    }
    let profile = manifest
        .profile
        .as_ref()
        .ok_or("its first entry has no profile")?;
    let w = &profile.wheel;
    let count = match name {
        "wheel.sends_now" => w.sends_now,
        "wheel.lane_merges" => w.lane_merges,
        "wheel.revived" => w.revived,
        "wheel.cancellable" => w.cancellable_scheduled,
        _ => {
            let pool = &name["pool:".len()..];
            let gauge = profile.memory.iter().find(|g| g.name == pool);
            gauge.ok_or("no such memory account in the profile")?.bytes
        }
    };
    Ok(count as f64)
}

/// One row's reading: its value, or why there is none.
#[derive(Debug)]
pub struct Verdict<'a> {
    pub gate: &'a Gate,
    pub value: Result<f64, String>,
}

impl Verdict<'_> {
    pub fn passed(&self) -> bool {
        matches!(self.value, Ok(v) if self.gate.bound.admits(v))
    }
}

/// Read every row of `job` from the artefacts in `dir`, each artefact
/// once. `None` when no row names `job`.
pub fn evaluate<'a>(gates: &'a [Gate], job: &str, dir: &Path) -> Option<Vec<Verdict<'a>>> {
    let mut loaded: HashMap<&str, Result<Artefact, String>> = HashMap::new();
    let verdicts: Vec<Verdict<'a>> = gates
        .iter()
        .filter(|g| g.job == job)
        .map(|gate| {
            let artefact = loaded
                .entry(&gate.artefact)
                .or_insert_with(|| Artefact::load(dir, &gate.artefact));
            let value = match artefact {
                Ok(a) => gate.read(a),
                Err(e) => Err(e.clone()),
            };
            Verdict { gate, value }
        })
        .collect();
    (!verdicts.is_empty()).then_some(verdicts)
}

/// One line per verdict: name, value, bound, `ok` or `FAIL` (with the
/// reason when there is no value).
pub fn render(verdicts: &[Verdict<'_>]) -> String {
    let width = verdicts
        .iter()
        .map(|v| v.gate.name.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for v in verdicts {
        let (value, why) = match &v.value {
            Ok(x) => (number(*x), String::new()),
            Err(e) => ("-".to_string(), format!(" ({e})")),
        };
        let verdict = if v.passed() { "ok" } else { "FAIL" };
        let bound = v.gate.bound.to_string();
        let name = &v.gate.name;
        out += &format!("{name:<width$}  {value:>14}  {bound:<14}  {verdict}{why}\n");
    }
    out
}

/// Whole numbers as integers, anything else to four decimals.
fn number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}
