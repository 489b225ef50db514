//! Prometheus text exposition: the one writer every dump goes through,
//! and the format checker.
//!
//! [`Exposition`] appends the classic 0.0.4 text format family by family:
//! `# HELP` / `# TYPE` once, then one sample line per series. A histogram
//! is written from a [`Log2Tally`] as cumulative `_bucket{le="..."}`
//! lines (upper bounds `2^k - 1`), then `_sum` and `_count`. The values
//! come straight from the counts' owners: a run's harness reads the
//! engine and the components into a plain snapshot and writes it, both
//! for the dump written after the run and for the live `/metrics`
//! endpoint that `--serve` refreshes while it goes, so no count is held
//! twice.
//!
//! [`validate_exposition`] is the CI-facing line-format checker: it
//! accepts exactly what [`Exposition`] emits (and standard exposition
//! output generally) and reports the first malformed line.

use ccsim_sim::Log2Tally;
use std::fmt::Write as _;

/// What `# HELP` text escapes: backslashes and newlines.
const HELP_ESCAPES: &[(char, &str)] = &[('\\', "\\\\"), ('\n', "\\n")];
/// What a label value escapes: HELP's escapes and double quotes.
const LABEL_ESCAPES: &[(char, &str)] = &[('\\', "\\\\"), ('\n', "\\n"), ('"', "\\\"")];

/// Append `s` with each character `escapes` names replaced.
fn push_escaped(out: &mut String, s: &str, escapes: &[(char, &str)]) {
    for c in s.chars() {
        match escapes.iter().find(|(from, _)| *from == c) {
            Some((_, to)) => out.push_str(to),
            None => out.push(c),
        }
    }
}

/// A gauge value the way Prometheus expects it: integers without a
/// decimal point, other floats via shortest round-trip, and `NaN`,
/// `+Inf`, `-Inf` spelled out.
struct PromFloat(f64);

impl std::fmt::Display for PromFloat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            v if v.is_nan() => f.write_str("NaN"),
            f64::INFINITY => f.write_str("+Inf"),
            f64::NEG_INFINITY => f.write_str("-Inf"),
            v => write!(f, "{v}"),
        }
    }
}

/// A label set: `(name, value)` pairs in the order they are written.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

/// A Prometheus text-exposition dump, written one series at a time.
///
/// Each call appends one series of the family `name`; the family's
/// `# HELP` / `# TYPE` lines are written before its first series, so a
/// family with no series leaves no trace. A family's series must be
/// appended consecutively (the format allows one group per family).
/// Nothing is timestamped: a scraper stamps samples with the scrape
/// instant.
#[derive(Debug, Default)]
pub struct Exposition {
    text: String,
    /// Series appended so far; a histogram is one series.
    series: u64,
    /// The family whose group is open.
    family: String,
}

impl Exposition {
    /// An empty dump.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Append one counter series.
    pub fn counter(&mut self, name: &str, help: &str, labels: Labels<'_>, value: u64) {
        self.open(name, help, "counter");
        self.sample(name, "", labels, None, value);
    }

    /// Append one gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: Labels<'_>, value: f64) {
        self.open(name, help, "gauge");
        self.sample(name, "", labels, None, PromFloat(value));
    }

    /// Append one histogram series holding `tally`. Trailing empty
    /// buckets add no information (their cumulative count equals the
    /// total), so the buckets stop at the highest non-empty one, then
    /// `+Inf`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: Labels<'_>, tally: &Log2Tally) {
        self.open(name, help, "histogram");
        let top = tally.max_bucket().map_or(0, |k| k + 1);
        let mut cumulative = 0u64;
        let mut le = String::new();
        for (k, &c) in tally.buckets.iter().enumerate().take(top) {
            cumulative += c;
            le.clear();
            let _ = write!(le, "{}", Log2Tally::bucket_upper_bound(k));
            self.sample(name, "_bucket", labels, Some(("le", &le)), cumulative);
        }
        self.sample(name, "_bucket", labels, Some(("le", "+Inf")), tally.count);
        self.sample(name, "_sum", labels, None, tally.sum);
        self.sample(name, "_count", labels, None, tally.count);
    }

    /// Number of series appended so far (a histogram counts once).
    pub fn series(&self) -> u64 {
        self.series
    }

    /// The finished dump.
    pub fn into_text(self) -> String {
        self.text
    }

    /// Count one series of `name`, writing the family's header first when
    /// its group is not the open one.
    fn open(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(is_name(name), "invalid metric name {name:?}");
        self.series += 1;
        if self.family == name {
            return;
        }
        self.text.push_str("# HELP ");
        self.text.push_str(name);
        self.text.push(' ');
        push_escaped(&mut self.text, help, HELP_ESCAPES);
        let _ = writeln!(self.text, "\n# TYPE {name} {kind}");
        self.family.clear();
        self.family.push_str(name);
    }

    /// Append one sample line: `name` + `suffix`, the labels (plus
    /// `extra`, a histogram's `le`), and `value`.
    fn sample(
        &mut self,
        name: &str,
        suffix: &str,
        labels: Labels<'_>,
        extra: Option<(&str, &str)>,
        value: impl std::fmt::Display,
    ) {
        let out = &mut self.text;
        out.push_str(name);
        out.push_str(suffix);
        let mut open = false;
        for &(k, v) in labels.iter().chain(&extra) {
            debug_assert!(is_name(k) && !k.contains(':'), "invalid label name {k:?}");
            out.push(if open { ',' } else { '{' });
            open = true;
            out.push_str(k);
            out.push_str("=\"");
            push_escaped(out, v, LABEL_ESCAPES);
            out.push('"');
        }
        if open {
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    }
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Split a sample line into (name, rest-after-labels); returns `None` on
/// malformed label blocks.
fn strip_name_and_labels(line: &str) -> Option<(&str, &str)> {
    let name_end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let (name, rest) = line.split_at(name_end);
    if !is_name(name) {
        return None;
    }
    if let Some(body) = rest.strip_prefix('{') {
        // Walk to the closing brace outside any quoted value.
        let mut in_quotes = false;
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_quotes => escaped = true,
                '"' => in_quotes = !in_quotes,
                '}' if !in_quotes => return Some((name, &body[i + 1..])),
                _ => {}
            }
        }
        None
    } else {
        Some((name, rest))
    }
}

/// Validate Prometheus text-exposition line format.
///
/// Checks per line: comments are well-formed `# HELP <name> ...` /
/// `# TYPE <name> <counter|gauge|histogram|summary|untyped>`; samples are
/// `<name>[{labels}] <value> [timestamp]` with a valid metric name and a
/// parseable value; every sample's family (modulo `_bucket`/`_sum`/
/// `_count` suffixes) was declared by a preceding `# TYPE`; no family is
/// declared twice; and a family's samples form one group — a sample after
/// another family's `# TYPE` belongs to a group that already closed.
/// Returns the first offending line on failure.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    // The family whose group is open: the latest `# TYPE`.
    let mut open: Option<&str> = None;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("HELP") => {
                    let name = parts.next().unwrap_or("");
                    if !is_name(name) {
                        return Err(format!("line {n}: bad HELP metric name: {line}"));
                    }
                }
                Some("TYPE") => {
                    let name = parts.next().unwrap_or("");
                    let kind = parts.next().unwrap_or("");
                    if !is_name(name) {
                        return Err(format!("line {n}: bad TYPE metric name: {line}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown TYPE {kind:?}: {line}"));
                    }
                    if typed.iter().any(|t| t == name) {
                        return Err(format!("line {n}: second TYPE line for {name:?}"));
                    }
                    typed.push(name.to_string());
                    open = Some(name);
                }
                // Free-form comments are legal exposition.
                _ => {}
            }
            continue;
        }
        let Some((name, rest)) = strip_name_and_labels(line) else {
            return Err(format!("line {n}: malformed sample: {line}"));
        };
        let mut fields = rest.split_whitespace();
        let Some(value) = fields.next() else {
            return Err(format!("line {n}: sample missing value: {line}"));
        };
        let value_ok = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !value_ok {
            return Err(format!("line {n}: unparseable value {value:?}: {line}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: bad timestamp {ts:?}: {line}"));
            }
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.iter().any(|t| t == f))
            .unwrap_or(name);
        if !typed.iter().any(|t| t == family) {
            return Err(format!("line {n}: sample {name:?} has no preceding TYPE"));
        }
        if open != Some(family) {
            return Err(format!(
                "line {n}: sample {name:?} after the group of {family:?} closed"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(values: &[u64]) -> Log2Tally {
        let mut t = Log2Tally::default();
        for &v in values {
            t.record(v);
        }
        t
    }

    fn sample_exposition() -> Exposition {
        let mut e = Exposition::new();
        e.counter("ccsim_events_total", "events", &[("kind", "data")], 10);
        e.counter("ccsim_events_total", "events", &[("kind", "ack")], 5);
        e.gauge("ccsim_events_per_sec", "rate", &[], 1.5e6);
        let occupancy = tally(&[0, 3, 100]);
        e.histogram("ccsim_link_queue_bytes", "occupancy", &[], &occupancy);
        e
    }

    #[test]
    fn exposition_has_headers_and_samples() {
        let text = sample_exposition().into_text();
        assert!(text.contains("# TYPE ccsim_events_total counter"));
        assert!(text.contains("ccsim_events_total{kind=\"data\"} 10"));
        assert!(text.contains("# TYPE ccsim_link_queue_bytes histogram"));
        assert!(text.contains("ccsim_link_queue_bytes_bucket{le=\"0\"} 1"));
        assert!(text.contains("ccsim_link_queue_bytes_bucket{le=\"3\"} 2"));
        assert!(text.contains("ccsim_link_queue_bytes_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("ccsim_link_queue_bytes_sum 103"));
        assert!(text.contains("ccsim_link_queue_bytes_count 3"));
        // HELP/TYPE emitted once per family, not per series.
        assert_eq!(text.matches("# TYPE ccsim_events_total").count(), 1);
    }

    #[test]
    fn exposition_bytes_are_exact() {
        let mut e = sample_exposition();
        e.counter(
            "ccsim_escaped_total",
            "help with \\ and\nnewline",
            &[("a", "q\"uote"), ("b", "back\\slash\nline")],
            7,
        );
        for (v, value) in [
            ("nan", f64::NAN),
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
            ("small", -2.5e-7),
        ] {
            e.gauge("ccsim_values", "float renderings", &[("v", v)], value);
        }
        let sizes = tally(&[5]);
        e.histogram("ccsim_sizes", "labeled histogram", &[("link", "0")], &sizes);
        e.histogram("ccsim_empty", "no observations", &[], &Log2Tally::default());
        assert_eq!(e.series(), 11);
        let expected = r#"# HELP ccsim_events_total events
# TYPE ccsim_events_total counter
ccsim_events_total{kind="data"} 10
ccsim_events_total{kind="ack"} 5
# HELP ccsim_events_per_sec rate
# TYPE ccsim_events_per_sec gauge
ccsim_events_per_sec 1500000
# HELP ccsim_link_queue_bytes occupancy
# TYPE ccsim_link_queue_bytes histogram
ccsim_link_queue_bytes_bucket{le="0"} 1
ccsim_link_queue_bytes_bucket{le="1"} 1
ccsim_link_queue_bytes_bucket{le="3"} 2
ccsim_link_queue_bytes_bucket{le="7"} 2
ccsim_link_queue_bytes_bucket{le="15"} 2
ccsim_link_queue_bytes_bucket{le="31"} 2
ccsim_link_queue_bytes_bucket{le="63"} 2
ccsim_link_queue_bytes_bucket{le="127"} 3
ccsim_link_queue_bytes_bucket{le="+Inf"} 3
ccsim_link_queue_bytes_sum 103
ccsim_link_queue_bytes_count 3
# HELP ccsim_escaped_total help with \\ and\nnewline
# TYPE ccsim_escaped_total counter
ccsim_escaped_total{a="q\"uote",b="back\\slash\nline"} 7
# HELP ccsim_values float renderings
# TYPE ccsim_values gauge
ccsim_values{v="nan"} NaN
ccsim_values{v="inf"} +Inf
ccsim_values{v="-inf"} -Inf
ccsim_values{v="small"} -0.00000025
# HELP ccsim_sizes labeled histogram
# TYPE ccsim_sizes histogram
ccsim_sizes_bucket{link="0",le="0"} 0
ccsim_sizes_bucket{link="0",le="1"} 0
ccsim_sizes_bucket{link="0",le="3"} 0
ccsim_sizes_bucket{link="0",le="7"} 1
ccsim_sizes_bucket{link="0",le="+Inf"} 1
ccsim_sizes_sum{link="0"} 5
ccsim_sizes_count{link="0"} 1
# HELP ccsim_empty no observations
# TYPE ccsim_empty histogram
ccsim_empty_bucket{le="+Inf"} 0
ccsim_empty_sum 0
ccsim_empty_count 0
"#;
        assert_eq!(e.into_text(), expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = sample_exposition().into_text();
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("ccsim_link_queue_bytes_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn own_output_validates() {
        let e = sample_exposition();
        assert_eq!(e.series(), 4);
        validate_exposition(&e.into_text()).unwrap();
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("0bad_name 1").is_err());
        assert!(validate_exposition("# TYPE x flub\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx notanumber").is_err());
        assert!(validate_exposition("orphan_sample 1").is_err());
        assert!(validate_exposition("# TYPE x counter\nx{unclosed 1").is_err());
    }

    #[test]
    fn validator_rejects_a_family_split_into_groups() {
        // Two families interleaved, one HELP/TYPE pair per series.
        let interleaved = "\
# HELP ccsim_phase_wall_nanos_total Wall-clock nanoseconds spent in each runner phase
# TYPE ccsim_phase_wall_nanos_total counter
ccsim_phase_wall_nanos_total{phase=\"build\"} 5120
# HELP ccsim_phase_calls_total Completed profiling spans per runner phase
# TYPE ccsim_phase_calls_total counter
ccsim_phase_calls_total{phase=\"build\"} 1
# HELP ccsim_phase_wall_nanos_total Wall-clock nanoseconds spent in each runner phase
# TYPE ccsim_phase_wall_nanos_total counter
ccsim_phase_wall_nanos_total{phase=\"collect\"} 880
# HELP ccsim_phase_calls_total Completed profiling spans per runner phase
# TYPE ccsim_phase_calls_total counter
ccsim_phase_calls_total{phase=\"collect\"} 1
";
        let err = validate_exposition(interleaved).unwrap_err();
        assert!(err.starts_with("line 8: second TYPE"), "{err}");
        // Without the repeated header, the stray sample is still caught.
        let split = "# TYPE a counter\na{x=\"1\"} 1\n# TYPE b counter\nb 1\na{x=\"2\"} 2\n";
        let err = validate_exposition(split).unwrap_err();
        assert!(err.starts_with("line 5: sample \"a\" after"), "{err}");
        // Grouped, the same series are valid.
        let grouped = "# TYPE a counter\na{x=\"1\"} 1\na{x=\"2\"} 2\n# TYPE b counter\nb 1\n";
        validate_exposition(grouped).unwrap();
    }

    #[test]
    fn validator_accepts_label_edge_cases() {
        let ok = "# TYPE m gauge\nm{a=\"with \\\"quote\\\" and }brace\"} 2.5\n";
        validate_exposition(ok).unwrap();
        let with_ts = "# TYPE m gauge\nm 2.5 1700000000\n";
        validate_exposition(with_ts).unwrap();
    }

    #[test]
    fn empty_exposition_is_valid() {
        let text = Exposition::new().into_text();
        assert!(text.is_empty());
        validate_exposition(&text).unwrap();
    }
}
