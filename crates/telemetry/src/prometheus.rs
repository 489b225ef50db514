//! Prometheus text-exposition export for the [`Registry`].
//!
//! Emits the classic 0.0.4 text format: `# HELP` / `# TYPE` headers per
//! metric family, then one sample line per series. Histograms expand into
//! cumulative `_bucket{le="..."}` series (upper bounds `2^k - 1`, matching
//! [`crate::registry::Histogram`]'s log2 buckets) plus `_sum` and
//! `_count`. The dump is a point-in-time snapshot written after a run —
//! there is no HTTP endpoint; sweeps produce one file per run, next to
//! the run's other artifacts.
//!
//! [`validate_exposition`] is the CI-facing line-format checker: it
//! accepts exactly what [`write_exposition`] emits (and standard
//! exposition output generally) and reports the first malformed line.

use crate::registry::{Histogram, Metric, MetricEntry, Registry, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render `{k="v",...}` for a label set, with an optional extra label
/// (used for histogram `le`). Empty label sets render as nothing.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render a sample value the way Prometheus expects (integers without a
/// decimal point; floats via shortest round-trip).
fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn write_histogram(out: &mut String, entry: &MetricEntry, h: &Histogram) {
    let counts = h.bucket_counts();
    // Trailing empty buckets add no information (their cumulative count
    // equals the total); emit up to the highest non-empty bucket, then
    // +Inf, so a 65-bucket family stays readable.
    let top = h.max_bucket().map_or(0, |k| k + 1).min(HISTOGRAM_BUCKETS);
    let mut cumulative = 0u64;
    for (k, &c) in counts.iter().enumerate().take(top) {
        cumulative += c;
        let le = Histogram::bucket_upper_bound(k).to_string();
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            entry.name,
            label_block(&entry.labels, Some(("le", &le))),
            cumulative
        );
    }
    let _ = writeln!(
        out,
        "{}_bucket{} {}",
        entry.name,
        label_block(&entry.labels, Some(("le", "+Inf"))),
        h.count()
    );
    let _ = writeln!(
        out,
        "{}_sum{} {}",
        entry.name,
        label_block(&entry.labels, None),
        h.sum()
    );
    let _ = writeln!(
        out,
        "{}_count{} {}",
        entry.name,
        label_block(&entry.labels, None),
        h.count()
    );
}

/// Render the registry as Prometheus text exposition (no timestamps:
/// a scraper stamps samples with the scrape instant).
pub fn write_exposition(registry: &Registry) -> String {
    let entries = registry.entries();
    let mut out = String::with_capacity(256 + entries.len() * 128);
    let mut last_family: Option<String> = None;
    for entry in &entries {
        // HELP/TYPE once per family; series of one family are registered
        // consecutively (the registry preserves insertion order).
        if last_family.as_deref() != Some(entry.name.as_str()) {
            let kind = match &entry.metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", entry.name, escape_help(&entry.help));
            let _ = writeln!(out, "# TYPE {} {}", entry.name, kind);
            last_family = Some(entry.name.clone());
        }
        match &entry.metric {
            Metric::Counter(c) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    entry.name,
                    label_block(&entry.labels, None),
                    c.get()
                );
            }
            Metric::Gauge(g) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    entry.name,
                    label_block(&entry.labels, None),
                    render_value(g.get())
                );
            }
            Metric::Histogram(h) => write_histogram(&mut out, entry, h),
        }
    }
    out
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
/// parseable value; and every sample's family (modulo `_bucket`/`_sum`/
/// `_count` suffixes) was declared by a preceding `# TYPE`. Returns the
/// first offending line on failure.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
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
                    typed.push(name.to_string());
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
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter_with("ccsim_events_total", "events", &[("kind", "data")])
            .add(10);
        r.counter_with("ccsim_events_total", "events", &[("kind", "ack")])
            .add(5);
        r.gauge("ccsim_events_per_sec", "rate").set(1.5e6);
        let h = r.histogram("ccsim_link_queue_bytes", "occupancy");
        h.record(0);
        h.record(3);
        h.record(100);
        r
    }

    #[test]
    fn exposition_has_headers_and_samples() {
        let text = write_exposition(&sample_registry());
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
    fn histogram_buckets_are_cumulative() {
        let text = write_exposition(&sample_registry());
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("ccsim_link_queue_bytes_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn own_output_validates() {
        let text = write_exposition(&sample_registry());
        validate_exposition(&text).unwrap();
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
    fn validator_accepts_label_edge_cases() {
        let ok = "# TYPE m gauge\nm{a=\"with \\\"quote\\\" and }brace\"} 2.5\n";
        validate_exposition(ok).unwrap();
        let with_ts = "# TYPE m gauge\nm 2.5 1700000000\n";
        validate_exposition(with_ts).unwrap();
    }

    #[test]
    fn empty_registry_is_valid() {
        let text = write_exposition(&Registry::new());
        assert!(text.is_empty());
        validate_exposition(&text).unwrap();
    }
}
