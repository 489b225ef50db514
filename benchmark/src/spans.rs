//! In-memory span log for the traced run.
//!
//! A span is `(name, start, end, parent, workload)`; spans are recorded
//! from the benchmark's own files around calls into each layer, kept in
//! memory, and written to `results/trace-<workload>.json` when the run
//! ends. Self time is a span's duration minus the part its children
//! cover. Per-event spans (`dispatch.*`, `cca.call`) are *sampled*: the
//! log holds their exact count, the estimated total, and the first few
//! hundred timed intervals verbatim.

use crate::compat::{num, obj, Json};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug, Clone)]
pub struct SampledGroup {
    pub name: String,
    pub parent: Option<usize>,
    /// Exact number of occurrences.
    pub count: u64,
    /// Occurrences actually timed.
    pub samples: u64,
    /// `count × mean sampled duration`, nanoseconds.
    pub estimated_total_ns: u64,
    /// `(start, end)` of the first timed occurrences, nanoseconds from
    /// the log's origin.
    pub kept: Vec<(u64, u64)>,
}

pub struct SpanLog {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    groups: Vec<SampledGroup>,
}

impl SpanLog {
    pub fn new(workload: &str) -> SpanLog {
        SpanLog {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            groups: Vec::new(),
        }
    }

    pub fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent);
        (out, id)
    }

    pub fn add_group(&mut self, group: SampledGroup) {
        self.groups.push(group);
    }

    /// Duration minus the union of direct children (children of one
    /// parent never overlap here, so the union is the sum), including the
    /// estimated totals of sampled groups.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .chain(
                self.groups
                    .iter()
                    .filter(|g| g.parent == Some(id))
                    .map(|g| g.estimated_total_ns),
            )
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj(vec![
                    ("id", num(id as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("self_ns", num(self.self_ns(id) as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                ])
            })
            .collect();
        let groups = self
            .groups
            .iter()
            .map(|g| {
                obj(vec![
                    ("name", Json::Str(g.name.clone())),
                    ("parent", g.parent.map_or(Json::Null, |p| num(p as f64))),
                    ("count", num(g.count as f64)),
                    ("samples", num(g.samples as f64)),
                    ("estimated_total_ns", num(g.estimated_total_ns as f64)),
                    (
                        "sample_spans_ns",
                        Json::Arr(
                            g.kept
                                .iter()
                                .map(|&(a, b)| Json::Arr(vec![num(a as f64), num(b as f64)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("spans", Json::Arr(spans)),
            ("sampled", Json::Arr(groups)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new("w");
        let t0 = log.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = log.record("core.run", at(0), at(1000), None);
        let setup = log.record("core.setup", at(0), at(100), Some(root));
        log.record("core.slice[0]", at(100), at(700), Some(root));
        log.add_group(SampledGroup {
            name: "dispatch.ack".into(),
            parent: Some(setup),
            count: 10,
            samples: 2,
            estimated_total_ns: 40_000,
            kept: vec![(0, 4000)],
        });
        assert_eq!(log.self_ns(root), 300_000);
        assert_eq!(log.self_ns(setup), 60_000);
        let doc = log.to_json();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("w"));
    }
}
