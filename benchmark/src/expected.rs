//! `expected.json`: pinned outcome summaries per (workload, scenario
//! seed), written by `-- pin` and checked on every run.

use crate::compat::{num, obj, Json, OutcomeSummary};
use std::path::PathBuf;

const SCHEMA: &str = "ccsim-benchmark-expected/1";

pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub workload: String,
    pub seed: u64,
    pub summary: OutcomeSummary,
}

#[derive(Debug, Default)]
pub struct Expected {
    pub entries: Vec<Entry>,
}

impl Expected {
    /// Load `expected.json`; a missing file is an empty pin set.
    pub fn load() -> Result<Expected, String> {
        match std::fs::read_to_string(path()) {
            Ok(text) => Expected::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Expected::default()),
            Err(e) => Err(format!("{}: {e}", path().display())),
        }
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text).map_err(|e| format!("expected.json: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("expected.json: schema is not {SCHEMA}"));
        }
        let rows = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("expected.json: no entries array")?;
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            let num = |k: &str| {
                row.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("expected.json: entry lacks {k}"))
            };
            let digest = row
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or("expected.json: entry lacks a hex digest")?;
            entries.push(Entry {
                workload: row
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("expected.json: entry lacks workload")?
                    .to_string(),
                seed: num("seed")?,
                summary: OutcomeSummary {
                    events: num("events")?,
                    digest,
                    utilization: row
                        .get("utilization")
                        .and_then(Json::as_f64)
                        .ok_or("expected.json: entry lacks utilization")?,
                    drops: num("drops")?,
                    retransmits: num("retransmits")?,
                    rtos: num("rtos")?,
                },
            });
        }
        Ok(Expected { entries })
    }

    pub fn get(&self, workload: &str, scenario_seed: u64) -> Option<&OutcomeSummary> {
        self.entries
            .iter()
            .find(|e| e.workload == workload && e.seed == scenario_seed)
            .map(|e| &e.summary)
    }

    /// One entry per line, so a re-pin diffs cleanly.
    pub fn render(&self) -> String {
        let mut out = format!("{{\"schema\":\"{SCHEMA}\",\"entries\":[\n");
        for (i, e) in self.entries.iter().enumerate() {
            let row = obj(vec![
                ("workload", Json::Str(e.workload.clone())),
                ("seed", num(e.seed as f64)),
                ("events", num(e.summary.events as f64)),
                ("digest", Json::Str(format!("{:016x}", e.summary.digest))),
                ("utilization", num(e.summary.utilization)),
                ("drops", num(e.summary.drops as f64)),
                ("retransmits", num(e.summary.retransmits as f64)),
                ("rtos", num(e.summary.rtos as f64)),
            ]);
            out.push_str(&row.render());
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Why `got` differs from `want`, or `None` when they agree.
pub fn mismatch(want: &OutcomeSummary, got: &OutcomeSummary) -> Option<String> {
    if want == got {
        return None;
    }
    Some(format!(
        "events {} vs {}, digest {:016x} vs {:016x}, drops {} vs {}, retransmits {} vs {}, rtos {} vs {}",
        want.events,
        got.events,
        want.digest,
        got.digest,
        want.drops,
        got.drops,
        want.retransmits,
        got.retransmits,
        want.rtos,
        got.rtos
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_keeps_full_precision() {
        let e = Expected {
            entries: vec![Entry {
                workload: "w".into(),
                seed: 7,
                summary: OutcomeSummary {
                    events: 18_897_913,
                    digest: 0xfeed_face_cafe_beef,
                    utilization: 0.972_345_678_901_234_5,
                    drops: 3,
                    retransmits: 4,
                    rtos: 5,
                },
            }],
        };
        let back = Expected::parse(&e.render()).unwrap();
        assert_eq!(back.entries, e.entries);
        assert!(back.get("w", 7).is_some());
        assert!(back.get("w", 1).is_none());
        let mut other = e.entries[0].summary.clone();
        assert!(mismatch(&e.entries[0].summary, &other).is_none());
        other.events += 1;
        assert!(mismatch(&e.entries[0].summary, &other)
            .unwrap()
            .contains("events"));
    }

    #[test]
    fn the_committed_file_parses_and_pins_the_held_out_seed() {
        let e = Expected::load().unwrap();
        for w in crate::spec::WORKLOADS {
            for seed in crate::spec::PINNED_SEEDS {
                assert!(
                    e.get(w, seed).is_some(),
                    "{w} scenario seed {seed} is not pinned"
                );
            }
        }
    }
}
