//! Timeline exporters: JSONL for humans/tools, a compact `.cctl` binary
//! (SnapWriter framing, like `.cctr` traces) for bulk archival, plus the
//! reader that round-trips the binary form.

use crate::{Timeline, TimelineConfig};
use ccsim_sim::json::JsonWriter;
use ccsim_sim::snap::{SnapError, SnapReader, SnapWriter};
use ccsim_sim::SimDuration;

/// Magic/version string leading every binary timeline export.
pub const BINARY_MAGIC: &str = "ccsim-timeline/1";

/// Render the retained rows as JSONL: one header object (schema, window,
/// column names, retention counters), then one object per row with the
/// row end (`"t"`, seconds), span, and the value array in column order.
/// Idle-window JFI renders as `null`.
pub fn to_jsonl(tl: &Timeline) -> String {
    let rows = tl.rows();
    let mut out = String::with_capacity(256 + rows.len() * tl.columns().len() * 12);
    JsonWriter::compact(&mut out).obj(|w| {
        w.key("timeline").str(BINARY_MAGIC);
        w.key("window_secs").f64(tl.config().window.as_secs_f64());
        w.key("columns").arr(tl.columns(), |w, col| w.str(col));
        w.key("rows").u64(rows.pushed());
        w.key("retained").u64(rows.len() as u64);
        w.key("evicted").u64(rows.evicted());
    });
    out.push('\n');
    for r in 0..rows.len() {
        let (t, span, values) = rows.row(r).expect("in-range row");
        JsonWriter::compact(&mut out).obj(|w| {
            w.key("t").f64(t);
            w.key("span").f64(span);
            // Every recorded series is non-negative when defined, so a
            // negative cell is the idle-window sentinel ([`crate::IDLE_JFI`]);
            // the non-finite arm is defensive against legacy captures.
            w.key("v").arr(values, |w, v| {
                w.opt((v >= 0.0 && v.is_finite()).then_some(v), JsonWriter::f64)
            });
        });
        out.push('\n');
    }
    out
}

/// Serialize the retained rows into the `.cctl` binary form.
pub fn to_binary(tl: &Timeline) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.str(BINARY_MAGIC);
    w.duration(tl.config().window);
    let columns = tl.columns();
    w.seq(columns, |w, col| w.str(col));
    let rows = tl.rows();
    w.u64(rows.pushed());
    w.u64(rows.evicted());
    w.usize(rows.len());
    for r in 0..rows.len() {
        let (t, span, values) = rows.row(r).expect("in-range row");
        w.f64(t);
        w.f64(span);
        for v in values {
            w.f64(v);
        }
    }
    w.into_bytes()
}

/// A decoded `.cctl` export.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineDump {
    /// Configured window width.
    pub window: SimDuration,
    /// Column names, in value order.
    pub columns: Vec<String>,
    /// Rows ever closed by the capture.
    pub rows_pushed: u64,
    /// Rows evicted before export.
    pub evicted: u64,
    /// Retained rows as `(t_secs, span_secs, values)`.
    pub rows: Vec<(f64, f64, Vec<f64>)>,
}

/// Decode a `.cctl` export produced by [`to_binary`].
pub fn from_binary(bytes: &[u8]) -> Result<TimelineDump, SnapError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.str()?;
    if magic != BINARY_MAGIC {
        return Err(SnapError::Corrupt(format!("timeline magic: {magic:?}")));
    }
    let window = r.duration()?;
    let columns = r.seq(|r| r.str().map(str::to_owned))?;
    let rows_pushed = r.u64()?;
    let evicted = r.u64()?;
    let retained = r.usize()?;
    let mut rows = Vec::with_capacity(retained);
    for _ in 0..retained {
        let t = r.f64()?;
        let span = r.f64()?;
        let mut values = Vec::with_capacity(columns.len());
        for _ in 0..columns.len() {
            values.push(r.f64()?);
        }
        rows.push((t, span, values));
    }
    Ok(TimelineDump {
        window,
        columns,
        rows_pushed,
        evicted,
        rows,
    })
}

/// Default timeline config — re-exported here so CLI callers building an
/// export pipeline need only this module.
pub fn default_config() -> TimelineConfig {
    TimelineConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowPoint;
    use ccsim_sim::SimTime;

    fn sample_timeline() -> Timeline {
        let cfg = TimelineConfig {
            window: SimDuration::from_millis(100),
            ..TimelineConfig::default()
        };
        let mut tl = Timeline::new(cfg, 2, 0, SimTime::ZERO);
        let fp = |r| FlowPoint {
            retransmits: r,
            cwnd_bytes: 14600,
            srtt_secs: 0.02,
            inflight_bytes: 7300,
        };
        tl.push_row(
            SimTime::from_millis(100),
            &[1000, 1000],
            &[fp(0), fp(0)],
            &[],
        );
        tl.push_row(SimTime::from_millis(200), &[0, 0], &[fp(1), fp(0)], &[]);
        tl
    }

    #[test]
    fn jsonl_has_header_then_rows_with_null_for_idle_jfi() {
        let out = to_jsonl(&sample_timeline());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"timeline\":\"ccsim-timeline/1\""));
        assert!(lines[0].contains("\"columns\":[\"agg/jfi\",\"agg/goodput_bps\""));
        assert!(lines[1].starts_with("{\"t\":0.1,\"span\":0.1,\"v\":[1.0,"));
        // Row 2 saw saturating-zero deltas -> idle window -> null JFI.
        assert!(lines[2].starts_with("{\"t\":0.2,\"span\":0.1,\"v\":[null,"));
    }

    #[test]
    fn binary_round_trips() {
        let tl = sample_timeline();
        let dump = from_binary(&to_binary(&tl)).unwrap();
        assert_eq!(dump.window, SimDuration::from_millis(100));
        assert_eq!(dump.columns, tl.columns());
        assert_eq!(dump.rows_pushed, 2);
        assert_eq!(dump.evicted, 0);
        assert_eq!(dump.rows.len(), 2);
        assert_eq!(dump.rows[0].0, 0.1);
        let want: Vec<f64> = tl.rows().row(1).unwrap().2;
        let got = &dump.rows[1].2;
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!(w.is_finite(), "rows must never store non-finite cells");
            assert_eq!(g, w);
        }
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut w = SnapWriter::new();
        w.str("not-a-timeline");
        assert!(from_binary(w.as_bytes()).is_err());
    }
}
