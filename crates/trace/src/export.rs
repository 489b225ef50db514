//! JSONL export — one self-describing JSON object per line.
//!
//! The first line carries the run metadata; every following line is one
//! record with kind-specific field names (`cwnd`, `ssthresh`, `bps`, …),
//! so the file greps and `jq`s naturally. Both directions are schema
//! code over `ccsim_sim::json`: [`read_jsonl`] parses each line as a
//! document, so field order is *not* required, unknown fields are
//! ignored, and a malformed line is an error rather than a best guess.

use crate::event::{CongestionKind, PhaseLabel, TraceKind, TraceRecord, QUEUE_FLOW};
use crate::recorder::{RunTrace, TraceMeta};
use ccsim_sim::json::{Json, JsonError, JsonWriter};
use ccsim_sim::{SimDuration, SimTime};
use std::io::{self, BufRead, Write};

/// Write a trace as JSONL.
pub fn write_jsonl<W: Write>(trace: &RunTrace, mut w: W) -> io::Result<()> {
    let mut line = String::with_capacity(128);
    JsonWriter::compact(&mut line).obj(|w| {
        w.key("meta").obj(|w| {
            w.key("scenario").str(&trace.meta.scenario);
            w.key("seed").u64(trace.meta.seed);
            w.key("flows").u64(trace.meta.flows.into());
            w.key("records").u64(trace.records.len() as u64);
            w.key("evicted").u64(trace.evicted);
            w.key("thinned").u64(trace.thinned);
        })
    });
    line.push('\n');
    w.write_all(line.as_bytes())?;
    for r in &trace.records {
        line.clear();
        JsonWriter::compact(&mut line).obj(|w| {
            w.key("t").u64(r.time.as_nanos());
            // Queue and per-hop depth records belong to no flow.
            if !matches!(r.kind, TraceKind::QueueDepth | TraceKind::HopDepth) {
                w.key("flow").u64(r.flow.into());
            }
            w.key("kind").str(r.kind.as_str());
            match r.kind {
                TraceKind::Cwnd => {
                    w.key("cwnd").u64(r.a);
                    w.key("ssthresh").u64(r.b);
                }
                TraceKind::Srtt => w.key("ns").u64(r.a),
                TraceKind::Pacing => w.key("bps").u64(r.a),
                TraceKind::Phase => {
                    let label = r.phase_label().unwrap_or_default();
                    w.key("label").str(label.as_str())
                }
                TraceKind::Congestion => {
                    let ev = r.congestion_kind().map(CongestionKind::as_str);
                    w.key("event").str(ev.unwrap_or("unknown"))
                }
                TraceKind::QueueDepth => {
                    w.key("bytes").u64(r.a);
                    w.key("pkts").u64(r.b);
                }
                TraceKind::Drop => w.key("queue_bytes").u64(r.a),
                TraceKind::EcnMark => {
                    w.key("queue_bytes").u64(r.a);
                    w.key("hop").u64(r.b);
                }
                TraceKind::HopDepth => {
                    w.key("hop").u64(r.flow.into());
                    w.key("bytes").u64(r.a);
                    w.key("pkts").u64(r.b);
                }
            }
        });
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Parse one record line (as produced by [`write_jsonl`]).
fn parse_record(line: &str) -> Result<TraceRecord, JsonError> {
    let v = Json::parse(line)?;
    let t = SimTime::from_nanos(v.req_u64("t")?);
    let kind_name = v.req_str("kind")?;
    let kind = TraceKind::from_str_name(kind_name)
        .ok_or_else(|| JsonError::new(format!("unknown kind {kind_name:?}")))?;
    let flow = match kind {
        TraceKind::QueueDepth => QUEUE_FLOW,
        TraceKind::HopDepth => v.req_u32("hop")?,
        _ => v.req_u32("flow")?,
    };
    Ok(match kind {
        TraceKind::Cwnd => TraceRecord::cwnd(t, flow, v.req_u64("cwnd")?, v.req_u64("ssthresh")?),
        TraceKind::Srtt => TraceRecord::srtt(t, flow, SimDuration::from_nanos(v.req_u64("ns")?)),
        TraceKind::Pacing => TraceRecord::pacing(t, flow, v.req_u64("bps")?),
        TraceKind::Phase => TraceRecord::phase(t, flow, PhaseLabel::new(v.req_str("label")?)),
        TraceKind::Congestion => {
            let ev = v.req_str("event")?;
            let ck = CongestionKind::from_str_name(ev)
                .ok_or_else(|| JsonError::new(format!("unknown congestion event {ev:?}")))?;
            TraceRecord::congestion(t, flow, ck)
        }
        TraceKind::QueueDepth => {
            TraceRecord::queue_depth(t, v.req_u64("bytes")?, v.req_u64("pkts")?)
        }
        TraceKind::Drop => TraceRecord::drop(t, flow, v.req_u64("queue_bytes")?),
        TraceKind::EcnMark => {
            TraceRecord::ecn_mark(t, flow, v.req_u64("queue_bytes")?, v.req_u64("hop")?)
        }
        TraceKind::HopDepth => {
            TraceRecord::hop_depth(t, flow, v.req_u64("bytes")?, v.req_u64("pkts")?)
        }
    })
}

/// Read a trace from JSONL (the inverse of [`write_jsonl`]). A malformed
/// line — truncated, mistyped, a repeated key — is an `InvalidData` error
/// naming the line.
pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<RunTrace> {
    let bad = |n: usize, e: JsonError| {
        io::Error::new(io::ErrorKind::InvalidData, format!("line {n}: {e}"))
    };
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or_else(|| JsonError::new("empty trace file"))??;
    let header = Json::parse(&header).map_err(|e| bad(1, e))?;
    let meta = header
        .get("meta")
        .ok_or_else(|| JsonError::new("first line is not a meta header"))?;
    let mut trace = RunTrace {
        meta: TraceMeta {
            scenario: meta.req_str("scenario")?.to_string(),
            seed: meta.req_u64("seed")?,
            flows: meta.req_u32("flows")?,
        },
        records: Default::default(),
        evicted: meta.opt_u64("evicted")?.unwrap_or(0),
        thinned: meta.opt_u64("thinned")?.unwrap_or(0),
    };
    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if !line.trim().is_empty() {
            records.push(parse_record(&line).map_err(|e| bad(i + 2, e))?);
        }
    }
    trace.records = records.into();
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CongestionKind;

    fn sample_trace() -> RunTrace {
        let t = SimTime::from_millis;
        RunTrace {
            meta: TraceMeta {
                scenario: "edge \"quoted\" \\ name".into(),
                seed: 42,
                flows: 2,
            },
            records: vec![
                TraceRecord::cwnd(t(1), 0, 14_480, u64::MAX),
                TraceRecord::srtt(t(2), 0, SimDuration::from_micros(20_500)),
                TraceRecord::pacing(t(3), 1, 1_250_000),
                TraceRecord::phase(t(4), 1, PhaseLabel::new("probe_bw")),
                TraceRecord::congestion(t(5), 0, CongestionKind::FastRecovery),
                TraceRecord::queue_depth(t(6), 123_456, 83),
                TraceRecord::drop(t(7), 1, 99_000),
                TraceRecord::ecn_mark(t(8), 0, 64_000, 2),
                TraceRecord::hop_depth(t(9), 1, 32_000, 21),
            ]
            .into(),
            evicted: 3,
            thinned: 17,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&trace, &mut buf).unwrap();
        let back = read_jsonl(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn jsonl_lines_are_self_describing() {
        let mut buf = Vec::new();
        write_jsonl(&sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().count() == 10); // header + 9 records
        assert!(text.contains("\"kind\":\"cwnd\""));
        assert!(text.contains("\"event\":\"fast_recovery\""));
        assert!(text.contains("\"label\":\"probe_bw\""));
        // Every line is brace-delimited.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_jsonl(io::BufReader::new(&b""[..])).is_err());
        assert!(read_jsonl(io::BufReader::new(&b"{\"t\":1}\n"[..])).is_err());
        let noheader = b"{\"t\":1,\"flow\":0,\"kind\":\"cwnd\",\"cwnd\":1,\"ssthresh\":2}\n";
        assert!(read_jsonl(io::BufReader::new(&noheader[..])).is_err());
    }

    #[test]
    fn malformed_lines_are_typed_errors_naming_the_line() {
        let read = |text: &str| read_jsonl(io::BufReader::new(text.as_bytes()));
        let meta = "{\"meta\":{\"scenario\":\"x\",\"seed\":1,\"flows\":1}}\n";
        assert_eq!(read(meta).unwrap().records.len(), 0);
        for (what, body) in [
            (
                "a string where a number is required",
                "{\"t\":1,\"flow\":0,\"kind\":\"pacing\",\"bps\":\"fast\"}",
            ),
            ("a truncated line", "{\"t\":1,\"flow\":0,\"kind\":\"pac"),
            (
                "a duplicated key",
                "{\"t\":1,\"t\":2,\"flow\":0,\"kind\":\"pacing\",\"bps\":5}",
            ),
            (
                "a flow that is not a u32",
                "{\"t\":1,\"flow\":-1,\"kind\":\"drop\"}",
            ),
        ] {
            let err = read(&format!("{meta}{body}\n")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains("line 2"), "{what}: {err}");
        }
        // The header is held to the same standard.
        let err = read("{\"meta\":{\"scenario\":\"x\",\"seed\":\"1\",\"flows\":1}}\n").unwrap_err();
        assert!(err.to_string().contains("\"seed\""), "{err}");
        assert!(
            read("{\"meta\":{\"scenario\":\"x\",\"seed\":1,\"seed\":1,\"flows\":1}}\n").is_err()
        );
    }
}
