//! Compact columnar binary export (`.cctr`) with a streaming reader.
//!
//! ## Format (version 1, all integers little-endian)
//!
//! ```text
//! magic   b"CCTR"
//! u16     version = 1
//! u16     scenario-name length, followed by that many UTF-8 bytes
//! u64     seed
//! u32     flows
//! u64     evicted
//! u64     thinned
//! blocks:
//!   u32   n  (0 terminates the stream)
//!   n×u64 time (ns)    — one column per field, in record order
//!   n×u32 flow
//!   n×u8  kind
//!   n×u64 a
//!   n×u64 b
//! ```
//!
//! Records are written in [`BLOCK_RECORDS`]-sized columnar blocks:
//! column-major layout compresses well externally, reads with five bulk
//! `read_exact`s per block, and — unlike a single monolithic column file —
//! streams: the writer never needs the record count up front and the
//! [`BinaryTraceReader`] holds one block in memory at a time.

use crate::event::{TraceKind, TraceRecord, RECORD_BYTES};
use crate::recorder::{RunTrace, TraceMeta};
use ccsim_sim::SimTime;
use std::io::{self, Read, Write};

/// File magic.
pub const MAGIC: [u8; 4] = *b"CCTR";
/// Format version written by this crate.
pub const VERSION: u16 = 1;
/// Records per columnar block.
pub const BLOCK_RECORDS: usize = 4096;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write a trace in the columnar binary format.
pub fn write_binary<W: Write>(trace: &RunTrace, mut w: W) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let name = trace.meta.scenario.as_bytes();
    let name_len =
        u16::try_from(name.len()).map_err(|_| bad("scenario name exceeds 65535 bytes"))?;
    w.write_all(&name_len.to_le_bytes())?;
    w.write_all(name)?;
    w.write_all(&trace.meta.seed.to_le_bytes())?;
    w.write_all(&trace.meta.flows.to_le_bytes())?;
    w.write_all(&trace.evicted.to_le_bytes())?;
    w.write_all(&trace.thinned.to_le_bytes())?;

    // One pass over the records fills the five columns of a block.
    let mut records = trace.records.iter();
    let mut cols: [Vec<u8>; 5] =
        [8, 4, 1, 8, 8].map(|width| Vec::with_capacity(width * BLOCK_RECORDS));
    let mut block = Vec::with_capacity(4 + BLOCK_RECORDS * RECORD_BYTES as usize);
    loop {
        let [times, flows, kinds, col_a, col_b] = &mut cols;
        for r in records.by_ref().take(BLOCK_RECORDS) {
            times.extend_from_slice(&r.time.as_nanos().to_le_bytes());
            flows.extend_from_slice(&r.flow.to_le_bytes());
            kinds.push(r.kind as u8);
            col_a.extend_from_slice(&r.a.to_le_bytes());
            col_b.extend_from_slice(&r.b.to_le_bytes());
        }
        if kinds.is_empty() {
            break;
        }
        block.clear();
        block.extend_from_slice(&(kinds.len() as u32).to_le_bytes());
        for col in &mut cols {
            block.extend_from_slice(col);
            col.clear();
        }
        w.write_all(&block)?;
    }
    w.write_all(&0u32.to_le_bytes())?;
    Ok(())
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Streaming reader: parses the header eagerly, then yields records
/// block-by-block through the [`Iterator`] impl, holding at most one
/// block ([`BLOCK_RECORDS`] records) in memory.
pub struct BinaryTraceReader<R: Read> {
    src: R,
    meta: TraceMeta,
    evicted: u64,
    thinned: u64,
    block: Vec<TraceRecord>,
    /// Next index into `block`.
    cursor: usize,
    /// Set once the zero-length terminator block is seen.
    done: bool,
}

impl<R: Read> BinaryTraceReader<R> {
    /// Open a stream and parse the header.
    pub fn new(mut src: R) -> io::Result<BinaryTraceReader<R>> {
        let mut magic = [0u8; 4];
        src.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(bad("not a ccsim trace (bad magic)"));
        }
        let version = read_u16(&mut src)?;
        if version != VERSION {
            return Err(bad(format!("unsupported trace version {version}")));
        }
        let name_len = read_u16(&mut src)? as usize;
        let mut name = vec![0u8; name_len];
        src.read_exact(&mut name)?;
        let scenario = String::from_utf8(name).map_err(|_| bad("scenario name is not UTF-8"))?;
        let seed = read_u64(&mut src)?;
        let flows = read_u32(&mut src)?;
        let evicted = read_u64(&mut src)?;
        let thinned = read_u64(&mut src)?;
        Ok(BinaryTraceReader {
            src,
            meta: TraceMeta {
                scenario,
                seed,
                flows,
            },
            evicted,
            thinned,
            block: Vec::new(),
            cursor: 0,
            done: false,
        })
    }

    /// Run identity from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Eviction count from the header.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Thinned-sample count from the header.
    pub fn thinned(&self) -> u64 {
        self.thinned
    }

    fn read_block(&mut self) -> io::Result<bool> {
        let n = read_u32(&mut self.src)? as usize;
        if n == 0 {
            self.done = true;
            return Ok(false);
        }
        if n > BLOCK_RECORDS {
            return Err(bad(format!("oversized block ({n} records)")));
        }
        let mut buf = vec![0u8; n * RECORD_BYTES as usize];
        self.src.read_exact(&mut buf)?;
        let (times, rest) = buf.split_at(n * 8);
        let (flows, rest) = rest.split_at(n * 4);
        let (kinds, rest) = rest.split_at(n);
        let (col_a, col_b) = rest.split_at(n * 8);
        self.block.clear();
        self.block.reserve(n);
        for i in 0..n {
            let time = u64::from_le_bytes(times[i * 8..i * 8 + 8].try_into().unwrap());
            let flow = u32::from_le_bytes(flows[i * 4..i * 4 + 4].try_into().unwrap());
            let kind = TraceKind::from_u8(kinds[i])
                .ok_or_else(|| bad(format!("unknown kind byte {}", kinds[i])))?;
            let a = u64::from_le_bytes(col_a[i * 8..i * 8 + 8].try_into().unwrap());
            let b = u64::from_le_bytes(col_b[i * 8..i * 8 + 8].try_into().unwrap());
            self.block.push(TraceRecord {
                time: SimTime::from_nanos(time),
                flow,
                kind,
                a,
                b,
            });
        }
        self.cursor = 0;
        Ok(true)
    }

    /// Drain the remaining records into a full [`RunTrace`].
    pub fn into_trace(mut self) -> io::Result<RunTrace> {
        let mut records = Vec::new();
        for r in &mut self {
            records.push(r?);
        }
        Ok(RunTrace {
            meta: self.meta,
            records: records.into(),
            evicted: self.evicted,
            thinned: self.thinned,
        })
    }
}

impl<R: Read> Iterator for BinaryTraceReader<R> {
    type Item = io::Result<TraceRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.cursor < self.block.len() {
                let r = self.block[self.cursor];
                self.cursor += 1;
                return Some(Ok(r));
            }
            if self.done {
                return None;
            }
            match self.read_block() {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Read a whole trace from a binary stream (the inverse of
/// [`write_binary`]).
pub fn read_binary<R: Read>(src: R) -> io::Result<RunTrace> {
    BinaryTraceReader::new(src)?.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CongestionKind, PhaseLabel};
    use ccsim_sim::SimDuration;

    fn sample_trace(n: usize) -> RunTrace {
        let records = (0..n as u64)
            .map(|i| match i % 5 {
                0 => TraceRecord::cwnd(SimTime::from_nanos(i), (i % 7) as u32, i * 3, i * 2),
                1 => TraceRecord::srtt(
                    SimTime::from_nanos(i),
                    (i % 7) as u32,
                    SimDuration::from_nanos(i * 11),
                ),
                2 => TraceRecord::phase(
                    SimTime::from_nanos(i),
                    (i % 7) as u32,
                    PhaseLabel::new("probe_bw"),
                ),
                3 => TraceRecord::congestion(
                    SimTime::from_nanos(i),
                    (i % 7) as u32,
                    CongestionKind::Rto,
                ),
                _ => TraceRecord::queue_depth(SimTime::from_nanos(i), i * 100, i),
            })
            .collect::<Vec<_>>();
        RunTrace {
            meta: TraceMeta {
                scenario: "binary-test".into(),
                seed: 99,
                flows: 7,
            },
            records: records.into(),
            evicted: 5,
            thinned: 6,
        }
    }

    #[test]
    fn binary_round_trips_across_block_boundaries() {
        // Exercise empty, sub-block, exact-block, and multi-block sizes.
        for n in [
            0,
            1,
            BLOCK_RECORDS - 1,
            BLOCK_RECORDS,
            BLOCK_RECORDS + 1,
            3 * BLOCK_RECORDS + 17,
        ] {
            let trace = sample_trace(n);
            let mut buf = Vec::new();
            write_binary(&trace, &mut buf).unwrap();
            let back = read_binary(&buf[..]).unwrap();
            assert_eq!(back, trace, "n = {n}");
        }
    }

    #[test]
    fn streaming_reader_yields_in_order_with_meta_first() {
        let trace = sample_trace(10_000);
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        let reader = BinaryTraceReader::new(&buf[..]).unwrap();
        assert_eq!(reader.meta().scenario, "binary-test");
        assert_eq!(reader.meta().flows, 7);
        assert_eq!(reader.evicted(), 5);
        let records: Vec<TraceRecord> = reader.map(Result::unwrap).collect();
        assert!(records.into_iter().eq(&trace.records));
    }

    #[test]
    fn identical_traces_export_byte_identically() {
        let a = sample_trace(5_000);
        let b = sample_trace(5_000);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        write_binary(&a, &mut ba).unwrap();
        write_binary(&b, &mut bb).unwrap();
        assert_eq!(ba, bb);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(read_binary(&b"NOPE"[..]).is_err());
        let mut buf = Vec::new();
        write_binary(&sample_trace(1), &mut buf).unwrap();
        buf[4] = 0xFF; // corrupt version
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut buf = Vec::new();
        write_binary(&sample_trace(100), &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let items: Vec<_> = BinaryTraceReader::new(&buf[..]).unwrap().collect();
        assert!(items.last().unwrap().is_err());
    }
}
