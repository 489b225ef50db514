//! # ccsim-trace — the unified flight recorder
//!
//! Before this crate, run-time visibility was a scatter of ad-hoc hooks:
//! a per-sender cwnd trace, a per-sender congestion-event log, and the
//! link's capped-but-huge drop log. Each had its own memory behavior and
//! none could answer "what did flow 37 do between t=80s and t=90s?" after
//! a 5000-flow CoreScale run without risking gigabytes of resident state.
//! (The two sender logs are gone: the recorder keeps event times, and the
//! sender counts events exactly in `SenderStats`.)
//!
//! `ccsim-trace` replaces them with one memory-bounded recording pipeline:
//!
//! * [`event`] — the typed, fixed-width [`TraceRecord`] model: cwnd /
//!   ssthresh / srtt / pacing-rate samples, CCA phase transitions,
//!   congestion events, queue-depth samples, and per-flow drops.
//! * [`ring`] — per-flow ring buffers with [`RetentionPolicy`]
//!   (`KeepAll` / `Decimate(n)` / `Reservoir(k)`) under a global byte
//!   budget.
//! * `log` — the delta-varint byte log a ring and a drained run hold
//!   their records in, about 6 bytes a record instead of 32.
//! * [`recorder`] — the endpoints the sender and bottleneck link drive
//!   ([`FlowRecorder`], [`QueueRecorder`]), configured by [`TraceConfig`],
//!   and the assembled [`RunTrace`].
//! * [`records`] — the trace's [`Records`]: one sorted run per ring,
//!   merged on read and yielded by value.
//! * [`export`] — greppable JSONL, one record per line.
//! * [`binary`] — the compact columnar `.cctr` format with a streaming
//!   [`BinaryTraceReader`].
//!
//! The crate depends only on `ccsim-sim` (for time types), so every layer
//! above — net, tcp, analysis, core — can record into it without cycles.

pub mod binary;
pub mod event;
pub mod export;
mod log;
pub mod recorder;
pub mod records;
pub mod ring;

pub use binary::{read_binary, write_binary, BinaryTraceReader};
pub use event::{CongestionKind, PhaseLabel, TraceKind, TraceRecord, QUEUE_FLOW, RECORD_BYTES};
pub use export::{read_jsonl, write_jsonl};
pub use recorder::{FlowRecorder, QueueRecorder, RunTrace, TraceConfig, TraceMeta};
pub use records::Records;
pub use ring::{RetentionPolicy, SampleRing};
