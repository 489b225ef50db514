//! # ccsim-net — network elements
//!
//! The building blocks of simulated topologies:
//!
//! * [`packet`] — the `Copy` packet representation (data segments, ACKs with
//!   SACK blocks) and the workspace-wide size constants.
//! * [`msg`] — the single message type ([`Msg`]) exchanged by all components,
//!   and timer tokens with generation-based lazy cancellation.
//! * [`link`] — rate-limited links with byte-capacity queues and full drop
//!   instrumentation: the equivalent of the paper's BESS switch port.
//! * [`aqm`] — the buffering disciplines a link can run: drop-tail (the
//!   paper's configuration), RED, CoDel, and PIE, with ECN CE marking.
//! * `queue` (crate-private) — the packet store all four disciplines
//!   share: a FIFO of 40-byte slots with its byte count and checkpoint
//!   encoding.
//! * [`delay`] — a pure constant-delay element (the `netem` equivalent).
//! * [`path`] — the shared per-hop delivery-latency arithmetic.
//!
//! Topology *description* (graphs, generators, routing) lives in
//! `ccsim-topo`; construction into engine components lives in `ccsim-core`,
//! which also owns the TCP endpoints that terminate these links.

pub mod aqm;
pub mod delay;
pub mod link;
pub mod msg;
pub mod packet;
pub mod path;
mod queue;

pub use aqm::{AqmKind, AqmQueue, Codel, Dequeued, DropTail, Enqueued, Pie, Red};
pub use delay::{DelayLine, DelayNext};
pub use link::{Link, LinkMetrics, LinkStats, NextHop, AQM_TICK, FAULT_TICK};
pub use msg::{Msg, TimerToken};
pub use packet::{
    FlowId, Packet, PacketKind, SackBlock, SackBlocks, DEFAULT_MSS, ECN_CE, ECN_CWR, ECN_ECE,
    ECN_ECT, HEADER_BYTES,
};
