//! # ccsim-prof — the simulator's self-profiling layer
//!
//! The paper's testbed validated itself with per-module BESS counters
//! (forwarding vs. tcpprobe vs. bookkeeping); this crate is the
//! simulator's equivalent, built for the two scaling projects on the
//! roadmap (parallel DES, one million flows) that need to know *where*
//! the events/s and memory budgets go before they can move them.
//!
//! Three views, one [`Profile`]:
//!
//! * **Event attribution** — exact event counts and strided wall-clock
//!   samples per (component class × event kind), harvested from the
//!   engine's opt-in profiling cells
//!   ([`ccsim_sim::Simulator::enable_profiling`]).
//! * **Scheduler internals** — the timer wheel's always-on counters
//!   ([`ccsim_sim::WheelStats`]): per-level occupancy high-water marks,
//!   cascade counts, batch-size histogram, cancel/rearm rates.
//! * **Memory accounting** — per-subsystem byte gauges ([`MemGauge`]:
//!   sender state, link queues, trace rings, wheel slabs), the numerator
//!   of the megascale memory-per-flow metric.
//!
//! Everything here is observation: profiling never schedules, drops, or
//! reorders an event, so outcome digests are byte-identical with the
//! profiler on or off (proven by `tests/integration_prof.rs`).
//!
//! Determinism contract: every **count** in a [`Profile`] (cells, samples,
//! wheel counters, memory gauges) is a pure function of the event stream.
//! Only wall-clock nanoseconds vary run to run; [`Profile::normalized`]
//! zeroes them, and same-seed runs produce identical normalized JSON.

pub mod profile;

pub use profile::{EventCells, MemGauge, Profile, WheelProfile};

/// Default wall-clock sampling stride: one `Instant` sample per 1024
/// dispatched events keeps the enabled-mode overhead well under the 2%
/// budget while still collecting thousands of samples per second at
/// CoreScale event rates.
pub const DEFAULT_STRIDE: u64 = 1024;
