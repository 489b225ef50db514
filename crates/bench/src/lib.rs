//! # ccsim-bench — criterion micro-benchmarks
//!
//! The crate is its `benches/` directory (`cargo bench -p ccsim-bench`):
//! the engine, the event queue, the drop-tail and AQM queues, scoreboard
//! recovery, receiver reassembly, per-ACK CCA cost, the min/max filter,
//! scaled-down end-to-end scenario runs, the DESIGN.md ablations, and
//! the overhead of each observer (trace, registry, watchdog, profiler,
//! timeline). This file exists only because cargo wants a lib target.
//!
//! The paper's tables and figures are campaign specs, not code:
//! `ccsim campaign run examples/campaigns/paper-<figure>-<setting>.json`.
