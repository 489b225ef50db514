//! Fault injection and runtime invariants for ccsim.
//!
//! The paper's measurements run over *steady* emulated links, but the
//! regimes that stress its throughput models — loss episodes, rate and
//! delay transients, reordering — are exactly what real testbeds (and
//! emulation harnesses like CoCo-Beholder, PAPERS.md) impose with
//! `netem`/`tc` mid-run. This crate brings those impairments into the
//! simulator while keeping its core guarantee: byte-for-byte
//! reproducibility from a seed.
//!
//! Three pieces:
//!
//! * [`FaultPlan`] — a declarative, validated, JSON-roundtrippable
//!   schedule of timed faults (blackout/restore, bandwidth and extra-delay
//!   steps, i.i.d. and burst loss, reordering, duplication). Plans are
//!   pure data; nothing here touches the event loop.
//! * [`LinkFaultInjector`] — the runtime state machine a `Link` drives:
//!   it applies due actions at exact engine timestamps and answers, per
//!   packet, "drop on arrival?" and "how should this delivery be mangled?"
//!   using a dedicated seeded RNG stream so faulted runs stay
//!   deterministic.
//! * [`WatchdogConfig`] / [`InvariantViolation`] — the vocabulary of the
//!   runtime invariant watchdog. The checks themselves live in
//!   `ccsim-core` (they need the built network); this crate defines the
//!   structured violations they report instead of `assert!`ing.
//!
//! [`json`] (and [`Json`]/[`JsonError`]) is a re-export of
//! `ccsim_sim::json`, the workspace's one JSON layer, which started life
//! here. The path survives only because the frozen benchmark harness
//! (`benchmark/src/compat.rs`) imports `ccsim_fault::Json`; nothing in
//! the workspace may use it (ROADMAP item 2, harness debt).

pub mod injector;
pub mod plan;
pub mod watchdog;

pub use ccsim_sim::json::{self, Json, JsonError};
pub use injector::{AppliedChanges, DeliveryFate, DropReason, FaultStats, LinkFaultInjector};
pub use plan::{FaultAction, FaultKind, FaultPlan, FaultPlanError, LossModel};
pub use watchdog::{InvariantKind, InvariantViolation, WatchdogConfig, WatchdogReport};
