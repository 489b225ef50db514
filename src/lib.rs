//! # ccsim — congestion control at scale
//!
//! A packet-level congestion-control simulator and measurement harness
//! reproducing *"Revisiting TCP Congestion Control Throughput Models &
//! Fairness Properties At Scale"* (Philip, Ware, Athapathu, Sherry, Sekar —
//! ACM IMC 2021).
//!
//! The facade re-exports the workspace crates:
//!
//! * [`sim`] — deterministic discrete-event engine.
//! * [`net`] — packets, links, drop-tail and AQM queues, ECN marking.
//! * [`topo`] — routed multi-bottleneck topology graphs (dumbbell,
//!   parking-lot) and their component instantiation.
//! * [`tcp`] — the TCP endpoint model (SACK, PRR, RTO, pacing).
//! * [`cca`] — NewReno, CUBIC, BBRv1.
//! * [`telemetry`] — flow metrics and throughput tracking.
//! * [`timeline`] — digest-inert windowed time-series sampler (per-flow
//!   / per-link / aggregate series in bounded columnar rings), JSONL and
//!   `.cctl` exporters, and the zero-dependency live metrics endpoint
//!   behind `ccsim run --serve`.
//! * [`analysis`] — Mathis fitting, JFI, burstiness, statistics.
//! * [`trace`] — the memory-bounded flight recorder (cwnd/srtt/queue
//!   traces, JSONL + columnar binary export).
//! * [`fault`] — deterministic link fault plans (blackouts, loss,
//!   reordering, rate steps) and the invariant-watchdog vocabulary.
//! * [`prof`] — digest-inert event-attribution profiler: per-(component
//!   class × event kind) wall-time/event matrix, timer-wheel internals,
//!   and subsystem memory accounts (`ccsim perf`).
//! * [`resume`] — versioned, digest-stamped checkpoint container with
//!   typed decode errors; the engine-state snapshots behind
//!   `ccsim run --checkpoint-at`/`--resume-from` and `ccsim bisect`.
//! * [`experiments`] — the paper's EdgeScale/CoreScale scenarios and the
//!   one way to run them (`RunRequest`; `run` for the plain case).
//! * [`campaign`] — the one grid runner: sweep specs (the paper's tables
//!   and figures are `examples/campaigns/paper-*.json`), parallel
//!   executor, persistent run ledger, regression sentinel (`campaign
//!   diff`), and per-cell fidelity reports.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ccsim::experiments::{run, FlowGroup, ObserveOptions, RunRequest, Scenario};
//! use ccsim::cca::CcaKind;
//! use ccsim_sim::SimDuration;
//!
//! // 20 NewReno flows on an EdgeScale (100 Mbps) bottleneck, 20 ms RTT.
//! let scenario = Scenario::edge_scale()
//!     .flows(vec![FlowGroup::new(CcaKind::Reno, 20, SimDuration::from_millis(20))])
//!     .seed(1);
//! let outcome = run(&scenario);
//! println!("aggregate throughput: {:.1} Mbps", outcome.aggregate_throughput_mbps());
//! println!("JFI: {:.3}", outcome.jain_index().unwrap());
//!
//! // The same run, observed and crash-guarded, with typed failures.
//! let report = RunRequest::new(&scenario)
//!     .observe(ObserveOptions::default())
//!     .guard(None)
//!     .execute()?;
//! assert_eq!(report.outcome.digest(), outcome.digest());
//! # Ok::<(), ccsim::experiments::RunFailure>(())
//! ```

pub use ccsim_analysis as analysis;
pub use ccsim_campaign as campaign;
pub use ccsim_cca as cca;
pub use ccsim_core as experiments;
pub use ccsim_fault as fault;
pub use ccsim_net as net;
pub use ccsim_prof as prof;
pub use ccsim_resume as resume;
pub use ccsim_sim as sim;
pub use ccsim_tcp as tcp;
pub use ccsim_telemetry as telemetry;
pub use ccsim_timeline as timeline;
pub use ccsim_topo as topo;
pub use ccsim_trace as trace;
