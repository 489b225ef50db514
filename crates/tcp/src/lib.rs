//! # ccsim-tcp — the TCP endpoint model
//!
//! A from-scratch TCP sender/receiver pair faithful to the transport
//! behavior that drives the paper's findings:
//!
//! * [`scoreboard`] — SACK scoreboard with RFC 6675 loss detection, pipe
//!   accounting, and Karn-filtered RTT sampling.
//! * [`rtt`] — RFC 6298 SRTT/RTTVAR/RTO with exponential backoff.
//! * [`rate`] — delivery-rate estimation after Linux `tcp_rate.c` (feeds
//!   BBR's bandwidth filter).
//! * [`cc`] — the [`CongestionControl`] trait (Linux `tcp_congestion_ops`
//!   analog). Concrete algorithms live in `ccsim-cca`.
//! * [`sender`] — the sender endpoint: transmission loop, fast recovery
//!   with PRR (RFC 6937), RTO handling, pacing, congestion-event logging.
//! * [`receiver`] — the receiver endpoint: reassembly, delayed ACKs,
//!   SACK generation, and the netem-equivalent base-RTT delay.

pub mod cc;
pub mod endpoint_stats;
pub mod rate;
pub mod receiver;
pub mod rtt;
pub mod scoreboard;
pub mod sender;

pub use cc::{AckSample, CongestionControl, FixedWindow, INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS};
pub use endpoint_stats::{ReceiverStats, SenderStats};
pub use rate::{RateEstimator, RateSample, TxRecord};
pub use receiver::Receiver;
pub use rtt::RttEstimator;
pub use scoreboard::{AckResult, Scoreboard};
pub use sender::{start_msg, CaState, Sender, SenderConfig, SenderMetrics};
