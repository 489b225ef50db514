//! # ccsim-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the `ccsim` workspace: a small,
//! allocation-conscious discrete-event simulator (DES) engineered to sustain
//! the event rates required to emulate a 10 Gbps bottleneck shared by
//! thousands of TCP flows (millions of events per simulated second) on a
//! laptop.
//!
//! ## Model
//!
//! * **Virtual time** is a `u64` count of nanoseconds ([`SimTime`],
//!   [`SimDuration`]). Nanosecond granularity comfortably resolves the
//!   serialization time of a single byte at 100 Gbps.
//! * **Components** ([`Component`]) are the actors of the simulation (hosts,
//!   queues, links, probes). They live in an arena owned by the
//!   [`Simulator`] and are addressed by [`ComponentId`].
//! * **Events** carry a user-defined message type `M` to a destination
//!   component at a virtual timestamp. Ties are broken FIFO by a monotonic
//!   sequence number, which makes runs bit-for-bit reproducible.
//! * **Randomness** is derived from a single master seed via
//!   [`rng::RngFactory`]; every consumer gets an independent, stable stream.
//!
//! ## Example
//!
//! ```
//! use ccsim_sim::{Component, Ctx, SimDuration, SimTime, Simulator};
//!
//! struct Ticker { remaining: u32 }
//!
//! impl Component<u32> for Ticker {
//!     fn on_event(&mut self, _now: SimTime, tick: u32, ctx: &mut Ctx<'_, u32>) {
//!         if self.remaining > 0 {
//!             self.remaining -= 1;
//!             ctx.schedule_self(SimDuration::from_millis(1), tick + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let id = sim.add_component(Ticker { remaining: 10 });
//! sim.schedule(SimTime::ZERO, id, 0u32);
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_millis(10));
//! ```

pub mod engine;
pub mod event;
pub mod json;
pub mod rate;
pub mod rng;
pub mod snap;
pub mod time;

pub use engine::{Component, ComponentId, Ctx, EngineError, Simulator};
pub use event::{CancelToken, Event, EventQueue, HeapQueue, WheelStats};
pub use json::{Json, JsonError, JsonWriter};
pub use rate::{safe_rate, Bandwidth};
pub use rng::{fnv1a_64, Fnv1a, RngFactory};
pub use snap::{SnapError, SnapReader, SnapWriter};
pub use time::{SimDuration, SimTime};
