//! Deterministic discrete-event network simulator.
//!
//! This crate is the testbed substitute for the paper's physical setup
//! (server → byte caching encoder → rate-limited lossy link → decoder →
//! client). It simulates:
//!
//! * **Nodes** ([`Node`]) — protocol endpoints and middleboxes that react
//!   to packets and timers.
//! * **Links** ([`LinkConfig`]) — unidirectional pipes with a serialization
//!   rate (the paper's 1 MB/s traffic shaper), propagation delay, and a
//!   [`channel`] model injecting loss (Bernoulli or bursty
//!   Gilbert–Elliott), corruption, and reordering.
//! * **Routing** — per-node static routes by destination IP, so
//!   middleboxes forward like real IP routers and the mobility scenario
//!   (Section II of the paper) is a pair of scheduled route changes.
//!
//! Everything is event-driven and every random decision flows from a
//! caller-provided seed, so a simulation is exactly reproducible —
//! crucial for the paper's experiments, which compare encoding policies
//! on *identical* channel realizations.
//!
//! # Execution
//!
//! One single-threaded event loop: events fire in `(time, insertion
//! seq)` order and every link draws channel randomness from the
//! simulator's one seeded RNG, so a run depends on nothing but the seed
//! and the topology (DESIGN.md §14).
//!
//! # Example
//!
//! ```
//! use bytecache_netsim::Simulator;
//!
//! let mut sim = Simulator::new(7);
//! // ... add nodes, links and routes, then:
//! sim.run_until_idle();
//! assert_eq!(sim.now().as_micros(), 0); // nothing was scheduled
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod nc;
pub mod time;

mod fxhash;
mod lines;
mod link;
mod node;
mod sim;
mod stats;
pub mod topology;
mod trace;
mod wheel;

pub use link::{LinkConfig, LinkId};
pub use node::{Action, Context, Node, NodeId};
pub use sim::{AsAny, Simulator};
pub use stats::LinkStats;
pub use topology::{Hop, Mobility, Topology};
pub use trace::{FnTrace, TraceEvent, TraceSink};
pub use wheel::{replay_schedule, replay_schedule_with, QueueKind, ScheduleOp};
