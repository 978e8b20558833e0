//! # sim-core
//!
//! Foundations for the LAX reproduction's discrete-event GPU simulator:
//!
//! * [`time`] — cycle-granular simulated time ([`time::Cycle`] instants and
//!   [`time::Duration`] spans at 1.5 GHz).
//! * [`event`] — a deterministic event queue with lazy cancellation.
//! * [`rng`] — seeded RNG with exponential-arrival and sequence-length
//!   samplers.
//! * [`stats`] — exact percentiles, a bounded-memory streaming quantile
//!   sketch with a p999 tier for million-job runs, geometric means, and the
//!   sliding rate-window counter that models the paper's
//!   workgroup-completion-rate hardware counter.
//! * [`trace`] — bounded capture: time series for Figure-10 style plots,
//!   and the one Chrome trace-event writer every trace exporter maps onto.
//! * [`probe`] — generic observer/probe bus for zero-overhead-when-off
//!   instrumentation of a running simulation.
//! * [`json`] — string escaping for the hand-rolled JSON emitters, and one
//!   strict recursive descent that validates a document or parses it
//!   (std-only workspace, no serde).
//! * [`par`] — the one fan-out primitive: [`par::par_map`] runs a pure
//!   function over a slice on scoped worker threads and returns the
//!   results in input order, whatever the worker count. The suite's
//!   calibration, the experiment grids and the fleet's device phase all
//!   run through it.
//! * [`table`] — plain-text result tables for the experiment binaries.
//!
//! Everything here is deliberately independent of the GPU model so it can be
//! reused by any event-driven simulator.
//!
//! # Examples
//!
//! Run a tiny three-event simulation:
//!
//! ```
//! use sim_core::event::EventQueue;
//! use sim_core::time::{Cycle, Duration};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Cycle::ZERO + Duration::from_us(2), "b");
//! q.schedule(Cycle::ZERO + Duration::from_us(1), "a");
//! let mut seen = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     seen.push((t.as_us_f64(), ev));
//! }
//! assert_eq!(seen, vec![(1.0, "a"), (2.0, "b")]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod json;
pub mod par;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;

pub use event::{EventId, EventQueue};
pub use probe::{Observer, ProbeHub};
pub use rng::SimRng;
pub use time::{Cycle, Duration};
