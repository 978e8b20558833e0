//! # gpu-sim
//!
//! An event-driven, cycle-approximate GPU simulator built from scratch as
//! the substrate for reproducing *Deadline-Aware Offloading for
//! High-Throughput Accelerators* (HPCA 2021). It models the paper's Table 2
//! machine: an 8-CU, 1.5 GHz GCN-style GPU with 128 hardware compute queues,
//! a programmable command processor, per-CU L1 caches, a shared L2, and
//! 16-channel DRAM.
//!
//! ## Architecture
//!
//! * [`kernel`] / [`job`] — work descriptors: kernels with grid shape,
//!   occupancy footprint and a compute/memory profile; jobs as
//!   deadline-carrying kernel chains.
//! * [`cu`] / [`simd`] — compute units whose SIMD issue slots are shared
//!   processor-style among resident wavefronts, so completion rates degrade
//!   under occupancy.
//! * [`cache`] / [`dram`] / [`memory`] — an L1/L2/DRAM hierarchy with real
//!   tag arrays and per-channel bandwidth queues, so latency degrades under
//!   bandwidth pressure.
//! * [`queue`] / [`counters`] — the command processor's view: per-queue Job
//!   Table state and the workgroup-completion-rate counters the paper adds.
//! * [`scheduler`] / [`host`] — the two scheduler attachment points:
//!   CP-integrated (fresh, fine-grained state) and host-side (stale
//!   counters, kernel-granularity notifications, 4 us launch overhead).
//! * [`faults`] — deterministic fault injection: seeded plans of slowdown
//!   windows, CU offline spans, DRAM throttles and arrival bursts that the
//!   event loop replays exactly.
//! * [`fleet`] — the cluster front end's device tiers: a calibrated
//!   fast-path queueing model for million-job fleet runs next to the full
//!   simulation, plus the shared fidelity vocabulary.
//! * [`sim`] — the front door: parameters, the builder, and the
//!   [`sim::Simulation`] handle; [`metrics`] the per-job outcomes and run
//!   reports. Internally the machine is decomposed into typed subsystems —
//!   a command-processor frontend (arrival/inspection/admission), a
//!   dispatcher (WG placement), an execution subsystem (CU/SIMD wave
//!   advancement with polled completion predictions), a memory subsystem,
//!   and the host model — stepped by a private event engine. Subsystems
//!   request future events through an effect buffer rather than touching
//!   the global queue or each other's state.
//! * [`probe`] — observability: typed probe events the event loop fires
//!   through a [`sim_core::probe::ProbeHub`], plus the built-in
//!   [`probe::MetricsSampler`] and [`probe::ChromeTraceWriter`] observers.
//!   Zero overhead when no observer is attached, and attaching one never
//!   perturbs results.
//! * [`fleet_obs`] — cluster-scope observers over the same probe bus:
//!   [`fleet_obs::FleetSampler`] (windowed SLO/latency/health time series)
//!   and [`fleet_obs::FleetTraceWriter`] (Perfetto traces of fleet runs),
//!   fed by the routing/health/completion/miss events the cluster layer
//!   emits. Both trace writers only map probe events onto records of
//!   [`sim_core::trace::TraceEvents`], the one trace-event writer.
//!
//! ## Example
//!
//! Run one small job under the contemporary round-robin scheduler:
//!
//! ```
//! use std::sync::Arc;
//! use gpu_sim::prelude::*;
//!
//! let kernel = Arc::new(KernelDesc::new(
//!     KernelClassId(0),
//!     "demo",
//!     256,
//!     64,
//!     16,
//!     0,
//!     ComputeProfile::compute_only(1_000),
//! ));
//! let job = JobDesc::chain(JobId(0), "demo", vec![kernel], Duration::from_us(100), Cycle::ZERO)?;
//! let mut sim = Simulation::builder()
//!     .jobs(vec![job])
//!     .scheduler(SchedulerMode::Cp(Box::new(RoundRobin::new())))
//!     .build()?;
//! let report = sim.run();
//! assert_eq!(report.deadlines_met(), 1);
//! # Ok::<(), gpu_sim::sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod counters;
mod cp_frontend;
pub mod cu;
mod dispatch;
pub mod dram;
pub mod energy;
mod engine;
mod error;
mod exec;
pub mod faults;
pub mod fleet;
pub mod fleet_obs;
pub mod host;
pub mod job;
pub mod kernel;
pub mod memory;
mod memsys;
pub mod metrics;
pub mod probe;
pub mod queue;
pub mod scheduler;
pub mod sim;
pub mod simd;
pub mod slab;
mod state;
pub mod wave;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::config::GpuConfig;
    pub use crate::counters::Counters;
    pub use crate::faults::{
        ArrivalBurst, CuFault, DramThrottle, FaultKind, FaultPlan, FaultPlanError, Slowdown,
    };
    pub use crate::fleet::{
        CorrelatedOutage, DeviceCrash, DeviceDrain, DeviceHealth, FastDevice, Fidelity,
        FleetFaultError, FleetFaultPlan, Service, StragglerWindow,
    };
    pub use crate::fleet_obs::{FleetSampler, FleetTraceWriter};
    pub use crate::host::{HostCmd, HostEvent, HostScheduler, HostView};
    pub use crate::job::{JobDesc, JobError, JobFate, JobGraph, JobId, JobState};
    pub use crate::kernel::{AccessPattern, ClassTable, ComputeProfile, KernelClassId, KernelDesc};
    pub use crate::metrics::{JobRecord, SimReport};
    pub use crate::probe::{
        ChromeTraceWriter, MetricsSampler, MetricsSnapshot, MissBreakdown, MissCause, ProbeEvent,
    };
    pub use crate::queue::{ActiveJob, ComputeQueue};
    pub use crate::scheduler::{Admission, CpContext, CpScheduler, Occupancy, RoundRobin};
    pub use crate::sim::{
        run_isolated, SchedulerMode, SimBuilder, SimError, SimParams, Simulation,
    };
    pub use sim_core::probe::{Observer, ProbeHub};
    pub use sim_core::time::{Cycle, Duration, CYCLES_PER_MS, CYCLES_PER_US};
}
