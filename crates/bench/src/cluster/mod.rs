//! Fleet-scale cluster simulation behind one unified run API.
//!
//! The paper evaluates one accelerator; a serving fleet fronts N of them
//! with a router that decides, per arriving job, *which* device runs it —
//! or whether any device can still make the deadline at all. This module
//! generalizes the paper's command-processor admission test to that front
//! door:
//!
//! * [`ClusterScenario`] — the cluster experiment cell (routing policy ×
//!   benchmark × arrival rate × device count × job count × seed × fault
//!   intensity), with the same lossless string round trip — one grammar,
//!   plus the required `dD` field — as [`crate::sweep::Scenario`].
//! * [`ClusterBuilder`] — mirrors `gpu_sim`'s `SimBuilder`: fidelity tier,
//!   per-device scheduler, slot count, jitter, worker count, probe
//!   observers; [`ClusterBuilder::run`] produces a [`ClusterReport`].
//! * One time-ordered engine runs every cell: routing, fault replay,
//!   retries and device bookings interleave in a single serial pass, and a
//!   cell without faults is one whose plan has no transitions. Per-device
//!   RNG seeds hash from the workload cell and device index — never the
//!   routing policy — so policy comparisons are paired, and the report is
//!   bit-identical for any worker count (workers only fan out the
//!   detailed tier's per-device simulations).
//! * Latency tails stream through [`StreamingQuantiles`] (p50/p99/p999),
//!   merged across devices in device-index order, so a million-job run
//!   reports SLO attainment without holding a million samples.
//! * The arrival stream is drawn one job at a time as it is routed, so
//!   every cell holds its arrival stream in constant memory at any job
//!   count. A cell seeded from its own `:fI` intensity streams too:
//!   [`FleetFaultPlan::seeded`] spreads its windows over the realized span,
//!   up to the last arrival, which a draw-only replay of the stream's
//!   random draws finds before routing starts. What still grows is real
//!   in-flight state: under faults, the bookings held past their device's
//!   next crash and the pending retries; in the detailed tier, every
//!   surviving booking kept for its phase-2 simulations; and in an
//!   observed run, the outcomes still in flight.
//! * Finished cells persist through [`crate::checkpoint::FleetCheckpoint`]
//!   (summary + sketch), the same crash-safe store the sweep binaries use,
//!   so an interrupted grid resumes byte-identically.
//!
//! # Fidelity tiers
//!
//! Both tiers book every placement through the one booking model,
//! [`FastDevice`]. The **fast** tier (default) executes on it; a 16-device,
//! million-job grid completes in seconds. The **detailed** tier books
//! un-jittered only to decide crash losses, then materializes every
//! surviving booking's kernel chain and runs a full
//! [`gpu_sim::sim::Simulation`] per device under a registry scheduler
//! (default LAX) — used for smokes and fidelity cross-checks at small job
//! counts.
//!
//! # Failure domains
//!
//! A [`FleetFaultPlan`] (from [`ClusterScenario::fault_seed`] at intensity
//! `:fI`, or injected via [`ClusterBuilder::fleet_faults`]) feeds the
//! engine's fault transitions. Crashes lose in-flight work (recovered
//! through the front door while some survivor's predicted laxity admits
//! it, bounded by [`ClusterBuilder::retry_budget`]); drains stop new
//! placements; straggler windows stretch service; correlated outages down
//! whole device blocks. Every job ends completed, rejected, shed or lost,
//! and the probe bus narrates
//! `DeviceDown`/`DeviceRestored`/`JobRetried`/`JobShed`.
//!
//! # Observability
//!
//! The engine narrates itself over the probe bus: routing verdicts,
//! retries and health transitions, one `JobCompleted` per finished job
//! and exactly one `JobMissed` (typed by [`MissCause`]) per job that did
//! not make its deadline — one stream in time order, live verdicts before
//! outcomes at an instant, so the delivery order is independent of worker
//! count. [`FleetSampler`] turns the stream into
//! windowed SLO time series and [`FleetTraceWriter`] into Perfetto traces
//! (the `trace` binary, given a fleet cell). The [`ClusterReport::misses`]
//! breakdown is computed on every run — observed or not — and conserves
//! exactly against the report's totals; attaching observers never changes
//! any report byte.
//!
//! # Layout
//!
//! `cell` holds the cell and its grids, `knobs` the builder and its
//! checkpoint key, `arrivals` the arrival stream, `engine` the
//! time-ordered pass and the device tallies, and `report` the merged
//! report, its tables and the fleet binaries' grid driver.
//!
//! [`StreamingQuantiles`]: sim_core::stats::StreamingQuantiles
//! [`FastDevice`]: gpu_sim::fleet::FastDevice
//! [`FleetFaultPlan`]: gpu_sim::fleet::FleetFaultPlan
//! [`FleetFaultPlan::seeded`]: gpu_sim::fleet::FleetFaultPlan::seeded
//! [`MissCause`]: gpu_sim::probe::MissCause
//! [`FleetSampler`]: gpu_sim::fleet_obs::FleetSampler
//! [`FleetTraceWriter`]: gpu_sim::fleet_obs::FleetTraceWriter

mod arrivals;
mod cell;
mod engine;
mod knobs;
mod report;
#[cfg(test)]
mod tests;

pub use cell::{cells_from_cli, hybrid_grid, ClusterScenario};
pub use knobs::{knobs_from_cli, ClusterBuilder};
pub use report::{chaos_table, cluster_table, run_fleet_grid, ClusterReport};
