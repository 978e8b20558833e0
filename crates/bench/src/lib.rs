//! # lax-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index). The binaries in
//! `src/bin/` are thin wrappers over [`runner`] and [`figures`]; `bin/all`
//! reproduces the whole evaluation and emits EXPERIMENTS.md-ready text.
//!
//! Grids execute through the parallel [`sweep`] engine: every cell is an
//! independent deterministic simulation, fanned across
//! `--jobs N` / `LAX_BENCH_JOBS` worker threads (default: all cores) with
//! bit-identical results regardless of thread count. The engine is
//! self-healing — a panicking or runaway cell degrades to a typed
//! [`BenchError`] after bounded retries instead of killing the grid — and
//! long runs stream finished cells into a crash-safe [`checkpoint`] file
//! so an interrupted `bin/all`, `bin/faults`, `bin/dag`, `bin/cluster` or
//! `bin/chaos` restarted with `--resume` only re-runs what is missing,
//! byte-identically. All five share one store with two record codecs
//! (sweep and fleet reports); a corrupt cell block is dropped, the intact
//! ones kept.

#![warn(missing_docs)]

pub mod benchdiff;
pub mod checkpoint;
pub mod cluster;
pub mod figures;
pub mod profile;
pub mod runner;
pub mod scenario_file;
pub mod sweep;

pub use checkpoint::Checkpoint;
pub use cluster::{ClusterBuilder, ClusterReport, ClusterScenario};
pub use runner::ResultsDb;
pub use sweep::{run_cell, BenchError, RunOptions, Scenario, SweepOptions};
