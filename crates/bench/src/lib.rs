//! # lax-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index). The binaries in
//! `src/bin/` are thin wrappers over [`runner`] and [`figures`]; `bin/all`
//! reproduces the whole evaluation, or the artifacts named on its command
//! line, and emits EXPERIMENTS.md-ready text. Every binary reads its
//! command line through one [`cli::Cli`], so a misspelt flag or a flag
//! without its value is a typed error that names it, never a warning.
//!
//! Grids execute through one runner, [`sweep::run_grid`]: every cell is an
//! independent deterministic simulation, fanned across
//! `--jobs N` / `LAX_BENCH_JOBS` worker threads (default: all cores) with
//! bit-identical results regardless of thread count. The runner is
//! self-healing — a panicking cell degrades to a typed [`BenchError`]
//! after a second attempt instead of killing the grid — and streams
//! finished cells into a crash-safe [`checkpoint`] file, so an interrupted
//! `bin/all`, `bin/faults`, `bin/dag`, `bin/cluster` or `bin/chaos`
//! restarted with `--resume` only re-runs what is missing,
//! byte-identically. All five share one store with two record codecs
//! (sweep and fleet reports); a corrupt cell block is dropped, the intact
//! ones kept.

#![warn(missing_docs)]

pub mod benchdiff;
pub mod checkpoint;
pub mod cli;
pub mod cluster;
pub mod figures;
pub mod runner;
pub mod scenario_file;
pub mod sweep;

pub use checkpoint::Checkpoint;
pub use cluster::{ClusterBuilder, ClusterReport, ClusterScenario};
pub use runner::ResultsDb;
pub use sweep::{run_cell, BenchError, RunOptions, Scenario};
