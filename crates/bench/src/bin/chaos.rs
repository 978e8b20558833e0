//! Fleet robustness study: SLO attainment under injected failure domains
//! (device crashes, correlated outages, drains, stragglers) swept over
//! failure intensity × routing policy × arrival rate, written to
//! `results/chaos.txt`.
//!
//! ```text
//! cargo run --release -p lax-bench --bin chaos -- \
//!     [CELL ...] [--smoke] [--jobs N] [--resume] [--out PATH] [--ckpt PATH] \
//!     [--fidelity fast|detailed] [--scheduler NAME] [--slots N] [--jitter F] \
//!     [--retry-budget N] [--backoff-us N] [--shed]
//! ```
//!
//! Positional `CELL`s are cluster cell strings with an optional
//! fault-intensity suffix (`POLICY:BENCH:RATE:dD:jN:sSEED[:fI]`). Without
//! them the grid is the committed artifact's: every routing policy ×
//! arrival rate × failure intensity 0, 1 and 2, HYBRID on 8 devices with
//! 200k jobs; `--smoke` is intensities 0 and 1 at the high rate on 4
//! devices and 2000 jobs. The run knobs (`--fidelity` through `--shed`) are
//! [`lax_bench::cluster::knobs_from_cli`]'s, shared with `cluster` and
//! `trace`. Fault plans derive from the workload cell and intensity —
//! never the policy — so every policy faces the identical fault schedule
//! and the comparison is paired; arrival streams are also paired *across*
//! intensities, isolating the faults' effect. Output is bit-identical for
//! any `--jobs N`.
//!
//! Finished cells stream into the checkpoint when `--ckpt` is given, keyed
//! by the cell and its non-default knobs; rerunning with `--resume` keeps
//! them and the final artifact is byte-identical to an uninterrupted run.
//! On success the checkpoint is removed.

use std::error::Error;

use lax_bench::cli::Cli;
use lax_bench::cluster::{chaos_table, hybrid_grid, run_fleet_grid};
use workloads::spec::ArrivalRate;

const HEADER: &str = "\
# Fleet robustness: SLO attainment under injected failure domains
# (crashes, correlated outages, drains, stragglers at intensity f;
#  fault plans derive from the workload cell, never the policy, so
#  every policy faces the identical fault schedule; lost = crash-
#  lost past the retry budget, retried = recovered placements)
";

fn main() -> Result<(), Box<dyn Error>> {
    let smoke = hybrid_grid(&[0, 1000], &[ArrivalRate::High], 4, 2000);
    let full = hybrid_grid(&[0, 1000, 2000], &ArrivalRate::ALL, 8, 200_000);
    run_fleet_grid(Cli::from_env(), "chaos", smoke, full, HEADER, chaos_table)
}
