//! Fleet-scale cluster study: per-policy deadline/SLO attainment with
//! streaming p99/p999 latency tails, written to `results/cluster.txt`.
//!
//! ```text
//! cargo run --release -p lax-bench --bin cluster -- \
//!     [CELL ...] [--smoke] [--jobs N] [--resume] [--out PATH] [--ckpt PATH] \
//!     [--fidelity fast|detailed] [--scheduler NAME] [--slots N] [--jitter F] \
//!     [--retry-budget N] [--backoff-us N] [--shed] [--scenario-file PATH]
//! ```
//!
//! Positional `CELL`s are cluster cell strings
//! (`POLICY:BENCH:RATE:dD:jN:sSEED[:fI]`). Without them the grid is the
//! committed artifact's: every routing policy × arrival rate, HYBRID on
//! 16 devices with one million jobs, so a bare `cluster` regenerates
//! `results/cluster.txt`; `--smoke` is the four policies at the high rate
//! on 4 devices and 4000 jobs. The run knobs (`--fidelity` through
//! `--shed`) are [`lax_bench::cluster::knobs_from_cli`]'s, shared with
//! `chaos` and `trace`. Per-device seeds hash from the workload cell,
//! never the policy, so the output is bit-identical for any `--jobs N`.
//!
//! `--scenario-file` runs a declarative scenario file instead (see
//! `workloads::scenario`); the file must carry a `fleet` key. Its report
//! goes to `--out` when given and to stdout otherwise.
//!
//! Finished cells stream into the checkpoint when `--ckpt` is given, keyed
//! by the cell and its non-default knobs; rerunning with `--resume` keeps
//! them and the final artifact is byte-identical to an uninterrupted run.
//! On success the checkpoint is removed.

use std::error::Error;
use std::path::PathBuf;

use lax_bench::cli::Cli;
use lax_bench::cluster::{cluster_table, hybrid_grid, run_fleet_grid};
use lax_bench::scenario_file::{read_scenario_file, write_scenario_report};
use workloads::spec::ArrivalRate;

const HEADER: &str = "\
# Cluster SLO attainment: routing/admission policies over a device fleet
# (deadline-aware least-laxity LL generalizes the paper's CP admission
#  test to the cluster front door; attain counts rejected jobs as misses)
";

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    if let Some(path) = cli.value("--scenario-file")?.map(PathBuf::from) {
        let jobs = cli.jobs()?;
        let out = cli.value("--out")?.map(PathBuf::from);
        if let Some(unknown) = cli.positionals()?.first() {
            return Err(format!("unknown argument `{unknown}` with --scenario-file").into());
        }
        let file = read_scenario_file(&path)?;
        if file.fleet.is_none() {
            return Err(format!(
                "{}: the cluster binary needs a `fleet` key (use bin/dag for single-device files)",
                path.display()
            )
            .into());
        }
        return write_scenario_report("cluster", &file, out.as_deref(), jobs);
    }
    let smoke = hybrid_grid(&[0], &[ArrivalRate::High], 4, 4000);
    let full = hybrid_grid(&[0], &ArrivalRate::ALL, 16, 1_000_000);
    run_fleet_grid(cli, "cluster", smoke, full, HEADER, cluster_table)
}
