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
//! `chaos` and `fleet-trace`. Per-device seeds hash from the workload cell,
//! never the policy, so the output is bit-identical for any `--jobs N`.
//!
//! `--scenario-file` runs a declarative scenario file instead (see
//! `workloads::scenario`); the file must carry a `fleet` key.
//!
//! Finished cells stream into the checkpoint when `--ckpt` is given, keyed
//! by the cell and its non-default knobs; rerunning with `--resume` keeps
//! them and the final artifact is byte-identical to an uninterrupted run.
//! On success the checkpoint is removed.

use std::error::Error;
use std::path::PathBuf;

use lax_bench::checkpoint::FleetCheckpoint;
use lax_bench::cli::Cli;
use lax_bench::cluster::{
    cells_from_cli, cluster_table, hybrid_grid, knobs_from_cli, ClusterBuilder,
};
use lax_bench::scenario_file::{read_scenario_file, write_scenario_report};
use lax_bench::sweep::{run_grid, write_output};
use workloads::spec::ArrivalRate;

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let jobs = cli.jobs()?;
    let out = PathBuf::from(cli.value("--out")?.unwrap_or_else(|| "results/cluster.txt".into()));
    if let Some(path) = cli.value("--scenario-file")?.map(PathBuf::from) {
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
        return write_scenario_report("cluster", &file, &out, jobs);
    }
    let smoke = cli.flag("--smoke")?;
    let resume = cli.flag("--resume")?;
    let ckpt_path = cli.value("--ckpt")?.map(PathBuf::from);
    let knobs = knobs_from_cli(&mut cli)?;
    let mut cells = cells_from_cli(&cli.positionals()?)?;
    if cells.is_empty() {
        cells = if smoke {
            hybrid_grid(&[0], &[ArrivalRate::High], 4, 4000)
        } else {
            hybrid_grid(&[0], &ArrivalRate::ALL, 16, 1_000_000)
        };
    }
    let builders: Vec<ClusterBuilder> = cells.into_iter().map(|c| knobs(c).workers(jobs)).collect();

    let mut checkpoint = ckpt_path.map(|p| FleetCheckpoint::for_run(p, resume, "cluster"));
    eprintln!("[cluster] {} cell(s) on {jobs} worker thread(s)", builders.len());
    let t0 = std::time::Instant::now();
    // One cell at a time: a detailed cell spreads its devices over `jobs`.
    let reports = run_grid(&builders, 1, checkpoint.as_mut(), ClusterBuilder::run, |b, r| match r {
        Ok(r) => eprintln!(
            "[cluster] {b}: attain {:.4}, p999 {:.1}us",
            r.attainment(),
            r.latency_us.p999()
        ),
        Err(e) => eprintln!("[cluster] {b}: {e}"),
    })?;

    let mut text = String::new();
    text.push_str("# Cluster SLO attainment: routing/admission policies over a device fleet\n");
    text.push_str("# (deadline-aware least-laxity LL generalizes the paper's CP admission\n");
    text.push_str("#  test to the cluster front door; attain counts rejected jobs as misses)\n");
    // Every cell ran under the one knob set, so the first names its fidelity.
    text.push_str(&format!("# fidelity: {}\n", reports[0].fidelity));
    text.push_str(&cluster_table(&reports).render());
    write_output(&out, &text)?;
    if let Some(ckpt) = checkpoint.as_ref() {
        ckpt.discard_file()?;
    }
    eprintln!("[cluster] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
