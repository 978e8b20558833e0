//! DAG-workload study: deadline attainment on graph-structured jobs
//! (fan-out/fan-in diamond, the Sirius-style IPA pipeline), written to
//! `results/dag.txt` — or any experiment described by a declarative
//! scenario file.
//!
//! ```text
//! cargo run --release -p lax-bench --bin dag -- [--jobs N] [--out PATH] \
//!     ([--smoke] [--resume] [--ckpt PATH] | --scenario-file PATH [--check])
//! ```
//!
//! Without `--scenario-file` the grid is schedulers × DAG benchmarks ×
//! arrival rates; cell seeds exclude the scheduler, so output is
//! bit-identical for any `--jobs N`. `--smoke` shrinks the grid to a
//! seconds-scale variant for CI. Finished cells stream into the
//! checkpoint (default `results/dag.ckpt`); rerunning with `--resume`
//! after a crash keeps them and the artifact is byte-identical to an
//! uninterrupted run. Without `--resume` a stale checkpoint is discarded;
//! on success the checkpoint is removed.
//!
//! With `--scenario-file` the grid comes from the file instead (see
//! `workloads::scenario` for the schema and `examples/scenarios/` for
//! exemplars); malformed files exit with a typed diagnosis, and `--check`
//! parses + validates without running anything. A scenario file's report
//! goes to `--out` when given and to stdout otherwise. The grid's own
//! flags are unknown arguments there, and `--check` is one without a file.

use std::error::Error;
use std::path::PathBuf;

use lax_bench::cli::Cli;
use lax_bench::figures::{dag, DagSweep};
use lax_bench::scenario_file::{read_scenario_file, write_scenario_report};
use lax_bench::sweep::write_output;
use lax_bench::Checkpoint;

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let jobs = cli.jobs()?;
    let out = cli.value("--out")?.map(PathBuf::from);
    if let Some(path) = cli.value("--scenario-file")?.map(PathBuf::from) {
        let check = cli.flag("--check")?;
        if let Some(unknown) = cli.positionals()?.first() {
            return Err(format!("unknown argument `{unknown}` with --scenario-file").into());
        }
        let file = read_scenario_file(&path)?;
        if check {
            println!(
                "{}: ok ({} scheduler(s) x {} rate(s) = {} cell(s), {} job(s)/cell{})",
                path.display(),
                file.schedulers.len(),
                file.rates.len(),
                file.schedulers.len() * file.rates.len(),
                file.n_jobs,
                if file.fleet.is_some() { ", fleet" } else { "" }
            );
            return Ok(());
        }
        return write_scenario_report("dag", &file, out.as_deref(), jobs);
    }
    let smoke = cli.flag("--smoke")?;
    let resume = cli.flag("--resume")?;
    let ckpt = PathBuf::from(cli.value("--ckpt")?.unwrap_or_else(|| "results/dag.ckpt".into()));
    if let Some(unknown) = cli.positionals()?.first() {
        return Err(format!("unknown argument `{unknown}`").into());
    }

    let out = out.unwrap_or_else(|| PathBuf::from("results/dag.txt"));
    let grid = if smoke { DagSweep::smoke() } else { DagSweep::full() };
    let mut checkpoint = Checkpoint::for_run(&ckpt, resume, "dag");
    let total = grid.schedulers.len() * grid.benches.len() * grid.rates.len();
    eprintln!(
        "[dag] {} grid: {total} cells on {jobs} worker thread(s)",
        if smoke { "smoke" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let text = dag(&grid, jobs, Some(&mut checkpoint))?;
    write_output(&out, &text)?;
    checkpoint.discard_file()?;
    eprintln!("[dag] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
