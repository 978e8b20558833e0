//! Fault-robustness study: deadline-miss degradation curves under
//! deterministic injected faults (LAX vs baselines), written to
//! `results/faults.txt`.
//!
//! ```text
//! cargo run --release -p lax-bench --bin faults \
//!     [--smoke] [--jobs N] [--resume] [--out PATH] [--ckpt PATH]
//! ```
//!
//! The grid is schedulers × benchmarks × fault intensities at the high
//! arrival rate; every cell's fault plan is seeded from the cell itself,
//! so output is bit-identical for any `--jobs N`. `--smoke` shrinks the
//! grid to a seconds-scale variant for CI.
//!
//! Finished cells stream into the checkpoint file (default
//! `results/faults.ckpt`). After a crash or SIGKILL, rerunning with
//! `--resume` keeps those cells and re-runs only the rest — the final
//! artifact is byte-identical to an uninterrupted run, which
//! `tools/tier1.sh` asserts. Without `--resume` a stale checkpoint is
//! discarded; on success the checkpoint is removed.

use std::error::Error;
use std::path::PathBuf;

use lax_bench::cli::Cli;
use lax_bench::figures::{faults, FaultSweep};
use lax_bench::sweep::write_output;
use lax_bench::Checkpoint;

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let jobs = cli.jobs()?;
    let smoke = cli.flag("--smoke")?;
    let resume = cli.flag("--resume")?;
    let out = PathBuf::from(cli.value("--out")?.unwrap_or_else(|| "results/faults.txt".into()));
    let ckpt = PathBuf::from(cli.value("--ckpt")?.unwrap_or_else(|| "results/faults.ckpt".into()));
    if let Some(unknown) = cli.positionals()?.first() {
        return Err(format!("unknown argument `{unknown}`").into());
    }
    let grid = if smoke { FaultSweep::smoke() } else { FaultSweep::full() };

    let mut checkpoint = Checkpoint::for_run(&ckpt, resume, "faults");
    let total = grid.schedulers.len() * grid.benches.len() * grid.fault_milli.len();
    eprintln!(
        "[faults] {} grid: {total} cells on {jobs} worker thread(s)",
        if smoke { "smoke" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let text = faults(&grid, jobs, Some(&mut checkpoint))?;
    write_output(&out, &text)?;
    checkpoint.discard_file()?;
    eprintln!("[faults] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
