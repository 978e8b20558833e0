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
use std::fs;
use std::path::PathBuf;

use lax_bench::figures::{faults, FaultSweep};
use lax_bench::{sweep, Checkpoint};

fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("warning: {flag} is missing its value");
        args.remove(pos);
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

fn main() -> Result<(), Box<dyn Error>> {
    let (jobs, mut rest) = sweep::jobs_from_cli(std::env::args().skip(1));
    let smoke = take_flag(&mut rest, "--smoke");
    let resume = take_flag(&mut rest, "--resume");
    let out = PathBuf::from(
        take_value(&mut rest, "--out").unwrap_or_else(|| "results/faults.txt".to_string()),
    );
    let ckpt = PathBuf::from(
        take_value(&mut rest, "--ckpt").unwrap_or_else(|| "results/faults.ckpt".to_string()),
    );
    if let Some(unknown) = rest.first() {
        return Err(format!("unknown argument `{unknown}`").into());
    }
    let grid = if smoke { FaultSweep::smoke() } else { FaultSweep::full() };

    let mut checkpoint = Checkpoint::for_run(&ckpt, resume, "faults");
    let total =
        grid.schedulers.len() * grid.benches.len() * grid.intensities.len();
    eprintln!(
        "[faults] {} grid: {total} cells on {jobs} worker thread(s)",
        if smoke { "smoke" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let text = faults(&grid, jobs, Some(&mut checkpoint))?;
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    fs::write(&out, &text)?;
    checkpoint.discard_file()?;
    eprintln!("[faults] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
