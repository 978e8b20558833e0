//! DAG-workload study: deadline attainment on graph-structured jobs
//! (fan-out/fan-in diamond, the Sirius-style IPA pipeline), written to
//! `results/dag.txt` — or any experiment described by a declarative
//! scenario file.
//!
//! ```text
//! cargo run --release -p lax-bench --bin dag -- \
//!     [--smoke] [--jobs N] [--resume] [--out PATH] [--ckpt PATH] \
//!     [--scenario-file PATH [--check]]
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
//! parses + validates without running anything.

use std::error::Error;
use std::fs;
use std::path::PathBuf;

use lax_bench::figures::{dag, DagSweep};
use lax_bench::scenario_file::run_scenario_file;
use lax_bench::{sweep, Checkpoint};
use workloads::scenario::ScenarioFile;

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
    let check = take_flag(&mut rest, "--check");
    let scenario_file = take_value(&mut rest, "--scenario-file").map(PathBuf::from);
    let out = PathBuf::from(
        take_value(&mut rest, "--out").unwrap_or_else(|| "results/dag.txt".to_string()),
    );
    let ckpt = PathBuf::from(
        take_value(&mut rest, "--ckpt").unwrap_or_else(|| "results/dag.ckpt".to_string()),
    );
    if let Some(unknown) = rest.first() {
        return Err(format!("unknown argument `{unknown}`").into());
    }

    if let Some(path) = scenario_file {
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let file: ScenarioFile =
            source.parse().map_err(|e| format!("{}: {e}", path.display()))?;
        let cells = file.schedulers.len() * file.rates.len();
        if check {
            println!(
                "{}: ok ({} scheduler(s) x {} rate(s) = {cells} cell(s), {} job(s)/cell{})",
                path.display(),
                file.schedulers.len(),
                file.rates.len(),
                file.n_jobs,
                if file.fleet.is_some() { ", fleet" } else { "" }
            );
            return Ok(());
        }
        eprintln!(
            "[dag] scenario {}: {cells} cell(s) x {} job(s) on {jobs} worker thread(s)",
            file.name, file.n_jobs
        );
        let t0 = std::time::Instant::now();
        let text = run_scenario_file(&file, jobs)?;
        if let Some(dir) = out.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        fs::write(&out, &text)?;
        eprintln!("[dag] wrote {} in {:?}", out.display(), t0.elapsed());
        return Ok(());
    }

    let grid = if smoke { DagSweep::smoke() } else { DagSweep::full() };
    let mut checkpoint = Checkpoint::for_run(&ckpt, resume, "dag");
    let total = grid.schedulers.len() * grid.benches.len() * grid.rates.len();
    eprintln!(
        "[dag] {} grid: {total} cells on {jobs} worker thread(s)",
        if smoke { "smoke" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let text = dag(&grid, jobs, Some(&mut checkpoint))?;
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    fs::write(&out, &text)?;
    checkpoint.discard_file()?;
    eprintln!("[dag] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
