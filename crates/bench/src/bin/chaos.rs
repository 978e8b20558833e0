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
//! `fleet-trace`. Fault plans derive from the workload cell and intensity —
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
use std::path::PathBuf;

use lax_bench::checkpoint::FleetCheckpoint;
use lax_bench::cli::Cli;
use lax_bench::cluster::{
    cells_from_cli, chaos_table, hybrid_grid, knobs_from_cli, ClusterBuilder,
};
use lax_bench::sweep::{run_grid, write_output};
use workloads::spec::ArrivalRate;

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let jobs = cli.jobs()?;
    let smoke = cli.flag("--smoke")?;
    let resume = cli.flag("--resume")?;
    let out = PathBuf::from(cli.value("--out")?.unwrap_or_else(|| "results/chaos.txt".into()));
    let ckpt_path = cli.value("--ckpt")?.map(PathBuf::from);
    let knobs = knobs_from_cli(&mut cli)?;
    let mut cells = cells_from_cli(&cli.positionals()?)?;
    if cells.is_empty() {
        cells = if smoke {
            hybrid_grid(&[0, 1000], &[ArrivalRate::High], 4, 2000)
        } else {
            hybrid_grid(&[0, 1000, 2000], &ArrivalRate::ALL, 8, 200_000)
        };
    }
    let builders: Vec<ClusterBuilder> = cells.into_iter().map(|c| knobs(c).workers(jobs)).collect();

    let mut checkpoint = ckpt_path.map(|p| FleetCheckpoint::for_run(p, resume, "chaos"));
    eprintln!("[chaos] {} cell(s) on {jobs} worker thread(s)", builders.len());
    let t0 = std::time::Instant::now();
    // One cell at a time: a detailed cell spreads its devices over `jobs`.
    let reports = run_grid(&builders, 1, checkpoint.as_mut(), ClusterBuilder::run, |b, r| match r {
        Ok(r) => eprintln!(
            "[chaos] {b}: attain {:.4}, lost {}, retried {}",
            r.attainment(),
            r.lost,
            r.retried
        ),
        Err(e) => eprintln!("[chaos] {b}: {e}"),
    })?;

    let mut text = String::new();
    text.push_str("# Fleet robustness: SLO attainment under injected failure domains\n");
    text.push_str("# (crashes, correlated outages, drains, stragglers at intensity f;\n");
    text.push_str("#  fault plans derive from the workload cell, never the policy, so\n");
    text.push_str("#  every policy faces the identical fault schedule; lost = crash-\n");
    text.push_str("#  lost past the retry budget, retried = recovered placements)\n");
    // Every cell ran under the one knob set, so the first names its fidelity.
    text.push_str(&format!("# fidelity: {}\n", reports[0].fidelity));
    text.push_str(&chaos_table(&reports).render());
    write_output(&out, &text)?;
    if let Some(ckpt) = checkpoint.as_ref() {
        ckpt.discard_file()?;
    }
    eprintln!("[chaos] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
