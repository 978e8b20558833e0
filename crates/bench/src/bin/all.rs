//! Regenerates the paper's evaluation and writes each artifact to
//! `results/<name>.txt`.
//!
//! ```text
//! cargo run --release -p lax-bench --bin all -- [ARTIFACT ...] [--jobs N] [--resume]
//! ```
//!
//! `ARTIFACT`s name what to regenerate: `table1`, `fig1`, `fig4`,
//! `fig6`–`fig10` and `table5`; none named means all nine. They are
//! written in one fixed order whatever order they are named in.
//! `--jobs N` (or `LAX_BENCH_JOBS`) sets the sweep worker count; the
//! default is every available core. Output is bit-identical for any worker
//! count.
//!
//! Finished grid cells stream into `results/all.ckpt` as they land. If a
//! run is interrupted (crash, SIGKILL, power loss), `--resume` reloads
//! that file and re-runs only the missing cells; the regenerated artifacts
//! are byte-identical to an uninterrupted run. Without `--resume` any
//! stale checkpoint is discarded and the evaluation starts from scratch.
//! The checkpoint is removed again once the run completes.
use std::error::Error;
use std::path::PathBuf;

use lax_bench::cli::Cli;
use lax_bench::figures::{artifact, select_artifacts};
use lax_bench::sweep::write_output;
use lax_bench::{Checkpoint, ResultsDb};

/// Where interrupted runs park their finished cells.
const CHECKPOINT: &str = "results/all.ckpt";

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let jobs = cli.jobs()?;
    let resume = cli.flag("--resume")?;
    let artifacts = select_artifacts(&cli.positionals()?)?;
    eprintln!("[all] sweeping on {jobs} worker thread(s)");
    let t0 = std::time::Instant::now();

    let checkpoint = Checkpoint::for_run(CHECKPOINT, resume, "all");
    let mut db = ResultsDb::new().verbose().with_checkpoints(checkpoint);
    for name in artifacts {
        let path = PathBuf::from(format!("results/{name}.txt"));
        write_output(&path, artifact(name, &mut db, jobs)?)?;
        eprintln!("[all] wrote {}", path.display());
    }
    if let Some(ck) = db.checkpoint() {
        ck.discard_file()?;
    }
    eprintln!("[all] done in {:?} ({} cells cached)", t0.elapsed(), db.len());
    Ok(())
}
