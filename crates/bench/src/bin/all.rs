//! Regenerates the paper's complete evaluation and writes each artifact to
//! `results/<name>.txt`.
//!
//! ```text
//! cargo run --release -p lax-bench --bin all [max_batch] [--jobs N] [--resume]
//! ```
//!
//! `max_batch` bounds Figure 4's batch sweep (default 128; 0 skips it).
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
use std::fs;

use lax_bench::sweep;
use lax_bench::Checkpoint;

/// Where interrupted runs park their finished cells.
const CHECKPOINT: &str = "results/all.ckpt";

fn save(dir: &str, name: &str, content: &str) -> Result<(), Box<dyn Error>> {
    let path = format!("{dir}/{name}.txt");
    fs::write(&path, content)?;
    eprintln!("[all] wrote {path}");
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let (jobs, rest) = sweep::jobs_from_cli(std::env::args().skip(1));
    let resume = rest.iter().any(|a| a == "--resume");
    let max_batch: usize = rest
        .iter()
        .filter(|a| *a != "--resume")
        .find_map(|a| a.parse().ok())
        .unwrap_or(128);
    let dir = "results";
    fs::create_dir_all(dir)?;
    eprintln!("[all] sweeping on {jobs} worker thread(s)");
    let t0 = std::time::Instant::now();

    save(dir, "table1", &lax_bench::figures::table1())?;
    save(dir, "fig1", &lax_bench::figures::fig1())?;

    let checkpoint = Checkpoint::for_run(CHECKPOINT, resume, "all");
    let mut db = lax_bench::ResultsDb::new().verbose().with_checkpoints(checkpoint);
    save(dir, "fig7", &lax_bench::figures::fig7(&mut db, jobs)?)?;
    save(dir, "fig8", &lax_bench::figures::fig8(&mut db, jobs)?)?;
    save(dir, "fig9", &lax_bench::figures::fig9(&mut db, jobs)?)?;
    save(dir, "table5", &lax_bench::figures::table5(&mut db, jobs)?)?;
    save(dir, "fig6", &lax_bench::figures::fig6(&mut db, jobs)?)?;
    save(
        dir,
        "fig10",
        &lax_bench::figures::fig10(64, 128, lax_bench::runner::DEFAULT_SEED, jobs),
    )?;
    if max_batch > 0 {
        save(dir, "fig4", &lax_bench::figures::fig4(max_batch, jobs))?;
    }
    if let Some(ck) = db.checkpoint() {
        ck.discard_file()?;
    }
    eprintln!("[all] done in {:?} ({} cells cached)", t0.elapsed(), db.len());
    Ok(())
}
