//! Perf + equivalence smoke for one experiment cell.
//!
//! Runs the cell twice: once detached (the analytic `access_run` fast
//! path) and once with a null observer attached (the per-access reference
//! path), then
//!
//! 1. asserts the two full `SimReport`s are identical — the batching
//!    bit-identity contract, checked on the *whole* report Debug form so
//!    any new field is covered automatically, and
//! 2. reports the fast path's events/sec, optionally enforcing a floor.
//!
//! Digest strictly, time loosely: the digest comparison always gates, the
//! throughput floor only when `--floor N` is given (tier1 passes a
//! deliberately generous one so a noisy box never flakes the gate).
//!
//!   perfsmoke [CELL] [--floor EVENTS_PER_SEC]

use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_sim::probe::ProbeEvent;
use lax_bench::cli::{Cli, CliError};
use lax_bench::sweep::{run_cell, RunOptions, Scenario};
use sim_core::probe::Observer;
use sim_core::time::Cycle;

/// Discards every event; exists purely to force the probe bus (and with
/// it the per-access reference memory path) active.
struct NullObserver;

impl Observer<ProbeEvent> for NullObserver {
    fn on_event(&mut self, _at: Cycle, _event: &ProbeEvent) {}
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let floor: Option<f64> = cli.parse("--floor")?;
    let got = cli.positionals()?;
    let cell = match got.as_slice() {
        [] => "CP-ML:HYBRID:medium:j16:s20210301".to_string(),
        [cell] => cell.clone(),
        _ => return Err(CliError::BadPositionals { got, want: "at most one cell".into() }.into()),
    };
    let scenario: Scenario = cell.parse()?;

    let t0 = Instant::now();
    let fast = run_cell(&scenario, &RunOptions::default())
        .map_err(|e| format!("fast-path run failed: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();

    let observer = Arc::new(Mutex::new(NullObserver));
    let reference = run_cell(&scenario, &RunOptions::default().observe(observer))
        .map_err(|e| format!("reference-path run failed: {e}"))?;

    let fast_s = format!("{fast:?}");
    let reference_s = format!("{reference:?}");
    if fast_s != reference_s {
        eprintln!("batched:   {fast_s}");
        eprintln!("reference: {reference_s}");
        let msg = format!("BIT-IDENTITY VIOLATION on {cell}: batched and reference reports differ");
        return Err(msg.into());
    }

    let eps = fast.events as f64 / wall;
    println!(
        "cell {cell}: {} events in {wall:.2}s = {:.2}M events/sec; batched == reference",
        fast.events,
        eps / 1e6,
    );
    if let Some(f) = floor.filter(|&f| eps < f) {
        return Err(format!("throughput {eps:.0} events/sec below floor {f:.0}").into());
    }
    Ok(())
}
