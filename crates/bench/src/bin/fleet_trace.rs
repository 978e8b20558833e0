//! Fleet observability export: run one cluster scenario with the fleet
//! observers attached and write a Perfetto/Chrome trace of the run, plus
//! optional windowed SLO telemetry as CSV and JSON time series.
//!
//! ```text
//! cargo run --release -p lax-bench --bin fleet-trace -- \
//!     [CELL] [--out PATH] [--csv PATH] [--series-json PATH] [--window-us N] \
//!     [--fidelity fast|detailed] [--scheduler NAME] [--slots N] [--jitter F] \
//!     [--retry-budget N] [--backoff-us N] [--shed] [--jobs N]
//! ```
//!
//! `CELL` is a cluster cell string with an optional fault-intensity suffix
//! (`POLICY:BENCH:RATE:dD:jN:sSEED[:fI]`); the run knobs (`--fidelity`
//! through `--shed`) are [`lax_bench::cluster::knobs_from_cli`]'s, shared
//! with `cluster` and `chaos`. `--window-us` sets the telemetry window
//! width (default 100 µs; at least 1). The default cell is a small
//! faulty fleet (`LL:HYBRID:high:d4:j2000:s7:f1`) so the trace shows
//! crash/drain health spans out of the box. The trace (`--out`, default
//! `results/fleet_trace.json`) loads in `ui.perfetto.dev` or
//! `chrome://tracing`: one process lane for device health spans, one for
//! per-device job spans colored by outcome, one for routing/retry instants,
//! plus `in_flight` / `devices_down` counter tracks.
//!
//! Observers ride the probe bus and never perturb the simulation: the
//! report printed to stderr is byte-identical to an unobserved run for any
//! `--jobs N`. Both JSON artifacts are checked against
//! [`sim_core::json::validate`] before they are written.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use gpu_sim::prelude::{FleetSampler, FleetTraceWriter};
use lax_bench::cli::{Cli, CliError};
use lax_bench::cluster::{knobs_from_cli, ClusterScenario};
use lax_bench::sweep::write_output;
use sim_core::json;
use sim_core::time::{Duration, CYCLES_PER_US};

/// Validates a JSON artifact and writes it, creating parent directories.
fn write_json(path: &Path, doc: &str) -> Result<(), Box<dyn Error>> {
    json::validate(doc).map_err(|e| format!("{}: invalid JSON produced: {e}", path.display()))?;
    write_output(path, doc)?;
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let jobs = cli.jobs()?;
    let out =
        PathBuf::from(cli.value("--out")?.unwrap_or_else(|| "results/fleet_trace.json".into()));
    let csv = cli.value("--csv")?.map(PathBuf::from);
    let series = cli.value("--series-json")?.map(PathBuf::from);
    let window_us: Option<u64> = cli.parse("--window-us")?;
    let max_us = u64::MAX / CYCLES_PER_US;
    if let Some(us) = window_us.filter(|us| !(1..=max_us).contains(us)) {
        return Err(format!("--window-us {us}: want 1 to {max_us}").into());
    }
    let knobs = knobs_from_cli(&mut cli)?;
    let got = cli.positionals()?;
    let scenario: ClusterScenario = match got.as_slice() {
        [] => "LL:HYBRID:high:d4:j2000:s7:f1".parse()?,
        [cell] => cell.parse()?,
        _ => return Err(CliError::BadPositionals { got, want: "at most one cell".into() }.into()),
    };

    let mut sampler = FleetSampler::new().with_devices(scenario.devices as u16);
    if let Some(us) = window_us {
        sampler = sampler.with_window(Duration::from_us(us));
    }
    let sampler = Arc::new(Mutex::new(sampler));
    let tracer = Arc::new(Mutex::new(FleetTraceWriter::new()));

    let builder =
        knobs(scenario).workers(jobs).observe(sampler.clone()).observe(tracer.clone());
    eprintln!("[fleet-trace] {builder} on {jobs} worker thread(s)");
    let t0 = std::time::Instant::now();
    let report = builder.run()?;
    eprintln!(
        "[fleet-trace] {builder}: attain {:.4}, p999 {:.1}us, misses [{}] in {:?}",
        report.attainment(),
        report.latency_us.p999(),
        report.misses,
        t0.elapsed()
    );

    write_json(&out, &tracer.lock().unwrap().finish())?;
    eprintln!("[fleet-trace] wrote trace {}", out.display());
    let sampler = sampler.lock().unwrap();
    if sampler.dropped() > 0 {
        eprintln!(
            "[fleet-trace] warning: {} window(s) beyond capacity were dropped",
            sampler.dropped()
        );
    }
    if let Some(path) = csv {
        write_output(&path, sampler.to_csv())?;
        eprintln!("[fleet-trace] wrote {} window(s) to {}", sampler.len(), path.display());
    }
    if let Some(path) = series {
        write_json(&path, &sampler.to_json())?;
        eprintln!("[fleet-trace] wrote series {}", path.display());
    }
    Ok(())
}
