//! Fleet observability export: run one cluster scenario with the fleet
//! observers attached and write a Perfetto/Chrome trace of the run, plus
//! optional windowed SLO telemetry as CSV and JSON time series.
//!
//! ```text
//! cargo run --release -p lax-bench --bin fleet-trace -- \
//!     [SCENARIO] [--out PATH] [--csv PATH] [--series-json PATH] \
//!     [--window-us N] [--fidelity fast|detailed] [--scheduler NAME] \
//!     [--slots N] [--jitter F] [--retry-budget N] [--backoff-us N] \
//!     [--shed] [--jobs N]
//! ```
//!
//! `SCENARIO` is a cluster-scenario string with an optional fault-intensity
//! suffix (`POLICY:BENCH:RATE:dD:jN:sSEED[:fI]`); the default is a small
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
use lax_bench::cluster::{ClusterBuilder, ClusterScenario};
use lax_bench::sweep::{self, take_flag, take_value, write_output};
use sim_core::json;
use sim_core::time::Duration;

/// Validates a JSON artifact and writes it, creating parent directories.
fn write_json(path: &Path, doc: &str) -> Result<(), Box<dyn Error>> {
    json::validate(doc).map_err(|e| format!("{}: invalid JSON produced: {e}", path.display()))?;
    write_output(path, doc)?;
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let (jobs, mut rest) = sweep::jobs_from_cli(std::env::args().skip(1));
    let shed = take_flag(&mut rest, "--shed");
    let out = PathBuf::from(
        take_value(&mut rest, "--out").unwrap_or_else(|| "results/fleet_trace.json".to_string()),
    );
    let csv = take_value(&mut rest, "--csv").map(PathBuf::from);
    let series = take_value(&mut rest, "--series-json").map(PathBuf::from);
    let window_us =
        take_value(&mut rest, "--window-us").map(|v| v.parse::<u64>()).transpose()?;
    let fidelity = take_value(&mut rest, "--fidelity")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or_default();
    let scheduler = take_value(&mut rest, "--scheduler");
    let slots = take_value(&mut rest, "--slots").map(|v| v.parse::<usize>()).transpose()?;
    let jitter = take_value(&mut rest, "--jitter").map(|v| v.parse::<f64>()).transpose()?;
    let retry_budget =
        take_value(&mut rest, "--retry-budget").map(|v| v.parse::<u32>()).transpose()?;
    let backoff_us =
        take_value(&mut rest, "--backoff-us").map(|v| v.parse::<u64>()).transpose()?;
    let mut scenario: Option<ClusterScenario> = None;
    for arg in &rest {
        if arg.starts_with('-') {
            return Err(format!("unknown argument `{arg}`").into());
        }
        if scenario.is_some() {
            return Err("fleet-trace takes at most one scenario".into());
        }
        scenario = Some(arg.parse()?);
    }
    let scenario =
        scenario.unwrap_or_else(|| "LL:HYBRID:high:d4:j2000:s7:f1".parse().expect("default"));

    let mut sampler = FleetSampler::new().with_devices(scenario.devices as u16);
    if let Some(us) = window_us {
        sampler = sampler.with_window(Duration::from_us(us));
    }
    let sampler = Arc::new(Mutex::new(sampler));
    let tracer = Arc::new(Mutex::new(FleetTraceWriter::new()));

    let key = scenario.to_string();
    eprintln!("[fleet-trace] {key}: {fidelity} fidelity on {jobs} worker thread(s)");
    let t0 = std::time::Instant::now();
    let mut builder = ClusterBuilder::new(scenario)
        .fidelity(fidelity)
        .workers(jobs)
        .shed_degraded(shed)
        .observe(sampler.clone())
        .observe(tracer.clone());
    if let Some(s) = &scheduler {
        builder = builder.device_scheduler(s);
    }
    if let Some(s) = slots {
        builder = builder.slots(s);
    }
    if let Some(j) = jitter {
        builder = builder.jitter(j);
    }
    if let Some(b) = retry_budget {
        builder = builder.retry_budget(b);
    }
    if let Some(us) = backoff_us {
        builder = builder.retry_backoff(Duration::from_us(us));
    }
    let report = builder.run()?;
    eprintln!(
        "[fleet-trace] {key}: attain {:.4}, p999 {:.1}us, misses [{}] in {:?}",
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
