//! Runs one cell with the trace observers attached and writes a Chrome
//! trace-event file (Perfetto / `chrome://tracing` loadable), plus the
//! run's time series when asked.
//!
//! ```text
//! cargo run --release -p lax-bench --bin trace -- CELL \
//!     [--out trace.json] [--csv PATH] [--series-json PATH] \
//!     [--watch JOB]                                      # device cells
//!     [--window-us N] [--jobs N] [--fidelity fast|detailed] [--scheduler NAME] \
//!     [--slots N] [--jitter F] [--retry-budget N] [--backoff-us N] [--shed]  # fleet cells
//! ```
//!
//! `CELL` is a cell string, `NAME:BENCH:RATE[:dD]:jN:sSEED[:fI]` (`:fI`
//! adds a seeded fault storm of intensity `I`). With a `dD` field it is a
//! fleet cell, otherwise a device cell, and each kind takes only its own
//! flags: a flag only the other kind reads is an error naming it.
//!
//! * A device trace has per-CU workgroup spans, per-queue kernel spans and
//!   counter tracks from the 100 us hardware snapshots; its series are the
//!   snapshots' occupancy, queue, laxity, DRAM, cache and energy columns.
//!   `--watch JOB` adds that job's prediction/priority trace (Figure 10)
//!   to the series JSON.
//! * A fleet trace has device health spans, per-device job spans colored
//!   by outcome, router instants and `in_flight` / `devices_down` counter
//!   tracks; its series are windowed SLO telemetry (`--window-us`, default
//!   100, at least 1). `--jobs` and the run knobs are
//!   [`lax_bench::cluster::knobs_from_cli`]'s, and every artifact is
//!   byte-identical for any `--jobs N`.
//!
//! `--out` defaults to `trace.json`; `--csv` and `--series-json` are
//! written only when given. Observers never perturb the simulation, so a
//! traced run reports what the same cell reports in a sweep. Every JSON
//! artifact is checked with [`sim_core::json::validate`] before it is
//! written; an invalid one is a bug and aborts with a diagnostic.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use lax_bench::cli::{Cli, CliError};
use lax_bench::cluster::{knobs_from_cli, ClusterBuilder, ClusterScenario};
use lax_bench::sweep::{run_cell, write_output, RunOptions, Scenario};
use sim_core::json;

/// Where the artifacts go: `--out`, `--csv` and `--series-json`.
struct Outputs {
    trace: PathBuf,
    csv: Option<PathBuf>,
    series: Option<PathBuf>,
}

impl Outputs {
    /// Writes the trace, then the series as CSV and JSON where asked.
    fn write(
        &self,
        trace: &str,
        csv: impl FnOnce() -> String,
        series: impl FnOnce() -> String,
    ) -> Result<(), Box<dyn Error>> {
        write_json(&self.trace, trace)?;
        eprintln!("[trace] wrote {}", self.trace.display());
        if let Some(path) = &self.csv {
            write_output(path, csv())?;
            eprintln!("[trace] wrote {}", path.display());
        }
        if let Some(path) = &self.series {
            write_json(path, &series())?;
            eprintln!("[trace] wrote {}", path.display());
        }
        Ok(())
    }
}

/// Checks a JSON artifact, then writes it, creating parent directories.
fn write_json(path: &Path, doc: &str) -> Result<(), Box<dyn Error>> {
    json::validate(doc)
        .map_err(|e| format!("internal error: {} is not valid JSON: {e}", path.display()))?;
    write_output(path, doc)?;
    Ok(())
}

/// The flag only a device cell reads: the job to watch.
fn device_flags(cli: &mut Cli) -> Result<Option<u32>, CliError> {
    cli.parse("--watch")
}

/// The flags only a fleet cell reads: the telemetry window, the worker
/// count and the run knobs.
fn fleet_flags(
    cli: &mut Cli,
) -> Result<(Option<Duration>, usize, impl Fn(ClusterScenario) -> ClusterBuilder), CliError> {
    let window_us: Option<u64> = cli.parse("--window-us")?;
    let max_us = u64::MAX / CYCLES_PER_US;
    if let Some(us) = window_us.filter(|us| !(1..=max_us).contains(us)) {
        let (flag, value) = ("--window-us".into(), us.to_string());
        return Err(CliError::BadValue { flag, value, reason: format!("want 1 to {max_us}") });
    }
    let jobs = cli.jobs()?;
    Ok((window_us.map(Duration::from_us), jobs, knobs_from_cli(cli)?))
}

/// Ends a command line once one kind's flags are taken. The cell was found
/// on a copy that took both kinds' flags, so a flag left here is one only
/// the other kind reads.
fn only_flags_of(cli: Cli, kind: &str) -> Result<(), CliError> {
    match cli.positionals() {
        Err(CliError::UnknownFlag(flag)) => Err(CliError::BadPositionals {
            got: vec![flag],
            want: format!("only the flags of a {kind} cell"),
        }),
        other => other.map(drop),
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let outputs = Outputs {
        trace: PathBuf::from(cli.value("--out")?.unwrap_or_else(|| "trace.json".into())),
        csv: cli.value("--csv")?.map(PathBuf::from),
        series: cli.value("--series-json")?.map(PathBuf::from),
    };
    // The cell's kind decides which flags apply, and a flag's value could
    // pass for the cell: find the cell on a copy that takes every flag.
    let mut both = cli.clone();
    device_flags(&mut both)?;
    let _ = fleet_flags(&mut both)?;
    let got = both.positionals()?;
    let [cell] = got.as_slice() else {
        let want = "one CELL, e.g. LAX:IPV6:high:j128:s20210301 or LL:HYBRID:high:d4:j2000:s7:f1";
        return Err(CliError::BadPositionals { got, want: want.into() }.into());
    };
    if cell.split(':').nth(3).is_some_and(|field| field.starts_with('d')) {
        let (window, jobs, knobs) = fleet_flags(&mut cli)?;
        only_flags_of(cli, "fleet")?;
        let scenario: ClusterScenario = cell.parse()?;
        let mut sampler = FleetSampler::new().with_devices(scenario.devices as u16);
        if let Some(window) = window {
            sampler = sampler.with_window(window);
        }
        trace_fleet(knobs(scenario), jobs, sampler, &outputs)
    } else {
        let watch = device_flags(&mut cli)?;
        only_flags_of(cli, "device")?;
        trace_device(&cell.parse()?, watch, &outputs)
    }
}

fn trace_device(
    scenario: &Scenario,
    watch: Option<u32>,
    outputs: &Outputs,
) -> Result<(), Box<dyn Error>> {
    let mut sampler = MetricsSampler::new();
    if let Some(job) = watch {
        sampler = sampler.watch_job(JobId(job));
    }
    let sampler = Arc::new(Mutex::new(sampler));
    let writer = Arc::new(Mutex::new(ChromeTraceWriter::new()));
    let opts = RunOptions::default().observe(sampler.clone()).observe(writer.clone());
    let report = run_cell(scenario, &opts)?;

    let writer = writer.lock().expect("no observer panicked holding the trace writer");
    let sampler = sampler.lock().expect("no observer panicked holding the sampler");
    outputs.write(&writer.finish(), || sampler.to_csv(), || sampler.to_json())?;
    eprintln!(
        "[trace] {} record(s), {} dropped at capacity; {} snapshot(s), {} series",
        writer.len(),
        writer.dropped(),
        sampler.times().len(),
        sampler.series().len()
    );
    eprintln!(
        "[trace] {}: {} jobs, {} met deadline, {} rejected, makespan {:.0} us, {} events",
        scenario,
        report.records.len(),
        report.deadlines_met(),
        report.rejected(),
        report.makespan.as_us_f64(),
        report.events,
    );
    Ok(())
}

fn trace_fleet(
    builder: ClusterBuilder,
    jobs: usize,
    sampler: FleetSampler,
    outputs: &Outputs,
) -> Result<(), Box<dyn Error>> {
    let sampler = Arc::new(Mutex::new(sampler));
    let writer = Arc::new(Mutex::new(FleetTraceWriter::new()));
    let builder = builder.workers(jobs).observe(sampler.clone()).observe(writer.clone());
    eprintln!("[trace] {builder} on {jobs} worker thread(s)");
    let t0 = std::time::Instant::now();
    let report = builder.run()?;
    eprintln!(
        "[trace] {builder}: attain {:.4}, p999 {:.1}us, misses [{}] in {:?}",
        report.attainment(),
        report.latency_us.p999(),
        report.misses,
        t0.elapsed()
    );

    let writer = writer.lock().expect("no observer panicked holding the trace writer");
    let sampler = sampler.lock().expect("no observer panicked holding the sampler");
    outputs.write(&writer.finish(), || sampler.to_csv(), || sampler.to_json())?;
    eprintln!(
        "[trace] {} record(s), {} dropped at capacity; {} window(s), {} dropped at capacity",
        writer.len(),
        writer.dropped(),
        sampler.len(),
        sampler.dropped()
    );
    Ok(())
}
