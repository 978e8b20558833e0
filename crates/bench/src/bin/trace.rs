//! Runs one experiment cell with the full observer stack attached and dumps
//! a Chrome trace-event file (Perfetto / `chrome://tracing` loadable) plus
//! the hardware metrics time series.
//!
//! ```text
//! cargo run --release -p lax-bench --bin trace -- SCENARIO \
//!     [--out trace.json] [--csv metrics.csv] [--series-json metrics.json] \
//!     [--watch JOB]
//! ```
//!
//! `SCENARIO`, the one positional argument, is the usual cell string,
//! e.g. `LAX:IPV6:high:j128:s20210301`;
//! a `:fI` suffix (`LAX:IPV6:high:j128:s20210301:f1`) runs it under a
//! seeded fault storm of intensity `I`. The run is bit-identical to the
//! same cell executed without observers (the probe layer never schedules
//! events), so traced reports match sweep artifacts exactly.
//!
//! Outputs:
//!
//! * `--out` (default `trace.json`) — Chrome trace-event JSON: per-CU
//!   workgroup spans, per-queue kernel spans, counter tracks from the 100 us
//!   hardware snapshots. Validated before writing; an invalid document is a
//!   bug and aborts with a diagnostic.
//! * `--csv` (default `metrics.csv`) — wide-format time series (per-CU
//!   occupancy, queue depth, laxity min/median, DRAM bandwidth utilization,
//!   cache hit rates, cumulative energy).
//! * `--series-json` (optional) — the same series as JSON, including the
//!   watched job's prediction/priority trace when `--watch` is given.

use std::error::Error;
use std::fs;
use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use lax_bench::cli::{Cli, CliError};
use lax_bench::sweep::{run_cell, RunOptions, Scenario};
use sim_core::json;

fn main() -> Result<(), Box<dyn Error>> {
    let mut cli = Cli::from_env();
    let out = cli.value("--out")?.unwrap_or_else(|| "trace.json".into());
    let csv = cli.value("--csv")?.unwrap_or_else(|| "metrics.csv".into());
    let series_json = cli.value("--series-json")?;
    let watch: Option<u32> = cli.parse("--watch")?;
    let got = cli.positionals()?;
    let [cell] = got.as_slice() else {
        let want = "one SCENARIO, e.g. LAX:IPV6:high:j128:s20210301 (append :f1 for faults)";
        return Err(CliError::BadPositionals { got, want: want.into() }.into());
    };
    let scenario: Scenario = cell.parse()?;

    let mut sampler = MetricsSampler::new();
    if let Some(job) = watch {
        sampler = sampler.watch_job(JobId(job));
    }
    let sampler = Arc::new(Mutex::new(sampler));
    let writer = Arc::new(Mutex::new(ChromeTraceWriter::new()));
    let opts = RunOptions::default().observe(sampler.clone()).observe(writer.clone());
    let report = run_cell(&scenario, &opts)?;

    let writer = writer.lock().expect("trace writer lock");
    let trace = writer.finish();
    json::validate(&trace)
        .map_err(|e| format!("internal error: emitted trace is not valid JSON: {e}"))?;
    fs::write(&out, &trace)?;
    eprintln!(
        "[trace] wrote {out} ({} record(s){})",
        writer.len(),
        if writer.dropped() > 0 {
            format!(", {} dropped at capacity", writer.dropped())
        } else {
            String::new()
        }
    );

    let sampler = sampler.lock().expect("sampler lock");
    fs::write(&csv, sampler.to_csv())?;
    eprintln!(
        "[trace] wrote {csv} ({} snapshot(s), {} series)",
        sampler.times().len(),
        sampler.series().len()
    );
    if let Some(path) = &series_json {
        let doc = sampler.to_json();
        json::validate(&doc)
            .map_err(|e| format!("internal error: emitted series JSON is invalid: {e}"))?;
        fs::write(path, doc)?;
        eprintln!("[trace] wrote {path}");
    }

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
