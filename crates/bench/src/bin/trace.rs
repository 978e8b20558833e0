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
//! `SCENARIO` is the usual cell string, e.g. `LAX:IPV6:high:j128:s20210301`;
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
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use lax_bench::sweep::{run_cell, RunOptions, Scenario};
use sim_core::json;

struct Args {
    scenario: Scenario,
    out: String,
    csv: String,
    series_json: Option<String>,
    watch: Option<u32>,
}

fn usage() -> String {
    "usage: trace SCENARIO [--out trace.json] [--csv metrics.csv] \
     [--series-json FILE] [--watch JOB]\n\
     SCENARIO example: LAX:IPV6:high:j128:s20210301 (append :f1 for faults)"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut scenario = None;
    let mut out = "trace.json".to_string();
    let mut csv = "metrics.csv".to_string();
    let mut series_json = None;
    let mut watch = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} is missing its value"))
        };
        match arg.as_str() {
            "--out" => out = value_of("--out")?,
            "--csv" => csv = value_of("--csv")?,
            "--series-json" => series_json = Some(value_of("--series-json")?),
            "--watch" => {
                watch = Some(
                    value_of("--watch")?
                        .parse()
                        .map_err(|e| format!("bad --watch job id: {e}"))?,
                );
            }
            "--help" | "-h" => return Err(usage()),
            other if scenario.is_none() => {
                scenario = Some(other.parse::<Scenario>().map_err(|e| e.to_string())?);
            }
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    let scenario = scenario.ok_or_else(usage)?;
    Ok(Args { scenario, out, csv, series_json, watch })
}

fn run(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut sampler = MetricsSampler::new();
    if let Some(job) = args.watch {
        sampler = sampler.watch_job(JobId(job));
    }
    let sampler = Arc::new(Mutex::new(sampler));
    let writer = Arc::new(Mutex::new(ChromeTraceWriter::new()));
    let opts = RunOptions::default().observe(sampler.clone()).observe(writer.clone());
    let report = run_cell(&args.scenario, &opts)?;

    let writer = writer.lock().expect("trace writer lock");
    let trace = writer.finish();
    json::validate(&trace)
        .map_err(|e| format!("internal error: emitted trace is not valid JSON: {e}"))?;
    fs::write(&args.out, &trace)?;
    eprintln!(
        "[trace] wrote {} ({} record(s){})",
        args.out,
        writer.len(),
        if writer.dropped() > 0 {
            format!(", {} dropped at capacity", writer.dropped())
        } else {
            String::new()
        }
    );

    let sampler = sampler.lock().expect("sampler lock");
    fs::write(&args.csv, sampler.to_csv())?;
    eprintln!(
        "[trace] wrote {} ({} snapshot(s), {} series)",
        args.csv,
        sampler.times().len(),
        sampler.series().len()
    );
    if let Some(path) = &args.series_json {
        let doc = sampler.to_json();
        json::validate(&doc)
            .map_err(|e| format!("internal error: emitted series JSON is invalid: {e}"))?;
        fs::write(path, doc)?;
        eprintln!("[trace] wrote {path}");
    }

    eprintln!(
        "[trace] {}: {} jobs, {} met deadline, {} rejected, makespan {:.0} us, {} events",
        args.scenario,
        report.records.len(),
        report.deadlines_met(),
        report.rejected(),
        report.makespan.as_us_f64(),
        report.events,
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
