//! Fleet-scale cluster study: per-policy deadline/SLO attainment with
//! streaming p99/p999 latency tails, written to `results/cluster.txt`.
//!
//! ```text
//! cargo run --release -p lax-bench --bin cluster -- \
//!     [SCENARIO ...] [--smoke] [--jobs N] [--resume] [--out PATH] \
//!     [--ckpt PATH] [--fidelity fast|detailed] [--scheduler NAME] \
//!     [--slots N] [--jitter F] [--devices N] [--njobs N] [--seed N] \
//!     [--bench NAME] [--rate NAME] [--policies CSV] \
//!     [--scenario-file PATH]
//! ```
//!
//! `--scenario-file` replaces the grid flags with a declarative scenario
//! file (see `workloads::scenario`); the file must carry a `fleet` key.
//!
//! Positional `SCENARIO`s are cluster-scenario strings
//! (`POLICY:BENCH:RATE:dD:jN:sSEED`). Without positionals the grid is the
//! four routing policies on one workload cell — by default the paper-scale
//! fleet run: 16 devices, one million HYBRID jobs at the high rate. The
//! grid flags (`--devices` through `--policies`) only shape that default
//! grid: giving one alongside positional cells is an error.
//! Per-device seeds hash from the workload cell, never the policy, so the
//! output is bit-identical for any `--jobs N`.
//!
//! Finished cells stream into the checkpoint when `--ckpt` is given;
//! rerunning with `--resume` keeps them and the final artifact is
//! byte-identical to an uninterrupted run. On success the checkpoint is
//! removed.

use std::error::Error;
use std::path::PathBuf;

use lax_bench::checkpoint::FleetCheckpoint;
use lax_bench::cluster::{cluster_table, ClusterBuilder, ClusterScenario};
use lax_bench::scenario_file::{read_scenario_file, write_scenario_report};
use lax_bench::sweep::{self, take_flag, take_value, write_output};
use workloads::spec::{ArrivalRate, Benchmark};

fn main() -> Result<(), Box<dyn Error>> {
    let (jobs, mut rest) = sweep::jobs_from_cli(std::env::args().skip(1));
    if let Some(path) = take_value(&mut rest, "--scenario-file").map(PathBuf::from) {
        let out = PathBuf::from(
            take_value(&mut rest, "--out").unwrap_or_else(|| "results/cluster.txt".to_string()),
        );
        if let Some(unknown) = rest.first() {
            return Err(format!("unknown argument `{unknown}` with --scenario-file").into());
        }
        let file = read_scenario_file(&path)?;
        if file.fleet.is_none() {
            return Err(format!(
                "{}: the cluster binary needs a `fleet` key (use bin/dag for single-device files)",
                path.display()
            )
            .into());
        }
        return write_scenario_report("cluster", &file, &out, jobs);
    }
    let smoke = take_flag(&mut rest, "--smoke");
    let resume = take_flag(&mut rest, "--resume");
    let out = PathBuf::from(
        take_value(&mut rest, "--out").unwrap_or_else(|| "results/cluster.txt".to_string()),
    );
    let ckpt_path = take_value(&mut rest, "--ckpt").map(PathBuf::from);
    let fidelity = take_value(&mut rest, "--fidelity")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or_default();
    let scheduler = take_value(&mut rest, "--scheduler");
    let slots = take_value(&mut rest, "--slots").map(|v| v.parse::<usize>()).transpose()?;
    let jitter = take_value(&mut rest, "--jitter").map(|v| v.parse::<f64>()).transpose()?;
    // Grid flags shape the default grid only; positional cells carry their
    // own values, so giving both is an error that names the flag.
    let mut grid_flags = Vec::new();
    let mut grid_value = |rest: &mut Vec<String>, flag: &'static str| {
        let value = take_value(rest, flag);
        if value.is_some() {
            grid_flags.push(flag);
        }
        value
    };
    let devices = grid_value(&mut rest, "--devices")
        .map(|v| v.parse::<usize>())
        .transpose()?
        .unwrap_or(if smoke { 4 } else { 16 });
    let n_jobs = grid_value(&mut rest, "--njobs")
        .map(|v| v.parse::<usize>())
        .transpose()?
        .unwrap_or(if smoke { 4000 } else { 1_000_000 });
    let seed = grid_value(&mut rest, "--seed")
        .map(|v| v.parse::<u64>())
        .transpose()?
        .unwrap_or(20210301);
    let bench: Benchmark = grid_value(&mut rest, "--bench")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(Benchmark::Hybrid);
    let rate: ArrivalRate = grid_value(&mut rest, "--rate")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(ArrivalRate::High);
    let policies: Vec<String> = grid_value(&mut rest, "--policies")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            schedulers::routing::names().iter().map(|s| s.to_string()).collect()
        });
    let mut scenarios = Vec::new();
    for arg in &rest {
        if arg.starts_with('-') {
            return Err(format!("unknown argument `{arg}`").into());
        }
        scenarios.push(arg.parse::<ClusterScenario>()?);
    }
    if let Some(flag) = grid_flags.first().filter(|_| !scenarios.is_empty()) {
        return Err(format!("`{flag}` only shapes the default grid, not positional cells").into());
    }
    if scenarios.is_empty() {
        for policy in &policies {
            scenarios.push(ClusterScenario::new(policy, bench, rate, devices, n_jobs, seed));
        }
    }

    let mut checkpoint = ckpt_path.map(|p| FleetCheckpoint::for_run(p, resume, "cluster"));
    eprintln!(
        "[cluster] {fidelity} fidelity, {} cell(s), {} job(s) on {jobs} worker thread(s)",
        scenarios.len(),
        scenarios.iter().map(|s| s.n_jobs as u64).sum::<u64>()
    );
    let t0 = std::time::Instant::now();
    let mut reports = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let key = scenario.to_string();
        if let Some(report) = checkpoint.as_ref().and_then(|c| c.get(&key)) {
            eprintln!("[cluster] {key}: restored from checkpoint");
            reports.push(report.clone());
            continue;
        }
        let cell_t0 = std::time::Instant::now();
        let mut builder = ClusterBuilder::new(scenario.clone()).fidelity(fidelity).workers(jobs);
        if let Some(s) = &scheduler {
            builder = builder.device_scheduler(s);
        }
        if let Some(s) = slots {
            builder = builder.slots(s);
        }
        if let Some(j) = jitter {
            builder = builder.jitter(j);
        }
        let report = builder.run()?;
        eprintln!(
            "[cluster] {key}: attain {:.4}, p999 {:.1}us in {:?}",
            report.attainment(),
            report.latency_us.p999(),
            cell_t0.elapsed()
        );
        if let Some(ckpt) = checkpoint.as_mut() {
            ckpt.record(&key, report.clone())?;
        }
        reports.push(report);
    }

    let mut text = String::new();
    text.push_str("# Cluster SLO attainment: routing/admission policies over a device fleet\n");
    text.push_str("# (deadline-aware least-laxity LL generalizes the paper's CP admission\n");
    text.push_str("#  test to the cluster front door; attain counts rejected jobs as misses)\n");
    text.push_str(&format!("# fidelity: {fidelity}\n"));
    text.push_str(&cluster_table(&reports).render());
    write_output(&out, &text)?;
    if let Some(ckpt) = checkpoint.as_ref() {
        ckpt.discard_file()?;
    }
    eprintln!("[cluster] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
