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
//! fleet run: 16 devices, one million HYBRID jobs at the high rate.
//! Per-device seeds hash from the workload cell, never the policy, so the
//! output is bit-identical for any `--jobs N`.
//!
//! Finished cells stream into the checkpoint when `--ckpt` is given;
//! rerunning with `--resume` keeps them and the final artifact is
//! byte-identical to an uninterrupted run. On success the checkpoint is
//! removed.
//!
//! Per-cell wall-clock profiles of executed (not restored) cells are
//! merged into `BENCH_cluster.json` next to `--out` and a slowest-cells
//! table is upserted into `SUMMARY.txt` there.

use std::error::Error;
use std::fs;
use std::path::PathBuf;

use lax_bench::checkpoint::FleetCheckpoint;
use lax_bench::cluster::{cluster_table, ClusterBuilder, ClusterScenario};
use lax_bench::profile::FleetProfile;
use lax_bench::sweep;
use workloads::spec::{ArrivalRate, Benchmark};

fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("warning: {flag} is missing its value");
        args.remove(pos);
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

fn main() -> Result<(), Box<dyn Error>> {
    let (jobs, mut rest) = sweep::jobs_from_cli(std::env::args().skip(1));
    if let Some(path) = take_value(&mut rest, "--scenario-file").map(PathBuf::from) {
        let out = PathBuf::from(
            take_value(&mut rest, "--out").unwrap_or_else(|| "results/cluster.txt".to_string()),
        );
        if let Some(unknown) = rest.first() {
            return Err(format!("unknown argument `{unknown}` with --scenario-file").into());
        }
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let file: workloads::scenario::ScenarioFile =
            source.parse().map_err(|e| format!("{}: {e}", path.display()))?;
        if file.fleet.is_none() {
            return Err(format!(
                "{}: the cluster binary needs a `fleet` key (use bin/dag for single-device files)",
                path.display()
            )
            .into());
        }
        eprintln!(
            "[cluster] scenario {}: {} cell(s) x {} job(s) on {jobs} worker thread(s)",
            file.name,
            file.schedulers.len() * file.rates.len(),
            file.n_jobs
        );
        let t0 = std::time::Instant::now();
        let text = lax_bench::scenario_file::run_scenario_file(&file, jobs)?;
        if let Some(dir) = out.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        fs::write(&out, &text)?;
        eprintln!("[cluster] wrote {} in {:?}", out.display(), t0.elapsed());
        return Ok(());
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
    let devices = take_value(&mut rest, "--devices")
        .map(|v| v.parse::<usize>())
        .transpose()?
        .unwrap_or(if smoke { 4 } else { 16 });
    let n_jobs = take_value(&mut rest, "--njobs")
        .map(|v| v.parse::<usize>())
        .transpose()?
        .unwrap_or(if smoke { 4000 } else { 1_000_000 });
    let seed = take_value(&mut rest, "--seed")
        .map(|v| v.parse::<u64>())
        .transpose()?
        .unwrap_or(20210301);
    let bench: Benchmark = take_value(&mut rest, "--bench")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(Benchmark::Hybrid);
    let rate: ArrivalRate = take_value(&mut rest, "--rate")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(ArrivalRate::High);
    let policies: Vec<String> = take_value(&mut rest, "--policies")
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
    if scenarios.is_empty() {
        for policy in &policies {
            scenarios.push(ClusterScenario::new(policy, bench, rate, devices, n_jobs, seed));
        }
    }

    let mut checkpoint = ckpt_path.map(|p| FleetCheckpoint::for_run(p, resume, "cluster"));
    eprintln!(
        "[cluster] {} fidelity, {} cell(s) x {n_jobs} job(s) on {jobs} worker thread(s)",
        fidelity,
        scenarios.len()
    );
    let t0 = std::time::Instant::now();
    let mut profile = FleetProfile::new("cluster");
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
        profile.record(&key, report.total, report.events, cell_t0.elapsed());
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
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    fs::write(&out, &text)?;
    let results_dir = out.parent().filter(|d| !d.as_os_str().is_empty());
    profile.write_artifacts(results_dir.unwrap_or_else(|| std::path::Path::new(".")), 10)?;
    if let Some(ckpt) = checkpoint.as_ref() {
        ckpt.discard_file()?;
    }
    eprintln!("[cluster] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
