//! Fleet robustness study: SLO attainment under injected failure domains
//! (device crashes, correlated outages, drains, stragglers) swept over
//! failure intensity × routing policy × arrival rate, written to
//! `results/chaos.txt`.
//!
//! ```text
//! cargo run --release -p lax-bench --bin chaos -- \
//!     [SCENARIO ...] [--smoke] [--jobs N] [--resume] [--out PATH] \
//!     [--ckpt PATH] [--fidelity fast|detailed] [--scheduler NAME] \
//!     [--slots N] [--jitter F] [--devices N] [--njobs N] [--seed N] \
//!     [--bench NAME] [--rate NAME] [--policies CSV] \
//!     [--intensities CSV] [--retry-budget N] [--backoff-us N] [--shed]
//! ```
//!
//! Positional `SCENARIO`s are cluster-scenario strings with an optional
//! fault-intensity suffix (`POLICY:BENCH:RATE:dD:jN:sSEED[:fI]`). Without
//! positionals the grid is every routing policy × arrival rate × failure
//! intensity on one workload cell; the grid flags (`--devices` through
//! `--intensities`) only shape that default grid, and giving one alongside
//! positional cells is an error. Fault plans derive from the workload
//! cell and intensity — never the policy — so every policy faces the
//! identical fault schedule and the comparison is paired; arrival streams
//! are also paired *across* intensities, isolating the faults' effect.
//! Output is bit-identical for any `--jobs N`.
//!
//! Finished cells stream into the checkpoint when `--ckpt` is given;
//! rerunning with `--resume` keeps them and the final artifact is
//! byte-identical to an uninterrupted run. On success the checkpoint is
//! removed.

use std::error::Error;
use std::path::PathBuf;

use lax_bench::checkpoint::FleetCheckpoint;
use lax_bench::cluster::{chaos_table, ClusterBuilder, ClusterScenario};
use lax_bench::sweep::{self, take_flag, take_value, write_output};
use sim_core::time::Duration;
use workloads::spec::{intensity_to_milli, ArrivalRate, Benchmark};

fn main() -> Result<(), Box<dyn Error>> {
    let (jobs, mut rest) = sweep::jobs_from_cli(std::env::args().skip(1));
    let smoke = take_flag(&mut rest, "--smoke");
    let resume = take_flag(&mut rest, "--resume");
    let shed = take_flag(&mut rest, "--shed");
    let out = PathBuf::from(
        take_value(&mut rest, "--out").unwrap_or_else(|| "results/chaos.txt".to_string()),
    );
    let ckpt_path = take_value(&mut rest, "--ckpt").map(PathBuf::from);
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
        .unwrap_or(if smoke { 4 } else { 8 });
    let n_jobs = grid_value(&mut rest, "--njobs")
        .map(|v| v.parse::<usize>())
        .transpose()?
        .unwrap_or(if smoke { 2000 } else { 200_000 });
    let seed = grid_value(&mut rest, "--seed")
        .map(|v| v.parse::<u64>())
        .transpose()?
        .unwrap_or(20210301);
    let bench: Benchmark = grid_value(&mut rest, "--bench")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(Benchmark::Hybrid);
    let rates: Vec<ArrivalRate> = match grid_value(&mut rest, "--rate") {
        Some(v) => vec![v.parse()?],
        None if smoke => vec![ArrivalRate::High],
        None => vec![ArrivalRate::High, ArrivalRate::Medium, ArrivalRate::Low],
    };
    let policies: Vec<String> = grid_value(&mut rest, "--policies")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            schedulers::routing::names().iter().map(|s| s.to_string()).collect()
        });
    let intensities: Vec<u32> = match grid_value(&mut rest, "--intensities") {
        Some(v) => v
            .split(',')
            .map(|i| i.parse().ok().and_then(intensity_to_milli).ok_or(i))
            .collect::<Result<_, _>>()
            .map_err(|i| format!("bad fault intensity `{i}` (want >= 0 in whole thousandths)"))?,
        None if smoke => vec![0, 1000],
        None => vec![0, 1000, 2000],
    };
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
        // Intensity outermost, then rate, then policy: rows group by fault
        // level so the attainment cliff reads top to bottom.
        for &milli in &intensities {
            for &rate in &rates {
                for policy in &policies {
                    scenarios.push(
                        ClusterScenario::new(policy, bench, rate, devices, n_jobs, seed)
                            .with_fault_milli(milli),
                    );
                }
            }
        }
    }

    let mut checkpoint = ckpt_path.map(|p| FleetCheckpoint::for_run(p, resume, "chaos"));
    eprintln!(
        "[chaos] {fidelity} fidelity, {} cell(s), {} job(s) on {jobs} worker thread(s)",
        scenarios.len(),
        scenarios.iter().map(|s| s.n_jobs as u64).sum::<u64>()
    );
    let t0 = std::time::Instant::now();
    let mut reports = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let key = scenario.to_string();
        if let Some(report) = checkpoint.as_ref().and_then(|c| c.get(&key)) {
            eprintln!("[chaos] {key}: restored from checkpoint");
            reports.push(report.clone());
            continue;
        }
        let cell_t0 = std::time::Instant::now();
        let mut builder = ClusterBuilder::new(scenario.clone())
            .fidelity(fidelity)
            .workers(jobs)
            .shed_degraded(shed);
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
            "[chaos] {key}: attain {:.4}, lost {}, retried {} in {:?}",
            report.attainment(),
            report.lost,
            report.retried,
            cell_t0.elapsed()
        );
        if let Some(ckpt) = checkpoint.as_mut() {
            ckpt.record(&key, report.clone())?;
        }
        reports.push(report);
    }

    let mut text = String::new();
    text.push_str("# Fleet robustness: SLO attainment under injected failure domains\n");
    text.push_str("# (crashes, correlated outages, drains, stragglers at intensity f;\n");
    text.push_str("#  fault plans derive from the workload cell, never the policy, so\n");
    text.push_str("#  every policy faces the identical fault schedule; lost = crash-\n");
    text.push_str("#  lost past the retry budget, retried = recovered placements)\n");
    text.push_str(&format!("# fidelity: {fidelity}\n"));
    text.push_str(&chaos_table(&reports).render());
    write_output(&out, &text)?;
    if let Some(ckpt) = checkpoint.as_ref() {
        ckpt.discard_file()?;
    }
    eprintln!("[chaos] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
