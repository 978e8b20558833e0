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
//! intensity on one workload cell. Fault plans derive from the workload
//! cell and intensity — never the policy — so every policy faces the
//! identical fault schedule and the comparison is paired; arrival streams
//! are also paired *across* intensities, isolating the faults' effect.
//! Output is bit-identical for any `--jobs N`.
//!
//! Finished cells stream into the checkpoint when `--ckpt` is given;
//! rerunning with `--resume` keeps them and the final artifact is
//! byte-identical to an uninterrupted run. On success the checkpoint is
//! removed.
//!
//! Per-cell wall-clock profiles of executed (not restored) cells are
//! merged into `BENCH_cluster.json` next to `--out` (preserving the
//! `cluster` sweep's cells) and a slowest-cells table is upserted into
//! `SUMMARY.txt` there.

use std::error::Error;
use std::fs;
use std::path::PathBuf;

use lax_bench::checkpoint::FleetCheckpoint;
use lax_bench::cluster::{chaos_table, ClusterBuilder, ClusterScenario};
use lax_bench::profile::FleetProfile;
use lax_bench::sweep;
use sim_core::time::Duration;
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

/// Parses one `--intensities` entry into milli-units (`1.5` → 1500).
fn parse_milli(v: &str) -> Result<u32, Box<dyn Error>> {
    let f: f64 = v.parse()?;
    if !f.is_finite() || f < 0.0 || f * 1000.0 > f64::from(u32::MAX) {
        return Err(format!("bad fault intensity `{v}`").into());
    }
    Ok((f * 1000.0).round() as u32)
}

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
    let devices = take_value(&mut rest, "--devices")
        .map(|v| v.parse::<usize>())
        .transpose()?
        .unwrap_or(if smoke { 4 } else { 8 });
    let n_jobs = take_value(&mut rest, "--njobs")
        .map(|v| v.parse::<usize>())
        .transpose()?
        .unwrap_or(if smoke { 2000 } else { 200_000 });
    let seed = take_value(&mut rest, "--seed")
        .map(|v| v.parse::<u64>())
        .transpose()?
        .unwrap_or(20210301);
    let bench: Benchmark = take_value(&mut rest, "--bench")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(Benchmark::Hybrid);
    let rates: Vec<ArrivalRate> = match take_value(&mut rest, "--rate") {
        Some(v) => vec![v.parse()?],
        None if smoke => vec![ArrivalRate::High],
        None => vec![ArrivalRate::High, ArrivalRate::Medium, ArrivalRate::Low],
    };
    let policies: Vec<String> = take_value(&mut rest, "--policies")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            schedulers::routing::names().iter().map(|s| s.to_string()).collect()
        });
    let intensities: Vec<u32> = match take_value(&mut rest, "--intensities") {
        Some(v) => v.split(',').map(parse_milli).collect::<Result<_, _>>()?,
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
        "[chaos] {} fidelity, {} cell(s) x {n_jobs} job(s) on {jobs} worker thread(s)",
        fidelity,
        scenarios.len()
    );
    let t0 = std::time::Instant::now();
    let mut profile = FleetProfile::new("chaos");
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
        profile.record(&key, report.total, report.events, cell_t0.elapsed());
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
    eprintln!("[chaos] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
