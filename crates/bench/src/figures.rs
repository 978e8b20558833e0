//! Figure and table generation: each function renders one artifact of the
//! paper's evaluation from (cached) experiment runs.
//!
//! Functions that read a [`ResultsDb`] take a `workers` count and warm
//! their whole grid through the parallel sweep engine before rendering, so
//! a figure's cells run concurrently; pass `1` to force serial execution.
//! Cell failures surface as typed [`BenchError`]s, never panics.

use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use sim_core::par::par_map;
use sim_core::stats::geomean;
use sim_core::table::{fmt_f, Table};
use workloads::batching::batched_workload;
use workloads::spec::{milli_to_intensity, ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;
use workloads::table1;

use crate::checkpoint::Checkpoint;
use crate::cli::CliError;
use crate::runner::{ResultsDb, DEFAULT_SEED};
use crate::sweep::{
    device_simulation, run_cell, run_grid, BenchError, RunOptions, Scenario, SharedObserver,
};

/// Schedulers of Figure 6 (CPU-side study), excluding the RR baseline
/// column itself.
pub const FIG6_SCHEDS: &[&str] = &["BAT", "BAY", "PRO", "LAX"];

/// Schedulers of Figure 7 (CP study), excluding RR.
pub const FIG7_SCHEDS: &[&str] = &["MLFQ", "EDF", "SJF", "SRF", "LJF", "PREMA", "LAX"];

/// Schedulers of Figure 8 (laxity variants), normalized to LAX-SW.
pub const FIG8_SCHEDS: &[&str] = &["LAX-SW", "LAX-CPU", "LAX"];

/// All Table 5 schedulers, in the paper's column order.
pub const TABLE5_SCHEDS: &[&str] =
    &["RR", "MLFQ", "BAT", "BAY", "PRO", "LJF", "SJF", "SRF", "PREMA", "EDF", "LAX"];

/// The artifacts `bin/all` regenerates, each written to
/// `results/NAME.txt`, in the order it writes them.
pub const ARTIFACTS: [&str; 9] =
    ["table1", "fig1", "fig7", "fig8", "fig9", "table5", "fig6", "fig10", "fig4"];

/// The artifacts `all` was asked for, in [`ARTIFACTS`] order whatever
/// order they are named in; no names means all of them.
///
/// # Errors
///
/// [`CliError::BadPositionals`] naming each name outside [`ARTIFACTS`].
pub fn select_artifacts(names: &[String]) -> Result<Vec<&'static str>, CliError> {
    let got: Vec<String> =
        names.iter().filter(|n| !ARTIFACTS.contains(&n.as_str())).cloned().collect();
    if !got.is_empty() {
        let want = format!("artifact names among {}", ARTIFACTS.join(" "));
        return Err(CliError::BadPositionals { got, want });
    }
    Ok(ARTIFACTS.into_iter().filter(|a| names.is_empty() || names.iter().any(|n| n == a)).collect())
}

/// Renders the artifact `name`, one of [`ARTIFACTS`] (any other panics),
/// its grid cells cached in `db` and run on `workers` threads.
///
/// # Errors
///
/// Returns [`BenchError`] if any grid cell cannot run.
pub fn artifact(name: &str, db: &mut ResultsDb, workers: usize) -> Result<String, BenchError> {
    Ok(match name {
        "table1" => table1(),
        "fig1" => fig1(),
        "fig4" => fig4(workers),
        "fig6" => fig6(db, workers)?,
        "fig7" => fig7(db, workers)?,
        "fig8" => fig8(db, workers)?,
        "fig9" => fig9(db, workers)?,
        "fig10" => fig10(64, 128, DEFAULT_SEED, workers),
        "table5" => table5(db, workers)?,
        _ => panic!("`{name}` is not one of {ARTIFACTS:?}"),
    })
}

/// Renders Table 1 (kernel characterization, measured vs paper).
pub fn table1() -> String {
    let suite = BenchmarkSuite::calibrated();
    format!(
        "Table 1: kernel characterization (simulated isolation vs paper)\n\n{}",
        table1::render_table1(suite)
    )
}

/// Renders the Figure 1 scatter data (kernels/job vs deadline).
pub fn fig1() -> String {
    let suite = BenchmarkSuite::calibrated();
    let mut t = Table::with_columns(&["benchmark", "kernels/job", "deadline (us)", "category", "high rate (jobs/s)"]);
    for p in table1::fig1_points(suite) {
        t.row(vec![
            p.bench.name().to_string(),
            fmt_f(p.kernels_per_job, 1),
            fmt_f(p.deadline_us, 0),
            if p.bench.is_many_kernel() { "many-kernel" } else { "few-kernel" }.to_string(),
            fmt_f(p.high_rate, 0),
        ]);
    }
    format!("Figure 1: many-kernel vs few-kernel taxonomy\n\n{}", t.render())
}

/// Renders Figure 4: mean response time versus batch size, normalized to
/// batch size 1, per benchmark, for the paper's batch sizes up to 128;
/// benchmark rows run concurrently on `workers` threads.
pub fn fig4(workers: usize) -> String {
    let suite = BenchmarkSuite::calibrated();
    let sizes = [1usize, 8, 32, 128];
    let mut header = vec!["benchmark".to_string()];
    header.extend(sizes.iter().map(|b| format!("B={b}")));
    let mut t = Table::new(header);
    let rows = par_map(&Benchmark::ALL, workers, |&bench| {
        let mut base = None;
        let mut cells = vec![bench.name().to_string()];
        for &b in &sizes {
            let n = b.max(8);
            let w = batched_workload(suite, bench, ArrivalRate::High, n, b, 99);
            let sim = device_simulation(suite, w.jobs.clone(), "RR", FaultPlan::none(), &[]);
            let report = sim.expect("batched jobs run").run();
            let completions: Vec<Option<Cycle>> = report
                .records
                .iter()
                .map(|r| r.fate.completed_at())
                .collect();
            // Unfinished batches (horizon) are charged the horizon itself.
            let mean = w.mean_response_us(&completions, 500_000.0);
            let norm = match base {
                None => {
                    base = Some(mean);
                    1.0
                }
                Some(b0) => mean / b0,
            };
            cells.push(format!("{norm:.1}x"));
        }
        cells
    });
    for row in rows {
        t.row(row);
    }
    format!(
        "Figure 4: response time vs batch size (normalized to batch 1, RR)\n\n{}",
        t.render()
    )
}

fn normalized_met_table(
    db: &mut ResultsDb,
    scheds: &[&str],
    baseline: &str,
    rate: ArrivalRate,
) -> Result<String, BenchError> {
    let mut header = vec!["benchmark".to_string(), format!("{baseline} (met)")];
    header.extend(scheds.iter().map(|s| s.to_string()));
    let mut t = Table::new(header);
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); scheds.len()];
    for bench in Benchmark::ALL {
        let base = db.met(baseline, bench, rate)?;
        let mut cells = vec![bench.name().to_string(), base.to_string()];
        for (i, s) in scheds.iter().enumerate() {
            let r = db.met_ratio(s, baseline, bench, rate)?;
            ratios[i].push(r);
            cells.push(format!("{r:.2}x"));
        }
        t.row(cells);
    }
    let mut gm = vec!["GMEAN".to_string(), "-".to_string()];
    for r in &ratios {
        gm.push(format!("{:.2}x", geomean(r)));
    }
    t.row(gm);
    Ok(t.render())
}

/// Renders Figure 6: jobs completed by deadline for CPU-side schedulers
/// plus LAX, normalized to RR, at all three arrival rates.
///
/// # Errors
///
/// Returns [`BenchError`] if any grid cell cannot run.
pub fn fig6(db: &mut ResultsDb, workers: usize) -> Result<String, BenchError> {
    let mut scheds = vec!["RR"];
    scheds.extend_from_slice(FIG6_SCHEDS);
    db.warm(&scheds, &Benchmark::ALL, &ArrivalRate::ALL, workers)?;
    let mut out = String::from("Figure 6: deadline-met jobs, CPU-side schedulers vs RR\n");
    for rate in ArrivalRate::ALL {
        out.push_str(&format!("\n({}) {} job arrival rate\n\n", rate.name(), rate.name()));
        out.push_str(&normalized_met_table(db, FIG6_SCHEDS, "RR", rate)?);
    }
    Ok(out)
}

/// Renders Figure 7: CP-extending schedulers at the high arrival rate,
/// normalized to RR.
///
/// # Errors
///
/// Returns [`BenchError`] if any grid cell cannot run.
pub fn fig7(db: &mut ResultsDb, workers: usize) -> Result<String, BenchError> {
    let mut scheds = vec!["RR"];
    scheds.extend_from_slice(FIG7_SCHEDS);
    db.warm(&scheds, &Benchmark::ALL, &[ArrivalRate::High], workers)?;
    Ok(format!(
        "Figure 7: deadline-met jobs, CP schedulers vs RR (high rate)\n\n{}",
        normalized_met_table(db, FIG7_SCHEDS, "RR", ArrivalRate::High)?
    ))
}

/// Renders Figure 8: the three laxity-aware implementations normalized to
/// LAX-SW, at the high arrival rate.
///
/// # Errors
///
/// Returns [`BenchError`] if any grid cell cannot run.
pub fn fig8(db: &mut ResultsDb, workers: usize) -> Result<String, BenchError> {
    db.warm(FIG8_SCHEDS, &Benchmark::ALL, &[ArrivalRate::High], workers)?;
    Ok(format!(
        "Figure 8: laxity-aware variants vs LAX-SW (high rate)\n\n{}",
        normalized_met_table(db, FIG8_SCHEDS, "LAX-SW", ArrivalRate::High)?
    ))
}

/// Renders Figure 9: percentage of completed WGs belonging to jobs that met
/// their deadline (scheduling effectiveness), high rate.
///
/// # Errors
///
/// Returns [`BenchError`] if any grid cell cannot run.
pub fn fig9(db: &mut ResultsDb, workers: usize) -> Result<String, BenchError> {
    db.warm(TABLE5_SCHEDS, &Benchmark::ALL, &[ArrivalRate::High], workers)?;
    let mut header = vec!["benchmark".to_string()];
    header.extend(TABLE5_SCHEDS.iter().map(|s| s.to_string()));
    let mut t = Table::new(header);
    let mut per_sched: Vec<Vec<f64>> = vec![Vec::new(); TABLE5_SCHEDS.len()];
    for bench in Benchmark::ALL {
        let mut cells = vec![bench.name().to_string()];
        for (i, s) in TABLE5_SCHEDS.iter().enumerate() {
            let f = db.get(s, bench, ArrivalRate::High)?.useful_wg_fraction();
            per_sched[i].push(f.max(1e-6));
            cells.push(format!("{:.0}%", f * 100.0));
        }
        t.row(cells);
    }
    let mut gm = vec!["GMEAN".to_string()];
    for v in &per_sched {
        gm.push(format!("{:.0}%", geomean(v) * 100.0));
    }
    t.row(gm);
    Ok(format!(
        "Figure 9: useful work (WGs in deadline-meeting jobs), high rate\n\n{}",
        t.render()
    ))
}

/// Runs one traced LAX simulation per RNN benchmark (concurrently on
/// `workers` threads) and renders Figure 10: the predicted total execution
/// time and priority of a sample job over its lifetime.
pub fn fig10(sample_job: u32, n_jobs: usize, seed: u64, workers: usize) -> String {
    let suite = BenchmarkSuite::calibrated();
    let mut out = String::from(
        "Figure 10: LAX prediction & priority over time for one sample RNN job\n",
    );
    let benches = [Benchmark::Lstm, Benchmark::Gru, Benchmark::Van, Benchmark::Hybrid];
    let sections = par_map(&benches, workers, |&bench| {
        let jobs = suite.generate_jobs(bench, ArrivalRate::High, n_jobs, seed);
        let sampler = Arc::new(Mutex::new(MetricsSampler::new().watch_job(JobId(sample_job))));
        let observer: SharedObserver = sampler.clone();
        let sim = device_simulation(suite, jobs, "LAX", FaultPlan::none(), &[observer]);
        let report = sim.expect("jobs run").run();
        let rec = &report.records[sample_job as usize];
        let actual_us = rec.latency().map(|l| l.as_us_f64());
        let guard = sampler.lock().expect("sampler lock");
        let mut section = format!(
            "\n({}) job {}: fate {:?}, actual latency {:?} us, deadline {} us\n",
            bench.name(),
            sample_job,
            rec.fate,
            actual_us.map(|v| v.round()),
            bench.deadline().as_us_f64()
        );
        let mut t = Table::with_columns(&["t (us since arrival)", "predicted total (us)", "priority"]);
        let arrival = rec.arrival;
        for (p, q) in guard
            .watched_predicted()
            .points()
            .iter()
            .zip(guard.watched_priority().points())
        {
            t.row(vec![
                fmt_f(p.at.saturating_since(arrival).as_us_f64(), 0),
                fmt_f(p.value, 0),
                if q.value >= lax::laxity::PRIO_INF as f64 {
                    "INF".to_string()
                } else {
                    fmt_f(q.value, 0)
                },
            ]);
        }
        section.push_str(&t.render());
        section
    });
    for section in sections {
        out.push_str(&section);
    }
    out
}

/// Renders Table 5: (a) successful-job throughput, (b) 99th-percentile
/// latency, (c) energy per successful job — all schedulers at the high
/// arrival rate.
///
/// # Errors
///
/// Returns [`BenchError`] if any grid cell cannot run.
pub fn table5(db: &mut ResultsDb, workers: usize) -> Result<String, BenchError> {
    db.warm(TABLE5_SCHEDS, &Benchmark::ALL, &[ArrivalRate::High], workers)?;
    /// How one Table 5 section turns a report into a cell.
    type Metric = fn(&gpu_sim::metrics::SimReport) -> String;
    let mut out = String::from("Table 5: throughput, tail latency, energy (high rate)\n");
    let sections: [(&str, Metric); 3] = [
        ("(a) successful-job throughput (jobs/s)", |r| fmt_f(r.throughput_per_sec(), 0)),
        ("(b) 99-percentile job latency (ms)", |r| fmt_f(r.p99_latency_ms(), 2)),
        ("(c) energy per successful job (mJ)", |r| {
            let e = r.energy_per_success_mj();
            if e.is_finite() { fmt_f(e, 2) } else { "inf".to_string() }
        }),
    ];
    for (title, metric) in sections {
        out.push_str(&format!("\n{title}\n\n"));
        let mut header = vec!["benchmark".to_string()];
        header.extend(TABLE5_SCHEDS.iter().map(|s| s.to_string()));
        let mut t = Table::new(header);
        for bench in Benchmark::ALL {
            let mut cells = vec![bench.name().to_string()];
            for s in TABLE5_SCHEDS {
                let r = db.get(s, bench, ArrivalRate::High)?;
                cells.push(metric(r));
            }
            t.row(cells);
        }
        out.push_str(&t.render());
    }
    Ok(out)
}

/// Grid of the fault-robustness study: schedulers × benchmarks ×
/// fault-plan intensities at the high arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweep {
    /// Schedulers to degrade (registry names).
    pub schedulers: Vec<String>,
    /// Benchmarks to sweep.
    pub benches: Vec<Benchmark>,
    /// Fault intensities in milli-units (`1000` = intensity 1.0), `0`
    /// first (the clean baseline each scheduler's degradation curve is
    /// normalized to).
    pub fault_milli: Vec<u32>,
    /// Jobs per cell.
    pub n_jobs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl FaultSweep {
    /// The published study: LAX against a deadline-blind (RR) and a
    /// deadline-aware (EDF) baseline across the four single-kernel-to-RNN
    /// extremes, at intensities from clean to twice-nominal.
    pub fn full() -> Self {
        FaultSweep {
            schedulers: vec!["RR".into(), "EDF".into(), "LAX".into()],
            benches: vec![Benchmark::Ipv6, Benchmark::Stem, Benchmark::Gmm, Benchmark::Lstm],
            fault_milli: vec![0, 500, 1000, 2000],
            n_jobs: crate::runner::JOBS_PER_RUN,
            seed: crate::runner::DEFAULT_SEED,
        }
    }

    /// A seconds-scale grid for CI smoke runs and the kill-and-resume
    /// check in `tools/tier1.sh`.
    pub fn smoke() -> Self {
        FaultSweep {
            schedulers: vec!["RR".into(), "LAX".into()],
            benches: vec![Benchmark::Ipv6],
            fault_milli: vec![0, 1000],
            n_jobs: 8,
            seed: crate::runner::DEFAULT_SEED,
        }
    }

    /// The cells of this grid in render order: ordinary [`Scenario`]s,
    /// intensity included, so each is keyed by its own string.
    fn cells(&self) -> Vec<Scenario> {
        let mut cells = Vec::new();
        for s in &self.schedulers {
            for &b in &self.benches {
                for &milli in &self.fault_milli {
                    cells.push(
                        Scenario::new(s, b, ArrivalRate::High, self.n_jobs, self.seed)
                            .with_fault_milli(milli),
                    );
                }
            }
        }
        cells
    }
}

/// Renders the fault-robustness study: deadline-met counts and
/// degradation ratios (vs each scheduler's own intensity-0 column) under
/// seeded fault plans, plus per-scheduler geomean degradation curves.
///
/// Every scheduler at one `(benchmark, intensity)` cell faces the
/// identical storm (the plan seeds from [`Scenario::cell_seed`], which
/// excludes the scheduler name), so the comparison is paired. Finished
/// cells stream into `checkpoint` when one is attached; cells already
/// recorded there are not re-run, which is how an interrupted
/// `bin/faults` resumes byte-identically.
///
/// # Errors
///
/// The first failing cell, after all runnable cells finished (and were
/// checkpointed).
pub fn faults(
    sweep: &FaultSweep,
    workers: usize,
    checkpoint: Option<&mut Checkpoint>,
) -> Result<String, BenchError> {
    let run = |s: &Scenario| run_cell(s, &RunOptions::default());
    let reports = run_grid(&sweep.cells(), workers, checkpoint, run, |_, _| {})?;
    let met = |sched: usize, bench: usize, inten: usize| -> usize {
        let idx = (sched * sweep.benches.len() + bench) * sweep.fault_milli.len() + inten;
        reports[idx].deadlines_met()
    };
    // Ratio vs the scheduler's own clean (intensity-0) cell, with the
    // 0-over-0 -> 1.0 convention normalized bar charts use.
    let ratio = |sched: usize, bench: usize, inten: usize| -> f64 {
        let now = met(sched, bench, inten) as f64;
        let clean = met(sched, bench, 0) as f64;
        if clean == 0.0 {
            if now == 0.0 {
                1.0
            } else {
                now
            }
        } else {
            now / clean
        }
    };
    let mut out = format!(
        "Fault robustness: deadline-met degradation under injected faults\n\
         (high arrival rate, {} jobs/cell, seed {}; every scheduler faces the\n\
         identical seeded storm per (benchmark, intensity) cell: compute\n\
         slowdown windows, CU outages, DRAM throttles, arrival bursts)\n",
        sweep.n_jobs, sweep.seed
    );
    for (si, sched) in sweep.schedulers.iter().enumerate() {
        out.push_str(&format!("\n{sched}: deadlines met (fraction of own clean run)\n\n"));
        let mut header = vec!["benchmark".to_string()];
        header.extend(sweep.fault_milli.iter().map(|&m| format!("f={}", milli_to_intensity(m))));
        let mut t = Table::new(header);
        for (bi, bench) in sweep.benches.iter().enumerate() {
            let mut row = vec![bench.name().to_string()];
            for ii in 0..sweep.fault_milli.len() {
                row.push(format!("{} ({})", met(si, bi, ii), fmt_f(ratio(si, bi, ii), 2)));
            }
            t.row(row);
        }
        let mut gm = vec!["GMEAN ratio".to_string()];
        for ii in 0..sweep.fault_milli.len() {
            let ratios: Vec<f64> =
                (0..sweep.benches.len()).map(|bi| ratio(si, bi, ii)).collect();
            gm.push(fmt_f(geomean(&ratios), 2));
        }
        t.row(gm);
        out.push_str(&t.render());
    }
    Ok(out)
}

/// Grid of the DAG-workload study: schedulers × DAG benchmarks × arrival
/// rates, fault-free. The first sweep whose jobs are true dependency
/// graphs (concurrent in-flight stages, remaining-critical-path laxity)
/// rather than linear chains.
#[derive(Debug, Clone, PartialEq)]
pub struct DagSweep {
    /// Schedulers to compare (registry names).
    pub schedulers: Vec<String>,
    /// DAG benchmarks to sweep (see `Benchmark::DAGS`).
    pub benches: Vec<Benchmark>,
    /// Arrival-rate levels.
    pub rates: Vec<ArrivalRate>,
    /// Jobs per cell.
    pub n_jobs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl DagSweep {
    /// The committed study (`results/dag.txt`): a deadline-blind baseline
    /// (RR), the deadline-aware chain baselines (EDF, PREMA) and LAX on
    /// both DAG benchmarks across all three Table 4 rate levels.
    pub fn full() -> Self {
        DagSweep {
            schedulers: vec!["RR".into(), "EDF".into(), "PREMA".into(), "LAX".into()],
            benches: Benchmark::DAGS.to_vec(),
            rates: vec![ArrivalRate::High, ArrivalRate::Medium, ArrivalRate::Low],
            n_jobs: crate::runner::JOBS_PER_RUN,
            seed: crate::runner::DEFAULT_SEED,
        }
    }

    /// A seconds-scale grid for CI smoke runs and the kill-and-resume
    /// check in `tools/tier1.sh`.
    pub fn smoke() -> Self {
        DagSweep {
            schedulers: vec!["RR".into(), "LAX".into()],
            benches: vec![Benchmark::FanOut],
            rates: vec![ArrivalRate::Low],
            n_jobs: 8,
            seed: crate::runner::DEFAULT_SEED,
        }
    }

    /// The cells of this grid in render order (ordinary [`Scenario`]s —
    /// DAG cells are ordinary cells, the job generator just emits graphs).
    fn cells(&self) -> Vec<Scenario> {
        let mut cells = Vec::new();
        for s in &self.schedulers {
            for &b in &self.benches {
                for &r in &self.rates {
                    cells.push(Scenario::new(s, b, r, self.n_jobs, self.seed));
                }
            }
        }
        cells
    }
}

/// Renders the DAG-workload study: deadline-met counts and p99 latency
/// per scheduler on graph-structured jobs, one table per arrival rate.
///
/// Every scheduler at one `(benchmark, rate)` cell sees the identical
/// sampled graph stream (cell seeds exclude the scheduler name), so the
/// columns are paired. Finished cells stream into `checkpoint` when one
/// is attached; recorded cells are not re-run, which is how an
/// interrupted `bin/dag` resumes byte-identically.
///
/// # Errors
///
/// The first failing cell, after all runnable cells finished (and were
/// checkpointed).
pub fn dag(
    sweep: &DagSweep,
    workers: usize,
    checkpoint: Option<&mut Checkpoint>,
) -> Result<String, BenchError> {
    let run = |s: &Scenario| run_cell(s, &RunOptions::default());
    let reports = run_grid(&sweep.cells(), workers, checkpoint, run, |_, _| {})?;
    let cell = |sched: usize, bench: usize, rate: usize| -> &SimReport {
        let idx = (sched * sweep.benches.len() + bench) * sweep.rates.len() + rate;
        &reports[idx]
    };
    let mut out = format!(
        "DAG workloads: deadline-met counts on graph-structured jobs\n\
         ({} jobs/cell, seed {}; FANOUT = STEM scatter into 2-4 parallel\n\
         CUCKOO lookups joining into STEM, IPA = Sirius GMM scoring feeding\n\
         parallel STEM stages; laxity uses the remaining critical path)\n",
        sweep.n_jobs, sweep.seed
    );
    for (ri, rate) in sweep.rates.iter().enumerate() {
        out.push_str(&format!("\nrate {rate}: met/{} (p99 ms)\n\n", sweep.n_jobs));
        let mut header = vec!["benchmark".to_string()];
        header.extend(sweep.schedulers.iter().cloned());
        let mut t = Table::new(header);
        for (bi, bench) in sweep.benches.iter().enumerate() {
            let mut row = vec![bench.name().to_string()];
            for si in 0..sweep.schedulers.len() {
                let r = cell(si, bi, ri);
                row.push(format!("{} ({})", r.deadlines_met(), fmt_f(r.p99_latency_ms(), 2)));
            }
            t.row(row);
        }
        out.push_str(&t.render());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_and_table1_render() {
        assert!(table1().contains("gemm_h128"));
        assert!(fig1().contains("many-kernel"));
    }

    #[test]
    fn faults_smoke_is_worker_independent_and_resumes_bit_identically() {
        let grid = FaultSweep::smoke();
        let serial = faults(&grid, 1, None).unwrap();
        let parallel = faults(&grid, 4, None).unwrap();
        assert_eq!(serial, parallel, "artifact must not depend on worker count");
        assert!(serial.contains("GMEAN ratio"));

        // Interrupted-run simulation: a checkpoint holding only part of the
        // grid must complete to the identical artifact.
        let path = std::env::temp_dir().join(format!("lax-faults-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut ck = Checkpoint::open(&path);
        let full = faults(&grid, 2, Some(&mut ck)).unwrap();
        assert_eq!(full, serial);
        let partial_cells: Vec<(String, SimReport)> = ck
            .cells()
            .take(2)
            .map(|(k, r)| (k.to_string(), r.clone()))
            .collect();
        std::fs::remove_file(&path).unwrap();
        let mut partial = Checkpoint::open(&path);
        for (k, r) in partial_cells {
            partial.record(&k, r).unwrap();
        }
        let resumed = faults(&grid, 2, Some(&mut partial)).unwrap();
        assert_eq!(resumed, serial, "resume from a partial checkpoint must be byte-identical");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs 64 small simulations; use --release")]
    fn fig7_smoke_on_tiny_runs() {
        let mut db = ResultsDb::with_jobs(6, 3);
        let s = fig7(&mut db, 4).unwrap();
        assert!(s.contains("GMEAN"));
        assert!(s.contains("LAX"));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs 64 small simulations; use --release")]
    fn fig7_is_identical_serial_and_parallel() {
        let mut serial = ResultsDb::with_jobs(6, 3);
        let mut parallel = ResultsDb::with_jobs(6, 3);
        let a = fig7(&mut serial, 1).unwrap();
        let b = fig7(&mut parallel, 8).unwrap();
        assert_eq!(a, b, "rendered figure must not depend on worker count");
    }
}
