//! Execute declarative scenario files ([`workloads::scenario`]).
//!
//! A scenario file describes an experiment grid as data — workload (named
//! benchmark or inline DAG), schedulers, arrival rates, fault intensity,
//! and optionally a fleet topology. This module expands one parsed
//! [`ScenarioFile`] into ordinary cells ([`file_cells`]) — the same cells
//! the sweep and cluster strings name — runs them, and renders the results
//! as the house-style ASCII table the other binaries emit:
//!
//! * No `fleet` key, named benchmark → one [`Scenario`] per scheduler ×
//!   rate, carrying the file's fault intensity, run by [`run_cell`].
//! * No `fleet` key, inline DAG → the same scheduler × rate grid; the
//!   file generates each cell's jobs, and the rest of the cell is the body
//!   [`run_cell`] runs after job generation.
//! * With `fleet` → one [`ClusterScenario`] per rate (the file's routing
//!   policy and device count), run by [`ClusterBuilder`] at the fast tier,
//!   where devices have no scheduler, so the file names one.
//!
//! # Determinism
//!
//! Cells are seeded from the one cell-seed recipe (workload fields only,
//! never scheduler/policy/worker count) and fanned with
//! [`crate::sweep::par_map`], which returns results in input order — so
//! the rendered report is byte-identical for any `--jobs N`, the same
//! contract the sweep binaries honor.

use std::error::Error;
use std::path::Path;

use gpu_sim::prelude::*;
use workloads::scenario::{ScenarioFile, ScenarioFileError, WorkloadSpec};
use workloads::spec::{milli_to_intensity, ArrivalRate};
use workloads::suite::BenchmarkSuite;

use sim_core::table::{fmt_f, Table};

use crate::cluster::{cluster_table, ClusterBuilder, ClusterScenario};
use crate::sweep::{par_map, run_cell, run_jobs, write_output, BenchError, RunOptions, Scenario};

/// The cells a scenario file expands into, schedulers outer and rates
/// inner (the row order of the rendered table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileCells {
    /// A named workload on one device: ordinary sweep cells.
    Device(Vec<Scenario>),
    /// An inline DAG on one device: scheduler × rate, with jobs from the
    /// file's own workload and rate table.
    Inline(Vec<(String, ArrivalRate)>),
    /// A fleet: one ordinary cluster cell per rate (a fleet file names one
    /// scheduler, which its fast-tier devices do not use).
    Fleet(Vec<ClusterScenario>),
}

/// Expands a scenario file into its cells.
///
/// # Errors
///
/// [`BenchError::Scenario`] when a file with a `fleet` key names an inline
/// DAG (the cluster's symbolic fast tier needs a named benchmark) or more
/// than one scheduler (its cells would run identically).
pub fn file_cells(file: &ScenarioFile) -> Result<FileCells, BenchError> {
    let grid = file
        .schedulers
        .iter()
        .flat_map(|s| file.rates.iter().map(move |&rate| (s.clone(), rate)));
    Ok(match (&file.workload, &file.fleet) {
        (WorkloadSpec::Named(bench), None) => FileCells::Device(
            grid.map(|(s, rate)| {
                Scenario::new(&s, *bench, rate, file.n_jobs, file.seed)
                    .with_fault_milli(file.fault_milli)
            })
            .collect(),
        ),
        (WorkloadSpec::Inline(_), None) => FileCells::Inline(grid.collect()),
        (WorkloadSpec::Named(_), Some(_)) if file.schedulers.len() > 1 => {
            return Err(ScenarioFileError::Value {
                key: "schedulers".into(),
                why: "a fleet file names one: its fast-tier devices have no scheduler".into(),
            }
            .into())
        }
        (WorkloadSpec::Named(bench), Some(fleet)) => FileCells::Fleet(
            grid.map(|(_, rate)| {
                let (policy, devices, n_jobs) = (&fleet.policy, fleet.devices, file.n_jobs);
                let cell = ClusterScenario::new(policy, *bench, rate, devices, n_jobs, file.seed);
                cell.with_fault_milli(file.fault_milli)
            })
            .collect(),
        ),
        (WorkloadSpec::Inline(_), Some(_)) => {
            return Err(ScenarioFileError::Value {
                key: "fleet".into(),
                why: "fleet topology requires a named benchmark workload, not an inline DAG".into(),
            }
            .into())
        }
    })
}

/// Runs one inline-DAG cell: the file's job stream at `rate`, then the
/// same fault plan, bursts and simulation as [`run_cell`].
fn run_inline_cell(
    file: &ScenarioFile,
    scheduler: &str,
    rate: ArrivalRate,
) -> Result<SimReport, BenchError> {
    let suite = BenchmarkSuite::calibrated();
    let jobs = file.generate_jobs(suite, rate)?;
    let intensity = milli_to_intensity(file.fault_milli);
    run_jobs(suite, jobs, scheduler, file.cell_seed(rate), intensity, &[])
}

/// Runs a scenario file's whole grid on `workers` threads and renders the
/// report text the `--scenario-file` binaries write.
///
/// # Errors
///
/// The first cell failure aborts the run — a scenario file is one
/// experiment, not a sweep where partial grids are useful.
pub fn run_scenario_file(file: &ScenarioFile, workers: usize) -> Result<String, BenchError> {
    let mut text = format!(
        "# scenario: {}\n# seed {}, {} job(s)/cell, fault intensity {}\n",
        file.name,
        file.seed,
        file.n_jobs,
        milli_to_intensity(file.fault_milli)
    );
    let (rows, results) = match file_cells(file)? {
        FileCells::Fleet(cells) => {
            let mut reports = Vec::with_capacity(cells.len());
            for cell in cells {
                reports.push(ClusterBuilder::new(cell).workers(workers).run()?);
            }
            text.push_str(&cluster_table(&reports).render());
            return Ok(text);
        }
        FileCells::Device(cells) => {
            let results = par_map(&cells, workers, |s| run_cell(s, &RunOptions::default()));
            (cells.into_iter().map(|s| (s.scheduler, s.rate)).collect(), results)
        }
        FileCells::Inline(cells) => {
            let results = par_map(&cells, workers, |(s, rate)| run_inline_cell(file, s, *rate));
            (cells, results)
        }
    };
    let mut table = Table::with_columns(&[
        "scheduler", "rate", "jobs", "met", "rejected", "attain", "p99_ms", "thpt/s",
    ]);
    for ((scheduler, rate), result) in rows.into_iter().zip(results) {
        let r = result?;
        let n = r.records.len();
        table.row(vec![
            scheduler,
            rate.to_string(),
            n.to_string(),
            r.deadlines_met().to_string(),
            r.rejected().to_string(),
            fmt_f(r.deadlines_met() as f64 / n.max(1) as f64, 4),
            fmt_f(r.p99_latency_ms(), 3),
            fmt_f(r.throughput_per_sec(), 1),
        ]);
    }
    text.push_str(&table.render());
    Ok(text)
}

/// Reads and parses the scenario file at `path`, naming the path in any
/// error.
///
/// # Errors
///
/// The read's I/O error or the file's typed [`ScenarioFileError`].
pub fn read_scenario_file(path: &Path) -> Result<ScenarioFile, Box<dyn Error>> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(source.parse().map_err(|e| format!("{}: {e}", path.display()))?)
}

/// The `--scenario-file` mode of `bin/cluster` and `bin/dag`: runs the
/// file's grid on `workers` threads and writes the report to `out`,
/// narrating on stderr under `[bin]`.
///
/// # Errors
///
/// The first failing cell, or the write's I/O error.
pub fn write_scenario_report(
    bin: &str,
    file: &ScenarioFile,
    out: &Path,
    workers: usize,
) -> Result<(), Box<dyn Error>> {
    eprintln!(
        "[{bin}] scenario {}: {} cell(s) x {} job(s) on {workers} worker thread(s)",
        file.name,
        file.schedulers.len() * file.rates.len(),
        file.n_jobs
    );
    let t0 = std::time::Instant::now();
    let text = run_scenario_file(file, workers)?;
    write_output(out, &text)?;
    eprintln!("[{bin}] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::scenario::FleetSpec;
    use workloads::spec::Benchmark;

    fn small_named() -> ScenarioFile {
        ScenarioFile::parse(
            r#"{
                "name": "smoke",
                "seed": 3,
                "jobs": 8,
                "schedulers": ["RR", "LAX"],
                "rates": ["low"],
                "workload": "IPV6",
                "fault_intensity": 1.5
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn file_cells_equal_direct_cells() {
        // The central promise: a file naming a benchmark reproduces the
        // sweep engine's cell bit-for-bit, fault storm included.
        let mut file = small_named();
        let direct =
            Scenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 8, 3).with_fault_milli(1500);
        let FileCells::Device(cells) = file_cells(&file).unwrap() else {
            panic!("a named file without a fleet expands into device cells");
        };
        assert_eq!(cells[0], direct);
        assert_eq!(file.cell_seed(ArrivalRate::Low), direct.cell_seed());
        let via_sweep = run_cell(&direct, &RunOptions::default()).unwrap();
        assert_eq!(run_cell(&cells[0], &RunOptions::default()).unwrap(), via_sweep);
        assert_ne!(
            via_sweep,
            run_cell(&direct.clone().with_fault_milli(0), &RunOptions::default()).unwrap(),
            "the file's intensity reaches the cell"
        );

        // With a fleet key the same file expands into cluster cells.
        file.fleet = Some(FleetSpec { devices: 2, policy: "LL".into() });
        file.schedulers = vec!["LAX".into()];
        file.n_jobs = 200;
        let direct = ClusterScenario::new("LL", Benchmark::Ipv6, ArrivalRate::Low, 2, 200, 3)
            .with_fault_milli(1500);
        let FileCells::Fleet(cells) = file_cells(&file).unwrap() else {
            panic!("a fleet file expands into cluster cells");
        };
        assert_eq!(cells, std::slice::from_ref(&direct));
        let via_file = ClusterBuilder::new(cells[0].clone()).run().unwrap();
        assert_eq!(via_file, ClusterBuilder::new(direct).run().unwrap());
    }

    #[test]
    fn inline_dag_file_runs_end_to_end() {
        let file = ScenarioFile::parse(
            r#"{
                "name": "diamond",
                "seed": 5,
                "jobs": 6,
                "schedulers": ["RR"],
                "rates": ["low"],
                "workload": {
                    "deadline_us": 5000,
                    "rate_jobs_per_sec": { "high": 4000, "medium": 2000, "low": 1000 },
                    "stages": [
                        { "kernel": "stem" },
                        { "kernel": "cuckoo" },
                        { "kernel": "cuckoo" },
                        { "kernel": "stem" }
                    ],
                    "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]
                }
            }"#,
        )
        .unwrap();
        let cells = FileCells::Inline(vec![("RR".into(), ArrivalRate::Low)]);
        assert_eq!(file_cells(&file).unwrap(), cells);
        let report = run_inline_cell(&file, "RR", ArrivalRate::Low).unwrap();
        assert_eq!(report.records.len(), 6);
        assert!(report.completed() > 0);
    }

    #[test]
    fn report_text_is_worker_count_invariant() {
        let file = small_named();
        let serial = run_scenario_file(&file, 1).unwrap();
        let parallel = run_scenario_file(&file, 8).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.contains("scheduler"));
        assert!(serial.contains("LAX"));
        assert!(serial.contains("fault intensity 1.5"));
    }

    #[test]
    fn fleet_with_inline_workload_is_a_typed_error() {
        let inline = WorkloadSpec::Inline(workloads::scenario::DagSpec {
            deadline_us: 100.0,
            rate_jobs_per_sec: [1000.0, 500.0, 100.0],
            stages: vec![workloads::scenario::StageSpec { kernel: "stem".into(), deadline_us: None }],
            edges: vec![],
        });
        // A fleet file fails typed on an inline DAG, and on a second
        // scheduler, whose cells would repeat the first's.
        for (workload, schedulers, bad_key) in [
            (inline, vec!["LAX".to_string()], "fleet"),
            (WorkloadSpec::Named(Benchmark::Ipv6), vec!["LAX".into(), "RR".into()], "schedulers"),
        ] {
            let mut file = small_named();
            file.fleet = Some(FleetSpec { devices: 2, policy: "LL".into() });
            (file.workload, file.schedulers) = (workload, schedulers);
            match file_cells(&file).unwrap_err() {
                BenchError::Scenario(ScenarioFileError::Value { key, .. }) => {
                    assert_eq!(key, bad_key)
                }
                other => panic!("expected a typed scenario error, got {other:?}"),
            }
        }
    }

    #[test]
    fn fleet_file_runs_through_the_cluster() {
        let file = ScenarioFile::parse(
            r#"{
                "name": "mini-fleet",
                "seed": 2,
                "jobs": 200,
                "schedulers": ["LAX"],
                "rates": ["high"],
                "workload": "GMM",
                "fault_intensity": 1.0,
                "fleet": { "devices": 2, "policy": "LL" }
            }"#,
        )
        .unwrap();
        let text = run_scenario_file(&file, 2).unwrap();
        assert!(text.contains("mini-fleet"));
        assert!(text.contains("LL"), "cluster table names the policy: {text}");
    }
}
