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
//! * No `fleet` key, inline DAG → the same scheduler × rate grid; each
//!   cell's jobs are the file's DAG on the one job stream
//!   ([`workloads::stream`]), and the rest of the cell is the body
//!   [`run_cell`] runs after job generation.
//! * With `fleet` → one [`ClusterScenario`] per rate (the file's routing
//!   policy and device count), run by [`ClusterBuilder`] at the fast tier,
//!   where devices have no scheduler, so the file names one.
//!
//! # Determinism
//!
//! Cells are seeded from the one cell-seed recipe (workload fields only,
//! never scheduler/policy/worker count) and fanned with
//! [`sim_core::par::par_map`], which returns results in input order — so
//! the rendered report is byte-identical for any `--jobs N`, the same
//! contract the sweep binaries honor.

use std::error::Error;
use std::path::Path;

use gpu_sim::prelude::*;
use workloads::scenario::{ScenarioFile, ScenarioFileError, WorkloadSpec};
use workloads::spec::{milli_to_intensity, ArrivalRate};
use workloads::suite::BenchmarkSuite;

use sim_core::par::par_map;
use sim_core::table::{fmt_f, Table};

use crate::cluster::{cluster_table, ClusterBuilder, ClusterScenario};
use crate::sweep::{run_cell, run_jobs, write_output, BenchError, RunOptions, Scenario};

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
    let grid =
        file.schedulers.iter().flat_map(|s| file.rates.iter().map(move |&rate| (s.clone(), rate)));
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
        "scheduler",
        "rate",
        "jobs",
        "met",
        "rejected",
        "attain",
        "p99_ms",
        "thpt/s",
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
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(source.parse().map_err(|e| format!("{}: {e}", path.display()))?)
}

/// The `--scenario-file` mode of `bin/cluster` and `bin/dag`: runs the
/// file's grid on `workers` threads and writes the report to `out`, or
/// prints it to stdout without `out`, narrating on stderr under `[bin]`.
///
/// # Errors
///
/// The first failing cell, or the write's I/O error.
pub fn write_scenario_report(
    bin: &str,
    file: &ScenarioFile,
    out: Option<&Path>,
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
    match out {
        Some(out) => {
            write_output(out, &text)?;
            eprintln!("[{bin}] wrote {} in {:?}", out.display(), t0.elapsed());
        }
        None => {
            print!("{text}");
            eprintln!("[{bin}] ran in {:?}", t0.elapsed());
        }
    }
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
            stages: vec![workloads::scenario::StageSpec {
                kernel: "stem".into(),
                deadline_us: None,
            }],
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

/// Seeded mutation tests of the JSON surfaces: every document the workspace
/// emits or ships, truncated, bit-flipped and spliced.
///
/// * `validate` and `parse` run one descent, so on every mutant they give
///   the same verdict, down to the error, and neither panics.
/// * `ScenarioFile::parse` meets every mutant of a shipped scenario file
///   with a scenario or a typed `ScenarioFileError`, never a panic.
#[cfg(test)]
mod json_mutants {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::Path;
    use std::sync::{Arc, Mutex};

    use gpu_sim::prelude::*;
    use sim_core::json;
    use sim_core::rng::SimRng;
    use workloads::scenario::ScenarioFile;

    use crate::{run_cell, ClusterBuilder, RunOptions};

    /// Every `examples/scenarios/*.json`, as (name, text).
    fn scenario_files() -> Vec<(String, String)> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("examples/scenarios is readable")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| {
                let text = std::fs::read_to_string(&path).expect("scenario file is UTF-8");
                (path.display().to_string(), text)
            })
            .collect();
        files.sort();
        assert!(files.len() >= 3, "scenario corpus missing: {files:?}");
        files
    }

    /// The documents the observers emit for a small faulty device cell and a
    /// small faulty fleet cell: both traces and both samplers' series JSON.
    fn emitted_documents() -> Vec<String> {
        let sampler = Arc::new(Mutex::new(MetricsSampler::new().watch_job(JobId(1))));
        let writer = Arc::new(Mutex::new(ChromeTraceWriter::new()));
        let opts = RunOptions::default().observe(sampler.clone()).observe(writer.clone());
        run_cell(&"LAX:IPV6:high:j6:s1:f1".parse().unwrap(), &opts).unwrap();

        let fleet_sampler = Arc::new(Mutex::new(FleetSampler::new()));
        let fleet_writer = Arc::new(Mutex::new(FleetTraceWriter::new()));
        ClusterBuilder::new("LL:HYBRID:high:d2:j24:s7:f1".parse().unwrap())
            .observe(fleet_sampler.clone())
            .observe(fleet_writer.clone())
            .run()
            .unwrap();

        let docs = vec![
            writer.lock().unwrap().finish(),
            sampler.lock().unwrap().to_json(),
            fleet_writer.lock().unwrap().finish(),
            fleet_sampler.lock().unwrap().to_json(),
        ];
        for doc in &docs {
            json::validate(doc).expect("emitted documents are valid");
        }
        docs
    }

    /// One seeded mutation: truncate, flip one bit, or splice a short slice of
    /// a donor document over a short slice of this one.
    fn mutate(text: &str, corpus: &[String], rng: &mut SimRng) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let pick = |rng: &mut SimRng, n: usize| rng.below(n as u64 + 1) as usize;
        match rng.below(3) {
            0 => bytes.truncate(pick(rng, bytes.len())),
            1 if !bytes.is_empty() => {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            _ => {
                let donor = corpus[rng.below(corpus.len() as u64) as usize].as_bytes();
                let from = pick(rng, donor.len());
                let graft = &donor[from..(from + pick(rng, 24)).min(donor.len())];
                let at = pick(rng, bytes.len());
                let end = (at + pick(rng, 24)).min(bytes.len());
                bytes.splice(at..end, graft.iter().copied());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn validate_and_parse_agree_on_every_mutant() {
        let mut corpus = emitted_documents();
        corpus.extend(scenario_files().into_iter().map(|(_, text)| text));
        let mut rng = SimRng::seed_from(0x150f);
        let mut accepted = 0;
        for round in 0..3000 {
            let mut doc = corpus[round % corpus.len()].clone();
            for _ in 0..=round % 3 {
                doc = mutate(&doc, &corpus, &mut rng);
            }
            let verdicts = catch_unwind(|| (json::validate(&doc), json::parse(&doc).map(drop)));
            let (validated, parsed) = verdicts.unwrap_or_else(|_| panic!("panicked on {doc:?}"));
            assert_eq!(validated, parsed, "validate and parse disagree on {doc:?}");
            accepted += usize::from(validated.is_ok());
        }
        // Mutants on both sides of the grammar, or the agreement checks little.
        assert!((100..2900).contains(&accepted), "{accepted} of 3000 mutants accepted");
    }

    #[test]
    fn scenario_file_mutants_fail_typed() {
        let files = scenario_files();
        let corpus: Vec<String> = files.iter().map(|(_, text)| text.clone()).collect();
        let mut rng = SimRng::seed_from(0x5ce7);
        let mut rejected = 0;
        for round in 0..1500 {
            let (name, text) = &files[round % files.len()];
            let mut doc = text.clone();
            for _ in 0..=round % 3 {
                doc = mutate(&doc, &corpus, &mut rng);
            }
            let parsed = catch_unwind(AssertUnwindSafe(|| ScenarioFile::parse(&doc)));
            match parsed.unwrap_or_else(|_| panic!("{name}: panicked on {doc:?}")) {
                Ok(_) => {}
                Err(e) => {
                    assert!(!e.to_string().is_empty(), "{name}: an error must say what is wrong");
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 1000, "only {rejected} of 1500 mutants rejected");
    }
}
