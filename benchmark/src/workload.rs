//! The workloads, how one cell of each runs, and the checks on its output.
//!
//! Cells call the library exactly as the sweep and cluster binaries do:
//! `BenchmarkSuite::generate_jobs` seeded by `Scenario::cell_seed`,
//! `registry::try_build`, `SimBuilder::build` and `Simulation::try_run` on
//! a device; `ClusterBuilder::run` on a fleet. Every call is timed from
//! outside into the tracer.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_sim::prelude::*;
use lax_bench::cluster::{
    chaos_table, cluster_table, ClusterBuilder, ClusterReport, ClusterScenario,
};
use lax_bench::sweep::{BenchError, Scenario};
use schedulers::registry;
use sim_core::table::Table;
use workloads::spec::{ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;

use crate::trace::{decorate, DeviceCounts, FleetClock, Pass, Tracer, CALLBACKS};

/// Seed of the committed `results/cluster.txt` and `results/chaos.txt`.
pub const DEFAULT_SEED: u64 = 20210301;

/// Worker threads fleet devices fan out on.
pub const FLEET_WORKERS: usize = 2;

const CLUSTER_TXT: &str = include_str!("../../results/cluster.txt");
const CHAOS_TXT: &str = include_str!("../../results/chaos.txt");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RNN-serving traffic on one device: the only workload where
    /// dispatch, the CP frontend, CP callbacks and host schedulers do real
    /// work beside the engine and memory hot path.
    RnnChains,
    /// Single-kernel jobs on one device, from DRAM-bound random lookups to
    /// L2-resident weights: the engine and memory system dominate.
    LookupKernels,
    /// The fault-free fleet: routing plus fast-tier booking with the
    /// parallel device phase. Never touches the device simulator.
    FleetPlain,
    /// The faulty fleet: the serial time-ordered chaos engine with inline
    /// booking, crash loss and retries.
    FleetChaos,
}

impl Workload {
    /// Every workload, in the order a full run executes them.
    pub const ALL: [Workload; 4] =
        [Workload::RnnChains, Workload::LookupKernels, Workload::FleetPlain, Workload::FleetChaos];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RnnChains => "rnn_chains",
            Workload::LookupKernels => "lookup_kernels",
            Workload::FleetPlain => "fleet_plain",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the fleet workloads.
    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::FleetPlain | Workload::FleetChaos)
    }

    /// The cells of one round. `smoke` shrinks every cell so a debug
    /// build runs the whole set in seconds.
    pub fn cells(self, seed: u64, smoke: bool) -> Vec<Cell> {
        let device = |scheds: &[&str], benches: &[Benchmark], n_jobs: usize| {
            let n_jobs = if smoke { 4 } else { n_jobs };
            let mut cells = Vec::new();
            for &bench in benches {
                for s in scheds {
                    // Each cell draws its own job trace, so a round samples
                    // cells x jobs distinct jobs and the throughput depends
                    // less on what one seed happens to draw.
                    let base = seed.wrapping_add((cells.len() as u64) << 32);
                    cells.push(Cell::Device(Scenario::new(
                        s,
                        bench,
                        ArrivalRate::High,
                        n_jobs,
                        base,
                    )));
                }
            }
            cells
        };
        let fleet = |devices: usize, n_jobs: usize, fault_milli: &[u32]| {
            let (devices, n_jobs) = if smoke { (4, 2000) } else { (devices, n_jobs) };
            let mut cells = Vec::new();
            for &milli in fault_milli {
                for rate in [ArrivalRate::High, ArrivalRate::Medium, ArrivalRate::Low] {
                    for policy in schedulers::routing::names() {
                        let s = ClusterScenario::new(
                            policy,
                            Benchmark::Hybrid,
                            rate,
                            devices,
                            n_jobs,
                            seed,
                        );
                        cells.push(Cell::Fleet(s.with_fault_milli(milli)));
                    }
                }
            }
            cells
        };
        match self {
            Workload::RnnChains => {
                device(&["RR", "PREMA", "LAX", "BAY", "LAX-SW"], &[Benchmark::Hybrid], 24)
            }
            Workload::LookupKernels => device(
                &["RR", "LAX"],
                &[Benchmark::Ipv6, Benchmark::Cuckoo, Benchmark::Stem, Benchmark::Gmm],
                24,
            ),
            Workload::FleetPlain => fleet(16, 1_000_000, &[0]),
            Workload::FleetChaos => fleet(8, 200_000, &[1000, 2000]),
        }
    }

    /// The committed results table this workload's cells reproduce at the
    /// default seed.
    fn committed(self) -> Option<Committed> {
        match self {
            Workload::FleetPlain => {
                Some((CLUSTER_TXT, cluster_table, &["routed", "rejected", "met"]))
            }
            Workload::FleetChaos => Some((
                CHAOS_TXT,
                chaos_table,
                &["rejected", "shed", "lost", "retried", "done", "met"],
            )),
            _ => None,
        }
    }
}

/// A committed results table: its text, how to render a report as a row
/// of it, and the integer columns compared.
type Committed = (&'static str, fn(&[ClusterReport]) -> Table, &'static [&'static str]);

/// One cell of a workload.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A single-device simulation.
    Device(Scenario),
    /// A fast-tier fleet run.
    Fleet(ClusterScenario),
}

impl Cell {
    /// The cell's scenario string.
    pub fn label(&self) -> String {
        match self {
            Cell::Device(s) => s.to_string(),
            Cell::Fleet(s) => s.to_string(),
        }
    }

    /// Jobs the cell offers.
    pub fn offered(&self) -> u64 {
        match self {
            Cell::Device(s) => s.n_jobs as u64,
            Cell::Fleet(s) => s.n_jobs as u64,
        }
    }
}

/// What one run of a cell produced, reduced to what the harness checks.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Hash of the simulated outcome; equal across passes and rounds.
    pub digest: u64,
    /// Jobs that met their deadline.
    pub met: u64,
    /// Simulated time the cell covers: its makespan, in microseconds.
    pub sim_us: f64,
    /// Violated output checks; empty when the cell is correct.
    pub problems: Vec<String>,
}

/// Runs `cell` once in `pass`, recording its spans under index `idx` and
/// `round`, and checks its output. With `committed` set, a fleet cell is
/// also compared with its row in the committed results table.
pub fn run_cell(
    w: Workload,
    cell: &Cell,
    idx: usize,
    round: usize,
    pass: Pass,
    committed: bool,
    tracer: &mut Tracer,
) -> Result<CellOutcome, BenchError> {
    match cell {
        Cell::Device(s) => {
            let report = run_device(s, idx, round, pass, tracer)?;
            Ok(CellOutcome {
                digest: device_digest(&report),
                met: report.deadlines_met() as u64,
                sim_us: report.makespan.as_us_f64(),
                problems: device_problems(&report, s.n_jobs),
            })
        }
        Cell::Fleet(s) => {
            let report = run_fleet(s, idx, round, pass, tracer)?;
            let mut problems = fleet_problems(&report);
            if committed {
                problems.extend(committed_mismatch(w, &report));
            }
            Ok(CellOutcome {
                digest: fleet_digest(&report),
                met: report.met,
                sim_us: report.makespan.as_us_f64(),
                problems,
            })
        }
    }
}

/// One device cell, timed from `generate_jobs` start to `try_run` return.
pub fn run_device(
    s: &Scenario,
    idx: usize,
    round: usize,
    pass: Pass,
    tracer: &mut Tracer,
) -> Result<SimReport, BenchError> {
    let suite = BenchmarkSuite::calibrated();
    let t0 = Instant::now();
    let jobs = suite.generate_jobs(s.bench, s.rate, s.n_jobs, s.cell_seed());
    let t1 = Instant::now();
    let mode = registry::try_build(&s.scheduler)?;
    let t2 = Instant::now();
    let kernels = jobs.iter().map(|j| j.num_kernels()).sum::<usize>();
    let (mode, callbacks) = match pass {
        Pass::Decorated => {
            let (mode, stats) = decorate(mode);
            (mode, Some(stats))
        }
        _ => (mode, None),
    };
    let counts = (pass == Pass::Observed).then(|| Arc::new(Mutex::new(DeviceCounts::default())));
    let mut builder =
        Simulation::builder().offline_rates(suite.offline_rates()).jobs(jobs).scheduler(mode);
    if let Some(c) = &counts {
        builder = builder.observe(Box::new(c.clone()));
    }
    let mut sim = builder.build()?;
    let t3 = Instant::now();
    let report = sim.try_run()?;
    let t4 = Instant::now();

    let root = tracer.record("cell", idx, round, pass, t0, t4, None);
    let gen = tracer.record("BenchmarkSuite::generate_jobs", idx, round, pass, t0, t1, Some(root));
    tracer.span_mut(gen).args.push(("kernels".into(), kernels as f64));
    tracer.record("registry::try_build", idx, round, pass, t1, t2, Some(root));
    tracer.record("SimBuilder::build", idx, round, pass, t2, t3, Some(root));
    let run = tracer.record("Simulation::try_run", idx, round, pass, t3, t4, Some(root));
    let span = tracer.span_mut(run);
    span.args.push(("events".into(), report.events as f64));
    span.args.push(("wgs".into(), report.total_wgs as f64));
    if let Some(stats) = callbacks {
        for (name, stat) in CALLBACKS.iter().zip(stats.borrow().iter()) {
            span.args.push((format!("{name}.calls"), stat.calls as f64));
            span.args.push((format!("{name}.s"), stat.ns as f64 / 1e9));
            span.nested_ns += stat.ns;
        }
    }
    if let Some(c) = counts {
        span.args.extend(c.lock().expect("observer mutex poisoned").args());
    }
    Ok(report)
}

/// One fleet cell, timed around `ClusterBuilder::run`. In the observed
/// pass a [`FleetClock`] splits the call into its four phases.
pub fn run_fleet(
    s: &ClusterScenario,
    idx: usize,
    round: usize,
    pass: Pass,
    tracer: &mut Tracer,
) -> Result<ClusterReport, BenchError> {
    let clock = (pass == Pass::Observed).then(|| Arc::new(Mutex::new(FleetClock::default())));
    let mut builder = ClusterBuilder::new(s.clone()).workers(FLEET_WORKERS);
    if let Some(c) = &clock {
        builder = builder.observe(c.clone());
    }
    let t0 = Instant::now();
    let report = builder.run()?;
    let t1 = Instant::now();

    let root = tracer.record("ClusterBuilder::run", idx, round, pass, t0, t1, None);
    let span = tracer.span_mut(root);
    for (k, v) in [("events", report.events), ("lost", report.lost), ("retried", report.retried)] {
        span.args.push((k.into(), v as f64));
    }
    if let Some(c) = clock {
        let c = c.lock().expect("observer mutex poisoned").clone();
        span.args.push(("routed".into(), c.routed as f64));
        span.args.push(("rejected".into(), c.rejected as f64));
        let first = c.first_verdict.unwrap_or(t0);
        let last = c.last_verdict.unwrap_or(first);
        let outcome = c.first_outcome.unwrap_or(t1).max(last);
        for (name, a, b) in [
            ("cluster.generate", t0, first),
            ("routing.route", first, last),
            ("fleet.devices", last, outcome),
            ("cluster.emit", outcome, t1),
        ] {
            tracer.record(name, idx, round, pass, a, b, Some(root));
        }
    }
    Ok(report)
}

/// Hash of a device cell's simulated outcome: each job's fate and
/// completion cycle, the makespan, the energy bits and the WG count. The
/// event count is left out so engine refactors that re-count events keep
/// the digest.
pub fn device_digest(r: &SimReport) -> u64 {
    let mut h = DefaultHasher::new();
    for rec in &r.records {
        let (kind, at) = match rec.fate {
            JobFate::Completed(t) => (0u8, t.as_cycles()),
            JobFate::Rejected(t) => (1, t.as_cycles()),
            JobFate::Aborted(t) => (2, t.as_cycles()),
            JobFate::Unfinished => (3, 0),
        };
        (kind, at).hash(&mut h);
    }
    r.makespan.as_cycles().hash(&mut h);
    r.energy_mj.to_bits().hash(&mut h);
    r.total_wgs.hash(&mut h);
    h.finish()
}

/// Hash of a fleet cell's report counters and latency quantiles, without
/// the event count.
pub fn fleet_digest(r: &ClusterReport) -> u64 {
    let mut h = DefaultHasher::new();
    (r.total, r.rejected, r.device_rejected, r.completed, r.met, r.lost, r.retried, r.shed)
        .hash(&mut h);
    for cause in MissCause::ALL {
        r.misses.count(cause).hash(&mut h);
    }
    let q = &r.latency_us;
    for v in [q.p50(), q.p99(), q.p999(), q.mean()] {
        v.to_bits().hash(&mut h);
    }
    r.per_device_jobs.hash(&mut h);
    r.makespan.as_cycles().hash(&mut h);
    h.finish()
}

fn device_problems(r: &SimReport, n_jobs: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if r.deadlines_met() > r.completed() {
        problems.push(format!("met {} > completed {}", r.deadlines_met(), r.completed()));
    }
    if r.completed() + r.rejected() > n_jobs {
        problems.push(format!(
            "completed {} + rejected {} > {n_jobs} jobs",
            r.completed(),
            r.rejected()
        ));
    }
    problems
}

fn fleet_problems(r: &ClusterReport) -> Vec<String> {
    let mut problems = Vec::new();
    if r.completed + r.rejected + r.shed + r.lost != r.total {
        problems.push(format!(
            "completed {} + rejected {} + shed {} + lost {} != total {}",
            r.completed, r.rejected, r.shed, r.lost, r.total
        ));
    }
    if r.met > r.total || r.misses.total() != r.total - r.met {
        problems.push(format!("misses {} != total {} - met {}", r.misses.total(), r.total, r.met));
    }
    problems
}

/// Rows of a rendered results table, keyed by column name.
fn table_rows(text: &str) -> Vec<BTreeMap<&str, &str>> {
    let mut lines =
        text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#') && !l.starts_with('-'));
    let Some(header) = lines.next() else {
        return Vec::new();
    };
    let header: Vec<&str> = header.split_whitespace().collect();
    lines.map(|l| header.iter().copied().zip(l.split_whitespace()).collect()).collect()
}

/// Compares a fleet report's integer columns with its committed row.
fn committed_mismatch(w: Workload, report: &ClusterReport) -> Option<String> {
    let (committed, render, columns) = w.committed()?;
    let rendered = render(std::slice::from_ref(report)).render();
    let ours = table_rows(&rendered).into_iter().next()?;
    fn key<'a>(row: &BTreeMap<&str, &'a str>) -> [&'a str; 5] {
        ["cell", "policy", "f", "devices", "jobs"].map(|k| row.get(k).copied().unwrap_or_default())
    }
    let Some(row) = table_rows(committed).into_iter().find(|row| key(row) == key(&ours)) else {
        return Some(format!("no committed row for {}", report.scenario));
    };
    let diffs: Vec<String> = columns
        .iter()
        .filter(|c| row.get(*c) != ours.get(*c))
        .map(|c| format!("{c} {} != committed {}", ours[c], row.get(c).copied().unwrap_or("-")))
        .collect();
    (!diffs.is_empty()).then(|| format!("{}: {}", report.scenario, diffs.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lax_bench::sweep::{run_cell as sweep_run_cell, RunOptions};

    #[test]
    fn device_cells_reproduce_the_sweep_engine_in_every_pass() {
        // One CP scheduler and one host scheduler: the decorator forwards
        // both traits, and neither it nor the observer may change a report.
        // Both cells reject jobs, so a decorator that altered a decision
        // would show.
        for (sched, bench, n_jobs) in [("LAX", Benchmark::Ipv6, 12), ("BAY", Benchmark::Hybrid, 3)]
        {
            let s = Scenario::new(sched, bench, ArrivalRate::High, n_jobs, 7);
            let expected = sweep_run_cell(&s, &RunOptions::default()).expect("sweep cell runs");
            assert!(expected.rejected() > 0, "{sched}: the cell must exercise admission");
            let mut tracer = Tracer::new();
            for pass in [Pass::Plain, Pass::Decorated, Pass::Observed] {
                let got = run_device(&s, 0, 0, pass, &mut tracer).expect("benchmark cell runs");
                assert_eq!(got, expected, "{sched} {pass:?}");
            }
            let calls: f64 = CALLBACKS
                .iter()
                .map(|c| {
                    tracer.counter(Pass::Decorated, "Simulation::try_run", &format!("{c}.calls"))
                })
                .sum();
            assert!(calls > 0.0, "{sched}: the decorator saw no callbacks");
            assert!(tracer.counter(Pass::Observed, "Simulation::try_run", "dispatch.wgs") > 0.0);
        }
    }

    #[test]
    fn fleet_phases_cover_the_observed_run() {
        let s = ClusterScenario::new("LL", Benchmark::Hybrid, ArrivalRate::High, 2, 300, 5);
        let mut tracer = Tracer::new();
        let plain = run_fleet(&s, 0, 0, Pass::Plain, &mut tracer).expect("fleet cell runs");
        let observed = run_fleet(&s, 0, 0, Pass::Observed, &mut tracer).expect("fleet cell runs");
        assert_eq!(plain, observed);
        let root = tracer.spans().iter().rposition(|s| s.name == "ClusterBuilder::run").unwrap();
        assert_eq!(tracer.self_ns(root), 0, "the four phases tile the run");
        let routed = tracer.counter(Pass::Observed, "ClusterBuilder::run", "routed");
        let rejected = tracer.counter(Pass::Observed, "ClusterBuilder::run", "rejected");
        assert_eq!(routed + rejected, 300.0);
        assert!(fleet_problems(&plain).is_empty());
    }

    #[test]
    fn committed_rows_are_found_and_compared() {
        let rows = table_rows(CHAOS_TXT);
        assert_eq!(rows.len(), 36);
        assert_eq!(rows[12]["f"], "1");
        assert_eq!(table_rows(CLUSTER_TXT).len(), 12);
        // A small cell has no committed row.
        let s = ClusterScenario::new("RR", Benchmark::Hybrid, ArrivalRate::High, 2, 100, 5);
        let report = ClusterBuilder::new(s).workers(1).run().unwrap();
        let msg = committed_mismatch(Workload::FleetPlain, &report).unwrap();
        assert!(msg.contains("no committed row"), "{msg}");
        assert!(committed_mismatch(Workload::RnnChains, &report).is_none());
        // A committed cell reproduces its row, and a changed count is caught.
        let s = ClusterScenario::new(
            "LL",
            Benchmark::Hybrid,
            ArrivalRate::High,
            8,
            200_000,
            DEFAULT_SEED,
        )
        .with_fault_milli(1000);
        let mut report = ClusterBuilder::new(s).workers(2).run().unwrap();
        assert_eq!(committed_mismatch(Workload::FleetChaos, &report), None);
        report.met += 1;
        let msg = committed_mismatch(Workload::FleetChaos, &report).unwrap();
        let want = format!("met {} != committed {}", report.met, report.met - 1);
        assert!(msg.contains(&want), "{msg}");
    }
}
