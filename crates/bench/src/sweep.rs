//! Parallel sweep execution engine.
//!
//! The paper's evaluation is a large grid — 11+ schedulers × 8 benchmarks ×
//! three arrival rates (× seeds for confidence runs) — and every cell is a
//! fully independent deterministic simulation. This module fans those cells
//! across worker threads with nothing beyond `std`:
//!
//! * [`Scenario`] — a self-describing, `Send`-able experiment cell, fault
//!   intensity included, with a lossless string round-trip
//!   (`Display`/`FromStr`) for CLI use. Its string form shares one grammar
//!   with [`crate::cluster::ClusterScenario`]:
//!   `NAME:BENCH:RATE[:dD]:jN:sSEED[:fI]`, where only fleet cells carry
//!   `dD` and `:fI` appears only for a non-zero intensity.
//! * [`run_cell`] — run one cell under [`RunOptions`] (probe observers),
//!   returning typed [`BenchError`]s instead of panics. What a cell
//!   simulates lives in the [`Scenario`]; how it is observed lives in the
//!   options.
//! * [`run_grid`] — the one run path of every checkpointed grid, device
//!   ([`Scenario`]) or fleet ([`crate::cluster::ClusterScenario`]) cells
//!   alike: restore the cells a [`Store`] already holds, fan the rest out
//!   over worker threads, isolate each cell's panics (two attempts, then
//!   [`BenchError::Panicked`]) and record each report the moment it
//!   lands, so one broken cell degrades to a typed error instead of
//!   killing a multi-hour grid.
//! * [`sim_core::par::par_map`] / [`par_map_with`] — the fan-out beneath
//!   [`run_grid`]. Sweeps whose cells are not checkpointed use it directly
//!   (the ablation binary sweeps `LaxConfig` variants that have no
//!   registry name).
//!
//! # Determinism
//!
//! Each cell's RNG seed is derived as a hash of the base seed and the
//! workload-identifying fields ([`Scenario::cell_seed`], the one recipe in
//! [`workloads::spec::cell_seed`]), never from worker
//! identity or completion order, so per-scenario reports are
//! **bit-identical** whether the sweep runs on 1 thread or 64 (covered by
//! `sweeps_are_deterministic_across_thread_counts`). Results are returned
//! in submission order. The scheduler name is excluded from the hash so
//! every scheduler in the same workload column runs the identical job
//! trace — cross-scheduler comparisons stay paired.
//!
//! # Worker count
//!
//! Binaries take `--jobs N` through [`crate::cli::Cli::jobs`], falling
//! back to the `LAX_BENCH_JOBS` environment variable, falling back to
//! [`std::thread::available_parallelism`]. The rest of their command
//! lines go through [`crate::cli::Cli`] too, and their artifacts through
//! [`write_output`].

use std::fmt;
use std::fs;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use schedulers::registry::{self, UnknownScheduler};
use schedulers::routing::UnknownRoutePolicy;
use sim_core::par::par_map_with;
use workloads::burst::apply_bursts;
use workloads::spec::{
    cell_seed, intensity_to_milli, milli_to_intensity, ArrivalRate, Benchmark, ParseSpecError,
};
use workloads::suite::BenchmarkSuite;

use crate::checkpoint::{Codec, Store};

/// One experiment cell: a scheduler on a benchmark at an arrival rate, with
/// a job count, a base RNG seed and a fault intensity. Self-describing and
/// totally ordered so it can key result caches and checkpoints;
/// stringifiable for CLIs (`Display`/`FromStr`).
///
/// # Examples
///
/// ```
/// use lax_bench::sweep::Scenario;
/// use workloads::spec::{ArrivalRate, Benchmark};
///
/// let s = Scenario::new("LAX", Benchmark::Ipv6, ArrivalRate::High, 128, 42);
/// assert_eq!(s.to_string(), "LAX:IPV6:high:j128:s42");
/// assert_eq!("LAX:IPV6:high:j128:s42".parse::<Scenario>().unwrap(), s);
/// let faulty = s.with_fault_milli(1500);
/// assert_eq!(faulty.to_string(), "LAX:IPV6:high:j128:s42:f1.5");
/// assert_eq!("LAX:IPV6:high:j128:s42:f1.5".parse::<Scenario>().unwrap(), faulty);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Scenario {
    /// Scheduler name (see [`schedulers::registry`]). Must not contain
    /// `':'` (the string-form field separator); registry names never do,
    /// and [`Scenario::new`]/[`FromStr`] enforce it so the `Display` round
    /// trip stays lossless.
    pub scheduler: String,
    /// Benchmark.
    pub bench: Benchmark,
    /// Arrival rate level.
    pub rate: ArrivalRate,
    /// Number of jobs to generate.
    pub n_jobs: usize,
    /// Base RNG seed; the per-cell stream is [`Scenario::cell_seed`].
    pub seed: u64,
    /// Fault-plan intensity in milli-units (`1000` = intensity 1.0),
    /// stored fixed-point so the cell stays totally ordered and hashable.
    /// `0` (the default) installs the empty plan and is omitted from the
    /// string form, so fault-free scenario strings are unchanged.
    pub fault_milli: u32,
}

impl Scenario {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `scheduler` contains `':'`, which would make the
    /// [`Display`](fmt::Display) form unparseable (no registry name does;
    /// see [`schedulers::registry`]).
    pub fn new(scheduler: &str, bench: Benchmark, rate: ArrivalRate, n_jobs: usize, seed: u64) -> Self {
        assert!(
            !scheduler.contains(':'),
            "scheduler name {scheduler:?} contains ':', the Scenario string-form separator"
        );
        Scenario { scheduler: scheduler.to_string(), bench, rate, n_jobs, seed, fault_milli: 0 }
    }

    /// The same cell with a fault-plan intensity (in milli-units; `1000` =
    /// intensity 1.0). String form gains a `:fI` suffix when non-zero.
    pub fn with_fault_milli(mut self, fault_milli: u32) -> Self {
        self.fault_milli = fault_milli;
        self
    }

    /// Fault-plan intensity as the float [`FaultPlan::seeded`] consumes.
    pub fn fault_intensity(&self) -> f64 {
        milli_to_intensity(self.fault_milli)
    }

    /// The seed actually fed to the workload generator:
    /// [`workloads::spec::cell_seed`] over the base seed and the
    /// workload-identifying fields (benchmark, rate, job count), so each
    /// workload column gets an independent stream and the value never
    /// depends on which worker runs the cell or in what order.
    ///
    /// The scheduler name is deliberately **not** mixed in: every scheduler
    /// compared at the same `(bench, rate, n_jobs, seed)` must see the
    /// identical job trace, or cross-scheduler metrics (met ratios, the
    /// figure 6–10 grids) would pick up workload sampling noise instead of
    /// scheduler differences. Nor is the fault intensity: a scheduler's
    /// degradation curve compares one job trace under growing storms.
    pub fn cell_seed(&self) -> u64 {
        cell_seed(self.seed, self.bench.name(), self.rate, None, self.n_jobs)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        CellFields {
            name: &self.scheduler,
            bench: self.bench,
            rate: self.rate,
            devices: 0,
            n_jobs: self.n_jobs,
            seed: self.seed,
            fault_milli: self.fault_milli,
        }
        .fmt(f)
    }
}

impl FromStr for Scenario {
    type Err = ParseScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let c = CellFields::parse(s, false)?;
        Ok(Scenario::new(c.name, c.bench, c.rate, c.n_jobs, c.seed).with_fault_milli(c.fault_milli))
    }
}

/// The fields of a cell string, in the one grammar [`Scenario`] and
/// [`crate::cluster::ClusterScenario`] share:
/// `NAME:BENCH:RATE[:dD]:jN:sSEED[:fI]`.
///
/// A device cell has no `dD` field (`devices == 0`); a fleet cell must
/// have one. `:fI` is printed only for a non-zero intensity, and `f0` is
/// rejected, so every cell has exactly one spelling.
pub(crate) struct CellFields<'a> {
    pub(crate) name: &'a str,
    pub(crate) bench: Benchmark,
    pub(crate) rate: ArrivalRate,
    pub(crate) devices: usize,
    pub(crate) n_jobs: usize,
    pub(crate) seed: u64,
    pub(crate) fault_milli: u32,
}

impl fmt::Display for CellFields<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.name, self.bench, self.rate)?;
        if self.devices > 0 {
            write!(f, ":d{}", self.devices)?;
        }
        write!(f, ":j{}:s{}", self.n_jobs, self.seed)?;
        if self.fault_milli > 0 {
            // f64 Display prints the shortest round-tripping form, so the
            // parser's exact conversion recovers the milli value.
            write!(f, ":f{}", milli_to_intensity(self.fault_milli))?;
        }
        Ok(())
    }
}

impl<'a> CellFields<'a> {
    /// Parses a cell string: `fleet` requires the `dD` field, otherwise it
    /// must be absent.
    pub(crate) fn parse(s: &'a str, fleet: bool) -> Result<Self, ParseScenarioError> {
        let bad = |reason: String| ParseScenarioError { input: s.to_string(), reason, fleet };
        let parts: Vec<&str> = s.split(':').collect();
        let base = if fleet { 6 } else { 5 };
        if parts.len() != base && parts.len() != base + 1 {
            return Err(bad(format!("{} fields, expected {base} or {}", parts.len(), base + 1)));
        }
        let (name, jobs, seed) = (parts[0], parts[base - 2], parts[base - 1]);
        let bench: Benchmark = parts[1].parse().map_err(|e: ParseSpecError| bad(e.to_string()))?;
        let rate: ArrivalRate = parts[2].parse().map_err(|e: ParseSpecError| bad(e.to_string()))?;
        let devices = if fleet {
            parts[3]
                .strip_prefix('d')
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| bad(format!("bad device count `{}`", parts[3])))?
        } else {
            0
        };
        let n_jobs = jobs
            .strip_prefix('j')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("bad job count `{jobs}`")))?;
        let seed = seed
            .strip_prefix('s')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("bad seed `{seed}`")))?;
        if name.is_empty() {
            let what = if fleet { "policy" } else { "scheduler" };
            return Err(bad(format!("empty {what} name")));
        }
        let fault_milli = match parts.get(base) {
            None => 0,
            Some(f) => f
                .strip_prefix('f')
                .and_then(|v| v.parse().ok())
                .and_then(intensity_to_milli)
                .filter(|&m| m > 0)
                .ok_or_else(|| bad(format!("bad fault intensity `{f}`")))?,
        };
        Ok(CellFields { name, bench, rate, devices, n_jobs, seed, fault_milli })
    }
}

/// Error parsing a [`Scenario`] or [`crate::cluster::ClusterScenario`] from
/// its string form. Its `Debug` is its `Display`, so a binary whose `main`
/// returns the error prints the message, not the struct.
#[derive(Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    input: String,
    reason: String,
    fleet: bool,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (what, expected) = if self.fleet {
            (
                "cluster scenario",
                "POLICY:BENCH:RATE:dD:jN:sSEED[:fI], e.g. LL:HYBRID:high:d16:j1000000:s42:f1.5",
            )
        } else {
            ("scenario", "SCHED:BENCH:RATE:jN:sSEED[:fI], e.g. LAX:IPV6:high:j128:s42")
        };
        write!(f, "invalid {what} `{}`: {} (expected {expected})", self.input, self.reason)
    }
}

impl fmt::Debug for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ParseScenarioError {}

/// Typed failure of one experiment cell. Carries enough context to report
/// the cell without aborting the rest of the grid.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The scenario names a scheduler outside the registry.
    UnknownScheduler(UnknownScheduler),
    /// The cluster scenario names a routing policy outside the registry.
    UnknownPolicy(UnknownRoutePolicy),
    /// The simulation rejected the configuration or generated jobs, or hit
    /// a runtime fault (stall watchdog, event budget, queue overflow).
    Sim(SimError),
    /// The cell panicked on every attempt; [`run_grid`] isolated the panic
    /// instead of unwinding through the pool.
    Panicked {
        /// How many times the cell was attempted before giving up.
        attempts: u32,
        /// The final panic payload, stringified.
        message: String,
    },
    /// A filesystem operation (checkpoint write, results file) failed.
    Io(String),
    /// The cluster scenario's fleet fault plan is ill-formed for the fleet.
    FleetFault(FleetFaultError),
    /// A cluster knob is out of range: `slots` must be at least 1,
    /// `jitter` must lie in `[0, 1)`, `n_jobs` must be at most 2³² (job
    /// ids are `u32`) and `devices` at most 65535 (device ids are `u16`).
    FleetKnob {
        /// Which knob (`slots`, `jitter`, `n_jobs` or `devices`).
        knob: &'static str,
        /// The rejected value, as given.
        value: String,
    },
    /// A declarative scenario file failed to parse or validate
    /// ([`workloads::scenario`]).
    Scenario(workloads::scenario::ScenarioFileError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::UnknownScheduler(e) => write!(f, "{e}"),
            BenchError::UnknownPolicy(e) => write!(f, "{e}"),
            BenchError::Sim(e) => write!(f, "{e}"),
            BenchError::Panicked { attempts, message } => {
                write!(f, "cell panicked on all {attempts} attempt(s): {message}")
            }
            BenchError::Io(msg) => write!(f, "I/O error: {msg}"),
            BenchError::FleetFault(e) => write!(f, "invalid fleet fault plan: {e}"),
            BenchError::FleetKnob { knob, value } => {
                let bound = match *knob {
                    "slots" => "at least 1",
                    "jitter" => "in [0, 1)",
                    "n_jobs" => "at most 2^32",
                    "devices" => "at most 65535",
                    _ => "in range",
                };
                write!(f, "invalid fleet {knob} {value} (must be {bound})")
            }
            BenchError::Scenario(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::UnknownScheduler(e) => Some(e),
            BenchError::UnknownPolicy(e) => Some(e),
            BenchError::Sim(e) => Some(e),
            BenchError::FleetFault(e) => Some(e),
            BenchError::Scenario(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnknownScheduler> for BenchError {
    fn from(e: UnknownScheduler) -> Self {
        BenchError::UnknownScheduler(e)
    }
}

impl From<UnknownRoutePolicy> for BenchError {
    fn from(e: UnknownRoutePolicy) -> Self {
        BenchError::UnknownPolicy(e)
    }
}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

impl From<FleetFaultError> for BenchError {
    fn from(e: FleetFaultError) -> Self {
        BenchError::FleetFault(e)
    }
}

impl From<workloads::scenario::ScenarioFileError> for BenchError {
    fn from(e: workloads::scenario::ScenarioFileError) -> Self {
        BenchError::Scenario(e)
    }
}

/// A shareable handle to a probe-bus observer, as accepted by
/// [`RunOptions::observe`].
///
/// The `Arc<Mutex<..>>` shape lets the caller keep its own handle to read
/// the observer back after the run. Any concrete
/// `Arc<Mutex<MetricsSampler>>`-style handle coerces to this type at the
/// call site.
pub type SharedObserver = Arc<Mutex<dyn Observer<ProbeEvent> + Send>>;

/// Everything that can vary about *how* one cell is executed, as opposed to
/// *what* it simulates (the [`Scenario`], fault intensity included): the
/// observers attached to its probe bus.
///
/// The default value runs the cell unobserved.
///
/// # Examples
///
/// ```
/// use lax_bench::sweep::{run_cell, RunOptions, Scenario};
/// use workloads::spec::{ArrivalRate, Benchmark};
///
/// let s = Scenario::new("LAX", Benchmark::Ipv6, ArrivalRate::Low, 4, 1);
/// let clean = run_cell(&s, &RunOptions::default()).unwrap();
/// let faulty = run_cell(&s.with_fault_milli(1000), &RunOptions::default()).unwrap();
/// assert_ne!(clean, faulty);
/// ```
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Observers attached to the simulation's probe bus. Attaching
    /// observers never perturbs the report (the probe layer schedules no
    /// events), so observed and unobserved runs of the same cell are
    /// bit-identical; `observers_do_not_perturb_cell_reports` locks this in.
    pub observers: Vec<SharedObserver>,
}

impl fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions").field("observers", &self.observers.len()).finish()
    }
}

impl RunOptions {
    /// Attaches one observer to the cell's probe bus. Concrete
    /// `Arc<Mutex<T>>` handles coerce to [`SharedObserver`] here, so callers
    /// pass `sampler.clone()` and keep their handle for reading results.
    pub fn observe(mut self, observer: SharedObserver) -> Self {
        self.observers.push(observer);
        self
    }
}

/// Runs one experiment cell under the given [`RunOptions`] — the sole cell
/// entrypoint (observers are an option, not a separate function). Grids
/// run their cells through [`run_grid`], which adds panic isolation and
/// checkpointing.
///
/// The fault plan is drawn at the cell's intensity from
/// [`Scenario::cell_seed`] — which excludes the scheduler name — so every
/// scheduler compared at one `(bench, rate, n_jobs, seed, intensity)` cell
/// faces the *identical* storm: the same slowdown windows, CU outages,
/// DRAM throttles and arrival bursts.
///
/// # Errors
///
/// Returns [`BenchError::UnknownScheduler`] for scheduler names outside the
/// registry and [`BenchError::Sim`] if the generated jobs cannot run or the
/// run hits a runtime fault (stall watchdog, event budget) — no panics on
/// user input.
pub fn run_cell(scenario: &Scenario, opts: &RunOptions) -> Result<SimReport, BenchError> {
    let suite = BenchmarkSuite::calibrated();
    let seed = scenario.cell_seed();
    let jobs = suite.generate_jobs(scenario.bench, scenario.rate, scenario.n_jobs, seed);
    run_jobs(suite, jobs, &scenario.scheduler, seed, scenario.fault_intensity(), &opts.observers)
}

/// The half of a cell after job generation, shared by [`run_cell`] and a
/// scenario file's inline-DAG cells: seed the fault plan from `cell_seed`
/// at `intensity` over the jobs' span, apply its arrival bursts, attach
/// `observers`, run under `scheduler`.
pub(crate) fn run_jobs(
    suite: &BenchmarkSuite,
    mut jobs: Vec<JobDesc>,
    scheduler: &str,
    cell_seed: u64,
    intensity: f64,
    observers: &[SharedObserver],
) -> Result<SimReport, BenchError> {
    let cfg = GpuConfig::default();
    // Faults are drawn over the span jobs can occupy: last arrival plus the
    // latest relative deadline, so late windows still overlap live work.
    let span = jobs
        .iter()
        .map(|j| j.arrival.saturating_since(Cycle::ZERO) + j.deadline)
        .max()
        .unwrap_or(Duration::ZERO);
    let plan = FaultPlan::seeded(cell_seed, intensity, span, cfg.num_cus);
    apply_bursts(&mut jobs, &plan.bursts);
    Ok(device_simulation(suite, jobs, scheduler, plan, observers)?.try_run()?)
}

/// The one device constructor: `jobs` under the registry scheduler
/// `scheduler`, with the suite's offline rates, `faults` and `observers`.
/// Device cells, the figures and the fleet's detailed tier all build
/// through it. Fails typed on an unknown scheduler or rejected jobs.
pub(crate) fn device_simulation(
    suite: &BenchmarkSuite,
    jobs: Vec<JobDesc>,
    scheduler: &str,
    faults: FaultPlan,
    observers: &[SharedObserver],
) -> Result<Simulation, BenchError> {
    let mut builder = Simulation::builder()
        .offline_rates(suite.offline_rates())
        .jobs(jobs)
        .scheduler(registry::try_build(scheduler)?)
        .faults(faults);
    for obs in observers {
        builder = builder.observe(Box::new(Arc::clone(obs)));
    }
    Ok(builder.build()?)
}

/// Writes an artifact to `path`, creating its parent directory first.
///
/// # Errors
///
/// The directory creation's or the write's I/O error.
pub fn write_output(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, contents)
}

/// Renders a caught panic payload for error reports: the `&str`/`String`
/// message when there is one, a placeholder otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many times [`run_grid`] runs a panicking cell before reporting
/// [`BenchError::Panicked`]. The simulator is deterministic, so a panic
/// usually recurs; the second attempt guards against environmental
/// failures (allocation pressure on a loaded machine) and bounds how long
/// a genuinely broken cell is hammered.
const ATTEMPTS: u32 = 2;

/// Runs a grid of cells, each keyed by its `Display` form, and returns one
/// record per cell **in input order**: the one run path of every
/// checkpointed grid (`all`, `faults`, `dag`, `cluster`, `chaos`).
///
/// * A cell already in `store` is returned without running.
/// * The missing cells fan out over `workers` threads. Each runs `run`
///   under panic isolation: a cell that panics on both of its two attempts
///   becomes [`BenchError::Panicked`].
/// * Each report is recorded in `store` the moment it lands, so a kill
///   loses at most the cells still running. A failed write prints a
///   warning and the grid carries on: the checkpoint makes `--resume`
///   cheaper, it is not a correctness dependency.
/// * `on_done(cell, result)` then fires on the calling thread, once per
///   run cell, in completion order.
///
/// Reports never depend on `workers`, because each cell seeds itself.
///
/// # Errors
///
/// The first failing cell in input order, returned only after every
/// runnable cell has finished and been recorded.
///
/// # Panics
///
/// A panic in `on_done` resumes on the caller once the workers have
/// drained, as in [`par_map_with`].
pub fn run_grid<K, C>(
    cells: &[K],
    workers: usize,
    mut store: Option<&mut Store<C>>,
    run: impl Fn(&K) -> Result<C::Record, BenchError> + Sync,
    mut on_done: impl FnMut(&K, &Result<C::Record, BenchError>),
) -> Result<Vec<C::Record>, BenchError>
where
    K: fmt::Display + Sync,
    C: Codec,
    C::Record: Clone + Send,
{
    let keys: Vec<String> = cells.iter().map(K::to_string).collect();
    let mut records: Vec<Option<C::Record>> =
        keys.iter().map(|key| store.as_ref().and_then(|s| s.get(key)).cloned()).collect();
    let missing: Vec<usize> = (0..cells.len()).filter(|&i| records[i].is_none()).collect();
    let isolated = |&i: &usize| {
        let mut message = String::new();
        for _ in 0..ATTEMPTS {
            match panic::catch_unwind(AssertUnwindSafe(|| run(&cells[i]))) {
                Ok(result) => return result,
                Err(payload) => message = panic_message(&*payload),
            }
        }
        Err(BenchError::Panicked { attempts: ATTEMPTS, message })
    };
    let results = par_map_with(&missing, workers, isolated, |j, result| {
        let i = missing[j];
        if let (Ok(record), Some(store)) = (result, store.as_deref_mut()) {
            if let Err(e) = store.record(&keys[i], record.clone()) {
                eprintln!("warning: checkpoint write failed: {e}");
            }
        }
        on_done(&cells[i], result);
    });
    for (i, result) in missing.into_iter().zip(results) {
        records[i] = Some(result?);
    }
    Ok(records.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, FleetCodec, SweepCodec};
    use crate::cluster::{ClusterBuilder, ClusterScenario};
    use sim_core::rng::SimRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny(scheduler: &str) -> Scenario {
        Scenario::new(scheduler, Benchmark::Ipv6, ArrivalRate::Low, 4, 1)
    }

    #[test]
    fn scenario_round_trips_through_strings() {
        for (s, text) in [
            (
                Scenario::new("LAX", Benchmark::Ipv6, ArrivalRate::High, 128, 20210301),
                "LAX:IPV6:high:j128:s20210301",
            ),
            (
                Scenario::new("LAX-SW", Benchmark::Hybrid, ArrivalRate::Medium, 1, 0),
                "LAX-SW:HYBRID:medium:j1:s0",
            ),
            (
                Scenario::new("RR", Benchmark::Stem, ArrivalRate::Low, 64, u64::MAX),
                "RR:STEM:low:j64:s18446744073709551615",
            ),
            (
                Scenario::new("RR", Benchmark::Ipv6, ArrivalRate::High, 8, 20210301)
                    .with_fault_milli(500),
                "RR:IPV6:high:j8:s20210301:f0.5",
            ),
            (
                Scenario::new("LAX", Benchmark::Gmm, ArrivalRate::Low, 8, 1).with_fault_milli(1),
                "LAX:GMM:low:j8:s1:f0.001",
            ),
        ] {
            assert_eq!(s.to_string(), text);
            assert_eq!(text.parse::<Scenario>().unwrap(), s, "{text}");
        }
    }

    /// Both cell strings through the one grammar: (input, fleet cell?,
    /// expected fragment of the reason) — every arm of the parser's error
    /// handling, so CLI typos always get a diagnosis.
    #[test]
    fn cell_strings_reject_malformed_input() {
        for (bad, fleet, why) in [
            ("", false, "1 fields"),
            ("LAX", false, "1 fields"),
            ("LAX:IPV6:high:j128", false, "4 fields"),
            ("LAX:IPV6:high:j128:s42:extra", false, "bad fault intensity `extra`"),
            ("LAX:IPV6:high:j128:s42:f1:x", false, "7 fields"),
            ("LAX:WARP9:high:j128:s42", false, "WARP9"),
            ("LAX:IPV6:sometimes:j128:s42", false, "sometimes"),
            ("LAX:IPV6:high:128:s42", false, "bad job count"),
            ("LAX:IPV6:high:j128:42", false, "bad seed"),
            ("LAX:IPV6:high:jxx:s42", false, "bad job count"),
            ("LAX:IPV6:high:j128:sQQ", false, "bad seed"),
            (":IPV6:high:j128:s42", false, "empty scheduler"),
            ("LL:HYBRID:high:d16:j128:s42", false, "bad job count `d16`"),
            ("LAX:IPV6:high:j128:s42:f0", false, "bad fault intensity"),
            ("LAX:IPV6:high:j128:s42:f1e300", false, "bad fault intensity"),
            ("LAX:IPV6:high:j128:s42:f0.0004", false, "bad fault intensity"),
            ("LAX:IPV6:high:j128:s42:f1.0005", false, "bad fault intensity"),
            ("", true, "1 fields"),
            ("LL", true, "1 fields"),
            ("LL:HYBRID:high:d16:j128", true, "5 fields"),
            ("LAX:IPV6:high:j128:s42", true, "5 fields"),
            ("LL:HYBRID:high:d16:j128:s42:f1:x", true, "8 fields"),
            ("LL:HYBRID:high:d16:j128:s42:x", true, "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:f0", true, "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:f-1", true, "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:fx", true, "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:fnan", true, "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:f1e300", true, "bad fault intensity"),
            ("LL:HYBRID:high:d16:j128:s42:f0.0004", true, "bad fault intensity"),
            ("LL:WARP9:high:d16:j128:s42", true, "WARP9"),
            ("LL:HYBRID:sometimes:d16:j128:s42", true, "sometimes"),
            ("LL:HYBRID:high:16:j128:s42", true, "bad device count"),
            ("LL:HYBRID:high:d0:j128:s42", true, "bad device count"),
            ("LL:HYBRID:high:dx:j128:s42", true, "bad device count"),
            ("LL:HYBRID:high:d16:128:s42", true, "bad job count"),
            ("LL:HYBRID:high:d16:j128:42", true, "bad seed"),
            (":HYBRID:high:d16:j128:s42", true, "empty policy"),
        ] {
            let (err, what) = if fleet {
                (bad.parse::<ClusterScenario>().err(), "invalid cluster scenario")
            } else {
                (bad.parse::<Scenario>().err(), "invalid scenario")
            };
            let err = err.unwrap_or_else(|| panic!("`{bad}` should not parse"));
            let msg = err.to_string();
            assert_eq!(format!("{err:?}"), msg, "`Debug` prints the message, not the struct");
            assert!(msg.contains(what), "{msg}");
            assert!(msg.contains(why), "`{bad}` should diagnose `{why}`, got: {msg}");
            assert!(msg.contains(bad), "the error must echo the input: {msg}");
        }
    }

    /// One seeded mutation of a cell string: a truncation, a byte flip, or
    /// a field spliced in from another corpus string.
    fn mutate(text: &str, corpus: &[&str], rng: &mut SimRng) -> String {
        let mut bytes = text.as_bytes().to_vec();
        match rng.below(3) {
            0 => bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize),
            1 if !bytes.is_empty() => {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            _ => {
                let donor = corpus[rng.below(corpus.len() as u64) as usize];
                let donor: Vec<&str> = donor.split(':').collect();
                let mut fields: Vec<&str> = text.split(':').collect();
                let field = donor[rng.below(donor.len() as u64) as usize];
                let at = rng.below(fields.len() as u64 + 1) as usize;
                match rng.below(3) {
                    0 if at < fields.len() => fields[at] = field,
                    1 if at < fields.len() => {
                        fields.remove(at);
                    }
                    _ => fields.insert(at, field),
                }
                bytes = fields.join(":").into_bytes();
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn mutated_cell_strings_never_panic_and_accepted_ones_round_trip() {
        let corpus = [
            "LAX:IPV6:high:j128:s42",
            "LAX-SW:HYBRID:medium:j1:s0:f1.5",
            "RR:STEM:low:j64:s18446744073709551615:f0.001",
            "LL:HYBRID:high:d16:j1000000:s42",
            "RR:IPV6:low:d1:j1:s0:f2",
            "P2C:FANOUT:medium:d64:j12:s7:f4294967.295",
        ];
        let mut rng = SimRng::seed_from(0xce11);
        let (mut devices, mut fleets) = (0, 0);
        for round in 0..4000 {
            let mut s = corpus[round % corpus.len()].to_string();
            for _ in 0..=round % 3 {
                s = mutate(&s, &corpus, &mut rng);
            }
            if let Ok(cell) = s.parse::<Scenario>() {
                devices += 1;
                assert_eq!(cell.to_string().parse::<Scenario>(), Ok(cell), "from `{s}`");
            }
            if let Ok(cell) = s.parse::<ClusterScenario>() {
                fleets += 1;
                assert_eq!(cell.to_string().parse::<ClusterScenario>(), Ok(cell), "from `{s}`");
            }
        }
        // The mutator must leave some inputs valid, or the round trip
        // half of the test checks nothing.
        assert!(devices > 100 && fleets > 100, "{devices} device, {fleets} fleet");
    }

    #[test]
    fn cell_seeds_pair_schedulers_but_differ_across_workloads() {
        let a = Scenario::new("RR", Benchmark::Ipv6, ArrivalRate::High, 128, 1);
        let b = Scenario::new("LAX", Benchmark::Ipv6, ArrivalRate::High, 128, 1);
        let c = Scenario::new("RR", Benchmark::Stem, ArrivalRate::High, 128, 1);
        let d = Scenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 128, 1);
        let e = Scenario::new("RR", Benchmark::Ipv6, ArrivalRate::High, 64, 1);
        assert_eq!(
            a.cell_seed(),
            b.cell_seed(),
            "schedulers compared on the same workload must see identical jobs"
        );
        assert_ne!(a.cell_seed(), c.cell_seed());
        assert_ne!(a.cell_seed(), d.cell_seed());
        assert_ne!(a.cell_seed(), e.cell_seed());
        assert_eq!(a.cell_seed(), a.clone().cell_seed());
        assert_ne!(
            a.cell_seed(),
            Scenario { seed: 2, ..a.clone() }.cell_seed(),
            "base seed must perturb the cell stream"
        );
    }

    #[test]
    fn schedulers_in_one_workload_column_get_identical_job_traces() {
        let suite = BenchmarkSuite::calibrated();
        let rr = tiny("RR");
        let lax = tiny("LAX");
        let jobs_rr = suite.generate_jobs(rr.bench, rr.rate, rr.n_jobs, rr.cell_seed());
        let jobs_lax = suite.generate_jobs(lax.bench, lax.rate, lax.n_jobs, lax.cell_seed());
        assert_eq!(
            format!("{jobs_rr:?}"),
            format!("{jobs_lax:?}"),
            "paired comparison requires one shared job trace per column"
        );
    }

    #[test]
    fn unknown_scheduler_is_a_typed_error_not_a_panic() {
        let err = run_cell(&tiny("WARP-SPEED"), &RunOptions::default()).unwrap_err();
        match &err {
            BenchError::UnknownScheduler(e) => assert_eq!(e.name(), "WARP-SPEED"),
            other => panic!("expected UnknownScheduler, got {other:?}"),
        }
        assert!(err.to_string().contains("WARP-SPEED"));
    }

    /// [`run_cell`] with default options, the `run` of every device grid.
    fn plain(s: &Scenario) -> Result<SimReport, BenchError> {
        run_cell(s, &RunOptions::default())
    }

    /// A device grid without a checkpoint.
    fn grid(
        cells: &[Scenario],
        workers: usize,
        on_done: impl FnMut(&Scenario, &Result<SimReport, BenchError>),
    ) -> Result<Vec<SimReport>, BenchError> {
        run_grid(cells, workers, None::<&mut Checkpoint>, plain, on_done)
    }

    #[test]
    fn sweep_reports_bad_cells_without_aborting_good_ones() {
        let scenarios = vec![tiny("RR"), tiny("NOPE"), tiny("EDF")];
        let mut landed = Vec::new();
        let err = grid(&scenarios, 2, |s, r| landed.push((s.scheduler.clone(), r.is_ok())))
            .unwrap_err();
        assert!(matches!(err, BenchError::UnknownScheduler(_)), "{err}");
        landed.sort();
        let expected = [("EDF", true), ("NOPE", false), ("RR", true)];
        assert_eq!(landed, expected.map(|(s, ok)| (s.to_string(), ok)));
    }

    #[test]
    fn sweeps_are_deterministic_across_thread_counts() {
        let scenarios: Vec<Scenario> = ["RR", "EDF", "LAX", "SJF"]
            .iter()
            .flat_map(|s| {
                [ArrivalRate::High, ArrivalRate::Low]
                    .into_iter()
                    .map(|r| Scenario::new(s, Benchmark::Ipv6, r, 6, 7))
            })
            .collect();
        let serial = grid(&scenarios, 1, |_, _| {}).unwrap();
        let parallel = grid(&scenarios, 8, |_, _| {}).unwrap();
        assert_eq!(serial.len(), scenarios.len());
        for ((s, a), b) in scenarios.iter().zip(&serial).zip(&parallel) {
            assert_eq!(a, b, "{s} must be bit-identical across thread counts");
            assert_eq!(*a, plain(s).unwrap(), "{s}: results come back in input order");
        }
    }

    /// The [`run_grid`] contract for one codec: a cell already in the
    /// store never runs, a bad cell stops no good one, every good cell is
    /// recorded before the first error comes back, and the records at 1
    /// and 8 workers are equal and in input order.
    fn grid_contract<K, C>(
        cells: &[K],
        bad: K,
        run: impl Fn(&K) -> Result<C::Record, BenchError> + Sync,
        is_bad: fn(&BenchError) -> bool,
    ) where
        K: fmt::Display + Sync + Clone,
        C: Codec,
        C::Record: Clone + Send + PartialEq + fmt::Debug,
    {
        let path = std::env::temp_dir().join(format!("lax-grid-contract-{}", std::process::id()));
        let _ = fs::remove_file(&path);
        let mut store = Store::<C>::open(&path);
        let restored = cells[0].to_string();
        store.record(&restored, run(&cells[0]).unwrap()).unwrap();
        // The bad cell sits right after the restored one, so on one worker
        // it is the first cell to run and every good cell follows it.
        let mut with_bad = cells.to_vec();
        with_bad.insert(1, bad);
        let ran = Mutex::new(Vec::new());
        let counted = |k: &K| {
            ran.lock().unwrap().push(k.to_string());
            run(k)
        };
        let mut landed = 0;
        let err = run_grid(&with_bad, 1, Some(&mut store), counted, |_, _| landed += 1)
            .unwrap_err();
        assert!(is_bad(&err), "{err}");
        let ran = ran.into_inner().unwrap();
        assert!(!ran.contains(&restored), "the restored cell ran: {ran:?}");
        assert_eq!((ran.len(), landed), (cells.len(), cells.len()), "every missing cell ran once");
        assert_eq!(store.len(), cells.len(), "every good cell was recorded");
        assert_eq!(Store::<C>::open(&path).len(), cells.len(), "and written to the file");

        let serial = run_grid(cells, 1, None::<&mut Store<C>>, &run, |_, _| {}).unwrap();
        let parallel = run_grid(cells, 8, None::<&mut Store<C>>, &run, |_, _| {}).unwrap();
        assert_eq!(serial, parallel, "records must not depend on the worker count");
        for (cell, record) in cells.iter().zip(&serial) {
            assert_eq!(store.get(&cell.to_string()), Some(record), "{cell} out of order");
        }
        store.discard_file().unwrap();
    }

    #[test]
    fn run_grid_contract_holds_for_both_codecs() {
        let devices = [tiny("RR"), tiny("EDF"), tiny("LAX"), tiny("SJF")];
        grid_contract::<_, SweepCodec>(&devices, tiny("NOPE"), plain, |e| {
            matches!(e, BenchError::UnknownScheduler(_))
        });
        let fleet = |policy| ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 400, 7);
        let fleets = [fleet("LL"), fleet("RR").with_fault_milli(1500), fleet("P2C"), fleet("LOW")]
            .map(ClusterBuilder::new);
        grid_contract::<_, FleetCodec>(
            &fleets,
            ClusterBuilder::new(fleet("NOPE")),
            ClusterBuilder::run,
            |e| matches!(e, BenchError::UnknownPolicy(_)),
        );
    }

    #[test]
    fn write_output_creates_the_parent_directory() {
        let dir = std::env::temp_dir().join(format!("lax-write-output-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.txt");
        write_output(&path, "hello").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "hello");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "contains ':'")]
    fn scenario_new_rejects_colon_in_scheduler_name() {
        let _ = Scenario::new("LAX:EVIL", Benchmark::Ipv6, ArrivalRate::High, 1, 1);
    }

    /// A cell whose job count overflows the job vector's capacity panics
    /// inside the cell body — a stand-in for any cell-local panic.
    fn panicking(scheduler: &str) -> Scenario {
        Scenario::new(scheduler, Benchmark::Ipv6, ArrivalRate::Low, usize::MAX, 1)
    }

    #[test]
    fn panicking_cell_becomes_a_typed_error_after_bounded_retries() {
        // The grid must isolate the panic and keep running the other cells.
        let scenarios = vec![panicking("RR"), tiny("EDF"), panicking("LAX")];
        let mut panicked = 0;
        let err = grid(&scenarios, 2, |s, r| match r {
            Err(BenchError::Panicked { attempts, message }) => {
                assert_eq!(*attempts, 2, "{s}: 1 try + 1 retry");
                assert!(message.contains("capacity overflow"), "{message}");
                panicked += 1;
            }
            other => assert!(other.is_ok() && s.scheduler == "EDF", "{s}: {other:?}"),
        })
        .unwrap_err();
        assert!(matches!(err, BenchError::Panicked { attempts: 2, .. }), "{err}");
        assert_eq!(panicked, 2);
    }

    #[test]
    fn callback_panic_is_drained_and_surfaced_not_propagated() {
        let scenarios = vec![tiny("RR"), tiny("EDF"), tiny("LAX"), tiny("SJF")];
        let ran = AtomicUsize::new(0);
        let mut calls = 0;
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            let counted = |s: &Scenario| {
                ran.fetch_add(1, Ordering::Relaxed);
                plain(s)
            };
            let _ = run_grid(&scenarios, 2, None::<&mut Checkpoint>, counted, |_, _| {
                calls += 1;
                panic!("boom in progress bar");
            });
        }))
        .expect_err("the callback's panic resumes on the caller");
        assert!(panic_message(&*payload).contains("boom"));
        assert_eq!(calls, 1, "callback must not be re-entered after panicking");
        assert_eq!(ran.into_inner(), scenarios.len(), "the workers drained every cell");
    }

    #[test]
    fn zero_intensity_fault_path_is_bit_identical_to_a_fault_free_build() {
        // The fault-free contract, end to end at the harness layer: running
        // through `run_cell` with default options (which installs
        // `FaultPlan::none()`) must reproduce a simulation built without
        // ever touching the faults API, for multiple schedulers.
        let suite = BenchmarkSuite::calibrated();
        for sched in ["RR", "LAX"] {
            let s = Scenario::new(sched, Benchmark::Ipv6, ArrivalRate::High, 12, 3);
            let jobs = suite.generate_jobs(s.bench, s.rate, s.n_jobs, s.cell_seed());
            let mut sim = Simulation::builder()
                .offline_rates(suite.offline_rates())
                .jobs(jobs)
                .scheduler(registry::try_build(sched).unwrap())
                .build()
                .unwrap();
            let bare = sim.run();
            let defaulted = run_cell(&s, &RunOptions::default()).unwrap();
            assert_eq!(bare, defaulted, "{sched}: FaultPlan::none() must be a no-op");
        }
    }

    #[test]
    fn observers_do_not_perturb_cell_reports() {
        // The tentpole determinism contract: attaching the full observer
        // stack (time-series sampler + Chrome trace writer) must leave the
        // report bit-identical to an unobserved run, for every scheduler
        // family on the same cell.
        for sched in ["RR", "EDF", "LAX"] {
            let s = Scenario::new(sched, Benchmark::Ipv6, ArrivalRate::High, 12, 3);
            let plain = run_cell(&s, &RunOptions::default()).unwrap();
            let sampler = Arc::new(Mutex::new(MetricsSampler::new()));
            let writer = Arc::new(Mutex::new(ChromeTraceWriter::new()));
            let opts = RunOptions::default().observe(sampler.clone()).observe(writer.clone());
            let observed = run_cell(&s, &opts).unwrap();
            assert_eq!(plain, observed, "{sched}: observers must not perturb the run");
            assert!(
                !sampler.lock().unwrap().series().is_empty(),
                "{sched}: the sampler actually saw snapshots"
            );
            assert!(
                !writer.lock().unwrap().is_empty(),
                "{sched}: the trace writer actually saw spans"
            );
        }
    }

    #[test]
    fn nonzero_intensity_changes_outcomes_but_stays_deterministic() {
        let s = Scenario::new("RR", Benchmark::Ipv6, ArrivalRate::High, 16, 3);
        let storm = s.clone().with_fault_milli(1000);
        let a = run_cell(&storm, &RunOptions::default()).unwrap();
        let b = run_cell(&storm, &RunOptions::default()).unwrap();
        assert_eq!(a, b, "same intensity, same storm, same report");
        assert_eq!(storm.cell_seed(), s.cell_seed(), "job traces pair across intensities");
        let clean = run_cell(&s, &RunOptions::default()).unwrap();
        assert_ne!(a, clean, "an intensity-1.0 storm must perturb the run");
    }
}
