//! Parallel sweep execution engine.
//!
//! The paper's evaluation is a large grid — 11+ schedulers × 8 benchmarks ×
//! three arrival rates (× seeds for confidence runs) — and every cell is a
//! fully independent deterministic simulation. This module fans those cells
//! across worker threads with nothing beyond `std`:
//!
//! * [`Scenario`] — a self-describing, `Send`-able experiment cell with a
//!   lossless string round-trip (`Display`/`FromStr`) for CLI use.
//! * [`run_cell`] — run one cell under [`RunOptions`] (fault intensity,
//!   probe observers, wall-clock deadline), returning typed [`BenchError`]s
//!   instead of panics. One entrypoint; faults and observers are options,
//!   not separate functions.
//! * [`run_sweep`] / [`run_sweep_opts`] — a work queue over
//!   `std::thread::scope`: `N` workers pull cells from an atomic cursor,
//!   results flow back over a channel, and a progress callback fires on
//!   the caller's thread per finished cell. [`SweepOptions`] adds per-cell
//!   panic isolation with bounded retry and an optional wall-clock
//!   deadline, so one broken cell degrades to a typed error instead of
//!   killing a multi-hour grid.
//! * [`par_map`] — the same fan-out for arbitrary cell types (the ablation
//!   binary sweeps `LaxConfig` variants that have no registry name).
//!
//! # Determinism
//!
//! Each cell's RNG seed is derived as a hash of the base seed and the
//! workload-identifying fields ([`Scenario::cell_seed`]), never from worker
//! identity or completion order, so per-scenario reports are
//! **bit-identical** whether the sweep runs on 1 thread or 64 (covered by
//! `sweeps_are_deterministic_across_thread_counts`). Results are returned
//! in submission order. The scheduler name is excluded from the hash so
//! every scheduler in the same workload column runs the identical job
//! trace — cross-scheduler comparisons stay paired.
//!
//! # Worker count
//!
//! Binaries take `--jobs N`, falling back to the `LAX_BENCH_JOBS`
//! environment variable, falling back to
//! [`std::thread::available_parallelism`] (see [`default_jobs`]).

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration as WallDuration, Instant};

use gpu_sim::prelude::*;
use schedulers::registry::{self, UnknownScheduler};
use schedulers::routing::UnknownRoutePolicy;
use sim_core::rng::Fnv1a;
use workloads::burst::apply_bursts;
use workloads::spec::{ArrivalRate, Benchmark, ParseSpecError};
use workloads::suite::BenchmarkSuite;

/// One experiment cell: a scheduler on a benchmark at an arrival rate, with
/// a job count and a base RNG seed. Self-describing and totally ordered so
/// it can key result caches; stringifiable for CLIs (`Display`/`FromStr`).
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
        Scenario { scheduler: scheduler.to_string(), bench, rate, n_jobs, seed }
    }

    /// The seed actually fed to the workload generator: an FNV-1a hash of
    /// the base seed and the workload-identifying fields (benchmark, rate,
    /// job count), so each workload column gets an independent stream and
    /// the value never depends on which worker runs the cell or in what
    /// order.
    ///
    /// The scheduler name is deliberately **not** mixed in: every scheduler
    /// compared at the same `(bench, rate, n_jobs, seed)` must see the
    /// identical job trace, or cross-scheduler metrics (met ratios, the
    /// figure 6–10 grids) would pick up workload sampling noise instead of
    /// scheduler differences.
    pub fn cell_seed(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.eat(&self.seed.to_le_bytes());
        h.eat(self.bench.name().as_bytes());
        h.eat(b":");
        h.eat(self.rate.name().as_bytes());
        h.eat(&(self.n_jobs as u64).to_le_bytes());
        h.finish()
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:j{}:s{}",
            self.scheduler, self.bench, self.rate, self.n_jobs, self.seed
        )
    }
}

/// Error parsing a [`Scenario`] from its string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    input: String,
    reason: String,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid scenario `{}`: {} (expected SCHED:BENCH:RATE:jN:sSEED, e.g. LAX:IPV6:high:j128:s42)",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParseScenarioError {}

impl FromStr for Scenario {
    type Err = ParseScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |reason: String| ParseScenarioError { input: s.to_string(), reason };
        let parts: Vec<&str> = s.split(':').collect();
        let [scheduler, bench, rate, jobs, seed] = parts.as_slice() else {
            return Err(bad(format!("{} fields, expected 5", parts.len())));
        };
        let bench: Benchmark = bench.parse().map_err(|e: ParseSpecError| bad(e.to_string()))?;
        let rate: ArrivalRate = rate.parse().map_err(|e: ParseSpecError| bad(e.to_string()))?;
        let n_jobs = jobs
            .strip_prefix('j')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("bad job count `{jobs}`")))?;
        let seed = seed
            .strip_prefix('s')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("bad seed `{seed}`")))?;
        if scheduler.is_empty() {
            return Err(bad("empty scheduler name".to_string()));
        }
        Ok(Scenario::new(scheduler, bench, rate, n_jobs, seed))
    }
}

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
    /// The cell's worker panicked on every attempt; the sweep isolated the
    /// panic instead of unwinding through the pool.
    Panicked {
        /// How many times the cell was attempted before giving up.
        attempts: u32,
        /// The final panic payload, stringified.
        message: String,
    },
    /// The cell exceeded its per-cell wall-clock deadline
    /// ([`SweepOptions::cell_deadline`]).
    DeadlineExceeded {
        /// The configured limit.
        limit: WallDuration,
    },
    /// The caller's progress callback panicked mid-sweep; the workers were
    /// drained cleanly and the payload is reported here instead of
    /// poisoning the result channel.
    Callback(String),
    /// A filesystem operation (checkpoint write, results file) failed.
    Io(String),
    /// The cluster scenario's fleet fault plan is ill-formed for the fleet.
    FleetFault(FleetFaultError),
    /// A cluster knob is out of range: `slots` must be at least 1 and
    /// `jitter` must lie in `[0, 1)`.
    FleetKnob {
        /// Which knob (`slots` or `jitter`).
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
            BenchError::DeadlineExceeded { limit } => {
                write!(f, "cell exceeded its {limit:?} wall-clock deadline")
            }
            BenchError::Callback(msg) => write!(f, "progress callback panicked: {msg}"),
            BenchError::Io(msg) => write!(f, "I/O error: {msg}"),
            BenchError::FleetFault(e) => write!(f, "invalid fleet fault plan: {e}"),
            BenchError::FleetKnob { knob, value } => write!(
                f,
                "invalid fleet {knob} {value} (slots must be at least 1, jitter in [0, 1))"
            ),
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
/// The `Arc<Mutex<..>>` shape is what lets [`RunOptions`] be `Clone` (a
/// deadline-bounded cell re-runs on a helper thread with the same options)
/// while the caller keeps its own handle to read the observer back after the
/// run. Any concrete `Arc<Mutex<MetricsSampler>>`-style handle coerces to
/// this type at the call site.
pub type SharedObserver = Arc<Mutex<dyn Observer<ProbeEvent> + Send>>;

/// Everything that can vary about *how* one cell is executed, as opposed to
/// *what* it simulates (the [`Scenario`]): fault intensity, attached
/// observers, and an optional wall-clock deadline.
///
/// This is the single knob struct behind [`run_cell`], replacing the old
/// `run_scenario` / `run_faulty_scenario` / `run_faulty_scenario_observed`
/// trio. The default value runs the cell fault-free, unobserved and
/// unbounded — byte-identical to what plain `run_scenario` produced.
///
/// # Examples
///
/// ```
/// use lax_bench::sweep::{run_cell, RunOptions, Scenario};
/// use workloads::spec::{ArrivalRate, Benchmark};
///
/// let s = Scenario::new("LAX", Benchmark::Ipv6, ArrivalRate::Low, 4, 1);
/// let clean = run_cell(&s, &RunOptions::default()).unwrap();
/// let faulty = run_cell(&s, &RunOptions::default().fault_intensity(1.0)).unwrap();
/// assert_ne!(clean, faulty);
/// ```
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Fault-plan intensity ([`FaultPlan::seeded`] over the cell's seed and
    /// workload span); `0.0` (default) installs the empty plan, which is
    /// bit-identical to a build that never touches the faults API.
    pub fault_intensity: f64,
    /// Observers attached to the simulation's probe bus. Attaching
    /// observers never perturbs the report (the probe layer schedules no
    /// events), so observed and unobserved runs of the same cell are
    /// bit-identical; `observers_do_not_perturb_cell_reports` locks this in.
    pub observers: Vec<SharedObserver>,
    /// Per-cell wall-clock limit; `None` (default) runs the cell inline on
    /// the calling thread with no watcher overhead. When set, the cell runs
    /// on a helper thread so the caller can give up at the limit with
    /// [`BenchError::DeadlineExceeded`]; the abandoned helper finishes (or
    /// panics) detached and its result is discarded.
    pub deadline: Option<WallDuration>,
}

impl fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("fault_intensity", &self.fault_intensity)
            .field("observers", &self.observers.len())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl RunOptions {
    /// Sets the fault-plan intensity.
    pub fn fault_intensity(mut self, intensity: f64) -> Self {
        self.fault_intensity = intensity;
        self
    }

    /// Attaches one observer to the cell's probe bus. Concrete
    /// `Arc<Mutex<T>>` handles coerce to [`SharedObserver`] here, so callers
    /// pass `sampler.clone()` and keep their handle for reading results.
    pub fn observe(mut self, observer: SharedObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Sets the per-cell wall-clock deadline.
    pub fn deadline(mut self, limit: WallDuration) -> Self {
        self.deadline = Some(limit);
        self
    }
}

/// Runs one experiment cell under the given [`RunOptions`] — the sole cell
/// entrypoint (faults, observers and deadlines are all options, not
/// separate functions).
///
/// The fault plan is derived from [`Scenario::cell_seed`] — which excludes
/// the scheduler name — so every scheduler compared at one `(bench, rate,
/// n_jobs, seed, intensity)` cell faces the *identical* storm: the same
/// slowdown windows, CU outages, DRAM throttles and arrival bursts.
///
/// # Errors
///
/// Returns [`BenchError::UnknownScheduler`] for scheduler names outside the
/// registry, [`BenchError::Sim`] if the generated jobs cannot run or the
/// run hits a runtime fault (stall watchdog, event budget), and
/// [`BenchError::DeadlineExceeded`] past `opts.deadline` — no panics on
/// user input.
pub fn run_cell(scenario: &Scenario, opts: &RunOptions) -> Result<SimReport, BenchError> {
    match opts.deadline {
        None => run_cell_inline(scenario, opts),
        Some(limit) => {
            // Run on a helper thread so this thread can enforce the
            // deadline. On timeout the helper is abandoned (it keeps running
            // detached until its cell finishes; the send to the dropped
            // channel then fails silently). A panicking cell is re-raised
            // here so the caller sees the same unwind as the inline path.
            let (tx, rx) = mpsc::channel();
            let cell = scenario.clone();
            let inner = opts.clone();
            std::thread::spawn(move || {
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    run_cell_inline(&cell, &inner)
                }));
                let _ = tx.send(outcome);
            });
            match rx.recv_timeout(limit) {
                Ok(Ok(result)) => result,
                Ok(Err(payload)) => panic::resume_unwind(payload),
                Err(_) => Err(BenchError::DeadlineExceeded { limit }),
            }
        }
    }
}

/// The deadline-free cell body: generate jobs, seed the fault plan, attach
/// observers, run.
fn run_cell_inline(scenario: &Scenario, opts: &RunOptions) -> Result<SimReport, BenchError> {
    let suite = BenchmarkSuite::calibrated();
    let mut jobs =
        suite.generate_jobs(scenario.bench, scenario.rate, scenario.n_jobs, scenario.cell_seed());
    let mode = registry::try_build(&scenario.scheduler)?;
    let cfg = GpuConfig::default();
    // Faults are drawn over the span jobs can occupy: last arrival plus the
    // latest relative deadline, so late windows still overlap live work.
    let span = jobs
        .iter()
        .map(|j| j.arrival.saturating_since(Cycle::ZERO) + j.deadline)
        .max()
        .unwrap_or(Duration::ZERO);
    let plan = FaultPlan::seeded(scenario.cell_seed(), opts.fault_intensity, span, cfg.num_cus);
    apply_bursts(&mut jobs, &plan.bursts);
    let mut builder = Simulation::builder()
        .offline_rates(suite.offline_rates())
        .jobs(jobs)
        .scheduler(mode)
        .faults(plan);
    for obs in &opts.observers {
        builder = builder.observe(Box::new(Arc::clone(obs)));
    }
    let mut sim = builder.build()?;
    sim.try_run().map_err(BenchError::Sim)
}

/// Worker-thread count used when a binary gets no `--jobs` flag: the
/// `LAX_BENCH_JOBS` environment variable if set and positive, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_jobs() -> usize {
    std::env::var("LAX_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Splits a `--jobs N` (or `--jobs=N`) flag out of CLI arguments, returning
/// the worker count and the remaining positional arguments in order. With
/// no flag the count falls back to [`default_jobs`]; a malformed or
/// non-positive count is reported on stderr and also falls back.
///
/// # Examples
///
/// ```
/// let (jobs, rest) = lax_bench::sweep::jobs_from_cli(
///     ["64", "--jobs", "4"].iter().map(|s| s.to_string()),
/// );
/// assert_eq!(jobs, 4);
/// assert_eq!(rest, vec!["64".to_string()]);
/// ```
pub fn jobs_from_cli(args: impl Iterator<Item = String>) -> (usize, Vec<String>) {
    let mut jobs = None;
    let mut rest = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let value = if arg == "--jobs" || arg == "-j" {
            // Only consume the next token as the value when it looks like
            // one; `--jobs --verbose` must not eat `--verbose`.
            match args.peek() {
                Some(next) if !next.starts_with('-') => args.next(),
                _ => {
                    eprintln!("warning: {arg} is missing its value (want a positive integer)");
                    continue;
                }
            }
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            Some(v.to_string())
        } else {
            rest.push(arg);
            continue;
        };
        match value.as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) if n > 0 => jobs = Some(n),
            _ => eprintln!(
                "warning: ignoring bad --jobs value {:?} (want a positive integer)",
                value.unwrap_or_default()
            ),
        }
    }
    (jobs.unwrap_or_else(default_jobs), rest)
}

/// Progress of a sweep, reported once per finished cell (on the calling
/// thread, in completion order).
#[derive(Debug, Clone, Copy)]
pub struct Progress<'a> {
    /// Cells finished so far (including this one).
    pub done: usize,
    /// Total cells in the sweep.
    pub total: usize,
    /// The cell that just finished.
    pub scenario: &'a Scenario,
    /// Wall time this cell took on its worker.
    pub cell_wall: WallDuration,
    /// Whether the cell produced a report (vs a [`BenchError`]).
    pub ok: bool,
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

/// The fan-out engine underneath [`par_map_with`] and [`run_sweep_opts`]:
/// returns the per-item results **in input order** plus the first panic the
/// `on_done` callback raised, if any.
///
/// A panicking callback must not poison the sweep: workers block on an
/// unbounded channel send only when the receiver has hung up, so if the
/// drain loop unwound mid-sweep the scope join would deadlock-free but the
/// results would be lost and the panic would tear through caller frames
/// that hold checkpoints half-written. Instead the callback runs under
/// `catch_unwind`; on a panic the drain keeps consuming (workers finish
/// their cells and exit cleanly) but stops invoking the callback, and the
/// payload is handed back for the caller to surface as a typed error.
fn par_map_catching<T, R, F>(
    items: &[T],
    jobs: usize,
    f: F,
    mut on_done: impl FnMut(usize, &R, WallDuration),
) -> (Vec<R>, Option<String>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R, WallDuration)>();
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut callback_panic: Option<String> = None;
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let t0 = Instant::now();
                let r = f(&items[i]);
                if tx.send((i, r, t0.elapsed())).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        while let Ok((i, r, wall)) = rx.recv() {
            if callback_panic.is_none() {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| on_done(i, &r, wall)))
                {
                    callback_panic = Some(panic_message(&*payload));
                }
            }
            results[i] = Some(r);
        }
    });
    let results = results
        .into_iter()
        .map(|r| r.expect("every index was sent exactly once"))
        .collect();
    (results, callback_panic)
}

/// Fans `items` across `jobs` scoped worker threads and returns `f(item)`
/// for each, **in input order**. `on_done(index, wall)` fires on the
/// calling thread as each item finishes (completion order).
///
/// The engine underneath [`run_sweep`], exposed for sweeps whose cells are
/// not [`Scenario`]s (e.g. the ablation binary's `LaxConfig` variants).
///
/// # Panics
///
/// If `on_done` panics, every in-flight cell still completes and the
/// workers exit cleanly before the panic resumes on the calling thread
/// ([`run_sweep`] converts the same situation into
/// [`BenchError::Callback`] instead).
pub fn par_map_with<T, R, F>(
    items: &[T],
    jobs: usize,
    f: F,
    on_done: impl FnMut(usize, &R, WallDuration),
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (results, callback_panic) = par_map_catching(items, jobs, f, on_done);
    if let Some(msg) = callback_panic {
        panic!("par_map_with progress callback panicked: {msg}");
    }
    results
}

/// [`par_map_with`] without the completion callback.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, jobs, f, |_, _, _| {})
}

/// Robustness knobs for a sweep: worker count, per-cell panic isolation
/// with bounded retry, and an optional per-cell wall-clock deadline.
///
/// The defaults reproduce the plain [`run_sweep`] behaviour (isolate
/// panics, one retry, default [`RunOptions`]), so figure binaries opt in
/// only to what they need.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker-thread count (see [`default_jobs`]).
    pub jobs: usize,
    /// Extra attempts after a cell panics. The simulator is deterministic,
    /// so a panic usually recurs — the retry guards against environmental
    /// failures (allocation pressure on a loaded machine) and bounds how
    /// long a genuinely broken cell is hammered.
    pub retries: u32,
    /// Per-cell execution options, passed through to [`run_cell`].
    pub run: RunOptions,
}

impl SweepOptions {
    /// Options for a plain sweep on `jobs` workers.
    pub fn new(jobs: usize) -> Self {
        SweepOptions { jobs, retries: 1, run: RunOptions::default() }
    }

    /// Sets the number of extra attempts after a panic.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the per-cell wall-clock deadline ([`RunOptions::deadline`]).
    pub fn cell_deadline(mut self, limit: WallDuration) -> Self {
        self.run.deadline = Some(limit);
        self
    }

    /// Sets the fault-plan intensity for every cell
    /// ([`RunOptions::fault_intensity`]).
    pub fn fault_intensity(mut self, intensity: f64) -> Self {
        self.run.fault_intensity = intensity;
        self
    }
}

/// Runs one cell under [`SweepOptions`]: catch panics, retry a bounded
/// number of times, and (when configured) give up at the wall-clock
/// deadline. The per-cell building block of [`run_sweep_opts`], public so
/// binaries with non-`Scenario` grids (the fault sweep varies intensity
/// per cell) get the same isolation.
///
/// # Errors
///
/// Everything [`run_cell`] reports, plus [`BenchError::Panicked`].
pub fn run_cell_opts(scenario: &Scenario, opts: &SweepOptions) -> Result<SimReport, BenchError> {
    run_cell_profiled(scenario, opts).0
}

/// [`run_cell_opts`], additionally reporting how many attempts the cell
/// consumed (1 for a clean first run; retries = attempts − 1). The sweep
/// profiler records this into the checkpoint so resumed runs still know
/// which cells were flaky.
pub fn run_cell_profiled(
    scenario: &Scenario,
    opts: &SweepOptions,
) -> (Result<SimReport, BenchError>, u32) {
    let attempts = opts.retries.saturating_add(1);
    let mut last_panic = String::new();
    for attempt in 1..=attempts {
        match panic::catch_unwind(AssertUnwindSafe(|| run_cell(scenario, &opts.run))) {
            Ok(result) => return (result, attempt),
            Err(payload) => last_panic = panic_message(&*payload),
        }
    }
    (Err(BenchError::Panicked { attempts, message: last_panic }), attempts)
}

/// Runs every scenario on a pool of `jobs` worker threads, returning the
/// per-cell results **in input order**. `on_progress` fires on the calling
/// thread once per finished cell.
///
/// Cell failures — unknown scheduler, invalid jobs, runtime faults, even a
/// panicking cell — are reported per cell, never aborting the rest of the
/// grid.
///
/// # Errors
///
/// The outer `Err` is reserved for a panicking `on_progress` callback
/// ([`BenchError::Callback`]): the workers are drained cleanly first, then
/// the panic is surfaced as a value instead of unwinding mid-sweep.
pub fn run_sweep<'s>(
    scenarios: &'s [Scenario],
    jobs: usize,
    on_progress: impl FnMut(Progress<'s>),
) -> Result<Vec<Result<SimReport, BenchError>>, BenchError> {
    run_sweep_opts(scenarios, &SweepOptions::new(jobs), on_progress)
}

/// [`run_sweep`] with explicit [`SweepOptions`] (retry budget, per-cell
/// deadline, fault intensity).
///
/// # Errors
///
/// Same contract as [`run_sweep`].
pub fn run_sweep_opts<'s>(
    scenarios: &'s [Scenario],
    opts: &SweepOptions,
    mut on_progress: impl FnMut(Progress<'s>),
) -> Result<Vec<Result<SimReport, BenchError>>, BenchError> {
    let total = scenarios.len();
    let mut done = 0;
    let (results, callback_panic) = par_map_catching(
        scenarios,
        opts.jobs,
        |s| run_cell_opts(s, opts),
        |i, r, cell_wall| {
            done += 1;
            on_progress(Progress {
                done,
                total,
                scenario: &scenarios[i],
                cell_wall,
                ok: r.is_ok(),
            });
        },
    );
    match callback_panic {
        Some(msg) => Err(BenchError::Callback(msg)),
        None => Ok(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheduler: &str) -> Scenario {
        Scenario::new(scheduler, Benchmark::Ipv6, ArrivalRate::Low, 4, 1)
    }

    #[test]
    fn scenario_round_trips_through_strings() {
        for s in [
            Scenario::new("LAX", Benchmark::Ipv6, ArrivalRate::High, 128, 20210301),
            Scenario::new("LAX-SW", Benchmark::Hybrid, ArrivalRate::Medium, 1, 0),
            Scenario::new("RR", Benchmark::Stem, ArrivalRate::Low, 64, u64::MAX),
        ] {
            let text = s.to_string();
            assert_eq!(text.parse::<Scenario>().unwrap(), s, "{text}");
        }
    }

    #[test]
    fn scenario_parse_rejects_malformed_input() {
        // (input, expected fragment of the reason) — every arm of the
        // parser's error handling, so CLI typos always get a diagnosis.
        for (bad, why) in [
            ("", "1 fields"),
            ("LAX", "1 fields"),
            ("LAX:IPV6:high:j128", "4 fields"),
            ("LAX:IPV6:high:j128:s42:extra", "6 fields"),
            ("LAX:WARP9:high:j128:s42", "WARP9"),
            ("LAX:IPV6:sometimes:j128:s42", "sometimes"),
            ("LAX:IPV6:high:128:s42", "bad job count"),
            ("LAX:IPV6:high:j128:42", "bad seed"),
            ("LAX:IPV6:high:jxx:s42", "bad job count"),
            ("LAX:IPV6:high:j128:sQQ", "bad seed"),
            (":IPV6:high:j128:s42", "empty scheduler"),
        ] {
            let err = bad.parse::<Scenario>();
            assert!(err.is_err(), "`{bad}` should not parse");
            let msg = err.unwrap_err().to_string();
            assert!(msg.contains("invalid scenario"), "{msg}");
            assert!(msg.contains(why), "`{bad}` should diagnose `{why}`, got: {msg}");
            assert!(msg.contains(bad), "the error must echo the input: {msg}");
        }
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

    #[test]
    fn sweep_reports_bad_cells_without_aborting_good_ones() {
        let scenarios = vec![tiny("RR"), tiny("NOPE"), tiny("EDF")];
        let mut seen = 0;
        let results = run_sweep(&scenarios, 2, |p| {
            seen += 1;
            assert_eq!(p.total, 3);
        })
        .unwrap();
        assert_eq!(seen, 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(BenchError::UnknownScheduler(_))));
        assert!(results[2].is_ok());
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
        let serial = run_sweep(&scenarios, 1, |_| {}).unwrap();
        let parallel = run_sweep(&scenarios, 8, |_| {}).unwrap();
        for ((s, a), b) in scenarios.iter().zip(&serial).zip(&parallel) {
            let a = a.as_ref().expect("serial cell ran");
            let b = b.as_ref().expect("parallel cell ran");
            assert_eq!(a, b, "{s} must be bit-identical across thread counts");
        }
    }

    #[test]
    fn jobs_flag_parses_and_leaves_positionals() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter();
        let (j, rest) = jobs_from_cli(argv(&["128", "--jobs", "3", "x"]));
        assert_eq!(j, 3);
        assert_eq!(rest, vec!["128".to_string(), "x".to_string()]);
        let (j, rest) = jobs_from_cli(argv(&["--jobs=5"]));
        assert_eq!(j, 5);
        assert!(rest.is_empty());
        let (j, _) = jobs_from_cli(argv(&["-j", "2"]));
        assert_eq!(j, 2);
        // A bad value is ignored, leaving the default.
        let (j, _) = jobs_from_cli(argv(&["--jobs", "zero"]));
        assert!(j >= 1);
    }

    #[test]
    fn jobs_flag_missing_value_does_not_eat_the_next_flag() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter();
        // `--jobs --verbose`: --verbose is not a value; it must survive.
        let (j, rest) = jobs_from_cli(argv(&["--jobs", "--verbose"]));
        assert!(j >= 1);
        assert_eq!(rest, vec!["--verbose".to_string()]);
        let (j, rest) = jobs_from_cli(argv(&["-j"]));
        assert!(j >= 1);
        assert!(rest.is_empty());
        let (j, rest) = jobs_from_cli(argv(&["-j", "-j", "2"]));
        assert_eq!(j, 2);
        assert!(rest.is_empty());
    }

    #[test]
    #[should_panic(expected = "contains ':'")]
    fn scenario_new_rejects_colon_in_scheduler_name() {
        let _ = Scenario::new("LAX:EVIL", Benchmark::Ipv6, ArrivalRate::High, 1, 1);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_cell_becomes_a_typed_error_after_bounded_retries() {
        // A negative intensity trips an assert inside the cell body — a
        // stand-in for any cell-local panic. The sweep must isolate it.
        let scenarios = vec![tiny("RR"), tiny("EDF")];
        let opts = SweepOptions::new(2).retries(2).fault_intensity(-1.0);
        let results = run_sweep_opts(&scenarios, &opts, |_| {}).unwrap();
        for r in &results {
            match r {
                Err(BenchError::Panicked { attempts, message }) => {
                    assert_eq!(*attempts, 3, "1 try + 2 retries");
                    assert!(message.contains("non-negative"), "{message}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn callback_panic_is_drained_and_surfaced_not_propagated() {
        let scenarios = vec![tiny("RR"), tiny("EDF"), tiny("LAX"), tiny("SJF")];
        let mut calls = 0;
        let err = run_sweep(&scenarios, 2, |_| {
            calls += 1;
            panic!("boom in progress bar");
        })
        .unwrap_err();
        match err {
            BenchError::Callback(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Callback, got {other:?}"),
        }
        assert_eq!(calls, 1, "callback must not be re-entered after panicking");
    }

    #[test]
    fn cell_deadline_times_out_as_a_typed_error() {
        let scenarios = vec![tiny("RR")];
        let opts = SweepOptions::new(1).cell_deadline(WallDuration::ZERO);
        let results = run_sweep_opts(&scenarios, &opts, |_| {}).unwrap();
        match &results[0] {
            Err(BenchError::DeadlineExceeded { limit }) => {
                assert_eq!(*limit, WallDuration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_cell_deadline_still_returns_the_report() {
        let scenarios = vec![tiny("RR")];
        let opts = SweepOptions::new(1).cell_deadline(WallDuration::from_secs(300));
        let deadline = run_sweep_opts(&scenarios, &opts, |_| {}).unwrap();
        let plain = run_sweep(&scenarios, 1, |_| {}).unwrap();
        assert_eq!(
            deadline[0].as_ref().unwrap(),
            plain[0].as_ref().unwrap(),
            "the helper-thread path must not perturb results"
        );
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
        let storm = RunOptions::default().fault_intensity(1.0);
        let a = run_cell(&s, &storm).unwrap();
        let b = run_cell(&s, &storm).unwrap();
        assert_eq!(a, b, "same intensity, same storm, same report");
        let clean = run_cell(&s, &RunOptions::default()).unwrap();
        assert_ne!(a, clean, "an intensity-1.0 storm must perturb the run");
    }

    #[test]
    fn deadline_and_panic_compose_into_the_panicked_error() {
        // A cell that panics *before* its generous deadline must surface as
        // Panicked, not DeadlineExceeded: the helper thread re-raises the
        // panic on the caller, and the retry loop converts it.
        let s = tiny("RR");
        let opts = SweepOptions::new(1)
            .retries(0)
            .cell_deadline(WallDuration::from_secs(300))
            .fault_intensity(-1.0);
        match run_cell_profiled(&s, &opts) {
            (Err(BenchError::Panicked { attempts: 1, message }), 1) => {
                assert!(message.contains("non-negative"), "{message}");
            }
            other => panic!("expected Panicked after 1 attempt, got {other:?}"),
        }
    }
}
