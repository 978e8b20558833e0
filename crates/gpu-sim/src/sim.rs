//! The simulation front door: parameters, the fluent builder, and the
//! [`Simulation`] handle that ties the subsystems to the event engine.
//!
//! The machinery lives elsewhere: [`crate::engine`] owns the event queue
//! and run loop, [`crate::state`] aggregates per-subsystem state, and the
//! subsystem modules ([`crate::cp_frontend`], [`crate::dispatch`],
//! [`crate::exec`], [`crate::memsys`], [`crate::host`]) each own one slice
//! of the machine.

use std::fmt;
use std::sync::Arc;

use sim_core::probe::{Observer, ProbeHub};
use sim_core::time::{Cycle, Duration};

use crate::config::GpuConfig;
use crate::counters::Counters;
use crate::cp_frontend::CpFrontend;
use crate::dispatch::Dispatch;
use crate::energy::EnergyMeter;
use crate::engine::{self, Engine};
use crate::exec::Exec;
use crate::faults::{FaultInjector, FaultPlan};
use crate::host::{HostJob, HostModel, HostScheduler};
use crate::job::{JobDesc, JobFate, JobId};
use crate::kernel::{KernelClassId, KernelDesc};
use crate::memsys::MemSys;
use crate::metrics::{JobRecord, SimReport};
use crate::probe::ProbeEvent;
use crate::queue::ComputeQueue;
use crate::scheduler::{CpScheduler, RoundRobin};
use crate::state::{Shared, SimState};

/// Which side owns scheduling decisions.
pub enum SchedulerMode {
    /// Scheduler runs inside the GPU command processor.
    Cp(Box<dyn CpScheduler>),
    /// Scheduler runs on the host CPU, paying host-device latencies.
    Host(Box<dyn HostScheduler>),
}

impl fmt::Debug for SchedulerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerMode::Cp(s) => write!(f, "Cp({})", s.name()),
            SchedulerMode::Host(s) => write!(f, "Host({})", s.name()),
        }
    }
}

impl SchedulerMode {
    /// Scheduler name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerMode::Cp(s) => s.name(),
            SchedulerMode::Host(s) => s.name(),
        }
    }
}

pub use crate::error::SimError;

/// Tunables beyond the machine configuration.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Machine configuration.
    pub config: GpuConfig,
    /// Counter / profiling-table refresh period (paper: 100 us).
    pub profiling_period: Duration,
    /// Hard stop; defaults to last arrival + 500 ms when `None`.
    pub horizon: Option<Cycle>,
    /// Offline per-class isolated rates (WGs/us) for profile-driven
    /// schedulers, typically measured by [`run_isolated`].
    pub offline_rates: Vec<(KernelClassId, f64)>,
    /// Deterministic fault schedule. [`FaultPlan::none`] (the default)
    /// schedules no events and is bit-identical to a build without faults.
    pub faults: FaultPlan,
    /// Hard cap on total events processed; exceeding it aborts the run
    /// with [`SimError::EventBudgetExceeded`]. `None` (default) = unlimited.
    pub event_budget: Option<u64>,
    /// Hard cap on jobs backlogged waiting for a compute queue; exceeding
    /// it aborts with [`SimError::QueueOverflow`]. `None` (default) =
    /// unlimited (matching real hardware, which blocks the submitter).
    pub max_backlog: Option<usize>,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            config: GpuConfig::default(),
            profiling_period: Duration::from_us(100),
            horizon: None,
            offline_rates: Vec::new(),
            faults: FaultPlan::none(),
            event_budget: None,
            max_backlog: None,
        }
    }
}

/// The complete simulation: the event engine plus all subsystem state.
pub struct Simulation {
    engine: Engine,
    st: SimState,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("scheduler", &self.st.shared.mode.name())
            .field("jobs", &self.st.shared.jobs.len())
            .field("resolved", &self.st.shared.resolved)
            .field("now", &self.engine.clock)
            .finish()
    }
}

/// Fluent constructor for [`Simulation`], the preferred front door:
///
/// ```
/// use gpu_sim::prelude::*;
/// use std::sync::Arc;
///
/// let kernel = Arc::new(KernelDesc::new(
///     KernelClassId(0), "k", 256, 64, 16, 0, ComputeProfile::compute_only(1_000),
/// ));
/// let job = JobDesc::chain(JobId(0), "demo", vec![kernel], Duration::from_us(100), Cycle::ZERO)?;
/// let mut sim = Simulation::builder()
///     .jobs(vec![job])
///     .scheduler(SchedulerMode::Cp(Box::new(RoundRobin::new())))
///     .build()?;
/// assert_eq!(sim.run().deadlines_met(), 1);
/// # Ok::<(), gpu_sim::sim::SimError>(())
/// ```
///
/// Every knob of [`SimParams`] has a setter; unset fields keep their
/// defaults, and the scheduler defaults to the contemporary round-robin
/// baseline.
pub struct SimBuilder {
    params: SimParams,
    jobs: Vec<JobDesc>,
    mode: SchedulerMode,
    observers: Vec<Box<dyn Observer<ProbeEvent> + Send>>,
}

impl fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder")
            .field("params", &self.params)
            .field("jobs", &self.jobs.len())
            .field("mode", &self.mode)
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder {
            params: SimParams::default(),
            jobs: Vec::new(),
            mode: SchedulerMode::Cp(Box::new(RoundRobin::new())),
            observers: Vec::new(),
        }
    }
}

impl SimBuilder {
    /// Replaces the whole parameter block (keeps other builder state).
    pub fn params(mut self, params: SimParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the machine configuration.
    pub fn config(mut self, config: GpuConfig) -> Self {
        self.params.config = config;
        self
    }

    /// Sets the counter / profiling-table refresh period (paper: 100 us).
    pub fn profiling_period(mut self, period: Duration) -> Self {
        self.params.profiling_period = period;
        self
    }

    /// Sets a hard stop for the event loop.
    pub fn horizon(mut self, horizon: Cycle) -> Self {
        self.params.horizon = Some(horizon);
        self
    }

    /// Sets the offline per-class isolated rates for profile-driven
    /// schedulers (typically from [`run_isolated`]).
    pub fn offline_rates(mut self, rates: Vec<(KernelClassId, f64)>) -> Self {
        self.params.offline_rates = rates;
        self
    }

    /// Sets the deterministic fault schedule ([`FaultPlan::none`] to
    /// disable; validated against the machine by [`SimBuilder::build`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.params.faults = plan;
        self
    }

    /// Caps the total number of events a run may process (runaway guard);
    /// exceeding it makes the run fail with
    /// [`SimError::EventBudgetExceeded`].
    pub fn event_budget(mut self, budget: u64) -> Self {
        self.params.event_budget = Some(budget);
        self
    }

    /// Caps the compute-queue backlog; exceeding it makes the run fail
    /// with [`SimError::QueueOverflow`].
    pub fn max_backlog(mut self, limit: usize) -> Self {
        self.params.max_backlog = Some(limit);
        self
    }

    /// Sets the job stream (must be sorted by arrival with dense ids
    /// `0..n`; validated by [`SimBuilder::build`]).
    pub fn jobs(mut self, jobs: Vec<JobDesc>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the scheduler (either side). Defaults to CP round-robin.
    pub fn scheduler(mut self, mode: SchedulerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for a command-processor scheduler.
    pub fn cp(self, sched: impl CpScheduler + 'static) -> Self {
        self.scheduler(SchedulerMode::Cp(Box::new(sched)))
    }

    /// Shorthand for a host-side scheduler.
    pub fn host(self, sched: impl HostScheduler + 'static) -> Self {
        self.scheduler(SchedulerMode::Host(Box::new(sched)))
    }

    /// Attaches a probe observer (e.g. [`crate::probe::MetricsSampler`] or
    /// [`crate::probe::ChromeTraceWriter`]) to the simulation's probe hub.
    /// Observers receive every [`ProbeEvent`] the run fires; attaching one
    /// never perturbs simulation results (no events are scheduled on its
    /// behalf).
    pub fn observe(mut self, observer: Box<dyn Observer<ProbeEvent> + Send>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Validates everything and constructs the [`Simulation`]. This is the
    /// single constructor body; [`Simulation::new`] delegates here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid or a job cannot
    /// run on the machine.
    pub fn build(self) -> Result<Simulation, SimError> {
        let SimBuilder { params, jobs, mode, observers } = self;
        params.config.validate().map_err(SimError::Config)?;
        params.faults.validate(params.config.num_cus).map_err(SimError::Fault)?;
        let mut max_class = 0usize;
        let mut last_arrival = Cycle::ZERO;
        for (i, j) in jobs.iter().enumerate() {
            if j.id.0 as usize != i {
                return Err(SimError::Job(format!(
                    "job ids must be dense; job {i} has id {}",
                    j.id.0
                )));
            }
            if i > 0 && j.arrival < jobs[i - 1].arrival {
                return Err(SimError::Job("jobs must be sorted by arrival".into()));
            }
            // Graph shape (non-empty, acyclic) is guaranteed by `JobGraph`
            // construction; the deadline stays a public field, so re-check it.
            if j.deadline.is_zero() {
                return Err(SimError::Graph { job: i, source: crate::job::JobError::ZeroDeadline });
            }
            for k in j.kernels() {
                k.validate(&params.config).map_err(SimError::Job)?;
                max_class = max_class.max(k.class.index() + 1);
            }
            last_arrival = last_arrival.max(j.arrival);
        }
        for (c, _) in &params.offline_rates {
            max_class = max_class.max(c.index() + 1);
        }
        let mut counters = Counters::new(max_class.max(1), params.profiling_period);
        for (c, r) in &params.offline_rates {
            counters.set_offline_rate(*c, *r);
        }
        let horizon = params.horizon.unwrap_or(last_arrival + Duration::from_ms(500));
        let jobs: Vec<Arc<JobDesc>> = jobs.into_iter().map(Arc::new).collect();
        let records = jobs
            .iter()
            .map(|j| JobRecord {
                id: j.id,
                bench: j.bench.clone(),
                arrival: j.arrival,
                deadline_abs: j.absolute_deadline(),
                fate: JobFate::Unfinished,
                wgs_executed: 0.0,
            })
            .collect();
        let host_jobs: Vec<HostJob> = jobs.iter().map(|j| HostJob::new(j.clone())).collect();
        let shared = Shared {
            queues: vec![ComputeQueue::default(); params.config.num_queues],
            counters,
            energy: EnergyMeter::new(params.config.energy.clone()),
            mode,
            jobs,
            records,
            resolved: 0,
            queue_of_job: std::collections::HashMap::new(),
            probes: ProbeHub::new(),
            total_wgs: 0,
            last_resolution: Cycle::ZERO,
            max_backlog: params.max_backlog,
            fatal: None,
            injector: FaultInjector::new(params.faults.clone()),
            cfg: params.config.clone(),
        };
        let mut sim = Simulation {
            engine: Engine::new(
                horizon,
                params.profiling_period,
                params.faults.transitions(),
                params.event_budget,
            ),
            st: SimState {
                exec: Exec::new(&params.config),
                mem: MemSys::new(params.config.num_cus, &params.config.mem),
                cp: CpFrontend::default(),
                dispatch: Dispatch::default(),
                host: HostModel::new(host_jobs),
                shared,
            },
        };
        for obs in observers {
            sim.attach_observer(obs);
        }
        Ok(sim)
    }
}

impl Simulation {
    /// Starts a [`SimBuilder`] with default parameters, no jobs, and the
    /// round-robin scheduler.
    pub fn builder() -> SimBuilder {
        SimBuilder::default()
    }

    /// Builds a simulation over `jobs` (which must be sorted by arrival and
    /// have ids `0..n` in order) using the given scheduler.
    ///
    /// Equivalent to [`Simulation::builder`] with every field given; the
    /// builder is preferred at call sites that do not set all three.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid or a job cannot
    /// run on the machine.
    pub fn new(
        params: SimParams,
        jobs: Vec<JobDesc>,
        mode: SchedulerMode,
    ) -> Result<Self, SimError> {
        SimBuilder::default().params(params).jobs(jobs).scheduler(mode).build()
    }

    /// Runs the simulation to completion (all jobs resolved or the horizon
    /// reached) and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the run aborts with a runtime fault ([`SimError::Stalled`],
    /// [`SimError::EventBudgetExceeded`], [`SimError::QueueOverflow`]);
    /// callers that configure those guards should use
    /// [`Simulation::try_run`] instead.
    pub fn run(&mut self) -> SimReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Runs the simulation, converting livelock, event-budget exhaustion
    /// and queue overflow into typed errors instead of hanging or
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if simulated time stops advancing,
    /// [`SimError::EventBudgetExceeded`] if [`SimParams::event_budget`] is
    /// exhausted, or [`SimError::QueueOverflow`] if the compute-queue
    /// backlog exceeds [`SimParams::max_backlog`].
    pub fn try_run(&mut self) -> Result<SimReport, SimError> {
        engine::run(&mut self.engine, &mut self.st)?;
        Ok(self.report())
    }

    /// Attaches a probe observer to the running (or not-yet-run) simulation.
    /// Equivalent to [`SimBuilder::observe`]; attaching never perturbs
    /// simulation results.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer<ProbeEvent> + Send>) {
        self.st.shared.probes.attach(observer);
    }

    fn report(&self) -> SimReport {
        let sh = &self.st.shared;
        let end = if sh.resolved == sh.jobs.len() {
            sh.last_resolution
        } else {
            self.engine.horizon.min(self.engine.clock)
        };
        let makespan = end.saturating_since(Cycle::ZERO);
        SimReport {
            scheduler: sh.mode.name().to_string(),
            records: sh.records.clone(),
            makespan,
            energy_mj: sh.energy.total_mj(makespan),
            total_wgs: sh.total_wgs,
            l1_hit_rate: self.st.mem.l1_hit_rate(),
            l2_hit_rate: self.st.mem.l2_hit_rate(),
            events: self.engine.events_handled,
        }
    }
}

/// Measures the isolated execution time of `kernel` on an otherwise idle
/// default-configured GPU — the "offline profiling" the paper's baselines
/// (Baymax, Prophet, SJF) rely on, and our calibration oracle for Table 1.
///
/// # Errors
///
/// Returns [`SimError`] if the kernel cannot run on the machine.
pub fn run_isolated(config: &GpuConfig, kernel: Arc<KernelDesc>) -> Result<Duration, SimError> {
    let job =
        JobDesc::chain(JobId(0), "isolated", vec![kernel], Duration::from_ms(10_000), Cycle::ZERO)?;
    let params = SimParams {
        config: config.clone(),
        horizon: Some(Cycle::ZERO + Duration::from_ms(60_000)),
        ..SimParams::default()
    };
    let mut sim =
        Simulation::new(params, vec![job], SchedulerMode::Cp(Box::new(RoundRobin::new())))?;
    let report = sim.run();
    report.records[0]
        .latency()
        .ok_or_else(|| SimError::Job("kernel did not finish before the horizon".into()))
}
