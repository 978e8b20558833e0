//! The run knobs: [`ClusterBuilder`], its checkpoint key, and the one
//! command-line parser of the fleet binaries' knobs.

use std::fmt;

use gpu_sim::prelude::*;
use schedulers::routing;
use workloads::suite::BenchmarkSuite;

use super::arrivals::{job_stream, last_arrival, MAX_JOBS};
use super::{ClusterReport, ClusterScenario};
use crate::cli::{default_jobs, Cli, CliError};
use crate::sweep::{BenchError, SharedObserver};

/// Builds a cluster run, mirroring `gpu_sim`'s `SimBuilder`: construct
/// with [`ClusterBuilder::new`], chain option setters, then
/// [`ClusterBuilder::run`].
#[derive(Clone)]
pub struct ClusterBuilder {
    pub(super) scenario: ClusterScenario,
    pub(super) fidelity: Fidelity,
    pub(super) device_scheduler: String,
    pub(super) slots: usize,
    pub(super) jitter: f64,
    pub(super) workers: usize,
    pub(super) observers: Vec<SharedObserver>,
    pub(super) fleet_faults: Option<FleetFaultPlan>,
    pub(super) retry_budget: u32,
    pub(super) retry_backoff: Duration,
    pub(super) shed_degraded: bool,
}

impl fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("scenario", &self.scenario)
            .field("fidelity", &self.fidelity)
            .field("device_scheduler", &self.device_scheduler)
            .field("slots", &self.slots)
            .field("jitter", &self.jitter)
            .field("workers", &self.workers)
            .field("observers", &self.observers.len())
            .field("fleet_faults", &self.fleet_faults)
            .field("retry_budget", &self.retry_budget)
            .field("retry_backoff", &self.retry_backoff)
            .field("shed_degraded", &self.shed_degraded)
            .finish()
    }
}

/// The run's checkpoint key: the cell string, then the flag of each knob
/// [`knobs_from_cli`] sets that differs from its default, as
/// `LL:HYBRID:high:d4:j2000:s7:f1 --retry-budget 0 --shed`. A default run's
/// key is the bare cell string, and a resumed grid restores only a report
/// made under the same knobs. Workers and observers never change a report,
/// so they are not part of the key; neither is a plan injected with
/// [`ClusterBuilder::fleet_faults`], which no grid sets.
impl fmt::Display for ClusterBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = ClusterBuilder::new(self.scenario.clone());
        write!(f, "{}", self.scenario)?;
        if self.fidelity != d.fidelity {
            write!(f, " --fidelity {}", self.fidelity)?;
        }
        if self.device_scheduler != d.device_scheduler {
            write!(f, " --scheduler {}", self.device_scheduler)?;
        }
        if self.slots != d.slots {
            write!(f, " --slots {}", self.slots)?;
        }
        if self.jitter.to_bits() != d.jitter.to_bits() {
            write!(f, " --jitter {}", self.jitter)?;
        }
        if self.retry_budget != d.retry_budget {
            write!(f, " --retry-budget {}", self.retry_budget)?;
        }
        if self.retry_backoff != d.retry_backoff {
            write!(f, " --backoff-us {}", self.retry_backoff.as_us_f64())?;
        }
        if self.shed_degraded {
            f.write_str(" --shed")?;
        }
        Ok(())
    }
}

impl ClusterBuilder {
    /// A builder with the defaults: fast fidelity, LAX device scheduler
    /// (detailed tier only), one service slot per compute unit of the
    /// Table 2 machine, 2% service jitter, [`default_jobs`] workers.
    pub fn new(scenario: ClusterScenario) -> Self {
        ClusterBuilder {
            scenario,
            fidelity: Fidelity::Fast,
            device_scheduler: "LAX".to_string(),
            slots: GpuConfig::default().num_cus as usize,
            jitter: 0.02,
            workers: default_jobs(),
            observers: Vec::new(),
            fleet_faults: None,
            retry_budget: 3,
            retry_backoff: Duration::from_us(100),
            shed_degraded: false,
        }
    }

    /// Selects the device fidelity tier.
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Scheduler each detailed-tier device runs (registry name; the fast
    /// tier has no scheduler — it is a FIFO queueing model).
    pub fn device_scheduler(mut self, name: &str) -> Self {
        self.device_scheduler = name.to_string();
        self
    }

    /// Concurrent service slots per device, for the router's free-time
    /// model and the fast tier's servers.
    pub fn slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Half-width of the fast tier's uniform service-jitter multiplier.
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Worker threads the detailed tier's per-device simulations are
    /// fanned across; the fast tier runs in one serial pass. The report is
    /// bit-identical for any value (device seeds never depend on workers).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches an observer to the cluster's probe bus.
    ///
    /// Event vocabulary, per run: one [`ProbeEvent::JobRouted`],
    /// [`ProbeEvent::JobRejected`] or [`ProbeEvent::JobShed`] per arrival
    /// and one [`ProbeEvent::JobRetried`] per recovered placement,
    /// delivered live in arrival order; [`ProbeEvent::DeviceDown`] /
    /// [`ProbeEvent::DeviceRestored`] at each fleet health transition
    /// (none without faults); then, once devices have executed, one
    /// [`ProbeEvent::JobCompleted`] per run-to-completion job and exactly
    /// one [`ProbeEvent::JobMissed`] (typed by [`MissCause`]) per job that
    /// did not make its deadline, merged across devices into a single
    /// stream sorted by instant, then job id, with a job's completion
    /// before its miss.
    ///
    /// Determinism contract: observers are read-only taps. The returned
    /// [`ClusterReport`] is bit-identical with or without them for any
    /// worker count, the sorted outcome stream makes the *event order*
    /// worker-count-independent too, and with no observer attached the
    /// event payloads are never even built
    /// ([`sim_core::probe::ProbeHub::emit_with`]).
    pub fn observe(mut self, observer: SharedObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Overrides the fleet fault plan. Without this, the plan derives from
    /// the scenario's fault intensity via [`ClusterScenario::fault_seed`]
    /// ([`FleetFaultPlan::none`] at intensity 0).
    pub fn fleet_faults(mut self, plan: FleetFaultPlan) -> Self {
        self.fleet_faults = Some(plan);
        self
    }

    /// Maximum times one job lost to a device crash (or stalled with no
    /// device in rotation) re-enters the front door. `0` disables retry:
    /// every crash-lost job counts as lost. Default 3.
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Base sim-time backoff before a lost job's first retry; doubles per
    /// subsequent attempt. Deterministic — no wall-clock. Default 100 µs.
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Enables load shedding under degraded capacity: while any device is
    /// out of rotation, an arriving job whose best predicted laxity across
    /// the survivors is already negative is shed at the front door
    /// (counted separately from policy rejections). Off by default.
    pub fn shed_degraded(mut self, shed: bool) -> Self {
        self.shed_degraded = shed;
        self
    }

    /// Routes the arrival stream and executes every device, returning the
    /// merged [`ClusterReport`].
    ///
    /// Every cell runs the one time-ordered engine, interleaving fleet
    /// fault transitions, arrivals and retries; a cell without faults is
    /// one whose plan has no transitions, so an intensity-0 scenario is
    /// bit-identical to one that never mentions faults.
    ///
    /// The engine draws the arrival stream one job at a time as it routes
    /// it, so no cell holds its arrival stream, at any job count. A cell
    /// seeded from its own `:fI` intensity spans its plan over the
    /// realized stream: a draw-only replay finds the last arrival first,
    /// at the cost of drawing every job twice.
    ///
    /// # Errors
    ///
    /// [`BenchError::UnknownPolicy`] for routing policies outside the
    /// registry; [`BenchError::FleetKnob`] for zero slots, a jitter
    /// outside `[0, 1)`, more than 2³² jobs (job ids are `u32`) or more
    /// than 65535 devices (device ids are `u16`);
    /// [`BenchError::FleetFault`] for an ill-formed fault plan;
    /// [`BenchError::UnknownScheduler`] / [`BenchError::Sim`] from
    /// detailed-tier devices.
    pub fn run(&self) -> Result<ClusterReport, BenchError> {
        let policy = routing::try_build(&self.scenario.policy)?;
        if self.slots == 0 {
            return Err(BenchError::FleetKnob { knob: "slots", value: self.slots.to_string() });
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(BenchError::FleetKnob { knob: "jitter", value: self.jitter.to_string() });
        }
        if self.scenario.n_jobs as u64 > MAX_JOBS {
            let value = self.scenario.n_jobs.to_string();
            return Err(BenchError::FleetKnob { knob: "n_jobs", value });
        }
        if self.scenario.devices > usize::from(u16::MAX) {
            let value = self.scenario.devices.to_string();
            return Err(BenchError::FleetKnob { knob: "devices", value });
        }
        let plan = match &self.fleet_faults {
            Some(p) => p.clone(),
            None if self.scenario.fault_milli > 0 => {
                // Fault windows span the arrival stream, up to its last
                // arrival, which a draw-only replay finds without holding a
                // job. The span is a pure function of the cell (arrivals are
                // policy-blind), so the plan is too.
                let span = last_arrival(&self.scenario).saturating_since(Cycle::ZERO);
                FleetFaultPlan::seeded(
                    self.scenario.fault_seed(),
                    self.scenario.fault_intensity(),
                    span,
                    self.scenario.devices as u32,
                )
            }
            None => FleetFaultPlan::none(),
        };
        plan.validate(self.scenario.devices as u32)?;
        let suite = BenchmarkSuite::calibrated();
        self.run_engine(policy, job_stream(&self.scenario, suite), suite, &plan)
    }
}

/// Takes the fleet run knobs out of a binary's command line: `--fidelity
/// fast|detailed`, `--scheduler NAME`, `--slots N`, `--jitter F`,
/// `--retry-budget N`, `--backoff-us N` and `--shed`. Returns the builder
/// of any cell under those knobs; a knob not given keeps its
/// [`ClusterBuilder::new`] default.
///
/// # Errors
///
/// A knob flag that is repeated, lacks its value or whose value does not
/// parse, naming the flag.
pub fn knobs_from_cli(
    cli: &mut Cli,
) -> Result<impl Fn(ClusterScenario) -> ClusterBuilder, CliError> {
    let fidelity: Option<Fidelity> = cli.parse("--fidelity")?;
    let scheduler = cli.value("--scheduler")?;
    let slots = cli.parse("--slots")?;
    let jitter = cli.parse("--jitter")?;
    let retry_budget = cli.parse("--retry-budget")?;
    let backoff_us: Option<u64> = cli.parse("--backoff-us")?;
    let max_us = u64::MAX / CYCLES_PER_US;
    if let Some(us) = backoff_us.filter(|&us| us > max_us) {
        let (flag, value) = ("--backoff-us".into(), us.to_string());
        return Err(CliError::BadValue { flag, value, reason: format!("at most {max_us}") });
    }
    let shed = cli.flag("--shed")?;
    Ok(move |scenario| {
        let mut b = ClusterBuilder::new(scenario);
        b.fidelity = fidelity.unwrap_or(b.fidelity);
        b.device_scheduler = scheduler.clone().unwrap_or(b.device_scheduler);
        b.slots = slots.unwrap_or(b.slots);
        b.jitter = jitter.unwrap_or(b.jitter);
        b.retry_budget = retry_budget.unwrap_or(b.retry_budget);
        b.retry_backoff = backoff_us.map_or(b.retry_backoff, Duration::from_us);
        b.shed_degraded = shed;
        b
    })
}
