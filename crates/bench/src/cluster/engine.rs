//! The fleet engine: one time-ordered pass that routes the arrival
//! stream, replays fleet fault transitions and retries, and books every
//! placement; then each device's [`Tally`], merged into the report. Every
//! probe event reaches observers through one [`Narrator`], in time order.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use gpu_sim::fleet::FleetFaultAction;
use gpu_sim::prelude::*;
use schedulers::routing::{RouteDecision, RoutePolicy, RouteRequest, Router};
use sim_core::par::par_map;
use sim_core::stats::StreamingQuantiles;
use workloads::stream::{Arrival, JobSpec, Workload};
use workloads::suite::BenchmarkSuite;

use super::{ClusterBuilder, ClusterReport};
use crate::sweep::{device_simulation, BenchError};

impl ClusterBuilder {
    /// The fleet engine: one time-ordered pass interleaving fleet fault
    /// transitions, job arrivals and retries. Deterministic global order:
    /// by instant, then kind (fault transitions < arrivals < retries),
    /// then stream/schedule position — so the run is a pure function of
    /// the cell and plan, independent of worker count.
    ///
    /// Each booking's fate is settled when it is made. A device is booked
    /// only while it is up, and the plan fixes its next crash after the
    /// booking's entry, so a booking that completes by that instant is
    /// final on the spot: the fast tier completes it, the detailed tier
    /// keeps it for phase 2. Only a booking that completes later is held,
    /// and that crash loses every held booking, in booking order. Without
    /// faults nothing is ever held.
    ///
    /// Both tiers book through [`FastDevice`]. The detailed tier books
    /// un-jittered and unstretched, then materializes each device's
    /// surviving bookings as a full [`Simulation`] with the device's
    /// straggler windows translated to [`Slowdown`] faults.
    pub(super) fn run_engine(
        &self,
        policy: RoutePolicy,
        jobs: impl Iterator<Item = (Arrival, Duration)>,
        suite: &BenchmarkSuite,
        plan: &FleetFaultPlan,
    ) -> Result<ClusterReport, BenchError> {
        let n = self.scenario.devices;
        let detailed = self.fidelity == Fidelity::Detailed;
        let mut hub: ProbeHub<ProbeEvent> = ProbeHub::new();
        for obs in &self.observers {
            hub.attach(Box::new(Arc::clone(obs)));
        }
        let mut stragglers: Vec<Vec<StragglerWindow>> = vec![Vec::new(); n];
        for w in &plan.stragglers {
            stragglers[w.device as usize].push(*w);
        }
        let mut devs: Vec<DeviceState> = (0..n)
            .map(|d| {
                let seed = self.scenario.device_seed(d);
                let model = if detailed {
                    FastDevice::new(self.slots, 0.0, seed)
                } else {
                    FastDevice::new(self.slots, self.jitter, seed).with_stragglers(&stragglers[d])
                };
                DeviceState::new(d as u16, model)
            })
            .collect();
        let fleet_events = expand_transitions(plan, &mut devs);
        let mut engine = Engine {
            // P2C's sampling stream is seeded from the cell, not the policy
            // string, so the job trace and all derived seeds stay paired.
            router: Router::new(policy, n, self.slots, self.scenario.cell_seed()),
            narr: Narrator { hub, pending: BTreeMap::new(), seq: 0, hold: detailed },
            devs,
            fleet_events,
            next_event: 0,
            retries: RetryQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                budget: self.retry_budget,
                backoff: self.retry_backoff,
            },
            detailed,
            deadline: self.scenario.bench.deadline(),
            shed_degraded: self.shed_degraded,
            rejected: 0,
            shed: 0,
            lost: 0,
            retried: 0,
            losses: Tally::default(),
        };
        for job in jobs {
            engine.arrive(job);
        }
        // Drain what remains: the tail of the fault schedule and every
        // pending retry.
        engine.replay(None);
        debug_assert!(
            engine.devs.iter().all(|dev| dev.held.is_empty()),
            "every held booking meets its crash before the schedule runs out"
        );

        let Engine { mut narr, devs, rejected, shed, lost, retried, losses: mut fleet, .. } =
            engine;
        let per_device_jobs = devs.iter().map(|dev| dev.booked).collect();
        if detailed {
            let reports = par_map(&devs, self.workers, |dev| {
                let windows = &stragglers[usize::from(dev.index)];
                self.run_detailed_survivors(&dev.survivors, windows, suite)
            });
            for (dev, report) in devs.iter().zip(reports) {
                if let Some(report) = report? {
                    fleet.merge(tally_detailed(dev.index, &dev.survivors, &report, &mut narr));
                }
            }
        } else {
            for dev in devs {
                fleet.merge(dev.tally);
            }
        }
        fleet.misses.add_n(MissCause::FrontDoorReject, rejected);
        fleet.misses.add_n(MissCause::Shed, shed);
        narr.release(None);
        Ok(ClusterReport {
            scenario: self.scenario.clone(),
            fidelity: self.fidelity,
            total: self.scenario.n_jobs as u64,
            rejected,
            device_rejected: fleet.device_rejected,
            completed: fleet.completed,
            met: fleet.met,
            lost,
            retried,
            shed,
            misses: fleet.misses,
            latency_us: fleet.sketch,
            per_device_jobs,
            makespan: fleet.makespan,
            events: fleet.events,
        })
    }

    /// Detailed-tier phase 2: materialize one device's surviving bookings
    /// (entry order, deadlines measured from the original arrival) as a
    /// full simulation, with the device's straggler windows applied as
    /// whole-device [`Slowdown`] faults; `None` for a device without any.
    fn run_detailed_survivors(
        &self,
        survivors: &[Booking],
        windows: &[StragglerWindow],
        suite: &BenchmarkSuite,
    ) -> Result<Option<SimReport>, BenchError> {
        if survivors.is_empty() {
            return Ok(None);
        }
        let workload = Workload::Bench(self.scenario.bench);
        let descs = survivors
            .iter()
            .enumerate()
            .map(|(i, &Booking { entry, job })| {
                // A retried booking enters at its retry instant but is
                // held to its original deadline: the relative deadline
                // shrinks by the time already burned.
                let deadline = job.deadline_abs.saturating_since(entry);
                workload.materialize(suite, job.spec, i as u32, deadline, entry)
            })
            .collect::<Result<_, JobError>>()
            .map_err(|e| BenchError::Sim(e.into()))?;
        let faults = FaultPlan {
            slowdowns: windows
                .iter()
                .map(|w| Slowdown { at: w.at, until: w.until, factor: w.factor })
                .collect(),
            ..FaultPlan::none()
        };
        let mut sim = device_simulation(suite, descs, &self.device_scheduler, faults, &[])?;
        Ok(Some(sim.try_run()?))
    }
}

/// Tallies one detailed-tier device's phase-2 job records.
///
/// Every finished job is a completion, and every job that did not make its
/// deadline gets exactly one typed miss. Late completions (and scheduler
/// aborts) split on whether the calibrated service estimate alone fit the
/// relative deadline — queueing delay if it did, service time if not;
/// admission rejections are `DeviceReject`.
fn tally_detailed(
    device: u16,
    survivors: &[Booking],
    report: &SimReport,
    narr: &mut Narrator,
) -> Tally {
    let mut tally = Tally::default();
    for r in &report.records {
        let Booking { entry, job } = survivors[r.id.0 as usize];
        // Latency is arrival-to-completion of the *original* job, so a
        // retry pays for its first, doomed placement too.
        let requeue = entry.saturating_since(job.original_arrival);
        let budget = job.deadline_abs.saturating_since(job.original_arrival);
        let slow = if job.service_est <= budget {
            MissCause::QueueingDelay
        } else {
            MissCause::ServiceTime
        };
        let (at, cause) = match r.fate {
            JobFate::Completed(t) => {
                let latency = t.saturating_since(r.arrival).saturating_add(requeue);
                tally.complete(narr, t, job.id, device, latency, r.met_deadline());
                (t, (!r.met_deadline()).then_some(slow))
            }
            JobFate::Rejected(t) => {
                tally.device_rejected += 1;
                (t, Some(MissCause::DeviceReject))
            }
            JobFate::Aborted(t) => (t, Some(slow)),
            JobFate::Unfinished => (r.deadline_abs, Some(slow)),
        };
        if let Some(cause) = cause {
            tally.miss(narr, at, job.id, Some(device), cause);
        }
    }
    tally.makespan = report.makespan;
    tally.events = report.events;
    tally
}

/// One expanded fleet-fault transition targeting a single device.
#[derive(Debug, Clone, Copy)]
enum DevAction {
    /// Device crashes (crash or outage-member start).
    Down(usize),
    /// Crash/outage window ends.
    Up(usize),
    /// Drain window opens.
    DrainOn(usize),
    /// Drain window closes.
    DrainOff(usize),
}

/// The plan's health transitions, expanded so correlated outages become
/// one event per member device; `transitions()` order (ends before starts
/// at equal instants) is preserved. Records each device's down instants
/// in `devs`.
fn expand_transitions(plan: &FleetFaultPlan, devs: &mut [DeviceState]) -> Vec<(Cycle, DevAction)> {
    let mut events = Vec::new();
    for (t, action) in plan.transitions() {
        match action {
            FleetFaultAction::CrashStart(i) => {
                let d = plan.crashes[i].device as usize;
                devs[d].downs.push(t);
                events.push((t, DevAction::Down(d)));
            }
            FleetFaultAction::CrashEnd(i) => {
                events.push((t, DevAction::Up(plan.crashes[i].device as usize)));
            }
            FleetFaultAction::OutageStart(i) => {
                let o = &plan.outages[i];
                let members = devs.iter_mut().enumerate().skip(o.first as usize);
                for (d, dev) in members.take(o.count as usize) {
                    dev.downs.push(t);
                    events.push((t, DevAction::Down(d)));
                }
            }
            FleetFaultAction::OutageEnd(i) => {
                let o = &plan.outages[i];
                for d in o.first..o.first + o.count {
                    events.push((t, DevAction::Up(d as usize)));
                }
            }
            FleetFaultAction::DrainStart(i) => {
                events.push((t, DevAction::DrainOn(plan.drains[i].device as usize)));
            }
            FleetFaultAction::DrainEnd(i) => {
                events.push((t, DevAction::DrainOff(plan.drains[i].device as usize)));
            }
            FleetFaultAction::StragglerStart(_) | FleetFaultAction::StragglerEnd(_) => {}
        }
    }
    events
}

/// The engine's state during the time-ordered pass: the router and the
/// devices it books, the fault schedule and pending retries, and the
/// front door's counters.
struct Engine {
    router: Router,
    narr: Narrator,
    devs: Vec<DeviceState>,
    /// Expanded fault transitions, and the position of the next to apply.
    fleet_events: Vec<(Cycle, DevAction)>,
    next_event: usize,
    retries: RetryQueue,
    detailed: bool,
    /// Relative deadline of every job of the cell.
    deadline: Duration,
    shed_degraded: bool,
    rejected: u64,
    shed: u64,
    lost: u64,
    retried: u64,
    /// The misses of final losses, which belong to no device's tally.
    losses: Tally,
}

impl Engine {
    /// Routes one arrival, after replaying the transitions at or before
    /// its instant and the retries before it.
    fn arrive(&mut self, (job, service_est): (Arrival, Duration)) {
        let t_arr = job.at;
        self.replay(Some(t_arr));
        self.narr.release(Some(t_arr));
        let placement = RetryJob {
            id: job.id,
            original_arrival: t_arr,
            service_est,
            deadline_abs: t_arr + self.deadline,
            attempt: 0,
            spec: job.spec,
        };
        let req = RouteRequest { arrival: t_arr, service_est, deadline: self.deadline };
        if self.shed_degraded && !self.router.all_up() {
            if let Some(lax) = self.router.best_laxity(&req).filter(|&lax| lax < 0.0) {
                self.shed += 1;
                self.narr
                    .live(t_arr, || ProbeEvent::JobShed { job: JobId(job.id), laxity_us: lax });
                self.narr.live(t_arr, || ProbeEvent::JobMissed {
                    job: JobId(job.id),
                    device: None,
                    cause: MissCause::Shed,
                });
                return;
            }
        }
        match self.router.route(&req) {
            RouteDecision::Route { device, predicted_wait, laxity_us } => {
                self.narr.live(t_arr, || ProbeEvent::JobRouted {
                    job: JobId(job.id),
                    device: device as u16,
                    predicted_wait_us: predicted_wait.as_us_f64(),
                    laxity_us,
                });
                self.devs[device].book(t_arr, placement, self.detailed, &mut self.narr);
            }
            RouteDecision::Reject { laxity_us } => {
                self.narr.live(t_arr, || ProbeEvent::JobRejected { job: JobId(job.id), laxity_us });
                self.narr.live(t_arr, || ProbeEvent::JobMissed {
                    job: JobId(job.id),
                    device: None,
                    cause: MissCause::FrontDoorReject,
                });
                self.rejected += 1;
            }
            RouteDecision::NoDevice => {
                // Whole fleet out of rotation: hold the job and retry
                // once capacity returns, budget permitting.
                if !self.retries.requeue(placement, t_arr) {
                    self.lose(t_arr, job.id, None, MissCause::RetryExhausted);
                }
            }
        }
    }

    /// Replays fault transitions and retries in merged time order: the
    /// transitions at or before `until` and the retries strictly before
    /// it, or all of both for `None`. Equal-instant ties go to
    /// transitions.
    fn replay(&mut self, until: Option<Cycle>) {
        loop {
            let next_ev = self.fleet_events.get(self.next_event).map(|e| e.0);
            let next_ev = next_ev.filter(|&t| until.is_none_or(|u| t <= u));
            let next_re = self.retries.heap.peek().map(|r| r.0.at);
            let next_re = next_re.filter(|&t| until.is_none_or(|u| t < u));
            match (next_ev, next_re) {
                (Some(te), tr) if tr.is_none_or(|tr| te <= tr) => {
                    let (t, action) = self.fleet_events[self.next_event];
                    self.next_event += 1;
                    self.apply(t, action);
                }
                (_, Some(_)) => {
                    let Reverse(entry) = self.retries.heap.pop().expect("peeked");
                    self.fire_retry(entry);
                }
                _ => break,
            }
        }
    }

    /// One fleet event: lose held bookings or restore device state, and
    /// drive health.
    fn apply(&mut self, t: Cycle, action: DevAction) {
        self.narr.release(Some(t));
        match action {
            DevAction::Down(d) => {
                let dev = &mut self.devs[d];
                dev.down += 1;
                if dev.down > 1 {
                    return;
                }
                // Every held booking completes after this crash by
                // construction: all are lost, retried if budget remains.
                let held = std::mem::take(&mut dev.held);
                let lost_here = held.len() as u32;
                dev.tally.events += u64::from(lost_here);
                for job in held {
                    if !self.retries.requeue(job, t) {
                        self.lose(t, job.id, Some(d as u16), MissCause::CrashLoss);
                    }
                }
                self.narr.live(t, || ProbeEvent::DeviceDown {
                    device: d as u16,
                    crashed: true,
                    lost: lost_here,
                });
                self.router.set_health(d, DeviceHealth::Down);
            }
            DevAction::Up(d) => {
                let dev = &mut self.devs[d];
                dev.down -= 1;
                if dev.down > 0 {
                    return;
                }
                // Restored with an empty queue: both the actual model and
                // the router's predictions restart at the restore instant.
                dev.model.restore(t);
                let h = if dev.draining > 0 { DeviceHealth::Draining } else { DeviceHealth::Up };
                self.router.reset_device(d, t);
                self.router.set_health(d, h);
                if h == DeviceHealth::Up {
                    self.narr.live(t, || ProbeEvent::DeviceRestored { device: d as u16 });
                }
            }
            DevAction::DrainOn(d) => {
                let dev = &mut self.devs[d];
                dev.draining += 1;
                if dev.draining == 1 && dev.down == 0 {
                    // In-flight work keeps running; only new placements
                    // stop.
                    self.narr.live(t, || ProbeEvent::DeviceDown {
                        device: d as u16,
                        crashed: false,
                        lost: 0,
                    });
                    self.router.set_health(d, DeviceHealth::Draining);
                }
            }
            DevAction::DrainOff(d) => {
                let dev = &mut self.devs[d];
                dev.draining -= 1;
                if dev.draining == 0 && dev.down == 0 {
                    self.router.set_health(d, DeviceHealth::Up);
                    self.narr.live(t, || ProbeEvent::DeviceRestored { device: d as u16 });
                }
            }
        }
    }

    /// One retry firing: deadline-aware re-admission for every policy.
    fn fire_retry(&mut self, entry: RetryEntry) {
        let RetryEntry { at, job, .. } = entry;
        self.narr.release(Some(at));
        let req = RouteRequest {
            arrival: at,
            service_est: job.service_est,
            deadline: job.deadline_abs.saturating_since(at),
        };
        match self.router.best_laxity(&req) {
            None => {
                // Still nothing in rotation; back off again until the
                // budget runs out.
                if !self.retries.requeue(job, at) {
                    self.lose(at, job.id, None, MissCause::RetryExhausted);
                }
            }
            Some(lax) if lax < 0.0 => {
                // The laxity gate: no survivor can make the remaining
                // deadline, so re-placing would only burn capacity on a
                // guaranteed miss.
                self.lose(at, job.id, None, MissCause::RetryExhausted);
            }
            Some(_) => match self.router.route(&req) {
                RouteDecision::Route { device, .. } => {
                    self.retried += 1;
                    self.narr.live(at, || ProbeEvent::JobRetried {
                        job: JobId(job.id),
                        attempt: job.attempt,
                        device: device as u16,
                    });
                    self.devs[device].book(at, job, self.detailed, &mut self.narr);
                }
                // best_laxity was non-negative, so LL admits and some
                // device is Up; defensive completeness.
                RouteDecision::Reject { .. } | RouteDecision::NoDevice => {
                    self.lose(at, job.id, None, MissCause::RetryExhausted);
                }
            },
        }
    }

    /// One job's loss becoming final: its retry budget is out (`CrashLoss`
    /// on the crashed device, `RetryExhausted` at the front door), or no
    /// surviving device can make its deadline.
    fn lose(&mut self, at: Cycle, id: u32, device: Option<u16>, cause: MissCause) {
        self.lost += 1;
        self.losses.miss(&mut self.narr, at, id, device, cause);
    }
}

/// A job (re-)entering the front door: either an original arrival held
/// back by a fleet-wide outage or a booking lost to a device crash.
#[derive(Debug, Clone, Copy)]
struct RetryJob {
    id: u32,
    original_arrival: Cycle,
    service_est: Duration,
    deadline_abs: Cycle,
    /// Which retry generation this is (0 = the initial placement).
    attempt: u32,
    spec: JobSpec,
}

/// A scheduled retry, ordered by (fire instant, schedule sequence) — the
/// payload never participates in the ordering.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    at: Cycle,
    seq: u64,
    job: RetryJob,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for RetryEntry {}

impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Exponential sim-time backoff: `base << attempt`, saturating (the shift
/// is capped well past any realistic budget).
fn backoff_for(base: Duration, attempt: u32) -> Duration {
    Duration::from_cycles(base.as_cycles().saturating_mul(1u64 << attempt.min(20)))
}

/// The pending retries, plus the budget and backoff that decide whether a
/// job may rejoin them.
struct RetryQueue {
    heap: BinaryHeap<Reverse<RetryEntry>>,
    /// Sequence number of the last scheduled retry.
    seq: u64,
    budget: u32,
    backoff: Duration,
}

impl RetryQueue {
    /// Schedules `job`'s next attempt at `now` plus its backoff if its
    /// retry budget allows. Returns `false` when the budget is spent: the
    /// loss is final, and the caller attributes its cause.
    fn requeue(&mut self, job: RetryJob, now: Cycle) -> bool {
        if job.attempt >= self.budget {
            return false;
        }
        self.seq += 1;
        self.heap.push(Reverse(RetryEntry {
            at: now + backoff_for(self.backoff, job.attempt),
            seq: self.seq,
            job: RetryJob { attempt: job.attempt + 1, ..job },
        }));
        true
    }
}

/// A detailed-tier placement that no crash loses, awaiting phase-2
/// materialization.
#[derive(Debug, Clone, Copy)]
struct Booking {
    /// When this placement entered the device (> original arrival for
    /// retries).
    entry: Cycle,
    job: RetryJob,
}

/// Per-device state of the fleet engine: the booking model plus the
/// cluster-side accounting.
#[derive(Debug)]
struct DeviceState {
    /// This device's fleet index, stamped into outcome events.
    index: u16,
    /// The executing model, distinct from the router's predictions.
    model: FastDevice,
    /// Instants this device goes down (crash or outage start), ascending.
    downs: Vec<Cycle>,
    /// Bookings that complete after the device's next crash, which will
    /// lose them; in booking order.
    held: Vec<RetryJob>,
    /// Detailed tier: bookings no crash loses, in booking order.
    survivors: Vec<Booking>,
    booked: u64,
    /// Open crash/outage windows (health `Down` while > 0).
    down: u32,
    /// Open drain windows (health `Draining` while > 0 and not down).
    draining: u32,
    /// What this device adds to the report: its completions and crash
    /// losses in the fast tier. The detailed tier reports its phase-2
    /// simulation's tally instead.
    tally: Tally,
}

impl DeviceState {
    fn new(index: u16, model: FastDevice) -> Self {
        DeviceState {
            index,
            model,
            downs: Vec::new(),
            held: Vec::new(),
            survivors: Vec::new(),
            booked: 0,
            down: 0,
            draining: 0,
            tally: Tally::default(),
        }
    }

    /// Books one placement entering at `entry` and settles its fate: held
    /// for the next crash if it completes after it, otherwise completed
    /// now (fast tier) or kept for phase 2 (detailed tier).
    fn book(&mut self, entry: Cycle, job: RetryJob, detailed: bool, narr: &mut Narrator) {
        let Service { start, completion } = self.model.book(entry, job.service_est);
        self.booked += 1;
        // The device is up at `entry`, so every down instant at or before
        // it has been replayed and the first one after it is the crash
        // this booking faces.
        let next_down = self.downs.get(self.downs.partition_point(|&t| t <= entry));
        if next_down.is_some_and(|&crash| completion > crash) {
            self.held.push(job);
        } else if detailed {
            self.survivors.push(Booking { entry, job });
        } else {
            self.complete(&job, start, completion, narr);
        }
    }

    /// Resolves one fast-tier booking as completed, attributing a typed
    /// cause when it blew its deadline.
    fn complete(&mut self, job: &RetryJob, start: Cycle, completion: Cycle, narr: &mut Narrator) {
        let latency = completion.saturating_since(job.original_arrival);
        let met = completion <= job.deadline_abs;
        let tally = &mut self.tally;
        tally.complete(narr, completion, job.id, self.index, latency, met);
        tally.makespan = tally.makespan.max(completion.saturating_since(Cycle::ZERO));
        tally.events += 2;
        if !met {
            // Late although the (stretched) service alone fit the deadline
            // budget means the job died waiting for a slot.
            let budget = job.deadline_abs.saturating_since(job.original_arrival);
            let cause = if completion.saturating_since(start) <= budget {
                MissCause::QueueingDelay
            } else {
                MissCause::ServiceTime
            };
            tally.miss(narr, completion, job.id, Some(self.index), cause);
        }
    }
}

/// What one device contributes to the merged report, at either tier: the
/// fast tier tallies its completions as it books them, the detailed tier
/// tallies its phase-2 simulation's job records. The engine's final
/// losses tally the same way, and devices merge into it in device-index
/// order. Each outcome it counts is narrated too.
#[derive(Debug, Default)]
struct Tally {
    /// Arrival-to-completion latency of every completion, microseconds.
    sketch: StreamingQuantiles,
    completed: u64,
    met: u64,
    /// Jobs the device's own admission control rejected (detailed tier).
    device_rejected: u64,
    makespan: Duration,
    events: u64,
    /// Typed causes of the jobs that did not make their deadline.
    misses: MissBreakdown,
}

impl Tally {
    /// A job that ran to completion at `at`, `latency` after its original
    /// arrival.
    fn complete(
        &mut self,
        narr: &mut Narrator,
        at: Cycle,
        job: u32,
        device: u16,
        latency: Duration,
        met: bool,
    ) {
        let latency_us = latency.as_us_f64();
        self.sketch.push(latency_us);
        self.completed += 1;
        self.met += u64::from(met);
        narr.outcome(at, job, 0, || ProbeEvent::JobCompleted {
            job: JobId(job),
            device,
            latency_us,
            met,
        });
    }

    /// A job that did not make its deadline, for `cause`.
    fn miss(
        &mut self,
        narr: &mut Narrator,
        at: Cycle,
        job: u32,
        device: Option<u16>,
        cause: MissCause,
    ) {
        self.misses.add(cause);
        narr.outcome(at, job, 1, || ProbeEvent::JobMissed { job: JobId(job), device, cause });
    }

    fn merge(&mut self, other: Tally) {
        self.sketch.merge(&other.sketch);
        self.completed += other.completed;
        self.met += other.met;
        self.device_rejected += other.device_rejected;
        self.makespan = self.makespan.max(other.makespan);
        self.events += other.events;
        self.misses.merge(&other.misses);
    }
}

/// The one order in which observers hear a fleet run. Every probe event
/// the engine emits waits in one queue, popped smallest key first: the
/// instant, then live verdicts before outcomes, then engine sequence
/// (live) or job id and completion before miss (outcomes). With no
/// observer attached nothing is kept.
///
/// The fast tier releases an event once the engine's next arrival, fault
/// or retry instant has passed it. Nothing earlier can still come: a
/// booking's completion is known when it is made, and no later booking
/// completes before the instant it is made. The detailed tier's outcomes
/// exist only after its phase-2 simulations, so it holds every event
/// until the flush.
struct Narrator {
    hub: ProbeHub<ProbeEvent>,
    pending: BTreeMap<(Cycle, bool, u64), ProbeEvent>,
    /// Sequence number of the last live event.
    seq: u64,
    /// Hold every event until the flush (the detailed tier).
    hold: bool,
}

impl Narrator {
    /// A live verdict at `at`, the instant the engine is processing.
    fn live(&mut self, at: Cycle, make: impl FnOnce() -> ProbeEvent) {
        self.seq += 1;
        self.push((at, false, self.seq), make);
    }

    /// The outcome of `job` settled at `at`: `miss` 0 for its completion,
    /// 1 for its miss.
    fn outcome(&mut self, at: Cycle, job: u32, miss: u64, make: impl FnOnce() -> ProbeEvent) {
        self.push((at, true, u64::from(job) << 1 | miss), make);
    }

    fn push(&mut self, key: (Cycle, bool, u64), make: impl FnOnce() -> ProbeEvent) {
        if self.hub.is_active() {
            self.pending.insert(key, make());
        }
    }

    /// Delivers every event before `until` unless the tier holds them,
    /// or, for `None`, every event left.
    fn release(&mut self, until: Option<Cycle>) {
        if self.hold && until.is_some() {
            return;
        }
        while let Some(next) = self.pending.first_entry() {
            if until.is_some_and(|t| next.key().0 >= t) {
                break;
            }
            let ((at, ..), event) = next.remove_entry();
            self.hub.emit(at, event);
        }
    }
}
