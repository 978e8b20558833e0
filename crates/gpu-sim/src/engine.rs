//! The event engine: the global event queue, the simulated clock, and the
//! run loop that arbitrates between heap events and the execution
//! subsystem's polled wave-completion predictions.
//!
//! Subsystems never touch the queue directly — they request future events
//! through [`Effects`], a thin buffer the engine hands to every handler.
//! Wave segment completions and wave memory returns are *not* heap events
//! at all: [`crate::exec`] keeps a per-SIMD next-completion prediction plus
//! a per-SIMD pending memory-return list, and the engine polls both minima
//! each iteration, firing whichever of (heap head, poll minimum, memory
//! minimum) is earliest in `(time, sequence)` order. That keeps the two
//! hottest event classes out of the heap entirely while preserving
//! bit-identical FIFO tie-breaking: predictions and memory returns carry
//! sequence stamps drawn from the same counter heap events use.

use sim_core::event::EventQueue;
use sim_core::time::{Cycle, Duration};

use crate::cp_frontend;
use crate::dispatch;
use crate::exec;
use crate::faults::{FaultAction, FaultEffect};
use crate::host::{self, HostEvent};
use crate::job::JobId;
use crate::probe::ProbeEvent;
use crate::sim::{SchedulerMode, SimError};

use crate::state::{self, SimState};

/// Deterministic livelock watchdog threshold: simulated time must advance
/// at least once every this many events.
const STALL_EVENT_LIMIT: u64 = 500_000;

/// Every event kind the engine routes. Wave segment completions and wave
/// memory returns are deliberately absent: they flow through the poll
/// paths, not the heap.
#[derive(Debug)]
pub(crate) enum Ev {
    Arrival(u32),
    InspectDone(usize),
    CounterTick,
    SchedTick,
    HostTick,
    HostWake,
    Deliver(Delivery),
    PrioWrite { job: JobId, prio: i64 },
    Unblock(usize),
    FaultTransition(usize),
}

/// A host-to-device queue delivery in flight.
#[derive(Debug)]
pub(crate) enum Delivery {
    Synth(u32),
    Chain { job_idx: u32, prio: i64 },
}

/// The effect buffer handed to every subsystem handler: the only channel
/// through which subsystems request future events. Wrapping the queue (and
/// nothing else) means a handler can schedule while iterating any part of
/// [`SimState`] without borrow conflicts — and no subsystem can pop.
pub(crate) struct Effects<'a> {
    pub(crate) events: &'a mut EventQueue<Ev>,
}

impl Effects<'_> {
    /// Requests `ev` to fire at `at` (clamped to the present like any
    /// queue insertion).
    #[inline]
    pub(crate) fn schedule(&mut self, at: Cycle, ev: Ev) {
        self.events.schedule(at, ev);
    }

    /// Reserves the next sequence number without scheduling anything; used
    /// by [`crate::exec`] to stamp poll predictions into the same FIFO
    /// order heap events obey.
    #[inline]
    pub(crate) fn stamp(&mut self) -> u64 {
        self.events.stamp()
    }
}

/// The event engine: global queue, clock, horizon, and watchdogs. Owns no
/// machine state — that lives in [`SimState`].
pub(crate) struct Engine {
    pub(crate) events: EventQueue<Ev>,
    /// Authoritative simulated time: unlike `events.now()`, also advances
    /// on polled completions that never enter the queue.
    pub(crate) clock: Cycle,
    pub(crate) horizon: Cycle,
    pub(crate) profiling_period: Duration,
    pub(crate) fault_transitions: Vec<(Cycle, FaultAction)>,
    pub(crate) event_budget: Option<u64>,
    pub(crate) events_handled: u64,
    stall_events: u64,
    last_now: Cycle,
}

impl Engine {
    pub(crate) fn new(
        horizon: Cycle,
        profiling_period: Duration,
        fault_transitions: Vec<(Cycle, FaultAction)>,
        event_budget: Option<u64>,
    ) -> Self {
        Engine {
            events: EventQueue::new(),
            clock: Cycle::ZERO,
            horizon,
            profiling_period,
            fault_transitions,
            event_budget,
            events_handled: 0,
            stall_events: 0,
            last_now: Cycle::ZERO,
        }
    }

    /// Counts one handled event and runs the budget and livelock
    /// watchdogs.
    #[inline]
    fn bump(&mut self, now: Cycle) -> Result<(), SimError> {
        self.events_handled += 1;
        if let Some(budget) = self.event_budget {
            if self.events_handled > budget {
                return Err(SimError::EventBudgetExceeded { budget });
            }
        }
        // Deterministic livelock watchdog: simulated time must advance
        // every so many events. Wall-clock plays no part, so the guard
        // trips at the same event on every run.
        if now > self.last_now {
            self.last_now = now;
            self.stall_events = 0;
        } else {
            self.stall_events += 1;
            if self.stall_events > STALL_EVENT_LIMIT {
                return Err(SimError::Stalled { at: now, events: self.stall_events });
            }
        }
        Ok(())
    }
}

/// Seeds the initial events and runs the simulation to resolution, horizon,
/// budget exhaustion, or a fatal condition.
pub(crate) fn run(en: &mut Engine, st: &mut SimState) -> Result<(), SimError> {
    // Scheduled before arrivals so that at equal timestamps the machine
    // state change applies first (a CU offlined at t also rejects work
    // arriving at t). An empty plan schedules nothing here, keeping
    // fault-free runs event-for-event identical to builds without
    // fault support.
    for (i, &(t, _)) in en.fault_transitions.iter().enumerate() {
        en.events.schedule(t, Ev::FaultTransition(i));
    }
    for (i, j) in st.shared.jobs.iter().enumerate() {
        en.events.schedule(j.arrival, Ev::Arrival(i as u32));
    }
    en.events.schedule(Cycle::ZERO + en.profiling_period, Ev::CounterTick);
    if let SchedulerMode::Cp(s) = &st.shared.mode {
        if let Some(p) = s.tick_period() {
            en.events.schedule(Cycle::ZERO + p, Ev::SchedTick);
        }
    }
    if let SchedulerMode::Host(s) = &st.shared.mode {
        if let Some(p) = s.tick_period() {
            en.events.schedule(Cycle::ZERO + p, Ev::HostTick);
        }
    }
    // The heap key is cached across iterations: most events are polled
    // completions or memory returns that never touch the queue, so the
    // head only needs re-reading when the queue's version moves.
    let mut heap_key = u128::MAX;
    let mut heap_version = u64::MAX;
    while st.shared.resolved < st.shared.jobs.len() {
        if st.shared.fatal.is_some() {
            return Err(st.shared.fatal.take().expect("fatal checked above"));
        }
        // Arbitrate between the heap head, the execution subsystem's polled
        // segment-completion minimum, and its pending memory-return minimum
        // in packed (time, sequence) order — exactly the order a single
        // heap would produce if all three classes were queued.
        if en.events.version() != heap_version {
            heap_version = en.events.version();
            heap_key = en
                .events
                .peek_key()
                .map(|(t, s)| (t.as_cycles() as u128) << 64 | s as u128)
                .unwrap_or(u128::MAX);
        }
        let (poll_key, poll_slot) = st.exec.poll_key();
        let (mem_key, mem_slot) = st.exec.mem_key();
        if poll_key < heap_key && poll_key < mem_key {
            let at = Cycle::from_cycles((poll_key >> 64) as u64);
            en.clock = at;
            if at > en.horizon {
                break;
            }
            en.bump(at)?;
            let mut fx = Effects { events: &mut en.events };
            exec::service_poll(st, &mut fx, poll_slot, at);
        } else if mem_key < heap_key {
            let at = Cycle::from_cycles((mem_key >> 64) as u64);
            en.clock = at;
            if at > en.horizon {
                break;
            }
            en.bump(at)?;
            let mut fx = Effects { events: &mut en.events };
            exec::service_mem(st, &mut fx, mem_slot, at);
        } else {
            let Some((now, ev)) = en.events.pop() else { break };
            en.clock = now;
            if now > en.horizon {
                break;
            }
            en.bump(now)?;
            route(en, st, ev, now);
        }
    }
    if let Some(err) = st.shared.fatal.take() {
        return Err(err);
    }
    Ok(())
}

/// Routes one heap event to its owning subsystem.
fn route(en: &mut Engine, st: &mut SimState, ev: Ev, now: Cycle) {
    let mut fx = Effects { events: &mut en.events };
    match ev {
        Ev::Arrival(i) => cp_frontend::on_arrival(st, &mut fx, i, now),
        Ev::InspectDone(q) => cp_frontend::on_inspected(st, &mut fx, q, now),
        Ev::CounterTick => {
            st.shared.counters.refresh(now);
            // Snapshot probes piggyback on this existing tick so an
            // attached sampler never adds events to the queue (which
            // would shift FIFO tie-breaking and perturb the run).
            if st.shared.probes.is_active() {
                let snap = state::metrics_snapshot(st, now);
                st.shared.probes.emit(now, ProbeEvent::Snapshot(snap));
            }
            if st.shared.resolved < st.shared.jobs.len() {
                fx.schedule(now + en.profiling_period, Ev::CounterTick);
            }
        }
        Ev::SchedTick => {
            let period = match &st.shared.mode {
                SchedulerMode::Cp(s) => s.tick_period(),
                SchedulerMode::Host(_) => None,
            };
            st.shared.counters.refresh(now);
            state::with_cp(st, now, |s, ctx| s.on_tick(ctx));
            for (i, q) in st.shared.queues.iter().enumerate() {
                if let Some(a) = &q.active {
                    if a.blocked_until > now {
                        fx.schedule(a.blocked_until, Ev::Unblock(i));
                    }
                }
            }
            dispatch::try_dispatch(st, &mut fx, now);
            if let Some(p) = period {
                if st.shared.resolved < st.shared.jobs.len() {
                    fx.schedule(now + p, Ev::SchedTick);
                }
            }
        }
        Ev::HostTick => {
            let period = match &st.shared.mode {
                SchedulerMode::Host(s) => s.tick_period(),
                SchedulerMode::Cp(_) => None,
            };
            host::react(st, &mut fx, HostEvent::Tick, now);
            if let Some(p) = period {
                if st.shared.resolved < st.shared.jobs.len() {
                    fx.schedule(now + p, Ev::HostTick);
                }
            }
        }
        Ev::HostWake => host::react(st, &mut fx, HostEvent::Wake, now),
        Ev::Deliver(d) => host::on_deliver(st, &mut fx, d, now),
        Ev::PrioWrite { job, prio } => {
            if let Some(&q) = st.shared.queue_of_job.get(&job) {
                if let Some(a) = st.shared.queues[q].active.as_mut() {
                    if a.job.id == job {
                        a.priority = prio;
                    }
                }
            }
            dispatch::try_dispatch(st, &mut fx, now);
        }
        Ev::Unblock(q) => {
            // Only re-dispatch if the queue is actually eligible again.
            let unblocked =
                st.shared.queues[q].active.as_ref().is_some_and(|a| a.blocked_until <= now);
            if unblocked {
                dispatch::try_dispatch(st, &mut fx, now);
            }
        }
        Ev::FaultTransition(i) => {
            st.shared.probes.emit_with(now, || ProbeEvent::FaultTransition { index: i });
            let (_, action) = en.fault_transitions[i];
            match st.shared.injector.apply(action) {
                FaultEffect::None => {}
                FaultEffect::SetCuOffline { cu, offline } => {
                    st.exec.set_cu_offline(cu, offline);
                    if !offline {
                        // Restored capacity: resume any starved queues.
                        dispatch::try_dispatch(st, &mut fx, now);
                    }
                }
                FaultEffect::SetDramScale(scale) => st.mem.set_dram_scale(scale),
            }
        }
    }
}
