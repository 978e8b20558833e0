//! Command-processor frontend: job arrival, the inspection pipeline, the
//! admission decision, and the backlog of jobs waiting for a free compute
//! queue.

use std::collections::VecDeque;

use sim_core::time::Cycle;

use crate::dispatch;
use crate::engine::{Effects, Ev};
use crate::host;
use crate::job::{JobFate, JobId, JobState};
use crate::probe::ProbeEvent;
use crate::queue::{ActiveJob, ComputeQueue};
use crate::scheduler::Admission;
use crate::sim::SchedulerMode;
use crate::state::{self, SimState};

/// CP frontend state: the queue-starved backlog and the single shared
/// inspection engine's busy horizon.
#[derive(Default)]
pub(crate) struct CpFrontend {
    backlog: VecDeque<u32>,
    inspect_busy_until: Cycle,
}

impl CpFrontend {
    /// Jobs parked waiting for a free compute queue.
    pub(crate) fn backlog_len(&self) -> usize {
        self.backlog.len()
    }
}

/// A job hit its arrival time: route it to the CP (bind or backlog) or to
/// the host model, depending on which side owns scheduling.
pub(crate) fn on_arrival(st: &mut SimState, fx: &mut Effects<'_>, idx: u32, now: Cycle) {
    st.shared.probes.emit_with(now, || ProbeEvent::JobArrived { job: JobId(idx) });
    match st.shared.mode {
        SchedulerMode::Cp(_) => {
            if !bind_job(st, fx, idx, now) {
                st.cp.backlog.push_back(idx);
                state::check_backlog_limit(st);
            }
        }
        SchedulerMode::Host(_) => {
            host::react(st, fx, crate::host::HostEvent::Arrival(JobId(idx)), now);
        }
    }
}

/// Binds job `idx` to a free queue. Returns `false` when all queues are
/// busy (caller backlogs the job).
pub(crate) fn bind_job(st: &mut SimState, fx: &mut Effects<'_>, idx: u32, now: Cycle) -> bool {
    let Some(q) = st.shared.queues.iter().position(ComputeQueue::is_free) else {
        return false;
    };
    let job = st.shared.jobs[idx as usize].clone();
    let mut active = ActiveJob::new(job, now);
    let needs_inspection =
        matches!(&st.shared.mode, SchedulerMode::Cp(s) if s.requires_inspection());
    if needs_inspection {
        active.state = JobState::Init;
        st.shared.queues[q].active = Some(active);
        st.shared.queue_of_job.insert(JobId(idx), q);
        let start = st.cp.inspect_busy_until.max(now);
        let done = start + st.shared.cfg.inspect_service();
        st.cp.inspect_busy_until = done;
        fx.schedule(done, Ev::InspectDone(q));
    } else {
        st.shared.queues[q].active = Some(active);
        st.shared.queue_of_job.insert(JobId(idx), q);
        admit(st, fx, q, now);
    }
    true
}

/// Inspection finished for the job bound to queue `q`.
pub(crate) fn on_inspected(st: &mut SimState, fx: &mut Effects<'_>, q: usize, now: Cycle) {
    if st.shared.queues[q].active.is_some() {
        admit(st, fx, q, now);
    }
}

/// Asks the CP scheduler to admit or reject the job on queue `q` and
/// applies the decision.
pub(crate) fn admit(st: &mut SimState, fx: &mut Effects<'_>, q: usize, now: Cycle) {
    let decision = state::with_cp(st, now, |s, ctx| s.admit(ctx, q)).unwrap_or(Admission::Accept);
    match decision {
        Admission::Accept => {
            let id = st.shared.queues[q].job().job.id;
            st.shared.probes.emit_with(now, || ProbeEvent::CpDecision {
                job: id,
                queue: q,
                admitted: true,
            });
            let a = st.shared.queues[q].job_mut();
            a.state = JobState::Ready;
            state::with_cp(st, now, |s, ctx| s.on_job_enqueued(ctx, q));
            dispatch::try_dispatch(st, fx, now);
        }
        Admission::Reject => {
            let a = st.shared.queues[q].active.take().expect("admitting an empty queue");
            st.shared.queue_of_job.remove(&a.job.id);
            let id = a.job.id;
            st.shared.probes.emit_with(now, || ProbeEvent::CpDecision {
                job: id,
                queue: q,
                admitted: false,
            });
            st.shared.resolve(a.job.id, JobFate::Rejected(now), now);
            pump(st, fx, now);
        }
    }
}

/// A queue freed up: bind as many backlogged jobs as fit, then retry any
/// parked host deliveries.
pub(crate) fn pump(st: &mut SimState, fx: &mut Effects<'_>, now: Cycle) {
    while let Some(&idx) = st.cp.backlog.front() {
        if bind_job(st, fx, idx, now) {
            st.cp.backlog.pop_front();
        } else {
            break;
        }
    }
    host::drain_deliveries(st, fx, now);
}
