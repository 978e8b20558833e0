//! Workgroup dispatch: picks which queue's ready kernels get device
//! capacity, in priority order with round-robin rotation at ties, and
//! finalizes aborted jobs once their in-flight work drains.
//!
//! Readiness is per-stage in-degree tracking: every stage of a job whose
//! predecessors have completed may dispatch, so a DAG job can hold several
//! kernels in flight. A chain exposes exactly one ready stage at a time —
//! the original head-kernel behaviour.

use sim_core::time::Cycle;

use crate::cp_frontend;
use crate::engine::Effects;
use crate::exec;
use crate::job::{JobFate, JobState};
use crate::probe::ProbeEvent;
use crate::state::SimState;
use crate::wave::KernelRun;

/// Dispatcher state: the round-robin tie-break cursor plus reusable
/// scratch buffers for the hot candidate scan.
#[derive(Default)]
pub(crate) struct Dispatch {
    rr_cursor: usize,
    candidates: Vec<(i64, usize, usize)>,
    aborts: Vec<usize>,
    stage_scratch: Vec<usize>,
}

/// Dispatches every eligible queue in (priority, round-robin) order,
/// placing as many WGs as the device fits.
pub(crate) fn try_dispatch(st: &mut SimState, fx: &mut Effects<'_>, now: Cycle) {
    // Finalize aborted jobs whose in-flight workgroups have drained.
    let mut aborts = std::mem::take(&mut st.dispatch.aborts);
    aborts.clear();
    for (i, q) in st.shared.queues.iter().enumerate() {
        if let Some(a) = &q.active {
            if a.abort_requested && a.state != JobState::Init {
                let inflight = a
                    .stages
                    .iter()
                    .any(|s| s.run.is_some_and(|rk| st.exec.run_inflight(rk)));
                if !inflight {
                    aborts.push(i);
                }
            }
        }
    }
    for &q in &aborts {
        finalize_abort(st, fx, q, now);
    }
    aborts.clear();
    st.dispatch.aborts = aborts;

    let nq = st.shared.queues.len();
    let cursor = st.dispatch.rr_cursor;
    let mut candidates = std::mem::take(&mut st.dispatch.candidates);
    candidates.clear();
    for (i, q) in st.shared.queues.iter().enumerate() {
        let Some(a) = &q.active else { continue };
        if a.state == JobState::Init || a.blocked_until > now || a.abort_requested {
            continue;
        }
        let pending = a.ready_stages().any(|s| match a.stages[s].run {
            Some(rk) => st.exec.wgs_pending(rk) > 0,
            None => true,
        });
        if !pending {
            continue;
        }
        let rot = (i + nq - cursor) % nq;
        candidates.push((a.priority, rot, i));
    }
    candidates.sort_unstable();
    let mut first_dispatched = None;
    for &(_, _, q) in candidates.iter() {
        let dispatched = dispatch_queue(st, fx, q, now);
        if dispatched && first_dispatched.is_none() {
            first_dispatched = Some(q);
        }
    }
    candidates.clear();
    st.dispatch.candidates = candidates;
    if let Some(q) = first_dispatched {
        st.dispatch.rr_cursor = (q + 1) % nq;
    }
}

/// Drops an aborted job whose in-flight work has drained: squashes its
/// remaining kernels and frees the queue.
fn finalize_abort(st: &mut SimState, fx: &mut Effects<'_>, q: usize, now: Cycle) {
    let Some(a) = st.shared.queues[q].active.take() else { return };
    for s in &a.stages {
        if let Some(rk) = s.run {
            st.exec.remove_run(rk);
        }
    }
    st.shared.queue_of_job.remove(&a.job.id);
    st.shared.resolve(a.job.id, JobFate::Aborted(now), now);
    cp_frontend::pump(st, fx, now);
}

/// Dispatches as many WGs of queue `q`'s ready stages as fit, in stage
/// order. Returns `true` if at least one WG was placed.
fn dispatch_queue(st: &mut SimState, fx: &mut Effects<'_>, q: usize, now: Cycle) -> bool {
    let mut ready = std::mem::take(&mut st.dispatch.stage_scratch);
    ready.clear();
    let Some(a) = &st.shared.queues[q].active else {
        st.dispatch.stage_scratch = ready;
        return false;
    };
    ready.extend(a.ready_stages());
    let mut any = false;
    for &kidx in &ready {
        let (kernel, run, id, critical) = {
            let a = st.shared.queues[q].job();
            let kernel = a.job.kernels()[kidx].clone();
            (kernel, a.stages[kidx].run, a.job.id, a.job.graph().on_critical_path(kidx))
        };
        let run_key = match run {
            Some(rk) => rk,
            None => {
                let rk = st.exec.insert_run(KernelRun::new(q, id, kernel.clone(), kidx, now));
                st.shared.queues[q].job_mut().stages[kidx].run = Some(rk);
                st.shared.probes.emit_with(now, || ProbeEvent::KernelStarted {
                    job: id,
                    queue: q,
                    kernel: kidx,
                    critical,
                });
                rk
            }
        };
        while st.exec.wgs_pending(run_key) > 0 {
            let Some(cu_idx) = st.exec.best_cu(&kernel) else { break };
            exec::place_wg(st, fx, run_key, cu_idx, now);
            any = true;
        }
    }
    ready.clear();
    st.dispatch.stage_scratch = ready;
    if any {
        st.shared.queues[q].job_mut().state = JobState::Running;
    }
    any
}
