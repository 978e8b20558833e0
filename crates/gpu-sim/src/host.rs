//! Host-side (CPU) scheduling interface.
//!
//! The paper's CPU-side baselines (BatchMaker, Baymax, Prophet) and the
//! LAX-SW / LAX-CPU variants run here. Host schedulers see *less* than CP
//! schedulers — kernel-granularity completion notifications and counter
//! values that are one refresh stale — and every command they send to the
//! device pays host-device latency (4 us per kernel launch, Section 5.1).

use std::sync::Arc;

use sim_core::time::{Cycle, Duration};

use crate::config::GpuConfig;
use crate::counters::Counters;
use crate::job::{JobDesc, JobId};

/// Host-side bookkeeping for one job.
#[derive(Debug, Clone)]
pub struct HostJob {
    /// The job.
    pub desc: Arc<JobDesc>,
    /// Position in the job's topological order awaiting launch (== kernels
    /// launched and finished). The host serializes DAG jobs along
    /// [`crate::job::JobGraph::topo_order`]; on a chain this is the classic
    /// next-kernel cursor.
    pub next_kernel: usize,
    /// A kernel of this job is currently launched and unfinished.
    pub inflight: bool,
    /// The job was rejected at admission.
    pub rejected: bool,
    /// All kernels have completed.
    pub done: bool,
    /// For chain-enqueued jobs (LAX-CPU style): the whole job lives on the
    /// GPU and the host only adjusts its priority.
    pub chain_enqueued: bool,
}

impl HostJob {
    /// Creates fresh bookkeeping for `desc`.
    pub fn new(desc: Arc<JobDesc>) -> Self {
        HostJob {
            desc,
            next_kernel: 0,
            inflight: false,
            rejected: false,
            done: false,
            chain_enqueued: false,
        }
    }

    /// `true` when the job can launch its next kernel.
    pub fn launchable(&self) -> bool {
        !self.rejected && !self.done && !self.inflight && !self.chain_enqueued
    }

    /// Kernel the job would launch next (the `next_kernel`-th stage of the
    /// topological order).
    pub fn next_kernel_desc(&self) -> Option<&Arc<crate::kernel::KernelDesc>> {
        self.desc
            .graph()
            .topo_order()
            .get(self.next_kernel)
            .map(|&s| &self.desc.kernels()[s as usize])
    }

    /// Kernels not yet launched (and finished), in launch order.
    pub fn remaining_kernels(&self) -> impl Iterator<Item = &Arc<crate::kernel::KernelDesc>> {
        let topo = self.desc.graph().topo_order();
        topo[self.next_kernel.min(topo.len())..]
            .iter()
            .map(|&s| &self.desc.kernels()[s as usize])
    }
}

/// Read-only view the host scheduler reacts to.
#[derive(Debug)]
pub struct HostView<'a> {
    /// Current time.
    pub now: Cycle,
    /// Per-job state, indexed by `JobId::index()`.
    pub jobs: &'a [HostJob],
    /// Hardware counters. Host code must use the *cached* rates
    /// ([`Counters::rate`]), which lag one refresh behind — the fidelity gap
    /// the paper attributes to CPU-side scheduling.
    pub counters: &'a Counters,
    /// Machine configuration.
    pub config: &'a GpuConfig,
    /// Kernels launched by the host and not yet completed.
    pub inflight_kernels: usize,
}

impl HostView<'_> {
    /// Predicted isolated duration of the job's remaining kernels in
    /// microseconds, from the offline profile table. `None` when any kernel
    /// class lacks a profile.
    pub fn predict_remaining_us(&self, job: JobId) -> Option<f64> {
        let j = &self.jobs[job.index()];
        let mut total = 0.0;
        for k in j.remaining_kernels() {
            let rate = self.counters.offline_rate(k.class)?;
            total += k.num_wgs() as f64 / rate;
        }
        Some(total)
    }
}

/// Events the host scheduler reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEvent {
    /// A new job arrived at the server.
    Arrival(JobId),
    /// A launched kernel (or the whole chain's next kernel) completed.
    KernelDone {
        /// The job whose kernel finished.
        job: JobId,
        /// Index of the finished kernel.
        kernel_idx: usize,
    },
    /// Periodic tick ([`HostScheduler::tick_period`]).
    Tick,
    /// A previously requested wake-up fired.
    Wake,
}

/// Commands the host scheduler issues; executed by the simulation with the
/// appropriate latencies.
#[derive(Debug, Clone)]
pub enum HostCmd {
    /// Reject the job (admission control); it never runs.
    Reject(JobId),
    /// Launch one kernel of one job, paying launch overhead plus `extra`
    /// (e.g. Baymax's 50 us prediction-model call). `prio` orders the
    /// launched kernel against other host-launched work on the device.
    Launch {
        /// Job to launch from.
        job: JobId,
        /// Kernel index (must equal the job's `next_kernel`).
        kernel_idx: usize,
        /// Additional host-side delay before the launch.
        extra: Duration,
        /// Device-side priority for the launched kernel (lower first).
        prio: i64,
    },
    /// Launch one merged kernel batching the same-position kernel of several
    /// jobs (BatchMaker-style cellular batching). All members must share the
    /// kernel class and workgroup size.
    LaunchBatch {
        /// Member jobs, all at `kernel_idx`.
        members: Vec<JobId>,
        /// Kernel index within every member.
        kernel_idx: usize,
        /// Additional host-side delay.
        extra: Duration,
        /// Device-side priority.
        prio: i64,
    },
    /// Enqueue the job's whole kernel chain onto a GPU queue (stream
    /// semantics). Used by LAX-CPU, whose lever is then `SetPriority`.
    EnqueueChain {
        /// Job to enqueue.
        job: JobId,
        /// Initial device priority.
        prio: i64,
    },
    /// Write the device priority register of the job's queue (memory-mapped
    /// write, ~1 us latency; the API extension of LAX-CPU).
    SetPriority {
        /// Target job.
        job: JobId,
        /// New priority (lower runs first).
        prio: i64,
    },
    /// Ask to be woken at the given time with [`HostEvent::Wake`].
    WakeAt(Cycle),
}

/// A CPU-side scheduler.
pub trait HostScheduler {
    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Period of [`HostEvent::Tick`] deliveries; `None` disables ticking.
    fn tick_period(&self) -> Option<Duration> {
        None
    }

    /// Reacts to an event by appending commands to `out`.
    fn react(&mut self, event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>);
}

// ----- the host-model subsystem ---------------------------------------------

use std::collections::{HashMap, VecDeque};

use crate::dispatch;
use crate::engine::{Delivery, Effects, Ev};
use crate::job::{JobFate, JobState};
use crate::queue::{ActiveJob, ComputeQueue};
use crate::sim::SchedulerMode;
use crate::state::{self, SimState};

/// Synthetic job ids (host-launched individual kernels / batches) start here.
pub(crate) const SYNTH_BASE: u32 = 1 << 30;

/// Latency of a memory-mapped priority-register write from the host
/// (the LAX-CPU API extension).
const PRIO_WRITE_LATENCY: Duration = Duration::from_us(1);

/// A host-launched synthetic job: one kernel (possibly merged from several
/// members) delivered to a device queue.
#[derive(Debug)]
struct SynthInfo {
    desc: Arc<JobDesc>,
    members: Vec<JobId>,
    kernel_idx: usize,
    prio: i64,
}

/// The host-model subsystem: per-job host bookkeeping, in-flight synthetic
/// launches, and deliveries parked waiting for a free device queue.
pub(crate) struct HostModel {
    jobs: Vec<HostJob>,
    inflight: usize,
    synth: HashMap<u32, SynthInfo>,
    next_synth: u32,
    pending: VecDeque<Delivery>,
    cmd_buf: Vec<HostCmd>,
}

impl HostModel {
    pub(crate) fn new(jobs: Vec<HostJob>) -> Self {
        HostModel {
            jobs,
            inflight: 0,
            synth: HashMap::new(),
            next_synth: SYNTH_BASE,
            pending: VecDeque::new(),
            cmd_buf: Vec::new(),
        }
    }

    /// Deliveries parked waiting for a free device queue.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// Runs the host scheduler against `event` and applies the commands it
/// issues. No-op in CP mode.
pub(crate) fn react(st: &mut SimState, fx: &mut Effects<'_>, event: HostEvent, now: Cycle) {
    let mut cmds = std::mem::take(&mut st.host.cmd_buf);
    cmds.clear();
    {
        let SimState { shared, host, .. } = st;
        let SchedulerMode::Host(sched) = &mut shared.mode else {
            host.cmd_buf = cmds;
            return;
        };
        let view = HostView {
            now,
            jobs: &host.jobs,
            counters: &shared.counters,
            config: &shared.cfg,
            inflight_kernels: host.inflight,
        };
        sched.react(event, &view, &mut cmds);
    }
    for cmd in cmds.drain(..) {
        apply_cmd(st, fx, cmd, now);
    }
    st.host.cmd_buf = cmds;
}

fn apply_cmd(st: &mut SimState, fx: &mut Effects<'_>, cmd: HostCmd, now: Cycle) {
    match cmd {
        HostCmd::Reject(j) => {
            let hj = &mut st.host.jobs[j.index()];
            if hj.rejected || hj.done || hj.inflight || hj.chain_enqueued || hj.next_kernel > 0 {
                return; // can only reject before any work ran
            }
            hj.rejected = true;
            st.shared.resolve(j, JobFate::Rejected(now), now);
        }
        HostCmd::Launch { job, kernel_idx, extra, prio } => {
            launch(st, fx, vec![job], kernel_idx, extra, prio, now);
        }
        HostCmd::LaunchBatch { members, kernel_idx, extra, prio } => {
            launch(st, fx, members, kernel_idx, extra, prio, now);
        }
        HostCmd::EnqueueChain { job, prio } => {
            let hj = &mut st.host.jobs[job.index()];
            if !hj.launchable() || hj.next_kernel != 0 {
                return;
            }
            hj.chain_enqueued = true;
            st.host.inflight += 1;
            fx.schedule(
                now + st.shared.cfg.host_launch_overhead,
                Ev::Deliver(Delivery::Chain { job_idx: job.0, prio }),
            );
        }
        HostCmd::SetPriority { job, prio } => {
            fx.schedule(now + PRIO_WRITE_LATENCY, Ev::PrioWrite { job, prio });
        }
        HostCmd::WakeAt(t) => {
            if t > now {
                fx.schedule(t, Ev::HostWake);
            }
        }
    }
}

fn launch(
    st: &mut SimState,
    fx: &mut Effects<'_>,
    members: Vec<JobId>,
    kernel_idx: usize,
    extra: Duration,
    prio: i64,
    now: Cycle,
) {
    if members.is_empty() {
        return;
    }
    let host = &mut st.host;
    for m in &members {
        let hj = &host.jobs[m.index()];
        if !hj.launchable() || hj.next_kernel != kernel_idx {
            debug_assert!(false, "invalid launch of {m:?} kernel {kernel_idx}");
            return;
        }
    }
    // Build the (possibly merged) kernel. `kernel_idx` is a position in each
    // member's topological order (== the stage index on a chain).
    let stage_of = |host: &HostModel, m: &JobId| -> usize {
        let desc = &host.jobs[m.index()].desc;
        desc.graph().topo_order()[kernel_idx] as usize
    };
    let first =
        host.jobs[members[0].index()].desc.kernels()[stage_of(host, &members[0])].clone();
    let total_threads: u32 = members
        .iter()
        .map(|m| host.jobs[m.index()].desc.kernels()[stage_of(host, m)].grid_threads)
        .sum();
    debug_assert!(members.iter().all(|m| {
        let k = &host.jobs[m.index()].desc.kernels()[stage_of(host, m)];
        k.class == first.class && k.wg_size == first.wg_size
    }));
    let mut merged = (*first).clone();
    merged.grid_threads = total_threads;
    let min_deadline = members
        .iter()
        .map(|m| host.jobs[m.index()].desc.deadline)
        .min()
        .expect("non-empty members")
        .max(Duration::from_cycles(1));
    let synth_id = host.next_synth;
    host.next_synth += 1;
    let desc = Arc::new(
        JobDesc::chain(
            JobId(synth_id),
            host.jobs[members[0].index()].desc.bench.clone(),
            vec![Arc::new(merged)],
            min_deadline,
            now,
        )
        .expect("synthetic single-kernel job is structurally valid"),
    );
    for m in &members {
        host.jobs[m.index()].inflight = true;
    }
    host.inflight += 1;
    host.synth.insert(synth_id, SynthInfo { desc, members, kernel_idx, prio });
    fx.schedule(
        now + st.shared.cfg.host_launch_overhead + extra,
        Ev::Deliver(Delivery::Synth(synth_id)),
    );
}

/// A delivery reached the device: bind it if a queue is free, else park it
/// (retried from [`drain_deliveries`] when a queue frees).
pub(crate) fn on_deliver(st: &mut SimState, fx: &mut Effects<'_>, d: Delivery, now: Cycle) {
    let _ = try_deliver(st, fx, d, now);
}

fn try_deliver(st: &mut SimState, fx: &mut Effects<'_>, d: Delivery, now: Cycle) -> bool {
    let Some(q) = st.shared.queues.iter().position(ComputeQueue::is_free) else {
        st.host.pending.push_back(d);
        state::check_backlog_limit(st);
        return false;
    };
    match d {
        Delivery::Synth(id) => {
            let info = &st.host.synth[&id];
            let desc = info.desc.clone();
            let prio = info.prio;
            let mut a = ActiveJob::new(desc, now);
            a.state = JobState::Ready;
            a.priority = prio;
            st.shared.queues[q].active = Some(a);
            st.shared.queue_of_job.insert(JobId(id), q);
        }
        Delivery::Chain { job_idx, prio } => {
            let desc = st.shared.jobs[job_idx as usize].clone();
            let mut a = ActiveJob::new(desc, now);
            a.state = JobState::Ready;
            a.priority = prio;
            st.shared.queues[q].active = Some(a);
            st.shared.queue_of_job.insert(JobId(job_idx), q);
        }
    }
    dispatch::try_dispatch(st, fx, now);
    true
}

/// Retries parked deliveries after a device queue freed.
pub(crate) fn drain_deliveries(st: &mut SimState, fx: &mut Effects<'_>, now: Cycle) {
    while let Some(d) = st.host.pending.pop_front() {
        if !try_deliver(st, fx, d, now) {
            break;
        }
    }
}

/// Attributes a retired WG to real jobs for wasted-work accounting:
/// synthetic jobs split the WG evenly across their members.
pub(crate) fn attribute_wg(st: &mut SimState, job_id: JobId) {
    if job_id.0 >= SYNTH_BASE {
        let SimState { shared, host, .. } = st;
        let members = &host.synth[&job_id.0].members;
        let share = 1.0 / members.len() as f64;
        for m in members {
            shared.records[m.index()].wgs_executed += share;
        }
    } else {
        st.shared.records[job_id.index()].wgs_executed += 1.0;
    }
}

/// A chain-enqueued real job finished a kernel on the device: update host
/// bookkeeping and (unless the whole job completed) notify the scheduler.
pub(crate) fn on_device_kernel_done(
    st: &mut SimState,
    fx: &mut Effects<'_>,
    job_id: JobId,
    kernel_idx: usize,
    job_complete: bool,
    now: Cycle,
) {
    // One device stage finished; advance the launched-and-finished count.
    // On a chain stages complete in index order, so this equals the old
    // `kernel_idx + 1` cursor write; on a DAG it is the completed count.
    st.host.jobs[job_id.index()].next_kernel += 1;
    if !job_complete {
        react(st, fx, HostEvent::KernelDone { job: job_id, kernel_idx }, now);
    }
}

/// A synthetic (host-launched) job completed: propagate progress to its
/// member jobs, resolving any that finished their last kernel, then notify
/// the scheduler per member.
pub(crate) fn complete_synth(st: &mut SimState, fx: &mut Effects<'_>, synth_id: u32, now: Cycle) {
    let info = st.host.synth.remove(&synth_id).expect("unknown synthetic job");
    st.host.inflight -= 1;
    for m in &info.members {
        let hj = &mut st.host.jobs[m.index()];
        hj.inflight = false;
        hj.next_kernel = info.kernel_idx + 1;
        if hj.next_kernel >= hj.desc.num_kernels() {
            hj.done = true;
            st.shared.resolve(*m, JobFate::Completed(now), now);
        }
    }
    for m in info.members {
        react(st, fx, HostEvent::KernelDone { job: m, kernel_idx: info.kernel_idx }, now);
    }
}

/// A chain-enqueued real job completed on the device.
pub(crate) fn complete_real(st: &mut SimState, fx: &mut Effects<'_>, job_id: JobId, now: Cycle) {
    st.host.jobs[job_id.index()].done = true;
    let last = st.host.jobs[job_id.index()].desc.num_kernels() - 1;
    st.shared.resolve(job_id, JobFate::Completed(now), now);
    react(st, fx, HostEvent::KernelDone { job: job_id, kernel_idx: last }, now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ComputeProfile, KernelClassId, KernelDesc};

    fn job(id: u32) -> Arc<JobDesc> {
        Arc::new(
            JobDesc::chain(
                JobId(id),
                "b",
                vec![Arc::new(KernelDesc::new(
                    KernelClassId(0),
                    "k",
                    128,
                    64,
                    8,
                    0,
                    ComputeProfile::compute_only(10),
                ))],
                Duration::from_us(50),
                Cycle::ZERO,
            )
            .unwrap(),
        )
    }

    #[test]
    fn host_job_launchability() {
        let mut h = HostJob::new(job(0));
        assert!(h.launchable());
        h.inflight = true;
        assert!(!h.launchable());
        h.inflight = false;
        h.done = true;
        assert!(!h.launchable());
    }

    #[test]
    fn predict_remaining_uses_offline_profile() {
        let jobs = vec![HostJob::new(job(0))];
        let mut counters = Counters::new(1, Duration::from_us(100));
        let cfg = GpuConfig::default();
        let view = HostView {
            now: Cycle::ZERO,
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 0,
        };
        assert_eq!(view.predict_remaining_us(JobId(0)), None);
        counters.set_offline_rate(KernelClassId(0), 0.5);
        let view = HostView {
            now: Cycle::ZERO,
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 0,
        };
        // 2 WGs at 0.5 WG/us -> 4 us.
        assert_eq!(view.predict_remaining_us(JobId(0)), Some(4.0));
    }
}
