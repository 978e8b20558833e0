//! Scheduling interfaces: CP-integrated schedulers (run inside the GPU's
//! command processor, like the paper's LAX/SJF/SRF/EDF/LJF/MLFQ/PREMA) and
//! the built-in deadline-blind round-robin of contemporary GPUs.
//!
//! CP schedulers see rich, fresh state: every queue's Job-Table entry, the
//! hardware counters, and device occupancy. They express decisions by
//! mutating each [`crate::queue::ActiveJob`]'s `priority` (lower runs
//! first) and
//! `blocked_until`, and by answering admission queries.

use sim_core::probe::ProbeHub;
use sim_core::time::{Cycle, Duration};

use crate::config::GpuConfig;
use crate::counters::Counters;
use crate::probe::ProbeEvent;
use crate::queue::ComputeQueue;

/// Outcome of an admission query (paper Section 4.3: LAX rejects jobs
/// predicted to miss their deadline rather than oversubscribing the GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Offload the job.
    Accept,
    /// Refuse the job; the CPU keeps it (counted as a miss).
    Reject,
}

/// Instantaneous device occupancy, visible to CP schedulers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Free wavefront slots across the device.
    pub free_wave_slots: u32,
    /// Resident wavefronts.
    pub resident_waves: u32,
    /// Queues holding an uncompleted job.
    pub busy_queues: u32,
}

/// Mutable view of command-processor state handed to scheduler callbacks.
#[derive(Debug)]
pub struct CpContext<'a> {
    /// Current simulation time.
    pub now: Cycle,
    /// All hardware queues; index = queue id.
    pub queues: &'a mut [ComputeQueue],
    /// Hardware counters (WG completion rates, offline profiles).
    pub counters: &'a mut Counters,
    /// Device occupancy snapshot.
    pub occupancy: Occupancy,
    /// Machine configuration.
    pub config: &'a GpuConfig,
    /// Probe hub for scheduler-decision observability (e.g.
    /// [`ProbeEvent::CpPriority`]). A no-op unless an observer is attached;
    /// emitting through it never perturbs the simulation.
    pub probes: &'a mut ProbeHub<ProbeEvent>,
}

impl CpContext<'_> {
    /// Iterates over `(queue index, job)` for queues holding a job.
    pub fn busy_queues(&self) -> impl Iterator<Item = (usize, &crate::queue::ActiveJob)> {
        self.queues.iter().enumerate().filter_map(|(i, q)| q.active.as_ref().map(|a| (i, a)))
    }
}

/// A scheduler running inside the GPU command processor.
///
/// Implementations mutate queue priorities in [`CpContext`]; the WG
/// dispatcher then serves ready queues lowest-priority-value first,
/// round-robin among ties. All callbacks default to no-ops so simple
/// policies stay simple.
pub trait CpScheduler {
    /// Scheduler name for reports (e.g. `"LAX"`).
    fn name(&self) -> &'static str;

    /// `true` if jobs must pass stream inspection (at the CP's 4 streams per
    /// 2 us parse rate) before admission is decided.
    fn requires_inspection(&self) -> bool {
        false
    }

    /// Period of [`CpScheduler::on_tick`]; `None` disables ticking.
    fn tick_period(&self) -> Option<Duration> {
        None
    }

    /// Periodic priority recomputation (LAX: every 100 us).
    fn on_tick(&mut self, _ctx: &mut CpContext<'_>) {}

    /// Admission decision for the job on queue `q` (after inspection when
    /// [`CpScheduler::requires_inspection`] is `true`).
    fn admit(&mut self, _ctx: &mut CpContext<'_>, _q: usize) -> Admission {
        Admission::Accept
    }

    /// A job was admitted and bound to queue `q`.
    fn on_job_enqueued(&mut self, _ctx: &mut CpContext<'_>, _q: usize) {}

    /// A workgroup of queue `q`'s head kernel completed.
    fn on_wg_complete(&mut self, _ctx: &mut CpContext<'_>, _q: usize) {}

    /// Queue `q`'s head kernel completed (the job advanced).
    fn on_kernel_complete(&mut self, _ctx: &mut CpContext<'_>, _q: usize) {}

    /// Queue `q`'s job finished; the queue is about to be freed.
    fn on_job_complete(&mut self, _ctx: &mut CpContext<'_>, _q: usize) {}
}

/// Contemporary GPU behaviour: deadline-blind round-robin over the compute
/// queues (paper Section 2.1). All priorities stay equal; the dispatcher's
/// rotating cursor provides the cyclic order.
///
/// # Examples
///
/// ```
/// use gpu_sim::scheduler::{CpScheduler, RoundRobin};
///
/// let rr = RoundRobin::new();
/// assert_eq!(rr.name(), "RR");
/// assert!(!rr.requires_inspection());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        RoundRobin
    }
}

impl CpScheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_a_no_op_policy() {
        let mut rr = RoundRobin::new();
        let mut counters = Counters::new(1, Duration::from_us(100));
        let mut queues = vec![ComputeQueue::default()];
        let cfg = GpuConfig::default();
        let mut probes = ProbeHub::new();
        let mut ctx = CpContext {
            now: Cycle::ZERO,
            queues: &mut queues,
            counters: &mut counters,
            occupancy: Occupancy::default(),
            config: &cfg,
            probes: &mut probes,
        };
        assert_eq!(rr.admit(&mut ctx, 0), Admission::Accept);
        assert_eq!(rr.tick_period(), None);
        rr.on_tick(&mut ctx);
    }
}
