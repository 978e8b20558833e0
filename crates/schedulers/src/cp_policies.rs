//! CP-integrated baseline schedulers: EDF, SJF, SRF, LJF and MLFQ
//! (paper Table 3, "Advanced GPU Command Processor Scheduling").

use std::collections::HashMap;

use gpu_sim::job::JobState;
use gpu_sim::queue::ActiveJob;
use gpu_sim::scheduler::{CpContext, CpScheduler};
use lax::estimate::{remaining_time_us, LiveRates};
use lax::laxity::{duration_to_prio, us_to_prio, PRIO_INF};
use sim_core::time::{Cycle, Duration};

/// Earliest-Deadline-First, without preemption (Section 5.1 explains why
/// strict preemptive EDF is impractical at these time scales: ~1 ms context
/// switches exceed several workloads' entire deadline).
///
/// Priority is the absolute deadline: earlier deadlines dispatch first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Edf;

impl Edf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Edf
    }
}

impl CpScheduler for Edf {
    fn name(&self) -> &'static str {
        "EDF"
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        if let Some(a) = ctx.queues[q].active.as_mut() {
            a.priority = duration_to_prio(a.deadline_abs().saturating_since(Cycle::ZERO));
        }
    }
}

/// Static job-size estimate in microseconds from the offline profile table;
/// kernels without a profile optimistically contribute zero.
fn offline_size_us(job: &ActiveJob, ctx: &CpContext<'_>) -> f64 {
    job.job
        .kernels()
        .iter()
        .filter_map(|k| ctx.counters.offline_rate(k.class).map(|r| k.num_wgs() as f64 / r))
        .sum()
}

/// Shortest-Job-First: static total-size priority assigned once at enqueue,
/// from offline profiles (Table 3: "a static scheduling policy").
#[derive(Debug, Clone, Copy, Default)]
pub struct Sjf;

impl Sjf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Sjf
    }
}

impl CpScheduler for Sjf {
    fn name(&self) -> &'static str {
        "SJF"
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        let Some(job) = ctx.queues[q].active.as_ref() else { return };
        let prio = us_to_prio(offline_size_us(job, ctx));
        ctx.queues[q].active.as_mut().expect("checked").priority = prio;
    }
}

/// Longest-Job-First: the mirror of SJF (largest static size first).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ljf;

impl Ljf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Ljf
    }
}

impl CpScheduler for Ljf {
    fn name(&self) -> &'static str {
        "LJF"
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        let Some(job) = ctx.queues[q].active.as_ref() else { return };
        // Negate so the largest job carries the smallest priority value.
        let prio = -us_to_prio(offline_size_us(job, ctx));
        ctx.queues[q].active.as_mut().expect("checked").priority = prio;
    }
}

/// Shortest-Remaining-time-First: uses LAX's dynamic remaining-time
/// estimator (stream inspection + live WG completion rates) but ranks purely
/// by remaining time — no laxity, no queueing-delay admission. The paper's
/// closest non-LAX CP scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Srf;

impl Srf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Srf
    }

    fn update(&self, ctx: &mut CpContext<'_>, q: usize) {
        let CpContext { now, queues, counters, .. } = ctx;
        let Some(job) = queues[q].active.as_ref() else { return };
        if job.state == JobState::Init {
            return;
        }
        let mut rates = LiveRates::new(counters, *now);
        let rem = remaining_time_us(job, &mut rates);
        queues[q].active.as_mut().expect("checked").priority = us_to_prio(rem);
    }
}

impl CpScheduler for Srf {
    fn name(&self) -> &'static str {
        "SRF"
    }

    fn requires_inspection(&self) -> bool {
        true
    }

    fn tick_period(&self) -> Option<Duration> {
        Some(Duration::from_us(100))
    }

    fn on_tick(&mut self, ctx: &mut CpContext<'_>) {
        for q in 0..ctx.queues.len() {
            self.update(ctx, q);
        }
    }

    fn on_kernel_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.update(ctx, q);
    }
}

/// Multi-Level Feedback Queue with two levels (Table 3 / Section 5.1):
/// jobs start in the high-priority queue, are demoted once their runtime
/// exceeds one third of their deadline, and promoted back once it exceeds
/// two thirds. Round-robin within each level.
#[derive(Debug, Clone, Default)]
pub struct Mlfq {
    level: HashMap<u32, i64>,
}

impl Mlfq {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Mlfq::default()
    }

    fn level_of(job: &ActiveJob, now: Cycle) -> i64 {
        let runtime = now.saturating_since(job.job.arrival);
        let deadline = job.job.deadline;
        let third = deadline / 3;
        if runtime.as_cycles() > 2 * third.as_cycles() {
            0 // promoted back near the deadline
        } else if runtime > third {
            1 // demoted: it has been running a while
        } else {
            0
        }
    }
}

impl CpScheduler for Mlfq {
    fn name(&self) -> &'static str {
        "MLFQ"
    }

    fn tick_period(&self) -> Option<Duration> {
        Some(Duration::from_us(100))
    }

    fn on_tick(&mut self, ctx: &mut CpContext<'_>) {
        let now = ctx.now;
        for q in 0..ctx.queues.len() {
            if let Some(a) = ctx.queues[q].active.as_mut() {
                if a.state != JobState::Init {
                    let lvl = Self::level_of(a, now);
                    self.level.insert(a.job.id.0, lvl);
                    a.priority = lvl;
                }
            }
        }
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        if let Some(a) = ctx.queues[q].active.as_mut() {
            a.priority = 0;
        }
    }

    fn on_job_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        if let Some(a) = ctx.queues[q].active.as_ref() {
            self.level.remove(&a.job.id.0);
        }
    }
}

// PRIO_INF is re-exported through lax::laxity; silence the unused import if
// no policy above needs it in future edits.
const _: i64 = PRIO_INF;

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use gpu_sim::counters::Counters;
    use gpu_sim::job::{JobDesc, JobId};
    use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
    use gpu_sim::queue::ComputeQueue;
    use gpu_sim::scheduler::Occupancy;
    use std::sync::Arc;

    fn queue_with(id: u32, wgs: u32, deadline_us: u64, arrival_us: u64) -> ComputeQueue {
        let k = Arc::new(KernelDesc::new(
            KernelClassId(0),
            "k",
            wgs * 64,
            64,
            8,
            0,
            ComputeProfile::compute_only(10),
        ));
        let desc = Arc::new(
            JobDesc::chain(
                JobId(id),
                "b",
                vec![k],
                Duration::from_us(deadline_us),
                Cycle::ZERO + Duration::from_us(arrival_us),
            )
            .unwrap(),
        );
        let mut a = gpu_sim::queue::ActiveJob::new(desc, Cycle::ZERO);
        a.state = JobState::Ready;
        ComputeQueue { active: Some(a) }
    }

    fn ctx_run<R>(
        queues: &mut Vec<ComputeQueue>,
        counters: &mut Counters,
        now_us: u64,
        f: impl FnOnce(&mut CpContext<'_>) -> R,
    ) -> R {
        let cfg = GpuConfig::default();
        let mut probes = gpu_sim::prelude::ProbeHub::new();
        let mut ctx = CpContext {
            now: Cycle::ZERO + Duration::from_us(now_us),
            queues,
            counters,
            occupancy: Occupancy::default(),
            config: &cfg,
            probes: &mut probes,
        };
        f(&mut ctx)
    }

    #[test]
    fn edf_orders_by_absolute_deadline() {
        let mut edf = Edf::new();
        let mut queues = vec![queue_with(0, 10, 500, 0), queue_with(1, 10, 100, 0)];
        let mut counters = Counters::new(1, Duration::from_us(100));
        ctx_run(&mut queues, &mut counters, 0, |ctx| {
            edf.on_job_enqueued(ctx, 0);
            edf.on_job_enqueued(ctx, 1);
        });
        assert!(queues[1].job().priority < queues[0].job().priority);
    }

    #[test]
    fn edf_considers_arrival_time() {
        let mut edf = Edf::new();
        // Same relative deadline, later arrival -> later absolute deadline.
        let mut queues = vec![queue_with(0, 10, 100, 0), queue_with(1, 10, 100, 50)];
        let mut counters = Counters::new(1, Duration::from_us(100));
        ctx_run(&mut queues, &mut counters, 50, |ctx| {
            edf.on_job_enqueued(ctx, 0);
            edf.on_job_enqueued(ctx, 1);
        });
        assert!(queues[0].job().priority < queues[1].job().priority);
    }

    #[test]
    fn sjf_and_ljf_are_mirrors() {
        let mut counters = Counters::new(1, Duration::from_us(100));
        counters.set_offline_rate(KernelClassId(0), 1.0);
        let mut queues = vec![queue_with(0, 10, 500, 0), queue_with(1, 100, 500, 0)];
        let mut sjf = Sjf::new();
        ctx_run(&mut queues, &mut counters, 0, |ctx| {
            sjf.on_job_enqueued(ctx, 0);
            sjf.on_job_enqueued(ctx, 1);
        });
        assert!(queues[0].job().priority < queues[1].job().priority, "short job first");
        let mut ljf = Ljf::new();
        ctx_run(&mut queues, &mut counters, 0, |ctx| {
            ljf.on_job_enqueued(ctx, 0);
            ljf.on_job_enqueued(ctx, 1);
        });
        assert!(queues[1].job().priority < queues[0].job().priority, "long job first");
    }

    #[test]
    fn srf_tracks_remaining_work() {
        let mut counters = Counters::new(1, Duration::from_us(100));
        for _ in 0..100 {
            counters.note_wg_placed(KernelClassId(0), Cycle::ZERO);
        }
        for _ in 0..100 {
            counters.record_wg(KernelClassId(0), Cycle::ZERO + Duration::from_us(50));
        }
        let mut queues = vec![queue_with(0, 100, 5_000, 0), queue_with(1, 100, 5_000, 0)];
        queues[1].job_mut().stages[0].wgs_completed = 90; // nearly done
        let mut srf = Srf::new();
        ctx_run(&mut queues, &mut counters, 100, |ctx| srf.on_tick(ctx));
        assert!(
            queues[1].job().priority < queues[0].job().priority,
            "less remaining work runs first"
        );
    }

    #[test]
    fn mlfq_demotes_then_promotes() {
        let mut mlfq = Mlfq::new();
        let mut counters = Counters::new(1, Duration::from_us(100));
        let mut queues = vec![queue_with(0, 10, 300, 0)];
        ctx_run(&mut queues, &mut counters, 50, |ctx| mlfq.on_tick(ctx));
        assert_eq!(queues[0].job().priority, 0, "young job stays high");
        ctx_run(&mut queues, &mut counters, 150, |ctx| mlfq.on_tick(ctx));
        assert_eq!(queues[0].job().priority, 1, "demoted past deadline/3");
        ctx_run(&mut queues, &mut counters, 250, |ctx| mlfq.on_tick(ctx));
        assert_eq!(queues[0].job().priority, 0, "promoted past 2*deadline/3");
    }
}
