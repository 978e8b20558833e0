//! The LAX command-processor scheduler (paper Section 4).
//!
//! LAX combines three mechanisms, each independently switchable for the
//! ablation studies in DESIGN.md:
//!
//! 1. **Stream inspection** — jobs pass the CP's queue parser (4 streams per
//!    2 us) before admission, giving LAX the full WGList of every job.
//! 2. **Admission control** (Algorithm 1) — Little's-Law queueing-delay
//!    estimate; jobs predicted to miss their deadline are rejected.
//! 3. **Laxity-aware priorities** (Algorithm 2) — every 100 us, and
//!    immediately on each kernel completion, job priority is set from its
//!    estimated laxity.

use gpu_sim::job::JobState;
use gpu_sim::probe::ProbeEvent;
use gpu_sim::scheduler::{Admission, CpContext, CpScheduler};
use sim_core::time::Duration;

use crate::admission;
use crate::estimate::{remaining_time_us, LiveRates};
use crate::laxity::LaxityEstimate;

/// How new jobs are prioritized before their first laxity update
/// (paper footnote 2: highest performed best; the alternatives cost 10% and
/// 1% respectively).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitPriority {
    /// Start at the highest priority (value 0). The paper's choice.
    #[default]
    Highest,
    /// Start at the lowest priority.
    Lowest,
    /// Run a laxity estimate immediately on arrival.
    InitialLaxity,
}

/// LAX configuration knobs.
#[derive(Debug, Clone)]
pub struct LaxConfig {
    /// Priority-update period (paper: 100 us, chosen empirically).
    pub update_period: Duration,
    /// Enable Algorithm 1 admission control.
    pub admission: bool,
    /// Use laxity for priorities; when `false` the policy degrades to pure
    /// shortest-remaining-time ordering (the SRF ablation point).
    pub use_laxity: bool,
    /// Initial priority policy.
    pub init_priority: InitPriority,
    /// Update a job's priority immediately when one of its kernels
    /// completes (the fine-grained responsiveness of CP integration).
    pub event_driven_updates: bool,
}

impl Default for LaxConfig {
    fn default() -> Self {
        LaxConfig {
            update_period: Duration::from_us(100),
            admission: true,
            use_laxity: true,
            init_priority: InitPriority::Highest,
            event_driven_updates: true,
        }
    }
}

/// The CP-integrated laxity-aware scheduler.
///
/// # Examples
///
/// ```
/// use lax::lax::Lax;
/// use gpu_sim::scheduler::CpScheduler;
///
/// let s = Lax::new();
/// assert_eq!(s.name(), "LAX");
/// assert!(s.requires_inspection());
/// ```
#[derive(Debug, Default)]
pub struct Lax {
    cfg: LaxConfig,
    rejected: u64,
    admitted: u64,
}

impl Lax {
    /// Creates LAX with the paper's configuration.
    pub fn new() -> Self {
        Lax::default()
    }

    /// Creates LAX with custom knobs (for ablations).
    pub fn with_config(cfg: LaxConfig) -> Self {
        Lax { cfg, ..Lax::default() }
    }

    /// Jobs rejected by admission control so far.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Jobs admitted so far.
    pub fn admitted_count(&self) -> u64 {
        self.admitted
    }

    /// Recomputes the priority of the job on queue `q`.
    fn update_queue_priority(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        let CpContext { now, queues, counters, probes, .. } = ctx;
        let Some(job) = queues[q].active.as_ref() else {
            return;
        };
        if job.state == JobState::Init {
            return;
        }
        let mut rates = LiveRates::new(counters, *now);
        let rem = remaining_time_us(job, &mut rates);
        let est = LaxityEstimate::new(job, rem, *now);
        let prio = if self.cfg.use_laxity {
            est.priority()
        } else {
            crate::laxity::us_to_prio(est.remaining_us)
        };
        let job_id = job.job.id;
        probes.emit_with(*now, || ProbeEvent::CpPriority {
            job: job_id,
            predicted_total_us: est.completion_us(),
            priority: prio,
        });
        queues[q].active.as_mut().expect("checked above").priority = prio;
    }
}

impl CpScheduler for Lax {
    fn name(&self) -> &'static str {
        "LAX"
    }

    fn requires_inspection(&self) -> bool {
        true
    }

    fn tick_period(&self) -> Option<Duration> {
        Some(self.cfg.update_period)
    }

    fn on_tick(&mut self, ctx: &mut CpContext<'_>) {
        for q in 0..ctx.queues.len() {
            self.update_queue_priority(ctx, q);
        }
    }

    fn admit(&mut self, ctx: &mut CpContext<'_>, q: usize) -> Admission {
        if !self.cfg.admission {
            self.admitted += 1;
            return Admission::Accept;
        }
        let CpContext { now, queues, counters, .. } = ctx;
        let mut rates = LiveRates::new(counters, *now);
        let jobs = queues
            .iter()
            .enumerate()
            .filter_map(|(i, queue)| queue.active.as_ref().map(|a| (i, a)));
        let est = admission::evaluate(jobs, q, *now, &mut rates);
        if est.accepts() {
            self.admitted += 1;
            Admission::Accept
        } else {
            self.rejected += 1;
            Admission::Reject
        }
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        match self.cfg.init_priority {
            InitPriority::Highest => {
                if let Some(a) = ctx.queues[q].active.as_mut() {
                    a.priority = 0;
                }
            }
            InitPriority::Lowest => {
                if let Some(a) = ctx.queues[q].active.as_mut() {
                    a.priority = crate::laxity::PRIO_INF - 1;
                }
            }
            InitPriority::InitialLaxity => self.update_queue_priority(ctx, q),
        }
    }

    fn on_kernel_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        if self.cfg.event_driven_updates {
            self.update_queue_priority(ctx, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use gpu_sim::counters::Counters;
    use gpu_sim::job::{JobDesc, JobId};
    use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
    use gpu_sim::probe::MetricsSampler;
    use gpu_sim::queue::{ActiveJob, ComputeQueue};
    use gpu_sim::scheduler::Occupancy;
    use sim_core::probe::ProbeHub;
    use sim_core::time::Cycle;
    use std::sync::{Arc, Mutex};

    fn queue_with_job(id: u32, wgs: u32, deadline_us: u64, state: JobState) -> ComputeQueue {
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
            JobDesc::chain(JobId(id), "b", vec![k], Duration::from_us(deadline_us), Cycle::ZERO)
                .unwrap(),
        );
        let mut a = ActiveJob::new(desc, Cycle::ZERO);
        a.state = state;
        ComputeQueue { active: Some(a) }
    }

    fn with_ctx<R>(
        queues: &mut Vec<ComputeQueue>,
        counters: &mut Counters,
        now: Cycle,
        f: impl FnOnce(&mut CpContext<'_>) -> R,
    ) -> R {
        let cfg = GpuConfig::default();
        let mut probes = ProbeHub::new();
        let mut ctx = CpContext {
            now,
            queues,
            counters,
            occupancy: Occupancy::default(),
            config: &cfg,
            probes: &mut probes,
        };
        f(&mut ctx)
    }

    fn warmed_counters(rate_per_us: f64) -> Counters {
        let mut c = Counters::new(1, Duration::from_us(100));
        // n WGs over 50us of busy time -> n/50 WGs/us.
        let n = (rate_per_us * 50.0) as u64;
        let t = Cycle::ZERO + Duration::from_us(50);
        for _ in 0..n {
            c.note_wg_placed(KernelClassId(0), Cycle::ZERO);
        }
        for _ in 0..n {
            c.record_wg(KernelClassId(0), t);
        }
        c.refresh(t);
        c
    }

    #[test]
    fn admits_into_empty_system() {
        let mut lax = Lax::new();
        let mut queues = vec![queue_with_job(0, 10, 1_000, JobState::Init)];
        let mut counters = warmed_counters(1.0);
        let d = with_ctx(&mut queues, &mut counters, Cycle::ZERO + Duration::from_us(60), |ctx| {
            lax.admit(ctx, 0)
        });
        assert_eq!(d, Admission::Accept);
        assert_eq!(lax.admitted_count(), 1);
    }

    #[test]
    fn rejects_oversubscribed_system() {
        let mut lax = Lax::new();
        let mut queues = vec![
            queue_with_job(1, 5_000, 100_000, JobState::Running),
            queue_with_job(0, 10, 100, JobState::Init),
        ];
        let mut counters = warmed_counters(1.0);
        let d = with_ctx(&mut queues, &mut counters, Cycle::ZERO + Duration::from_us(60), |ctx| {
            lax.admit(ctx, 1)
        });
        assert_eq!(d, Admission::Reject, "5000us of queued work vs 100us deadline");
        assert_eq!(lax.rejected_count(), 1);
    }

    #[test]
    fn admission_can_be_disabled() {
        let mut lax = Lax::with_config(LaxConfig { admission: false, ..LaxConfig::default() });
        let mut queues = vec![
            queue_with_job(1, 5_000, 100_000, JobState::Running),
            queue_with_job(0, 10, 100, JobState::Init),
        ];
        let mut counters = warmed_counters(1.0);
        let d = with_ctx(&mut queues, &mut counters, Cycle::ZERO + Duration::from_us(60), |ctx| {
            lax.admit(ctx, 1)
        });
        assert_eq!(d, Admission::Accept);
    }

    #[test]
    fn tick_orders_by_laxity() {
        let mut lax = Lax::new();
        // Job 0: small work, long deadline -> large laxity.
        // Job 1: large work, same deadline -> small laxity.
        let mut queues = vec![
            queue_with_job(0, 10, 1_000, JobState::Ready),
            queue_with_job(1, 500, 1_000, JobState::Ready),
        ];
        let mut counters = warmed_counters(1.0);
        with_ctx(&mut queues, &mut counters, Cycle::ZERO + Duration::from_us(100), |ctx| {
            lax.on_tick(ctx)
        });
        let p0 = queues[0].job().priority;
        let p1 = queues[1].job().priority;
        assert!(p1 < p0, "tighter job must run first: {p1} vs {p0}");
    }

    #[test]
    fn hopeless_job_is_parked() {
        let mut lax = Lax::new();
        let mut queues = vec![queue_with_job(0, 10, 50, JobState::Ready)];
        let mut counters = warmed_counters(1.0);
        // Already past its 50us deadline.
        with_ctx(&mut queues, &mut counters, Cycle::ZERO + Duration::from_us(80), |ctx| {
            lax.on_tick(ctx)
        });
        assert_eq!(queues[0].job().priority, crate::laxity::PRIO_INF);
    }

    #[test]
    fn initial_priority_is_highest_by_default() {
        let mut lax = Lax::new();
        let mut queues = vec![queue_with_job(0, 10, 1_000, JobState::Ready)];
        queues[0].job_mut().priority = 777;
        let mut counters = warmed_counters(1.0);
        with_ctx(&mut queues, &mut counters, Cycle::ZERO, |ctx| lax.on_job_enqueued(ctx, 0));
        assert_eq!(queues[0].job().priority, 0);
    }

    #[test]
    fn priority_probe_feeds_a_watching_sampler() {
        let sampler = Arc::new(Mutex::new(MetricsSampler::new().watch_job(JobId(0))));
        let mut probes = ProbeHub::new();
        probes.attach(Box::new(Arc::clone(&sampler)));
        let mut lax = Lax::new();
        let mut queues = vec![
            queue_with_job(0, 10, 1_000, JobState::Ready),
            queue_with_job(1, 10, 1_000, JobState::Ready),
        ];
        let mut counters = warmed_counters(1.0);
        let cfg = GpuConfig::default();
        let mut ctx = CpContext {
            now: Cycle::ZERO + Duration::from_us(100),
            queues: &mut queues,
            counters: &mut counters,
            occupancy: Occupancy::default(),
            config: &cfg,
            probes: &mut probes,
        };
        lax.on_tick(&mut ctx);
        let s = sampler.lock().unwrap();
        assert_eq!(s.watched_predicted().points().len(), 1, "only the watched job is sampled");
        assert_eq!(s.watched_priority().points().len(), 1);
        assert_eq!(s.watched_priority().points()[0].value, queues[0].job().priority as f64);
    }
}
