//! PREMA (Choi & Rhu, HPCA 2020): a predictive multi-task scheduler with
//! token-based preemption, adapted to the GPU as the paper does
//! (Section 5.1): a 250 us preemption interval, extended to run multiple
//! jobs concurrently since single jobs under-utilize the GPU, and using
//! LAX-style frequent estimate updates.
//!
//! At each interval PREMA computes every job's *token* — user priority
//! times its slowdown (elapsed time over predicted isolated time) — and
//! selects the highest-token jobs until the device's wavefront capacity is
//! covered. Deselected jobs are preempted: in-flight workgroups drain
//! naturally, no new ones are dispatched, and re-selected jobs pay a
//! context save/restore penalty proportional to their kernel context size
//! before dispatching again.

use std::collections::HashSet;

use gpu_sim::job::JobState;
use gpu_sim::queue::ActiveJob;
use gpu_sim::scheduler::{CpContext, CpScheduler};
use sim_core::time::Duration;

/// Context save/restore bandwidth in bytes per microsecond (~256 GB/s).
const CTX_BYTES_PER_US: f64 = 256_000.0;

/// The PREMA scheduler.
#[derive(Debug, Default)]
pub struct Prema {
    /// Jobs selected in the current interval.
    selected: HashSet<u32>,
    /// Jobs that have been preempted at least once (owe a restore penalty).
    preempted: HashSet<u32>,
}

impl Prema {
    /// Creates the scheduler with the paper's 250 us interval.
    pub fn new() -> Self {
        Prema::default()
    }

    /// Token = user priority x slowdown, with every job at PREMA's default
    /// priority 1. Slowdown compares elapsed time to the predicted isolated
    /// duration from the offline profile table.
    fn token(job: &ActiveJob, ctx: &CpContext<'_>) -> f64 {
        let isolated_us: f64 = job
            .job
            .kernels()
            .iter()
            .filter_map(|k| ctx.counters.offline_rate(k.class).map(|r| k.num_wgs() as f64 / r))
            .sum();
        let elapsed_us = ctx.now.saturating_since(job.job.arrival).as_us_f64();
        let slowdown = if isolated_us > 0.0 { elapsed_us / isolated_us } else { elapsed_us };
        slowdown.max(1.0)
    }

    /// Penalty to bring a preempted job back on-device.
    fn restore_penalty(job: &ActiveJob) -> Duration {
        let ctx_bytes: u64 = job.head_kernel().map(|k| k.context_bytes()).unwrap_or(0);
        // Save + restore: twice the one-way transfer.
        Duration::from_us_f64((2.0 * ctx_bytes as f64 / CTX_BYTES_PER_US).max(1.0))
    }
}

impl CpScheduler for Prema {
    fn name(&self) -> &'static str {
        "PREMA"
    }

    fn requires_inspection(&self) -> bool {
        true // PREMA predicts from job structure, which needs inspection.
    }

    fn tick_period(&self) -> Option<Duration> {
        Some(Duration::from_us(250))
    }

    fn on_tick(&mut self, ctx: &mut CpContext<'_>) {
        let now = ctx.now;
        // Rank admitted jobs by token, highest first.
        let mut ranked: Vec<(f64, usize, u32, u32)> = Vec::new();
        for (q, job) in ctx.busy_queues() {
            if job.state == JobState::Init {
                continue;
            }
            let waves = job.head_kernel().map(|k| k.total_waves()).unwrap_or(0);
            ranked.push((Self::token(job, ctx), q, job.job.id.0, waves));
        }
        ranked
            .sort_by(|a, b| b.0.partial_cmp(&a.0).expect("tokens are finite").then(a.1.cmp(&b.1)));

        // Select greedily until the device's wave capacity is covered.
        let capacity = ctx.config.max_waves();
        let mut covered = 0u32;
        let mut new_selected = HashSet::new();
        for &(_, _, id, waves) in &ranked {
            if covered >= capacity && !new_selected.is_empty() {
                break;
            }
            new_selected.insert(id);
            covered += waves.max(1);
        }

        for (_, q, id, _) in ranked {
            let a = ctx.queues[q].active.as_mut().expect("ranked from busy queues");
            if new_selected.contains(&id) {
                a.priority = 0;
                if self.preempted.remove(&id) {
                    // Returning to the device: pay the context restore.
                    a.blocked_until = now + Self::restore_penalty(a);
                } else if a.blocked_until > now {
                    a.blocked_until = now;
                }
            } else {
                // Preempt: block dispatch until at least the next interval.
                a.priority = i64::MAX / 8;
                a.blocked_until = now + Duration::from_us(250);
                if a.state == JobState::Running {
                    self.preempted.insert(id);
                }
            }
        }
        self.selected = new_selected;
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        if let Some(a) = ctx.queues[q].active.as_mut() {
            // New jobs run at base priority until the next interval ranks
            // them.
            a.priority = 1;
        }
    }

    fn on_job_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        if let Some(a) = ctx.queues[q].active.as_ref() {
            self.selected.remove(&a.job.id.0);
            self.preempted.remove(&a.job.id.0);
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
    use gpu_sim::queue::ComputeQueue;
    use gpu_sim::scheduler::Occupancy;
    use sim_core::time::Cycle;
    use std::sync::Arc;

    fn queue_with(id: u32, wgs: u32, arrival_us: u64) -> ComputeQueue {
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
                Duration::from_ms(10),
                Cycle::ZERO + Duration::from_us(arrival_us),
            )
            .unwrap(),
        );
        let mut a = gpu_sim::queue::ActiveJob::new(desc, Cycle::ZERO);
        a.state = JobState::Ready;
        ComputeQueue { active: Some(a) }
    }

    #[test]
    fn older_jobs_accumulate_slowdown_and_win() {
        let mut prema = Prema::new();
        let mut counters = Counters::new(1, Duration::from_us(100));
        counters.set_offline_rate(KernelClassId(0), 1.0);
        // Job 0 arrived much earlier -> larger slowdown -> selected first.
        // Make both big enough that one alone covers the 320-wave device.
        let mut queues = vec![queue_with(0, 400, 0), queue_with(1, 400, 900)];
        let cfg = GpuConfig::default();
        let mut probes = gpu_sim::prelude::ProbeHub::new();
        let mut ctx = CpContext {
            now: Cycle::ZERO + Duration::from_us(1_000),
            queues: &mut queues,
            counters: &mut counters,
            occupancy: Occupancy::default(),
            config: &cfg,
            probes: &mut probes,
        };
        prema.on_tick(&mut ctx);
        assert_eq!(queues[0].job().priority, 0, "old job selected");
        assert!(queues[1].job().priority > 0, "young job preempted");
        assert!(queues[1].job().blocked_until > Cycle::ZERO + Duration::from_us(1_000));
    }

    #[test]
    fn small_jobs_coexist_within_capacity() {
        let mut prema = Prema::new();
        let mut counters = Counters::new(1, Duration::from_us(100));
        counters.set_offline_rate(KernelClassId(0), 1.0);
        // Two tiny jobs: both fit, both selected.
        let mut queues = vec![queue_with(0, 2, 0), queue_with(1, 2, 100)];
        let cfg = GpuConfig::default();
        let mut probes = gpu_sim::prelude::ProbeHub::new();
        let mut ctx = CpContext {
            now: Cycle::ZERO + Duration::from_us(500),
            queues: &mut queues,
            counters: &mut counters,
            occupancy: Occupancy::default(),
            config: &cfg,
            probes: &mut probes,
        };
        prema.on_tick(&mut ctx);
        assert_eq!(queues[0].job().priority, 0);
        assert_eq!(queues[1].job().priority, 0);
    }

    #[test]
    fn restore_penalty_scales_with_context() {
        let q = queue_with(0, 100, 0);
        let p = Prema::restore_penalty(q.job());
        assert!(p >= Duration::from_us(1));
    }
}
