//! CPU-side laxity scheduling: the LAX-SW and LAX-CPU variants of
//! Section 5.1 / Figure 8.
//!
//! Both run the same estimation, admission and laxity logic as LAX but from
//! the host, so they only see kernel-granularity progress and counter values
//! that are one refresh stale, and they pay host-device latency for every
//! command:
//!
//! * **LAX-SW** launches each kernel individually (4 us each) and can only
//!   pick an order at launch time — once a kernel is on the device its
//!   priority is frozen.
//! * **LAX-CPU** enqueues the whole chain up front and uses the extended
//!   API to rewrite queue priority registers (1 us memory-mapped writes),
//!   recovering most — but not all — of LAX's benefit.

use std::collections::HashMap;

use gpu_sim::host::{HostCmd, HostEvent, HostJob, HostScheduler, HostView};
use gpu_sim::job::JobId;
use sim_core::time::Duration;

use crate::estimate::{remaining_time_us_of, CachedRates};
use crate::laxity::LaxityEstimate;

/// Remaining time of `job` as the host can see it: whole kernels not yet
/// launched-and-finished (no partial-kernel credit — WG progress is
/// invisible to the CPU), using cached rates. The host serializes DAG jobs
/// along the topological order, so the flat sum over the remaining suffix is
/// the right model for both chains and DAGs here.
fn host_remaining_us(view: &HostView<'_>, job: &HostJob) -> f64 {
    remaining_time_us_of(
        job.remaining_kernels().map(|k| (k.class, k.num_wgs())),
        &mut CachedRates::new(view.counters),
    )
}

/// Host-side Algorithm 1: queueing delay is the summed remaining time of
/// every accepted, unfinished job.
fn host_admits(view: &HostView<'_>, candidate: JobId, accepted: &HashMap<u32, i64>) -> bool {
    let mut queue_delay = 0.0;
    for &id in accepted.keys() {
        let j = &view.jobs[id as usize];
        if j.done || j.rejected {
            continue;
        }
        queue_delay += host_remaining_us(view, j);
    }
    let j = &view.jobs[candidate.index()];
    let hold = host_remaining_us(view, j);
    let age = view.now.saturating_since(j.desc.arrival).as_us_f64();
    queue_delay + hold + age < j.desc.deadline.as_us_f64()
}

fn host_priority(view: &HostView<'_>, job: &HostJob) -> i64 {
    let rem = host_remaining_us(view, job);
    let est = LaxityEstimate {
        remaining_us: rem,
        duration_us: view.now.saturating_since(job.desc.arrival).as_us_f64(),
        deadline_us: job.desc.deadline.as_us_f64(),
    };
    est.priority()
}

/// LAX-CPU: chain-enqueued jobs, host-computed laxity priorities written to
/// memory-mapped queue registers every 100 us.
#[derive(Debug, Default)]
pub struct LaxCpu {
    accepted: HashMap<u32, i64>,
}

impl LaxCpu {
    /// Creates the scheduler.
    pub fn new() -> Self {
        LaxCpu::default()
    }
}

impl HostScheduler for LaxCpu {
    fn name(&self) -> &'static str {
        "LAX-CPU"
    }

    fn tick_period(&self) -> Option<Duration> {
        Some(Duration::from_us(100))
    }

    fn react(&mut self, event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        match event {
            HostEvent::Arrival(job) => {
                if host_admits(view, job, &self.accepted) {
                    self.accepted.insert(job.0, 0);
                    out.push(HostCmd::EnqueueChain { job, prio: 0 });
                } else {
                    out.push(HostCmd::Reject(job));
                }
            }
            HostEvent::Tick => {
                self.accepted.retain(|&id, _| {
                    let j = &view.jobs[id as usize];
                    !j.done && !j.rejected
                });
                for (&id, prio) in self.accepted.iter_mut() {
                    let j = &view.jobs[id as usize];
                    let new_prio = host_priority(view, j);
                    if new_prio != *prio {
                        *prio = new_prio;
                        out.push(HostCmd::SetPriority { job: JobId(id), prio: new_prio });
                    }
                }
            }
            HostEvent::KernelDone { .. } | HostEvent::Wake => {}
        }
    }
}

/// LAX-SW: everything on the CPU. Kernels are launched one at a time per
/// job (4 us host-device overhead each) with the job's laxity priority at
/// launch time; admission is host-side Algorithm 1.
#[derive(Debug, Default)]
pub struct LaxSw {
    accepted: HashMap<u32, i64>,
}

impl LaxSw {
    /// Creates the scheduler.
    pub fn new() -> Self {
        LaxSw::default()
    }

    fn launch_ready(&mut self, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        // Launch the next kernel of every accepted job that has none in
        // flight, carrying the current laxity priority.
        let mut launches: Vec<(i64, JobId, usize)> = Vec::new();
        for (&id, &prio) in &self.accepted {
            let j = &view.jobs[id as usize];
            if j.launchable() && j.next_kernel_desc().is_some() {
                launches.push((prio, JobId(id), j.next_kernel));
            }
        }
        launches.sort_unstable();
        for (prio, job, kernel_idx) in launches {
            out.push(HostCmd::Launch { job, kernel_idx, extra: Duration::ZERO, prio });
        }
    }
}

impl HostScheduler for LaxSw {
    fn name(&self) -> &'static str {
        "LAX-SW"
    }

    fn tick_period(&self) -> Option<Duration> {
        Some(Duration::from_us(100))
    }

    fn react(&mut self, event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        match event {
            HostEvent::Arrival(job) => {
                if host_admits(view, job, &self.accepted) {
                    let prio = host_priority(view, &view.jobs[job.index()]);
                    self.accepted.insert(job.0, prio);
                    self.launch_ready(view, out);
                } else {
                    out.push(HostCmd::Reject(job));
                }
            }
            HostEvent::KernelDone { .. } => {
                self.accepted.retain(|&id, _| {
                    let j = &view.jobs[id as usize];
                    !j.done && !j.rejected
                });
                self.launch_ready(view, out);
            }
            HostEvent::Tick => {
                self.accepted.retain(|&id, _| {
                    let j = &view.jobs[id as usize];
                    !j.done && !j.rejected
                });
                for (&id, prio) in self.accepted.iter_mut() {
                    *prio = host_priority(view, &view.jobs[id as usize]);
                }
                self.launch_ready(view, out);
            }
            HostEvent::Wake => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use gpu_sim::counters::Counters;
    use gpu_sim::job::JobDesc;
    use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
    use sim_core::time::Cycle;
    use std::sync::Arc;

    fn host_job(id: u32, wgs: u32, deadline_us: u64) -> HostJob {
        let k = Arc::new(KernelDesc::new(
            KernelClassId(0),
            "k",
            wgs * 64,
            64,
            8,
            0,
            ComputeProfile::compute_only(10),
        ));
        HostJob::new(Arc::new(
            JobDesc::chain(JobId(id), "b", vec![k], Duration::from_us(deadline_us), Cycle::ZERO)
                .unwrap(),
        ))
    }

    fn warmed(rate: f64) -> Counters {
        let mut c = Counters::new(1, Duration::from_us(100));
        let t = Cycle::ZERO + Duration::from_us(50);
        let n = (rate * 50.0) as u64;
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
    fn lax_cpu_enqueues_accepted_chains() {
        let jobs = vec![host_job(0, 10, 1_000)];
        let counters = warmed(1.0);
        let cfg = GpuConfig::default();
        let view = HostView {
            now: Cycle::ZERO,
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 0,
        };
        let mut s = LaxCpu::new();
        let mut out = Vec::new();
        s.react(HostEvent::Arrival(JobId(0)), &view, &mut out);
        assert!(matches!(out[0], HostCmd::EnqueueChain { job: JobId(0), .. }));
    }

    #[test]
    fn lax_cpu_rejects_hopeless_jobs() {
        // One huge accepted job saturates the queueing-delay estimate.
        let jobs = vec![host_job(0, 100_000, 1_000_000), host_job(1, 10, 50)];
        let counters = warmed(1.0);
        let cfg = GpuConfig::default();
        let view = HostView {
            now: Cycle::ZERO,
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 0,
        };
        let mut s = LaxCpu::new();
        let mut out = Vec::new();
        s.react(HostEvent::Arrival(JobId(0)), &view, &mut out);
        out.clear();
        s.react(HostEvent::Arrival(JobId(1)), &view, &mut out);
        assert!(matches!(out[0], HostCmd::Reject(JobId(1))));
    }

    #[test]
    fn lax_cpu_updates_priorities_on_tick() {
        let jobs = vec![host_job(0, 100, 1_000)];
        let counters = warmed(1.0);
        let cfg = GpuConfig::default();
        let now = Cycle::ZERO + Duration::from_us(100);
        let view =
            HostView { now, jobs: &jobs, counters: &counters, config: &cfg, inflight_kernels: 0 };
        let mut s = LaxCpu::new();
        let mut out = Vec::new();
        s.react(HostEvent::Arrival(JobId(0)), &view, &mut out);
        out.clear();
        s.react(HostEvent::Tick, &view, &mut out);
        assert!(out.iter().any(|c| matches!(c, HostCmd::SetPriority { job: JobId(0), .. })));
    }

    #[test]
    fn lax_sw_launches_in_priority_order() {
        // Tight job should be launched before the relaxed one.
        let jobs = vec![host_job(0, 10, 10_000), host_job(1, 500, 1_000)];
        let counters = warmed(1.0);
        let cfg = GpuConfig::default();
        let view = HostView {
            now: Cycle::ZERO,
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 0,
        };
        let mut s = LaxSw::new();
        let mut out = Vec::new();
        s.react(HostEvent::Arrival(JobId(0)), &view, &mut out);
        out.clear();
        s.react(HostEvent::Tick, &view, &mut out);
        let launches: Vec<JobId> = out
            .iter()
            .filter_map(|c| match c {
                HostCmd::Launch { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(launches, vec![JobId(0)], "only accepted jobs launch");
    }
}
