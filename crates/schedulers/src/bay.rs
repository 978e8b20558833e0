//! Baymax (BAY) [Chen et al., ASPLOS'16]: QoS-aware host-side scheduling
//! with pretrained duration predictors.
//!
//! Baymax predicts each task's duration (here: the offline profile, which
//! is what its regression models converge to), reorders pending work by QoS
//! headroom, and limits concurrency so a launched kernel never consumes
//! another in-flight job's headroom. Each *job* pays a 50 us model
//! invocation on arrival (Section 5.1), which singlehandedly prevents BAY
//! from ever meeting IPV6's 40 us deadline — the paper's headline
//! observation about CPU-side prediction overheads.

use std::collections::HashMap;

use gpu_sim::host::{HostCmd, HostEvent, HostScheduler, HostView};
use gpu_sim::job::JobId;
use sim_core::time::Duration;

use crate::host_common::{headroom_us, predicted_remaining_us};

/// Cost of one regression-model invocation (charged per job, on its first
/// launch).
const MODEL_CALL: Duration = Duration::from_us(50);

/// Fraction of a co-located kernel's duration charged as interference to
/// jobs already on the device (Baymax's contention predictor: concurrent
/// kernels mostly overlap, so co-location costs a fraction of the new
/// kernel's runtime, not all of it).
const INTERFERENCE: f64 = 0.25;

/// The Baymax scheduler.
#[derive(Debug, Default)]
pub struct Bay {
    accepted: HashMap<u32, bool>, // job id -> model cost already paid
    /// Predicted duration (us) of each kernel currently in flight.
    inflight_pred: HashMap<u32, f64>,
}

impl Bay {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Bay::default()
    }

    fn try_launch(&mut self, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        // Order launchable accepted jobs by headroom, tightest first.
        let mut ready: Vec<(f64, JobId)> = Vec::new();
        for &id in self.accepted.keys() {
            let j = &view.jobs[id as usize];
            if j.launchable() && j.next_kernel_desc().is_some() {
                ready.push((headroom_us(view, j), JobId(id)));
            }
        }
        ready.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite headroom"));
        for (_, job) in ready {
            let j = &view.jobs[job.index()];
            let kernel = j.next_kernel_desc().expect("checked launchable");
            let rate = view.counters.offline_rate(kernel.class);
            let pred_us = rate.map(|r| kernel.num_wgs() as f64 / r).unwrap_or(0.0);
            // QoS guard (Baymax's scheduling rule): a kernel may be
            // co-launched only if its predicted duration fits inside every
            // in-flight job's remaining headroom — otherwise it could
            // steal the slack of already-committed work.
            let min_inflight_headroom = self
                .inflight_pred
                .keys()
                .map(|&id| headroom_us(view, &view.jobs[id as usize]))
                .filter(|h| *h > 0.0)
                .fold(f64::INFINITY, f64::min);
            if pred_us * INTERFERENCE > min_inflight_headroom {
                // Too risky: wait for in-flight work to drain.
                continue;
            }
            let first_launch =
                !std::mem::replace(self.accepted.get_mut(&job.0).expect("accepted"), true);
            let extra = if first_launch { MODEL_CALL } else { Duration::ZERO };
            self.inflight_pred.insert(job.0, pred_us);
            out.push(HostCmd::Launch { job, kernel_idx: j.next_kernel, extra, prio: 0 });
        }
    }
}

impl HostScheduler for Bay {
    fn name(&self) -> &'static str {
        "BAY"
    }

    fn tick_period(&self) -> Option<Duration> {
        Some(Duration::from_us(100))
    }

    fn react(&mut self, event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        match event {
            HostEvent::Arrival(job) => {
                let j = &view.jobs[job.index()];
                // Admission: the waiting backlog must drain serially, while
                // in-flight work co-runs and only charges its interference
                // share.
                let queue_delay: f64 = self
                    .accepted
                    .keys()
                    .map(|&id| {
                        let a = &view.jobs[id as usize];
                        if a.done || a.rejected {
                            0.0
                        } else if a.inflight || a.next_kernel > 0 {
                            predicted_remaining_us(view, a) * INTERFERENCE
                        } else {
                            predicted_remaining_us(view, a)
                        }
                    })
                    .sum();
                let own = predicted_remaining_us(view, j) + MODEL_CALL.as_us_f64();
                if queue_delay + own > j.desc.deadline.as_us_f64() {
                    out.push(HostCmd::Reject(job));
                } else {
                    self.accepted.insert(job.0, false);
                    self.try_launch(view, out);
                }
            }
            HostEvent::KernelDone { job, .. } => {
                self.inflight_pred.remove(&job.0);
                self.accepted.retain(|&id, _| {
                    let j = &view.jobs[id as usize];
                    !j.done && !j.rejected
                });
                self.try_launch(view, out);
            }
            HostEvent::Tick => self.try_launch(view, out),
            HostEvent::Wake => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use gpu_sim::counters::Counters;
    use gpu_sim::host::HostJob;
    use gpu_sim::job::JobDesc;
    use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
    use sim_core::time::Cycle;
    use std::sync::Arc;

    fn jobs_of(wgs: &[u32], deadline_us: u64) -> Vec<HostJob> {
        wgs.iter()
            .enumerate()
            .map(|(i, &w)| {
                let k = Arc::new(KernelDesc::new(
                    KernelClassId(0),
                    "k",
                    w * 64,
                    64,
                    8,
                    0,
                    ComputeProfile::compute_only(10),
                ));
                HostJob::new(Arc::new(
                    JobDesc::chain(
                        JobId(i as u32),
                        "b",
                        vec![k],
                        Duration::from_us(deadline_us),
                        Cycle::ZERO,
                    )
                    .unwrap(),
                ))
            })
            .collect()
    }

    fn view<'a>(jobs: &'a [HostJob], counters: &'a Counters, cfg: &'a GpuConfig) -> HostView<'a> {
        HostView { now: Cycle::ZERO, jobs, counters, config: cfg, inflight_kernels: 0 }
    }

    #[test]
    fn model_cost_makes_tight_deadlines_infeasible() {
        // 10us of work but only a 40us deadline: 50us model call sinks it.
        let jobs = jobs_of(&[10], 40);
        let mut counters = Counters::new(1, Duration::from_us(100));
        counters.set_offline_rate(KernelClassId(0), 1.0);
        let cfg = GpuConfig::default();
        let mut bay = Bay::new();
        let mut out = Vec::new();
        bay.react(HostEvent::Arrival(JobId(0)), &view(&jobs, &counters, &cfg), &mut out);
        assert!(
            matches!(out[0], HostCmd::Reject(JobId(0))),
            "IPV6-style jobs are hopeless under BAY"
        );
    }

    #[test]
    fn first_launch_pays_model_call() {
        let jobs = jobs_of(&[10], 10_000);
        let mut counters = Counters::new(1, Duration::from_us(100));
        counters.set_offline_rate(KernelClassId(0), 1.0);
        let cfg = GpuConfig::default();
        let mut bay = Bay::new();
        let mut out = Vec::new();
        bay.react(HostEvent::Arrival(JobId(0)), &view(&jobs, &counters, &cfg), &mut out);
        match &out[0] {
            HostCmd::Launch { extra, .. } => assert_eq!(*extra, MODEL_CALL),
            other => panic!("expected launch, got {other:?}"),
        }
    }

    #[test]
    fn concurrency_is_limited_by_headroom() {
        // Job 0 (900us of work, inflight) has only 100us of headroom left;
        // job 1's 500us kernel charges 125us of interference, which would
        // eat job 0's slack, so its launch is deferred (but it is accepted:
        // 500 + 50 + 0.25*900 = 775 < 1000).
        let mut jobs = jobs_of(&[900, 500], 1_000);
        let mut counters = Counters::new(1, Duration::from_us(100));
        counters.set_offline_rate(KernelClassId(0), 1.0);
        let cfg = GpuConfig::default();
        let mut bay = Bay::new();
        let mut out = Vec::new();
        bay.react(HostEvent::Arrival(JobId(0)), &view(&jobs, &counters, &cfg), &mut out);
        let launches_0 = out.iter().filter(|c| matches!(c, HostCmd::Launch { .. })).count();
        assert_eq!(launches_0, 1);
        jobs[0].inflight = true; // mirror what the simulator records
        out.clear();
        bay.react(HostEvent::Arrival(JobId(1)), &view(&jobs, &counters, &cfg), &mut out);
        assert!(
            !out.iter().any(|c| matches!(c, HostCmd::Reject(_))),
            "job 1 fits its deadline and must be accepted"
        );
        let launches_1 = out.iter().filter(|c| matches!(c, HostCmd::Launch { .. })).count();
        assert_eq!(launches_1, 0, "launch deferred to protect job 0's headroom");
    }

    #[test]
    fn small_kernels_co_locate_freely() {
        // Tiny interference against a comfortable headroom: co-launch.
        let mut jobs = jobs_of(&[100, 100], 10_000);
        let mut counters = Counters::new(1, Duration::from_us(100));
        counters.set_offline_rate(KernelClassId(0), 1.0);
        let cfg = GpuConfig::default();
        let mut bay = Bay::new();
        let mut out = Vec::new();
        bay.react(HostEvent::Arrival(JobId(0)), &view(&jobs, &counters, &cfg), &mut out);
        jobs[0].inflight = true;
        out.clear();
        bay.react(HostEvent::Arrival(JobId(1)), &view(&jobs, &counters, &cfg), &mut out);
        let launches = out.iter().filter(|c| matches!(c, HostCmd::Launch { .. })).count();
        assert_eq!(launches, 1, "plenty of headroom: co-locate");
    }
}
