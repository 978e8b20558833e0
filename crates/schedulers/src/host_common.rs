//! Shared helpers for the CPU-side baselines (BAT, BAY, PRO).

use gpu_sim::host::{HostJob, HostView};

/// Predicted isolated duration in microseconds of `job`'s remaining
/// kernels, from the offline profile table. Unprofiled classes contribute
/// zero (the profile table is populated for every benchmark kernel by the
/// harness, so this is a startup corner case only).
pub fn predicted_remaining_us(view: &HostView<'_>, job: &HostJob) -> f64 {
    job.remaining_kernels()
        .filter_map(|k| view.counters.offline_rate(k.class).map(|r| k.num_wgs() as f64 / r))
        .sum()
}

/// QoS headroom of `job` in microseconds: time to the deadline minus the
/// predicted remaining execution (Baymax's scheduling key). Negative means
/// the job is predicted to miss.
pub fn headroom_us(view: &HostView<'_>, job: &HostJob) -> f64 {
    let deadline_us = job.desc.deadline.as_us_f64();
    let age_us = view.now.saturating_since(job.desc.arrival).as_us_f64();
    deadline_us - age_us - predicted_remaining_us(view, job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use gpu_sim::counters::Counters;
    use gpu_sim::job::{JobDesc, JobId};
    use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
    use sim_core::time::{Cycle, Duration};
    use std::sync::Arc;

    fn job(wgs: u32, deadline_us: u64) -> HostJob {
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
            JobDesc::chain(JobId(0), "b", vec![k], Duration::from_us(deadline_us), Cycle::ZERO)
                .unwrap(),
        ))
    }

    #[test]
    fn headroom_shrinks_with_age() {
        let mut counters = Counters::new(1, Duration::from_us(100));
        counters.set_offline_rate(KernelClassId(0), 1.0);
        let cfg = GpuConfig::default();
        let j = job(10, 100);
        let jobs = [j];
        let at = |us: u64| HostView {
            now: Cycle::ZERO + Duration::from_us(us),
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 0,
        };
        let h0 = headroom_us(&at(0), &jobs[0]);
        let h50 = headroom_us(&at(50), &jobs[0]);
        assert!((h0 - 90.0).abs() < 1e-9);
        assert!((h50 - 40.0).abs() < 1e-9);
    }
}
