//! Job remaining-time estimation (paper Section 4.2).
//!
//! LAX walks the job's WGList — the per-kernel workgroup counts discovered
//! by stream inspection — and divides each kernel's remaining WGs by the
//! current workgroup completion rate of that kernel class from the Kernel
//! Profiling Table. Because the rates are measured under the *current*
//! contention, the estimate adapts as load changes.

use gpu_sim::counters::Counters;
use gpu_sim::kernel::KernelClassId;
use gpu_sim::queue::ActiveJob;
use sim_core::time::Cycle;

/// Source of per-class WG completion rates (WGs per microsecond).
///
/// The CP-integrated LAX reads live windowed counters; the CPU-side
/// variants only see values cached at the last refresh. Abstracting the
/// source lets the same estimator implement both fidelities.
pub trait RateProvider {
    /// Rate for `class`, or `None` when the class has never completed a WG
    /// (in which case the estimator is optimistic per Section 4.3 and
    /// assumes the kernel takes no time).
    fn rate(&mut self, class: KernelClassId) -> Option<f64>;
}

/// Fresh, CP-side rates (recomputes the sliding window on every read).
#[derive(Debug)]
pub struct LiveRates<'a> {
    counters: &'a mut Counters,
    now: Cycle,
}

impl<'a> LiveRates<'a> {
    /// Wraps the hardware counters for reading at time `now`.
    pub fn new(counters: &'a mut Counters, now: Cycle) -> Self {
        LiveRates { counters, now }
    }
}

impl RateProvider for LiveRates<'_> {
    fn rate(&mut self, class: KernelClassId) -> Option<f64> {
        self.counters.live_rate(class, self.now)
    }
}

/// Stale, host-visible rates (whatever the last periodic refresh cached).
#[derive(Debug)]
pub struct CachedRates<'a> {
    counters: &'a Counters,
}

impl<'a> CachedRates<'a> {
    /// Wraps the counters for cached reads.
    pub fn new(counters: &'a Counters) -> Self {
        CachedRates { counters }
    }
}

impl RateProvider for CachedRates<'_> {
    fn rate(&mut self, class: KernelClassId) -> Option<f64> {
        self.counters.rate(class)
    }
}

/// Estimated time, in microseconds, to finish the remaining work of `job`
/// given current completion rates.
///
/// Kernels whose class has no estimate yet contribute zero (optimism avoids
/// rejecting work the GPU could complete, Section 4.3). On a linear chain
/// kernels execute sequentially, so per-kernel estimates sum — the paper's
/// Eq. 1 walk, kept verbatim as the fast path. On a DAG independent stages
/// overlap, so the estimate is the remaining *critical path*: the heaviest
/// incomplete dependency chain, which degenerates to the same suffix sum on
/// linear jobs.
pub fn remaining_time_us(job: &ActiveJob, rates: &mut impl RateProvider) -> f64 {
    if job.job.graph().is_chain() {
        let mut total = 0.0;
        for (class, wgs) in job.remaining_wgs() {
            if wgs == 0 {
                continue;
            }
            if let Some(rate) = rates.rate(class) {
                if rate > 0.0 {
                    total += wgs as f64 / rate;
                }
            }
        }
        return total;
    }
    remaining_critical_path_us(job, rates)
}

/// Remaining-critical-path walk for DAG jobs: a longest-path DP over the
/// incomplete stages in topological order, with each stage's cost the
/// remaining-WGs-over-rate term of Eq. 1. Completed stages cost zero; a
/// chain's value is bit-identical to the suffix sum `remaining_time_us`
/// computes (addition over one path, in the same order).
pub fn remaining_critical_path_us(job: &ActiveJob, rates: &mut impl RateProvider) -> f64 {
    let graph = job.job.graph();
    let kernels = job.job.kernels();
    let n = kernels.len();
    // finish[i] = earliest-estimate completion of stage i relative to now.
    let mut finish = vec![0.0f64; n];
    let mut best = 0.0f64;
    for &i in graph.topo_order() {
        let i = i as usize;
        let cost = if job.stages[i].done {
            0.0
        } else {
            let wgs = kernels[i].num_wgs().saturating_sub(job.stages[i].wgs_completed);
            stage_cost_us(kernels[i].class, wgs, rates)
        };
        let start = graph.preds(i).iter().fold(0.0f64, |acc, &p| acc.max(finish[p as usize]));
        finish[i] = start + cost;
        best = best.max(finish[i]);
    }
    best
}

/// One stage's Eq. 1 cost term: remaining WGs over the class rate, with the
/// Section 4.3 optimism for unmeasured classes.
fn stage_cost_us(class: KernelClassId, wgs: u32, rates: &mut impl RateProvider) -> f64 {
    if wgs == 0 {
        return 0.0;
    }
    match rates.rate(class) {
        Some(rate) if rate > 0.0 => wgs as f64 / rate,
        _ => 0.0,
    }
}

/// Remaining-time estimate from a bare WG list (used by host-side variants
/// that track progress at kernel granularity only).
pub fn remaining_time_us_of(
    wgs_per_kernel: impl Iterator<Item = (KernelClassId, u32)>,
    rates: &mut impl RateProvider,
) -> f64 {
    let mut total = 0.0;
    for (class, wgs) in wgs_per_kernel {
        if wgs == 0 {
            continue;
        }
        if let Some(rate) = rates.rate(class) {
            if rate > 0.0 {
                total += wgs as f64 / rate;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::job::{JobDesc, JobId};
    use gpu_sim::kernel::{ComputeProfile, KernelDesc};
    use sim_core::time::Duration;
    use std::sync::Arc;

    struct FixedRates(Vec<Option<f64>>);
    impl RateProvider for FixedRates {
        fn rate(&mut self, class: KernelClassId) -> Option<f64> {
            self.0[class.index()]
        }
    }

    fn mk(class: u16, wgs: u32) -> Arc<KernelDesc> {
        Arc::new(KernelDesc::new(
            KernelClassId(class),
            "k",
            wgs * 64,
            64,
            8,
            0,
            ComputeProfile::compute_only(10),
        ))
    }

    fn job(k0_wgs: u32, k1_wgs: u32) -> ActiveJob {
        let desc = Arc::new(
            JobDesc::chain(
                JobId(0),
                "b",
                vec![mk(0, k0_wgs), mk(1, k1_wgs)],
                Duration::from_us(100),
                Cycle::ZERO,
            )
            .unwrap(),
        );
        ActiveJob::new(desc, Cycle::ZERO)
    }

    /// Diamond DAG 0 -> {1, 2} -> 3 with per-stage WG counts.
    fn diamond(wgs: [u32; 4]) -> ActiveJob {
        let stages = wgs.iter().enumerate().map(|(i, &w)| mk(i as u16, w)).collect();
        let graph =
            gpu_sim::job::JobGraph::new(stages, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let desc = Arc::new(
            JobDesc::from_graph(JobId(0), "b", graph, Duration::from_us(100), Cycle::ZERO).unwrap(),
        );
        ActiveJob::new(desc, Cycle::ZERO)
    }

    #[test]
    fn sums_per_kernel_estimates() {
        let j = job(10, 20);
        // class0 at 2 WG/us -> 5us, class1 at 4 WG/us -> 5us.
        let mut r = FixedRates(vec![Some(2.0), Some(4.0)]);
        assert!((remaining_time_us(&j, &mut r) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_class_is_optimistic_zero() {
        let j = job(10, 20);
        let mut r = FixedRates(vec![None, Some(4.0)]);
        assert!((remaining_time_us(&j, &mut r) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn progress_shrinks_the_estimate() {
        let mut j = job(10, 20);
        let mut r = FixedRates(vec![Some(1.0), Some(1.0)]);
        let before = remaining_time_us(&j, &mut r);
        j.stages[0].wgs_completed = 5;
        let after = remaining_time_us(&j, &mut r);
        assert!((before - after - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dag_estimate_is_the_critical_path() {
        // All classes at 1 WG/us: paths are 10+20+5 = 35 and 10+8+5 = 23.
        let j = diamond([10, 20, 8, 5]);
        let mut r = FixedRates(vec![Some(1.0); 4]);
        assert!((remaining_time_us(&j, &mut r) - 35.0).abs() < 1e-12);
    }

    #[test]
    fn dag_done_stages_drop_off_the_path() {
        let mut j = diamond([10, 20, 8, 5]);
        let mut r = FixedRates(vec![Some(1.0); 4]);
        j.stages[0].done = true;
        j.stages[1].done = true;
        // Remaining work: stage 2 (8) then stage 3 (5).
        assert!((remaining_time_us(&j, &mut r) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_matches_chain_sum_on_linear_jobs() {
        let j = job(10, 20);
        let mut a = FixedRates(vec![Some(2.0), Some(4.0)]);
        let mut b = FixedRates(vec![Some(2.0), Some(4.0)]);
        let chain = remaining_time_us(&j, &mut a);
        let dp = remaining_critical_path_us(&j, &mut b);
        assert_eq!(chain.to_bits(), dp.to_bits());
    }

    fn warm(c: &mut Counters, n: u64, end_us: u64) {
        for _ in 0..n {
            c.note_wg_placed(KernelClassId(0), Cycle::ZERO);
        }
        let end = Cycle::ZERO + Duration::from_us(end_us);
        for _ in 0..n {
            c.record_wg(KernelClassId(0), end);
        }
    }

    #[test]
    fn live_rates_read_fresh_counters() {
        let mut c = Counters::new(1, Duration::from_us(100));
        warm(&mut c, 100, 10); // 100 WGs over 10us busy -> 10 WGs/us
        let now = Cycle::ZERO + Duration::from_us(10);
        let mut live = LiveRates::new(&mut c, now);
        assert_eq!(live.rate(KernelClassId(0)), Some(10.0));
    }

    #[test]
    fn cached_rates_lag_refresh() {
        let mut c = Counters::new(1, Duration::from_us(100));
        warm(&mut c, 100, 10);
        {
            let mut cached = CachedRates::new(&c);
            assert_eq!(cached.rate(KernelClassId(0)), None, "no refresh yet");
        }
        c.refresh(Cycle::ZERO + Duration::from_us(10));
        let mut cached = CachedRates::new(&c);
        assert_eq!(cached.rate(KernelClassId(0)), Some(10.0));
    }
}
