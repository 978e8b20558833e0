//! Mixed workloads: interleaving several benchmarks (or latency-sensitive
//! jobs with latency-*insensitive* background work) into one job stream.
//!
//! The paper notes that "LAX does not affect latency-insensitive
//! applications because the programmer does not provide a deadline for
//! them" (Section 5.2). We model no-deadline work as jobs with an
//! effectively unbounded deadline: admission always accepts them and their
//! laxity is so large they only run when nothing urgent is pending.

use std::sync::Arc;

use gpu_sim::job::{JobDesc, JobId};
use gpu_sim::kernel::{AccessPattern, ComputeProfile, KernelClassId, KernelDesc};
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Duration};

use crate::spec::{ArrivalRate, Benchmark};
use crate::suite::BenchmarkSuite;

/// Deadline assigned to "no deadline" background work: far beyond any
/// simulation horizon, so it can never be the urgent job.
pub const BACKGROUND_DEADLINE: Duration = Duration::from_ms(10_000);

/// Kernel class id used for synthetic background kernels. Chosen clear of
/// the calibrated suite's classes (which are dense from 0).
pub const BACKGROUND_CLASS: KernelClassId = KernelClassId(1000);

/// Builds a latency-insensitive background job: one wide, long-running
/// kernel (a training-style GEMM sweep) with no meaningful deadline.
pub fn background_job(id: JobId, arrival: Cycle, kernel_us: u64, threads: u32) -> JobDesc {
    let issue = kernel_us * 1_500 / 2; // ~half compute
    let accesses = (kernel_us * 1_500 / 2 / 300).max(1) as u32;
    let kernel = Arc::new(KernelDesc::new(
        BACKGROUND_CLASS,
        "background_gemm",
        threads,
        256.min(threads),
        32,
        8 * 1024,
        ComputeProfile {
            issue_cycles: issue,
            mem_accesses: accesses,
            lines_per_access: 4,
            pattern: AccessPattern::Streaming,
        },
    ));
    JobDesc::chain(id, "BACKGROUND", vec![kernel], BACKGROUND_DEADLINE, arrival)
        .expect("background job is a one-kernel chain")
}

/// Merges several job streams into one arrival-ordered stream with dense
/// ids (the simulator's input contract). Original ids are discarded.
pub fn interleave(streams: Vec<Vec<JobDesc>>) -> Vec<JobDesc> {
    let mut all: Vec<JobDesc> = streams.into_iter().flatten().collect();
    all.sort_by_key(|j| j.arrival);
    for (i, j) in all.iter_mut().enumerate() {
        j.id = JobId(i as u32);
    }
    all
}

/// A latency-sensitive benchmark stream plus periodic background jobs:
/// `n_fg` foreground jobs of `bench` at `rate`, and `n_bg` background jobs
/// of `bg_kernel_us` each, arriving evenly across the foreground span.
pub fn with_background(
    suite: &BenchmarkSuite,
    bench: Benchmark,
    rate: ArrivalRate,
    n_fg: usize,
    n_bg: usize,
    bg_kernel_us: u64,
    seed: u64,
) -> Vec<JobDesc> {
    let fg = suite.generate_jobs(bench, rate, n_fg, seed);
    let span = fg.last().map(|j| j.arrival).unwrap_or(Cycle::ZERO);
    let mut rng = SimRng::seed_from(seed ^ 0xB06);
    let bg: Vec<JobDesc> = (0..n_bg)
        .map(|i| {
            let at = Cycle::ZERO
                + Duration::from_cycles(
                    (span.as_cycles() / (n_bg as u64 + 1)) * (i as u64 + 1) + rng.below(1_000),
                );
            background_job(JobId(i as u32), at, bg_kernel_us, 4096)
        })
        .collect();
    interleave(vec![fg, bg])
}

/// Splits a mixed report's deadline-met counts into foreground (named
/// benchmarks) and background completions.
pub fn split_outcomes(report: &gpu_sim::metrics::SimReport) -> (usize, usize, usize) {
    let mut fg_met = 0;
    let mut bg_done = 0;
    let mut fg_total = 0;
    for r in &report.records {
        if &*r.bench == "BACKGROUND" {
            if r.fate.completed_at().is_some() {
                bg_done += 1;
            }
        } else {
            fg_total += 1;
            if r.met_deadline() {
                fg_met += 1;
            }
        }
    }
    (fg_met, fg_total, bg_done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_sorts_and_renumbers() {
        let a = vec![
            background_job(JobId(0), Cycle::ZERO + Duration::from_us(30), 100, 256),
            background_job(JobId(1), Cycle::ZERO + Duration::from_us(50), 100, 256),
        ];
        let b = vec![background_job(JobId(0), Cycle::ZERO + Duration::from_us(40), 100, 256)];
        let merged = interleave(vec![a, b]);
        assert_eq!(merged.len(), 3);
        for (i, j) in merged.iter().enumerate() {
            assert_eq!(j.id.0 as usize, i);
            if i > 0 {
                assert!(j.arrival >= merged[i - 1].arrival);
            }
        }
    }

    #[test]
    fn with_background_produces_a_valid_stream() {
        let suite = BenchmarkSuite::calibrated();
        let jobs = with_background(suite, Benchmark::Gmm, ArrivalRate::Low, 16, 4, 500, 3);
        assert_eq!(jobs.len(), 20);
        let bg = jobs.iter().filter(|j| &*j.bench == "BACKGROUND").count();
        assert_eq!(bg, 4);
        // Stream is runnable.
        use gpu_sim::prelude::*;
        let mut sim = Simulation::builder()
            .offline_rates(suite.offline_rates())
            .jobs(jobs)
            .cp(RoundRobin::new())
            .build()
            .expect("mixed stream runs");
        let r = sim.run();
        let (_, fg_total, bg_done) = split_outcomes(&r);
        assert_eq!(fg_total, 16);
        assert_eq!(bg_done, 4);
    }

    #[test]
    fn background_jobs_have_huge_deadlines() {
        let j = background_job(JobId(0), Cycle::ZERO, 1_000, 1024);
        assert_eq!(j.deadline, BACKGROUND_DEADLINE);
        assert_eq!(&*j.bench, "BACKGROUND");
    }
}
