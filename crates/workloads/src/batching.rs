//! Batch-mode job generation for Figure 4: response time versus batch size.
//!
//! With batch size `B`, `B` consecutive requests are padded together and
//! executed as one merged job whose kernels carry `B` times the threads;
//! the batch cannot start until its last member has arrived, which is the
//! latency cost the figure quantifies (20-293x at B=128 in the paper).

use std::sync::Arc;

use gpu_sim::job::{JobDesc, JobId};
use gpu_sim::kernel::KernelDesc;
use sim_core::time::Cycle;

use crate::spec::{ArrivalRate, Benchmark};
use crate::suite::BenchmarkSuite;

/// A batched workload: merged jobs plus the original member arrival times
/// (needed to compute per-request response times).
#[derive(Debug)]
pub struct BatchedWorkload {
    /// One merged job per batch, sorted by (batch-complete) arrival.
    pub jobs: Vec<JobDesc>,
    /// Member arrival times per batch.
    pub member_arrivals: Vec<Vec<Cycle>>,
}

/// Groups `n` generated requests of `bench` into batches of `batch_size`.
///
/// Kernel grids are scaled by the batch size (same per-thread work); the
/// merged job's arrival is its last member's arrival (padding + waiting,
/// Section 3.3). A final partial batch is emitted as-is.
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn batched_workload(
    suite: &BenchmarkSuite,
    bench: Benchmark,
    rate: ArrivalRate,
    n: usize,
    batch_size: usize,
    seed: u64,
) -> BatchedWorkload {
    assert!(batch_size > 0, "batch size must be positive");
    let requests = suite.generate_jobs(bench, rate, n, seed);
    let mut jobs = Vec::new();
    let mut member_arrivals = Vec::new();
    for (batch_idx, chunk) in requests.chunks(batch_size).enumerate() {
        let arrivals: Vec<Cycle> = chunk.iter().map(|j| j.arrival).collect();
        let last_arrival = *arrivals.last().expect("non-empty chunk");
        // Merge: take the first member's chain and scale every kernel's
        // grid by the actual chunk size.
        let kernels: Vec<Arc<KernelDesc>> =
            chunk[0].kernels().iter().map(|k| Arc::new(k.batched(chunk.len() as u32))).collect();
        jobs.push(
            JobDesc::chain(
                JobId(batch_idx as u32),
                chunk[0].bench.clone(),
                kernels,
                chunk[0].deadline,
                last_arrival,
            )
            .expect("merged batch keeps the member chain's shape"),
        );
        member_arrivals.push(arrivals);
    }
    BatchedWorkload { jobs, member_arrivals }
}

impl BatchedWorkload {
    /// Mean response time in microseconds given each batch's completion
    /// time (`None` entries — unfinished batches — are charged `penalty_us`
    /// per member).
    pub fn mean_response_us(&self, completions: &[Option<Cycle>], penalty_us: f64) -> f64 {
        assert_eq!(completions.len(), self.jobs.len());
        let mut total = 0.0;
        let mut count = 0usize;
        for (arrivals, done) in self.member_arrivals.iter().zip(completions) {
            for &a in arrivals {
                total += match done {
                    Some(t) => t.saturating_since(a).as_us_f64(),
                    None => penalty_us,
                };
                count += 1;
            }
        }
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::Duration;

    #[test]
    fn batches_wait_for_last_member() {
        let suite = BenchmarkSuite::calibrated();
        let w = batched_workload(suite, Benchmark::Ipv6, ArrivalRate::High, 8, 4, 5);
        assert_eq!(w.jobs.len(), 2);
        assert_eq!(w.member_arrivals[0].len(), 4);
        assert_eq!(w.jobs[0].arrival, *w.member_arrivals[0].last().unwrap());
        // Grid scaled by 4.
        assert_eq!(w.jobs[0].kernels()[0].grid_threads, 8192 * 4);
    }

    #[test]
    fn batch_size_one_is_the_identity() {
        let suite = BenchmarkSuite::calibrated();
        let w = batched_workload(suite, Benchmark::Stem, ArrivalRate::High, 4, 1, 5);
        assert_eq!(w.jobs.len(), 4);
        assert_eq!(w.jobs[0].kernels()[0].grid_threads, 4096);
    }

    #[test]
    fn response_accounts_for_batch_wait() {
        let suite = BenchmarkSuite::calibrated();
        let w = batched_workload(suite, Benchmark::Ipv6, ArrivalRate::High, 4, 4, 5);
        let done = w.jobs[0].arrival + Duration::from_us(10);
        let mean = w.mean_response_us(&[Some(done)], 0.0);
        // Every member waited at least the 10us execution; earlier members
        // also waited for the last arrival.
        assert!(mean >= 10.0);
        let first_wait = w.jobs[0].arrival.saturating_since(w.member_arrivals[0][0]).as_us_f64();
        assert!(mean >= 10.0 + first_wait / 4.0);
    }
}
