//! Microbenchmarks of the command-processor scheduling decisions.
//!
//! The paper's premise is that per-kernel scheduling decisions must happen
//! at microsecond timescales (Section 1). These benches measure our LAX
//! implementation's decision costs against that envelope, up to the full
//! 128-queue configuration: a priority-update tick over every busy queue,
//! one admission evaluation, and one remaining-time estimate
//! (EXPERIMENTS.md, "Benchmarked decision costs").
//!
//! Self-hosted harness (no external deps; the registry is offline).

use std::hint::black_box;
use std::sync::Arc;

use gpu_sim::config::GpuConfig;
use gpu_sim::counters::Counters;
use gpu_sim::job::{JobDesc, JobId, JobState};
use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
use gpu_sim::queue::{ActiveJob, ComputeQueue};
use gpu_sim::scheduler::{CpContext, CpScheduler, Occupancy};
use lax::estimate::{remaining_time_us, LiveRates};
use lax::lax::Lax;
use sim_core::probe::ProbeHub;
use sim_core::time::{Cycle, Duration};

/// Times `f` over `iters` iterations (after warmup) and prints ns/iter.
fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    for _ in 0..iters / 10 + 1 {
        black_box(f());
    }
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = t0.elapsed().as_nanos() / u128::from(iters);
    println!("{name:<40} {per_iter:>12} ns/iter ({iters} iters)");
}

fn busy_queues(n: usize, kernels_per_job: usize) -> Vec<ComputeQueue> {
    (0..n)
        .map(|i| {
            let kernels: Vec<Arc<KernelDesc>> = (0..kernels_per_job)
                .map(|k| {
                    Arc::new(KernelDesc::new(
                        KernelClassId((k % 6) as u16),
                        format!("k{k}"),
                        1024,
                        256,
                        16,
                        0,
                        ComputeProfile::compute_only(1_000),
                    ))
                })
                .collect();
            let desc = Arc::new(
                JobDesc::chain(JobId(i as u32), "bench", kernels, Duration::from_ms(7), Cycle::ZERO)
                    .unwrap(),
            );
            let mut a = ActiveJob::new(desc, Cycle::ZERO);
            a.state = JobState::Running;
            ComputeQueue { active: Some(a) }
        })
        .collect()
}

fn warmed_counters() -> Counters {
    let mut c = Counters::new(8, Duration::from_us(100));
    for class in 0..6u16 {
        for _ in 0..64 {
            c.note_wg_placed(KernelClassId(class), Cycle::ZERO);
        }
        for _ in 0..64 {
            c.record_wg(KernelClassId(class), Cycle::ZERO + Duration::from_us(50));
        }
    }
    c.refresh(Cycle::ZERO + Duration::from_us(50));
    c
}

fn bench_priority_tick() {
    for (n_queues, kernels) in [(16, 8), (64, 8), (128, 8), (128, 102)] {
        let mut queues = busy_queues(n_queues, kernels);
        let mut counters = warmed_counters();
        let cfg = GpuConfig::default();
        let mut lax = Lax::new();
        let mut probes = ProbeHub::new();
        bench(&format!("lax_priority_tick/{n_queues}q_{kernels}k"), 2_000, || {
            let mut ctx = CpContext {
                now: Cycle::ZERO + Duration::from_us(100),
                queues: &mut queues,
                counters: &mut counters,
                occupancy: Occupancy::default(),
                config: &cfg,
                probes: &mut probes,
            };
            lax.on_tick(&mut ctx);
        });
    }
}

fn bench_admission() {
    for n_queues in [16usize, 128] {
        let mut queues = busy_queues(n_queues, 8);
        queues[n_queues - 1].job_mut().state = JobState::Init;
        let mut counters = warmed_counters();
        let cfg = GpuConfig::default();
        let mut lax = Lax::new();
        let mut probes = ProbeHub::new();
        bench(&format!("lax_admission/{n_queues}"), 2_000, || {
            let mut ctx = CpContext {
                now: Cycle::ZERO + Duration::from_us(100),
                queues: &mut queues,
                counters: &mut counters,
                occupancy: Occupancy::default(),
                config: &cfg,
                probes: &mut probes,
            };
            lax.admit(&mut ctx, n_queues - 1)
        });
    }
}

fn bench_estimator() {
    let queues = busy_queues(1, 102);
    let mut counters = warmed_counters();
    let job = queues[0].job().clone();
    bench("remaining_time_102_kernels", 5_000, || {
        let mut rates = LiveRates::new(&mut counters, Cycle::ZERO + Duration::from_us(100));
        remaining_time_us(&job, &mut rates)
    });
}

fn main() {
    bench_priority_tick();
    bench_admission();
    bench_estimator();
}
