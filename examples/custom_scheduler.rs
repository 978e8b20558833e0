//! Extending the simulator with your own command-processor scheduler.
//!
//! Implements "STATIC-SLACK": a simplistic policy that prioritizes jobs by
//! deadline minus an *offline* runtime estimate, fixed at enqueue time — a
//! halfway point between EDF (deadline only) and LAX (live laxity). The
//! example pits it against both on the GMM speech-recognition workload.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use gpu_sim::prelude::*;
use lax::lax::Lax;
use lax::laxity::us_to_prio;
use workloads::spec::{ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;

/// Priority = static slack (deadline - offline estimate), assigned once.
/// No admission control, no adaptation to contention.
#[derive(Debug, Default)]
struct StaticSlack;

impl CpScheduler for StaticSlack {
    fn name(&self) -> &'static str {
        "STATIC-SLACK"
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        let Some(job) = ctx.queues[q].active.as_ref() else { return };
        let est_us: f64 = job
            .job
            .kernels()
            .iter()
            .filter_map(|k| ctx.counters.offline_rate(k.class).map(|r| k.num_wgs() as f64 / r))
            .sum();
        let slack_us = job.job.deadline.as_us_f64() - est_us;
        let prio = us_to_prio(slack_us.max(0.0));
        ctx.queues[q].active.as_mut().expect("checked").priority = prio;
    }
}

fn run(name: &str, mode: SchedulerMode, jobs: Vec<JobDesc>, rates: Vec<(KernelClassId, f64)>) {
    let mut sim = Simulation::builder()
        .offline_rates(rates)
        .jobs(jobs)
        .scheduler(mode)
        .build()
        .expect("valid jobs");
    let r = sim.run();
    println!(
        "{:<13} met {:>3}/{} rejected {:>3} p99 {:>7.2}ms useful {:>3.0}%",
        name,
        r.deadlines_met(),
        r.records.len(),
        r.rejected(),
        r.p99_latency_ms(),
        r.useful_wg_fraction() * 100.0
    );
}

fn main() {
    println!("Plugging a custom scheduler into the command processor\n");
    let suite = BenchmarkSuite::calibrated();
    let n = 64;
    println!("GMM speech-model scoring, {n} jobs, 3ms deadline, high rate:\n");
    for (name, mode) in [
        ("RR", SchedulerMode::Cp(Box::new(RoundRobin::new()) as Box<dyn CpScheduler>)),
        ("STATIC-SLACK", SchedulerMode::Cp(Box::new(StaticSlack))),
        ("LAX", SchedulerMode::Cp(Box::new(Lax::new()))),
    ] {
        let jobs = suite.generate_jobs(Benchmark::Gmm, ArrivalRate::High, n, 21);
        run(name, mode, jobs, suite.offline_rates());
    }
    println!();
    println!("STATIC-SLACK orders jobs sensibly but cannot adapt: when the GPU");
    println!("saturates, its offline estimates go stale and it keeps feeding");
    println!("doomed jobs. LAX re-estimates laxity from live completion rates");
    println!("every 100us and sheds the jobs that can no longer make it.");
}
