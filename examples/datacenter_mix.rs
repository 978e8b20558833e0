//! Mixing latency-sensitive inference with latency-insensitive background
//! work. The paper notes LAX "does not affect latency-insensitive
//! applications because the programmer does not provide a deadline for
//! them" — deadline-free jobs have enormous laxity, so they are only
//! scheduled when no urgent work is pending, yet they still complete.
//!
//! ```text
//! cargo run --release --example datacenter_mix
//! ```

use gpu_sim::prelude::*;
use lax::lax::Lax;
use workloads::mixed::{split_outcomes, with_background};
use workloads::spec::{ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;

fn main() {
    let suite = BenchmarkSuite::calibrated();
    let n_fg = 64;
    let n_bg = 6;
    println!("GMM speech scoring ({n_fg} jobs, 3ms deadline, medium rate)");
    println!("sharing the GPU with {n_bg} deadline-free background jobs (~1ms each)\n");
    println!("{:<10} {:>12} {:>14} {:>12}", "scheduler", "GMM on-time", "bg completed", "p99 (ms)");
    for (name, mode) in [
        ("RR", SchedulerMode::Cp(Box::new(RoundRobin::new()) as Box<dyn CpScheduler>)),
        ("LAX", SchedulerMode::Cp(Box::new(Lax::new()))),
    ] {
        let jobs =
            with_background(suite, Benchmark::Gmm, ArrivalRate::Medium, n_fg, n_bg, 1_000, 17);
        let mut sim = Simulation::builder()
            .offline_rates(suite.offline_rates())
            .jobs(jobs)
            .scheduler(mode)
            .build()
            .expect("mixed stream runs");
        let r = sim.run();
        let (fg_met, fg_total, bg_done) = split_outcomes(&r);
        println!(
            "{:<10} {:>8}/{fg_total} {:>11}/{n_bg} {:>12.2}",
            name,
            fg_met,
            bg_done,
            r.p99_latency_ms()
        );
    }
    println!();
    println!("Under LAX the background jobs' laxity is effectively infinite, so");
    println!("they yield to every GMM request yet still run to completion in the");
    println!("gaps - more GMM deadlines met without sacrificing background work.");
}
