//! Quickstart: run one latency-sensitive workload under the contemporary
//! round-robin scheduler and under LAX, and compare deadline hits.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use deadline_gpu::quick::simulate;
use workloads::scenario::{ScenarioFile, WorkloadSpec};
use workloads::spec::{ArrivalRate, Benchmark};

fn main() {
    // 64 IPv6 longest-prefix-match jobs arriving at the paper's "high"
    // rate (64,000 jobs/s), each with a 40 us deadline.
    let n = 64;
    println!("IPv6 packet lookups, high arrival rate, {n} jobs, 40us deadline\n");
    println!(
        "{:<10} {:>8} {:>9} {:>12} {:>10} {:>12}",
        "scheduler", "met", "rejected", "throughput", "p99 (ms)", "energy/job"
    );
    for scheduler in ["RR", "LAX"] {
        let report = simulate(Benchmark::Ipv6, ArrivalRate::High, n, scheduler, 42);
        println!(
            "{:<10} {:>5}/{n} {:>9} {:>10.0}/s {:>10.3} {:>10.2}mJ",
            scheduler,
            report.deadlines_met(),
            report.rejected(),
            report.throughput_per_sec(),
            report.p99_latency_ms(),
            report.energy_per_success_mj(),
        );
    }
    println!();
    println!("LAX inspects each stream, estimates laxity from live workgroup");
    println!("completion rates, rejects jobs that cannot make their deadline,");
    println!("and prioritizes the tightest admitted jobs - so it completes more");
    println!("jobs on time while wasting less energy on doomed work.");

    // Experiments can also be described declaratively: a scenario file
    // names the workload, schedulers, rates and seed, and the bench
    // binaries accept it via --scenario-file. Here we load one and run
    // its grid through the same one-call helper.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios/linear-fig8.json");
    let file: ScenarioFile =
        std::fs::read_to_string(path).expect("committed example").parse().expect("valid scenario");
    let WorkloadSpec::Named(bench) = file.workload else {
        unreachable!("linear-fig8.json names a benchmark");
    };
    println!();
    println!(
        "scenario file `{}`: {bench} x {:?} at the {} rate",
        file.name, file.schedulers, file.rates[0]
    );
    for scheduler in &file.schedulers {
        let rate = file.rates[0];
        let report = simulate(bench, rate, file.n_jobs, scheduler, file.cell_seed(rate));
        println!("{:<10} {:>5}/{} deadlines met", scheduler, report.deadlines_met(), file.n_jobs);
    }
}
