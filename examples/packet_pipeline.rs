//! A network-packet-processing scenario: IPv6 longest-prefix-match lookups
//! with a 40 us deadline (one batch per 100 us window at 40 Gbps), showing
//! why host-side schedulers with prediction overheads cannot play at this
//! timescale (the paper's Baymax-vs-LAX observation).
//!
//! ```text
//! cargo run --release --example packet_pipeline
//! ```

use deadline_gpu::quick::simulate;
use workloads::spec::{ArrivalRate, Benchmark};

fn main() {
    let n = 96;
    println!("IPv6 LPM lookups: {n} jobs, 40us deadline");
    println!("(a CPU-side scheduler pays 4us per kernel launch; Baymax adds a");
    println!("50us prediction-model call per job - more than the whole deadline)\n");

    for rate in [ArrivalRate::Low, ArrivalRate::High] {
        println!("--- {} arrival rate ---", rate.name());
        println!("{:<9} {:>9} {:>9} {:>10}", "scheduler", "met", "rejected", "p99 (ms)");
        for scheduler in ["RR", "BAY", "PRO", "LAX-SW", "LAX-CPU", "LAX"] {
            let r = simulate(Benchmark::Ipv6, rate, n, scheduler, 11);
            println!(
                "{:<9} {:>6}/{n} {:>9} {:>10.3}",
                scheduler,
                r.deadlines_met(),
                r.rejected(),
                r.p99_latency_ms(),
            );
        }
        println!();
    }
    println!("BAY can never finish a single IPv6 job in time: its model call");
    println!("alone exceeds the 40us budget, so its admission control rejects");
    println!("everything (matching the paper's Figure 6, where BAY scores zero");
    println!("on IPV6). The laxity family degrades gracefully: LAX-SW pays the");
    println!("4us launch overhead per kernel, LAX-CPU recovers most of the gap");
    println!("with memory-mapped priority writes, and CP-integrated LAX decides");
    println!("at microsecond granularity with live completion-rate counters.");
}
