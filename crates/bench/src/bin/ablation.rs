//! Ablation study of LAX's design choices (DESIGN.md Section 5):
//!
//! * admission control on/off (isolates Algorithm 1),
//! * laxity vs pure shortest-remaining-time priorities (Algorithm 2),
//! * event-driven priority updates on/off (CP integration's granularity),
//! * profiling-table update period sweep (the paper chose 100 us
//!   empirically),
//! * initial-priority policy (the paper's footnote 2).
//!
//! ```text
//! cargo run --release -p lax-bench --bin ablation -- [N_JOBS] [--jobs N]
//! ```
//!
//! `N_JOBS` is the job count per cell (default 128); the report is printed
//! and written to `results/ablation.txt`. `LaxConfig` variants have no
//! registry name, so the cells here run through the generic
//! [`par_map`] fan-out rather than `Scenario`-keyed sweeps;
//! `--jobs N` / `LAX_BENCH_JOBS` still picks the worker count and output
//! stays bit-identical for any choice.

use gpu_sim::prelude::*;
use lax::ext::LaxDrop;
use lax::lax::{InitPriority, Lax, LaxConfig};
use lax_bench::cli::{Cli, CliError};
use lax_bench::sweep;
use sim_core::par::par_map;
use sim_core::table::Table;
use workloads::spec::{ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;

const BENCHES: [Benchmark; 3] = [Benchmark::Lstm, Benchmark::Ipv6, Benchmark::Stem];

/// One ablation cell: a row label plus how to build its scheduler.
#[derive(Clone)]
enum Variant {
    Lax(LaxConfig),
    Drop,
}

fn run_cell(variant: &Variant, bench: Benchmark, n: usize) -> usize {
    let (mode, period): (SchedulerMode, _) = match variant {
        Variant::Lax(cfg) => {
            let period = cfg.update_period;
            (SchedulerMode::Cp(Box::new(Lax::with_config(cfg.clone()))), period)
        }
        Variant::Drop => {
            (SchedulerMode::Cp(Box::new(LaxDrop::new())), sim_core::time::Duration::from_us(100))
        }
    };
    let suite = BenchmarkSuite::calibrated();
    let jobs = suite.generate_jobs(bench, ArrivalRate::High, n, lax_bench::runner::DEFAULT_SEED);
    let mut sim = Simulation::builder()
        .offline_rates(suite.offline_rates())
        .profiling_period(period)
        .jobs(jobs)
        .scheduler(mode)
        .build()
        .expect("jobs run");
    sim.run().deadlines_met()
}

/// Runs `variants` × [`BENCHES`] on `workers` threads and renders one row
/// per variant.
fn table_for(variants: &[(String, Variant)], n: usize, workers: usize) -> Table {
    let cells: Vec<(usize, Benchmark)> =
        (0..variants.len()).flat_map(|v| BENCHES.into_iter().map(move |b| (v, b))).collect();
    let met = par_map(&cells, workers, |&(v, bench)| run_cell(&variants[v].1, bench, n));
    let mut header = vec!["variant".to_string()];
    header.extend(BENCHES.iter().map(|b| b.name().to_string()));
    let mut t = Table::new(header);
    for (v, (name, _)) in variants.iter().enumerate() {
        let mut row = vec![name.clone()];
        for (i, _) in BENCHES.iter().enumerate() {
            row.push(met[v * BENCHES.len() + i].to_string());
        }
        t.row(row);
    }
    t
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cli = Cli::from_env();
    let workers = cli.jobs()?;
    let got = cli.positionals()?;
    let n: usize = match got.as_slice() {
        [] => Some(128),
        [n] => n.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| CliError::BadPositionals { got, want: "one job count per cell".into() })?;
    let mut report = String::new();
    report.push_str(&format!(
        "LAX ablations, high arrival rate, {n} jobs per cell (deadline-met counts)\n\n"
    ));

    let lax = |cfg: LaxConfig| Variant::Lax(cfg);
    let variants: Vec<(String, Variant)> = vec![
        ("LAX (paper)".into(), lax(LaxConfig::default())),
        ("no admission".into(), lax(LaxConfig { admission: false, ..LaxConfig::default() })),
        (
            "no laxity (SRT prio)".into(),
            lax(LaxConfig { use_laxity: false, ..LaxConfig::default() }),
        ),
        (
            "no event updates".into(),
            lax(LaxConfig { event_driven_updates: false, ..LaxConfig::default() }),
        ),
        (
            "init lowest prio".into(),
            lax(LaxConfig { init_priority: InitPriority::Lowest, ..LaxConfig::default() }),
        ),
        (
            "init laxity estimate".into(),
            lax(LaxConfig { init_priority: InitPriority::InitialLaxity, ..LaxConfig::default() }),
        ),
        // Beyond the paper: LAX-DROP aborts deadline-blown jobs mid-flight.
        ("LAX-DROP (extension)".into(), Variant::Drop),
    ];
    report.push_str(&table_for(&variants, n, workers).render());

    report.push_str("\nProfiling-table update period sweep (paper: 100us):\n\n");
    let periods: Vec<(String, Variant)> = [25u64, 50, 100, 200, 400]
        .into_iter()
        .map(|period_us| {
            let cfg = LaxConfig {
                update_period: sim_core::time::Duration::from_us(period_us),
                ..LaxConfig::default()
            };
            (format!("{period_us}us"), Variant::Lax(cfg))
        })
        .collect();
    report.push_str(&table_for(&periods, n, workers).render());
    println!("{report}");
    sweep::write_output(std::path::Path::new("results/ablation.txt"), &report)?;
    Ok(())
}
