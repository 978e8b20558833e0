//! The paper's Figure 3, as runnable code: a handful of short jobs plus one
//! long, tight-deadline job on a GPU that can execute two kernels at once.
//! Round-robin cycles the queues in arrival order, so the long job keeps
//! waiting its turn and misses; LAX sees it has (near) zero laxity and runs
//! it the moment a slot opens.
//!
//! The Gantt chart under each run is drawn by a small probe observer over
//! `JobArrived`, `KernelStarted` and `JobResolved`: every job lifecycle
//! question is answered from the simulator's one probe bus.
//!
//! ```text
//! cargo run --release --example scheduling_story
//! ```

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use lax::lax::{InitPriority, Lax, LaxConfig};
use sim_core::probe::Observer;

/// A tiny one-CU machine with exactly two wavefront slots, so at most two
/// kernels execute concurrently - the situation Figure 3 illustrates.
fn tiny_gpu() -> GpuConfig {
    GpuConfig {
        num_cus: 1,
        simds_per_cu: 2,
        waves_per_simd: 1,
        coissue_waves: 1,
        ..GpuConfig::default()
    }
}

/// One single-wavefront kernel running for `us` microseconds.
fn kernel(class: u16, us: u64) -> Arc<KernelDesc> {
    Arc::new(KernelDesc::new(
        KernelClassId(class),
        format!("k{class}"),
        64,
        64,
        8,
        0,
        ComputeProfile::compute_only(us * 1_500),
    ))
}

const T0: u64 = 400; // story start (after the profiling warm-up), us

fn story_jobs() -> Vec<JobDesc> {
    let short = kernel(0, 20);
    let long = kernel(1, 25);
    let mut jobs = Vec::new();
    // Two warm-up jobs teach the Kernel Profiling Table each class's rate.
    jobs.push(
        JobDesc::chain(JobId(0), "warmup", vec![short.clone()], Duration::from_ms(10), Cycle::ZERO)
            .unwrap(),
    );
    jobs.push(
        JobDesc::chain(
            JobId(1),
            "warmup",
            vec![long.clone()],
            Duration::from_ms(10),
            Cycle::ZERO + Duration::from_us(30),
        )
        .unwrap(),
    );
    // Four short jobs (2 x 20us kernels, comfortable 130us deadlines)...
    for i in 0..4 {
        jobs.push(
            JobDesc::chain(
                JobId(2 + i),
                format!("S{}", i + 1),
                vec![short.clone(), short.clone()],
                Duration::from_us(130),
                Cycle::ZERO + Duration::from_us(T0),
            )
            .unwrap(),
        );
    }
    // ...and one long job (2 x 25us) arriving 5us later with only 75us of
    // budget: it must start almost immediately to make it.
    jobs.push(
        JobDesc::chain(
            JobId(6),
            "LONG",
            vec![long.clone(), long.clone()],
            Duration::from_us(75),
            Cycle::ZERO + Duration::from_us(T0 + 5),
        )
        .unwrap(),
    );
    jobs
}

/// One job's arrival, first kernel start and fate.
struct Lifecycle {
    job: JobId,
    arrived: Cycle,
    started: Option<Cycle>,
    fate: JobFate,
}

/// Probe observer collecting every job's [`Lifecycle`], in arrival order.
#[derive(Default)]
struct Lifecycles {
    jobs: Vec<Lifecycle>,
    /// The last lifecycle event seen.
    horizon: Cycle,
}

impl Observer<ProbeEvent> for Lifecycles {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        match *event {
            ProbeEvent::JobArrived { job } => {
                self.jobs.push(Lifecycle { job, arrived: at, started: None, fate: JobFate::Unfinished });
            }
            ProbeEvent::KernelStarted { job, .. } => {
                if let Some(l) = self.jobs.iter_mut().find(|l| l.job == job) {
                    l.started.get_or_insert(at);
                }
            }
            ProbeEvent::JobResolved { job, fate } => {
                if let Some(l) = self.jobs.iter_mut().find(|l| l.job == job) {
                    l.fate = fate;
                }
            }
            _ => return,
        }
        self.horizon = at;
    }
}

impl Lifecycles {
    /// A text Gantt chart, `per_char` simulated time per column: `.`
    /// waiting (arrived, not yet executing), `=` executing (first kernel
    /// start to completion), `X` rejected or aborted.
    fn gantt(&self, per_char: Duration) -> String {
        let cols = (self.horizon.as_cycles() / per_char.as_cycles() + 1).min(500) as usize;
        let col = |t: Cycle| ((t.as_cycles() / per_char.as_cycles()) as usize).min(cols - 1);
        let mut out = String::new();
        let _ = writeln!(out, "gantt: one column = {per_char} ('.' waiting, '=' running, 'X' rejected)");
        for l in &self.jobs {
            let mut lane = vec![' '; cols];
            let dropped = match l.fate {
                JobFate::Rejected(t) | JobFate::Aborted(t) => Some(t),
                _ => None,
            };
            let span = l.started.zip(l.fate.completed_at());
            let wait_end = span.map(|(s, _)| s).or(dropped).unwrap_or(self.horizon);
            lane[col(l.arrived)..=col(wait_end)].fill('.');
            if let Some((s, e)) = span {
                lane[col(s)..=col(e)].fill('=');
            }
            if let Some(t) = dropped {
                lane[col(t)] = 'X';
            }
            let _ = writeln!(out, "job {:>4} |{}|", l.job.0, lane.iter().collect::<String>());
        }
        out
    }
}

fn run(name: &str, mode: SchedulerMode) {
    let lifecycles = Arc::new(Mutex::new(Lifecycles::default()));
    let mut sim = Simulation::builder()
        .config(tiny_gpu())
        .observe(Box::new(lifecycles.clone()))
        .jobs(story_jobs())
        .scheduler(mode)
        .build()
        .expect("valid jobs");
    let report = sim.run();
    println!("--- {name} ---");
    let mut met = 0;
    for rec in report.records.iter().filter(|r| &*r.bench != "warmup") {
        let status = if rec.met_deadline() { "MET   " } else { "MISSED" };
        if rec.met_deadline() {
            met += 1;
        }
        println!(
            "  {:<4} arrived {:>3.0}us, finished {:>6.1}us, deadline {:>5.0}us -> {status}",
            rec.bench,
            rec.arrival.as_us_f64() - T0 as f64,
            rec.fate
                .completed_at()
                .map(|t| t.as_us_f64() - T0 as f64)
                .unwrap_or(f64::NAN),
            rec.deadline_abs.as_us_f64() - T0 as f64,
        );
    }
    println!("  story jobs on time: {met}/5");
    print!("{}", lifecycles.lock().expect("observer lock").gantt(Duration::from_us(5)));
    println!();
}

fn main() {
    println!("Figure 3 reenacted: short jobs + one long tight job, 2 kernel slots\n");
    run("Round-robin (contemporary GPU)", SchedulerMode::Cp(Box::new(RoundRobin::new())));
    let lax = Lax::with_config(LaxConfig {
        // The story is about prioritization; keep admission out of it, and
        // rank jobs by laxity from the moment they arrive (footnote 2's
        // "initial laxity estimate" variant) so the 100us update period
        // does not quantize this microsecond-scale vignette.
        admission: false,
        init_priority: InitPriority::InitialLaxity,
        ..LaxConfig::default()
    });
    run("LAX (laxity-aware)", SchedulerMode::Cp(Box::new(lax)));
    println!("RR keeps cycling through the earlier-arrived short jobs, so the");
    println!("long job starts late and misses. LAX's estimate shows the long job");
    println!("has ~zero laxity, bumps it to the highest priority, and every job");
    println!("meets its deadline.");
}
