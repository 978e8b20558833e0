//! Integration tests of the command processor's dispatch machinery:
//! priority ordering, blocking, inspection latency, backlog handling and
//! partial workgroup dispatch.

use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use gpu_sim::scheduler::{Admission, CpContext, CpScheduler};
use sim_core::probe::Observer;

fn kernel(class: u16, issue: u64, threads: u32) -> Arc<KernelDesc> {
    Arc::new(KernelDesc::new(
        KernelClassId(class),
        format!("k{class}"),
        threads,
        threads.min(64),
        8,
        0,
        ComputeProfile::compute_only(issue),
    ))
}

fn job(id: u32, kernels: Vec<Arc<KernelDesc>>, deadline_us: u64, arrival_us: u64) -> JobDesc {
    JobDesc::chain(
        JobId(id),
        "dispatch-test",
        kernels,
        Duration::from_us(deadline_us),
        Cycle::ZERO + Duration::from_us(arrival_us),
    )
    .unwrap()
}

/// Fixed priorities: job id IS the priority (lower id runs first).
#[derive(Debug, Default)]
struct ByJobId;

impl CpScheduler for ByJobId {
    fn name(&self) -> &'static str {
        "BY-ID"
    }
    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        if let Some(a) = ctx.queues[q].active.as_mut() {
            a.priority = a.job.id.0 as i64;
        }
    }
}

/// Reverse: higher id runs first.
#[derive(Debug, Default)]
struct ByJobIdRev;

impl CpScheduler for ByJobIdRev {
    fn name(&self) -> &'static str {
        "BY-ID-REV"
    }
    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        if let Some(a) = ctx.queues[q].active.as_mut() {
            a.priority = -(a.job.id.0 as i64);
        }
    }
}

fn one_slot_gpu() -> GpuConfig {
    GpuConfig {
        num_cus: 1,
        simds_per_cu: 1,
        waves_per_simd: 1,
        coissue_waves: 1,
        ..GpuConfig::default()
    }
}

fn completion_order(report: &SimReport) -> Vec<u32> {
    let mut order: Vec<(Cycle, u32)> = report
        .records
        .iter()
        .map(|r| (r.fate.completed_at().expect("completed"), r.id.0))
        .collect();
    order.sort();
    order.into_iter().map(|(_, id)| id).collect()
}

#[test]
fn priority_decides_who_runs_first_on_a_serial_device() {
    // A filler job occupies the single wave slot; three contenders arrive
    // while it runs, so the scheduler's priorities decide their order.
    let mk_jobs = || {
        vec![
            job(0, vec![kernel(9, 15_000, 64)], 100_000, 0), // filler
            job(1, vec![kernel(1, 10_000, 64)], 100_000, 1),
            job(2, vec![kernel(2, 10_000, 64)], 100_000, 1),
            job(3, vec![kernel(3, 10_000, 64)], 100_000, 1),
        ]
    };
    let params = || SimParams { config: one_slot_gpu(), ..SimParams::default() };

    let mut sim = Simulation::new(params(), mk_jobs(), SchedulerMode::Cp(Box::new(ByJobId))).unwrap();
    assert_eq!(completion_order(&sim.run()), vec![0, 1, 2, 3]);

    let mut sim =
        Simulation::new(params(), mk_jobs(), SchedulerMode::Cp(Box::new(ByJobIdRev))).unwrap();
    assert_eq!(completion_order(&sim.run()), vec![0, 3, 2, 1]);
}

/// Blocks one specific job for a long time via `blocked_until`.
#[derive(Debug)]
struct BlockJob(u32, Duration);

impl CpScheduler for BlockJob {
    fn name(&self) -> &'static str {
        "BLOCKER"
    }
    fn tick_period(&self) -> Option<Duration> {
        Some(Duration::from_us(10))
    }
    fn on_tick(&mut self, _ctx: &mut CpContext<'_>) {}
    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        let now = ctx.now;
        if let Some(a) = ctx.queues[q].active.as_mut() {
            if a.job.id.0 == self.0 {
                a.blocked_until = now + self.1;
            }
        }
    }
}

#[test]
fn blocked_jobs_wait_out_their_block() {
    let jobs = vec![
        job(0, vec![kernel(0, 1_500, 64)], 100_000, 0),
        job(1, vec![kernel(1, 1_500, 64)], 100_000, 0),
    ];
    let mut sim = Simulation::new(
        SimParams::default(),
        jobs,
        SchedulerMode::Cp(Box::new(BlockJob(0, Duration::from_us(50)))),
    )
    .unwrap();
    let r = sim.run();
    let blocked = r.records[0].latency().unwrap();
    let free = r.records[1].latency().unwrap();
    assert!(blocked >= Duration::from_us(50), "blocked job waited: {blocked}");
    assert!(free < Duration::from_us(10), "unblocked job ran immediately: {free}");
}

/// Accept-all scheduler that demands stream inspection.
#[derive(Debug, Default)]
struct InspectingAcceptor;

impl CpScheduler for InspectingAcceptor {
    fn name(&self) -> &'static str {
        "INSPECT"
    }
    fn requires_inspection(&self) -> bool {
        true
    }
    fn admit(&mut self, _ctx: &mut CpContext<'_>, _q: usize) -> Admission {
        Admission::Accept
    }
}

#[test]
fn inspection_delays_dispatch_by_the_parse_rate() {
    // 8 jobs arrive at t=0; the CP parses 4 streams per 2us, so the last
    // job cannot start before ~4us.
    let jobs: Vec<JobDesc> = (0..8)
        .map(|i| job(i, vec![kernel(0, 150, 64)], 100_000, 0))
        .collect();
    let mut sim = Simulation::new(
        SimParams::default(),
        jobs,
        SchedulerMode::Cp(Box::new(InspectingAcceptor)),
    )
    .unwrap();
    let r = sim.run();
    let last_done = r
        .records
        .iter()
        .map(|rec| rec.fate.completed_at().unwrap())
        .max()
        .unwrap();
    assert!(
        last_done >= Cycle::ZERO + Duration::from_us(4),
        "8 inspections at 0.5us each gate the last job: {last_done}"
    );
}

#[test]
fn kernels_larger_than_the_device_dispatch_in_waves() {
    // 640 waves > 320 slots: the kernel must dispatch partially and refill.
    let jobs = vec![job(0, vec![kernel(0, 3_000, 640 * 64)], 1_000_000, 0)];
    let mut sim =
        Simulation::new(SimParams::default(), jobs, SchedulerMode::Cp(Box::new(RoundRobin::new())))
            .unwrap();
    let r = sim.run();
    assert_eq!(r.completed(), 1);
    assert_eq!(r.total_wgs, 640);
}

#[test]
fn queue_exhaustion_backlogs_then_recovers() {
    let cfg = GpuConfig { num_queues: 2, ..GpuConfig::default() };
    let jobs: Vec<JobDesc> = (0..6)
        .map(|i| job(i, vec![kernel(0, 1_500, 64)], 100_000, 0))
        .collect();
    let params = SimParams { config: cfg, ..SimParams::default() };
    let mut sim =
        Simulation::new(params, jobs, SchedulerMode::Cp(Box::new(RoundRobin::new()))).unwrap();
    let r = sim.run();
    assert_eq!(r.completed(), 6, "backlogged jobs bind as queues free");
}

#[test]
fn round_robin_interleaves_equal_priority_queues() {
    // Two multi-kernel jobs on a serial device: RR should alternate their
    // kernels rather than running one job to completion.
    let jobs = vec![
        job(0, vec![kernel(0, 1_500, 64); 4], 1_000_000, 0),
        job(1, vec![kernel(1, 1_500, 64); 4], 1_000_000, 0),
    ];
    let params = SimParams { config: one_slot_gpu(), ..SimParams::default() };
    let mut sim =
        Simulation::new(params, jobs, SchedulerMode::Cp(Box::new(RoundRobin::new()))).unwrap();
    let r = sim.run();
    let t0 = r.records[0].fate.completed_at().unwrap();
    let t1 = r.records[1].fate.completed_at().unwrap();
    // Interleaving means both finish near the end; strict job-serial would
    // let one finish in half the total time.
    let total = t0.max(t1).as_us_f64();
    assert!(
        t0.min(t1).as_us_f64() > total * 0.6,
        "jobs should interleave: {} vs {}",
        t0.as_us_f64(),
        t1.as_us_f64()
    );
}

/// Job 0's lifecycle as a probe observer sees it.
#[derive(Default)]
struct Lifecycle(Vec<(Cycle, String)>);

impl Observer<ProbeEvent> for Lifecycle {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        let step = match event {
            ProbeEvent::JobArrived { job: JobId(0) } => "arrived".to_string(),
            ProbeEvent::CpDecision { job: JobId(0), admitted, .. } => {
                if *admitted { "admitted" } else { "rejected" }.to_string()
            }
            ProbeEvent::KernelStarted { job: JobId(0), kernel, .. } => format!("start {kernel}"),
            ProbeEvent::KernelCompleted { job: JobId(0), kernel, .. } => format!("end {kernel}"),
            ProbeEvent::JobResolved { job: JobId(0), fate } => format!("{fate:?}"),
            _ => return,
        };
        self.0.push((at, step));
    }
}

#[test]
fn probe_observer_sees_the_job_lifecycle() {
    let jobs = vec![job(0, vec![kernel(0, 1_500, 64), kernel(1, 1_500, 64)], 100_000, 3)];
    let lifecycle = Arc::new(Mutex::new(Lifecycle::default()));
    let mut sim = Simulation::builder()
        .jobs(jobs)
        .observe(Box::new(lifecycle.clone()))
        .build()
        .unwrap();
    let report = sim.run();
    let done = report.records[0].fate.completed_at().expect("completed");
    let seen = lifecycle.lock().unwrap().0.clone();
    let steps: Vec<&str> = seen.iter().map(|(_, s)| s.as_str()).collect();
    let resolved = format!("{:?}", JobFate::Completed(done));
    assert_eq!(
        steps,
        vec!["arrived", "admitted", "start 0", "end 0", "start 1", "end 1", resolved.as_str()]
    );
    let arrival = Cycle::ZERO + Duration::from_us(3);
    assert_eq!(seen[0].0, arrival);
    assert!(seen[2].0 >= arrival, "the first kernel starts after arrival");
    assert_eq!(seen[6].0, done, "resolution fires at the completion instant");
}
