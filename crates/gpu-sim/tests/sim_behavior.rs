//! Behavioral tests for the simulator, exercised through the public API:
//! end-to-end job outcomes, fairness, determinism, validation, fault
//! injection, observability, and the runtime hardening guards.

use std::sync::Arc;

use gpu_sim::kernel::{AccessPattern, ComputeProfile, KernelClassId};
use gpu_sim::prelude::*;
use gpu_sim::sim::run_isolated;

fn kernel(class: u16, threads: u32, issue: u64, mem: u32) -> Arc<KernelDesc> {
    Arc::new(KernelDesc::new(
        KernelClassId(class),
        format!("k{class}"),
        threads,
        64.min(threads),
        16,
        0,
        ComputeProfile {
            issue_cycles: issue,
            mem_accesses: mem,
            lines_per_access: 2,
            pattern: AccessPattern::Streaming,
        },
    ))
}

fn one_job(kernels: Vec<Arc<KernelDesc>>, deadline_us: u64, arrival_us: u64, id: u32) -> JobDesc {
    JobDesc::chain(
        JobId(id),
        "t",
        kernels,
        Duration::from_us(deadline_us),
        Cycle::ZERO + Duration::from_us(arrival_us),
    )
    .unwrap()
}

fn run_rr(jobs: Vec<JobDesc>) -> SimReport {
    let mut sim =
        Simulation::new(SimParams::default(), jobs, SchedulerMode::Cp(Box::new(RoundRobin::new())))
            .unwrap();
    sim.run()
}

#[test]
fn single_compute_job_completes() {
    let report = run_rr(vec![one_job(vec![kernel(0, 64, 1000, 0)], 1000, 0, 0)]);
    assert_eq!(report.completed(), 1);
    assert!(report.records[0].met_deadline());
    // One wave, alone on a SIMD: ~1000 cycles = 2/3 us.
    let lat = report.records[0].latency().unwrap();
    assert!(lat >= Duration::from_cycles(1000));
    assert!(lat < Duration::from_us(2), "latency {lat}");
}

#[test]
fn memory_job_takes_longer_than_compute_only() {
    let fast = run_rr(vec![one_job(vec![kernel(0, 64, 1000, 0)], 1000, 0, 0)]);
    let slow = run_rr(vec![one_job(vec![kernel(0, 64, 1000, 8)], 1000, 0, 0)]);
    let lf = fast.records[0].latency().unwrap();
    let ls = slow.records[0].latency().unwrap();
    assert!(ls > lf + Duration::from_cycles(8 * 200), "{ls} vs {lf}");
}

#[test]
fn kernels_in_a_job_run_sequentially() {
    let one = run_rr(vec![one_job(vec![kernel(0, 64, 3000, 0)], 1000, 0, 0)]);
    let three = run_rr(vec![one_job(
        vec![kernel(0, 64, 1000, 0), kernel(0, 64, 1000, 0), kernel(0, 64, 1000, 0)],
        1000,
        0,
        0,
    )]);
    let l1 = one.records[0].latency().unwrap();
    let l3 = three.records[0].latency().unwrap();
    // Same total issue cycles; sequencing should not be cheaper.
    assert!(l3 >= l1, "{l3} < {l1}");
}

#[test]
fn big_kernel_fills_device_and_contends() {
    // 256 waves of 4000 cycles each: 32 SIMDs * co-issue 4 = 128 free
    // wave contexts, so 8 waves/SIMD run at share 4/8 -> ~2x slowdown.
    let lone = run_rr(vec![one_job(vec![kernel(0, 64, 4000, 0)], 10_000, 0, 0)]);
    let full = run_rr(vec![one_job(vec![kernel(0, 64 * 256, 4000, 0)], 10_000, 0, 0)]);
    let l = lone.records[0].latency().unwrap().as_cycles() as f64;
    let f = full.records[0].latency().unwrap().as_cycles() as f64;
    assert!(f / l > 1.7 && f / l < 2.6, "contention factor {}", f / l);
}

#[test]
fn coissue_window_makes_moderate_occupancy_free() {
    // 128 waves = 4/SIMD: inside the co-issue window, so the compute
    // time matches a lone wave.
    let lone = run_rr(vec![one_job(vec![kernel(0, 64, 4000, 0)], 10_000, 0, 0)]);
    let moderate = run_rr(vec![one_job(vec![kernel(0, 64 * 128, 4000, 0)], 10_000, 0, 0)]);
    let l = lone.records[0].latency().unwrap().as_cycles() as f64;
    let m = moderate.records[0].latency().unwrap().as_cycles() as f64;
    assert!(m / l < 1.2, "moderate occupancy should be near-free, got {}", m / l);
}

#[test]
fn two_jobs_share_the_gpu() {
    let jobs = vec![
        one_job(vec![kernel(0, 128, 2000, 0)], 1000, 0, 0),
        one_job(vec![kernel(1, 128, 2000, 0)], 1000, 0, 1),
    ];
    let report = run_rr(jobs);
    assert_eq!(report.completed(), 2);
    assert_eq!(report.deadlines_met(), 2);
}

#[test]
fn deadline_miss_is_detected() {
    // Deadline of 1us but ~2.7us of work.
    let report = run_rr(vec![one_job(vec![kernel(0, 64, 4000, 0)], 1, 0, 0)]);
    assert_eq!(report.completed(), 1);
    assert_eq!(report.deadlines_met(), 0);
}

#[test]
fn backlog_binds_when_queue_frees() {
    let cfg = GpuConfig { num_queues: 1, ..GpuConfig::default() };
    let params = SimParams { config: cfg, ..SimParams::default() };
    let jobs = vec![
        one_job(vec![kernel(0, 64, 1000, 0)], 1000, 0, 0),
        one_job(vec![kernel(0, 64, 1000, 0)], 1000, 0, 1),
    ];
    let mut sim =
        Simulation::new(params, jobs, SchedulerMode::Cp(Box::new(RoundRobin::new()))).unwrap();
    let report = sim.run();
    assert_eq!(report.completed(), 2, "second job binds after the first frees");
}

#[test]
fn wgs_are_attributed_to_jobs() {
    let report = run_rr(vec![one_job(vec![kernel(0, 256, 500, 0)], 1000, 0, 0)]);
    assert_eq!(report.records[0].wgs_executed, 4.0);
    assert_eq!(report.total_wgs, 4);
}

#[test]
fn energy_is_positive_and_scales_with_work() {
    let small = run_rr(vec![one_job(vec![kernel(0, 64, 1000, 0)], 1000, 0, 0)]);
    let large = run_rr(vec![one_job(vec![kernel(0, 64 * 32, 1000, 4)], 10_000, 0, 0)]);
    assert!(small.energy_mj > 0.0);
    assert!(large.energy_mj > small.energy_mj);
}

#[test]
fn run_isolated_measures_duration() {
    let cfg = GpuConfig::default();
    let d = run_isolated(&cfg, kernel(0, 256, 2000, 2)).unwrap();
    assert!(d > Duration::from_cycles(2000));
    assert!(d < Duration::from_ms(1));
}

#[test]
fn deterministic_across_runs() {
    let jobs = || {
        vec![
            one_job(vec![kernel(0, 512, 1500, 3)], 500, 0, 0),
            one_job(vec![kernel(1, 256, 800, 1)], 500, 5, 1),
            one_job(vec![kernel(0, 512, 1500, 3)], 500, 9, 2),
        ]
    };
    let a = run_rr(jobs());
    let b = run_rr(jobs());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.latency(), rb.latency());
    }
    assert_eq!(a.energy_mj, b.energy_mj);
}

#[test]
fn horizon_leaves_jobs_unfinished() {
    let params =
        SimParams { horizon: Some(Cycle::ZERO + Duration::from_us(1)), ..SimParams::default() };
    let jobs = vec![one_job(vec![kernel(0, 2048, 50_000, 8)], 100_000, 0, 0)];
    let mut sim =
        Simulation::new(params, jobs, SchedulerMode::Cp(Box::new(RoundRobin::new()))).unwrap();
    let report = sim.run();
    assert_eq!(report.completed(), 0);
    assert!(matches!(report.records[0].fate, JobFate::Unfinished));
}

#[test]
fn rejects_unsorted_jobs() {
    let jobs = vec![
        one_job(vec![kernel(0, 64, 100, 0)], 100, 10, 0),
        one_job(vec![kernel(0, 64, 100, 0)], 100, 5, 1),
    ];
    let err =
        Simulation::new(SimParams::default(), jobs, SchedulerMode::Cp(Box::new(RoundRobin::new())));
    assert!(err.is_err());
}

#[test]
fn rejects_non_dense_ids() {
    let jobs = vec![one_job(vec![kernel(0, 64, 100, 0)], 100, 0, 7)];
    assert!(Simulation::new(
        SimParams::default(),
        jobs,
        SchedulerMode::Cp(Box::new(RoundRobin::new())),
    )
    .is_err());
}

#[test]
fn invalid_job_structure_is_a_typed_error() {
    use gpu_sim::job::JobGraph;

    // An empty chain never constructs.
    let err =
        JobDesc::chain(JobId(0), "t", vec![], Duration::from_us(100), Cycle::ZERO).unwrap_err();
    assert_eq!(err, JobError::EmptyGraph);

    // A zero deadline never constructs either...
    let err =
        JobDesc::chain(JobId(0), "t", vec![kernel(0, 64, 100, 0)], Duration::ZERO, Cycle::ZERO)
            .unwrap_err();
    assert_eq!(err, JobError::ZeroDeadline);

    // ...but a deadline zeroed through the public field after construction
    // is still caught by the builder, as a typed graph error.
    let mut zero_deadline = one_job(vec![kernel(0, 64, 100, 0)], 100, 0, 0);
    zero_deadline.deadline = Duration::ZERO;
    let err = Simulation::builder().jobs(vec![zero_deadline]).build().unwrap_err();
    assert!(matches!(err, SimError::Graph { job: 0, source: JobError::ZeroDeadline }), "{err}");

    // Cycles and dangling edges are rejected when the graph is assembled.
    let two = || vec![kernel(0, 64, 100, 0), kernel(1, 64, 100, 0)];
    let err = JobGraph::new(two(), vec![(0, 1), (1, 0)]).unwrap_err();
    assert_eq!(err, JobError::CycleDetected);
    let err = JobGraph::new(two(), vec![(0, 5)]).unwrap_err();
    assert_eq!(err, JobError::DanglingEdge { from: 0, to: 5, stages: 2 });

    // A literal-constructed kernel with a broken grid is still a Job error.
    let mut bad_kernel = (*kernel(0, 64, 100, 0)).clone();
    bad_kernel.wg_size = 0;
    let job = one_job(vec![Arc::new(bad_kernel)], 100, 0, 0);
    let err = Simulation::builder().jobs(vec![job]).build().unwrap_err();
    assert!(matches!(err, SimError::Job(ref m) if m.contains("empty grid")), "{err}");
}

#[test]
fn dag_job_runs_to_completion_with_concurrent_stages() {
    use gpu_sim::job::JobGraph;
    use gpu_sim::probe::ProbeEvent;
    use std::sync::{Arc as SArc, Mutex};

    // Diamond: 0 -> {1, 2} -> 3.
    let stages = vec![
        kernel(0, 128, 1000, 0),
        kernel(1, 128, 2000, 0),
        kernel(2, 128, 2000, 0),
        kernel(3, 128, 1000, 0),
    ];
    let graph = JobGraph::new(stages, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
    let job =
        JobDesc::from_graph(JobId(0), "diamond", graph, Duration::from_ms(1), Cycle::ZERO).unwrap();

    #[derive(Default)]
    struct Order(Vec<(bool, usize)>); // (started, stage)
    impl sim_core::probe::Observer<ProbeEvent> for Order {
        fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::KernelStarted { kernel, .. } => self.0.push((true, *kernel)),
                ProbeEvent::KernelCompleted { kernel, .. } => self.0.push((false, *kernel)),
                _ => {}
            }
        }
    }
    let order = SArc::new(Mutex::new(Order::default()));
    let mut sim = Simulation::builder()
        .jobs(vec![job])
        .cp(RoundRobin::new())
        .observe(Box::new(SArc::clone(&order)))
        .build()
        .unwrap();
    let report = sim.run();
    assert_eq!(report.completed(), 1);
    assert!(report.records[0].met_deadline());

    // Every edge is respected: a stage starts only after its preds finish.
    let events = order.lock().unwrap().0.clone();
    let start_pos = |s: usize| events.iter().position(|&e| e == (true, s)).unwrap();
    let done_pos = |s: usize| events.iter().position(|&e| e == (false, s)).unwrap();
    for &(u, v) in &[(0usize, 1usize), (0, 2), (1, 3), (2, 3)] {
        assert!(done_pos(u) < start_pos(v), "edge {u}->{v} violated: {events:?}");
    }
    // The middle stages overlapped: both started before either finished.
    assert!(
        start_pos(1) < done_pos(2) && start_pos(2) < done_pos(1),
        "stages 1 and 2 should be in flight together: {events:?}"
    );
}

// ----- fault injection ---------------------------------------------------

use gpu_sim::faults::{CuFault, DramThrottle, FaultPlan, Slowdown};

fn fault_jobs() -> Vec<JobDesc> {
    vec![
        one_job(vec![kernel(0, 512, 4000, 4)], 5000, 0, 0),
        one_job(vec![kernel(1, 256, 2000, 2)], 5000, 20, 1),
    ]
}

fn run_with_plan(jobs: Vec<JobDesc>, plan: FaultPlan) -> SimReport {
    let mut sim =
        Simulation::builder().jobs(jobs).faults(plan).cp(RoundRobin::new()).build().unwrap();
    sim.run()
}

#[test]
fn none_plan_is_bit_identical_to_no_plan() {
    let baseline = run_rr(fault_jobs());
    let with_none = run_with_plan(fault_jobs(), FaultPlan::none());
    assert_eq!(baseline, with_none, "FaultPlan::none() must not perturb anything");
}

// ----- observability -----------------------------------------------------

/// Jobs whose second arrival (150 us) keeps the run alive past the first
/// 100 us counter tick, so periodic snapshot probes are guaranteed to
/// fire at least once.
fn observed_jobs() -> Vec<JobDesc> {
    vec![
        one_job(vec![kernel(0, 512, 4000, 4)], 5000, 0, 0),
        one_job(vec![kernel(1, 256, 2000, 2)], 5000, 150, 1),
    ]
}

#[test]
fn attached_observers_are_bit_identical_to_detached() {
    // The probe layer's determinism contract (same shape as
    // `none_plan_is_bit_identical_to_no_plan`): observers piggyback on
    // existing events and never schedule new ones, so an observed run's
    // report is bit-exact against a bare run.
    use gpu_sim::probe::{ChromeTraceWriter, MetricsSampler};
    use std::sync::{Arc, Mutex};
    let baseline = run_rr(observed_jobs());
    let sampler = Arc::new(Mutex::new(MetricsSampler::new()));
    let writer = Arc::new(Mutex::new(ChromeTraceWriter::new()));
    let mut sim = Simulation::builder()
        .jobs(observed_jobs())
        .cp(RoundRobin::new())
        .observe(Box::new(Arc::clone(&sampler)))
        .observe(Box::new(Arc::clone(&writer)))
        .build()
        .unwrap();
    let observed = sim.run();
    assert_eq!(baseline, observed, "attached observers must not perturb the run");
    let sampler = sampler.lock().unwrap();
    assert!(!sampler.times().is_empty(), "periodic snapshots were recorded");
    let writer = writer.lock().unwrap();
    assert!(!writer.is_empty(), "workgroup/kernel spans were recorded");
    let doc = writer.finish();
    sim_core::json::validate(&doc).expect("emitted trace is well-formed JSON");
}

#[test]
fn probe_fire_sites_cover_the_event_lifecycle() {
    use gpu_sim::probe::ProbeEvent;
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    struct Counts {
        arrived: u64,
        admitted: u64,
        kernels_started: u64,
        kernels_completed: u64,
        wgs_dispatched: u64,
        wgs_retired: u64,
        waves_issued: u64,
        mem_accesses: u64,
        snapshots: u64,
    }
    impl sim_core::probe::Observer<ProbeEvent> for Counts {
        fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::JobArrived { .. } => self.arrived += 1,
                ProbeEvent::CpDecision { admitted: true, .. } => self.admitted += 1,
                ProbeEvent::KernelStarted { .. } => self.kernels_started += 1,
                ProbeEvent::KernelCompleted { .. } => self.kernels_completed += 1,
                ProbeEvent::WgDispatched { .. } => self.wgs_dispatched += 1,
                ProbeEvent::WgRetired { .. } => self.wgs_retired += 1,
                ProbeEvent::WaveIssued { .. } => self.waves_issued += 1,
                ProbeEvent::MemAccess { .. } => self.mem_accesses += 1,
                ProbeEvent::Snapshot(_) => self.snapshots += 1,
                _ => {}
            }
        }
    }

    let counts = Arc::new(Mutex::new(Counts::default()));
    let mut sim = Simulation::builder()
        .jobs(observed_jobs())
        .cp(RoundRobin::new())
        .observe(Box::new(Arc::clone(&counts)))
        .build()
        .unwrap();
    let report = sim.run();
    assert_eq!(report.completed(), 2);
    let c = counts.lock().unwrap();
    assert_eq!(c.arrived, 2, "both jobs crossed the arrival probe");
    assert_eq!(c.admitted, 2, "RR admits everything");
    assert_eq!(c.kernels_started, 2, "one kernel per job");
    assert_eq!(c.kernels_completed, 2);
    assert_eq!(c.wgs_dispatched, c.wgs_retired, "every dispatched WG retired");
    assert!(c.wgs_dispatched > 0);
    assert!(c.waves_issued >= c.wgs_dispatched, "a WG issues at least one wave");
    assert!(c.mem_accesses > 0, "the jobs perform memory accesses");
    assert!(c.snapshots > 0, "counter ticks produced snapshots");
}

#[test]
fn slowdown_window_stretches_latency() {
    let clean = run_with_plan(fault_jobs(), FaultPlan::none());
    let plan = FaultPlan {
        slowdowns: vec![Slowdown {
            at: Cycle::ZERO,
            until: Cycle::ZERO + Duration::from_ms(100),
            factor: 4.0,
        }],
        ..FaultPlan::none()
    };
    let slow = run_with_plan(fault_jobs(), plan);
    let lc = clean.records[0].latency().unwrap();
    let ls = slow.records[0].latency().unwrap();
    assert!(ls > lc.mul_f64(2.0), "4x slowdown should at least double latency: {ls} vs {lc}");
}

#[test]
fn cu_fault_drains_and_restores() {
    // All 8 CUs offline from t=0 until 1ms: nothing can dispatch, so
    // the job only starts (and finishes) after the restore.
    let restore = Cycle::ZERO + Duration::from_ms(1);
    let plan = FaultPlan {
        cu_faults: (0..8).map(|cu| CuFault { cu, at: Cycle::ZERO, until: restore }).collect(),
        ..FaultPlan::none()
    };
    let report = run_with_plan(vec![one_job(vec![kernel(0, 64, 1000, 0)], 10_000, 0, 0)], plan);
    let done = report.records[0].fate.completed_at().expect("job completes after restore");
    assert!(done > restore, "completed at {done}, before the CUs came back");
    // With the same plan but a window that ends before arrival, latency
    // matches the clean run.
    let early_plan = FaultPlan {
        cu_faults: (0..8)
            .map(|cu| CuFault {
                cu,
                at: Cycle::ZERO,
                until: Cycle::ZERO + Duration::from_cycles(1),
            })
            .collect(),
        ..FaultPlan::none()
    };
    let jobs = || {
        vec![one_job(
            vec![kernel(0, 64, 1000, 0)],
            10_000,
            10, // arrives after the 1-cycle outage
            0,
        )]
    };
    let clean = run_with_plan(jobs(), FaultPlan::none());
    let early = run_with_plan(jobs(), early_plan);
    assert_eq!(
        clean.records[0].latency(),
        early.records[0].latency(),
        "an outage fully before arrival must not affect the job"
    );
}

#[test]
fn dram_throttle_slows_memory_jobs_only_during_window() {
    let jobs = || vec![one_job(vec![kernel(0, 2048, 2000, 16)], 50_000, 0, 0)];
    let clean = run_with_plan(jobs(), FaultPlan::none());
    let plan = FaultPlan {
        dram_throttles: vec![DramThrottle {
            at: Cycle::ZERO,
            until: Cycle::ZERO + Duration::from_ms(100),
            factor: 16.0,
        }],
        ..FaultPlan::none()
    };
    let throttled = run_with_plan(jobs(), plan);
    let lc = clean.records[0].latency().unwrap();
    let lt = throttled.records[0].latency().unwrap();
    assert!(lt > lc, "16x DRAM service must slow a memory-heavy job: {lt} vs {lc}");
}

#[test]
fn faulty_runs_are_deterministic() {
    let plan = || FaultPlan::seeded(99, 1.5, Duration::from_ms(2), 8);
    assert!(!plan().is_none());
    let a = run_with_plan(fault_jobs(), plan());
    let b = run_with_plan(fault_jobs(), plan());
    assert_eq!(a, b);
}

#[test]
fn invalid_plan_is_rejected_at_build() {
    let plan = FaultPlan {
        cu_faults: vec![CuFault {
            cu: 99,
            at: Cycle::ZERO,
            until: Cycle::ZERO + Duration::from_us(1),
        }],
        ..FaultPlan::none()
    };
    let err = Simulation::builder().jobs(fault_jobs()).faults(plan).build().unwrap_err();
    assert!(matches!(err, SimError::Fault(_)), "{err}");
}

// ----- hardening ---------------------------------------------------------

#[test]
fn event_budget_converts_runaway_into_typed_error() {
    let mut sim = Simulation::builder().jobs(fault_jobs()).event_budget(10).build().unwrap();
    let err = sim.try_run().unwrap_err();
    assert_eq!(err, SimError::EventBudgetExceeded { budget: 10 });
}

#[test]
fn queue_overflow_is_a_typed_error_not_a_hang() {
    let cfg = GpuConfig { num_queues: 1, ..GpuConfig::default() };
    let jobs = vec![
        one_job(vec![kernel(0, 2048, 50_000, 0)], 100_000, 0, 0),
        one_job(vec![kernel(0, 64, 100, 0)], 100_000, 1, 1),
        one_job(vec![kernel(0, 64, 100, 0)], 100_000, 2, 2),
    ];
    let mut sim = Simulation::builder().config(cfg).jobs(jobs).max_backlog(1).build().unwrap();
    let err = sim.try_run().unwrap_err();
    assert!(matches!(err, SimError::QueueOverflow { pending: 2, limit: 1 }), "{err}");
}

#[test]
fn livelock_is_detected_deterministically() {
    struct ZeroTick;
    impl CpScheduler for ZeroTick {
        fn name(&self) -> &'static str {
            "ZERO-TICK"
        }
        fn tick_period(&self) -> Option<Duration> {
            Some(Duration::ZERO) // reschedules itself at `now` forever
        }
    }
    let mut sim = Simulation::builder()
        .jobs(vec![one_job(vec![kernel(0, 64, 1000, 0)], 1000, 0, 0)])
        .cp(ZeroTick)
        .build()
        .unwrap();
    let err = sim.try_run().unwrap_err();
    assert!(matches!(err, SimError::Stalled { .. }), "{err}");
}

#[test]
fn run_panics_on_runtime_fault_with_context() {
    let result = std::panic::catch_unwind(|| {
        let mut sim = Simulation::builder().jobs(fault_jobs()).event_budget(5).build().unwrap();
        sim.run()
    });
    let payload = result.unwrap_err();
    let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("event budget"), "panic message was: {msg}");
}

/// xorshift64 step for the seeded property loops below.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The bound calibration's probe pruning rests on: no isolated run beats
/// `ComputeProfile::min_isolated_cycles`. Random kernels cover every
/// access pattern, zero to many accesses, and grids from one wave per SIMD
/// to several times the co-issue window (where waves share issue
/// bandwidth).
#[test]
fn isolated_runs_never_beat_the_issue_bound() {
    let cfg = GpuConfig::default();
    let simds = cfg.num_cus * cfg.simds_per_cu;
    let mut state = 0x5EED_CA1B_u64;
    for trial in 0..48 {
        let waves_per_simd = 1 + next(&mut state) % (3 * u64::from(cfg.coissue_waves));
        let wg_size = 64 << (next(&mut state) % 3);
        let waves = (simds as u64 * waves_per_simd).next_multiple_of(wg_size / 64);
        let mem_accesses = match trial % 4 {
            0 => 0,
            1 => (next(&mut state) % 4) as u32,
            _ => (next(&mut state) % 64) as u32,
        };
        let pattern = match trial % 3 {
            0 => AccessPattern::Streaming,
            1 => {
                AccessPattern::SharedRegion { base: 1 << 42, len: 4096 << (next(&mut state) % 12) }
            }
            _ => AccessPattern::RandomWithin { len: 4096 << (next(&mut state) % 12) },
        };
        let profile = ComputeProfile {
            issue_cycles: 1 + next(&mut state) % 200_000,
            mem_accesses,
            lines_per_access: 1 + (next(&mut state) % 8) as u32,
            pattern,
        };
        let threads = (waves * 64) as u32;
        let desc = KernelDesc::new(KernelClassId(0), "k", threads, wg_size as u32, 16, 0, profile);
        let measured = run_isolated(&cfg, Arc::new(desc)).unwrap().as_cycles();
        assert!(
            measured >= profile.min_isolated_cycles(),
            "trial {trial}: {measured} cycles beat the bound {} of {profile:?} ({waves} waves)",
            profile.min_isolated_cycles()
        );
    }
}

/// A shared region that reaches past the 2^43-byte address space is a
/// typed job error from the builder, not a cache tag that aliases.
#[test]
fn a_shared_region_past_the_address_space_is_a_typed_error() {
    let region = |base: u64| {
        let mut k = (*kernel(0, 64, 100, 4)).clone();
        k.profile.pattern = AccessPattern::SharedRegion { base, len: 1 << 20 };
        Simulation::builder().jobs(vec![one_job(vec![Arc::new(k)], 100, 0, 0)]).build()
    };
    assert!(region(1 << 42).is_ok());
    let err = region(1 << 44).map(|_| ()).unwrap_err();
    assert!(matches!(err, SimError::Job(ref m) if m.contains("address space")), "{err}");
}

/// Cache geometries the cache model cannot build are typed configuration
/// errors: a set count that is not a power of two, or ways too small for
/// 32-bit tags.
#[test]
fn unbuildable_cache_geometries_are_typed_config_errors() {
    let desc = kernel(0, 64, 100, 4);
    let mut cfg = GpuConfig::default();
    cfg.mem.l1_bytes = 12 * 1024;
    let err = run_isolated(&cfg, desc.clone()).unwrap_err();
    assert!(matches!(err, SimError::Config(ref m) if m.contains("power of two")), "{err}");
    let mut cfg = GpuConfig::default();
    cfg.mem.l2_ways = 128;
    cfg.mem.l2_bytes = 128 * 64 * 16;
    let err = run_isolated(&cfg, desc).unwrap_err();
    assert!(matches!(err, SimError::Config(ref m) if m.contains("32-bit tags")), "{err}");
}
