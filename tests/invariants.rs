//! Property-based tests over the simulator core: for arbitrary job mixes
//! and scheduler choices, structural invariants must hold.
//!
//! Job mixes are sampled from a seeded [`SimRng`] (the registry is offline,
//! so no proptest): each test draws the same cases every run, keeping
//! failures reproducible by the printed case index.

use std::sync::Arc;

use gpu_sim::job::{JobDesc, JobFate, JobId};
use gpu_sim::kernel::{AccessPattern, ComputeProfile, KernelClassId, KernelDesc};
use gpu_sim::prelude::*;
use sim_core::rng::SimRng;

#[derive(Debug, Clone)]
struct KernelSpec {
    class: u16,
    wgs: u32,
    wg_size_waves: u32,
    issue: u64,
    mem: u32,
}

#[derive(Debug, Clone)]
struct JobSpec {
    kernels: Vec<KernelSpec>,
    deadline_us: u64,
    gap_us: u64,
}

fn gen_kernel(rng: &mut SimRng) -> KernelSpec {
    KernelSpec {
        class: rng.below(4) as u16,
        wgs: 1 + rng.below(5) as u32,
        wg_size_waves: 1 + rng.below(2) as u32,
        issue: 50 + rng.below(2_950),
        mem: rng.below(6) as u32,
    }
}

fn gen_job(rng: &mut SimRng) -> JobSpec {
    let n_kernels = 1 + rng.below(4) as usize;
    JobSpec {
        kernels: (0..n_kernels).map(|_| gen_kernel(rng)).collect(),
        deadline_us: 20 + rng.below(1_980),
        gap_us: rng.below(60),
    }
}

/// Samples a job mix of up to `max_jobs` (at least one).
fn gen_specs(rng: &mut SimRng, max_jobs: u64) -> Vec<JobSpec> {
    let n = 1 + rng.below(max_jobs) as usize;
    (0..n).map(|_| gen_job(rng)).collect()
}

fn build_jobs(specs: &[JobSpec]) -> Vec<JobDesc> {
    let mut now = Cycle::ZERO;
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            now += Duration::from_us(s.gap_us);
            let kernels = s
                .kernels
                .iter()
                .map(|k| {
                    Arc::new(KernelDesc::new(
                        KernelClassId(k.class),
                        format!("pk{}", k.class),
                        k.wgs * k.wg_size_waves * 64,
                        k.wg_size_waves * 64,
                        8,
                        0,
                        ComputeProfile {
                            issue_cycles: k.issue,
                            mem_accesses: k.mem,
                            lines_per_access: 2,
                            pattern: AccessPattern::Streaming,
                        },
                    ))
                })
                .collect();
            JobDesc::chain(JobId(i as u32), "prop", kernels, Duration::from_us(s.deadline_us), now)
                .expect("generated chains are valid")
        })
        .collect()
}

fn run(jobs: Vec<JobDesc>, sched: &str) -> SimReport {
    let mode = schedulers::registry::try_build(sched).expect("known scheduler");
    let mut sim = Simulation::builder()
        .jobs(jobs)
        .scheduler(mode)
        .build()
        .expect("valid jobs");
    sim.run()
}

/// Every job is resolved exactly once, completions respect causality,
/// and work attribution matches the job's actual size.
#[test]
fn structural_invariants_hold_under_rr() {
    let mut rng = SimRng::seed_from(0xBEEF_0001);
    for case in 0..24 {
        let specs = gen_specs(&mut rng, 11);
        let jobs = build_jobs(&specs);
        let total_wgs: Vec<u64> = jobs.iter().map(JobDesc::total_wgs).collect();
        let report = run(jobs, "RR");
        let mut executed = 0.0;
        for (i, rec) in report.records.iter().enumerate() {
            match rec.fate {
                JobFate::Completed(t) => {
                    assert!(t >= rec.arrival, "case {case}: completion before arrival");
                    assert!(
                        (rec.wgs_executed - total_wgs[i] as f64).abs() < 1e-9,
                        "case {case}: job {i} executed {} of {} WGs",
                        rec.wgs_executed,
                        total_wgs[i]
                    );
                }
                JobFate::Rejected(_) => {
                    assert!(rec.wgs_executed == 0.0, "case {case}");
                }
                JobFate::Aborted(_) => {
                    panic!("case {case}: RR never aborts jobs");
                }
                JobFate::Unfinished => {
                    panic!("case {case}: RR must finish every job before the horizon");
                }
            }
            executed += rec.wgs_executed;
        }
        assert!(
            (executed - report.total_wgs as f64).abs() < 1e-6,
            "case {case}: attributed {} vs executed {}",
            executed,
            report.total_wgs
        );
        assert!(report.energy_mj > 0.0, "case {case}");
    }
}

/// The same invariants hold under LAX, plus: rejected jobs do no work.
#[test]
fn structural_invariants_hold_under_lax() {
    let mut rng = SimRng::seed_from(0xBEEF_0002);
    for case in 0..24 {
        let specs = gen_specs(&mut rng, 11);
        let report = run(build_jobs(&specs), "LAX");
        for rec in &report.records {
            match rec.fate {
                JobFate::Completed(t) => assert!(t >= rec.arrival, "case {case}"),
                JobFate::Rejected(_) => assert!(rec.wgs_executed == 0.0, "case {case}"),
                JobFate::Aborted(t) => assert!(t >= rec.arrival, "case {case}"),
                JobFate::Unfinished => panic!("case {case}: job left unfinished"),
            }
        }
    }
}

/// Deadline classification is consistent with the recorded fates.
#[test]
fn deadline_classification_is_consistent() {
    let mut rng = SimRng::seed_from(0xBEEF_0003);
    for case in 0..24 {
        let specs = gen_specs(&mut rng, 9);
        let report = run(build_jobs(&specs), "EDF");
        for rec in &report.records {
            if rec.met_deadline() {
                let t = rec.fate.completed_at().expect("met implies completed");
                assert!(t <= rec.deadline_abs, "case {case}");
            }
        }
        assert!(report.deadlines_met() <= report.completed(), "case {case}");
    }
}

/// Samples a random DAG job: 2–6 stages, forward edges `(u, v)` with
/// `u < v` drawn independently, plus chain fallback edges so no stage is
/// orphaned (every non-root gets at least its predecessor `i-1`).
fn gen_dag_job(rng: &mut SimRng, id: u32, arrival: Cycle) -> JobDesc {
    use gpu_sim::job::JobGraph;
    let n = 2 + rng.below(5) as usize;
    let kernels: Vec<Arc<KernelDesc>> = (0..n)
        .map(|_| {
            let k = gen_kernel(rng);
            Arc::new(KernelDesc::new(
                KernelClassId(k.class),
                format!("pk{}", k.class),
                k.wgs * k.wg_size_waves * 64,
                k.wg_size_waves * 64,
                8,
                0,
                ComputeProfile {
                    issue_cycles: k.issue,
                    mem_accesses: k.mem,
                    lines_per_access: 2,
                    pattern: AccessPattern::Streaming,
                },
            ))
        })
        .collect();
    let mut edges = Vec::new();
    for v in 1..n as u32 {
        let mut has_pred = false;
        for u in 0..v {
            if rng.below(3) == 0 {
                edges.push((u, v));
                has_pred = true;
            }
        }
        if !has_pred {
            edges.push((v - 1, v));
        }
    }
    let graph = JobGraph::new(kernels, edges).expect("forward edges are acyclic");
    JobDesc::from_graph(JobId(id), "dagprop", graph, Duration::from_us(20 + rng.below(1_980)), arrival)
        .expect("generated DAGs are valid")
}

/// For arbitrary DAG jobs, the executed stage order respects every
/// precedence edge: a stage never starts before all its predecessors
/// completed.
#[test]
fn dag_execution_respects_every_edge() {
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// Records per-(job, stage) start and completion times off the probe bus.
    #[derive(Default)]
    struct StageTimes {
        started: HashMap<(u32, usize), Cycle>,
        completed: HashMap<(u32, usize), Cycle>,
    }
    impl Observer<ProbeEvent> for StageTimes {
        fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::KernelStarted { job, kernel, .. } => {
                    self.started.entry((job.0, *kernel)).or_insert(at);
                }
                ProbeEvent::KernelCompleted { job, kernel, .. } => {
                    self.completed.entry((job.0, *kernel)).or_insert(at);
                }
                _ => {}
            }
        }
    }

    let mut rng = SimRng::seed_from(0xBEEF_0005);
    for case in 0..16 {
        let mut now = Cycle::ZERO;
        let jobs: Vec<JobDesc> = (0..1 + rng.below(7) as u32)
            .map(|i| {
                now += Duration::from_us(rng.below(60));
                gen_dag_job(&mut rng, i, now)
            })
            .collect();
        let graphs: Vec<_> = jobs.iter().map(|j| j.graph().clone()).collect();
        let times = Arc::new(Mutex::new(StageTimes::default()));
        for sched in ["RR", "EDF"] {
            let mode = schedulers::registry::try_build(sched).expect("known scheduler");
            let mut sim = Simulation::builder()
                .jobs(jobs.clone())
                .scheduler(mode)
                .observe(Box::new(Arc::clone(&times)))
                .build()
                .expect("valid jobs");
            let report = sim.run();
            let t = times.lock().unwrap();
            for (ji, rec) in report.records.iter().enumerate() {
                if !matches!(rec.fate, JobFate::Completed(_)) {
                    continue;
                }
                for &(u, v) in graphs[ji].edges() {
                    let ju = ji as u32;
                    let done_u = t.completed[&(ju, u as usize)];
                    let start_v = t.started[&(ju, v as usize)];
                    assert!(
                        done_u <= start_v,
                        "case {case} {sched}: job {ji} stage {v} started at {start_v:?} \
                         before predecessor {u} completed at {done_u:?}"
                    );
                }
            }
            drop(t);
            let mut t = times.lock().unwrap();
            t.started.clear();
            t.completed.clear();
        }
    }
}

/// The remaining-work estimator: on linear chains the critical-path DP is
/// bit-identical to the Eq. 1 suffix sum; on DAGs it is bounded below by
/// the heaviest single incomplete stage and above by the serial sum.
#[test]
fn critical_path_estimate_brackets_hold() {
    use lax::estimate::{remaining_critical_path_us, remaining_time_us, RateProvider};

    /// Deterministic per-class rates; class 3 deliberately unmeasured to
    /// exercise the Section 4.3 optimism (cost 0).
    struct FixedRates;
    impl RateProvider for FixedRates {
        fn rate(&mut self, class: KernelClassId) -> Option<f64> {
            if class.0 == 3 {
                None
            } else {
                Some(0.6 + f64::from(class.0) * 0.37)
            }
        }
    }

    let mut rng = SimRng::seed_from(0xBEEF_0006);
    for case in 0..24 {
        // Linear chains: DP == suffix sum, bit for bit, at every progress
        // prefix.
        let chain = &build_jobs(&gen_specs(&mut rng, 3))[0];
        let mut active = gpu_sim::queue::ActiveJob::new(Arc::new(chain.clone()), Cycle::ZERO);
        for stage in 0..active.stages.len() {
            let fast = remaining_time_us(&active, &mut FixedRates);
            let dp = remaining_critical_path_us(&active, &mut FixedRates);
            assert_eq!(
                fast.to_bits(),
                dp.to_bits(),
                "case {case}: chain fast path {fast} != DP {dp} at stage {stage}"
            );
            active.complete_stage(stage);
        }
        // DAGs: longest-stage <= critical path <= serial sum.
        let dag = gen_dag_job(&mut rng, 0, Cycle::ZERO);
        let active = gpu_sim::queue::ActiveJob::new(Arc::new(dag), Cycle::ZERO);
        let per_stage: Vec<f64> = active
            .remaining_wgs()
            .map(|(class, wgs)| match FixedRates.rate(class) {
                Some(r) => wgs as f64 / r,
                None => 0.0,
            })
            .collect();
        let cp = remaining_critical_path_us(&active, &mut FixedRates);
        let max = per_stage.iter().cloned().fold(0.0f64, f64::max);
        let sum: f64 = per_stage.iter().sum();
        assert!(cp >= max, "case {case}: critical path {cp} < heaviest stage {max}");
        assert!(cp <= sum + 1e-9, "case {case}: critical path {cp} > serial sum {sum}");
    }
}

/// Scenario files survive a Display → parse round trip for arbitrary
/// contents, and truncating the document always yields a typed error,
/// never a panic.
#[test]
fn scenario_files_round_trip_and_fail_typed() {
    use workloads::scenario::{DagSpec, FleetSpec, ScenarioFile, StageSpec, WorkloadSpec};
    use workloads::spec::{ArrivalRate, Benchmark};

    let mut rng = SimRng::seed_from(0xBEEF_0007);
    for case in 0..24 {
        let named = rng.below(2) == 0;
        let workload = if named {
            let all = Benchmark::ALL;
            WorkloadSpec::Named(all[rng.below(all.len() as u64) as usize])
        } else {
            let n = 1 + rng.below(5) as usize;
            let stages = (0..n)
                .map(|i| StageSpec {
                    kernel: format!("k{}\"\\{}", i, rng.below(10)),
                    deadline_us: if rng.below(2) == 0 { Some(1.0 + rng.below(500) as f64) } else { None },
                })
                .collect();
            let mut edges = Vec::new();
            for v in 1..n as u32 {
                if rng.below(2) == 0 {
                    edges.push((v - 1, v));
                }
            }
            WorkloadSpec::Inline(DagSpec {
                deadline_us: 1.0 + rng.below(10_000) as f64,
                rate_jobs_per_sec: [4000.0, 2000.0, 0.5 + rng.below(999) as f64],
                stages,
                edges,
            })
        };
        let file = ScenarioFile {
            name: format!("case-{case} \"quoted\"\n"),
            seed: rng.below(u64::from(u32::MAX)),
            n_jobs: 1 + rng.below(100_000) as usize,
            schedulers: (0..1 + rng.below(4)).map(|i| format!("S{i}")).collect(),
            rates: vec![ArrivalRate::ALL[rng.below(3) as usize]],
            workload,
            fault_milli: rng.below(3) as u32 * 500,
            fleet: if rng.below(3) == 0 {
                Some(FleetSpec { devices: 1 + rng.below(16) as usize, policy: "LL".into() })
            } else {
                None
            },
        };
        let text = file.to_string();
        let parsed: ScenarioFile = text.parse().unwrap_or_else(|e| {
            panic!("case {case}: round trip failed: {e}\n{text}")
        });
        assert_eq!(parsed, file, "case {case}");
        // Every strict prefix of the document (sans trailing whitespace,
        // which is legitimately optional) is malformed input: typed
        // error, no panic.
        let body = text.trim_end();
        for cut in (0..body.len()).step_by(7) {
            assert!(
                ScenarioFile::parse(&body[..cut]).is_err(),
                "case {case}: truncation at {cut} must not parse"
            );
        }
    }
}

/// Two identical simulations agree event-for-event (determinism).
#[test]
fn simulation_is_deterministic() {
    let mut rng = SimRng::seed_from(0xBEEF_0004);
    for case in 0..24 {
        let specs = gen_specs(&mut rng, 7);
        let a = run(build_jobs(&specs), "SRF");
        let b = run(build_jobs(&specs), "SRF");
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.fate.completed_at(), y.fate.completed_at(), "case {case}");
        }
        assert_eq!(a.total_wgs, b.total_wgs, "case {case}");
        assert_eq!(a.energy_mj, b.energy_mj, "case {case}");
    }
}
