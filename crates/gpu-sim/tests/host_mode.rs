//! Integration tests of the host-side scheduling channel: launch
//! overheads, chain enqueue, priority-register writes, batched launches and
//! rejection.

use gpu_sim::host::{HostCmd, HostEvent, HostScheduler, HostView};
use gpu_sim::prelude::*;

mod common;
use common::{job, kernel, ChainHost, FifoHost, RejectAll};

fn run_host(jobs: Vec<JobDesc>, host: Box<dyn HostScheduler>) -> SimReport {
    let mut sim = Simulation::new(SimParams::default(), jobs, SchedulerMode::Host(host)).unwrap();
    sim.run()
}

#[test]
fn each_kernel_launch_pays_host_overhead() {
    // Two kernels of ~2/3us each; host overhead is 4us per launch, so the
    // job cannot finish before 2 * 4us + exec.
    let jobs = vec![job(0, vec![kernel(0, 1_000, 64), kernel(0, 1_000, 64)], 10_000, 0)];
    let r = run_host(jobs, Box::new(FifoHost));
    let lat = r.records[0].latency().expect("completed");
    assert!(lat >= Duration::from_us(8), "latency {lat} must include 2x4us launches");
    assert!(r.records[0].met_deadline());
}

#[test]
fn cp_mode_avoids_host_overheads() {
    let jobs = || vec![job(0, vec![kernel(0, 1_000, 64), kernel(0, 1_000, 64)], 10_000, 0)];
    let host = run_host(jobs(), Box::new(FifoHost));
    let mut sim = Simulation::new(
        SimParams::default(),
        jobs(),
        SchedulerMode::Cp(Box::new(RoundRobin::new())),
    )
    .unwrap();
    let cp = sim.run();
    let host_lat = host.records[0].latency().unwrap();
    let cp_lat = cp.records[0].latency().unwrap();
    assert!(
        host_lat >= cp_lat + Duration::from_us(7),
        "host {host_lat} vs CP {cp_lat}: the 4us/kernel gap must show"
    );
}

#[test]
fn rejected_jobs_are_recorded_and_never_run() {
    let jobs = vec![
        job(0, vec![kernel(0, 1_000, 64)], 1_000, 0),
        job(1, vec![kernel(0, 1_000, 64)], 1_000, 5),
    ];
    let r = run_host(jobs, Box::new(RejectAll));
    assert_eq!(r.rejected(), 2);
    assert_eq!(r.total_wgs, 0);
}

#[test]
fn chain_enqueue_runs_whole_job_without_per_kernel_overhead() {
    let jobs = vec![job(0, vec![kernel(0, 1_000, 64); 8], 10_000, 0)];
    let r = run_host(jobs, Box::new(ChainHost));
    let lat = r.records[0].latency().expect("completed");
    // One 4us transfer plus ~8 * 2/3us of execution; well under 8 * 4us.
    assert!(lat < Duration::from_us(16), "chain mode should not pay 8 launches: {lat}");
}

#[test]
fn chain_priorities_order_contending_jobs() {
    // Many equal chains; even ids get priority 0, odd get 1. With only
    // four wave slots for eight one-wave jobs, priority-0 jobs must run in
    // the first batch and finish earlier.
    let cfg = GpuConfig {
        num_cus: 1,
        simds_per_cu: 1,
        waves_per_simd: 4,
        coissue_waves: 4,
        ..GpuConfig::default()
    };
    let k = kernel(0, 30_000, 64);
    // A filler occupies all four slots while the contenders' chains are
    // delivered, so dispatch order is decided purely by priority.
    let filler = kernel(1, 30_000, 256);
    let mut jobs = vec![job(0, vec![filler], 100_000, 0)];
    jobs.extend((1..9).map(|i| job(i, vec![k.clone()], 100_000, 1)));
    let params = SimParams { config: cfg, ..SimParams::default() };
    let mut sim = Simulation::new(params, jobs, SchedulerMode::Host(Box::new(ChainHost))).unwrap();
    let r = sim.run();
    let avg = |parity: u32| {
        let v: Vec<f64> = r
            .records
            .iter()
            .filter(|rec| rec.id.0 != 0 && rec.id.0 % 2 == parity)
            .map(|rec| rec.latency().unwrap().as_us_f64())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(
        avg(0) < avg(1),
        "high-priority (even) jobs should finish earlier: {} vs {}",
        avg(0),
        avg(1)
    );
}

/// Batches every launchable pair of jobs at the same kernel position.
#[derive(Debug, Default)]
struct PairBatcher;

impl HostScheduler for PairBatcher {
    fn name(&self) -> &'static str {
        "PAIR-BATCH"
    }

    fn react(&mut self, _event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        let ready: Vec<JobId> = view
            .jobs
            .iter()
            .filter(|j| j.launchable() && j.next_kernel_desc().is_some())
            .map(|j| j.desc.id)
            .collect();
        for pair in ready.chunks(2) {
            if pair.len() == 2 {
                out.push(HostCmd::LaunchBatch {
                    members: pair.to_vec(),
                    kernel_idx: view.jobs[pair[0].index()].next_kernel,
                    extra: Duration::ZERO,
                    prio: 0,
                });
            }
        }
    }
}

#[test]
fn batched_members_complete_together_with_split_attribution() {
    let k = kernel(0, 2_000, 128);
    let jobs = vec![job(0, vec![k.clone()], 10_000, 0), job(1, vec![k.clone()], 10_000, 0)];
    let r = run_host(jobs, Box::new(PairBatcher));
    assert_eq!(r.completed(), 2);
    let t0 = r.records[0].fate.completed_at().unwrap();
    let t1 = r.records[1].fate.completed_at().unwrap();
    assert_eq!(t0, t1, "lock-step batch members finish together");
    // The merged kernel had 4 WGs (2 x 128 threads / 64); each member gets
    // half the work attribution.
    assert_eq!(r.records[0].wgs_executed, r.records[1].wgs_executed);
    assert_eq!(r.records[0].wgs_executed + r.records[1].wgs_executed, r.total_wgs as f64);
}
