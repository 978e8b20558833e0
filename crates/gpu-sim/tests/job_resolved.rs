//! Every real job's fate reaches probe observers exactly once: one
//! `JobResolved` per job, at the instant and with the fate its report
//! record carries, and none for the host's synthetic launches. Covers CP
//! mode, both host launch styles, host and CP rejection, and LAX-DROP
//! aborts.

use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use lax::ext::LaxDrop;
use lax::lax::{Lax, LaxConfig};
use sim_core::probe::Observer;
use workloads::spec::{ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;

mod common;
use common::{job, kernel, ChainHost, FifoHost, RejectAll};

/// Collects every `JobResolved` event in firing order.
#[derive(Default)]
struct Fates(Vec<(Cycle, JobId, JobFate)>);

impl Observer<ProbeEvent> for Fates {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        if let ProbeEvent::JobResolved { job, fate } = event {
            self.0.push((at, *job, *fate));
        }
    }
}

fn fate_instant(fate: JobFate) -> Option<Cycle> {
    match fate {
        JobFate::Completed(t) | JobFate::Rejected(t) | JobFate::Aborted(t) => Some(t),
        JobFate::Unfinished => None,
    }
}

/// Runs `jobs` under `mode` with a fate collector attached, checks the
/// exactly-once contract against the report, and returns the report.
fn run_checked(name: &str, builder: SimBuilder, mode: SchedulerMode) -> SimReport {
    let fates = Arc::new(Mutex::new(Fates::default()));
    let report = builder.scheduler(mode).observe(Box::new(fates.clone())).build().unwrap().run();
    let seen = std::mem::take(&mut fates.lock().unwrap().0);
    // Synthetic host launches carry ids from 1 << 30 up; every resolved id
    // must instead name one of the report's real jobs.
    for (_, id, _) in &seen {
        assert!(id.index() < report.records.len(), "{name}: {id:?} is not a real job");
    }
    for rec in &report.records {
        let of_job: Vec<_> = seen.iter().filter(|(_, id, _)| *id == rec.id).collect();
        assert_eq!(of_job.len(), 1, "{name}: {:?} resolved {} times", rec.id, of_job.len());
        let (at, _, fate) = *of_job[0];
        assert_eq!(fate, rec.fate, "{name}: {:?}", rec.id);
        assert_eq!(Some(at), fate_instant(rec.fate), "{name}: {:?} fired off its instant", rec.id);
    }
    assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "{name}: fates fire in time order");
    report
}

fn small_jobs() -> Vec<JobDesc> {
    (0..6)
        .map(|i| {
            job(i, vec![kernel(0, 1_000, 64), kernel(1, 1_500, 128)], 10_000, u64::from(i) * 2)
        })
        .collect()
}

fn count(report: &SimReport, pred: fn(&JobFate) -> bool) -> usize {
    report.records.iter().filter(|r| pred(&r.fate)).count()
}

#[test]
fn cp_and_host_completions_fire_once_each() {
    for (name, mode) in [
        ("RR", SchedulerMode::Cp(Box::new(RoundRobin::new()))),
        ("FIFO-HOST", SchedulerMode::Host(Box::new(FifoHost))),
        ("CHAIN-HOST", SchedulerMode::Host(Box::new(ChainHost))),
    ] {
        let r = run_checked(name, Simulation::builder().jobs(small_jobs()), mode);
        assert_eq!(r.completed(), 6, "{name}");
    }
}

#[test]
fn host_rejections_fire_once_each() {
    let r = run_checked(
        "REJECT-ALL",
        Simulation::builder().jobs(small_jobs()),
        SchedulerMode::Host(Box::new(RejectAll)),
    );
    assert_eq!(r.rejected(), 6);
}

#[test]
fn cp_admission_rejections_and_lax_drop_aborts_fire_once_each() {
    let suite = BenchmarkSuite::calibrated();
    let cell = |bench, n, seed| {
        Simulation::builder().offline_rates(suite.offline_rates()).jobs(suite.generate_jobs(
            bench,
            ArrivalRate::High,
            n,
            seed,
        ))
    };
    let lax =
        run_checked("LAX", cell(Benchmark::Ipv6, 48, 42), SchedulerMode::Cp(Box::new(Lax::new())));
    assert!(count(&lax, |f| matches!(f, JobFate::Rejected(_))) > 0, "LAX must reject at admission");
    // Admission off, so expired jobs exist and LAX-DROP aborts them.
    let no_admit = LaxConfig { admission: false, ..LaxConfig::default() };
    let drop = run_checked(
        "LAX-DROP",
        cell(Benchmark::Stem, 48, 9),
        SchedulerMode::Cp(Box::new(LaxDrop::with_config(no_admit))),
    );
    assert!(count(&drop, |f| matches!(f, JobFate::Aborted(_))) > 0, "LAX-DROP must abort");
}
