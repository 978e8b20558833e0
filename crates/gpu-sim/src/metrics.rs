//! Per-job outcomes and whole-run reports: everything Figures 6-9 and
//! Table 5 are computed from.

use std::sync::Arc;

use sim_core::stats::Samples;
use sim_core::time::{Cycle, Duration};

use crate::job::{JobFate, JobId};

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Benchmark label.
    pub bench: Arc<str>,
    /// Arrival time at the host.
    pub arrival: Cycle,
    /// Absolute deadline.
    pub deadline_abs: Cycle,
    /// Terminal fate.
    pub fate: JobFate,
    /// Workgroups executed on behalf of this job (fractional when work was
    /// batched with other jobs).
    pub wgs_executed: f64,
}

impl JobRecord {
    /// `true` if the job finished by its deadline.
    pub fn met_deadline(&self) -> bool {
        matches!(self.fate, JobFate::Completed(t) if t <= self.deadline_abs)
    }

    /// Completion latency (arrival to completion), if the job finished.
    pub fn latency(&self) -> Option<Duration> {
        self.fate.completed_at().map(|t| t.saturating_since(self.arrival))
    }
}

/// Aggregated result of one simulation run. Compares bit-exactly
/// (`PartialEq`), which the sweep engine's determinism tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scheduler name.
    pub scheduler: String,
    /// All job outcomes, in job-id order.
    pub records: Vec<JobRecord>,
    /// Time of the last job resolution (completion/rejection), or the
    /// horizon if jobs were left unfinished.
    pub makespan: Duration,
    /// Total energy consumed, mJ.
    pub energy_mj: f64,
    /// Total WGs executed on the device (including synthetic/batched work).
    pub total_wgs: u64,
    /// Aggregate L1 hit rate.
    pub l1_hit_rate: f64,
    /// Aggregate L2 hit rate.
    pub l2_hit_rate: f64,
    /// Discrete events the simulator handled to produce this report — a
    /// deterministic measure of simulation work (events/sec profiling).
    pub events: u64,
}

impl SimReport {
    /// Number of jobs that completed by their deadline.
    pub fn deadlines_met(&self) -> usize {
        self.records.iter().filter(|r| r.met_deadline()).count()
    }

    /// Number of jobs rejected by admission control.
    pub fn rejected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.fate, JobFate::Rejected(_)))
            .count()
    }

    /// Number of jobs that completed (deadline met or not).
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.fate.completed_at().is_some())
            .count()
    }

    /// Successful-job throughput in jobs/second (Table 5a).
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.deadlines_met() as f64 / secs
        }
    }

    /// 99th-percentile completion latency in milliseconds over jobs that ran
    /// to completion (Table 5b). `0.0` if nothing completed.
    pub fn p99_latency_ms(&self) -> f64 {
        let mut s = Samples::new();
        for r in &self.records {
            if let Some(l) = r.latency() {
                s.push(l.as_ms_f64());
            }
        }
        s.percentile(0.99)
    }

    /// Energy per deadline-meeting job in mJ (Table 5c); `f64::INFINITY`
    /// when no job succeeded.
    pub fn energy_per_success_mj(&self) -> f64 {
        let n = self.deadlines_met();
        if n == 0 {
            f64::INFINITY
        } else {
            self.energy_mj / n as f64
        }
    }

    /// Fraction of executed WGs that belonged to jobs which met their
    /// deadline (Figure 9's "scheduling effectiveness"); `1.0` when no WGs
    /// ran.
    pub fn useful_wg_fraction(&self) -> f64 {
        let mut useful = 0.0;
        let mut total = 0.0;
        for r in &self.records {
            total += r.wgs_executed;
            if r.met_deadline() {
                useful += r.wgs_executed;
            }
        }
        if total == 0.0 {
            1.0
        } else {
            useful / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, arrival_us: u64, deadline_us: u64, fate: JobFate, wgs: f64) -> JobRecord {
        let arrival = Cycle::ZERO + Duration::from_us(arrival_us);
        JobRecord {
            id: JobId(id),
            bench: Arc::from("B"),
            arrival,
            deadline_abs: arrival + Duration::from_us(deadline_us),
            fate,
            wgs_executed: wgs,
        }
    }

    fn report(records: Vec<JobRecord>) -> SimReport {
        SimReport {
            scheduler: "T".into(),
            records,
            makespan: Duration::from_ms(1),
            energy_mj: 10.0,
            total_wgs: 0,
            l1_hit_rate: 0.0,
            l2_hit_rate: 0.0,
            events: 0,
        }
    }

    #[test]
    fn deadline_classification() {
        let on_time = record(0, 0, 100, JobFate::Completed(Cycle::ZERO + Duration::from_us(99)), 1.0);
        let late = record(1, 0, 100, JobFate::Completed(Cycle::ZERO + Duration::from_us(101)), 1.0);
        let rejected = record(2, 0, 100, JobFate::Rejected(Cycle::ZERO), 0.0);
        assert!(on_time.met_deadline());
        assert!(!late.met_deadline());
        assert!(!rejected.met_deadline());
        let r = report(vec![on_time, late, rejected]);
        assert_eq!(r.deadlines_met(), 1);
        assert_eq!(r.completed(), 2);
        assert_eq!(r.rejected(), 1);
    }

    #[test]
    fn exact_deadline_counts_as_met() {
        let exact = record(0, 10, 100, JobFate::Completed(Cycle::ZERO + Duration::from_us(110)), 1.0);
        assert!(exact.met_deadline());
    }

    #[test]
    fn throughput_and_energy() {
        let ok = record(0, 0, 100, JobFate::Completed(Cycle::ZERO + Duration::from_us(50)), 2.0);
        let r = report(vec![ok]);
        assert_eq!(r.throughput_per_sec(), 1000.0); // 1 job in 1 ms
        assert_eq!(r.energy_per_success_mj(), 10.0);
    }

    #[test]
    fn energy_per_success_is_infinite_with_no_successes() {
        let r = report(vec![record(0, 0, 10, JobFate::Unfinished, 1.0)]);
        assert!(r.energy_per_success_mj().is_infinite());
    }

    #[test]
    fn useful_wg_fraction_weights_by_work() {
        let ok = record(0, 0, 100, JobFate::Completed(Cycle::ZERO + Duration::from_us(10)), 3.0);
        let late = record(1, 0, 100, JobFate::Completed(Cycle::ZERO + Duration::from_us(500)), 1.0);
        let r = report(vec![ok, late]);
        assert!((r.useful_wg_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_percentile() {
        let mut recs = Vec::new();
        for i in 0..100 {
            recs.push(record(
                i,
                0,
                10_000,
                JobFate::Completed(Cycle::ZERO + Duration::from_us((i as u64 + 1) * 10)),
                1.0,
            ));
        }
        let r = report(recs);
        assert!((r.p99_latency_ms() - 0.99).abs() < 1e-9);
    }
}
