//! Regenerates the paper's Table 1 (kernel characterization) and the data
//! behind Figure 1 (kernels/job vs deadline taxonomy) from the calibrated
//! suite.

use sim_core::table::Table;

use crate::rnn::{build_chain, Hidden, RnnCell};
use crate::spec::{ArrivalRate, Benchmark};
use crate::suite::BenchmarkSuite;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Kernel name.
    pub kernel: String,
    /// Calls in the reference job (LSTM seq-13 for RNN kernels, 1 for the
    /// single-kernel benchmarks).
    pub calls: usize,
    /// Measured isolated execution time, us.
    pub exec_us: f64,
    /// Paper's published execution time, us.
    pub paper_us: f64,
    /// Grid threads.
    pub threads: u32,
    /// Context size, KB.
    pub context_kb: f64,
}

/// Computes the Table 1 rows from the calibrated suite.
pub fn table1_rows(suite: &BenchmarkSuite) -> Vec<Table1Row> {
    let lstm13 = build_chain(RnnCell::Lstm, Hidden::H128, 13, suite);
    let count = |name: &str| lstm13.iter().filter(|k| &*k.name == name).count();
    let mut rows = Vec::new();
    for name in [
        "tensor1_h128",
        "tensor2_h128",
        "tensor3_h128",
        "tensor4_h128",
        "act_h128",
        "gemm_h128",
        "ipv6",
        "cuckoo",
        "gmm",
        "stem",
    ] {
        let cal = suite.calibration(name);
        let calls = if name.ends_with("_h128") { count(name) } else { 1 };
        rows.push(Table1Row {
            kernel: name.to_string(),
            calls,
            exec_us: cal.measured_us,
            paper_us: cal.target_us,
            threads: cal.desc.grid_threads,
            context_kb: cal.desc.context_bytes() as f64 / 1024.0,
        });
    }
    rows
}

/// Renders Table 1 as text.
pub fn render_table1(suite: &BenchmarkSuite) -> String {
    let mut t = Table::with_columns(&[
        "kernel",
        "# calls",
        "exec (us)",
        "paper (us)",
        "threads",
        "context (KB)",
    ]);
    for r in table1_rows(suite) {
        t.row(vec![
            r.kernel,
            r.calls.to_string(),
            format!("{:.2}", r.exec_us),
            format!("{:.2}", r.paper_us),
            r.threads.to_string(),
            format!("{:.1}", r.context_kb),
        ]);
    }
    t.render()
}

/// One point of Figure 1: a benchmark's kernel count per job vs deadline.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// Benchmark.
    pub bench: Benchmark,
    /// Mean kernels per job.
    pub kernels_per_job: f64,
    /// Deadline in microseconds.
    pub deadline_us: f64,
    /// High-rate arrival rate, jobs/s.
    pub high_rate: f64,
}

/// Computes Figure 1's scatter data (sampling RNN sequence lengths).
pub fn fig1_points(suite: &BenchmarkSuite) -> Vec<Fig1Point> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            let jobs = suite.generate_jobs(b, ArrivalRate::High, 32, 42);
            let mean = jobs.iter().map(|j| j.num_kernels() as f64).sum::<f64>() / jobs.len() as f64;
            Fig1Point {
                bench: b,
                kernels_per_job: mean,
                deadline_us: b.deadline().as_us_f64(),
                high_rate: b.rate_jobs_per_sec(ArrivalRate::High),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_ten_rows_with_correct_calls() {
        let suite = BenchmarkSuite::calibrated();
        let rows = table1_rows(suite);
        assert_eq!(rows.len(), 10);
        let by_name = |n: &str| rows.iter().find(|r| r.kernel == n).unwrap().clone();
        assert_eq!(by_name("tensor4_h128").calls, 40);
        assert_eq!(by_name("act_h128").calls, 39);
        assert_eq!(by_name("gemm_h128").calls, 13);
        assert_eq!(by_name("ipv6").calls, 1);
    }

    #[test]
    fn fig1_separates_many_and_few_kernel() {
        let suite = BenchmarkSuite::calibrated();
        let pts = fig1_points(suite);
        for p in &pts {
            if p.bench.is_many_kernel() {
                assert!(p.kernels_per_job > 20.0, "{}: {}", p.bench, p.kernels_per_job);
            } else {
                assert_eq!(p.kernels_per_job, 1.0);
            }
        }
    }

    #[test]
    fn render_includes_header_and_rows() {
        let suite = BenchmarkSuite::calibrated();
        let s = render_table1(suite);
        assert!(s.contains("gemm_h128"));
        assert!(s.lines().count() == 12);
    }
}
