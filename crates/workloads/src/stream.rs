//! One job stream for every kind of cell.
//!
//! Section 5.3 draws each benchmark's jobs from a Poisson process at the
//! Table 4 rate. [`Arrivals`] is the one loop that does it: for each job,
//! an exponential gap first, then the job's shape, both from one seeded
//! [`SimRng`]; the caller supplies the seed and the rate. Device cells
//! ([`BenchmarkSuite::generate_jobs`]) and a scenario file's inline DAG
//! collect the stream ([`Arrivals::into_jobs`]). Fleet cells stream it and
//! stay symbolic: they route on [`Workload::service`] and only the detailed
//! tier calls [`Workload::materialize`].
//!
//! Each job-shape rule is written here once, in [`Workload`]: HYBRID's
//! even/odd alternation of LSTM-128 and GRU-256 jobs and their labels, VAN
//! at hidden size 256, FANOUT's sampled width, IPA's fixed width and the
//! one kernel of each few-kernel benchmark.

use std::fmt;
use std::sync::Arc;

use gpu_sim::job::{JobDesc, JobError, JobGraph, JobId};
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Duration};

use crate::dag::{fanout_graph, ipa_graph, sample_fanout_width, IPA_WIDTH};
use crate::rnn::{build_chain, sample_seq_len, Hidden, KernelSource, RnnCell};
use crate::spec::Benchmark;
use crate::suite::BenchmarkSuite;

/// What one drawn job materializes into, kept symbolic so a fleet's fast
/// tier never builds a kernel chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSpec {
    /// An RNN chain ([`build_chain`]'s parameters).
    Rnn {
        /// The cell type.
        cell: RnnCell,
        /// The hidden-layer width.
        hidden: Hidden,
        /// The sampled sequence length.
        seq_len: u32,
    },
    /// The benchmark's one calibrated kernel.
    Single,
    /// The benchmark's kernel DAG ([`fanout_graph`] or [`ipa_graph`]).
    Dag {
        /// The fan-out width.
        width: u32,
    },
    /// The workload's one fixed graph.
    Graph,
}

/// What a stream draws its jobs from.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A built-in benchmark: each job's shape is drawn after its gap.
    Bench(Benchmark),
    /// A scenario file's inline DAG: every job is this graph under this
    /// label, so the stream draws gaps only.
    Graph(Arc<str>, JobGraph),
}

impl Workload {
    /// Draws the shape of job `ordinal` from `rng`.
    #[inline]
    fn draw(&self, ordinal: usize, rng: &mut SimRng) -> JobSpec {
        let rnn = |cell, hidden, rng: &mut SimRng| JobSpec::Rnn {
            cell,
            hidden,
            seq_len: sample_seq_len(rng),
        };
        let Workload::Bench(bench) = self else {
            return JobSpec::Graph;
        };
        match bench {
            Benchmark::Lstm => rnn(RnnCell::Lstm, Hidden::H128, rng),
            Benchmark::Gru => rnn(RnnCell::Gru, Hidden::H128, rng),
            Benchmark::Van => rnn(RnnCell::Vanilla, Hidden::H256, rng),
            Benchmark::Hybrid if ordinal.is_multiple_of(2) => rnn(RnnCell::Lstm, Hidden::H128, rng),
            Benchmark::Hybrid => rnn(RnnCell::Gru, Hidden::H256, rng),
            Benchmark::FanOut => JobSpec::Dag { width: sample_fanout_width(rng) as u32 },
            Benchmark::Ipa => JobSpec::Dag { width: IPA_WIDTH as u32 },
            Benchmark::Ipv6 | Benchmark::Cuckoo | Benchmark::Gmm | Benchmark::Stem => {
                JobSpec::Single
            }
        }
    }

    /// The label and kernel graph of a job of shape `spec` (a chain is
    /// the degenerate graph [`JobDesc::chain`] builds). Panics when the
    /// workload cannot draw `spec`, as do the two public methods below.
    fn job(&self, suite: &BenchmarkSuite, spec: JobSpec) -> (Arc<str>, JobGraph) {
        let bench = match self {
            Workload::Graph(label, graph) => return (label.clone(), graph.clone()),
            Workload::Bench(bench) => *bench,
        };
        let chain = |kernels| JobGraph::chain(kernels).expect("calibrated chains are non-empty");
        let graph = match (spec, bench) {
            (JobSpec::Rnn { cell, hidden, seq_len }, _) => {
                chain(build_chain(cell, hidden, seq_len, suite))
            }
            (JobSpec::Dag { width }, Benchmark::FanOut) => fanout_graph(suite, width as usize),
            (JobSpec::Dag { width }, Benchmark::Ipa) => ipa_graph(suite, width as usize),
            (JobSpec::Single, Benchmark::Ipv6) => chain(vec![suite.kernel("ipv6")]),
            (JobSpec::Single, Benchmark::Cuckoo) => chain(vec![suite.kernel("cuckoo")]),
            (JobSpec::Single, Benchmark::Gmm) => chain(vec![suite.kernel("gmm")]),
            (JobSpec::Single, Benchmark::Stem) => chain(vec![suite.kernel("stem")]),
            (spec, bench) => panic!("{bench} draws no {spec:?} job"),
        };
        let label = match (bench, spec) {
            (Benchmark::Hybrid, JobSpec::Rnn { cell: RnnCell::Lstm, .. }) => "HYBRID/LSTM128",
            (Benchmark::Hybrid, _) => "HYBRID/GRU256",
            (bench, _) => bench.name(),
        };
        (label.into(), graph)
    }

    /// The isolated service time of a job of shape `spec`, what a fleet
    /// routes on and its fast tier serves at: the critical path of the
    /// stages' calibrated isolated times, so a chain's sum and a DAG's
    /// longest arm.
    pub fn service(&self, suite: &BenchmarkSuite, spec: JobSpec) -> Duration {
        let us = |name: &str| suite.calibration(name).measured_us;
        // An RNN chain is summed as built: its graph would cost a fleet
        // cell more than the cell's service table saves.
        if let JobSpec::Rnn { cell, hidden, seq_len } = spec {
            let chain = build_chain(cell, hidden, seq_len, suite);
            return Duration::from_us_f64(chain.iter().map(|k| us(&k.name)).sum());
        }
        let (_, graph) = self.job(suite, spec);
        let stages = graph.stages();
        let mut finish = vec![0.0f64; stages.len()];
        for &i in graph.topo_order() {
            let i = i as usize;
            let start = graph.preds(i).iter().fold(0.0f64, |acc, &p| acc.max(finish[p as usize]));
            finish[i] = start + us(&stages[i].name);
        }
        Duration::from_us_f64(finish.into_iter().fold(0.0f64, f64::max))
    }

    /// Materializes one job of shape `spec` as the [`JobDesc`] a
    /// simulation runs.
    ///
    /// # Errors
    ///
    /// [`JobError::ZeroDeadline`] for a zero `deadline`.
    pub fn materialize(
        &self,
        suite: &BenchmarkSuite,
        spec: JobSpec,
        id: u32,
        deadline: Duration,
        arrival: Cycle,
    ) -> Result<JobDesc, JobError> {
        let (label, graph) = self.job(suite, spec);
        JobDesc::from_graph(JobId(id), label, graph, deadline, arrival)
    }
}

/// One job of a stream, as drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Dense job id: the job's position in the stream.
    pub id: u32,
    /// Arrival instant.
    pub at: Cycle,
    /// The job's shape.
    pub spec: JobSpec,
}

/// A stream of `n` jobs of one [`Workload`] at `jobs_per_sec`, drawn one
/// at a time. Arrivals never decrease and ids run `0..n`.
#[derive(Debug, Clone)]
pub struct Arrivals {
    workload: Workload,
    rng: SimRng,
    jobs_per_sec: f64,
    /// Arrival instant of the last job drawn.
    now: Cycle,
    /// Index (and id) of the next job to draw.
    next: usize,
    n: usize,
}

/// Longest stream a cell may draw: job ids are `u32`, so one more job
/// would repeat an id.
pub const MAX_JOBS: u64 = 1 << 32;

/// Why a stream could not be collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The stream's job descriptions do not fit in memory.
    TooLong {
        /// Jobs the stream holds.
        jobs: usize,
    },
    /// A job failed to materialize.
    Job(JobError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::TooLong { jobs } => write!(f, "{jobs} jobs do not fit in memory"),
            StreamError::Job(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<JobError> for StreamError {
    fn from(e: JobError) -> Self {
        StreamError::Job(e)
    }
}

impl Arrivals {
    /// The `n`-job stream of `workload` at `jobs_per_sec`, drawn from `seed`.
    pub fn new(workload: Workload, seed: u64, jobs_per_sec: f64, n: usize) -> Self {
        let rng = SimRng::seed_from(seed);
        Arrivals { workload, rng, jobs_per_sec, now: Cycle::ZERO, next: 0, n }
    }

    /// Collects the rest of the stream, every job materialized with the
    /// relative `deadline`.
    ///
    /// # Errors
    ///
    /// [`StreamError::TooLong`] when the jobs cannot be held, found before
    /// any is drawn; [`JobError::ZeroDeadline`] for a zero `deadline`.
    pub fn into_jobs(
        mut self,
        suite: &BenchmarkSuite,
        deadline: Duration,
    ) -> Result<Vec<JobDesc>, StreamError> {
        let mut jobs = Vec::new();
        let left = self.n - self.next;
        jobs.try_reserve_exact(left).map_err(|_| StreamError::TooLong { jobs: left })?;
        while let Some(job) = self.next() {
            jobs.push(self.workload.materialize(suite, job.spec, job.id, deadline, job.at)?);
        }
        Ok(jobs)
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    // Inlined into the fleet engine's routing loop, which draws one job
    // per step from another crate: as a call, the draw cost a fast-tier
    // cell 2-5% more.
    #[inline(always)]
    fn next(&mut self) -> Option<Arrival> {
        if self.next == self.n {
            return None;
        }
        let id = u32::try_from(self.next).expect("job ids are u32: a stream holds at most 2^32");
        self.now += self.rng.exp_interarrival(self.jobs_per_sec);
        let spec = self.workload.draw(self.next, &mut self.rng);
        self.next += 1;
        Some(Arrival { id, at: self.now, spec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ArrivalRate;

    /// The stream yields ids `0..n` in order, its arrivals never decrease,
    /// and HYBRID alternates LSTM and GRU by job index, so a stream that
    /// lost its place in the index would show there; lengths run from
    /// empty to past 4096.
    #[test]
    fn stream_yields_every_job_in_arrival_order() {
        for bench in [Benchmark::Ipv6, Benchmark::Hybrid, Benchmark::FanOut, Benchmark::Ipa] {
            for n in [0, 1, 2, 4097] {
                let rate = bench.rate_jobs_per_sec(ArrivalRate::High) * 4.0;
                let jobs: Vec<Arrival> =
                    Arrivals::new(Workload::Bench(bench), 7, rate, n).collect();
                let ids: Vec<usize> = jobs.iter().map(|j| j.id as usize).collect();
                assert_eq!(ids, (0..n).collect::<Vec<_>>(), "{bench} j{n}: ids must run 0..n");
                assert!(jobs.windows(2).all(|w| w[0].at <= w[1].at), "{bench} j{n}");
                if bench == Benchmark::Hybrid {
                    for job in &jobs {
                        let lstm = matches!(job.spec, JobSpec::Rnn { cell: RnnCell::Lstm, .. });
                        assert_eq!(lstm, job.id % 2 == 0, "job {} {:?}", job.id, job.spec);
                    }
                }
            }
        }
    }

    /// A chain's service estimate is the plain sum of its stages'
    /// calibrated times, and a DAG's is shorter than that sum.
    #[test]
    fn service_is_the_critical_path_of_calibrated_times() {
        let suite = BenchmarkSuite::calibrated();
        for (bench, spec) in [
            (
                Benchmark::Lstm,
                JobSpec::Rnn { cell: RnnCell::Lstm, hidden: Hidden::H128, seq_len: 9 },
            ),
            (Benchmark::FanOut, JobSpec::Dag { width: 3 }),
        ] {
            let workload = Workload::Bench(bench);
            let job = workload.materialize(suite, spec, 0, bench.deadline(), Cycle::ZERO).unwrap();
            let us = job.kernels().iter().map(|k| suite.calibration(&k.name).measured_us);
            let sum = Duration::from_us_f64(us.sum());
            let service = workload.service(suite, spec);
            if bench.is_dag() {
                assert!(service < sum, "{bench}: parallel arms overlap");
            } else {
                assert_eq!(service, sum, "{bench}: a chain's stages run one after another");
            }
        }
    }
}
