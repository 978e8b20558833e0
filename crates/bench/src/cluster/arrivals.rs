//! The arrival stream: a cell's jobs drawn one at a time, each with its
//! calibrated service estimate, and the symbolic job specs the detailed
//! tier materializes into kernel chains and graphs.

use gpu_sim::prelude::*;
use sim_core::rng::SimRng;
use workloads::dag::{fanout_graph, ipa_graph, sample_fanout_width, IPA_WIDTH};
use workloads::rnn::{build_chain, sample_seq_len, Hidden, RnnCell, SEQ_RANGE};
use workloads::spec::Benchmark;
use workloads::suite::BenchmarkSuite;

use super::ClusterScenario;

/// What one generated job materializes into, kept symbolic so the fast
/// tier never builds kernel chains and the detailed tier can rebuild the
/// exact chain or graph from the stored parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ChainSpec {
    /// An RNN chain (`build_chain` parameters).
    Rnn { cell: RnnCell, hidden: Hidden, seq_len: u32 },
    /// The benchmark's single calibrated kernel.
    Single,
    /// The benchmark's kernel DAG at a sampled fan-out width
    /// ([`fanout_graph`] / [`ipa_graph`]).
    Dag { width: u32 },
}

/// One job of the cluster arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ClusterJob {
    pub(super) id: u32,
    pub(super) arrival: Cycle,
    /// Calibrated isolated service time of the job's chain — what the
    /// router predicts with and what the fast tier serves at.
    pub(super) service_est: Duration,
    pub(super) spec: ChainSpec,
}

/// The single calibrated kernel of a few-kernel benchmark.
fn single_kernel_name(bench: Benchmark) -> &'static str {
    match bench {
        Benchmark::Ipv6 => "ipv6",
        Benchmark::Cuckoo => "cuckoo",
        Benchmark::Gmm => "gmm",
        Benchmark::Stem => "stem",
        other => panic!("{other} is a many-kernel benchmark"),
    }
}

/// Stable cache key for an RNN chain variant.
fn variant_key(cell: RnnCell, hidden: Hidden) -> u8 {
    let c = match cell {
        RnnCell::Lstm => 0,
        RnnCell::Gru => 1,
        RnnCell::Vanilla => 2,
    };
    let h = match hidden {
        Hidden::H128 => 0,
        Hidden::H256 => 1,
    };
    c * 2 + h
}

/// Isolated service time of one job: the sum of its kernels' calibrated
/// isolated times for chains (chains execute sequentially), and the
/// critical path of those times for DAGs (parallel arms overlap).
fn chain_service(suite: &BenchmarkSuite, spec: ChainSpec, bench: Benchmark) -> Duration {
    let us = match spec {
        ChainSpec::Single => suite.calibration(single_kernel_name(bench)).measured_us,
        ChainSpec::Rnn { cell, hidden, seq_len } => build_chain(cell, hidden, seq_len, suite)
            .iter()
            .map(|k| suite.calibration(&k.name).measured_us)
            .sum(),
        ChainSpec::Dag { width } => graph_critical_us(suite, &dag_graph(suite, bench, width)),
    };
    Duration::from_us_f64(us)
}

/// Builds the benchmark's kernel DAG at the stored width.
fn dag_graph(suite: &BenchmarkSuite, bench: Benchmark, width: u32) -> JobGraph {
    match bench {
        Benchmark::FanOut => fanout_graph(suite, width as usize),
        Benchmark::Ipa => ipa_graph(suite, width as usize),
        other => panic!("{other} is not a DAG benchmark"),
    }
}

/// Critical path of a graph under calibrated isolated kernel times: the
/// longest finish time over a topological walk, which a chain degenerates
/// to its plain sum.
fn graph_critical_us(suite: &BenchmarkSuite, graph: &JobGraph) -> f64 {
    let stages = graph.stages();
    let mut finish = vec![0.0f64; stages.len()];
    let mut best = 0.0f64;
    for &i in graph.topo_order() {
        let i = i as usize;
        let start = graph.preds(i).iter().fold(0.0f64, |acc, &p| acc.max(finish[p as usize]));
        finish[i] = start + suite.calibration(&stages[i].name).measured_us;
        best = best.max(finish[i]);
    }
    best
}

/// Materializes one symbolic job spec as the full [`JobDesc`] the detailed
/// tier simulates: the stored chain parameters, or the benchmark's DAG at
/// the stored width.
pub(super) fn materialize_job(
    suite: &BenchmarkSuite,
    bench: Benchmark,
    spec: ChainSpec,
    id: u32,
    deadline: Duration,
    arrival: Cycle,
) -> JobDesc {
    let label = job_label(bench, spec);
    match spec {
        ChainSpec::Single => JobDesc::chain(
            JobId(id),
            label,
            vec![suite.calibration(single_kernel_name(bench)).desc.clone()],
            deadline,
            arrival,
        ),
        ChainSpec::Rnn { cell, hidden, seq_len } => JobDesc::chain(
            JobId(id),
            label,
            build_chain(cell, hidden, seq_len, suite),
            deadline,
            arrival,
        ),
        ChainSpec::Dag { width } => {
            JobDesc::from_graph(JobId(id), label, dag_graph(suite, bench, width), deadline, arrival)
        }
    }
    .expect("calibrated specs materialize into valid jobs")
}

/// Display label of one job in the detailed tier, matching what
/// [`workloads::suite::BenchmarkSuite::generate_jobs`] would emit.
fn job_label(bench: Benchmark, spec: ChainSpec) -> &'static str {
    match (bench, spec) {
        (Benchmark::Hybrid, ChainSpec::Rnn { cell: RnnCell::Lstm, .. }) => "HYBRID/LSTM128",
        (Benchmark::Hybrid, ChainSpec::Rnn { .. }) => "HYBRID/GRU256",
        (b, _) => b.name(),
    }
}

/// Longest arrival stream a cell may carry: job ids are `u32`, so one more
/// job would hand observers a duplicate id.
pub(super) const MAX_JOBS: u64 = 1 << 32;

/// The random draws of the cluster arrival stream: `devices ×` the
/// benchmark's Table 4 rate, seeded by [`ClusterScenario::cell_seed`] only —
/// the routing policy never perturbs the stream. [`JobStream`] and
/// [`last_arrival`] both advance it through [`Arrivals::draw`], the one
/// place a job's draws are made, so the replay cannot drift from the
/// stream.
struct Arrivals {
    bench: Benchmark,
    rng: SimRng,
    /// Fleet-wide arrival rate, jobs per second.
    rate: f64,
    /// Arrival instant of the last job drawn.
    now: Cycle,
    /// Index (and id) of the next job to draw.
    next: usize,
}

impl Arrivals {
    fn new(scenario: &ClusterScenario) -> Self {
        Arrivals {
            bench: scenario.bench,
            rng: SimRng::seed_from(scenario.cell_seed()),
            rate: scenario.bench.rate_jobs_per_sec(scenario.rate) * scenario.devices as f64,
            now: Cycle::ZERO,
            next: 0,
        }
    }

    /// Draws the next job: its inter-arrival gap first (advancing `now`),
    /// then its spec. Returns the spec; the job's index is `next - 1`.
    fn draw(&mut self) -> ChainSpec {
        self.now += self.rng.exp_interarrival(self.rate);
        let rng = &mut self.rng;
        let spec = match self.bench {
            Benchmark::Lstm => rnn_spec(RnnCell::Lstm, Hidden::H128, rng),
            Benchmark::Gru => rnn_spec(RnnCell::Gru, Hidden::H128, rng),
            Benchmark::Van => rnn_spec(RnnCell::Vanilla, Hidden::H256, rng),
            Benchmark::Hybrid => {
                if self.next.is_multiple_of(2) {
                    rnn_spec(RnnCell::Lstm, Hidden::H128, rng)
                } else {
                    rnn_spec(RnnCell::Gru, Hidden::H256, rng)
                }
            }
            Benchmark::FanOut => ChainSpec::Dag { width: sample_fanout_width(rng) as u32 },
            Benchmark::Ipa => ChainSpec::Dag { width: IPA_WIDTH as u32 },
            _ => ChainSpec::Single,
        };
        self.next += 1;
        spec
    }
}

fn rnn_spec(cell: RnnCell, hidden: Hidden, rng: &mut SimRng) -> ChainSpec {
    ChainSpec::Rnn { cell, hidden, seq_len: sample_seq_len(rng) }
}

/// The last arrival instant of the cell's stream ([`Cycle::ZERO`] for an
/// empty one), found by a draw-only replay: it makes the stream's draws
/// and keeps nothing else, so it holds no job and looks up no service
/// time.
pub(super) fn last_arrival(scenario: &ClusterScenario) -> Cycle {
    let mut arrivals = Arrivals::new(scenario);
    for _ in 0..scenario.n_jobs {
        arrivals.draw();
    }
    arrivals.now
}

/// Slots per RNN variant in a [`JobStream`]'s service table: one per
/// sequence length [`sample_seq_len`] can draw.
const RNN_SLOTS: usize = SEQ_RANGE.1 as usize + 1;

/// A spec's slot in a [`JobStream`]'s service table. A stream draws from
/// one benchmark, so its specs are all of one kind, and slots need only be
/// distinct within a kind: the single kernel, the RNN (variant, sequence
/// length) or the DAG width.
fn service_slot(spec: ChainSpec) -> usize {
    match spec {
        ChainSpec::Single => 0,
        ChainSpec::Rnn { cell, hidden, seq_len } => {
            usize::from(variant_key(cell, hidden)) * RNN_SLOTS + seq_len as usize
        }
        ChainSpec::Dag { width } => width as usize,
    }
}

/// The cluster arrival stream as a generator: `n_jobs` [`Arrivals`], each
/// drawn when the engine asks for it and handed its calibrated service
/// estimate, so a cell holds one job of its stream at a time.
pub(super) struct JobStream<'a> {
    suite: &'a BenchmarkSuite,
    arrivals: Arrivals,
    n_jobs: usize,
    /// Service time by [`service_slot`], filled on a spec's first use; at
    /// most a few hundred slots.
    service: Vec<Option<Duration>>,
}

impl<'a> JobStream<'a> {
    pub(super) fn new(scenario: &ClusterScenario, suite: &'a BenchmarkSuite) -> Self {
        JobStream {
            suite,
            arrivals: Arrivals::new(scenario),
            n_jobs: scenario.n_jobs,
            service: Vec::new(),
        }
    }
}

impl Iterator for JobStream<'_> {
    type Item = ClusterJob;

    fn next(&mut self) -> Option<ClusterJob> {
        if self.arrivals.next == self.n_jobs {
            return None;
        }
        let id = u32::try_from(self.arrivals.next)
            .expect("ClusterBuilder::run bounds n_jobs by MAX_JOBS");
        let spec = self.arrivals.draw();
        let slot = service_slot(spec);
        if slot >= self.service.len() {
            self.service.resize(slot + 1, None);
        }
        let (suite, bench) = (self.suite, self.arrivals.bench);
        let service_est =
            *self.service[slot].get_or_insert_with(|| chain_service(suite, spec, bench));
        Some(ClusterJob { id, arrival: self.arrivals.now, service_est, spec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec::ArrivalRate;

    /// The stream yields ids `0..n` in order, its arrivals never decrease,
    /// its last arrival is the one the draw-only replay finds, and the
    /// service table hands every job the service time its spec computes
    /// afresh. HYBRID alternates LSTM and GRU by job index, so a stream
    /// that lost its place in the index would show there; lengths run
    /// from empty to past 4096.
    #[test]
    fn stream_yields_every_job_in_arrival_order() {
        let suite = BenchmarkSuite::calibrated();
        for bench in [Benchmark::Ipv6, Benchmark::Hybrid, Benchmark::FanOut, Benchmark::Ipa] {
            for n in [0, 1, 2, 4097] {
                let s = ClusterScenario::new("RR", bench, ArrivalRate::High, 4, n, 7);
                let jobs: Vec<ClusterJob> = JobStream::new(&s, suite).collect();
                let ids: Vec<usize> = jobs.iter().map(|j| j.id as usize).collect();
                assert_eq!(ids, (0..n).collect::<Vec<_>>(), "{s}: ids must run 0..n");
                assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival), "{s}");
                let last = jobs.last().map_or(Cycle::ZERO, |j| j.arrival);
                assert_eq!(last_arrival(&s), last, "{s}: the replay must end at the last arrival");
                for job in &jobs {
                    let fresh = chain_service(suite, job.spec, bench);
                    assert_eq!(job.service_est, fresh, "{s}: job {} {:?}", job.id, job.spec);
                    if bench == Benchmark::Hybrid {
                        let lstm = matches!(job.spec, ChainSpec::Rnn { cell: RnnCell::Lstm, .. });
                        assert_eq!(lstm, job.id % 2 == 0, "{s}: job {} {:?}", job.id, job.spec);
                    }
                }
            }
        }
    }
}
