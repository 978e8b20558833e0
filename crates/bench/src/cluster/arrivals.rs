//! A fleet cell's arrivals: the one [`workloads::stream`] of its
//! benchmark, drawn one job at a time as the engine routes it, each job
//! handed its calibrated service estimate and kept symbolic.

use gpu_sim::prelude::*;
use workloads::rnn::{Hidden, RnnCell, SEQ_RANGE};
use workloads::stream::{Arrival, Arrivals, JobSpec, Workload};
use workloads::suite::BenchmarkSuite;

use super::ClusterScenario;

/// Longest arrival stream a cell may carry: job ids are `u32`, so one more
/// job would hand observers a duplicate id.
pub(super) const MAX_JOBS: u64 = 1 << 32;

/// The cell's arrival stream: `devices ×` the benchmark's Table 4 rate,
/// seeded by [`ClusterScenario::cell_seed`] only — the routing policy
/// never perturbs the stream.
pub(super) fn arrivals(scenario: &ClusterScenario) -> Arrivals {
    let rate = scenario.bench.rate_jobs_per_sec(scenario.rate) * scenario.devices as f64;
    Arrivals::new(Workload::Bench(scenario.bench), scenario.cell_seed(), rate, scenario.n_jobs)
}

/// The last arrival instant of the cell's stream ([`Cycle::ZERO`] for an
/// empty one), found by a draw-only replay: it makes the stream's draws
/// and keeps nothing else, so it holds no job and looks up no service
/// time.
pub(super) fn last_arrival(scenario: &ClusterScenario) -> Cycle {
    arrivals(scenario).last().map_or(Cycle::ZERO, |job| job.at)
}

/// Slots per RNN variant in a [`job_stream`]'s service table: one per
/// sequence length the stream can draw.
const RNN_SLOTS: usize = SEQ_RANGE.1 as usize + 1;

/// A spec's slot in a [`job_stream`]'s service table. A stream draws from
/// one benchmark, so its specs are all of one kind, and slots need only be
/// distinct within a kind: the single kernel, the RNN (variant, sequence
/// length) or the DAG width. The RNN variants are numbered by an exhaustive
/// match, so a new cell type or hidden size fails to compile here rather
/// than share a slot.
fn service_slot(spec: JobSpec) -> usize {
    match spec {
        JobSpec::Single | JobSpec::Graph => 0,
        JobSpec::Rnn { cell, hidden, seq_len } => {
            let variant = match (cell, hidden) {
                (RnnCell::Lstm, Hidden::H128) => 0,
                (RnnCell::Lstm, Hidden::H256) => 1,
                (RnnCell::Gru, Hidden::H128) => 2,
                (RnnCell::Gru, Hidden::H256) => 3,
                (RnnCell::Vanilla, Hidden::H128) => 4,
                (RnnCell::Vanilla, Hidden::H256) => 5,
            };
            variant * RNN_SLOTS + seq_len as usize
        }
        JobSpec::Dag { width } => width as usize,
    }
}

/// The cell's [`arrivals`] as the engine consumes them: each job drawn
/// when the engine asks for it, with its calibrated isolated service time
/// (what the router predicts with and the fast tier serves at), so a cell
/// holds one job of its stream at a time.
pub(super) fn job_stream<'a>(
    scenario: &ClusterScenario,
    suite: &'a BenchmarkSuite,
) -> impl Iterator<Item = (Arrival, Duration)> + 'a {
    let workload = Workload::Bench(scenario.bench);
    // Service time by [`service_slot`], filled on a spec's first use; at
    // most a few hundred slots.
    let mut table: Vec<Option<Duration>> = Vec::new();
    arrivals(scenario).map(move |job| {
        let slot = service_slot(job.spec);
        if slot >= table.len() {
            table.resize(slot + 1, None);
        }
        (job, *table[slot].get_or_insert_with(|| workload.service(suite, job.spec)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec::{ArrivalRate, Benchmark};

    /// The stream is the cell's [`arrivals`], its last arrival is the one
    /// the draw-only replay finds, and the service table hands every job
    /// the service time its spec computes afresh; lengths run from empty
    /// to past 4096, so every sequence length of both HYBRID variants
    /// meets the table.
    #[test]
    fn stream_annotates_the_cell_arrivals_with_fresh_service_times() {
        let suite = BenchmarkSuite::calibrated();
        for bench in [Benchmark::Ipv6, Benchmark::Hybrid, Benchmark::FanOut, Benchmark::Ipa] {
            for n in [0, 1, 2, 4097] {
                let s = ClusterScenario::new("RR", bench, ArrivalRate::High, 4, n, 7);
                let jobs: Vec<(Arrival, Duration)> = job_stream(&s, suite).collect();
                let drawn: Vec<Arrival> = arrivals(&s).collect();
                assert_eq!(jobs.iter().map(|j| j.0).collect::<Vec<_>>(), drawn, "{s}");
                for &(job, service) in &jobs {
                    let fresh = Workload::Bench(bench).service(suite, job.spec);
                    assert_eq!(service, fresh, "{s}: job {} {:?}", job.id, job.spec);
                }
                let last = drawn.last().map_or(Cycle::ZERO, |j| j.at);
                assert_eq!(last_arrival(&s), last, "{s}: the replay must end at the last arrival");
            }
        }
    }
}
