//! Fleet-scale cluster simulation behind one unified run API.
//!
//! The paper evaluates one accelerator; a serving fleet fronts N of them
//! with a router that decides, per arriving job, *which* device runs it —
//! or whether any device can still make the deadline at all. This module
//! generalizes the paper's command-processor admission test to that front
//! door:
//!
//! * [`ClusterScenario`] — the cluster experiment cell (routing policy ×
//!   benchmark × arrival rate × device count × job count × seed × fault
//!   intensity), with the same lossless string round trip — one grammar,
//!   plus the required `dD` field — as [`crate::sweep::Scenario`].
//! * [`ClusterBuilder`] — mirrors `gpu_sim`'s `SimBuilder`: fidelity tier,
//!   per-device scheduler, slot count, jitter, worker count, probe
//!   observers; [`ClusterBuilder::run`] produces a [`ClusterReport`].
//! * One time-ordered engine runs every cell: routing, fault replay,
//!   retries and device bookings interleave in a single serial pass, and a
//!   cell without faults is one whose plan has no transitions. Per-device
//!   RNG seeds hash from the workload cell and device index — never the
//!   routing policy — so policy comparisons are paired, and the report is
//!   bit-identical for any worker count (workers only fan out the
//!   detailed tier's per-device simulations).
//! * Latency tails stream through [`StreamingQuantiles`] (p50/p99/p999),
//!   merged across devices in device-index order, so a million-job run
//!   reports SLO attainment without holding a million samples.
//! * The arrival stream is generated as it is routed, a bounded chunk of
//!   jobs at a time through one reused buffer, so every cell holds its
//!   arrival stream in constant memory at any job count. A cell seeded
//!   from its own `:fI` intensity streams too: [`FleetFaultPlan::seeded`]
//!   spreads its windows over the realized span, up to the last arrival,
//!   which a draw-only replay of the stream's random draws finds before
//!   routing starts. What still grows is real in-flight state: under
//!   faults, the bookings held past their device's next crash and the
//!   pending retries; in the detailed tier, every surviving booking kept
//!   for its phase-2 simulations; and in an observed run, the outcome
//!   events buffered to sort them.
//! * Finished cells persist through [`crate::checkpoint::FleetCheckpoint`]
//!   (summary + sketch), the same crash-safe store the sweep binaries use,
//!   so an interrupted grid resumes byte-identically.
//!
//! # Fidelity tiers
//!
//! Both tiers book every placement through the one booking model,
//! [`FastDevice`]. The **fast** tier (default) executes on it; a 16-device,
//! million-job grid completes in seconds. The **detailed** tier books
//! un-jittered only to decide crash losses, then materializes every
//! surviving booking's kernel chain and runs a full
//! [`gpu_sim::sim::Simulation`] per device under a registry scheduler
//! (default LAX) — used for smokes and fidelity cross-checks at small job
//! counts.
//!
//! # Failure domains
//!
//! A [`FleetFaultPlan`] (from [`ClusterScenario::fault_seed`] at intensity
//! `:fI`, or injected via [`ClusterBuilder::fleet_faults`]) feeds the
//! engine's fault transitions. Crashes lose in-flight work (recovered
//! through the front door while some survivor's predicted laxity admits
//! it, bounded by [`ClusterBuilder::retry_budget`]); drains stop new
//! placements; straggler windows stretch service; correlated outages down
//! whole device blocks. Every job ends completed, rejected, shed or lost,
//! and the probe bus narrates
//! `DeviceDown`/`DeviceRestored`/`JobRetried`/`JobShed`.
//!
//! # Observability
//!
//! The engine narrates itself over the probe bus: routing verdicts
//! live in arrival order, then — after devices execute — one
//! `JobCompleted` per finished job and exactly one `JobMissed` (typed by
//! [`MissCause`]) per job that did not make its deadline, merged into one
//! stream sorted by instant and job id so the delivery order is
//! independent of worker count. [`FleetSampler`] turns the stream into
//! windowed SLO time series and [`FleetTraceWriter`] into Perfetto traces
//! (the `trace` binary, given a fleet cell). The [`ClusterReport::misses`] breakdown is
//! computed on every run — observed or not — and conserves exactly against
//! the report's totals; attaching observers never changes any report byte.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use gpu_sim::fleet::FleetFaultAction;
use gpu_sim::prelude::*;
use schedulers::registry;
use schedulers::routing::{self, RouteDecision, RouteRequest, Router};
use sim_core::par::par_map;
use sim_core::rng::{Fnv1a, SimRng};
use sim_core::stats::StreamingQuantiles;
use sim_core::table::Table;
use workloads::dag::{fanout_graph, ipa_graph, sample_fanout_width, IPA_WIDTH};
use workloads::rnn::{build_chain, sample_seq_len, Hidden, RnnCell, SEQ_RANGE};
use workloads::spec::{cell_seed, milli_to_intensity, ArrivalRate, Benchmark};
use workloads::suite::BenchmarkSuite;

use crate::cli::{default_jobs, Cli, CliError};
use crate::runner::DEFAULT_SEED;
use crate::sweep::{BenchError, CellFields, ParseScenarioError, SharedObserver};

/// One cluster experiment cell: a routing policy placing an open-loop
/// arrival stream across `devices` accelerators. Self-describing, totally
/// ordered, and stringifiable for CLIs — the cluster counterpart of
/// [`crate::sweep::Scenario`].
///
/// # Examples
///
/// ```
/// use lax_bench::cluster::ClusterScenario;
/// use workloads::spec::{ArrivalRate, Benchmark};
///
/// let s = ClusterScenario::new("LL", Benchmark::Hybrid, ArrivalRate::High, 16, 1_000_000, 42);
/// assert_eq!(s.to_string(), "LL:HYBRID:high:d16:j1000000:s42");
/// assert_eq!("LL:HYBRID:high:d16:j1000000:s42".parse::<ClusterScenario>().unwrap(), s);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterScenario {
    /// Routing policy name (see [`schedulers::routing`]). Must not contain
    /// `':'`, the string-form separator.
    pub policy: String,
    /// Benchmark every job is drawn from.
    pub bench: Benchmark,
    /// Per-device arrival-rate level; the cluster stream runs at
    /// `devices ×` the Table 4 rate, so per-device load is comparable to
    /// the single-device experiments.
    pub rate: ArrivalRate,
    /// Number of devices behind the router (≥ 1).
    pub devices: usize,
    /// Jobs in the arrival stream.
    pub n_jobs: usize,
    /// Base RNG seed; the workload stream uses [`ClusterScenario::cell_seed`].
    pub seed: u64,
    /// Fleet-fault intensity in milli-units (`1000` = intensity 1.0),
    /// stored fixed-point so the scenario stays totally ordered and
    /// hashable. `0` (the default) injects nothing and is omitted from the
    /// string form, so fault-free scenario strings are unchanged.
    pub fault_milli: u32,
}

impl ClusterScenario {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `policy` contains `':'` (which would break the string
    /// round trip) or if `devices` is zero.
    pub fn new(
        policy: &str,
        bench: Benchmark,
        rate: ArrivalRate,
        devices: usize,
        n_jobs: usize,
        seed: u64,
    ) -> Self {
        assert!(
            !policy.contains(':'),
            "policy name {policy:?} contains ':', the ClusterScenario string-form separator"
        );
        assert!(devices > 0, "a cluster needs at least one device");
        ClusterScenario { policy: policy.to_string(), bench, rate, devices, n_jobs, seed, fault_milli: 0 }
    }

    /// The same cell with a fleet-fault intensity (in milli-units; `1000` =
    /// intensity 1.0). String form gains a `:fI` suffix when non-zero.
    pub fn with_fault_milli(mut self, fault_milli: u32) -> Self {
        self.fault_milli = fault_milli;
        self
    }

    /// Fleet-fault intensity as the float [`gpu_sim::fleet::FleetFaultPlan::seeded`]
    /// consumes.
    pub fn fault_intensity(&self) -> f64 {
        milli_to_intensity(self.fault_milli)
    }

    /// The seed feeding the cluster workload generator:
    /// [`workloads::spec::cell_seed`] over the base seed and the
    /// workload-identifying fields, the device count included. The routing
    /// policy is deliberately **not** mixed in — every policy compared at
    /// one `(bench, rate, devices, n_jobs, seed)` cell must route the
    /// identical arrival stream, or policy comparisons would pick up
    /// sampling noise. The same contract as [`crate::sweep::Scenario::cell_seed`],
    /// lifted to the fleet.
    pub fn cell_seed(&self) -> u64 {
        cell_seed(self.seed, self.bench.name(), self.rate, Some(self.devices), self.n_jobs)
    }

    /// The jitter-stream seed of device `d`: hashed from the cell seed and
    /// the device index, so devices are not clones of each other yet stay
    /// identical across routing policies and worker counts.
    pub fn device_seed(&self, d: usize) -> u64 {
        let mut h = Fnv1a::new();
        h.eat(&self.cell_seed().to_le_bytes());
        h.eat(b"device");
        h.eat(&(d as u64).to_le_bytes());
        h.finish()
    }

    /// The seed feeding [`gpu_sim::fleet::FleetFaultPlan::seeded`]: hashed
    /// from the cell seed and the fault intensity, never the policy, so
    /// every policy compared at one faulted cell replays the identical
    /// failure schedule against the identical arrival stream. Deliberately
    /// **not** part of [`ClusterScenario::cell_seed`] — arrival streams
    /// must pair across intensities too (intensity 0 vs 2 differ only in
    /// the faults, not the offered load).
    pub fn fault_seed(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.eat(&self.cell_seed().to_le_bytes());
        h.eat(b"fleet-faults");
        h.eat(&u64::from(self.fault_milli).to_le_bytes());
        h.finish()
    }
}

impl fmt::Display for ClusterScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        CellFields {
            name: &self.policy,
            bench: self.bench,
            rate: self.rate,
            devices: self.devices,
            n_jobs: self.n_jobs,
            seed: self.seed,
            fault_milli: self.fault_milli,
        }
        .fmt(f)
    }
}

impl FromStr for ClusterScenario {
    type Err = ParseScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let c = CellFields::parse(s, true)?;
        Ok(ClusterScenario::new(c.name, c.bench, c.rate, c.devices, c.n_jobs, c.seed)
            .with_fault_milli(c.fault_milli))
    }
}

/// What one generated job materializes into, kept symbolic so the fast
/// tier never builds kernel chains and the detailed tier can rebuild the
/// exact chain or graph from the stored parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainSpec {
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
struct ClusterJob {
    id: u32,
    arrival: Cycle,
    /// Calibrated isolated service time of the job's chain — what the
    /// router predicts with and what the fast tier serves at.
    service_est: Duration,
    spec: ChainSpec,
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
        let start = graph
            .preds(i)
            .iter()
            .fold(0.0f64, |acc, &p| acc.max(finish[p as usize]));
        finish[i] = start + suite.calibration(&stages[i].name).measured_us;
        best = best.max(finish[i]);
    }
    best
}

/// Materializes one symbolic job spec as the full [`JobDesc`] the detailed
/// tier simulates: the stored chain parameters, or the benchmark's DAG at
/// the stored width.
fn materialize_job(
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
        ChainSpec::Dag { width } => JobDesc::from_graph(
            JobId(id),
            label,
            dag_graph(suite, bench, width),
            deadline,
            arrival,
        ),
    }
    .expect("calibrated specs materialize into valid jobs")
}

/// Jobs per refill of a streamed cell's arrival buffer (~128 KB of
/// [`ClusterJob`]s): all such a cell ever holds of its arrival stream.
const CHUNK: usize = 4096;

/// Longest arrival stream a cell may carry: job ids are `u32`, so one more
/// job would hand observers a duplicate id.
const MAX_JOBS: u64 = 1 << 32;

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

/// The last arrival instant of the cell's stream ([`Cycle::ZERO`] for an
/// empty one), found by a draw-only replay: it makes the stream's draws
/// and keeps nothing else, so it holds no job and looks up no service
/// time.
fn last_arrival(scenario: &ClusterScenario) -> Cycle {
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

/// The cluster arrival stream as a resumable generator: `n_jobs`
/// [`Arrivals`], each with a calibrated service estimate.
///
/// It generates `chunk` jobs at a time into one reused buffer and yields
/// them in arrival order. The draws and the service table carry over
/// between refills, so the chunk size never changes a job. The first
/// chunk is generated on construction, so a stream built with
/// `chunk >= n_jobs` holds the whole stream in `buf` before it is read.
struct JobStream<'a> {
    suite: &'a BenchmarkSuite,
    arrivals: Arrivals,
    n_jobs: usize,
    chunk: usize,
    /// Service time by [`service_slot`], filled on a spec's first use; at
    /// most a few hundred slots.
    service: Vec<Option<Duration>>,
    /// The current chunk, and the position of the next job to yield in it.
    buf: Vec<ClusterJob>,
    pos: usize,
}

impl<'a> JobStream<'a> {
    fn new(scenario: &ClusterScenario, suite: &'a BenchmarkSuite, chunk: usize) -> Self {
        let mut stream = JobStream {
            suite,
            arrivals: Arrivals::new(scenario),
            n_jobs: scenario.n_jobs,
            chunk,
            service: Vec::new(),
            buf: Vec::new(),
            pos: 0,
        };
        stream.refill();
        stream
    }

    /// Replaces the buffer's contents with the next chunk of the stream
    /// (empty once the stream is exhausted).
    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        let end = self.n_jobs.min(self.arrivals.next.saturating_add(self.chunk));
        self.buf.reserve_exact(end - self.arrivals.next);
        let (suite, bench) = (self.suite, self.arrivals.bench);
        while self.arrivals.next < end {
            let id = u32::try_from(self.arrivals.next)
                .expect("ClusterBuilder::run bounds n_jobs by MAX_JOBS");
            let spec = self.arrivals.draw();
            let slot = service_slot(spec);
            if slot >= self.service.len() {
                self.service.resize(slot + 1, None);
            }
            let service_est =
                *self.service[slot].get_or_insert_with(|| chain_service(suite, spec, bench));
            self.buf.push(ClusterJob { id, arrival: self.arrivals.now, service_est, spec });
        }
    }
}

impl Iterator for JobStream<'_> {
    type Item = ClusterJob;

    fn next(&mut self) -> Option<ClusterJob> {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let job = self.buf.get(self.pos).copied()?;
        self.pos += 1;
        Some(job)
    }
}

fn rnn_spec(cell: RnnCell, hidden: Hidden, rng: &mut SimRng) -> ChainSpec {
    ChainSpec::Rnn { cell, hidden, seq_len: sample_seq_len(rng) }
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

/// Builds a cluster run, mirroring `gpu_sim`'s `SimBuilder`: construct
/// with [`ClusterBuilder::new`], chain option setters, then
/// [`ClusterBuilder::run`].
#[derive(Clone)]
pub struct ClusterBuilder {
    scenario: ClusterScenario,
    fidelity: Fidelity,
    device_scheduler: String,
    slots: usize,
    jitter: f64,
    workers: usize,
    observers: Vec<SharedObserver>,
    fleet_faults: Option<FleetFaultPlan>,
    retry_budget: u32,
    retry_backoff: Duration,
    shed_degraded: bool,
}

impl fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("scenario", &self.scenario)
            .field("fidelity", &self.fidelity)
            .field("device_scheduler", &self.device_scheduler)
            .field("slots", &self.slots)
            .field("jitter", &self.jitter)
            .field("workers", &self.workers)
            .field("observers", &self.observers.len())
            .field("fleet_faults", &self.fleet_faults)
            .field("retry_budget", &self.retry_budget)
            .field("retry_backoff", &self.retry_backoff)
            .field("shed_degraded", &self.shed_degraded)
            .finish()
    }
}

/// The run's checkpoint key: the cell string, then the flag of each knob
/// [`knobs_from_cli`] sets that differs from its default, as
/// `LL:HYBRID:high:d4:j2000:s7:f1 --retry-budget 0 --shed`. A default run's
/// key is the bare cell string, and a resumed grid restores only a report
/// made under the same knobs. Workers and observers never change a report,
/// so they are not part of the key; neither is a plan injected with
/// [`ClusterBuilder::fleet_faults`], which no grid sets.
impl fmt::Display for ClusterBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = ClusterBuilder::new(self.scenario.clone());
        write!(f, "{}", self.scenario)?;
        if self.fidelity != d.fidelity {
            write!(f, " --fidelity {}", self.fidelity)?;
        }
        if self.device_scheduler != d.device_scheduler {
            write!(f, " --scheduler {}", self.device_scheduler)?;
        }
        if self.slots != d.slots {
            write!(f, " --slots {}", self.slots)?;
        }
        if self.jitter.to_bits() != d.jitter.to_bits() {
            write!(f, " --jitter {}", self.jitter)?;
        }
        if self.retry_budget != d.retry_budget {
            write!(f, " --retry-budget {}", self.retry_budget)?;
        }
        if self.retry_backoff != d.retry_backoff {
            write!(f, " --backoff-us {}", self.retry_backoff.as_us_f64())?;
        }
        if self.shed_degraded {
            f.write_str(" --shed")?;
        }
        Ok(())
    }
}

impl ClusterBuilder {
    /// A builder with the defaults: fast fidelity, LAX device scheduler
    /// (detailed tier only), one service slot per compute unit of the
    /// Table 2 machine, 2% service jitter, [`default_jobs`] workers.
    pub fn new(scenario: ClusterScenario) -> Self {
        ClusterBuilder {
            scenario,
            fidelity: Fidelity::Fast,
            device_scheduler: "LAX".to_string(),
            slots: GpuConfig::default().num_cus as usize,
            jitter: 0.02,
            workers: default_jobs(),
            observers: Vec::new(),
            fleet_faults: None,
            retry_budget: 3,
            retry_backoff: Duration::from_us(100),
            shed_degraded: false,
        }
    }

    /// Selects the device fidelity tier.
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Scheduler each detailed-tier device runs (registry name; the fast
    /// tier has no scheduler — it is a FIFO queueing model).
    pub fn device_scheduler(mut self, name: &str) -> Self {
        self.device_scheduler = name.to_string();
        self
    }

    /// Concurrent service slots per device, for the router's free-time
    /// model and the fast tier's servers.
    pub fn slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Half-width of the fast tier's uniform service-jitter multiplier.
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Worker threads the detailed tier's per-device simulations are
    /// fanned across; the fast tier runs in one serial pass. The report is
    /// bit-identical for any value (device seeds never depend on workers).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches an observer to the cluster's probe bus.
    ///
    /// Event vocabulary, per run: one [`ProbeEvent::JobRouted`],
    /// [`ProbeEvent::JobRejected`] or [`ProbeEvent::JobShed`] per arrival
    /// and one [`ProbeEvent::JobRetried`] per recovered placement,
    /// delivered live in arrival order; [`ProbeEvent::DeviceDown`] /
    /// [`ProbeEvent::DeviceRestored`] at each fleet health transition
    /// (none without faults); then, once devices have executed, one
    /// [`ProbeEvent::JobCompleted`] per run-to-completion job and exactly
    /// one [`ProbeEvent::JobMissed`] (typed by [`MissCause`]) per job that
    /// did not make its deadline, merged across devices into a single
    /// stream sorted by instant, then job id, with a job's completion
    /// before its miss.
    ///
    /// Determinism contract: observers are read-only taps. The returned
    /// [`ClusterReport`] is bit-identical with or without them for any
    /// worker count, the sorted outcome stream makes the *event order*
    /// worker-count-independent too, and with no observer attached the
    /// event payloads are never even built
    /// ([`sim_core::probe::ProbeHub::emit_with`]).
    pub fn observe(mut self, observer: SharedObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Overrides the fleet fault plan. Without this, the plan derives from
    /// the scenario's fault intensity via [`ClusterScenario::fault_seed`]
    /// ([`FleetFaultPlan::none`] at intensity 0).
    pub fn fleet_faults(mut self, plan: FleetFaultPlan) -> Self {
        self.fleet_faults = Some(plan);
        self
    }

    /// Maximum times one job lost to a device crash (or stalled with no
    /// device in rotation) re-enters the front door. `0` disables retry:
    /// every crash-lost job counts as lost. Default 3.
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Base sim-time backoff before a lost job's first retry; doubles per
    /// subsequent attempt. Deterministic — no wall-clock. Default 100 µs.
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Enables load shedding under degraded capacity: while any device is
    /// out of rotation, an arriving job whose best predicted laxity across
    /// the survivors is already negative is shed at the front door
    /// (counted separately from policy rejections). Off by default.
    pub fn shed_degraded(mut self, shed: bool) -> Self {
        self.shed_degraded = shed;
        self
    }

    /// Routes the arrival stream and executes every device, returning the
    /// merged [`ClusterReport`].
    ///
    /// Every cell runs the one time-ordered engine, interleaving fleet
    /// fault transitions, arrivals and retries; a cell without faults is
    /// one whose plan has no transitions, so an intensity-0 scenario is
    /// bit-identical to one that never mentions faults.
    ///
    /// The engine generates the arrival stream as it routes it, a bounded
    /// chunk of jobs at a time, so no cell holds its whole arrival stream,
    /// at any job count. A cell seeded from its own `:fI` intensity spans
    /// its plan over the realized stream: a draw-only replay finds the
    /// last arrival first, at the cost of drawing every job twice.
    ///
    /// # Errors
    ///
    /// [`BenchError::UnknownPolicy`] for routing policies outside the
    /// registry; [`BenchError::FleetKnob`] for zero slots, a jitter
    /// outside `[0, 1)`, more than 2³² jobs (job ids are `u32`) or more
    /// than 65535 devices (device ids are `u16`);
    /// [`BenchError::FleetFault`] for an ill-formed fault plan;
    /// [`BenchError::UnknownScheduler`] / [`BenchError::Sim`] from
    /// detailed-tier devices.
    pub fn run(&self) -> Result<ClusterReport, BenchError> {
        self.run_chunked(CHUNK)
    }

    /// [`ClusterBuilder::run`] with a streamed cell refilling `chunk` jobs
    /// at a time.
    fn run_chunked(&self, chunk: usize) -> Result<ClusterReport, BenchError> {
        let policy = routing::try_build(&self.scenario.policy)?;
        if self.slots == 0 {
            return Err(BenchError::FleetKnob { knob: "slots", value: self.slots.to_string() });
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(BenchError::FleetKnob { knob: "jitter", value: self.jitter.to_string() });
        }
        if self.scenario.n_jobs as u64 > MAX_JOBS {
            let value = self.scenario.n_jobs.to_string();
            return Err(BenchError::FleetKnob { knob: "n_jobs", value });
        }
        if self.scenario.devices > usize::from(u16::MAX) {
            let value = self.scenario.devices.to_string();
            return Err(BenchError::FleetKnob { knob: "devices", value });
        }
        let plan = match &self.fleet_faults {
            Some(p) => p.clone(),
            None if self.scenario.fault_milli > 0 => {
                // Fault windows span the arrival stream, up to its last
                // arrival, which a draw-only replay finds without holding a
                // job. The span is a pure function of the cell (arrivals are
                // policy-blind), so the plan is too.
                let span = last_arrival(&self.scenario).saturating_since(Cycle::ZERO);
                FleetFaultPlan::seeded(
                    self.scenario.fault_seed(),
                    self.scenario.fault_intensity(),
                    span,
                    self.scenario.devices as u32,
                )
            }
            None => FleetFaultPlan::none(),
        };
        plan.validate(self.scenario.devices as u32)?;
        let suite = BenchmarkSuite::calibrated();
        let jobs = JobStream::new(&self.scenario, suite, chunk);
        self.run_engine(policy, jobs, suite, &plan)
    }

    /// The fleet engine: one time-ordered pass interleaving fleet fault
    /// transitions, job arrivals and retries. Deterministic global order:
    /// by instant, then kind (fault transitions < arrivals < retries),
    /// then stream/schedule position — so the run is a pure function of
    /// the cell and plan, independent of worker count.
    ///
    /// Each booking's fate is settled when it is made. A device is booked
    /// only while it is up, and the plan fixes its next crash after the
    /// booking's entry, so a booking that completes by that instant is
    /// final on the spot: the fast tier completes it, the detailed tier
    /// keeps it for phase 2. Only a booking that completes later is held,
    /// and that crash loses every held booking, in booking order. Without
    /// faults nothing is ever held.
    ///
    /// Both tiers book through [`FastDevice`]. The detailed tier books
    /// un-jittered and unstretched, then materializes each device's
    /// surviving bookings as a full [`Simulation`] with the device's
    /// straggler windows translated to [`Slowdown`] faults.
    fn run_engine(
        &self,
        policy: routing::RoutePolicy,
        jobs: JobStream<'_>,
        suite: &BenchmarkSuite,
        plan: &FleetFaultPlan,
    ) -> Result<ClusterReport, BenchError> {
        let deadline = self.scenario.bench.deadline();
        let n = self.scenario.devices;
        let detailed = self.fidelity == Fidelity::Detailed;
        // P2C's sampling stream is seeded from the cell, not the policy
        // string, so the job trace and all derived seeds stay paired.
        let mut router = Router::new(policy, n, self.slots, self.scenario.cell_seed());
        let mut hub: ProbeHub<ProbeEvent> = ProbeHub::new();
        for obs in &self.observers {
            hub.attach(Box::new(Arc::clone(obs)));
        }
        let collect = hub.is_active();
        let mut stragglers: Vec<Vec<StragglerWindow>> = vec![Vec::new(); n];
        for w in &plan.stragglers {
            stragglers[w.device as usize].push(*w);
        }
        let mut devs: Vec<DeviceState> = (0..n)
            .map(|d| {
                let seed = self.scenario.device_seed(d);
                let model = if detailed {
                    FastDevice::new(self.slots, 0.0, seed)
                } else {
                    FastDevice::new(self.slots, self.jitter, seed).with_stragglers(&stragglers[d])
                };
                DeviceState::new(d as u16, model)
            })
            .collect();
        // Health transitions, expanded so correlated outages become one
        // event per member device; `transitions()` order (ends before
        // starts at equal instants) is preserved.
        let mut fleet_events: Vec<(Cycle, DevAction)> = Vec::new();
        for (t, action) in plan.transitions() {
            match action {
                FleetFaultAction::CrashStart(i) => {
                    let d = plan.crashes[i].device as usize;
                    devs[d].downs.push(t);
                    fleet_events.push((t, DevAction::Down(d)));
                }
                FleetFaultAction::CrashEnd(i) => {
                    fleet_events.push((t, DevAction::Up(plan.crashes[i].device as usize)));
                }
                FleetFaultAction::OutageStart(i) => {
                    let o = &plan.outages[i];
                    let members = devs.iter_mut().enumerate().skip(o.first as usize);
                    for (d, dev) in members.take(o.count as usize) {
                        dev.downs.push(t);
                        fleet_events.push((t, DevAction::Down(d)));
                    }
                }
                FleetFaultAction::OutageEnd(i) => {
                    let o = &plan.outages[i];
                    for d in o.first..o.first + o.count {
                        fleet_events.push((t, DevAction::Up(d as usize)));
                    }
                }
                FleetFaultAction::DrainStart(i) => {
                    fleet_events.push((t, DevAction::DrainOn(plan.drains[i].device as usize)));
                }
                FleetFaultAction::DrainEnd(i) => {
                    fleet_events.push((t, DevAction::DrainOff(plan.drains[i].device as usize)));
                }
                FleetFaultAction::StragglerStart(_) | FleetFaultAction::StragglerEnd(_) => {}
            }
        }
        let mut ei = 0usize;
        let mut retries = RetryQueue {
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
            budget: self.retry_budget,
            backoff: self.retry_backoff,
        };
        let mut rejected = 0u64;
        let mut shed = 0u64;
        let mut lost = 0u64;
        let mut retried = 0u64;
        let mut misses = MissBreakdown::default();
        let mut outcome_events: Vec<OutcomeEvent> = Vec::new();

        // One job's loss becoming final: its retry budget is out
        // (`CrashLoss` on the crashed device, `RetryExhausted` at the front
        // door), or no surviving device can make its deadline.
        macro_rules! lose {
            ($at:expr, $id:expr, $device:expr, $cause:expr) => {{
                lost += 1;
                misses.add($cause);
                if collect {
                    outcome_events.push(OutcomeEvent {
                        at: $at,
                        job: $id,
                        kind: 1,
                        event: ProbeEvent::JobMissed {
                            job: JobId($id),
                            device: $device,
                            cause: $cause,
                        },
                    });
                }
            }};
        }

        // One fleet event: lose held bookings/restore device state and
        // drive health.
        macro_rules! apply_fleet_event {
            ($t:expr, $action:expr) => {{
                let t = $t;
                match $action {
                    DevAction::Down(d) => {
                        let dev = &mut devs[d];
                        dev.down += 1;
                        if dev.down == 1 {
                            // Every held booking completes after this crash
                            // by construction: all are lost, retried if
                            // budget remains.
                            let held = std::mem::take(&mut dev.held);
                            let lost_here = held.len() as u32;
                            if !detailed {
                                dev.events += u64::from(lost_here);
                            }
                            for job in held {
                                if !retries.requeue(job, t) {
                                    lose!(t, job.id, Some(d as u16), MissCause::CrashLoss);
                                }
                            }
                            hub.emit_with(t, || ProbeEvent::DeviceDown {
                                device: d as u16,
                                crashed: true,
                                lost: lost_here,
                            });
                            router.set_health(d, DeviceHealth::Down);
                        }
                    }
                    DevAction::Up(d) => {
                        let dev = &mut devs[d];
                        dev.down -= 1;
                        if dev.down == 0 {
                            // Restored with an empty queue: both the actual
                            // model and the router's predictions restart at
                            // the restore instant.
                            dev.model.restore(t);
                            router.reset_device(d, t);
                            let h = if dev.draining > 0 {
                                DeviceHealth::Draining
                            } else {
                                DeviceHealth::Up
                            };
                            router.set_health(d, h);
                            if h == DeviceHealth::Up {
                                hub.emit_with(t, || ProbeEvent::DeviceRestored {
                                    device: d as u16,
                                });
                            }
                        }
                    }
                    DevAction::DrainOn(d) => {
                        let dev = &mut devs[d];
                        dev.draining += 1;
                        if dev.draining == 1 && dev.down == 0 {
                            // In-flight work keeps running; only new
                            // placements stop.
                            hub.emit_with(t, || ProbeEvent::DeviceDown {
                                device: d as u16,
                                crashed: false,
                                lost: 0,
                            });
                            router.set_health(d, DeviceHealth::Draining);
                        }
                    }
                    DevAction::DrainOff(d) => {
                        let dev = &mut devs[d];
                        dev.draining -= 1;
                        if dev.draining == 0 && dev.down == 0 {
                            router.set_health(d, DeviceHealth::Up);
                            hub.emit_with(t, || ProbeEvent::DeviceRestored { device: d as u16 });
                        }
                    }
                }
            }};
        }

        // One retry firing: deadline-aware re-admission for every policy.
        macro_rules! fire_retry {
            ($entry:expr) => {{
                let RetryEntry { at, job, .. } = $entry;
                let req = RouteRequest {
                    arrival: at,
                    service_est: job.service_est,
                    deadline: job.deadline_abs.saturating_since(at),
                };
                match router.best_laxity(&req) {
                    None => {
                        // Still nothing in rotation; back off again until
                        // the budget runs out.
                        if !retries.requeue(job, at) {
                            lose!(at, job.id, None, MissCause::RetryExhausted);
                        }
                    }
                    Some(lax) if lax < 0.0 => {
                        // The laxity gate: no survivor can make the
                        // remaining deadline, so re-placing would only
                        // burn capacity on a guaranteed miss.
                        lose!(at, job.id, None, MissCause::RetryExhausted);
                    }
                    Some(_) => match router.route(&req) {
                        RouteDecision::Route { device, .. } => {
                            retried += 1;
                            hub.emit_with(at, || ProbeEvent::JobRetried {
                                job: JobId(job.id),
                                attempt: job.attempt,
                                device: device as u16,
                            });
                            devs[device].book(at, job, detailed, collect);
                        }
                        // best_laxity was non-negative, so LL admits and
                        // some device is Up; defensive completeness.
                        RouteDecision::Reject { .. } | RouteDecision::NoDevice => {
                            lose!(at, job.id, None, MissCause::RetryExhausted);
                        }
                    },
                }
            }};
        }

        // Replays fault transitions and retries whose instants pass the two
        // filters, in merged time order; equal-instant ties go to
        // transitions.
        macro_rules! replay {
            ($ev_due:expr, $re_due:expr) => {{
                loop {
                    let next_ev = fleet_events.get(ei).map(|e| e.0);
                    let next_re = retries.heap.peek().map(|r| r.0.at);
                    let ev_ok = next_ev.is_some_and($ev_due);
                    let re_ok = next_re.is_some_and($re_due);
                    if ev_ok && (!re_ok || next_ev <= next_re) {
                        let (t, action) = fleet_events[ei];
                        ei += 1;
                        apply_fleet_event!(t, action);
                    } else if re_ok {
                        let std::cmp::Reverse(entry) = retries.heap.pop().expect("peeked");
                        fire_retry!(entry);
                    } else {
                        break;
                    }
                }
            }};
        }

        for job in jobs {
            let t_arr = job.arrival;
            // Transitions at or before the arrival, retries before it.
            replay!(|te| te <= t_arr, |tr| tr < t_arr);
            let placement = RetryJob {
                id: job.id,
                original_arrival: t_arr,
                service_est: job.service_est,
                deadline_abs: t_arr + deadline,
                attempt: 0,
                spec: job.spec,
            };
            let req =
                RouteRequest { arrival: t_arr, service_est: job.service_est, deadline };
            if self.shed_degraded && !router.all_up() {
                if let Some(lax) = router.best_laxity(&req) {
                    if lax < 0.0 {
                        shed += 1;
                        hub.emit_with(t_arr, || ProbeEvent::JobShed {
                            job: JobId(job.id),
                            laxity_us: lax,
                        });
                        hub.emit_with(t_arr, || ProbeEvent::JobMissed {
                            job: JobId(job.id),
                            device: None,
                            cause: MissCause::Shed,
                        });
                        continue;
                    }
                }
            }
            match router.route(&req) {
                RouteDecision::Route { device, predicted_wait, laxity_us } => {
                    hub.emit_with(t_arr, || ProbeEvent::JobRouted {
                        job: JobId(job.id),
                        device: device as u16,
                        predicted_wait_us: predicted_wait.as_us_f64(),
                        laxity_us,
                    });
                    devs[device].book(t_arr, placement, detailed, collect);
                }
                RouteDecision::Reject { laxity_us } => {
                    hub.emit_with(t_arr, || ProbeEvent::JobRejected {
                        job: JobId(job.id),
                        laxity_us,
                    });
                    hub.emit_with(t_arr, || ProbeEvent::JobMissed {
                        job: JobId(job.id),
                        device: None,
                        cause: MissCause::FrontDoorReject,
                    });
                    rejected += 1;
                }
                RouteDecision::NoDevice => {
                    // Whole fleet out of rotation: hold the job and retry
                    // once capacity returns, budget permitting.
                    if !retries.requeue(placement, t_arr) {
                        lose!(t_arr, job.id, None, MissCause::RetryExhausted);
                    }
                }
            }
        }
        // Drain what remains: the tail of the fault schedule and every
        // pending retry.
        replay!(|_| true, |_| true);
        debug_assert!(
            devs.iter().all(|dev| dev.held.is_empty()),
            "every held booking meets its crash before the schedule runs out"
        );

        let mut latency_us = StreamingQuantiles::new();
        let mut completed = 0u64;
        let mut met = 0u64;
        let mut device_rejected = 0u64;
        let mut makespan = Duration::ZERO;
        let mut events = 0u64;
        let mut per_device_jobs = Vec::with_capacity(n);
        if detailed {
            let survivor_lists: Vec<Vec<Booking>> =
                devs.iter_mut().map(|dev| std::mem::take(&mut dev.survivors)).collect();
            let indices: Vec<usize> = (0..n).collect();
            let slices = par_map(&indices, self.workers, |&d| {
                self.run_detailed_survivors(d, &survivor_lists[d], &stragglers[d], suite, collect)
            });
            for (d, slice) in slices.into_iter().enumerate() {
                let s = slice?;
                latency_us.merge(&s.latency_us);
                completed += s.completed;
                met += s.met;
                device_rejected += s.device_rejected;
                makespan = makespan.max(s.makespan);
                events += s.events;
                misses.merge(&s.misses);
                outcome_events.extend(s.outcomes);
                per_device_jobs.push(devs[d].booked);
            }
        } else {
            for dev in &mut devs {
                latency_us.merge(&dev.sketch);
                completed += dev.completed;
                met += dev.met;
                makespan = makespan.max(dev.makespan.saturating_since(Cycle::ZERO));
                events += dev.events;
                misses.merge(&dev.misses);
                outcome_events.append(&mut dev.outcomes);
                per_device_jobs.push(dev.booked);
            }
        }
        misses.add_n(MissCause::FrontDoorReject, rejected);
        misses.add_n(MissCause::Shed, shed);
        emit_outcomes(&mut hub, outcome_events);
        Ok(ClusterReport {
            scenario: self.scenario.clone(),
            fidelity: self.fidelity,
            total: self.scenario.n_jobs as u64,
            rejected,
            device_rejected,
            completed,
            met,
            lost,
            retried,
            shed,
            misses,
            latency_us,
            per_device_jobs,
            makespan,
            events,
        })
    }

    /// Detailed-tier phase 2: materialize one device's surviving bookings
    /// (entry order, deadlines measured from the original arrival) as a
    /// full simulation, with the device's straggler windows applied as
    /// whole-device [`Slowdown`] faults.
    fn run_detailed_survivors(
        &self,
        d: usize,
        survivors: &[Booking],
        windows: &[StragglerWindow],
        suite: &BenchmarkSuite,
        collect: bool,
    ) -> Result<DeviceSlice, BenchError> {
        if survivors.is_empty() {
            return Ok(DeviceSlice::default());
        }
        let bench = self.scenario.bench;
        let descs: Vec<JobDesc> = survivors
            .iter()
            .enumerate()
            .map(|(i, &Booking { entry, job })| {
                // A retried booking enters at its retry instant but is
                // held to its original deadline: the relative deadline
                // shrinks by the time already burned.
                materialize_job(
                    suite,
                    bench,
                    job.spec,
                    i as u32,
                    job.deadline_abs.saturating_since(entry),
                    entry,
                )
            })
            .collect();
        let mode = registry::try_build(&self.device_scheduler)?;
        let faults = FaultPlan {
            slowdowns: windows
                .iter()
                .map(|w| Slowdown { at: w.at, until: w.until, factor: w.factor })
                .collect(),
            ..FaultPlan::none()
        };
        let mut sim = Simulation::builder()
            .offline_rates(suite.offline_rates())
            .jobs(descs)
            .scheduler(mode)
            .faults(faults)
            .build()?;
        let report = sim.try_run().map_err(BenchError::Sim)?;
        let mut latency_us = StreamingQuantiles::new();
        let mut misses = MissBreakdown::default();
        let mut outcomes = Vec::new();
        for r in &report.records {
            let Booking { entry, job } = survivors[r.id.0 as usize];
            let requeue_delay = entry.saturating_since(job.original_arrival);
            if let Some(lat) = r.latency() {
                // Latency is arrival-to-completion of the *original* job,
                // so a retry pays for its first, doomed placement too.
                latency_us.push(lat.saturating_add(requeue_delay).as_us_f64());
            }
            attribute_detailed(
                r,
                &DetailedJob {
                    cluster_id: job.id,
                    service_est: job.service_est,
                    deadline: job.deadline_abs.saturating_since(job.original_arrival),
                    device: d as u16,
                    requeue: requeue_delay,
                },
                &mut misses,
                collect.then_some(&mut outcomes),
            );
        }
        Ok(DeviceSlice {
            latency_us,
            completed: report.completed() as u64,
            met: report.deadlines_met() as u64,
            device_rejected: report.rejected() as u64,
            makespan: report.makespan,
            events: report.events,
            misses,
            outcomes,
        })
    }
}

/// Takes the fleet run knobs out of a binary's command line: `--fidelity
/// fast|detailed`, `--scheduler NAME`, `--slots N`, `--jitter F`,
/// `--retry-budget N`, `--backoff-us N` and `--shed`. Returns the builder
/// of any cell under those knobs; a knob not given keeps its
/// [`ClusterBuilder::new`] default.
///
/// # Errors
///
/// A knob flag that is repeated, lacks its value or whose value does not
/// parse, naming the flag.
pub fn knobs_from_cli(
    cli: &mut Cli,
) -> Result<impl Fn(ClusterScenario) -> ClusterBuilder, CliError> {
    let fidelity: Option<Fidelity> = cli.parse("--fidelity")?;
    let scheduler = cli.value("--scheduler")?;
    let slots = cli.parse("--slots")?;
    let jitter = cli.parse("--jitter")?;
    let retry_budget = cli.parse("--retry-budget")?;
    let backoff_us: Option<u64> = cli.parse("--backoff-us")?;
    let max_us = u64::MAX / CYCLES_PER_US;
    if let Some(us) = backoff_us.filter(|&us| us > max_us) {
        let (flag, value) = ("--backoff-us".into(), us.to_string());
        return Err(CliError::BadValue { flag, value, reason: format!("at most {max_us}") });
    }
    let shed = cli.flag("--shed")?;
    Ok(move |scenario| {
        let mut b = ClusterBuilder::new(scenario);
        b.fidelity = fidelity.unwrap_or(b.fidelity);
        b.device_scheduler = scheduler.clone().unwrap_or(b.device_scheduler);
        b.slots = slots.unwrap_or(b.slots);
        b.jitter = jitter.unwrap_or(b.jitter);
        b.retry_budget = retry_budget.unwrap_or(b.retry_budget);
        b.retry_backoff = backoff_us.map_or(b.retry_backoff, Duration::from_us);
        b.shed_degraded = shed;
        b
    })
}

/// Parses a fleet binary's positional arguments ([`Cli::positionals`]) as
/// cell strings.
///
/// # Errors
///
/// The first argument that is not a valid cell string.
pub fn cells_from_cli(args: &[String]) -> Result<Vec<ClusterScenario>, ParseScenarioError> {
    args.iter().map(|arg| arg.parse()).collect()
}

/// The cells of a committed fleet grid: every routing policy serving
/// HYBRID at [`DEFAULT_SEED`] on `devices` devices and `n_jobs` jobs, for each
/// fault intensity (milli-units, outermost), then each rate, then each
/// policy (innermost). Rows group by fault level, so an attainment cliff
/// reads top to bottom.
pub fn hybrid_grid(
    fault_millis: &[u32],
    rates: &[ArrivalRate],
    devices: usize,
    n_jobs: usize,
) -> Vec<ClusterScenario> {
    let mut cells = Vec::new();
    for &milli in fault_millis {
        for &rate in rates {
            for policy in routing::names() {
                let (bench, seed) = (Benchmark::Hybrid, DEFAULT_SEED);
                let cell = ClusterScenario::new(policy, bench, rate, devices, n_jobs, seed);
                cells.push(cell.with_fault_milli(milli));
            }
        }
    }
    cells
}

/// One expanded fleet-fault transition targeting a single device.
#[derive(Debug, Clone, Copy)]
enum DevAction {
    /// Device crashes (crash or outage-member start).
    Down(usize),
    /// Crash/outage window ends.
    Up(usize),
    /// Drain window opens.
    DrainOn(usize),
    /// Drain window closes.
    DrainOff(usize),
}

/// A job (re-)entering the front door: either an original arrival held
/// back by a fleet-wide outage or a booking lost to a device crash.
#[derive(Debug, Clone, Copy)]
struct RetryJob {
    id: u32,
    original_arrival: Cycle,
    service_est: Duration,
    deadline_abs: Cycle,
    /// Which retry generation this is (0 = the initial placement).
    attempt: u32,
    spec: ChainSpec,
}

/// A scheduled retry, ordered by (fire instant, schedule sequence) — the
/// payload never participates in the ordering.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    at: Cycle,
    seq: u64,
    job: RetryJob,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for RetryEntry {}

impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Exponential sim-time backoff: `base << attempt`, saturating (the shift
/// is capped well past any realistic budget).
fn backoff_for(base: Duration, attempt: u32) -> Duration {
    Duration::from_cycles(base.as_cycles().saturating_mul(1u64 << attempt.min(20)))
}

/// The pending retries, plus the budget and backoff that decide whether a
/// job may rejoin them.
struct RetryQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<RetryEntry>>,
    /// Sequence number of the last scheduled retry.
    seq: u64,
    budget: u32,
    backoff: Duration,
}

impl RetryQueue {
    /// Schedules `job`'s next attempt at `now` plus its backoff if its
    /// retry budget allows. Returns `false` when the budget is spent: the
    /// loss is final, and the caller attributes its cause.
    fn requeue(&mut self, job: RetryJob, now: Cycle) -> bool {
        if job.attempt >= self.budget {
            return false;
        }
        self.seq += 1;
        self.heap.push(std::cmp::Reverse(RetryEntry {
            at: now + backoff_for(self.backoff, job.attempt),
            seq: self.seq,
            job: RetryJob { attempt: job.attempt + 1, ..job },
        }));
        true
    }
}

/// A detailed-tier placement that no crash loses, awaiting phase-2
/// materialization.
#[derive(Debug, Clone, Copy)]
struct Booking {
    /// When this placement entered the device (> original arrival for
    /// retries).
    entry: Cycle,
    job: RetryJob,
}

/// Per-device state of the fleet engine: the booking model plus the
/// cluster-side accounting.
#[derive(Debug)]
struct DeviceState {
    /// This device's fleet index, stamped into outcome events.
    index: u16,
    /// The executing model, distinct from the router's predictions.
    model: FastDevice,
    /// Instants this device goes down (crash or outage start), ascending.
    downs: Vec<Cycle>,
    /// Bookings that complete after the device's next crash, which will
    /// lose them; in booking order.
    held: Vec<RetryJob>,
    /// Detailed tier: bookings no crash loses, in booking order.
    survivors: Vec<Booking>,
    sketch: StreamingQuantiles,
    completed: u64,
    met: u64,
    booked: u64,
    events: u64,
    makespan: Cycle,
    /// Open crash/outage windows (health `Down` while > 0).
    down: u32,
    /// Open drain windows (health `Draining` while > 0 and not down).
    draining: u32,
    /// Fast tier: typed causes of this device's late completions.
    misses: MissBreakdown,
    /// Fast tier: buffered completion/miss events (only when collecting).
    outcomes: Vec<OutcomeEvent>,
}

impl DeviceState {
    fn new(index: u16, model: FastDevice) -> Self {
        DeviceState {
            index,
            model,
            downs: Vec::new(),
            held: Vec::new(),
            survivors: Vec::new(),
            sketch: StreamingQuantiles::new(),
            completed: 0,
            met: 0,
            booked: 0,
            events: 0,
            makespan: Cycle::ZERO,
            down: 0,
            draining: 0,
            misses: MissBreakdown::default(),
            outcomes: Vec::new(),
        }
    }

    /// Books one placement entering at `entry` and settles its fate: held
    /// for the next crash if it completes after it, otherwise completed
    /// now (fast tier) or kept for phase 2 (detailed tier).
    fn book(&mut self, entry: Cycle, job: RetryJob, detailed: bool, collect: bool) {
        let Service { start, completion } = self.model.book(entry, job.service_est);
        self.booked += 1;
        // The device is up at `entry`, so every down instant at or before
        // it has been replayed and the first one after it is the crash
        // this booking faces.
        let next_down = self.downs.get(self.downs.partition_point(|&t| t <= entry));
        if next_down.is_some_and(|&crash| completion > crash) {
            self.held.push(job);
        } else if detailed {
            self.survivors.push(Booking { entry, job });
        } else {
            self.complete(&job, start, completion, collect);
        }
    }

    /// Resolves one fast-tier booking as completed, attributing a typed
    /// cause when it blew its deadline (and, when collecting, buffering
    /// the completion/miss events).
    fn complete(&mut self, job: &RetryJob, start: Cycle, completion: Cycle, collect: bool) {
        let latency = completion.saturating_since(job.original_arrival);
        let met = completion <= job.deadline_abs;
        self.sketch.push(latency.as_us_f64());
        self.met += u64::from(met);
        self.completed += 1;
        self.makespan = self.makespan.max(completion);
        self.events += 2;
        if !met {
            // Late although the (stretched) service alone fit the deadline
            // budget means the job died waiting for a slot.
            let cause = if completion.saturating_since(start)
                <= job.deadline_abs.saturating_since(job.original_arrival)
            {
                MissCause::QueueingDelay
            } else {
                MissCause::ServiceTime
            };
            self.misses.add(cause);
            if collect {
                self.outcomes.push(OutcomeEvent {
                    at: completion,
                    job: job.id,
                    kind: 1,
                    event: ProbeEvent::JobMissed {
                        job: JobId(job.id),
                        device: Some(self.index),
                        cause,
                    },
                });
            }
        }
        if collect {
            self.outcomes.push(OutcomeEvent {
                at: completion,
                job: job.id,
                kind: 0,
                event: ProbeEvent::JobCompleted {
                    job: JobId(job.id),
                    device: self.index,
                    latency_us: latency.as_us_f64(),
                    met,
                },
            });
        }
    }
}

/// One buffered completion/miss probe event. Outcome events are collected
/// per device (detailed-tier devices run in pool order) and merged into a
/// single sorted stream before any observer sees them.
#[derive(Debug, Clone)]
struct OutcomeEvent {
    at: Cycle,
    /// Cluster-wide job id (sort key after the instant).
    job: u32,
    /// Final tie-break: a job's completion (0) sorts before its miss (1).
    kind: u8,
    event: ProbeEvent,
}

/// Delivers buffered outcome events in one deterministic order — by
/// instant, then job id, then completion-before-miss — so the stream an
/// observer sees is independent of worker count and device merge order.
fn emit_outcomes(hub: &mut ProbeHub<ProbeEvent>, mut outcomes: Vec<OutcomeEvent>) {
    outcomes.sort_by_key(|o| (o.at, o.job, o.kind));
    for o in outcomes {
        hub.emit(o.at, o.event);
    }
}

/// Cluster-scope identity of one detailed-tier job, for
/// [`attribute_detailed`]: the fields the device-local [`JobRecord`]
/// does not know.
#[derive(Clone, Copy)]
struct DetailedJob {
    /// Cluster-wide job id (the record's id is device-local).
    cluster_id: u32,
    /// Calibrated isolated service estimate of the job's chain.
    service_est: Duration,
    /// Relative deadline against the *original* arrival.
    deadline: Duration,
    /// Device the job ran on.
    device: u16,
    /// Time a retry already burned before entering this device (zero for
    /// a first placement), included in the reported latency like the
    /// sketch's.
    requeue: Duration,
}

/// Classifies one detailed-tier job record: a `JobCompleted` event for
/// every finished job, and exactly one typed miss for every job that did
/// not make its deadline. Late completions (and scheduler aborts) split on
/// whether the calibrated service estimate alone fit the relative
/// deadline — queueing delay if it did, service time if not; admission
/// rejections are `DeviceReject`.
fn attribute_detailed(
    r: &JobRecord,
    job: &DetailedJob,
    misses: &mut MissBreakdown,
    outcomes: Option<&mut Vec<OutcomeEvent>>,
) {
    let DetailedJob { cluster_id, service_est, deadline, device, requeue } = *job;
    let slow = if service_est <= deadline {
        MissCause::QueueingDelay
    } else {
        MissCause::ServiceTime
    };
    let (at, completion, cause) = match r.fate {
        JobFate::Completed(t) => (t, Some(t), (!r.met_deadline()).then_some(slow)),
        JobFate::Rejected(t) => (t, None, Some(MissCause::DeviceReject)),
        JobFate::Aborted(t) => (t, None, Some(slow)),
        JobFate::Unfinished => (r.deadline_abs, None, Some(slow)),
    };
    if let Some(cause) = cause {
        misses.add(cause);
    }
    let Some(outcomes) = outcomes else { return };
    if let Some(t) = completion {
        outcomes.push(OutcomeEvent {
            at: t,
            job: cluster_id,
            kind: 0,
            event: ProbeEvent::JobCompleted {
                job: JobId(cluster_id),
                device,
                latency_us: t.saturating_since(r.arrival).saturating_add(requeue).as_us_f64(),
                met: r.met_deadline(),
            },
        });
    }
    if let Some(cause) = cause {
        outcomes.push(OutcomeEvent {
            at,
            job: cluster_id,
            kind: 1,
            event: ProbeEvent::JobMissed { job: JobId(cluster_id), device: Some(device), cause },
        });
    }
}

/// What one detailed-tier device simulation contributes to the merged
/// report.
#[derive(Debug, Clone, Default)]
struct DeviceSlice {
    latency_us: StreamingQuantiles,
    completed: u64,
    met: u64,
    device_rejected: u64,
    makespan: Duration,
    events: u64,
    misses: MissBreakdown,
    /// Buffered completion/miss events; empty unless the run collected
    /// them (an observer was attached).
    outcomes: Vec<OutcomeEvent>,
}

/// Merged outcome of one cluster cell. Compares bit-exactly (`PartialEq`),
/// which the worker-count determinism tests and checkpoint round trip rely
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The cell that produced this report.
    pub scenario: ClusterScenario,
    /// Fidelity tier the devices ran at.
    pub fidelity: Fidelity,
    /// Jobs in the arrival stream.
    pub total: u64,
    /// Jobs the router rejected at the front door (LL admission).
    pub rejected: u64,
    /// Jobs a device's own admission control rejected (detailed tier).
    pub device_rejected: u64,
    /// Jobs that completed on some device.
    pub completed: u64,
    /// Completed jobs that made their deadline.
    pub met: u64,
    /// Jobs lost to device crashes (in flight when the device went down
    /// and not recovered within the retry budget). Zero without faults.
    pub lost: u64,
    /// Successful re-placements of crash-lost (or outage-stalled) jobs.
    pub retried: u64,
    /// Jobs shed at the front door under degraded capacity
    /// ([`ClusterBuilder::shed_degraded`]). Zero without faults.
    pub shed: u64,
    /// Per-cause breakdown of every job that did not make its deadline.
    /// Conserves exactly against the counters above — see
    /// [`MissBreakdown`] for the identities, the headline one being
    /// `misses.total() == total - met`. Computed on every run, observed or
    /// not.
    pub misses: MissBreakdown,
    /// Arrival-to-completion latency sketch over completed jobs,
    /// microseconds (p50/p99/p999 within 0.5% relative error).
    pub latency_us: StreamingQuantiles,
    /// Jobs routed to each device, in device-index order.
    pub per_device_jobs: Vec<u64>,
    /// Latest device makespan.
    pub makespan: Duration,
    /// Model events processed, summed over devices.
    pub events: u64,
}

impl ClusterReport {
    /// Deadline attainment: the fraction of *all* offered jobs that
    /// completed by their deadline. Rejected jobs — at the front door or a
    /// device — count as misses, so admission cannot inflate the score.
    pub fn attainment(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.met as f64 / self.total as f64
    }
}

/// Renders the per-policy SLO-attainment table the `cluster` binary writes:
/// one row per report, with streaming p50/p99/p999 latency tails and the
/// miss attribution split (`m_queue`/`m_serv`: late completions that died
/// waiting for a slot vs. ones whose service alone blew the deadline).
pub fn cluster_table(reports: &[ClusterReport]) -> Table {
    let mut table = Table::with_columns(&[
        "cell",
        "policy",
        "devices",
        "jobs",
        "routed",
        "rejected",
        "met",
        "m_queue",
        "m_serv",
        "attain",
        "p50_us",
        "p99_us",
        "p999_us",
        "mean_us",
        "makespan_ms",
    ]);
    for r in reports {
        let s = &r.scenario;
        table.row(vec![
            format!("{}:{}", s.bench, s.rate),
            s.policy.clone(),
            s.devices.to_string(),
            r.total.to_string(),
            (r.total - r.rejected).to_string(),
            (r.rejected + r.device_rejected).to_string(),
            r.met.to_string(),
            r.misses.count(MissCause::QueueingDelay).to_string(),
            r.misses.count(MissCause::ServiceTime).to_string(),
            format!("{:.4}", r.attainment()),
            format!("{:.1}", r.latency_us.p50()),
            format!("{:.1}", r.latency_us.p99()),
            format!("{:.1}", r.latency_us.p999()),
            format!("{:.1}", r.latency_us.mean()),
            format!("{:.2}", r.makespan.as_us_f64() / 1000.0),
        ]);
    }
    table
}

/// Renders the robustness table the `chaos` binary writes: one row per
/// report with the failure-domain counters (shed/lost/retried) alongside
/// the attainment and latency tails, plus the typed miss attribution
/// (`m_queue`/`m_serv` split late completions, `m_crash`/`m_retry` split
/// final losses). [`cluster_table`] stays unchanged so fault-free results
/// files are byte-stable.
pub fn chaos_table(reports: &[ClusterReport]) -> Table {
    let mut table = Table::with_columns(&[
        "cell",
        "policy",
        "f",
        "devices",
        "jobs",
        "rejected",
        "shed",
        "lost",
        "retried",
        "done",
        "met",
        "m_queue",
        "m_serv",
        "m_crash",
        "m_retry",
        "attain",
        "p50_us",
        "p99_us",
        "p999_us",
        "mean_us",
        "makespan_ms",
    ]);
    for r in reports {
        let s = &r.scenario;
        table.row(vec![
            format!("{}:{}", s.bench, s.rate),
            s.policy.clone(),
            format!("{}", s.fault_intensity()),
            s.devices.to_string(),
            r.total.to_string(),
            (r.rejected + r.device_rejected).to_string(),
            r.shed.to_string(),
            r.lost.to_string(),
            r.retried.to_string(),
            r.completed.to_string(),
            r.met.to_string(),
            r.misses.count(MissCause::QueueingDelay).to_string(),
            r.misses.count(MissCause::ServiceTime).to_string(),
            r.misses.count(MissCause::CrashLoss).to_string(),
            r.misses.count(MissCause::RetryExhausted).to_string(),
            format!("{:.4}", r.attainment()),
            format!("{:.1}", r.latency_us.p50()),
            format!("{:.1}", r.latency_us.p99()),
            format!("{:.1}", r.latency_us.p999()),
            format!("{:.1}", r.latency_us.mean()),
            format!("{:.2}", r.makespan.as_us_f64() / 1000.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use super::*;
    use crate::checkpoint::{Codec, FleetCheckpoint, FleetCodec};
    use crate::sweep::run_grid;

    fn scen(policy: &str) -> ClusterScenario {
        ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 400, 7)
    }

    /// The cell's arrival stream generated all at once, as one chunk.
    fn whole_stream(s: &ClusterScenario) -> Vec<ClusterJob> {
        JobStream::new(s, BenchmarkSuite::calibrated(), s.n_jobs).buf
    }

    /// Refill boundaries are invisible: the chunks of a streamed cell,
    /// concatenated, are the whole stream job for job, at every length
    /// around the chunk size. An odd chunk size too, because HYBRID
    /// alternates variants by job index: a refill that restarted the index
    /// would show only there. The draw-only replay ends at the whole
    /// stream's last arrival, and the service table hands every job the
    /// service time its spec computes afresh, for every kind of spec.
    #[test]
    fn chunked_stream_concatenates_to_the_whole_stream() {
        let suite = BenchmarkSuite::calibrated();
        let benches = [
            Benchmark::Hybrid,
            Benchmark::Lstm,
            Benchmark::Gru,
            Benchmark::Van,
            Benchmark::FanOut,
            Benchmark::Ipa,
            Benchmark::Ipv6,
        ];
        for bench in benches {
            for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
                let s = ClusterScenario::new("RR", bench, ArrivalRate::High, 4, n, 7);
                let whole = whole_stream(&s);
                assert_eq!(whole.len(), n);
                assert!(whole.iter().enumerate().all(|(i, j)| j.id as usize == i));
                let last = whole.last().map_or(Cycle::ZERO, |j| j.arrival);
                assert_eq!(last_arrival(&s), last, "{s}: the replay must end at the last arrival");
                for job in &whole {
                    let fresh = chain_service(suite, job.spec, bench);
                    assert_eq!(job.service_est, fresh, "{s}: job {} {:?}", job.id, job.spec);
                }
                for chunk in [CHUNK, 7] {
                    let mut stream = JobStream::new(&s, suite, chunk);
                    let mut chunked = Vec::new();
                    while !stream.buf.is_empty() {
                        assert!(stream.buf.len() <= chunk, "{s}");
                        chunked.extend_from_slice(&stream.buf);
                        stream.refill();
                    }
                    assert_eq!(chunked, whole, "{s}/{chunk}: chunks must concatenate to it");
                    let yielded: Vec<ClusterJob> = JobStream::new(&s, suite, chunk).collect();
                    assert_eq!(yielded, whole, "{s}/{chunk}: the iterator must yield it");
                }
            }
        }
    }

    /// Records every probe event with its instant.
    #[derive(Default)]
    struct EventLog(Vec<(Cycle, ProbeEvent)>);

    impl Observer<ProbeEvent> for EventLog {
        fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
            self.0.push((at, event.clone()));
        }
    }

    /// A cell seeded from its own intensity streams like any other: at a
    /// small odd chunk, at [`CHUNK`] and as one whole chunk, it produces the
    /// same report (but for the scenario it names) and the same observed
    /// event stream as the fault-free cell with the same plan injected, at
    /// both tiers.
    #[test]
    fn seeded_cells_stream_like_the_injected_plan_at_any_chunk() {
        // The detailed tier runs a full simulation per device, too slow for
        // thousands of jobs in a test, so its injected-plan cell streams in
        // small chunks.
        let cells = [
            (Fidelity::Fast, Benchmark::Hybrid, ArrivalRate::High, 4, 3 * CHUNK + 7, CHUNK),
            (Fidelity::Detailed, Benchmark::Ipv6, ArrivalRate::Low, 2, 3 * 8 + 3, 8),
        ];
        for (fidelity, bench, rate, devices, n, chunk) in cells {
            for policy in ["RR", "LL"] {
                let s = ClusterScenario::new(policy, bench, rate, devices, n, 7);
                let span = whole_stream(&s).last().unwrap().arrival.saturating_since(Cycle::ZERO);
                for milli in [1000, 2000] {
                    let faulted = s.clone().with_fault_milli(milli);
                    let plan = FleetFaultPlan::seeded(
                        faulted.fault_seed(),
                        faulted.fault_intensity(),
                        span,
                        devices as u32,
                    );
                    assert_ne!(plan, FleetFaultPlan::none(), "{faulted}: the plan must fault");
                    let run = |builder: ClusterBuilder, chunk: usize| {
                        let log = Arc::new(Mutex::new(EventLog::default()));
                        let builder = builder.fidelity(fidelity).observe(log.clone());
                        let report = builder.run_chunked(chunk).unwrap();
                        let events = std::mem::take(&mut log.lock().unwrap().0);
                        (report, events)
                    };
                    let (injected, injected_events) =
                        run(ClusterBuilder::new(s.clone()).fleet_faults(plan), chunk);
                    for seeded_chunk in [7, CHUNK, n] {
                        let (seeded, seeded_events) =
                            run(ClusterBuilder::new(faulted.clone()), seeded_chunk);
                        assert_eq!(
                            ClusterReport { scenario: s.clone(), ..seeded },
                            injected,
                            "{faulted}/{seeded_chunk}: the seeded cell must match the injected plan"
                        );
                        assert!(
                            seeded_events == injected_events,
                            "{faulted}/{seeded_chunk}: event streams differ"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cluster_scenario_round_trips_through_strings() {
        for s in [
            ClusterScenario::new("LL", Benchmark::Hybrid, ArrivalRate::High, 16, 1_000_000, 20210301),
            ClusterScenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 1, 1, 0),
            ClusterScenario::new("P2C", Benchmark::Stem, ArrivalRate::Medium, 64, 12, u64::MAX),
        ] {
            let text = s.to_string();
            assert_eq!(text.parse::<ClusterScenario>().unwrap(), s, "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "contains ':'")]
    fn cluster_scenario_rejects_colon_in_policy() {
        let _ = ClusterScenario::new("LL:EVIL", Benchmark::Ipv6, ArrivalRate::High, 1, 1, 1);
    }

    /// A builder's string is its checkpoint key: the bare cell under the
    /// default knobs, and a key of its own under each knob flag, whose
    /// first field still restores the cell through the fleet codec.
    #[test]
    fn checkpoint_key_names_each_non_default_knob() {
        let cell = scen("LL").with_fault_milli(1000);
        let defaults = knobs_from_cli(&mut Cli::new(Vec::<String>::new())).unwrap();
        assert_eq!(defaults(cell.clone()).to_string(), cell.to_string());
        let mut body = String::new();
        FleetCodec::render(&mut body, &defaults(cell.clone()).run().unwrap());
        let body: Vec<&str> = body.lines().collect();
        let mut keys = vec![cell.to_string()];
        for flags in [
            &["--fidelity", "detailed"][..],
            &["--scheduler", "RR"],
            &["--slots", "3"],
            &["--jitter", "0.1"],
            &["--retry-budget", "0"],
            &["--backoff-us", "250"],
            &["--shed"],
        ] {
            let mut cli = Cli::new(flags.iter().copied());
            let key = knobs_from_cli(&mut cli).unwrap()(cell.clone()).to_string();
            assert_eq!(cli.positionals(), Ok(vec![]), "{flags:?} must be taken out of the line");
            assert_eq!(key, format!("{cell} {}", flags.join(" ")));
            assert!(!keys.contains(&key), "{key} repeats a key");
            assert_eq!(FleetCodec::parse(&key, &body).unwrap().scenario, cell, "{key}");
            keys.push(key);
        }
        for (flags, named) in [
            (&["--slots", "x"][..], "bad value `x` for `--slots`"),
            (&["--fidelity", "exact"], "bad value `exact` for `--fidelity`"),
            (&["--backoff-us", "18446744073709551615"], "for `--backoff-us`: at most"),
        ] {
            let err = knobs_from_cli(&mut Cli::new(flags.iter().copied())).err().unwrap();
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    /// A store holding a cell's report made at retry budget 0 does not
    /// answer for the default-budget run of that cell: the grid runs it
    /// afresh and returns the fresh report.
    #[test]
    fn resume_under_other_knobs_reruns_the_cell() {
        let cell = scen("LL").with_fault_milli(1000);
        let budget0 = ClusterBuilder::new(cell.clone()).retry_budget(0);
        let stale = budget0.run().unwrap();
        let path = std::env::temp_dir().join(format!("lax-knob-key-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut store = FleetCheckpoint::open(&path);
        store.record(&budget0.to_string(), stale.clone()).unwrap();
        let runs = AtomicUsize::new(0);
        let counted = |b: &ClusterBuilder| {
            runs.fetch_add(1, Ordering::Relaxed);
            b.run()
        };
        let fresh = ClusterBuilder::new(cell);
        let cells = std::slice::from_ref(&fresh);
        let reports = run_grid(cells, 1, Some(&mut store), counted, |_, _| {}).unwrap();
        assert_eq!(runs.into_inner(), 1, "the default-budget cell must run");
        assert_eq!(reports, [fresh.run().unwrap()]);
        assert_ne!(reports[0], stale, "the budget must change this cell's report");
        store.discard_file().unwrap();
    }

    #[test]
    fn cell_seeds_pair_policies_but_differ_across_workloads() {
        let a = scen("RR");
        let b = scen("LL");
        assert_eq!(
            a.cell_seed(),
            b.cell_seed(),
            "policies compared on one cell must route identical streams"
        );
        assert_ne!(a.cell_seed(), ClusterScenario { devices: 8, ..a.clone() }.cell_seed());
        assert_ne!(a.cell_seed(), ClusterScenario { n_jobs: 401, ..a.clone() }.cell_seed());
        assert_ne!(a.cell_seed(), ClusterScenario { seed: 8, ..a.clone() }.cell_seed());
        assert_ne!(
            a.cell_seed(),
            ClusterScenario { bench: Benchmark::Gmm, ..a.clone() }.cell_seed()
        );
        assert_ne!(a.device_seed(0), a.device_seed(1));
        assert_eq!(a.device_seed(3), b.device_seed(3), "device seeds are policy-blind");
    }

    #[test]
    fn fast_cluster_is_bit_identical_across_worker_counts() {
        for policy in routing::names() {
            let s = scen(policy);
            let one = ClusterBuilder::new(s.clone()).workers(1).run().unwrap();
            let eight = ClusterBuilder::new(s).workers(8).run().unwrap();
            assert_eq!(one, eight, "{policy}: reports must not depend on worker count");
        }
    }

    #[test]
    fn fast_tier_accounting_identity_holds() {
        let r = ClusterBuilder::new(scen("LL")).run().unwrap();
        assert_eq!(r.completed + r.rejected, r.total);
        assert_eq!(r.latency_us.len() as u64, r.completed);
        assert_eq!(r.per_device_jobs.iter().sum::<u64>() + r.rejected, r.total);
        assert_eq!(r.per_device_jobs.len(), r.scenario.devices);
        assert!(r.met <= r.completed);
        assert!((0.0..=1.0).contains(&r.attainment()));
        assert!(r.events > 0);
    }

    /// An overloaded fleet (one slot per device at the high HYBRID rate):
    /// deadline-aware routing must beat deadline-blind round-robin, and its
    /// admission test must actually fire. This is the paper's claim at
    /// cluster scope.
    #[test]
    fn least_laxity_beats_round_robin_when_overloaded() {
        let run = |policy: &str| {
            let s = ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 2000, 7);
            ClusterBuilder::new(s).slots(1).run().unwrap()
        };
        let rr = run("RR");
        let ll = run("LL");
        assert!(ll.rejected > 0, "LL's front-door admission must fire under overload");
        assert!(
            ll.met > rr.met,
            "LL ({} met) must beat RR ({} met) under overload",
            ll.met,
            rr.met
        );
    }

    struct DecisionCounter {
        routed: u64,
        rejected: u64,
    }

    impl Observer<ProbeEvent> for DecisionCounter {
        fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::JobRouted { .. } => self.routed += 1,
                ProbeEvent::JobRejected { .. } => self.rejected += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn router_probes_cover_every_job_and_do_not_perturb() {
        let s = scen("LL");
        let plain = ClusterBuilder::new(s.clone()).run().unwrap();
        let counter = Arc::new(Mutex::new(DecisionCounter { routed: 0, rejected: 0 }));
        let observed = ClusterBuilder::new(s).observe(counter.clone()).run().unwrap();
        assert_eq!(plain, observed, "observers must not perturb the cluster report");
        let c = counter.lock().unwrap();
        assert_eq!(c.routed + c.rejected, observed.total);
        assert_eq!(c.rejected, observed.rejected);
    }

    #[test]
    fn detailed_tier_runs_full_simulations_per_device() {
        let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 12, 3);
        let r = ClusterBuilder::new(s).fidelity(Fidelity::Detailed).run().unwrap();
        assert_eq!(r.fidelity, Fidelity::Detailed);
        assert_eq!(r.completed + r.rejected + r.device_rejected, r.total);
        assert_eq!(r.latency_us.len() as u64, r.completed);
        assert!(r.met > 0, "a low-rate IPV6 cell must meet deadlines");
        assert!(
            r.events > 2 * r.total,
            "detailed devices process real event streams, got {}",
            r.events
        );
    }

    #[test]
    fn unknown_policy_and_scheduler_are_typed_errors() {
        let err = ClusterBuilder::new(scen("WARP")).run().unwrap_err();
        match &err {
            BenchError::UnknownPolicy(e) => assert_eq!(e.name(), "WARP"),
            other => panic!("expected UnknownPolicy, got {other:?}"),
        }
        assert!(err.to_string().contains("WARP"));
        let s = ClusterScenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 2, 4, 3);
        let err = ClusterBuilder::new(s)
            .fidelity(Fidelity::Detailed)
            .device_scheduler("NOPE")
            .run()
            .unwrap_err();
        assert!(matches!(err, BenchError::UnknownScheduler(_)), "{err:?}");
    }

    #[test]
    fn cluster_table_reports_policies_and_tail_tiers() {
        let reports: Vec<ClusterReport> =
            ["RR", "LL"].iter().map(|p| ClusterBuilder::new(scen(p)).run().unwrap()).collect();
        let text = cluster_table(&reports).render();
        for needle in ["policy", "attain", "p99_us", "p999_us", "RR", "LL", "HYBRID:high"] {
            assert!(text.contains(needle), "table must mention {needle}:\n{text}");
        }
    }

    #[test]
    fn fault_scenarios_round_trip_through_strings() {
        for (milli, text) in [
            (1000, "LL:HYBRID:high:d4:j400:s7:f1"),
            (1500, "LL:HYBRID:high:d4:j400:s7:f1.5"),
            (1, "LL:HYBRID:high:d4:j400:s7:f0.001"),
            (2000, "LL:HYBRID:high:d4:j400:s7:f2"),
        ] {
            let s = scen("LL").with_fault_milli(milli);
            assert_eq!(s.to_string(), text);
            assert_eq!(text.parse::<ClusterScenario>().unwrap(), s, "{text}");
        }
        // Intensity is part of the cell identity for the *fault* seed but
        // not the workload seed: arrival streams stay paired across
        // intensities so robustness comparisons isolate the faults.
        let base = scen("LL");
        let faulty = scen("LL").with_fault_milli(1000);
        assert_eq!(base.cell_seed(), faulty.cell_seed());
        assert_ne!(faulty.fault_seed(), scen("LL").with_fault_milli(2000).fault_seed());
        assert_eq!(faulty.fault_seed(), scen("RR").with_fault_milli(1000).fault_seed());
    }

    /// A plan whose only entry is a factor-1.0 straggler is non-empty yet
    /// must perturb nothing: the booking model's stretch is a bit-exact
    /// no-op at factor 1.0.
    #[test]
    fn noop_fault_plan_is_bit_identical_to_fault_free_run() {
        let noop = FleetFaultPlan {
            stragglers: vec![StragglerWindow {
                device: 0,
                at: Cycle::ZERO,
                until: Cycle::MAX,
                factor: 1.0,
            }],
            ..FleetFaultPlan::none()
        };
        for policy in routing::names() {
            let s = scen(policy);
            let plain = ClusterBuilder::new(s.clone()).run().unwrap();
            let chaos = ClusterBuilder::new(s).fleet_faults(noop.clone()).run().unwrap();
            assert_eq!(plain, chaos, "{policy}: a no-op plan must not change the report");
        }
    }

    #[test]
    fn intensity_zero_matches_a_scenario_without_fault_suffix() {
        let s = scen("LL").with_fault_milli(0);
        assert_eq!(
            ClusterBuilder::new(s).run().unwrap(),
            ClusterBuilder::new(scen("LL")).run().unwrap()
        );
    }

    /// Fault-free reports pinned field by field, as the fault-free engine
    /// produced them before it was folded into the time-ordered one: the
    /// fast tier on `scen(policy)` for every policy, plus one detailed cell.
    /// Per cell: `[met, rejected, completed, events, makespan cycles]` and
    /// the bits of `[p50, p99, mean]`.
    #[test]
    fn fault_free_reports_match_their_golden_values() {
        let golden: [(&str, Fidelity, [u64; 5], [u64; 3]); 5] = [
            (
                "RR:HYBRID:high:d4:j400:s7",
                Fidelity::Fast,
                [92, 0, 400, 800, 113_024_223],
                [0x40cd_dad3_3606_0ee5, 0x40eb_35d3_07da_fabc, 0x40d2_c205_71de_69ad],
            ),
            (
                "LOW:HYBRID:high:d4:j400:s7",
                Fidelity::Fast,
                [74, 0, 400, 800, 92_073_574],
                [0x40d1_80e8_1e8d_9ff8, 0x40e3_ca45_cb9b_d137, 0x40d2_4c92_7df0_377c],
            ),
            (
                "P2C:HYBRID:high:d4:j400:s7",
                Fidelity::Fast,
                [74, 0, 400, 800, 91_840_032],
                [0x40d2_36d9_78a8_034b, 0x40e3_ca45_cb9b_d137, 0x40d2_636b_d8bb_a6c3],
            ),
            (
                "LL:HYBRID:high:d4:j400:s7",
                Fidelity::Fast,
                [267, 133, 267, 534, 28_692_795],
                [0x40b1_62c0_f487_471a, 0x40ba_efa1_86bd_ece9, 0x40b0_792d_0e56_0418],
            ),
            (
                "LL:IPV6:high:d2:j48:s3",
                Fidelity::Detailed,
                [18, 0, 27, 592_982, 615_944],
                [0x4040_27d6_8294_aba2, 0x4051_612c_4cb0_bae4, 0x4043_1f29_9793_c8e1],
            ),
        ];
        for (cell, fidelity, counts, bits) in golden {
            let r = ClusterBuilder::new(cell.parse().unwrap()).fidelity(fidelity).run().unwrap();
            let got_counts = [r.met, r.rejected, r.completed, r.events, r.makespan.as_cycles()];
            let q = &r.latency_us;
            let got_bits = [q.p50().to_bits(), q.p99().to_bits(), q.mean().to_bits()];
            assert_eq!((got_counts, got_bits), (counts, bits), "{cell}");
        }
    }

    #[test]
    fn out_of_range_fleet_knobs_are_typed_errors() {
        let base = || ClusterBuilder::new(scen("LL")).workers(2);
        let bounds = [
            ("slots", "at least 1"),
            ("jitter", "in [0, 1)"),
            ("n_jobs", "at most 2^32"),
            ("devices", "at most 65535"),
        ];
        for (builder, name) in [
            (base().slots(0), "slots"),
            (base().jitter(1.5), "jitter"),
            (base().jitter(-0.1), "jitter"),
            (base().jitter(1.0), "jitter"),
            (
                ClusterBuilder::new(ClusterScenario { n_jobs: (1 << 32) + 1, ..scen("LL") }),
                "n_jobs",
            ),
            (ClusterBuilder::new(ClusterScenario { devices: 1 << 16, ..scen("LL") }), "devices"),
        ] {
            for fidelity in [Fidelity::Fast, Fidelity::Detailed] {
                let err = builder.clone().fidelity(fidelity).run().unwrap_err();
                assert!(
                    matches!(&err, BenchError::FleetKnob { knob, .. } if *knob == name),
                    "{name}: {err:?}"
                );
                let msg = err.to_string();
                assert!(msg.contains(name), "{msg}");
                // Each message states its own knob's bound and no other's.
                for (knob, bound) in bounds {
                    assert_eq!(msg.contains(bound), knob == name, "{name}: {msg}");
                }
            }
        }
        // The edges of the valid ranges still run.
        ClusterBuilder::new(scen("LL")).slots(1).jitter(0.0).run().unwrap();
        ClusterBuilder::new(scen("LL")).jitter(0.999).run().unwrap();
    }

    /// The booking-fate boundary: a booking completing exactly at its
    /// device's next crash instant survives the crash; one completing a
    /// cycle after it is lost to the crash and retried.
    #[test]
    fn booking_fate_boundary_is_the_crash_instant() {
        let s = ClusterScenario::new("RR", Benchmark::Stem, ArrivalRate::Low, 1, 1, 3);
        let job = whole_stream(&s)[0];
        // Room for the retry to pass the laxity gate after a full service.
        assert!(job.service_est.as_cycles() * 2 < s.bench.deadline().as_cycles());
        let completion = job.arrival + job.service_est;
        let run = |at: Cycle| {
            let crash = DeviceCrash { device: 0, at, until: completion + Duration::from_cycles(1) };
            ClusterBuilder::new(s.clone())
                .jitter(0.0)
                .retry_backoff(Duration::from_cycles(1))
                .fleet_faults(FleetFaultPlan { crashes: vec![crash], ..FleetFaultPlan::none() })
                .run()
                .unwrap()
        };
        let on_time = run(completion);
        assert_eq!((on_time.completed, on_time.met, on_time.retried, on_time.lost), (1, 1, 0, 0));
        let late = run(Cycle::from_cycles(completion.as_cycles() - 1));
        assert_eq!((late.completed, late.retried, late.lost), (1, 1, 0));
        assert_eq!(late.per_device_jobs, vec![2], "the lost booking and its retry");
        assert!(late.latency_us.max() > on_time.latency_us.max());
    }

    /// A crash window over the middle of the stream on half the fleet.
    /// Spans derive from the actual arrival stream so losses are
    /// guaranteed, not luck.
    fn mid_stream_crash(s: &ClusterScenario) -> FleetFaultPlan {
        let jobs = whole_stream(s);
        let span = jobs.last().unwrap().arrival;
        let at = Cycle::from_cycles(span.as_cycles() / 4);
        let until = Cycle::from_cycles(span.as_cycles() / 2);
        FleetFaultPlan {
            crashes: vec![
                DeviceCrash { device: 0, at, until },
                DeviceCrash { device: 1, at, until },
            ],
            ..FleetFaultPlan::none()
        }
    }

    #[test]
    fn crashes_conserve_jobs_and_retries_recover_work() {
        let s = scen("RR");
        let plan = mid_stream_crash(&s);
        let r = ClusterBuilder::new(s.clone()).fleet_faults(plan.clone()).run().unwrap();
        assert_eq!(
            r.completed + r.rejected + r.shed + r.lost,
            r.total,
            "every job must be completed, rejected, shed or lost"
        );
        assert_eq!(r.latency_us.len() as u64, r.completed);
        assert!(r.retried > 0, "crash-lost jobs must re-enter the front door");
        assert!(r.met < r.total, "losing half the fleet mid-stream must cost deadlines");

        // Retry disabled: the same crashes turn recoveries into losses.
        let no_retry =
            ClusterBuilder::new(s).fleet_faults(plan).retry_budget(0).run().unwrap();
        assert_eq!(no_retry.retried, 0);
        assert!(no_retry.lost > 0, "with no retry budget, crash-lost jobs stay lost");
        assert_eq!(
            no_retry.completed + no_retry.rejected + no_retry.shed + no_retry.lost,
            no_retry.total
        );
        assert!(no_retry.completed < r.completed, "retries must recover real work");
    }

    #[test]
    fn chaos_runs_are_bit_identical_across_worker_counts() {
        for policy in routing::names() {
            let s = scen(policy).with_fault_milli(1500);
            let one = ClusterBuilder::new(s.clone()).workers(1).run().unwrap();
            let eight = ClusterBuilder::new(s).workers(8).run().unwrap();
            assert_eq!(one, eight, "{policy}: chaos reports must not depend on worker count");
        }
    }

    #[derive(Default)]
    struct ChaosCounter {
        down: u64,
        crashed: u64,
        restored: u64,
        retried: u64,
        shed: u64,
        rejected: u64,
    }

    impl Observer<ProbeEvent> for ChaosCounter {
        fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::DeviceDown { crashed, .. } => {
                    self.down += 1;
                    self.crashed += u64::from(*crashed);
                }
                ProbeEvent::DeviceRestored { .. } => self.restored += 1,
                ProbeEvent::JobRetried { .. } => self.retried += 1,
                ProbeEvent::JobShed { .. } => self.shed += 1,
                ProbeEvent::JobRejected { .. } => self.rejected += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn chaos_probes_cover_failure_events_and_do_not_perturb() {
        let s = scen("LL");
        let plan = mid_stream_crash(&s);
        let plain = ClusterBuilder::new(s.clone()).fleet_faults(plan.clone()).run().unwrap();
        let counter = Arc::new(Mutex::new(ChaosCounter::default()));
        let observed = ClusterBuilder::new(s)
            .fleet_faults(plan)
            .observe(counter.clone())
            .run()
            .unwrap();
        assert_eq!(plain, observed, "observers must not perturb the chaos report");
        let c = counter.lock().unwrap();
        assert_eq!(c.down, 2, "both crash windows must be announced");
        assert_eq!(c.crashed, 2);
        assert_eq!(c.restored, 2, "both devices must return to rotation");
        assert_eq!(c.retried, observed.retried);
        assert_eq!(c.shed, observed.shed);
        assert_eq!(c.rejected, observed.rejected);
    }

    /// RR never rejects, so under a 3-of-4-devices-down window with one
    /// slot each, shedding is the only pressure valve — and it must fire
    /// only when enabled.
    #[test]
    fn shedding_under_degraded_capacity_is_opt_in() {
        let s = ClusterScenario::new("RR", Benchmark::Hybrid, ArrivalRate::High, 4, 2000, 7);
        let jobs = whole_stream(&s);
        let span = jobs.last().unwrap().arrival;
        let at = Cycle::from_cycles(span.as_cycles() / 8);
        let until = Cycle::from_cycles(span.as_cycles() * 7 / 8);
        let plan = FleetFaultPlan {
            outages: vec![CorrelatedOutage { first: 1, count: 3, at, until }],
            ..FleetFaultPlan::none()
        };
        let build = |shed| {
            ClusterBuilder::new(s.clone())
                .slots(1)
                .fleet_faults(plan.clone())
                .shed_degraded(shed)
                .run()
                .unwrap()
        };
        let keep = build(false);
        assert_eq!(keep.shed, 0);
        let shedding = build(true);
        assert!(shedding.shed > 0, "an overloaded survivor must shed hopeless jobs");
        assert_eq!(
            shedding.completed + shedding.rejected + shedding.shed + shedding.lost,
            shedding.total
        );
    }

    #[test]
    fn detailed_chaos_conserves_jobs_across_both_phases() {
        let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
        let jobs = whole_stream(&s);
        let span = jobs.last().unwrap().arrival;
        let plan = FleetFaultPlan {
            crashes: vec![DeviceCrash {
                device: 0,
                at: Cycle::from_cycles(span.as_cycles() / 4),
                until: Cycle::from_cycles(span.as_cycles() / 2),
            }],
            ..FleetFaultPlan::none()
        };
        let r = ClusterBuilder::new(s)
            .fidelity(Fidelity::Detailed)
            .fleet_faults(plan)
            .run()
            .unwrap();
        assert_eq!(r.fidelity, Fidelity::Detailed);
        assert_eq!(
            r.completed + r.rejected + r.device_rejected + r.shed + r.lost,
            r.total,
            "phase-2 simulations must account for every surviving booking"
        );
        assert_eq!(r.latency_us.len() as u64, r.completed);
        assert!(r.completed > 0);
    }

    #[test]
    fn chaos_table_reports_failure_columns() {
        let s = scen("RR");
        let plan = mid_stream_crash(&s);
        let r = ClusterBuilder::new(s.clone()).fleet_faults(plan).run().unwrap();
        let text = chaos_table(&[r]).render();
        for needle in ["shed", "lost", "retried", "attain", "RR", "HYBRID:high"] {
            assert!(text.contains(needle), "table must mention {needle}:\n{text}");
        }
        // The intensity column reflects the scenario, not the override.
        let seeded = ClusterBuilder::new(s.with_fault_milli(1500)).run().unwrap();
        assert!(chaos_table(&[seeded]).render().contains("1.5"));
    }

    /// Checks every conservation identity [`MissBreakdown`] documents
    /// against the report's own counters.
    fn assert_attribution_conserves(r: &ClusterReport) {
        let m = &r.misses;
        assert_eq!(m.count(MissCause::FrontDoorReject), r.rejected, "front-door identity");
        assert_eq!(m.count(MissCause::DeviceReject), r.device_rejected, "device-reject identity");
        assert_eq!(
            m.count(MissCause::QueueingDelay) + m.count(MissCause::ServiceTime),
            r.completed - r.met,
            "every late completion splits into queueing vs service"
        );
        assert_eq!(
            m.count(MissCause::CrashLoss) + m.count(MissCause::RetryExhausted),
            r.lost,
            "every final loss is a crash loss or a retry exhaustion"
        );
        assert_eq!(m.count(MissCause::Shed), r.shed, "shed identity");
        assert_eq!(m.total(), r.total - r.met, "exactly one cause per non-met job");
    }

    #[test]
    fn miss_attribution_conserves_exactly_in_fast_tier() {
        for policy in routing::names() {
            let plain = ClusterBuilder::new(scen(policy)).run().unwrap();
            assert_attribution_conserves(&plain);
            let chaos = ClusterBuilder::new(scen(policy).with_fault_milli(1500))
                .retry_budget(1)
                .shed_degraded(true)
                .run()
                .unwrap();
            assert_attribution_conserves(&chaos);
            assert!(
                chaos.misses.total() > 0,
                "{policy}: heavy faults at the high rate must cost deadlines"
            );
        }
    }

    #[test]
    fn miss_attribution_conserves_exactly_in_detailed_tier() {
        let plain = ClusterBuilder::new(ClusterScenario::new(
            "LL",
            Benchmark::Ipv6,
            ArrivalRate::High,
            2,
            24,
            3,
        ))
        .fidelity(Fidelity::Detailed)
        .run()
        .unwrap();
        assert_attribution_conserves(&plain);
        let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
        let jobs = whole_stream(&s);
        let span = jobs.last().unwrap().arrival;
        let plan = FleetFaultPlan {
            crashes: vec![DeviceCrash {
                device: 0,
                at: Cycle::from_cycles(span.as_cycles() / 4),
                until: Cycle::from_cycles(span.as_cycles() / 2),
            }],
            ..FleetFaultPlan::none()
        };
        let chaos = ClusterBuilder::new(s)
            .fidelity(Fidelity::Detailed)
            .fleet_faults(plan)
            .run()
            .unwrap();
        assert_attribution_conserves(&chaos);
    }

    /// Counts outcome events and checks the post-merge stream's ordering
    /// contract (completion timestamps non-decreasing).
    #[derive(Default)]
    struct OutcomeAudit {
        completed: u64,
        met: u64,
        misses: MissBreakdown,
        prev_completion: Option<Cycle>,
        unsorted: bool,
    }

    impl Observer<ProbeEvent> for OutcomeAudit {
        fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
            match event {
                ProbeEvent::JobCompleted { met, .. } => {
                    self.completed += 1;
                    self.met += u64::from(*met);
                    if self.prev_completion.is_some_and(|prev| at < prev) {
                        self.unsorted = true;
                    }
                    self.prev_completion = Some(at);
                }
                ProbeEvent::JobMissed { cause, .. } => self.misses.add(*cause),
                _ => {}
            }
        }
    }

    #[test]
    fn fleet_observers_never_perturb_and_outcome_events_reconcile() {
        for policy in routing::names() {
            for fault in [0, 1500] {
                let s = scen(policy).with_fault_milli(fault);
                let build = || {
                    ClusterBuilder::new(s.clone()).retry_budget(1).shed_degraded(true)
                };
                let bare = build().workers(1).run().unwrap();
                let sampler = Arc::new(Mutex::new(FleetSampler::new()));
                let tracer = Arc::new(Mutex::new(FleetTraceWriter::new()));
                let audit = Arc::new(Mutex::new(OutcomeAudit::default()));
                let observed = build()
                    .workers(8)
                    .observe(sampler.clone())
                    .observe(tracer.clone())
                    .observe(audit.clone())
                    .run()
                    .unwrap();
                assert_eq!(
                    bare, observed,
                    "{policy}/f{fault}: observers and worker count must not change the report"
                );
                let a = audit.lock().unwrap();
                assert!(!a.unsorted, "{policy}/f{fault}: completions must arrive time-sorted");
                assert_eq!(a.completed, observed.completed);
                assert_eq!(a.met, observed.met);
                assert_eq!(
                    a.misses, observed.misses,
                    "{policy}/f{fault}: probe misses must mirror the report breakdown"
                );
                let sam = sampler.lock().unwrap();
                assert_eq!(sam.misses(), &observed.misses);
                assert!(sam.to_csv().lines().count() > 1);
                sim_core::json::validate(&sam.to_json()).unwrap();
                sim_core::json::validate(&tracer.lock().unwrap().finish()).unwrap();
            }
        }
    }

    #[test]
    fn detailed_chaos_outcome_events_match_both_phases() {
        let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
        let jobs = whole_stream(&s);
        let span = jobs.last().unwrap().arrival;
        let plan = FleetFaultPlan {
            crashes: vec![DeviceCrash {
                device: 0,
                at: Cycle::from_cycles(span.as_cycles() / 4),
                until: Cycle::from_cycles(span.as_cycles() / 2),
            }],
            ..FleetFaultPlan::none()
        };
        let build = || {
            ClusterBuilder::new(s.clone()).fidelity(Fidelity::Detailed).fleet_faults(plan.clone())
        };
        let bare = build().run().unwrap();
        let audit = Arc::new(Mutex::new(OutcomeAudit::default()));
        let observed = build().observe(audit.clone()).run().unwrap();
        assert_eq!(bare, observed, "detailed-tier observers must not perturb either phase");
        let a = audit.lock().unwrap();
        assert_eq!(a.completed, observed.completed, "one JobCompleted per phase-2 completion");
        assert_eq!(a.misses, observed.misses);
    }
}
