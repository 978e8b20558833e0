//! The fleet cell: one cluster experiment, its string form and its seeds,
//! plus the committed grids and the command-line cells built from it.

use std::fmt;
use std::str::FromStr;

use schedulers::routing;
use sim_core::rng::Fnv1a;
use workloads::spec::{cell_seed, milli_to_intensity, ArrivalRate, Benchmark};

use crate::runner::DEFAULT_SEED;
use crate::sweep::{CellFields, ParseScenarioError};

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
        ClusterScenario {
            policy: policy.to_string(),
            bench,
            rate,
            devices,
            n_jobs,
            seed,
            fault_milli: 0,
        }
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

/// Parses a fleet binary's positional arguments ([`crate::cli::Cli::positionals`])
/// as cell strings.
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
