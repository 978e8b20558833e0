//! Declarative scenario files: experiments as data, not code.
//!
//! A scenario file is one JSON document (parsed with [`sim_core::json`] —
//! no external deps) describing everything a sweep cell varies: the
//! workload (a named [`Benchmark`] or an inline kernel DAG with per-stage
//! deadlines, rtdag-style), the arrival process (named Table-4 levels, or
//! the file's own jobs/sec table for inline DAGs), a fault-plan intensity,
//! and an optional fleet topology. `lax-bench` binaries accept
//! `--scenario-file` and expand it into the same cells the sweep strings
//! name (`lax_bench::scenario_file`); see `examples/scenarios/` for
//! committed exemplars.
//!
//! # Schema
//!
//! ```json
//! {
//!   "name": "ipa-fleet",
//!   "seed": 20210301,
//!   "jobs": 2000,
//!   "schedulers": ["LAX"],
//!   "rates": ["high"],
//!   "workload": "IPA",
//!   "fault_intensity": 1.0,
//!   "fleet": { "devices": 4, "policy": "LL" }
//! }
//! ```
//!
//! `workload` is either a benchmark name or an inline DAG object:
//!
//! ```json
//! {
//!   "deadline_us": 3000,
//!   "rate_jobs_per_sec": { "high": 4000, "medium": 2000, "low": 1000 },
//!   "stages": [ { "kernel": "gmm" }, { "kernel": "stem", "deadline_us": 800 } ],
//!   "edges": [ [0, 1] ]
//! }
//! ```
//!
//! Parsing returns typed [`ScenarioFileError`]s — malformed input never
//! panics — and [`ScenarioFile`]'s `Display` emits canonical JSON that
//! parses back to an equal value (a lossless round trip, like
//! `lax_bench::sweep::Scenario`'s string form).
//!
//! # Seeding
//!
//! [`ScenarioFile::cell_seed`] is the one cell-seed recipe,
//! [`crate::spec::cell_seed`], that the sweep and cluster cells use too: it
//! hashes the base seed and the workload-identifying fields (workload tag,
//! rate, job count) and never the scheduler, policy, or worker count — so
//! paired comparisons and `--jobs N` byte-identity carry over to
//! file-driven cells, and a file naming a benchmark reproduces the sweep
//! cell byte-for-byte.
//!
//! `fault_intensity` is stored as fixed-point milli-units through the one
//! conversion the cell strings use ([`crate::spec::intensity_to_milli`]),
//! so a value finer than a milli or beyond `u32` milli-units fails typed
//! instead of being rounded.

use std::fmt;
use std::str::FromStr;

use gpu_sim::job::{JobDesc, JobError, JobGraph};
use sim_core::json::{self, JsonError, Value};
use sim_core::time::Duration;

use crate::spec::{cell_seed, intensity_to_milli, milli_to_intensity, ArrivalRate, Benchmark};
use crate::stream::{Arrivals, Workload};
use crate::suite::BenchmarkSuite;

/// Why a scenario file was rejected. Every malformed input maps to one of
/// these — parsing never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioFileError {
    /// The document is not syntactically valid JSON.
    Json(JsonError),
    /// A required key is absent.
    Missing {
        /// The absent key.
        key: &'static str,
    },
    /// A key holds a value of the wrong JSON type.
    Type {
        /// The offending key (dotted path).
        key: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// A key holds a well-typed but invalid value.
    Value {
        /// The offending key (dotted path).
        key: String,
        /// Why the value is rejected.
        why: String,
    },
    /// A key outside the schema (typos fail loudly instead of silently
    /// doing nothing).
    UnknownKey {
        /// The unrecognized key.
        key: String,
    },
    /// The inline workload's stages/edges do not form a valid job graph
    /// (cycle, dangling edge, empty, zero deadline).
    Graph(JobError),
}

impl fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioFileError::Json(e) => write!(f, "scenario file: {e}"),
            ScenarioFileError::Missing { key } => {
                write!(f, "scenario file: missing required key `{key}`")
            }
            ScenarioFileError::Type { key, expected } => {
                write!(f, "scenario file: key `{key}` must be {expected}")
            }
            ScenarioFileError::Value { key, why } => {
                write!(f, "scenario file: bad value for `{key}`: {why}")
            }
            ScenarioFileError::UnknownKey { key } => {
                write!(f, "scenario file: unknown key `{key}`")
            }
            ScenarioFileError::Graph(e) => {
                write!(f, "scenario file: invalid workload graph: {e}")
            }
        }
    }
}

impl std::error::Error for ScenarioFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioFileError::Json(e) => Some(e),
            ScenarioFileError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for ScenarioFileError {
    fn from(e: JsonError) -> Self {
        ScenarioFileError::Json(e)
    }
}

impl From<JobError> for ScenarioFileError {
    fn from(e: JobError) -> Self {
        ScenarioFileError::Graph(e)
    }
}

/// One stage of an inline DAG workload: a calibrated kernel by name, with
/// an optional per-stage relative deadline (from job arrival).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Calibrated kernel name (e.g. `"gmm"`, `"stem"`, `"cuckoo"`).
    pub kernel: String,
    /// Optional per-stage relative deadline in microseconds.
    pub deadline_us: Option<f64>,
}

/// An inline DAG workload: stages, precedence edges, an end-to-end
/// deadline, and the file's own arrival-rate table (inline workloads have
/// no Table-4 row).
#[derive(Debug, Clone, PartialEq)]
pub struct DagSpec {
    /// End-to-end relative deadline in microseconds (> 0).
    pub deadline_us: f64,
    /// Arrival rates in jobs/sec, indexed by [`ArrivalRate`]
    /// `[high, medium, low]`.
    pub rate_jobs_per_sec: [f64; 3],
    /// The kernel stages, in declaration order.
    pub stages: Vec<StageSpec>,
    /// Precedence edges `(from, to)` between stage indices.
    pub edges: Vec<(u32, u32)>,
}

impl DagSpec {
    /// The arrival rate in jobs/sec at a named level.
    pub fn rate(&self, rate: ArrivalRate) -> f64 {
        match rate {
            ArrivalRate::High => self.rate_jobs_per_sec[0],
            ArrivalRate::Medium => self.rate_jobs_per_sec[1],
            ArrivalRate::Low => self.rate_jobs_per_sec[2],
        }
    }

    /// Materializes the spec as a validated [`JobGraph`] over `suite`'s
    /// calibrated kernels, with per-stage deadlines applied.
    ///
    /// # Errors
    ///
    /// [`ScenarioFileError::Value`] for unknown kernel names;
    /// [`ScenarioFileError::Graph`] when the edges are cyclic or dangling.
    pub fn build_graph(&self, suite: &BenchmarkSuite) -> Result<JobGraph, ScenarioFileError> {
        let mut stages = Vec::with_capacity(self.stages.len());
        for (i, st) in self.stages.iter().enumerate() {
            let kernel = suite.try_kernel(&st.kernel).ok_or_else(|| ScenarioFileError::Value {
                key: format!("workload.stages[{i}].kernel"),
                why: format!("unknown kernel `{}`", st.kernel),
            })?;
            stages.push(kernel);
        }
        let mut graph = JobGraph::new(stages, self.edges.clone())?;
        for (i, st) in self.stages.iter().enumerate() {
            if let Some(d) = st.deadline_us {
                graph = graph.with_stage_deadline(i, Duration::from_us_f64(d));
            }
        }
        Ok(graph)
    }
}

/// The workload a scenario file runs: a named benchmark (chains or the
/// built-in DAGs) or an inline DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A built-in benchmark by name.
    Named(Benchmark),
    /// An inline DAG defined in the file.
    Inline(DagSpec),
}

/// An optional fleet topology: run the workload through the cluster front
/// door instead of a single device.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Number of devices behind the router (≥ 1).
    pub devices: usize,
    /// Routing policy name (see `schedulers::routing`).
    pub policy: String,
}

/// A parsed scenario file. See the [module docs](self) for the schema and
/// `lax_bench::scenario_file` for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Human-readable scenario name; labels inline workloads' jobs.
    pub name: String,
    /// Base RNG seed (per-cell streams come from [`ScenarioFile::cell_seed`]).
    pub seed: u64,
    /// Jobs per cell.
    pub n_jobs: usize,
    /// Device schedulers to sweep. A fleet file names one: its fast-tier
    /// devices have no scheduler, so more would only repeat its cells.
    pub schedulers: Vec<String>,
    /// Arrival-rate levels to sweep.
    pub rates: Vec<ArrivalRate>,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Fault-plan intensity in milli-units (`1000` = intensity 1.0; `0` =
    /// fault-free), the fixed point the sweep and cluster cells store.
    pub fault_milli: u32,
    /// Optional fleet topology.
    pub fleet: Option<FleetSpec>,
}

const NO_COLON: &str = "a name without ':' (the scenario-string separator)";

impl ScenarioFile {
    /// Parses one JSON scenario document.
    ///
    /// # Errors
    ///
    /// A typed [`ScenarioFileError`] locating the first offending key —
    /// malformed input never panics.
    pub fn parse(s: &str) -> Result<ScenarioFile, ScenarioFileError> {
        let doc = json::parse(s)?;
        let Value::Object(pairs) = &doc else {
            return Err(ScenarioFileError::Type { key: "<document>".into(), expected: "an object" });
        };
        let mut name = None;
        let mut seed = None;
        let mut n_jobs = None;
        let mut schedulers = None;
        let mut rates = None;
        let mut workload = None;
        let mut fault_milli = None;
        let mut fleet = None;
        for (key, value) in pairs {
            match key.as_str() {
                "name" => name = Some(str_value(value, "name")?.to_string()),
                "seed" => seed = Some(u64_value(value, "seed")?),
                "jobs" => n_jobs = Some(positive_usize(value, "jobs")?),
                "schedulers" => schedulers = Some(name_list(value, "schedulers")?),
                "rates" => rates = Some(rate_list(value)?),
                "workload" => workload = Some(parse_workload(value)?),
                "fault_intensity" => {
                    let v = f64_value(value, "fault_intensity")?;
                    let milli = intensity_to_milli(v).ok_or_else(|| ScenarioFileError::Value {
                        key: "fault_intensity".into(),
                        why: format!(
                            "must be >= 0 in whole thousandths, at most {}, got {v}",
                            milli_to_intensity(u32::MAX)
                        ),
                    })?;
                    fault_milli = Some(milli);
                }
                "fleet" => fleet = Some(parse_fleet(value)?),
                other => {
                    return Err(ScenarioFileError::UnknownKey { key: other.to_string() });
                }
            }
        }
        Ok(ScenarioFile {
            name: name.ok_or(ScenarioFileError::Missing { key: "name" })?,
            seed: seed.ok_or(ScenarioFileError::Missing { key: "seed" })?,
            n_jobs: n_jobs.ok_or(ScenarioFileError::Missing { key: "jobs" })?,
            schedulers: schedulers.unwrap_or_else(|| vec!["RR".into(), "LAX".into()]),
            rates: rates.unwrap_or_else(|| vec![ArrivalRate::High]),
            workload: workload.ok_or(ScenarioFileError::Missing { key: "workload" })?,
            fault_milli: fault_milli.unwrap_or(0),
            fleet,
        })
    }

    /// The seed actually fed to a single-device cell's workload generator:
    /// [`crate::spec::cell_seed`] over the base seed, the workload tag (the
    /// benchmark name, or `dag-file:NAME` for an inline DAG), the rate and
    /// the job count — for named workloads the same value as the sweep
    /// engine's `Scenario::cell_seed`, so a file naming a benchmark
    /// reproduces that sweep cell byte-for-byte.
    pub fn cell_seed(&self, rate: ArrivalRate) -> u64 {
        match &self.workload {
            WorkloadSpec::Named(b) => cell_seed(self.seed, b.name(), rate, None, self.n_jobs),
            WorkloadSpec::Inline(_) => {
                let tag = format!("dag-file:{}", self.name);
                cell_seed(self.seed, &tag, rate, None, self.n_jobs)
            }
        }
    }

    /// Generates the cell's job stream at one rate level: named workloads
    /// delegate to [`BenchmarkSuite::generate_jobs`] (byte-identical to the
    /// sweep engine's cells), and an inline DAG is one more
    /// [`Workload`] on the same [`Arrivals`] stream, at the file's own
    /// rate table.
    ///
    /// # Errors
    ///
    /// Inline workloads can fail to materialize: unknown kernel names, a
    /// cyclic/dangling edge list, a zero deadline, or a rate level the file
    /// maps to a non-positive jobs/sec.
    pub fn generate_jobs(
        &self,
        suite: &BenchmarkSuite,
        rate: ArrivalRate,
    ) -> Result<Vec<JobDesc>, ScenarioFileError> {
        match &self.workload {
            WorkloadSpec::Named(b) => {
                Ok(suite.generate_jobs(*b, rate, self.n_jobs, self.cell_seed(rate)))
            }
            WorkloadSpec::Inline(spec) => {
                let graph = spec.build_graph(suite)?;
                let per_sec = spec.rate(rate);
                if per_sec.is_nan() || per_sec <= 0.0 {
                    return Err(ScenarioFileError::Value {
                        key: format!("workload.rate_jobs_per_sec.{rate}"),
                        why: format!("must be > 0 jobs/sec, got {per_sec}"),
                    });
                }
                let workload = Workload::Graph(self.name.as_str().into(), graph);
                let arrivals = Arrivals::new(workload, self.cell_seed(rate), per_sec, self.n_jobs);
                Ok(arrivals.into_jobs(suite, Duration::from_us_f64(spec.deadline_us))?)
            }
        }
    }
}

impl FromStr for ScenarioFile {
    type Err = ScenarioFileError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioFile::parse(s)
    }
}

/// Canonical JSON emission; [`ScenarioFile::parse`] of the output yields
/// an equal value (lossless round trip).
impl fmt::Display for ScenarioFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", json::escaped(&self.name)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"jobs\": {},\n", self.n_jobs));
        out.push_str("  \"schedulers\": [");
        for (i, s) in self.schedulers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json::escaped(s)));
        }
        out.push_str("],\n  \"rates\": [");
        for (i, r) in self.rates.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{r}\""));
        }
        out.push_str("],\n");
        match &self.workload {
            WorkloadSpec::Named(b) => {
                out.push_str(&format!("  \"workload\": \"{b}\",\n"));
            }
            WorkloadSpec::Inline(d) => {
                out.push_str("  \"workload\": {\n");
                out.push_str(&format!("    \"deadline_us\": {},\n", d.deadline_us));
                out.push_str(&format!(
                    "    \"rate_jobs_per_sec\": {{ \"high\": {}, \"medium\": {}, \"low\": {} }},\n",
                    d.rate_jobs_per_sec[0], d.rate_jobs_per_sec[1], d.rate_jobs_per_sec[2]
                ));
                out.push_str("    \"stages\": [\n");
                for (i, st) in d.stages.iter().enumerate() {
                    out.push_str(&format!("      {{ \"kernel\": \"{}\"", json::escaped(&st.kernel)));
                    if let Some(dl) = st.deadline_us {
                        out.push_str(&format!(", \"deadline_us\": {dl}"));
                    }
                    out.push_str(if i + 1 == d.stages.len() { " }\n" } else { " },\n" });
                }
                out.push_str("    ],\n    \"edges\": [");
                for (i, (a, b)) in d.edges.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("[{a}, {b}]"));
                }
                out.push_str("]\n  },\n");
            }
        }
        out.push_str(&format!("  \"fault_intensity\": {}", milli_to_intensity(self.fault_milli)));
        if let Some(fleet) = &self.fleet {
            out.push_str(&format!(
                ",\n  \"fleet\": {{ \"devices\": {}, \"policy\": \"{}\" }}",
                fleet.devices,
                json::escaped(&fleet.policy)
            ));
        }
        out.push_str("\n}\n");
        f.write_str(&out)
    }
}

fn type_err(key: impl Into<String>, expected: &'static str) -> ScenarioFileError {
    ScenarioFileError::Type { key: key.into(), expected }
}

fn str_value<'v>(v: &'v Value, key: &str) -> Result<&'v str, ScenarioFileError> {
    v.as_str().ok_or_else(|| type_err(key, "a string"))
}

fn f64_value(v: &Value, key: &str) -> Result<f64, ScenarioFileError> {
    v.as_f64().ok_or_else(|| type_err(key, "a number"))
}

/// Integers ride in JSON numbers; anything fractional, negative, or beyond
/// the f64-exact range is rejected rather than silently truncated.
fn u64_value(v: &Value, key: &str) -> Result<u64, ScenarioFileError> {
    let n = f64_value(v, key)?;
    if n.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&n) {
        return Err(ScenarioFileError::Value {
            key: key.to_string(),
            why: format!("must be a non-negative integer (≤ 2^53), got {n}"),
        });
    }
    Ok(n as u64)
}

fn positive_usize(v: &Value, key: &str) -> Result<usize, ScenarioFileError> {
    let n = u64_value(v, key)?;
    if n == 0 {
        return Err(ScenarioFileError::Value {
            key: key.to_string(),
            why: "must be positive".into(),
        });
    }
    Ok(n as usize)
}

fn name_list(v: &Value, key: &str) -> Result<Vec<String>, ScenarioFileError> {
    let items = v.as_array().ok_or_else(|| type_err(key, "an array of names"))?;
    if items.is_empty() {
        return Err(ScenarioFileError::Value { key: key.into(), why: "must not be empty".into() });
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let name = str_value(item, &format!("{key}[{i}]"))?;
            if name.is_empty() || name.contains(':') {
                return Err(ScenarioFileError::Value {
                    key: format!("{key}[{i}]"),
                    why: format!("`{name}` is not {NO_COLON}"),
                });
            }
            Ok(name.to_string())
        })
        .collect()
}

fn rate_list(v: &Value) -> Result<Vec<ArrivalRate>, ScenarioFileError> {
    let items = v.as_array().ok_or_else(|| type_err("rates", "an array of rate names"))?;
    if items.is_empty() {
        return Err(ScenarioFileError::Value {
            key: "rates".into(),
            why: "must not be empty".into(),
        });
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let name = str_value(item, &format!("rates[{i}]"))?;
            name.parse().map_err(|e| ScenarioFileError::Value {
                key: format!("rates[{i}]"),
                why: format!("{e}"),
            })
        })
        .collect()
}

fn parse_workload(v: &Value) -> Result<WorkloadSpec, ScenarioFileError> {
    match v {
        Value::String(name) => name
            .parse()
            .map(WorkloadSpec::Named)
            .map_err(|e| ScenarioFileError::Value { key: "workload".into(), why: format!("{e}") }),
        Value::Object(pairs) => parse_dag(pairs).map(WorkloadSpec::Inline),
        _ => Err(type_err("workload", "a benchmark name or an inline DAG object")),
    }
}

fn parse_dag(pairs: &[(String, Value)]) -> Result<DagSpec, ScenarioFileError> {
    let mut deadline_us = None;
    let mut rate_jobs_per_sec = None;
    let mut stages = None;
    let mut edges = None;
    for (key, value) in pairs {
        match key.as_str() {
            "deadline_us" => {
                let v = f64_value(value, "workload.deadline_us")?;
                if v.is_nan() || v <= 0.0 {
                    return Err(ScenarioFileError::Value {
                        key: "workload.deadline_us".into(),
                        why: format!("must be > 0, got {v}"),
                    });
                }
                deadline_us = Some(v);
            }
            "rate_jobs_per_sec" => rate_jobs_per_sec = Some(parse_rate_table(value)?),
            "stages" => stages = Some(parse_stages(value)?),
            "edges" => edges = Some(parse_edges(value)?),
            other => {
                return Err(ScenarioFileError::UnknownKey { key: format!("workload.{other}") });
            }
        }
    }
    Ok(DagSpec {
        deadline_us: deadline_us
            .ok_or(ScenarioFileError::Missing { key: "workload.deadline_us" })?,
        rate_jobs_per_sec: rate_jobs_per_sec
            .ok_or(ScenarioFileError::Missing { key: "workload.rate_jobs_per_sec" })?,
        stages: stages.ok_or(ScenarioFileError::Missing { key: "workload.stages" })?,
        edges: edges.ok_or(ScenarioFileError::Missing { key: "workload.edges" })?,
    })
}

fn parse_rate_table(v: &Value) -> Result<[f64; 3], ScenarioFileError> {
    let Value::Object(pairs) = v else {
        return Err(type_err(
            "workload.rate_jobs_per_sec",
            "an object with high/medium/low jobs-per-sec",
        ));
    };
    let mut table = [None; 3];
    for (key, value) in pairs {
        let slot = match key.as_str() {
            "high" => 0,
            "medium" => 1,
            "low" => 2,
            other => {
                return Err(ScenarioFileError::UnknownKey {
                    key: format!("workload.rate_jobs_per_sec.{other}"),
                });
            }
        };
        let path = format!("workload.rate_jobs_per_sec.{key}");
        let rate = f64_value(value, &path)?;
        if rate.is_nan() || rate <= 0.0 {
            return Err(ScenarioFileError::Value {
                key: path,
                why: format!("must be > 0 jobs/sec, got {rate}"),
            });
        }
        table[slot] = Some(rate);
    }
    match table {
        [Some(h), Some(m), Some(l)] => Ok([h, m, l]),
        _ => Err(ScenarioFileError::Missing { key: "workload.rate_jobs_per_sec.{high,medium,low}" }),
    }
}

fn parse_stages(v: &Value) -> Result<Vec<StageSpec>, ScenarioFileError> {
    let items = v.as_array().ok_or_else(|| type_err("workload.stages", "an array of stages"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let Value::Object(pairs) = item else {
                return Err(type_err(format!("workload.stages[{i}]"), "an object"));
            };
            let mut kernel = None;
            let mut deadline_us = None;
            for (key, value) in pairs {
                match key.as_str() {
                    "kernel" => {
                        kernel =
                            Some(str_value(value, &format!("workload.stages[{i}].kernel"))?
                                .to_string());
                    }
                    "deadline_us" => {
                        let path = format!("workload.stages[{i}].deadline_us");
                        let v = f64_value(value, &path)?;
                        if v.is_nan() || v <= 0.0 {
                            return Err(ScenarioFileError::Value {
                                key: path,
                                why: format!("must be > 0, got {v}"),
                            });
                        }
                        deadline_us = Some(v);
                    }
                    other => {
                        return Err(ScenarioFileError::UnknownKey {
                            key: format!("workload.stages[{i}].{other}"),
                        });
                    }
                }
            }
            Ok(StageSpec {
                kernel: kernel.ok_or(ScenarioFileError::Missing { key: "workload.stages[].kernel" })?,
                deadline_us,
            })
        })
        .collect()
}

fn parse_edges(v: &Value) -> Result<Vec<(u32, u32)>, ScenarioFileError> {
    let items = v.as_array().ok_or_else(|| type_err("workload.edges", "an array of [from, to] pairs"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let path = format!("workload.edges[{i}]");
            let pair = item.as_array().ok_or_else(|| type_err(path.clone(), "a [from, to] pair"))?;
            let [a, b] = pair else {
                return Err(type_err(path, "a [from, to] pair"));
            };
            let from = u64_value(a, &format!("workload.edges[{i}][0]"))?;
            let to = u64_value(b, &format!("workload.edges[{i}][1]"))?;
            let narrow = |v: u64, end: usize| -> Result<u32, ScenarioFileError> {
                u32::try_from(v).map_err(|_| ScenarioFileError::Value {
                    key: format!("workload.edges[{i}][{end}]"),
                    why: format!("stage index {v} out of range"),
                })
            };
            Ok((narrow(from, 0)?, narrow(to, 1)?))
        })
        .collect()
}

fn parse_fleet(v: &Value) -> Result<FleetSpec, ScenarioFileError> {
    let Value::Object(pairs) = v else {
        return Err(type_err("fleet", "an object with devices and policy"));
    };
    let mut devices = None;
    let mut policy = None;
    for (key, value) in pairs {
        match key.as_str() {
            "devices" => devices = Some(positive_usize(value, "fleet.devices")?),
            "policy" => {
                let name = str_value(value, "fleet.policy")?;
                if name.is_empty() || name.contains(':') {
                    return Err(ScenarioFileError::Value {
                        key: "fleet.policy".into(),
                        why: format!("`{name}` is not {NO_COLON}"),
                    });
                }
                policy = Some(name.to_string());
            }
            other => {
                return Err(ScenarioFileError::UnknownKey { key: format!("fleet.{other}") });
            }
        }
    }
    Ok(FleetSpec {
        devices: devices.ok_or(ScenarioFileError::Missing { key: "fleet.devices" })?,
        policy: policy.ok_or(ScenarioFileError::Missing { key: "fleet.policy" })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline_file() -> ScenarioFile {
        ScenarioFile {
            name: "diamond".into(),
            seed: 7,
            n_jobs: 16,
            schedulers: vec!["RR".into(), "LAX".into()],
            rates: vec![ArrivalRate::High, ArrivalRate::Low],
            workload: WorkloadSpec::Inline(DagSpec {
                deadline_us: 3000.0,
                rate_jobs_per_sec: [4000.0, 2000.0, 1000.0],
                stages: vec![
                    StageSpec { kernel: "gmm".into(), deadline_us: None },
                    StageSpec { kernel: "stem".into(), deadline_us: Some(800.0) },
                    StageSpec { kernel: "stem".into(), deadline_us: None },
                    StageSpec { kernel: "stem".into(), deadline_us: None },
                ],
                edges: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            }),
            fault_milli: 500,
            fleet: None,
        }
    }

    #[test]
    fn named_file_round_trips() {
        let file = ScenarioFile {
            name: "fig8".into(),
            seed: 20210301,
            n_jobs: 128,
            schedulers: vec!["LAX-SW".into(), "LAX".into()],
            rates: vec![ArrivalRate::High],
            workload: WorkloadSpec::Named(Benchmark::Gmm),
            fault_milli: 0,
            fleet: Some(FleetSpec { devices: 4, policy: "LL".into() }),
        };
        let text = file.to_string();
        assert_eq!(text.parse::<ScenarioFile>().unwrap(), file);
    }

    #[test]
    fn inline_file_round_trips() {
        let file = inline_file();
        assert_eq!(file.to_string().parse::<ScenarioFile>().unwrap(), file);
    }

    #[test]
    fn named_cell_seed_matches_the_sweep_recipe() {
        // Mirrors `lax_bench::sweep::Scenario::cell_seed` — the doc promise
        // that a file naming a benchmark reproduces the sweep cell.
        let file = ScenarioFile {
            name: "x".into(),
            seed: 42,
            n_jobs: 128,
            schedulers: vec!["LAX".into()],
            rates: vec![ArrivalRate::High],
            workload: WorkloadSpec::Named(Benchmark::Ipv6),
            fault_milli: 0,
            fleet: None,
        };
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&42u64.to_le_bytes());
        eat(b"IPV6");
        eat(b":");
        eat(b"high");
        eat(&128u64.to_le_bytes());
        assert_eq!(file.cell_seed(ArrivalRate::High), h);
    }

    #[test]
    fn inline_jobs_materialize_the_dag() {
        let suite = BenchmarkSuite::calibrated();
        let file = inline_file();
        let jobs = file.generate_jobs(suite, ArrivalRate::High).unwrap();
        assert_eq!(jobs.len(), 16);
        for job in &jobs {
            assert_eq!(job.kernels().len(), 4);
            assert!(!job.graph().is_chain());
            assert_eq!(job.graph().stage_deadline(1), Some(Duration::from_us_f64(800.0)));
            assert_eq!(job.deadline, Duration::from_us_f64(3000.0));
        }
        // Same rate, same seed: deterministic stream.
        let again = file.generate_jobs(suite, ArrivalRate::High).unwrap();
        assert_eq!(jobs.len(), again.len());
        assert!(jobs.iter().zip(&again).all(|(a, b)| a.arrival == b.arrival));
    }

    #[test]
    fn typed_errors_cover_the_failure_modes() {
        // Malformed JSON.
        assert!(matches!(
            ScenarioFile::parse("{").unwrap_err(),
            ScenarioFileError::Json(_)
        ));
        // Missing required keys.
        assert_eq!(
            ScenarioFile::parse(r#"{"seed": 1, "jobs": 4, "workload": "GMM"}"#).unwrap_err(),
            ScenarioFileError::Missing { key: "name" }
        );
        // Wrong type.
        assert_eq!(
            ScenarioFile::parse(r#"{"name": 3}"#).unwrap_err(),
            ScenarioFileError::Type { key: "name".into(), expected: "a string" }
        );
        // Unknown key.
        assert_eq!(
            ScenarioFile::parse(r#"{"wat": 1}"#).unwrap_err(),
            ScenarioFileError::UnknownKey { key: "wat".into() }
        );
        // Bad benchmark name.
        assert!(matches!(
            ScenarioFile::parse(
                r#"{"name": "x", "seed": 1, "jobs": 4, "workload": "NOPE"}"#
            )
            .unwrap_err(),
            ScenarioFileError::Value { key, .. } if key == "workload"
        ));
        // Zero jobs.
        assert!(matches!(
            ScenarioFile::parse(
                r#"{"name": "x", "seed": 1, "jobs": 0, "workload": "GMM"}"#
            )
            .unwrap_err(),
            ScenarioFileError::Value { key, .. } if key == "jobs"
        ));
        // A scheduler name with the scenario-string separator.
        assert!(matches!(
            ScenarioFile::parse(
                r#"{"name": "x", "seed": 1, "jobs": 4, "workload": "GMM", "schedulers": ["a:b"]}"#
            )
            .unwrap_err(),
            ScenarioFileError::Value { key, .. } if key == "schedulers[0]"
        ));
    }

    #[test]
    fn fault_intensity_must_convert_exactly_to_milli() {
        let with = |v: &str| {
            ScenarioFile::parse(&format!(
                r#"{{"name": "x", "seed": 1, "jobs": 4, "workload": "GMM",
                    "fault_intensity": {v}}}"#
            ))
        };
        // 1e300 used to reach the fault planner unbounded; 0.0004 and
        // 1.0005 used to round differently on device and fleet cells.
        for v in ["1e300", "0.0004", "1.0005", "-1", "4294968"] {
            let err = with(v);
            assert!(
                matches!(&err, Err(ScenarioFileError::Value { key, .. }) if key == "fault_intensity"),
                "{v} must be rejected, got {err:?}"
            );
        }
        let max = ("4294967.295", u32::MAX);
        for (v, milli) in [("0", 0), ("0.001", 1), ("1", 1000), ("1.5", 1500), max] {
            assert_eq!(with(v).unwrap().fault_milli, milli, "{v}");
        }
    }

    #[test]
    fn inline_graph_errors_are_typed() {
        let suite = BenchmarkSuite::calibrated();
        let mut file = inline_file();
        // Unknown kernel name.
        if let WorkloadSpec::Inline(d) = &mut file.workload {
            d.stages[0].kernel = "warp-drive".into();
        }
        assert!(matches!(
            file.generate_jobs(suite, ArrivalRate::High).unwrap_err(),
            ScenarioFileError::Value { key, .. } if key == "workload.stages[0].kernel"
        ));
        // A cycle in the edges.
        let mut file = inline_file();
        if let WorkloadSpec::Inline(d) = &mut file.workload {
            d.edges = vec![(0, 1), (1, 0)];
        }
        assert_eq!(
            file.generate_jobs(suite, ArrivalRate::High).unwrap_err(),
            ScenarioFileError::Graph(JobError::CycleDetected)
        );
        // A dangling edge.
        let mut file = inline_file();
        if let WorkloadSpec::Inline(d) = &mut file.workload {
            d.edges = vec![(0, 9)];
        }
        assert_eq!(
            file.generate_jobs(suite, ArrivalRate::High).unwrap_err(),
            ScenarioFileError::Graph(JobError::DanglingEdge { from: 0, to: 9, stages: 4 })
        );
    }
}
