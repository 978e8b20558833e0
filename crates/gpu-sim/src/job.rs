//! Jobs: a deadline-annotated DAG of dependent kernels on one stream.
//!
//! A job is a [`JobGraph`] — kernel stages plus precedence edges, validated
//! acyclic at construction — with an end-to-end relative deadline and
//! optional per-stage relative deadlines. The linear chain every classic
//! benchmark uses is the degenerate case ([`JobGraph::chain`] /
//! [`JobDesc::chain`]): stage `i` depends on stage `i-1` and exactly one
//! stage is ready at a time, so chain jobs execute with the same event
//! sequence as the original chain-only model.

use std::fmt;
use std::sync::Arc;

use sim_core::time::{Cycle, Duration};

use crate::kernel::KernelDesc;

/// Globally unique job identifier within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a job description was rejected at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The stage list is empty.
    EmptyGraph,
    /// The end-to-end deadline is zero.
    ZeroDeadline,
    /// The precedence edges contain a cycle, so no execution order exists.
    CycleDetected,
    /// An edge endpoint is out of range or a self-loop.
    DanglingEdge {
        /// Edge source stage index.
        from: u32,
        /// Edge destination stage index.
        to: u32,
        /// Number of stages in the graph.
        stages: usize,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::EmptyGraph => write!(f, "job graph has no stages"),
            JobError::ZeroDeadline => write!(f, "job must have a positive deadline"),
            JobError::CycleDetected => write!(f, "job graph contains a dependency cycle"),
            JobError::DanglingEdge { from, to, stages } => {
                write!(f, "edge {from} -> {to} is invalid for a {stages}-stage graph")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// A validated kernel DAG: stages (kernel descriptors) plus precedence
/// edges, guaranteed non-empty and acyclic. Construction computes a
/// deterministic topological order (smallest ready stage index first, so a
/// chain's order is `0, 1, 2, ...`) and marks the stages on the
/// workgroup-weighted critical path.
#[derive(Debug, Clone)]
pub struct JobGraph {
    stages: Vec<Arc<KernelDesc>>,
    /// Sorted, deduplicated `(from, to)` pairs.
    edges: Vec<(u32, u32)>,
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
    stage_deadlines: Vec<Option<Duration>>,
    topo: Vec<u32>,
    critical: Vec<bool>,
    chain: bool,
}

impl JobGraph {
    /// Builds the degenerate linear-chain graph: stage `i+1` depends on
    /// stage `i`.
    ///
    /// # Errors
    ///
    /// [`JobError::EmptyGraph`] if `stages` is empty.
    pub fn chain(stages: Vec<Arc<KernelDesc>>) -> Result<Self, JobError> {
        let edges = (0..stages.len().saturating_sub(1)).map(|i| (i as u32, i as u32 + 1)).collect();
        JobGraph::new(stages, edges)
    }

    /// Builds a general DAG from stages and precedence edges. Duplicate
    /// edges are collapsed; stage order is preserved as given.
    ///
    /// # Errors
    ///
    /// [`JobError::EmptyGraph`] if `stages` is empty,
    /// [`JobError::DanglingEdge`] if an edge endpoint is out of range or a
    /// self-loop, [`JobError::CycleDetected`] if the edges admit no
    /// topological order.
    pub fn new(stages: Vec<Arc<KernelDesc>>, mut edges: Vec<(u32, u32)>) -> Result<Self, JobError> {
        if stages.is_empty() {
            return Err(JobError::EmptyGraph);
        }
        let n = stages.len();
        for &(from, to) in &edges {
            if from as usize >= n || to as usize >= n || from == to {
                return Err(JobError::DanglingEdge { from, to, stages: n });
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(from, to) in &edges {
            succs[from as usize].push(to);
            preds[to as usize].push(from);
        }
        let topo = topo_order(n, &preds, &succs)?;
        let chain = edges.len() == n - 1
            && edges.iter().enumerate().all(|(i, &(f, t))| f as usize == i && t as usize == i + 1);
        let critical = critical_flags(&stages, &succs, &topo);
        Ok(JobGraph {
            stages,
            edges,
            preds,
            succs,
            stage_deadlines: vec![None; n],
            topo,
            critical,
            chain,
        })
    }

    /// Builder-style setter for one stage's optional relative deadline
    /// (measured from job arrival, like the end-to-end deadline).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn with_stage_deadline(mut self, stage: usize, deadline: Duration) -> Self {
        self.stage_deadlines[stage] = Some(deadline);
        self
    }

    /// The kernel stages, in declaration order.
    #[inline]
    pub fn stages(&self) -> &[Arc<KernelDesc>] {
        &self.stages
    }

    /// Number of stages.
    #[inline]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The sorted, deduplicated precedence edges.
    #[inline]
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Direct predecessors of `stage`.
    #[inline]
    pub fn preds(&self, stage: usize) -> &[u32] {
        &self.preds[stage]
    }

    /// Direct successors of `stage`.
    #[inline]
    pub fn succs(&self, stage: usize) -> &[u32] {
        &self.succs[stage]
    }

    /// In-degree of `stage` (number of stages it waits on).
    #[inline]
    pub fn indegree(&self, stage: usize) -> u32 {
        self.preds[stage].len() as u32
    }

    /// A deterministic topological order over stage indices (smallest ready
    /// index first; `0, 1, 2, ...` for a chain). Host-side serialized
    /// launching walks this order.
    #[inline]
    pub fn topo_order(&self) -> &[u32] {
        &self.topo
    }

    /// `true` when the graph is exactly the linear chain `0 -> 1 -> ...`.
    /// Chain jobs take the original chain-walk fast paths everywhere, so
    /// pre-DAG artifacts stay byte-identical.
    #[inline]
    pub fn is_chain(&self) -> bool {
        self.chain
    }

    /// `true` when `stage` lies on the workgroup-weighted critical path
    /// (every stage of a chain does).
    #[inline]
    pub fn on_critical_path(&self, stage: usize) -> bool {
        self.critical[stage]
    }

    /// The optional per-stage relative deadline of `stage`.
    #[inline]
    pub fn stage_deadline(&self, stage: usize) -> Option<Duration> {
        self.stage_deadlines[stage]
    }
}

/// Kahn's algorithm, always draining the smallest ready index so the order
/// is deterministic and equals `0..n` for a chain.
fn topo_order(n: usize, preds: &[Vec<u32>], succs: &[Vec<u32>]) -> Result<Vec<u32>, JobError> {
    let mut indeg: Vec<u32> = preds.iter().map(|p| p.len() as u32).collect();
    let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(pos) = ready.iter().enumerate().min_by_key(|(_, &s)| s).map(|(p, _)| p) {
        let stage = ready.swap_remove(pos);
        topo.push(stage);
        for &s in &succs[stage as usize] {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                ready.push(s);
            }
        }
    }
    if topo.len() != n {
        return Err(JobError::CycleDetected);
    }
    Ok(topo)
}

/// Flags the stages on the longest workgroup-weighted path (ties broken
/// toward smaller stage indices, deterministically).
fn critical_flags(stages: &[Arc<KernelDesc>], succs: &[Vec<u32>], topo: &[u32]) -> Vec<bool> {
    let n = stages.len();
    // cp[i] = weight of the heaviest path starting at (and including) i.
    let mut cp = vec![0u64; n];
    for &i in topo.iter().rev() {
        let i = i as usize;
        let tail = succs[i].iter().map(|&s| cp[s as usize]).max().unwrap_or(0);
        // Weigh by workgroups, tolerating literal-constructed kernels with a
        // broken grid — those are rejected later by the simulation builder.
        let wgs = stages[i].grid_threads.checked_div(stages[i].wg_size).unwrap_or(0);
        cp[i] = wgs as u64 + tail;
    }
    let mut critical = vec![false; n];
    // Start at the heaviest source (smallest index on ties) and follow the
    // heaviest successor at each step.
    let mut has_pred = vec![false; n];
    for ss in succs {
        for &s in ss {
            has_pred[s as usize] = true;
        }
    }
    let mut cur: Option<usize> = None;
    for i in 0..n {
        if !has_pred[i] && cur.is_none_or(|b| cp[i] > cp[b]) {
            cur = Some(i);
        }
    }
    while let Some(i) = cur {
        critical[i] = true;
        cur = succs[i].iter().map(|&s| s as usize).fold(None::<usize>, |acc, s| match acc {
            Some(a) if cp[a] >= cp[s] => Some(a),
            _ => Some(s),
        });
    }
    critical
}

/// A job submitted by a client: a validated kernel DAG ([`JobGraph`]) with
/// a relative end-to-end deadline and an arrival time. Classic workloads
/// are linear chains (see [`JobDesc::chain`]); Sirius-style IPA pipelines
/// fan out ([`JobDesc::from_graph`]).
///
/// Kernels are `Arc`-shared because thousands of jobs reuse the same
/// descriptors (every LSTM-128 job runs the same six kernel classes).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use gpu_sim::job::{JobDesc, JobId};
/// use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
/// use sim_core::time::{Cycle, Duration};
///
/// let k = Arc::new(KernelDesc::new(
///     KernelClassId(0), "k", 256, 256, 16, 0,
///     ComputeProfile::compute_only(100),
/// ));
/// let job = JobDesc::chain(JobId(0), "demo", vec![k], Duration::from_us(40), Cycle::ZERO)
///     .unwrap();
/// assert_eq!(job.total_wgs(), 1);
/// assert!(job.graph().is_chain());
/// assert_eq!(job.absolute_deadline(), Cycle::ZERO + Duration::from_us(40));
/// ```
#[derive(Debug, Clone)]
pub struct JobDesc {
    /// Unique id.
    pub id: JobId,
    /// Benchmark label ("LSTM", "IPV6", ...), for reporting.
    pub bench: Arc<str>,
    /// The validated kernel DAG. Private so every `JobDesc` is structurally
    /// sound by construction.
    graph: JobGraph,
    /// Relative deadline from arrival (the programmer-provided value).
    pub deadline: Duration,
    /// Arrival time at the host.
    pub arrival: Cycle,
}

impl JobDesc {
    /// Creates a linear-chain job (the degenerate DAG; stage `i+1` depends
    /// on stage `i`). This is the constructor every classic benchmark uses.
    ///
    /// # Errors
    ///
    /// [`JobError::EmptyGraph`] if the kernel list is empty,
    /// [`JobError::ZeroDeadline`] if the deadline is zero.
    pub fn chain(
        id: JobId,
        bench: impl Into<Arc<str>>,
        kernels: Vec<Arc<KernelDesc>>,
        deadline: Duration,
        arrival: Cycle,
    ) -> Result<Self, JobError> {
        JobDesc::from_graph(id, bench, JobGraph::chain(kernels)?, deadline, arrival)
    }

    /// Creates a job from a pre-validated [`JobGraph`].
    ///
    /// # Errors
    ///
    /// [`JobError::ZeroDeadline`] if the end-to-end deadline is zero.
    pub fn from_graph(
        id: JobId,
        bench: impl Into<Arc<str>>,
        graph: JobGraph,
        deadline: Duration,
        arrival: Cycle,
    ) -> Result<Self, JobError> {
        if deadline.is_zero() {
            return Err(JobError::ZeroDeadline);
        }
        Ok(JobDesc { id, bench: bench.into(), graph, deadline, arrival })
    }

    /// The kernel DAG.
    #[inline]
    pub fn graph(&self) -> &JobGraph {
        &self.graph
    }

    /// Kernel stages in declaration order (for a chain: dependency order).
    #[inline]
    pub fn kernels(&self) -> &[Arc<KernelDesc>] {
        self.graph.stages()
    }

    /// Number of kernels in the job.
    #[inline]
    pub fn num_kernels(&self) -> usize {
        self.graph.num_stages()
    }

    /// Total workgroups across all kernels (the job's "size" for SJF/LJF).
    pub fn total_wgs(&self) -> u64 {
        self.kernels().iter().map(|k| k.num_wgs() as u64).sum()
    }

    /// The wall-clock instant the job must finish by.
    #[inline]
    pub fn absolute_deadline(&self) -> Cycle {
        self.arrival + self.deadline
    }
}

/// Lifecycle of a job inside the command processor, mirroring the paper's
/// Job Table `State` field (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Enqueued, not yet admitted (stream inspection / admission pending).
    Init,
    /// Admitted; ready stages may be dispatched.
    Ready,
    /// At least one WG has been issued to the CUs.
    Running,
}

/// Terminal outcome of a job, for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFate {
    /// Completed at the given time.
    Completed(Cycle),
    /// Rejected by admission control at the given time (never ran).
    Rejected(Cycle),
    /// Aborted mid-flight by the scheduler after its deadline passed (the
    /// LAX-DROP extension); already-dispatched workgroups drained first.
    Aborted(Cycle),
    /// Still unfinished when the simulation horizon ended.
    Unfinished,
}

impl JobFate {
    /// `true` if the job finished (whether or not it met its deadline).
    pub fn completed_at(self) -> Option<Cycle> {
        match self {
            JobFate::Completed(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ComputeProfile, KernelClassId};

    fn kernel(wgs: u32) -> Arc<KernelDesc> {
        Arc::new(KernelDesc::new(
            KernelClassId(0),
            "k",
            wgs * 64,
            64,
            8,
            0,
            ComputeProfile::compute_only(10),
        ))
    }

    #[test]
    fn totals_sum_over_kernels() {
        let j = JobDesc::chain(
            JobId(1),
            "b",
            vec![kernel(3), kernel(5)],
            Duration::from_us(10),
            Cycle::ZERO,
        )
        .unwrap();
        assert_eq!(j.num_kernels(), 2);
        assert_eq!(j.total_wgs(), 8);
        assert!(j.graph().is_chain());
        assert_eq!(j.graph().topo_order(), [0, 1]);
        assert!(j.graph().on_critical_path(0) && j.graph().on_critical_path(1));
    }

    #[test]
    fn empty_job_is_a_typed_error() {
        let err =
            JobDesc::chain(JobId(0), "b", vec![], Duration::from_us(1), Cycle::ZERO).unwrap_err();
        assert_eq!(err, JobError::EmptyGraph);
    }

    #[test]
    fn zero_deadline_is_a_typed_error() {
        let err = JobDesc::chain(JobId(0), "b", vec![kernel(1)], Duration::ZERO, Cycle::ZERO)
            .unwrap_err();
        assert_eq!(err, JobError::ZeroDeadline);
    }

    #[test]
    fn cycle_is_a_typed_error() {
        let err = JobGraph::new(vec![kernel(1), kernel(1)], vec![(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, JobError::CycleDetected);
    }

    #[test]
    fn dangling_edge_is_a_typed_error() {
        let err = JobGraph::new(vec![kernel(1)], vec![(0, 3)]).unwrap_err();
        assert_eq!(err, JobError::DanglingEdge { from: 0, to: 3, stages: 1 });
        let err = JobGraph::new(vec![kernel(1)], vec![(0, 0)]).unwrap_err();
        assert_eq!(err, JobError::DanglingEdge { from: 0, to: 0, stages: 1 });
    }

    #[test]
    fn fanout_graph_topology() {
        // 0 -> {1, 2} -> 3, with stage 2 heavier than stage 1.
        let g = JobGraph::new(
            vec![kernel(1), kernel(2), kernel(5), kernel(1)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        assert!(!g.is_chain());
        assert_eq!(g.topo_order(), [0, 1, 2, 3]);
        assert_eq!(g.indegree(0), 0);
        assert_eq!(g.indegree(3), 2);
        assert_eq!(g.succs(0), [1, 2]);
        assert_eq!(g.preds(3), [1, 2]);
        // Critical path is 0 -> 2 -> 3 (weights 1 + 5 + 1).
        assert!(g.on_critical_path(0));
        assert!(!g.on_critical_path(1));
        assert!(g.on_critical_path(2));
        assert!(g.on_critical_path(3));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = JobGraph::new(vec![kernel(1), kernel(1)], vec![(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.edges(), [(0, 1)]);
        assert_eq!(g.indegree(1), 1);
        assert!(g.is_chain());
    }

    #[test]
    fn stage_deadlines_are_optional() {
        let g = JobGraph::chain(vec![kernel(1), kernel(1)])
            .unwrap()
            .with_stage_deadline(0, Duration::from_us(5));
        assert_eq!(g.stage_deadline(0), Some(Duration::from_us(5)));
        assert_eq!(g.stage_deadline(1), None);
    }

    #[test]
    fn fate_accessor() {
        assert_eq!(
            JobFate::Completed(Cycle::from_cycles(5)).completed_at(),
            Some(Cycle::from_cycles(5))
        );
        assert_eq!(JobFate::Unfinished.completed_at(), None);
    }
}
