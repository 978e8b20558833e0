//! Typed probe events and bundled observers for the GPU simulator.
//!
//! The simulation embeds a [`sim_core::probe::ProbeHub`] and fires a
//! [`ProbeEvent`] at every interesting hardware moment: job arrivals, CP
//! scheduling decisions, kernel start/complete, workgroup dispatch/retire,
//! wavefront issue, memory accesses, fault injections, each real job's
//! fate ([`ProbeEvent::JobResolved`]), and a periodic [`MetricsSnapshot`]
//! piggybacked on the existing counter-refresh tick. Probes never schedule
//! simulator events or mutate simulator state, so an attached observer
//! cannot perturb results — the bit-identity test in `sim.rs` pins that
//! contract.
//!
//! A job's lifecycle is `JobArrived`, then `KernelStarted` /
//! `KernelCompleted` per stage, then exactly one `JobResolved` carrying the
//! same fate and instant as its [`crate::metrics::JobRecord`]; an observer
//! over those events is all a per-job Gantt chart needs (see
//! `examples/scheduling_story.rs`).
//!
//! Two ready-made observers live here:
//!
//! * [`MetricsSampler`] — turns periodic snapshots into named
//!   [`TraceSeries`] (per-CU occupancy, queue depth, laxity distribution,
//!   DRAM bandwidth utilization, cache hit rates, cumulative energy) with
//!   CSV/JSON dumps, and can additionally follow one job's predicted
//!   completion time and priority (the Figure 10 trace).
//! * [`ChromeTraceWriter`] — maps probe events onto Chrome trace-event
//!   records of [`sim_core::trace::TraceEvents`], viewable in Perfetto /
//!   `chrome://tracing`, with per-CU tracks of workgroup spans, per-queue
//!   kernel spans, and counter tracks.

use std::collections::{BTreeMap, BTreeSet};

use sim_core::json;
use sim_core::probe::Observer;
use sim_core::time::Cycle;
use sim_core::trace::{TraceEvents, TraceSeries};

use crate::job::{JobFate, JobId};
use crate::memory::AccessMix;
use crate::slab::SlabKey;

/// One hardware moment fired through the simulation's probe hub.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeEvent {
    /// A job arrived at the host.
    JobArrived {
        /// The arriving job.
        job: JobId,
    },
    /// The CP resolved an admission query for the job on `queue`.
    CpDecision {
        /// The job the decision is about.
        job: JobId,
        /// Hardware queue the job is bound to.
        queue: usize,
        /// `true` for Accept, `false` for Reject.
        admitted: bool,
    },
    /// A CP scheduler recomputed a job's priority (LAX-style policies emit
    /// this from their periodic tick; the prediction feeds Figure 10).
    CpPriority {
        /// The job whose priority changed.
        job: JobId,
        /// Predicted total completion time since arrival, µs.
        predicted_total_us: f64,
        /// New priority value (lower runs first).
        priority: i64,
    },
    /// Queue `queue`'s kernel `kernel` dispatched its first workgroup.
    KernelStarted {
        /// Owning job.
        job: JobId,
        /// Hardware queue index.
        queue: usize,
        /// Stage index within the job's graph (chain position for linear
        /// jobs).
        kernel: usize,
        /// `true` when the stage lies on the job's workgroup-weighted
        /// critical path (always `true` for chain jobs).
        critical: bool,
    },
    /// Queue `queue`'s kernel `kernel` completed.
    KernelCompleted {
        /// Owning job.
        job: JobId,
        /// Hardware queue index.
        queue: usize,
        /// Stage index within the job's graph (chain position for linear
        /// jobs).
        kernel: usize,
        /// `true` when the stage lies on the job's workgroup-weighted
        /// critical path (always `true` for chain jobs).
        critical: bool,
    },
    /// A real job's fate was sealed: completed, rejected (by the CP or the
    /// host scheduler) or aborted (LAX-DROP). Fired exactly once per real
    /// job, at the instant its fate carries; synthetic host launches never
    /// fire it.
    JobResolved {
        /// The resolved job.
        job: JobId,
        /// Its fate, equal to the run report's record for this job.
        fate: JobFate,
    },
    /// A workgroup was placed on compute unit `cu`.
    WgDispatched {
        /// Compute unit index.
        cu: u16,
        /// Owning job.
        job: JobId,
        /// Workgroup identity (stable for the WG's lifetime).
        wg: SlabKey,
    },
    /// A workgroup finished and released its CU resources.
    WgRetired {
        /// Compute unit index.
        cu: u16,
        /// Owning job.
        job: JobId,
        /// Workgroup identity.
        wg: SlabKey,
    },
    /// A wavefront started executing on `cu`'s SIMD `simd`.
    WaveIssued {
        /// Compute unit index.
        cu: u16,
        /// SIMD lane group within the CU.
        simd: u16,
    },
    /// A memory request bundle was serviced for a wavefront on `cu`.
    MemAccess {
        /// Compute unit index.
        cu: u16,
        /// Which levels serviced the bundle's lines.
        mix: AccessMix,
    },
    /// A planned fault transitioned (applied or reverted).
    FaultTransition {
        /// Index into the fault plan's schedule.
        index: usize,
    },
    /// The cluster router bound a job to a device. Fired by the fleet front
    /// end (`fleet`/`lax-bench cluster`), not by a single-device run; the
    /// paper's per-device CP admission generalized to placement.
    JobRouted {
        /// The routed job (cluster-wide id).
        job: JobId,
        /// Destination device index in the fleet.
        device: u16,
        /// Predicted queueing delay on that device at routing time, µs.
        predicted_wait_us: f64,
        /// Predicted laxity at completion, µs (non-negative on admit).
        laxity_us: f64,
    },
    /// The cluster front door rejected a job: no device's predicted
    /// completion would meet its deadline (least-laxity admission).
    JobRejected {
        /// The rejected job (cluster-wide id).
        job: JobId,
        /// Best laxity across devices, µs (negative by definition).
        laxity_us: f64,
    },
    /// A fleet device left rotation (crash or drain start). Fired by the
    /// cluster layer when replaying a `FleetFaultPlan`.
    DeviceDown {
        /// Device index in the fleet.
        device: u16,
        /// `true` for a crash (in-flight jobs lost), `false` for a drain.
        crashed: bool,
        /// In-flight/queued jobs lost at the transition (0 for drains).
        lost: u32,
    },
    /// A fleet device rejoined rotation after a crash or drain window.
    DeviceRestored {
        /// Device index in the fleet.
        device: u16,
    },
    /// A job lost to a device crash re-entered the front door and was
    /// re-placed (its remaining laxity still admitted it).
    JobRetried {
        /// The retried job (cluster-wide id).
        job: JobId,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Device the retry was placed on.
        device: u16,
    },
    /// The front door shed a job under degraded capacity (counted as
    /// rejected): with devices out of rotation, no survivor's predicted
    /// completion met its deadline.
    JobShed {
        /// The shed job (cluster-wide id).
        job: JobId,
        /// Best laxity across surviving devices, µs (negative).
        laxity_us: f64,
    },
    /// A fleet job finished on a device (fired at the completion instant by
    /// the cluster layer, for both fidelity tiers). Fired for every job
    /// that runs to completion, whether or not it met its deadline; a late
    /// completion is paired with a [`ProbeEvent::JobMissed`].
    JobCompleted {
        /// The completed job (cluster-wide id).
        job: JobId,
        /// Device the job ran on.
        device: u16,
        /// End-to-end latency since first arrival, µs (includes any
        /// crash/retry requeue delay).
        latency_us: f64,
        /// Whether completion beat the job's absolute deadline.
        met: bool,
    },
    /// A fleet job failed its SLO, with a typed cause. Fired exactly once
    /// per job that does not meet its deadline — alongside the
    /// corresponding `JobRejected`/`JobShed`/late `JobCompleted` where one
    /// exists, and as the only record for jobs destroyed by crashes or
    /// retry exhaustion.
    JobMissed {
        /// The missed job (cluster-wide id).
        job: JobId,
        /// Device attribution when one exists (`None` for front-door
        /// rejects/sheds and losses with no surviving placement).
        device: Option<u16>,
        /// Why the job missed.
        cause: MissCause,
    },
    /// Periodic hardware state snapshot (fired on the counter-refresh tick,
    /// so attaching a sampler never adds events to the queue).
    Snapshot(MetricsSnapshot),
}

/// Why a fleet job failed its SLO. Every non-completed or late job gets
/// exactly one cause, so the per-cause counters conserve against the run's
/// report totals (see [`MissBreakdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissCause {
    /// The front door predicted no device could make the deadline and
    /// rejected the job on arrival (report `rejected`).
    FrontDoorReject,
    /// A device-local CP admission rejected the job after routing
    /// (detailed tier only; report `device_rejected`).
    DeviceReject,
    /// The job completed late, and would have met its deadline had it
    /// started the moment it arrived: the queue ate the slack.
    QueueingDelay,
    /// The job completed late even net of queueing: service time alone
    /// (straggler slowdowns included) exceeded the deadline budget.
    ServiceTime,
    /// The job was destroyed by a device crash and its retry budget was
    /// already exhausted (part of report `lost`).
    CrashLoss,
    /// The job was lost after crash requeue because no retry could be
    /// placed: backoff exhausted the budget, the laxity gate failed, or no
    /// device was in rotation (the rest of report `lost`).
    RetryExhausted,
    /// The front door shed the job under degraded capacity (report
    /// `shed`).
    Shed,
}

impl MissCause {
    /// All causes, in counter/report order.
    pub const ALL: [MissCause; 7] = [
        MissCause::FrontDoorReject,
        MissCause::DeviceReject,
        MissCause::QueueingDelay,
        MissCause::ServiceTime,
        MissCause::CrashLoss,
        MissCause::RetryExhausted,
        MissCause::Shed,
    ];

    /// Stable snake_case name used in table columns and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            MissCause::FrontDoorReject => "front_door_reject",
            MissCause::DeviceReject => "device_reject",
            MissCause::QueueingDelay => "queueing_delay",
            MissCause::ServiceTime => "service_time",
            MissCause::CrashLoss => "crash_loss",
            MissCause::RetryExhausted => "retry_exhausted",
            MissCause::Shed => "shed",
        }
    }

    fn index(self) -> usize {
        match self {
            MissCause::FrontDoorReject => 0,
            MissCause::DeviceReject => 1,
            MissCause::QueueingDelay => 2,
            MissCause::ServiceTime => 3,
            MissCause::CrashLoss => 4,
            MissCause::RetryExhausted => 5,
            MissCause::Shed => 6,
        }
    }
}

/// Per-cause miss counters for one fleet run. Conservation identities the
/// cluster layer's tests pin (with `misses` a report's breakdown):
///
/// * `misses.count(FrontDoorReject) == report.rejected`
/// * `misses.count(DeviceReject) == report.device_rejected`
/// * `misses.count(QueueingDelay) + misses.count(ServiceTime)
///    == report.completed - report.met`
/// * `misses.count(CrashLoss) + misses.count(RetryExhausted) == report.lost`
/// * `misses.count(Shed) == report.shed`
/// * `misses.total() == report.total - report.met`
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    counts: [u64; 7],
}

impl MissBreakdown {
    /// Record one miss.
    pub fn add(&mut self, cause: MissCause) {
        self.counts[cause.index()] += 1;
    }

    /// Record `n` misses of the same cause at once.
    pub fn add_n(&mut self, cause: MissCause, n: u64) {
        self.counts[cause.index()] += n;
    }

    /// Misses recorded for `cause`.
    pub fn count(&self, cause: MissCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Total misses across all causes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold `other`'s counters into `self` (device-slice merges).
    pub fn merge(&mut self, other: &MissBreakdown) {
        for (acc, n) in self.counts.iter_mut().zip(other.counts.iter()) {
            *acc += n;
        }
    }
}

/// Compact `name=count` pairs for non-zero causes (`none` when empty),
/// used in run-summary log lines.
impl std::fmt::Display for MissBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut any = false;
        for cause in MissCause::ALL {
            let n = self.count(cause);
            if n == 0 {
                continue;
            }
            if any {
                write!(f, " ")?;
            }
            write!(f, "{}={n}", cause.name())?;
            any = true;
        }
        if !any {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// Point-in-time summary of device state, assembled by the simulation on its
/// existing counter-refresh cadence (`profiling_period`, 100 µs by default).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-CU occupancy as resident waves / wave slots, `0.0..=1.0`.
    pub cu_occupancy: Vec<f64>,
    /// Resident wavefronts across the device.
    pub resident_waves: u32,
    /// Free wavefront slots across the device.
    pub free_wave_slots: u32,
    /// Hardware queues holding an uncompleted job.
    pub busy_queues: u32,
    /// Jobs parked at the host (backlog + not yet admitted).
    pub host_pending: u32,
    /// Laxity (absolute deadline minus now, µs; negative when past due) of
    /// the most urgent runnable job, if any are resident.
    pub laxity_min_us: Option<f64>,
    /// Median laxity over runnable jobs, µs.
    pub laxity_median_us: Option<f64>,
    /// Cumulative DRAM line accesses.
    pub dram_accesses: u64,
    /// Cumulative DRAM channel-busy cycles.
    pub dram_busy_cycles: u64,
    /// Number of DRAM channels.
    pub dram_channels: u32,
    /// Aggregate L1 hit rate so far.
    pub l1_hit_rate: f64,
    /// L2 hit rate so far.
    pub l2_hit_rate: f64,
    /// Dynamic energy consumed so far, mJ.
    pub energy_mj: f64,
    /// Workgroups completed so far (all queues).
    pub total_wgs: u64,
}

/// Per-series point capacity of [`MetricsSampler`].
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Observer that turns periodic [`MetricsSnapshot`]s into named
/// [`TraceSeries`], optionally following one job's prediction/priority
/// trace (Figure 10).
///
/// Attach via [`crate::sim::SimBuilder::observe`]; keep an
/// `Arc<Mutex<MetricsSampler>>` clone to read the series back after the run.
#[derive(Debug)]
pub struct MetricsSampler {
    prev_dram: Option<(Cycle, u64)>,
    /// Snapshot-aligned series; all sampled at the same instants.
    series: Vec<TraceSeries>,
    /// Timestamps of recorded snapshots (shared x-axis of `series`).
    times: Vec<Cycle>,
    times_dropped: u64,
    watch: Option<JobId>,
    watch_predicted: TraceSeries,
    watch_priority: TraceSeries,
}

impl Default for MetricsSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSampler {
    /// A sampler recording every snapshot, with
    /// [`DEFAULT_SERIES_CAPACITY`] points per series.
    pub fn new() -> Self {
        MetricsSampler {
            prev_dram: None,
            series: Vec::new(),
            times: Vec::new(),
            times_dropped: 0,
            watch: None,
            watch_predicted: TraceSeries::new("predicted_total_us", DEFAULT_SERIES_CAPACITY),
            watch_priority: TraceSeries::new("priority", DEFAULT_SERIES_CAPACITY),
        }
    }

    /// Additionally record every `CpPriority` event of `job`
    /// into the `predicted_total_us` / `priority` series — the Figure 10
    /// trace.
    pub fn watch_job(mut self, job: JobId) -> Self {
        self.watch = Some(job);
        self
    }

    /// Snapshot-aligned series, in a fixed order (see CSV header).
    pub fn series(&self) -> &[TraceSeries] {
        &self.series
    }

    /// Looks up a snapshot-aligned series by name.
    pub fn series_named(&self, name: &str) -> Option<&TraceSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// Timestamps of the recorded snapshots.
    pub fn times(&self) -> &[Cycle] {
        &self.times
    }

    /// The watched job's predicted-completion series (empty when no watch
    /// was set or the job never got a priority update).
    pub fn watched_predicted(&self) -> &TraceSeries {
        &self.watch_predicted
    }

    /// The watched job's priority series.
    pub fn watched_priority(&self) -> &TraceSeries {
        &self.watch_priority
    }

    /// Snapshots discarded because the series were full.
    pub fn dropped(&self) -> u64 {
        self.times_dropped
    }

    fn record(&mut self, at: Cycle, snap: &MetricsSnapshot) {
        if self.series.is_empty() {
            let mut names: Vec<String> = Vec::new();
            for cu in 0..snap.cu_occupancy.len() {
                names.push(format!("cu{cu}_occupancy"));
            }
            for n in [
                "busy_queues",
                "host_pending",
                "resident_waves",
                "free_wave_slots",
                "laxity_min_us",
                "laxity_median_us",
                "dram_bw_util",
                "dram_accesses",
                "l1_hit_rate",
                "l2_hit_rate",
                "energy_mj",
                "total_wgs",
            ] {
                names.push(n.to_string());
            }
            self.series = names
                .into_iter()
                .map(|n| TraceSeries::new(n, DEFAULT_SERIES_CAPACITY))
                .collect();
        }
        if self.times.len() >= DEFAULT_SERIES_CAPACITY {
            self.times_dropped += 1;
            return;
        }
        self.times.push(at);
        // Interval bandwidth utilization: busy-cycle delta over channel-cycle
        // capacity since the previous recorded snapshot.
        let bw_util = match self.prev_dram {
            Some((prev_at, prev_busy)) => {
                let elapsed = at.saturating_since(prev_at).as_cycles();
                if elapsed == 0 {
                    0.0
                } else {
                    let delta = snap.dram_busy_cycles.saturating_sub(prev_busy);
                    delta as f64 / (snap.dram_channels.max(1) as u64 * elapsed) as f64
                }
            }
            None => 0.0,
        };
        self.prev_dram = Some((at, snap.dram_busy_cycles));
        let mut values: Vec<f64> = snap.cu_occupancy.clone();
        values.extend([
            snap.busy_queues as f64,
            snap.host_pending as f64,
            snap.resident_waves as f64,
            snap.free_wave_slots as f64,
            snap.laxity_min_us.unwrap_or(f64::NAN),
            snap.laxity_median_us.unwrap_or(f64::NAN),
            bw_util,
            snap.dram_accesses as f64,
            snap.l1_hit_rate,
            snap.l2_hit_rate,
            snap.energy_mj,
            snap.total_wgs as f64,
        ]);
        debug_assert_eq!(values.len(), self.series.len());
        for (s, v) in self.series.iter_mut().zip(values) {
            s.sample(at, v);
        }
    }

    /// Renders the snapshot-aligned series as wide-format CSV: one row per
    /// snapshot, first column `time_us`, one column per series. NaN values
    /// (e.g. laxity with no runnable job) render as empty cells.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_us");
        for s in &self.series {
            out.push(',');
            out.push_str(s.name());
        }
        out.push('\n');
        for (i, t) in self.times.iter().enumerate() {
            out.push_str(&format!("{}", t.as_us_f64()));
            for s in &self.series {
                out.push(',');
                let v = s.points()[i].value;
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders every series (snapshot-aligned plus any watched-job series)
    /// as a JSON document: `{"series":[{"name":…,"points":[[t_us,v],…]},…]}`.
    /// Non-finite values are emitted as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"series\":[");
        let mut first = true;
        let watched: [&TraceSeries; 2] = [&self.watch_predicted, &self.watch_priority];
        let all = self
            .series
            .iter()
            .chain(watched.into_iter().filter(|s| !s.points().is_empty()));
        for s in all {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            json::escape_into(&mut out, s.name());
            out.push_str("\",\"points\":[");
            for (i, p) in s.points().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if p.value.is_finite() {
                    out.push_str(&format!("[{},{}]", p.at.as_us_f64(), p.value));
                } else {
                    out.push_str(&format!("[{},null]", p.at.as_us_f64()));
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl Observer<ProbeEvent> for MetricsSampler {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        match event {
            ProbeEvent::Snapshot(snap) => self.record(at, snap),
            ProbeEvent::CpPriority { job, predicted_total_us, priority }
                if self.watch == Some(*job) =>
            {
                self.watch_predicted.sample(at, *predicted_total_us);
                self.watch_priority.sample(at, *priority as f64);
            }
            _ => {}
        }
    }
}

/// Observer emitting Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load) through [`TraceEvents`], so it keeps at most
/// [`sim_core::trace::TRACE_EVENT_CAPACITY`] records.
///
/// Track layout: pid 0 is the device — one thread per CU carrying workgroup
/// spans; pid 1 is the CP — one thread per hardware queue carrying kernel
/// spans; counters from periodic snapshots attach to pid 0.
#[derive(Debug, Default)]
pub struct ChromeTraceWriter {
    events: TraceEvents,
    /// In-flight workgroups: key → (cu, dispatch time, job).
    open_wgs: BTreeMap<SlabKey, (u16, Cycle, JobId)>,
    /// In-flight kernels: queue → (job, kernel index, start time).
    open_kernels: BTreeMap<(usize, usize), (JobId, bool, Cycle)>,
    /// CU indices that carried at least one workgroup (for thread metadata).
    cus_seen: BTreeSet<u16>,
    /// Queues that carried at least one kernel.
    queues_seen: BTreeSet<usize>,
}

impl ChromeTraceWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Number of records captured so far (excluding metadata, which is
    /// generated at [`ChromeTraceWriter::finish`]).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the complete trace document:
    /// `{"traceEvents":[…metadata…, …records…]}`.
    pub fn finish(&self) -> String {
        let head = |head: &mut TraceEvents| {
            head.process_name(0, "GPU device");
            head.process_name(1, "Command processor");
            self.cus_seen.iter().for_each(|&cu| head.thread_name(0, cu.into(), "CU"));
            self.queues_seen.iter().for_each(|&q| head.thread_name(1, q as u64, "queue"));
        };
        self.events.finish(head, |_| {})
    }
}

impl Observer<ProbeEvent> for ChromeTraceWriter {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        match event {
            ProbeEvent::WgDispatched { cu, job, wg } => {
                self.open_wgs.insert(*wg, (*cu, at, *job));
            }
            ProbeEvent::WgRetired { wg, .. } => {
                if let Some((cu, start, job)) = self.open_wgs.remove(wg) {
                    self.cus_seen.insert(cu);
                    self.events.span(&format!("wg job{}", job.0), "wg", 0, cu.into(), start, at);
                }
            }
            ProbeEvent::KernelStarted { job, queue, kernel, critical } => {
                self.open_kernels.insert((*queue, *kernel), (*job, *critical, at));
            }
            ProbeEvent::KernelCompleted { queue, kernel, .. } => {
                // Keyed by (queue, stage) so a DAG job's concurrent stages
                // each close their own span.
                if let Some((job, critical, start)) = self.open_kernels.remove(&(*queue, *kernel)) {
                    self.queues_seen.insert(*queue);
                    let mark = if critical { "*" } else { "" };
                    let name = format!("job{} k{kernel}{mark}", job.0);
                    self.events.span(&name, "kernel", 1, *queue as u64, start, at);
                }
            }
            ProbeEvent::Snapshot(snap) => {
                self.events.counter("busy_queues", 0, at, snap.busy_queues as f64);
                self.events.counter("resident_waves", 0, at, snap.resident_waves as f64);
                self.events.counter("energy_mj", 0, at, snap.energy_mj);
                self.events.counter("l1_hit_rate", 0, at, snap.l1_hit_rate);
                self.events.counter("l2_hit_rate", 0, at, snap.l2_hit_rate);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::Duration;

    fn t(us: u64) -> Cycle {
        Cycle::ZERO + Duration::from_us(us)
    }

    fn wg_key() -> SlabKey {
        crate::slab::Slab::new().insert(())
    }

    fn snap(busy: u32) -> MetricsSnapshot {
        MetricsSnapshot {
            cu_occupancy: vec![0.5, 0.25],
            resident_waves: 30,
            free_wave_slots: 50,
            busy_queues: busy,
            host_pending: 2,
            laxity_min_us: Some(-5.0),
            laxity_median_us: Some(40.0),
            dram_accesses: 100,
            dram_busy_cycles: 400,
            dram_channels: 16,
            l1_hit_rate: 0.8,
            l2_hit_rate: 0.6,
            energy_mj: 1.5,
            total_wgs: 7,
        }
    }

    #[test]
    fn sampler_records_every_snapshot_by_default() {
        let mut s = MetricsSampler::new();
        s.on_event(t(100), &ProbeEvent::Snapshot(snap(1)));
        s.on_event(t(200), &ProbeEvent::Snapshot(snap(2)));
        assert_eq!(s.times().len(), 2);
        let bq = s.series_named("busy_queues").unwrap();
        assert_eq!(bq.points().len(), 2);
        assert_eq!(bq.points()[1].value, 2.0);
        assert!(s.series_named("cu1_occupancy").is_some());
        assert!(s.series_named("dram_bw_util").is_some());
        assert!(s.series_named("laxity_min_us").is_some());
    }

    #[test]
    fn sampler_capacity_bounds_all_series() {
        let mut s = MetricsSampler::new();
        for us in 1..=DEFAULT_SERIES_CAPACITY as u64 + 7 {
            s.on_event(t(us), &ProbeEvent::Snapshot(snap(0)));
        }
        assert_eq!(s.times().len(), DEFAULT_SERIES_CAPACITY);
        assert_eq!(s.dropped(), 7);
        for series in s.series() {
            assert_eq!(series.points().len(), DEFAULT_SERIES_CAPACITY, "{}", series.name());
        }
    }

    #[test]
    fn sampler_watches_one_job_only() {
        let mut s = MetricsSampler::new().watch_job(JobId(7));
        s.on_event(
            t(10),
            &ProbeEvent::CpPriority { job: JobId(7), predicted_total_us: 123.0, priority: 55 },
        );
        s.on_event(
            t(11),
            &ProbeEvent::CpPriority { job: JobId(8), predicted_total_us: 9.0, priority: 1 },
        );
        assert_eq!(s.watched_predicted().points().len(), 1);
        assert_eq!(s.watched_predicted().points()[0].value, 123.0);
        assert_eq!(s.watched_priority().points()[0].value, 55.0);
    }

    #[test]
    fn csv_has_header_row_per_snapshot_and_blank_nan() {
        let mut s = MetricsSampler::new();
        let mut empty = snap(3);
        empty.laxity_min_us = None;
        empty.laxity_median_us = None;
        s.on_event(t(100), &ProbeEvent::Snapshot(empty));
        let csv = s.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("time_us,cu0_occupancy,cu1_occupancy,busy_queues"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("100,0.5,0.25,3"));
        assert!(row.contains(",,"), "NaN laxity renders as empty cells");
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn sampler_json_validates() {
        let mut s = MetricsSampler::new().watch_job(JobId(1));
        s.on_event(t(100), &ProbeEvent::Snapshot(snap(1)));
        s.on_event(
            t(150),
            &ProbeEvent::CpPriority { job: JobId(1), predicted_total_us: 88.0, priority: 3 },
        );
        let doc = s.to_json();
        json::validate(&doc).expect("sampler JSON must parse");
        assert!(doc.contains("\"predicted_total_us\""));
    }

    #[test]
    fn chrome_trace_pairs_spans_and_validates() {
        let mut w = ChromeTraceWriter::new();
        let wg = wg_key();
        w.on_event(
            t(5),
            &ProbeEvent::KernelStarted { job: JobId(1), queue: 2, kernel: 0, critical: true },
        );
        w.on_event(t(10), &ProbeEvent::WgDispatched { cu: 3, job: JobId(1), wg });
        w.on_event(t(20), &ProbeEvent::WgRetired { cu: 3, job: JobId(1), wg });
        w.on_event(
            t(25),
            &ProbeEvent::KernelCompleted { job: JobId(1), queue: 2, kernel: 0, critical: true },
        );
        w.on_event(t(30), &ProbeEvent::Snapshot(snap(1)));
        let doc = w.finish();
        json::validate(&doc).expect("chrome trace must parse");
        assert!(doc.contains("\"ph\":\"X\""), "span records present");
        assert!(doc.contains("\"ph\":\"C\""), "counter records present");
        assert!(doc.contains("\"CU 3\""), "CU thread metadata present");
        assert!(doc.contains("\"queue 2\""), "queue thread metadata present");
        assert!(doc.contains("\"dur\":10"), "wg span duration in us");
    }

    #[test]
    fn unmatched_retire_is_ignored() {
        let mut w = ChromeTraceWriter::new();
        w.on_event(t(20), &ProbeEvent::WgRetired { cu: 0, job: JobId(1), wg: wg_key() });
        assert!(w.is_empty());
        json::validate(&w.finish()).unwrap();
    }
}
