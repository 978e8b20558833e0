//! Fleet-scope observers: windowed SLO telemetry and cluster trace export.
//!
//! The cluster layer (`lax-bench cluster`/`chaos`) fires the fleet subset of
//! [`ProbeEvent`] through its probe hub — routing verdicts, retries, sheds,
//! device health transitions, and per-job completion and typed miss events
//! — as one stream in time order. The two observers here turn that stream
//! into artifacts as it passes, each in memory bounded by its cap:
//!
//! * [`FleetSampler`] — aggregates events into fixed-width time windows:
//!   per-window SLO attainment, latency quantiles, routing/reject/shed/
//!   retry/loss rates, fleet in-flight depth, and devices-in-rotation. Only
//!   the window the stream is in is open, with its own
//!   [`StreamingQuantiles`]; once the stream passes its end it closes into
//!   a compact row. Dumps as CSV (one row per window) or JSON. This is
//!   what makes a chaos run legible: attainment visibly dips and recovers
//!   around each crash wave instead of collapsing into one end-of-run
//!   scalar.
//! * [`FleetTraceWriter`] — maps the stream onto Chrome trace-event records
//!   of [`sim_core::trace::TraceEvents`] (Perfetto / `chrome://tracing`):
//!   one lane per device with health-state spans and job spans colored by
//!   outcome, router instants for route/retry/reject/shed/miss, and counter
//!   tracks for in-flight depth and down devices, sampled as the stream
//!   passes. The `trace` binary writes both artifacts for a fleet cell.
//!
//! Both are passive observers: they never mutate simulator state, and the
//! cluster layer's byte-identity tests pin that attaching them cannot
//! perturb any report.

use std::collections::{BTreeMap, BTreeSet};

use sim_core::probe::Observer;
use sim_core::stats::StreamingQuantiles;
use sim_core::time::{Cycle, Duration};
use sim_core::trace::TraceEvents;

use crate::probe::{MissBreakdown, MissCause, ProbeEvent};

/// Default window width for [`FleetSampler`]: 100 µs, matching the
/// device-level `profiling_period` cadence.
pub const DEFAULT_WINDOW: Duration = Duration::from_us(100);

/// Cap on distinct windows a [`FleetSampler`] tracks.
pub const DEFAULT_WINDOW_CAPACITY: usize = 1 << 16;

/// Per-device activity within one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DevWindow {
    /// Jobs booked onto the device (routes + retries).
    booked: u64,
    /// Jobs completed on the device.
    done: u64,
    /// In-flight jobs destroyed on the device by a crash.
    flushed: u64,
}

/// Fleet event counts within one window.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    routed: u64,
    rejected: u64,
    shed: u64,
    retried: u64,
    /// Jobs whose loss became final in this window (crash loss with no
    /// budget left, or retry exhaustion).
    lost: u64,
    completed: u64,
    met: u64,
}

impl Counts {
    /// Every count with its column name, in column order.
    fn columns(&self) -> [(&'static str, u64); 7] {
        [
            ("routed", self.routed),
            ("rejected", self.rejected),
            ("shed", self.shed),
            ("retried", self.retried),
            ("lost", self.lost),
            ("completed", self.completed),
            ("met", self.met),
        ]
    }
}

/// One window's aggregates. The open window gathers the counts; closing
/// it fixes the rest.
#[derive(Debug, Clone, Default)]
struct Window {
    index: u64,
    counts: Counts,
    per_device: BTreeMap<u16, DevWindow>,
    /// p50, p99 and p999 of the window's completion latencies, µs; `None`
    /// when nothing completed in it.
    latency: Option<[f64; 3]>,
    /// Fleet-wide booked-minus-resolved depth at the window's end.
    inflight: i64,
    /// Devices out of rotation at the window's end.
    down: usize,
}

/// Observer producing windowed fleet time series from cluster probe events,
/// which arrive in time order.
///
/// Events are bucketed by `floor(at / window)`. Each window tracks arrival
/// verdicts (routed/rejected/shed), retries, final losses, completions and
/// deadline hits with a latency quantile sketch, and per-device
/// booked/done/flushed counts. When the stream passes the open window's
/// end, the window closes into a row that also records the fleet-wide
/// in-flight depth and the devices out of rotation at that instant. An
/// event for a window already closed is dropped.
///
/// Window-level SLO attainment is `met / (completed + rejected + shed +
/// lost)`: every job resolved in the window, metric-compatible with the
/// run-level `attain` column of `results/cluster.txt`.
#[derive(Debug)]
pub struct FleetSampler {
    window: Duration,
    dropped: u64,
    /// Closed windows, in time order.
    closed: Vec<Window>,
    open: Option<Window>,
    /// Completion latencies of the open window.
    latency: StreamingQuantiles,
    /// Devices out of rotation now.
    down: BTreeSet<u16>,
    /// Health transitions in arrival order: (at, device, in_rotation).
    health: Vec<(Cycle, u16, bool)>,
    misses: MissBreakdown,
    devices_seen: u16,
}

impl Default for FleetSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetSampler {
    /// A sampler with the [`DEFAULT_WINDOW`] width.
    pub fn new() -> Self {
        FleetSampler {
            window: DEFAULT_WINDOW,
            dropped: 0,
            closed: Vec::new(),
            open: None,
            latency: StreamingQuantiles::default(),
            down: BTreeSet::new(),
            health: Vec::new(),
            misses: MissBreakdown::default(),
            devices_seen: 0,
        }
    }

    /// Sets the window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: Duration) -> Self {
        assert!(!window.is_zero(), "window width must be positive");
        self.window = window;
        self
    }

    /// Pre-declares the fleet size, so `devices_up` counts idle devices
    /// too. Without this the sampler infers size as the highest device
    /// index that appeared in any event, plus one.
    pub fn with_devices(mut self, devices: u16) -> Self {
        self.devices_seen = self.devices_seen.max(devices);
        self
    }

    /// The configured window width.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Windows recorded so far.
    pub fn len(&self) -> usize {
        self.closed.len() + usize::from(self.open.is_some())
    }

    /// `true` when no window has any events yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because their window was beyond the
    /// [`DEFAULT_WINDOW_CAPACITY`] distinct windows already tracked, or
    /// already closed; the run-level miss breakdown still sees them.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Run-level miss breakdown accumulated from `JobMissed` events
    /// (counts every miss, including ones whose window was dropped).
    pub fn misses(&self) -> &MissBreakdown {
        &self.misses
    }

    fn window_index(&self, at: Cycle) -> u64 {
        at.as_cycles() / self.window.as_cycles()
    }

    /// The open window as it would close now.
    fn closing(&self, w: Window) -> Window {
        let c = w.counts;
        let flushed: u64 = w.per_device.values().map(|d| d.flushed).sum();
        let before = self.closed.last().map_or(0, |prev| prev.inflight);
        let q = &self.latency;
        Window {
            latency: (!q.is_empty()).then(|| [q.p50(), q.p99(), q.p999()]),
            inflight: before + (c.routed + c.retried) as i64 - (c.completed + flushed) as i64,
            down: self.down.len(),
            ..w
        }
    }

    /// The open window, if `at` falls in it or opens a new one. Closes the
    /// open window first once the stream has passed its end.
    fn stats(&mut self, at: Cycle) -> Option<&mut Window> {
        let index = self.window_index(at);
        if let Some(w) = self.open.take_if(|w| w.index < index) {
            let closed = self.closing(w);
            self.closed.push(closed);
            self.latency = StreamingQuantiles::default();
        }
        let fresh = self.closed.last().is_none_or(|w| w.index < index);
        if self.open.is_none() && fresh && self.closed.len() < DEFAULT_WINDOW_CAPACITY {
            self.open = Some(Window { index, ..Window::default() });
        }
        // Past the cap, or a late event whose window has closed.
        if self.open.as_ref().is_none_or(|w| w.index != index) {
            self.dropped += 1;
            return None;
        }
        self.open.as_mut()
    }

    fn saw_device(&mut self, device: u16) {
        self.devices_seen = self.devices_seen.max(device + 1);
    }

    /// Every recorded window, closed as it would close now, in time order.
    fn each_window(&self, f: impl FnMut(&Window)) {
        let open = self.open.clone().map(|w| self.closing(w));
        self.closed.iter().chain(&open).for_each(f);
    }

    fn start_us(&self, index: u64) -> f64 {
        (index * self.window.as_cycles()) as f64 / sim_core::time::CYCLES_PER_US as f64
    }

    /// Renders one row per recorded window as CSV. Rate columns are raw
    /// per-window counts; `attain` is the window's SLO attainment (empty
    /// cell when the window resolved no jobs), latency quantiles are over
    /// completions in the window (empty when none), `inflight` is the
    /// fleet-wide booked-minus-resolved depth at the window's end, and
    /// `devices_up` is how many devices were in rotation then.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "window,start_us,routed,rejected,shed,retried,lost,completed,met,attain,\
             p50_us,p99_us,p999_us,inflight,devices_up\n",
        );
        self.each_window(|w| {
            out.push_str(&format!("{},{},", w.index, self.start_us(w.index)));
            for (_, n) in w.counts.columns() {
                out.push_str(&format!("{n},"));
            }
            out.push_str(&attain(&w.counts).map_or(String::new(), |a| a.to_string()));
            for q in 0..3 {
                out.push_str(&w.latency.map_or(",".into(), |l| format!(",{}", l[q])));
            }
            let devices_up = usize::from(self.devices_seen) - w.down;
            out.push_str(&format!(",{},{devices_up}\n", w.inflight));
        });
        out
    }

    /// Renders the full series as one JSON document (validated by
    /// `sim_core::json`): window metadata, per-window aggregates with
    /// per-device booked/done/flushed maps, the run-level miss-cause
    /// breakdown, and the raw health-transition log.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"window_us\":");
        out.push_str(&format!("{}", self.window.as_us_f64()));
        out.push_str(&format!(",\"devices\":{}", self.devices_seen));
        out.push_str(&format!(",\"dropped\":{}", self.dropped));
        out.push_str(",\"miss_causes\":{");
        for (i, cause) in MissCause::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", cause.name(), self.misses.count(*cause)));
        }
        out.push_str("},\"windows\":[");
        let mut sep = "";
        self.each_window(|w| {
            let start_us = self.start_us(w.index);
            out.push_str(&format!("{sep}{{\"window\":{},\"start_us\":{start_us}", w.index));
            sep = ",";
            for (name, n) in w.counts.columns() {
                out.push_str(&format!(",\"{name}\":{n}"));
            }
            let null = || "null".to_string();
            let attain = attain(&w.counts).map_or_else(null, |a| a.to_string());
            out.push_str(&format!(",\"attain\":{attain}"));
            for (q, name) in ["p50_us", "p99_us", "p999_us"].iter().enumerate() {
                let value = w.latency.map_or_else(null, |l| l[q].to_string());
                out.push_str(&format!(",\"{name}\":{value}"));
            }
            out.push_str(&format!(",\"inflight\":{},\"per_device\":{{", w.inflight));
            for (j, (d, dw)) in w.per_device.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{d}\":{{\"booked\":{},\"done\":{},\"flushed\":{}}}",
                    dw.booked, dw.done, dw.flushed
                ));
            }
            out.push_str("}}");
        });
        out.push_str("],\"health\":[");
        for (i, (at, d, up)) in self.health.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{d},\"{}\"]",
                at.as_us_f64(),
                if *up { "up" } else { "down" }
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A window's SLO attainment; `None` when it resolved no job.
fn attain(c: &Counts) -> Option<f64> {
    let resolved = c.completed + c.rejected + c.shed + c.lost;
    (resolved > 0).then(|| c.met as f64 / resolved as f64)
}

impl Observer<ProbeEvent> for FleetSampler {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        match event {
            ProbeEvent::JobRouted { device, .. } => {
                self.saw_device(*device);
                if let Some(w) = self.stats(at) {
                    w.counts.routed += 1;
                    w.per_device.entry(*device).or_default().booked += 1;
                }
            }
            ProbeEvent::JobRejected { .. } => {
                if let Some(w) = self.stats(at) {
                    w.counts.rejected += 1;
                }
            }
            ProbeEvent::JobShed { .. } => {
                if let Some(w) = self.stats(at) {
                    w.counts.shed += 1;
                }
            }
            ProbeEvent::JobRetried { device, .. } => {
                self.saw_device(*device);
                if let Some(w) = self.stats(at) {
                    w.counts.retried += 1;
                    w.per_device.entry(*device).or_default().booked += 1;
                }
            }
            ProbeEvent::DeviceDown { device, lost, .. } => {
                self.saw_device(*device);
                self.health.push((at, *device, false));
                if let Some(w) = self.stats(at) {
                    w.per_device.entry(*device).or_default().flushed += u64::from(*lost);
                }
                self.down.insert(*device);
            }
            ProbeEvent::DeviceRestored { device } => {
                self.saw_device(*device);
                self.health.push((at, *device, true));
                // Touch the window so restorations at the tail still extend
                // the series.
                let _ = self.stats(at);
                self.down.remove(device);
            }
            ProbeEvent::JobCompleted { device, latency_us, met, .. } => {
                self.saw_device(*device);
                let Some(w) = self.stats(at) else { return };
                w.counts.completed += 1;
                w.counts.met += u64::from(*met);
                w.per_device.entry(*device).or_default().done += 1;
                self.latency.push(*latency_us);
            }
            ProbeEvent::JobMissed { cause, .. } => {
                self.misses.add(*cause);
                if matches!(cause, MissCause::CrashLoss | MissCause::RetryExhausted) {
                    if let Some(w) = self.stats(at) {
                        w.counts.lost += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

/// A counter track sampled as the stream passes, one sample per distinct
/// instant: the running value, and the instant whose sample waits until
/// the stream moves past it.
#[derive(Debug, Default)]
struct Counter {
    value: i64,
    pending: Option<Cycle>,
}

impl Counter {
    /// Adds `delta` at `at`, first writing the sample of an earlier instant.
    fn add(&mut self, events: &mut TraceEvents, name: &str, at: Cycle, delta: i64) {
        if let Some(prev) = self.pending.filter(|&prev| prev != at) {
            events.counter(name, 0, prev, self.value as f64);
        }
        self.value += delta;
        self.pending = Some(at);
    }

    /// Writes the last instant's sample.
    fn finish(&self, events: &mut TraceEvents, name: &str) {
        if let Some(at) = self.pending {
            events.counter(name, 0, at, self.value as f64);
        }
    }
}

/// Observer emitting Chrome trace-event JSON for a cluster run through
/// [`TraceEvents`], so it keeps at most
/// [`sim_core::trace::TRACE_EVENT_CAPACITY`] span/instant/counter records;
/// metadata, each counter's last sample and dangling health spans are
/// assembled at [`FleetTraceWriter::finish`] outside the cap.
///
/// Track layout: pid 0 is "Fleet health" — one thread per device carrying
/// `down`/`drain` spans (a device with no span is in rotation), plus the
/// fleet-wide `in_flight` and `devices_down` counter tracks; pid 1 is
/// "Jobs" — one thread per device, one span per completed job (category
/// `met` or `late`, so Perfetto colors outcomes apart) covering the job's
/// service residency; pid 2 is "Router" — instants for
/// route/retry/reject/shed and typed miss events.
#[derive(Debug, Default)]
pub struct FleetTraceWriter {
    events: TraceEvents,
    /// Devices that appeared in any event (for thread metadata).
    devices_seen: BTreeSet<u16>,
    /// Open health spans: device → (since, crashed).
    open_health: BTreeMap<u16, (Cycle, bool)>,
    /// Latest event timestamp, used to close dangling spans in `finish`.
    max_ts: Cycle,
    /// In-flight depth: +1 per route/retry, −1 per completion, −lost per
    /// crash flush.
    in_flight: Counter,
    /// Down devices: +1 per `DeviceDown`, −1 per `DeviceRestored`.
    devices_down: Counter,
}

impl FleetTraceWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Number of records captured so far (excluding metadata, each
    /// counter's last sample and dangling health spans, which are
    /// generated at [`FleetTraceWriter::finish`]).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push_instant(&mut self, name: &str, cat: &str, at: Cycle, tid: u64) {
        self.events.instant(name, cat, 2, tid, at);
    }

    /// Writes a `down` (crash) or `drain` span of `device`'s health lane.
    fn health_span(events: &mut TraceEvents, device: u16, open: (Cycle, bool), end: Cycle) {
        let (since, crashed) = open;
        let name = if crashed { "down" } else { "drain" };
        events.span(name, "health", 0, device.into(), since, end);
    }

    fn touch(&mut self, at: Cycle, device: u16) {
        self.max_ts = self.max_ts.max(at);
        self.devices_seen.insert(device);
    }

    /// Renders the complete trace document:
    /// `{"traceEvents":[…metadata…, …records…, …last counter samples…,
    /// …dangling health spans…]}`. Health spans still open at the last
    /// observed timestamp are closed there, so a run ending mid-outage
    /// still shows the outage.
    pub fn finish(&self) -> String {
        let head = |head: &mut TraceEvents| {
            for (pid, name) in [(0, "Fleet health"), (1, "Jobs"), (2, "Router")] {
                head.process_name(pid, name);
            }
            for &d in &self.devices_seen {
                (0..3).for_each(|pid| head.thread_name(pid, d.into(), "device"));
            }
        };
        let tail = |tail: &mut TraceEvents| {
            self.in_flight.finish(tail, "in_flight");
            self.devices_down.finish(tail, "devices_down");
            for (&d, &open) in &self.open_health {
                Self::health_span(tail, d, open, self.max_ts);
            }
        };
        self.events.finish(head, tail)
    }
}

impl Observer<ProbeEvent> for FleetTraceWriter {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        match event {
            ProbeEvent::JobRouted { job, device, .. } => {
                self.touch(at, *device);
                self.push_instant(&format!("route j{}", job.0), "route", at, *device as u64);
                self.in_flight.add(&mut self.events, "in_flight", at, 1);
            }
            ProbeEvent::JobRetried { job, attempt, device } => {
                self.touch(at, *device);
                self.push_instant(
                    &format!("retry j{} a{attempt}", job.0),
                    "retry",
                    at,
                    *device as u64,
                );
                self.in_flight.add(&mut self.events, "in_flight", at, 1);
            }
            ProbeEvent::JobRejected { job, .. } => {
                self.max_ts = self.max_ts.max(at);
                self.push_instant(&format!("reject j{}", job.0), "reject", at, 0);
            }
            ProbeEvent::JobShed { job, .. } => {
                self.max_ts = self.max_ts.max(at);
                self.push_instant(&format!("shed j{}", job.0), "shed", at, 0);
            }
            ProbeEvent::DeviceDown { device, crashed, lost } => {
                self.touch(at, *device);
                self.open_health.entry(*device).or_insert((at, *crashed));
                self.devices_down.add(&mut self.events, "devices_down", at, 1);
                if *lost > 0 {
                    self.in_flight.add(&mut self.events, "in_flight", at, -i64::from(*lost));
                }
            }
            ProbeEvent::DeviceRestored { device } => {
                self.touch(at, *device);
                if let Some(open) = self.open_health.remove(device) {
                    Self::health_span(&mut self.events, *device, open, at);
                }
                self.devices_down.add(&mut self.events, "devices_down", at, -1);
            }
            ProbeEvent::JobCompleted { job, device, latency_us, met } => {
                self.touch(at, *device);
                let start = Cycle::from_cycles(
                    at.as_cycles().saturating_sub(Duration::from_us_f64(*latency_us).as_cycles()),
                );
                let cat = if *met { "met" } else { "late" };
                self.events.span(&format!("j{}", job.0), cat, 1, (*device).into(), start, at);
                self.in_flight.add(&mut self.events, "in_flight", at, -1);
            }
            ProbeEvent::JobMissed { job, device, cause } => {
                self.max_ts = self.max_ts.max(at);
                let tid = device.map(u64::from).unwrap_or(0);
                self.push_instant(&format!("miss j{} {}", job.0, cause.name()), "miss", at, tid);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use sim_core::json;

    fn t(us: u64) -> Cycle {
        Cycle::ZERO + Duration::from_us(us)
    }

    fn routed(job: u32, device: u16) -> ProbeEvent {
        ProbeEvent::JobRouted { job: JobId(job), device, predicted_wait_us: 0.0, laxity_us: 10.0 }
    }

    fn completed(job: u32, device: u16, latency_us: f64, met: bool) -> ProbeEvent {
        ProbeEvent::JobCompleted { job: JobId(job), device, latency_us, met }
    }

    #[test]
    fn sampler_buckets_events_into_windows() {
        let mut s = FleetSampler::new().with_window(Duration::from_us(100));
        s.on_event(t(10), &routed(0, 0));
        s.on_event(t(60), &completed(0, 0, 50.0, true));
        s.on_event(t(110), &routed(1, 1));
        s.on_event(t(250), &completed(1, 1, 140.0, false));
        s.on_event(
            t(250),
            &ProbeEvent::JobMissed {
                job: JobId(1),
                device: Some(1),
                cause: MissCause::QueueingDelay,
            },
        );
        assert_eq!(s.len(), 3, "windows 0, 1, 2");
        assert_eq!(s.misses().total(), 1);
        let csv = s.to_csv();
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 4, "header + 3 windows: {csv}");
        assert!(rows[0].starts_with("window,start_us,routed,"));
        // Window 0: one routed, one completion that met.
        assert!(rows[1].starts_with("0,0,1,0,0,0,0,1,1,1"), "{}", rows[1]);
        // Window 2: the late completion resolves with attain 0.
        assert!(rows[3].starts_with("2,200,0,0,0,0,0,1,0,0"), "{}", rows[3]);
    }

    #[test]
    fn sampler_attainment_and_inflight_are_consistent() {
        let mut s = FleetSampler::new().with_window(Duration::from_us(100));
        for j in 0..10u32 {
            s.on_event(t(j as u64 * 10), &routed(j, (j % 2) as u16));
        }
        for j in 0..6u32 {
            s.on_event(t(150 + j as u64), &completed(j, (j % 2) as u16, 100.0, j < 4));
        }
        let csv = s.to_csv();
        let last = csv.lines().last().unwrap();
        let cols: Vec<&str> = last.split(',').collect();
        let attain: f64 = cols[9].parse().unwrap();
        assert!((attain - 4.0 / 6.0).abs() < 1e-12);
        let inflight: i64 = cols[13].parse().unwrap();
        assert_eq!(inflight, 4, "10 booked - 6 completed");
    }

    #[test]
    fn sampler_json_validates_and_parses() {
        let mut s = FleetSampler::new().with_window(Duration::from_us(100));
        s.on_event(t(5), &routed(0, 0));
        s.on_event(t(20), &ProbeEvent::DeviceDown { device: 1, crashed: true, lost: 1 });
        s.on_event(t(90), &ProbeEvent::DeviceRestored { device: 1 });
        s.on_event(t(95), &completed(0, 0, 90.0, true));
        s.on_event(
            t(99),
            &ProbeEvent::JobMissed { job: JobId(7), device: None, cause: MissCause::CrashLoss },
        );
        let doc = s.to_json();
        json::validate(&doc).expect("sampler JSON must validate");
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("devices").and_then(json::Value::as_f64), Some(2.0));
        let causes = v.get("miss_causes").unwrap();
        assert_eq!(causes.get("crash_loss").and_then(json::Value::as_f64), Some(1.0));
        let windows = v.get("windows").and_then(json::Value::as_array).unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].get("lost").and_then(json::Value::as_f64), Some(1.0));
        let health = v.get("health").and_then(json::Value::as_array).unwrap();
        assert_eq!(health.len(), 2);
    }

    #[test]
    fn sampler_window_capacity_drops_and_counts() {
        let mut s = FleetSampler::new().with_window(Duration::from_us(1));
        let cap = DEFAULT_WINDOW_CAPACITY as u32;
        let rejected = |j: u32| ProbeEvent::JobRejected { job: JobId(j), laxity_us: -1.0 };
        for j in 0..cap {
            s.on_event(t(j.into()), &rejected(j));
        }
        s.on_event(t(u64::from(cap) - 1), &rejected(7)); // the open window: kept
        s.on_event(t(cap.into()), &rejected(cap)); // one window past the cap
        assert_eq!(s.len(), DEFAULT_WINDOW_CAPACITY);
        assert_eq!(s.dropped(), 1);
        let last = s.to_csv().lines().last().unwrap().to_string();
        assert!(last.starts_with(&format!("{},{},0,2,", cap - 1, cap - 1)), "{last}");
        // Misses beyond the cap still count toward the run-level breakdown.
        s.on_event(
            t(cap.into()),
            &ProbeEvent::JobMissed { job: JobId(2), device: None, cause: MissCause::Shed },
        );
        assert_eq!(s.misses().count(MissCause::Shed), 1);
    }

    /// Windows close as the stream passes them: each row keeps the
    /// in-flight depth and the devices out of rotation at its end, and an
    /// event for a closed window is dropped.
    #[test]
    fn sampler_closes_windows_as_the_stream_passes() {
        let mut s = FleetSampler::new().with_window(Duration::from_us(100)).with_devices(2);
        s.on_event(t(10), &routed(0, 0));
        s.on_event(t(20), &routed(1, 1));
        s.on_event(t(99), &ProbeEvent::DeviceDown { device: 1, crashed: true, lost: 1 });
        s.on_event(t(150), &completed(0, 0, 140.0, true));
        s.on_event(t(150), &ProbeEvent::DeviceRestored { device: 1 });
        s.on_event(t(50), &routed(2, 0)); // window 0 has closed
        assert_eq!((s.len(), s.dropped()), (2, 1));
        let csv = s.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows, ["0,0,2,0,0,0,0,0,0,,,,,1,1", "1,100,0,0,0,0,0,1,1,1,140,140,140,0,2"]);
    }

    #[test]
    fn trace_writer_emits_valid_chrome_json() {
        let mut w = FleetTraceWriter::new();
        w.on_event(t(0), &routed(0, 0));
        w.on_event(t(10), &ProbeEvent::DeviceDown { device: 1, crashed: true, lost: 0 });
        w.on_event(t(30), &ProbeEvent::DeviceRestored { device: 1 });
        w.on_event(t(40), &completed(0, 0, 40.0, true));
        w.on_event(t(50), &ProbeEvent::JobRetried { job: JobId(3), attempt: 1, device: 0 });
        w.on_event(t(55), &ProbeEvent::JobShed { job: JobId(4), laxity_us: -3.0 });
        w.on_event(
            t(60),
            &ProbeEvent::JobMissed { job: JobId(4), device: None, cause: MissCause::Shed },
        );
        let doc = w.finish();
        json::validate(&doc).expect("trace JSON must validate");
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(json::Value::as_array).unwrap();
        assert!(events.len() > 10);
        let has = |name: &str, ph: &str| {
            events.iter().any(|e| {
                e.get("name").and_then(json::Value::as_str) == Some(name)
                    && e.get("ph").and_then(json::Value::as_str) == Some(ph)
            })
        };
        assert!(has("route j0", "i"));
        assert!(has("down", "X"), "closed health span");
        assert!(has("j0", "X"), "job span");
        assert!(has("miss j4 shed", "i"));
        assert_eq!(counter_samples(&doc, "in_flight"), vec![(0.0, 1.0), (40.0, 0.0), (50.0, 1.0)]);
        assert_eq!(counter_samples(&doc, "devices_down"), vec![(10.0, 1.0), (30.0, 0.0)]);
    }

    fn counter_samples(doc: &str, name: &str) -> Vec<(f64, f64)> {
        let v = json::parse(doc).unwrap();
        let events = v.get("traceEvents").and_then(json::Value::as_array).unwrap();
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(json::Value::as_str) == Some(name)
                    && e.get("ph").and_then(json::Value::as_str) == Some("C")
            })
            .map(|e| {
                (
                    e.get("ts").and_then(json::Value::as_f64).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(json::Value::as_f64)
                        .unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn trace_writer_samples_counters_live_under_the_cap() {
        let mut w = FleetTraceWriter::new();
        w.on_event(t(0), &routed(0, 0));
        w.on_event(t(5), &routed(1, 1));
        w.on_event(t(5), &completed(0, 0, 5.0, true));
        w.on_event(t(20), &completed(1, 1, 15.0, true));
        // Two route instants, two job spans, and the samples at 0 and 5,
        // written once the stream moved past them; the sample at 20 waits
        // for `finish`.
        assert_eq!(w.len(), 6);
        let doc = w.finish();
        json::validate(&doc).unwrap();
        assert_eq!(
            counter_samples(&doc, "in_flight"),
            vec![(0.0, 1.0), (5.0, 1.0), (20.0, 0.0)],
            "one sample per instant, after every delta at it"
        );
    }

    #[test]
    fn trace_writer_closes_dangling_health_spans_at_finish() {
        let mut w = FleetTraceWriter::new();
        w.on_event(t(10), &ProbeEvent::DeviceDown { device: 2, crashed: false, lost: 0 });
        w.on_event(t(500), &routed(0, 0));
        let doc = w.finish();
        json::validate(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(json::Value::as_array).unwrap();
        let drain = events
            .iter()
            .find(|e| e.get("name").and_then(json::Value::as_str) == Some("drain"))
            .expect("dangling drain span must be closed");
        assert_eq!(drain.get("ts").and_then(json::Value::as_f64), Some(10.0));
        assert_eq!(drain.get("dur").and_then(json::Value::as_f64), Some(490.0));
    }
}
