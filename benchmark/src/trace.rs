//! What the traced run records: spans around the calls into each layer,
//! the scheduler decorator and probe observers it attaches, and the Chrome
//! trace-event writer.
//!
//! Every span is timed from outside the library, at the public function
//! the benchmark calls. Work that happens inside a call (scheduler
//! callbacks, probe events) is aggregated per cell into counters on the
//! enclosing span, so the trace stays bounded however many events a cell
//! fires.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use gpu_sim::prelude::*;
use sim_core::json;

/// Which pass of a round a span was recorded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Nothing attached: the timing every end-to-end metric uses.
    Plain,
    /// Device cells with every scheduler callback timed.
    Decorated,
    /// Cells with a counting probe observer attached.
    Observed,
}

impl Pass {
    fn name(self) -> &'static str {
        match self {
            Pass::Plain => "plain",
            Pass::Decorated => "decorated",
            Pass::Observed => "observed",
        }
    }

    fn tid(self) -> u32 {
        self as u32
    }
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The function called, e.g. `Simulation::try_run`.
    pub name: &'static str,
    /// Index of the cell in its workload.
    pub cell: usize,
    /// Round of the run the span belongs to.
    pub round: usize,
    /// Pass within the round.
    pub pass: Pass,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The span that made this call.
    pub parent: Option<usize>,
    /// Host time inside this span spent in calls that are counted in
    /// `args` rather than recorded as child spans.
    pub nested_ns: u64,
    /// Counters recorded at this boundary.
    pub args: Vec<(String, f64)>,
}

impl Span {
    /// The value of counter `key`, or 0 when the span has none.
    pub fn arg(&self, key: &str) -> f64 {
        self.args.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| *v)
    }
}

/// In-memory span store, written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records the call `name` that ran from `start` to `end`, returning
    /// its index for use as a parent.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        cell: usize,
        round: usize,
        pass: Pass,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span {
            name,
            cell,
            round,
            pass,
            start_ns: ns(start),
            dur_ns: ns(end).saturating_sub(ns(start)),
            parent,
            nested_ns: 0,
            args: Vec::new(),
        })
    }

    /// Stores an already-built span, returning its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Mutable access to a recorded span, to attach counters.
    pub fn span_mut(&mut self, i: usize) -> &mut Span {
        &mut self.spans[i]
    }

    /// Every span recorded so far, in recording order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `i`: its duration minus the part of it covered by
    /// its child spans (overlapping children count once) and minus its
    /// aggregated nested calls.
    pub fn self_ns(&self, i: usize) -> u64 {
        let span = &self.spans[i];
        let (lo, hi) = (span.start_ns, span.start_ns + span.dur_ns);
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_ns.clamp(lo, hi), (c.start_ns + c.dur_ns).clamp(lo, hi)))
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = lo;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        span.dur_ns.saturating_sub(covered).saturating_sub(span.nested_ns)
    }

    /// Sums `value` over the spans named `name` in `pass` for each cell and
    /// round, keeps each cell's smallest round, and adds those up. Rounds
    /// repeat identical work and interference from the rest of the machine
    /// only ever adds time, so a cell's fastest round is its least disturbed
    /// one. Counters repeat exactly, so for them this is the per-round total.
    pub fn sum_of_minima(&self, pass: Pass, name: &str, value: impl Fn(usize) -> f64) -> f64 {
        let mut per_round: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.pass == pass && s.name == name {
                *per_round.entry((s.cell, s.round)).or_default() += value(i);
            }
        }
        let mut per_cell: BTreeMap<usize, f64> = BTreeMap::new();
        for ((cell, _), v) in per_round {
            per_cell.entry(cell).and_modify(|m| *m = m.min(v)).or_insert(v);
        }
        // A fold from +0.0: `sum` of nothing is -0.0.
        per_cell.values().fold(0.0, |acc, v| acc + v)
    }

    /// [`Tracer::sum_of_minima`] of span durations, in seconds.
    pub fn layer_s(&self, pass: Pass, name: &str) -> f64 {
        self.sum_of_minima(pass, name, |i| self.spans[i].dur_ns as f64 / 1e9)
    }

    /// [`Tracer::sum_of_minima`] of counter `key` on spans named `name`.
    pub fn counter(&self, pass: Pass, name: &str, key: &str) -> f64 {
        self.sum_of_minima(pass, name, |i| self.spans[i].arg(key))
    }

    /// Chrome trace-event JSON of every span, one thread per pass.
    /// `cell_names[i]` labels cell `i`.
    pub fn to_chrome_json(&self, cell_names: &[String]) -> String {
        let mut events = Vec::new();
        for pass in [Pass::Plain, Pass::Decorated, Pass::Observed] {
            events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{},"args":{{"name":"{}"}}}}"#,
                pass.tid(),
                pass.name()
            ));
        }
        for s in &self.spans {
            let mut ev = format!(
                r#"{{"name":"{}","ph":"X","pid":1,"tid":{},"ts":{},"dur":{},"args":{{"cell":"{}","round":{}"#,
                json::escaped(s.name),
                s.pass.tid(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                json::escaped(&cell_names[s.cell]),
                s.round
            );
            for (k, v) in &s.args {
                ev.push_str(&format!(r#","{}":{v}"#, json::escaped(k)));
            }
            ev.push_str("}}");
            events.push(ev);
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Calls and host time of one scheduler callback.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallbackStat {
    /// Number of calls.
    pub calls: u64,
    /// Host nanoseconds inside the callback.
    pub ns: u64,
}

/// The timed callbacks: the six CP callbacks, then the host `react`.
pub const CALLBACKS: [&str; 7] = [
    "cp.admit",
    "cp.on_tick",
    "cp.on_job_enqueued",
    "cp.on_wg_complete",
    "cp.on_kernel_complete",
    "cp.on_job_complete",
    "host.react",
];

/// Per-callback statistics shared between a decorator and the harness.
pub type CallbackStats = Rc<RefCell<[CallbackStat; 7]>>;

/// Wraps the scheduler in a forwarding decorator that counts and times
/// every callback into the returned statistics. Forwarding changes no
/// decision, so the run's report is unchanged.
pub fn decorate(mode: SchedulerMode) -> (SchedulerMode, CallbackStats) {
    let stats = CallbackStats::default();
    let mode = match mode {
        SchedulerMode::Cp(inner) => {
            SchedulerMode::Cp(Box::new(Timed { inner, stats: stats.clone() }))
        }
        SchedulerMode::Host(inner) => {
            SchedulerMode::Host(Box::new(Timed { inner, stats: stats.clone() }))
        }
    };
    (mode, stats)
}

struct Timed<S: ?Sized> {
    inner: Box<S>,
    stats: CallbackStats,
}

impl<S: ?Sized> Timed<S> {
    fn time<R>(&mut self, callback: usize, f: impl FnOnce(&mut S) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        let stat = &mut self.stats.borrow_mut()[callback];
        stat.calls += 1;
        stat.ns += ns;
        r
    }
}

impl CpScheduler for Timed<dyn CpScheduler> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn requires_inspection(&self) -> bool {
        self.inner.requires_inspection()
    }

    fn tick_period(&self) -> Option<Duration> {
        self.inner.tick_period()
    }

    fn admit(&mut self, ctx: &mut CpContext<'_>, q: usize) -> Admission {
        self.time(0, |s| s.admit(ctx, q))
    }

    fn on_tick(&mut self, ctx: &mut CpContext<'_>) {
        self.time(1, |s| s.on_tick(ctx))
    }

    fn on_job_enqueued(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.time(2, |s| s.on_job_enqueued(ctx, q))
    }

    fn on_wg_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.time(3, |s| s.on_wg_complete(ctx, q))
    }

    fn on_kernel_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.time(4, |s| s.on_kernel_complete(ctx, q))
    }

    fn on_job_complete(&mut self, ctx: &mut CpContext<'_>, q: usize) {
        self.time(5, |s| s.on_job_complete(ctx, q))
    }
}

impl HostScheduler for Timed<dyn HostScheduler> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick_period(&self) -> Option<Duration> {
        self.inner.tick_period()
    }

    fn react(&mut self, event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        self.time(6, |s| s.react(event, view, out))
    }
}

/// Per-kind probe-event counts of one device cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceCounts {
    /// Memory request bundles serviced.
    pub bundles: u64,
    /// Lines that hit in L1.
    pub l1_lines: u64,
    /// Lines that hit in L2.
    pub l2_lines: u64,
    /// Lines that went to DRAM.
    pub dram_lines: u64,
    /// Wavefronts issued.
    pub waves: u64,
    /// Kernels started.
    pub kernels: u64,
    /// Workgroups dispatched.
    pub wgs: u64,
    /// CP admission decisions.
    pub decisions: u64,
    /// CP admission decisions that admitted the job.
    pub admitted: u64,
    /// CP priority updates.
    pub priority_updates: u64,
}

impl DeviceCounts {
    /// The counts as span counters.
    pub fn args(&self) -> Vec<(String, f64)> {
        [
            ("memsys.bundles", self.bundles),
            ("memsys.l1_lines", self.l1_lines),
            ("memsys.l2_lines", self.l2_lines),
            ("memsys.dram_lines", self.dram_lines),
            ("exec.waves", self.waves),
            ("dispatch.kernels", self.kernels),
            ("dispatch.wgs", self.wgs),
            ("cp_frontend.decisions", self.decisions),
            ("cp_frontend.admitted", self.admitted),
            ("cp_frontend.priority_updates", self.priority_updates),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v as f64))
        .collect()
    }
}

impl Observer<ProbeEvent> for DeviceCounts {
    fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
        match event {
            ProbeEvent::MemAccess { mix, .. } => {
                self.bundles += 1;
                self.l1_lines += mix.l1;
                self.l2_lines += mix.l2;
                self.dram_lines += mix.dram;
            }
            ProbeEvent::WaveIssued { .. } => self.waves += 1,
            ProbeEvent::KernelStarted { .. } => self.kernels += 1,
            ProbeEvent::WgDispatched { .. } => self.wgs += 1,
            ProbeEvent::CpDecision { admitted, .. } => {
                self.decisions += 1;
                self.admitted += u64::from(*admitted);
            }
            ProbeEvent::CpPriority { .. } => self.priority_updates += 1,
            _ => {}
        }
    }
}

/// Host instants at the fleet engine's phase boundaries, read from the
/// probe stream: routing verdicts arrive live while the stream is routed,
/// and outcome events only after the devices have run.
#[derive(Debug, Clone, Default)]
pub struct FleetClock {
    /// First routing verdict.
    pub first_verdict: Option<Instant>,
    /// Last routing verdict.
    pub last_verdict: Option<Instant>,
    /// First completion or post-run miss.
    pub first_outcome: Option<Instant>,
    /// Jobs placed on a device at arrival.
    pub routed: u64,
    /// Jobs rejected at the front door.
    pub rejected: u64,
}

impl Observer<ProbeEvent> for FleetClock {
    fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
        let verdict = match event {
            ProbeEvent::JobRouted { .. } => {
                self.routed += 1;
                true
            }
            ProbeEvent::JobRejected { .. } => {
                self.rejected += 1;
                true
            }
            ProbeEvent::JobShed { .. } | ProbeEvent::JobRetried { .. } => true,
            // Front-door misses are narrated live with their verdict.
            ProbeEvent::JobMissed {
                cause: MissCause::FrontDoorReject | MissCause::Shed, ..
            } => false,
            ProbeEvent::JobCompleted { .. } | ProbeEvent::JobMissed { .. } => {
                self.first_outcome.get_or_insert_with(Instant::now);
                false
            }
            _ => false,
        };
        if verdict {
            let now = Instant::now();
            self.first_verdict.get_or_insert(now);
            self.last_verdict = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            cell: 0,
            round: 0,
            pass: Pass::Plain,
            start_ns,
            dur_ns,
            parent,
            nested_ns: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new();
        let root = t.push(span("root", 100, 1000, None));
        // Two overlapping children cover [200, 500) once: 300 ns.
        t.push(span("a", 200, 200, Some(root)));
        let b = t.push(span("b", 300, 200, Some(root)));
        // A child reaching past the parent's end counts only inside it.
        t.push(span("c", 1000, 500, Some(root)));
        // A grandchild is covered by its parent and not subtracted twice.
        t.push(span("b.inner", 350, 100, Some(b)));
        assert_eq!(t.self_ns(root), 1000 - 300 - 100);
        assert_eq!(t.self_ns(b), 200 - 100);
        // Aggregated nested calls come off the self time as well.
        t.span_mut(b).nested_ns = 40;
        assert_eq!(t.self_ns(b), 200 - 100 - 40);
        let leaf = t.push(span("leaf", 0, 50, None));
        assert_eq!(t.self_ns(leaf), 50);
    }

    #[test]
    fn sum_of_minima_keeps_each_cells_fastest_round() {
        let mut t = Tracer::new();
        for (cell, round, dur) in [(0, 0, 10), (0, 1, 30), (0, 2, 20), (1, 0, 5), (1, 1, 7)] {
            t.push(Span { cell, round, ..span("x", 0, dur, None) });
        }
        // Two spans of one cell and round add up before the minimum.
        t.push(Span { cell: 1, round: 0, ..span("x", 0, 4, None) });
        t.push(span("y", 0, 1000, None));
        let got = t.sum_of_minima(Pass::Plain, "x", |i| t.spans()[i].dur_ns as f64);
        assert_eq!(got, 10.0 + 7.0);
        assert_eq!(t.sum_of_minima(Pass::Observed, "x", |_| 1.0), 0.0);
    }

    #[test]
    fn chrome_trace_validates() {
        let mut t = Tracer::new();
        let root = t.push(span("cell", 0, 1000, None));
        let mut child = span("Simulation::try_run", 10, 900, Some(root));
        child.args.push(("events".to_string(), 42.0));
        t.push(child);
        let text = t.to_chrome_json(&["RR:IPV6:high:j4:s1 \"quoted\"".to_string()]);
        json::validate(&text).expect("trace must be valid JSON");
        assert!(text.contains("Simulation::try_run"));
    }
}
