//! Bounded trace capture: [`TraceSeries`], a time series for Figure-10
//! style plots (predicted execution time and priority of a job over its
//! lifetime), and [`TraceEvents`], the one Chrome trace-event writer behind
//! every trace exporter (the format Perfetto and `chrome://tracing` load).

use std::fmt::Write as _;

use crate::json;
use crate::time::Cycle;

/// One sampled point of a traced quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Simulation time of the sample.
    pub at: Cycle,
    /// Sampled value (units depend on the series).
    pub value: f64,
}

/// A named time series with a bounded number of points.
///
/// The bound guards against a runaway tracer in a long simulation; once full,
/// further samples are dropped (the interesting dynamics are at the start of
/// a job's life anyway).
///
/// # Examples
///
/// ```
/// use sim_core::trace::TraceSeries;
/// use sim_core::time::Cycle;
///
/// let mut s = TraceSeries::new("priority", 4);
/// s.sample(Cycle::from_cycles(1), 10.0);
/// s.sample(Cycle::from_cycles(2), 20.0);
/// assert_eq!(s.points().len(), 2);
/// assert_eq!(s.name(), "priority");
/// ```
#[derive(Debug, Clone)]
pub struct TraceSeries {
    name: String,
    points: Vec<TracePoint>,
    capacity: usize,
    dropped: u64,
}

impl TraceSeries {
    /// Creates an empty series that keeps at most `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceSeries { name: name.into(), points: Vec::new(), capacity, dropped: 0 }
    }

    /// Series name (e.g. `"predicted_exec_us"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records a sample; dropped (and counted) when the series is full.
    pub fn sample(&mut self, at: Cycle, value: f64) {
        if self.points.len() < self.capacity {
            self.points.push(TracePoint { at, value });
        } else {
            self.dropped += 1;
        }
    }

    /// All recorded points, in sampling order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of samples discarded because the series was already full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Records a [`TraceEvents`] buffer keeps before it drops further ones:
/// about 90 MB of JSON, which Perfetto still loads.
pub const TRACE_EVENT_CAPACITY: usize = 1 << 20;

/// A Chrome trace-event document under construction (the format Perfetto
/// and `chrome://tracing` load), holding at most [`TRACE_EVENT_CAPACITY`]
/// records: further ones are dropped and counted. The one trace-event
/// writer behind every exporter.
///
/// Exporters map their probe events onto records as they arrive.
/// [`finish`](TraceEvents::finish) adds what is known only at the end of a
/// run (thread metadata, tracks assembled from the whole run) outside the
/// cap, and writes `{"traceEvents":[…]}`. Instants are simulated times,
/// written in microseconds; names and categories are JSON-escaped.
///
/// # Examples
///
/// ```
/// use sim_core::time::Cycle;
/// use sim_core::trace::TraceEvents;
///
/// let mut t = TraceEvents::new();
/// t.counter("depth", 0, Cycle::from_cycles(1500), 2.0);
/// assert_eq!(
///     t.finish(|head| head.process_name(0, "device"), |_| {}),
///     "{\"traceEvents\":[\
///      {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"device\"}},\
///      {\"name\":\"depth\",\"ph\":\"C\",\"ts\":1,\"pid\":0,\"args\":{\"value\":2}}]}"
/// );
/// ```
#[derive(Debug)]
pub struct TraceEvents {
    /// The kept records' JSON objects, comma-separated.
    body: String,
    len: usize,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceEvents {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceEvents {
    /// An empty document capped at [`TRACE_EVENT_CAPACITY`] records.
    pub fn new() -> Self {
        Self::capped(TRACE_EVENT_CAPACITY)
    }

    fn capped(capacity: usize) -> Self {
        TraceEvents { body: String::new(), len: 0, capacity, dropped: 0 }
    }

    /// Appends one record object whose fields `write` renders, or counts it
    /// as dropped when the cap is reached.
    fn record(&mut self, write: impl FnOnce(&mut String)) {
        if self.len == self.capacity {
            self.dropped += 1;
            return;
        }
        if self.len > 0 {
            self.body.push(',');
        }
        self.body.push('{');
        write(&mut self.body);
        self.body.push('}');
        self.len += 1;
    }

    /// Names process `pid` (`ph:"M"`).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.record(|out| {
            let _ = write!(out, "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{");
            string(out, "name", name);
            out.push('}');
        });
    }

    /// Names thread `tid` of process `pid` as `"{label} {tid}"` (`ph:"M"`).
    pub fn thread_name(&mut self, pid: u32, tid: u64, label: &str) {
        self.record(|out| {
            let _ = write!(
                out,
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{"
            );
            string(out, "name", &format!("{label} {tid}"));
            out.push('}');
        });
    }

    /// A span `name` of category `cat` on thread `tid` of process `pid`,
    /// from `start` to `end` (`ph:"X"`; one ending before it starts has
    /// length 0).
    pub fn span(&mut self, name: &str, cat: &str, pid: u32, tid: u64, start: Cycle, end: Cycle) {
        self.record(|out| {
            string(out, "name", name);
            out.push(',');
            string(out, "cat", cat);
            let (ts, dur) = (start.as_us_f64(), end.saturating_since(start).as_us_f64());
            let _ =
                write!(out, ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid}");
        });
    }

    /// An instant `name` of category `cat` on thread `tid` of process `pid`
    /// (`ph:"i"`, thread-scoped).
    pub fn instant(&mut self, name: &str, cat: &str, pid: u32, tid: u64, at: Cycle) {
        self.record(|out| {
            string(out, "name", name);
            out.push(',');
            string(out, "cat", cat);
            let ts = at.as_us_f64();
            let _ =
                write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}");
        });
    }

    /// One sample of process `pid`'s counter track `name` (`ph:"C"`). A
    /// non-finite `value` has no JSON form: it is skipped, not counted.
    pub fn counter(&mut self, name: &str, pid: u32, at: Cycle, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.record(|out| {
            string(out, "name", name);
            let ts = at.as_us_f64();
            let _ = write!(
                out,
                ",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"args\":{{\"value\":{value}}}"
            );
        });
    }

    /// Records kept so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no record was kept.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records dropped because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The whole document: the records `head` writes, the kept records,
    /// then the records `tail` writes. Neither `head` nor `tail` counts
    /// against the cap. The document is written into one string sized for
    /// it, so the kept records are copied once.
    pub fn finish(
        &self,
        head: impl FnOnce(&mut TraceEvents),
        tail: impl FnOnce(&mut TraceEvents),
    ) -> String {
        let (mut first, mut last) = (Self::capped(usize::MAX), Self::capped(usize::MAX));
        head(&mut first);
        tail(&mut last);
        let parts = [first.body.as_str(), self.body.as_str(), last.body.as_str()];
        let (open, close) = ("{\"traceEvents\":[", "]}");
        let size = parts.iter().map(|p| p.len() + 1).sum::<usize>() + open.len() + close.len();
        let mut out = String::with_capacity(size);
        out.push_str(open);
        for part in parts.into_iter().filter(|p| !p.is_empty()) {
            if out.len() > open.len() {
                out.push(',');
            }
            out.push_str(part);
        }
        out.push_str(close);
        out
    }
}

/// Appends `"key":"value"` with `value` JSON-escaped.
fn string(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"");
    json::escape_into(out, value);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced() {
        let mut s = TraceSeries::new("x", 2);
        for i in 0..5 {
            s.sample(Cycle::from_cycles(i), i as f64);
        }
        assert_eq!(s.points().len(), 2);
        assert_eq!(s.points()[1].value, 1.0);
        assert_eq!(s.dropped(), 3);
    }

    fn t(us: u64) -> Cycle {
        Cycle::from_cycles(us * crate::time::CYCLES_PER_US)
    }

    #[test]
    fn trace_events_drop_and_count_past_the_cap() {
        let mut events = TraceEvents::capped(2);
        for i in 0..5 {
            events.instant("x", "c", 0, i, t(i));
        }
        assert_eq!((events.len(), events.dropped()), (2, 3));
        // Head and tail records are outside the cap.
        let doc = events
            .finish(|head| head.thread_name(0, 3, "CU"), |tail| tail.counter("n", 0, t(9), 4.0));
        json::validate(&doc).expect("still valid after drops");
        let v = json::parse(&doc).unwrap();
        let records = v.get("traceEvents").and_then(json::Value::as_array).unwrap();
        assert_eq!(records.len(), 4);
        let args = records[0].get("args").unwrap();
        assert_eq!(args.get("name").and_then(json::Value::as_str), Some("CU 3"));
        assert_eq!(records[2].get("tid").and_then(json::Value::as_f64), Some(1.0));
    }

    #[test]
    fn trace_events_escape_names_and_skip_non_finite_counters() {
        let mut events = TraceEvents::new();
        events.counter("nan", 0, t(1), f64::NAN);
        events.span("a\"b", "k", 1, 2, t(5), t(3));
        assert_eq!((events.len(), events.dropped()), (1, 0));
        assert_eq!(
            events.finish(|_| {}, |_| {}),
            r#"{"traceEvents":[{"name":"a\"b","cat":"k","ph":"X","ts":5,"dur":0,"pid":1,"tid":2}]}"#
        );
        assert_eq!(TraceEvents::new().finish(|_| {}, |_| {}), r#"{"traceEvents":[]}"#);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        TraceSeries::new("x", 0);
    }
}
