//! Pass instrumentation for the parsched pipeline.
//!
//! The compiler threads a `&dyn Telemetry` through every pass. Passes report
//! three kinds of signals:
//!
//! * **Spans** — `phase_start`/`phase_end` pairs with monotonic timing, used
//!   for per-phase wall-clock breakdowns and Chrome-trace timelines.
//! * **Counters** — additive integer metrics (`counter("pig.edges", n)`).
//!   Gauges (`gauge`) are a max-tracking variant for peak quantities such as
//!   ready-list length or maximum PIG degree.
//! * **Events** — instant annotations ("spilled v7 in round 2").
//!
//! Three sinks ship with the crate:
//!
//! * [`NullTelemetry`] — the default. `enabled()` returns `false`, so call
//!   sites can skip building labels entirely; every method is a no-op.
//! * [`Recorder`] — in-memory, queryable. Used by tests to assert span
//!   nesting and counter/stat agreement.
//! * [`ChromeTraceSink`] — renders the Chrome `trace_event` JSON format
//!   readable by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! [`Fanout`] tees one stream into several sinks (the CLI composes a
//! `Recorder` for `--stats-json` with a `ChromeTraceSink` for `--trace`).
//!
//! The crate is std-only: no external dependencies, so the workspace builds
//! with `cargo build --offline` on a machine with an empty registry cache.

use json::{Layout, Writer};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

mod flight;
mod histogram;
pub mod json;
mod profile;

pub use flight::{FlightEntry, FlightKind, FlightRecorder};
pub use histogram::Histogram;
pub use json::escape_json;
pub use profile::{fmt_ns, PhaseNode, PhaseTree};

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Telemetry is observability plumbing: a sink must never turn one pass
/// panic (already caught by the resilience ladder) into a second.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sink for pipeline instrumentation. Object-safe: passes hold a
/// `&dyn Telemetry` and all methods take `&self` (sinks use interior
/// mutability so one reference can be shared across helper calls).
pub trait Telemetry {
    /// Whether this sink records anything. When `false`, callers may skip
    /// constructing labels and counter values that are costly to compute.
    fn enabled(&self) -> bool {
        true
    }

    /// Open a span named `name`. Spans must be closed in LIFO order with
    /// [`phase_end`](Telemetry::phase_end) passing the same name.
    fn phase_start(&self, name: &str);

    /// Close the innermost open span, which must be named `name`.
    fn phase_end(&self, name: &str);

    /// Add `value` to the additive counter `name`.
    fn counter(&self, name: &str, value: u64);

    /// Record `value` for gauge `name`, keeping the maximum seen.
    fn gauge(&self, name: &str, value: u64);

    /// Record an instant annotation.
    fn event(&self, name: &str, detail: &str);

    /// Record one sample into the log-bucketed histogram `name`
    /// (see [`Histogram`]). Sinks without distribution tracking ignore it.
    fn hist(&self, name: &str, value: u64) {
        let _ = (name, value);
    }
}

/// RAII guard returned by [`span`]: closes the phase on drop, so early
/// returns and `?` cannot leave a span open.
pub struct SpanGuard<'a> {
    sink: &'a dyn Telemetry,
    name: &'a str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.sink.phase_end(self.name);
    }
}

/// Open a span on `sink` and return a guard that closes it when dropped.
pub fn span<'a>(sink: &'a dyn Telemetry, name: &'a str) -> SpanGuard<'a> {
    sink.phase_start(name);
    SpanGuard { sink, name }
}

/// The zero-cost default sink: records nothing, reports `enabled() == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {
    fn enabled(&self) -> bool {
        false
    }
    fn phase_start(&self, _name: &str) {}
    fn phase_end(&self, _name: &str) {}
    fn counter(&self, _name: &str, _value: u64) {}
    fn gauge(&self, _name: &str, _value: u64) {}
    fn event(&self, _name: &str, _detail: &str) {}
}

/// One fully closed span as recorded by [`Recorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: String,
    /// `/`-joined names of the ancestor spans open when this span closed
    /// (empty for top-level spans). Unlike `depth`, the path survives
    /// [`Recorder::merge_from`] intact, so hierarchical aggregation
    /// ([`PhaseTree`]) stays correct across merged per-worker recorders.
    pub path: String,
    /// Nesting depth at the time the span was open (outermost = 0).
    pub depth: usize,
    /// Start offset from the recorder's epoch, in nanoseconds.
    pub start_ns: u128,
    /// Duration in nanoseconds.
    pub duration_ns: u128,
}

/// An instant event as recorded by [`Recorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    pub name: String,
    pub detail: String,
    /// Offset from the recorder's epoch, in nanoseconds.
    pub at_ns: u128,
}

#[derive(Debug, Default)]
struct RecorderState {
    /// Open spans: (name, start offset ns).
    open: Vec<(String, u128)>,
    spans: Vec<SpanRecord>,
    counters: std::collections::BTreeMap<String, u64>,
    gauges: std::collections::BTreeMap<String, u64>,
    events: Vec<EventRecord>,
    histograms: std::collections::BTreeMap<String, Histogram>,
    /// Mismatched `phase_end` calls (name expected, name got).
    errors: Vec<(String, String)>,
}

/// In-memory sink. Records every signal and exposes query helpers, so tests
/// can assert span nesting and counter values after a compile.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    state: Mutex<RecorderState>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            state: Mutex::new(RecorderState::default()),
        }
    }

    fn now_ns(&self) -> u128 {
        self.epoch.elapsed().as_nanos()
    }

    /// All closed spans, in the order they *ended*.
    pub fn spans(&self) -> Vec<SpanRecord> {
        locked(&self.state).spans.clone()
    }

    /// Names of spans still open (empty after a well-formed run).
    pub fn open_spans(&self) -> Vec<String> {
        let st = locked(&self.state);
        st.open.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Mismatched `phase_end` calls observed: `(expected, got)` pairs.
    /// Empty iff every `phase_end` matched the innermost open span.
    pub fn nesting_errors(&self) -> Vec<(String, String)> {
        locked(&self.state).errors.clone()
    }

    /// `true` iff all spans closed, in LIFO order, with matching names.
    pub fn nesting_well_formed(&self) -> bool {
        let st = locked(&self.state);
        st.open.is_empty() && st.errors.is_empty()
    }

    /// Value of an additive counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        locked(&self.state).counters.get(name).copied().unwrap_or(0)
    }

    /// Maximum value recorded for a gauge (`None` if never set).
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        locked(&self.state).gauges.get(name).copied()
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let st = locked(&self.state);
        st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Snapshot of all gauges (max values), sorted by name.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let st = locked(&self.state);
        st.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// All instant events in order.
    pub fn events(&self) -> Vec<EventRecord> {
        locked(&self.state).events.clone()
    }

    /// Number of closed spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        locked(&self.state)
            .spans
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Total wall time (ns) across **top-level occurrences** of `name`:
    /// nested self-recursion is not double counted because inner occurrences
    /// have larger depth. For the common case of non-recursive phases this is
    /// simply the sum of all spans with that name.
    pub fn total_ns(&self, name: &str) -> u128 {
        let st = locked(&self.state);
        let min_depth = st
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.depth)
            .min();
        match min_depth {
            None => 0,
            Some(d) => st
                .spans
                .iter()
                .filter(|s| s.name == name && s.depth == d)
                .map(|s| s.duration_ns)
                .sum(),
        }
    }

    /// Folds another recorder's closed state into this one: counters add,
    /// gauges keep the maximum, spans and events append (at their recorded
    /// depths), and nesting errors accumulate.
    ///
    /// Built for parallel drivers: give each worker thread its own
    /// `Recorder` and merge them at join, so workers never contend on one
    /// mutex mid-compilation. Span/event *offsets* stay relative to the
    /// source recorder's epoch — after a merge, rely on durations
    /// ([`total_ns`](Recorder::total_ns), [`phase_totals`](Recorder::phase_totals))
    /// rather than on cross-recorder start-time ordering.
    ///
    /// ```
    /// use parsched_telemetry::{span, Recorder, Telemetry};
    ///
    /// let (a, b) = (Recorder::new(), Recorder::new());
    /// a.counter("funcs", 2);
    /// b.counter("funcs", 3);
    /// drop(span(&b, "compile"));
    /// a.merge_from(&b);
    /// assert_eq!(a.counter_value("funcs"), 5);
    /// assert_eq!(a.span_count("compile"), 1);
    /// ```
    pub fn merge_from(&self, other: &Recorder) {
        // Snapshot `other` first: taking both locks at once could deadlock
        // if two recorders ever merged into each other concurrently.
        let (spans, counters, gauges, events, histograms, errors) = {
            let st = locked(&other.state);
            (
                st.spans.clone(),
                st.counters.clone(),
                st.gauges.clone(),
                st.events.clone(),
                st.histograms.clone(),
                st.errors.clone(),
            )
        };
        let mut st = locked(&self.state);
        st.spans.extend(spans);
        for (name, value) in counters {
            *st.counters.entry(name).or_insert(0) += value;
        }
        for (name, value) in gauges {
            let slot = st.gauges.entry(name).or_insert(0);
            *slot = (*slot).max(value);
        }
        st.events.extend(events);
        for (name, h) in histograms {
            st.histograms.entry(name).or_default().merge_from(&h);
        }
        st.errors.extend(errors);
    }

    /// Snapshot of the histogram named `name` (`None` if nothing recorded).
    /// Every closed span contributes its duration (ns) to the histogram of
    /// its own name, in addition to explicit [`Telemetry::hist`] samples.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        locked(&self.state).histograms.get(name).cloned()
    }

    /// Snapshot of all histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let st = locked(&self.state);
        st.histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Per-phase totals `(name, total_ns)` for every distinct span name,
    /// sorted by name.
    pub fn phase_totals(&self) -> Vec<(String, u128)> {
        let names: std::collections::BTreeSet<String> = {
            let st = locked(&self.state);
            st.spans.iter().map(|s| s.name.clone()).collect()
        };
        names
            .into_iter()
            .map(|n| {
                let t = self.total_ns(&n);
                (n, t)
            })
            .collect()
    }
}

impl Telemetry for Recorder {
    fn phase_start(&self, name: &str) {
        let t = self.now_ns();
        let mut st = locked(&self.state);
        st.open.push((name.to_string(), t));
    }

    fn phase_end(&self, name: &str) {
        let t = self.now_ns();
        let mut st = locked(&self.state);
        match st.open.pop() {
            Some((open_name, start)) if open_name == name => {
                let depth = st.open.len();
                let path = st
                    .open
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join("/");
                let duration_ns = t.saturating_sub(start);
                // Every span feeds a same-named duration histogram, so
                // per-phase p50/p90/p99 come for free with recording on.
                st.histograms
                    .entry(open_name.clone())
                    .or_default()
                    .record(duration_ns.min(u64::MAX as u128) as u64);
                st.spans.push(SpanRecord {
                    name: open_name,
                    path,
                    depth,
                    start_ns: start,
                    duration_ns,
                });
            }
            Some((open_name, start)) => {
                // Record the mismatch but keep the span so timings stay sane.
                st.errors.push((open_name.clone(), name.to_string()));
                st.open.push((open_name, start));
            }
            None => {
                st.errors.push((String::new(), name.to_string()));
            }
        }
    }

    fn counter(&self, name: &str, value: u64) {
        let mut st = locked(&self.state);
        *st.counters.entry(name.to_string()).or_insert(0) += value;
    }

    fn gauge(&self, name: &str, value: u64) {
        let mut st = locked(&self.state);
        let slot = st.gauges.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(value);
    }

    fn event(&self, name: &str, detail: &str) {
        let t = self.now_ns();
        let mut st = locked(&self.state);
        st.events.push(EventRecord {
            name: name.to_string(),
            detail: detail.to_string(),
            at_ns: t,
        });
    }

    fn hist(&self, name: &str, value: u64) {
        let mut st = locked(&self.state);
        st.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }
}

#[derive(Debug, Default)]
struct ChromeState {
    /// Open spans: (name, start offset µs as f64-safe ns).
    open: Vec<(String, u128)>,
    /// Rendered trace_event objects.
    entries: Vec<String>,
}

/// Streams spans/counters/events into the Chrome `trace_event` JSON format.
/// Call [`render`](ChromeTraceSink::render) or
/// [`write_to_file`](ChromeTraceSink::write_to_file) at the end of the run.
pub struct ChromeTraceSink {
    epoch: Instant,
    state: Mutex<ChromeState>,
}

impl Default for ChromeTraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTraceSink {
    pub fn new() -> Self {
        ChromeTraceSink {
            epoch: Instant::now(),
            state: Mutex::new(ChromeState::default()),
        }
    }

    fn now_us(&self) -> u128 {
        self.epoch.elapsed().as_micros()
    }

    /// Render the complete `{"traceEvents": [...]}` document.
    pub fn render(&self) -> String {
        let st = locked(&self.state);
        Writer::compact()
            .object(Layout::Line, |w| {
                w.key("traceEvents").array(Layout::Rows, |w| {
                    for e in &st.entries {
                        w.raw(e);
                    }
                });
                w.key("displayTimeUnit").str("ms");
            })
            .finish()
            + "\n"
    }

    /// Write the rendered trace to `path`.
    pub fn write_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    fn push(&self, entry: String) {
        locked(&self.state).entries.push(entry);
    }
}

/// One compact `trace_event` object: the common `name`/`cat`/`ph`/`ts`
/// head, then the phase-specific fields `rest` writes.
fn trace_event(name: &str, ph: &str, ts: u128, rest: impl FnOnce(&mut Writer)) -> String {
    Writer::compact()
        .object(Layout::Line, |w| {
            w.key("name").str(name);
            w.key("cat").str("parsched");
            w.key("ph").str(ph);
            w.key("ts").num(ts);
            rest(w);
        })
        .finish()
}

impl Telemetry for ChromeTraceSink {
    fn phase_start(&self, name: &str) {
        let t = self.now_us();
        let mut st = locked(&self.state);
        st.open.push((name.to_string(), t));
    }

    fn phase_end(&self, name: &str) {
        let t = self.now_us();
        let mut st = locked(&self.state);
        if let Some(pos) = st.open.iter().rposition(|(n, _)| n == name) {
            let (n, start) = st.open.remove(pos);
            let e = trace_event(&n, "X", start, |w| {
                w.key("dur").num(t.saturating_sub(start));
                w.key("pid").num(1).key("tid").num(1);
            });
            st.entries.push(e);
        }
    }

    fn counter(&self, name: &str, value: u64) {
        let t = self.now_us();
        self.push(trace_event(name, "C", t, |w| {
            w.key("pid").num(1).key("tid").num(1);
            w.key("args").object(Layout::Line, |w| {
                w.key("value").num(value);
            });
        }));
    }

    fn gauge(&self, name: &str, value: u64) {
        // Chrome traces have no max-gauge notion; emit as a counter sample.
        self.counter(name, value);
    }

    fn event(&self, name: &str, detail: &str) {
        let t = self.now_us();
        self.push(trace_event(name, "i", t, |w| {
            w.key("pid").num(1).key("tid").num(1);
            w.key("s").str("t");
            w.key("args").object(Layout::Line, |w| {
                w.key("detail").str(detail);
            });
        }));
    }
}

/// Tee: forwards every signal to each inner sink. `enabled()` is true iff
/// any inner sink is enabled. `S` is the sink type: the default
/// `dyn Telemetry` tees arbitrary sinks, while `dyn Telemetry + Sync`
/// makes the tee itself `Sync`, usable as the shared sink of a parallel
/// driver.
pub struct Fanout<'a, S: ?Sized + Telemetry + 'a = dyn Telemetry + 'a> {
    sinks: Vec<&'a S>,
}

impl<'a, S: ?Sized + Telemetry> Fanout<'a, S> {
    pub fn new(sinks: Vec<&'a S>) -> Self {
        Fanout { sinks }
    }
}

impl<S: ?Sized + Telemetry> Telemetry for Fanout<'_, S> {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
    fn phase_start(&self, name: &str) {
        for s in &self.sinks {
            s.phase_start(name);
        }
    }
    fn phase_end(&self, name: &str) {
        for s in &self.sinks {
            s.phase_end(name);
        }
    }
    fn counter(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.counter(name, value);
        }
    }
    fn gauge(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.gauge(name, value);
        }
    }
    fn event(&self, name: &str, detail: &str) {
        for s in &self.sinks {
            s.event(name, detail);
        }
    }
    fn hist(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.hist(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_disabled_and_silent() {
        let t = NullTelemetry;
        assert!(!t.enabled());
        t.phase_start("x");
        t.counter("c", 3);
        t.event("e", "detail");
        t.phase_end("x");
    }

    #[test]
    fn recorder_tracks_spans_counters_gauges() {
        let r = Recorder::new();
        {
            let _outer = span(&r, "outer");
            r.counter("edges", 2);
            r.counter("edges", 3);
            r.gauge("peak", 4);
            r.gauge("peak", 2);
            {
                let _inner = span(&r, "inner");
                r.event("note", "hello");
            }
        }
        assert!(r.nesting_well_formed());
        assert_eq!(r.counter_value("edges"), 5);
        assert_eq!(r.gauge_value("peak"), Some(4));
        assert_eq!(r.span_count("outer"), 1);
        assert_eq!(r.span_count("inner"), 1);
        let spans = r.spans();
        // Inner ends first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert!(spans[1].duration_ns >= spans[0].duration_ns);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].detail, "hello");
    }

    #[test]
    fn recorder_flags_mismatched_ends() {
        let r = Recorder::new();
        r.phase_start("a");
        r.phase_end("b");
        assert!(!r.nesting_well_formed());
        assert_eq!(r.nesting_errors(), vec![("a".into(), "b".into())]);
        // Span "a" is still open.
        assert_eq!(r.open_spans(), vec!["a".to_string()]);
    }

    #[test]
    fn recorder_total_ns_skips_nested_recursion() {
        let r = Recorder::new();
        r.phase_start("color");
        r.phase_start("color");
        r.phase_end("color");
        r.phase_end("color");
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        // Only the outer (depth-0) occurrence contributes.
        assert_eq!(r.total_ns("color"), spans[1].duration_ns);
    }

    #[test]
    fn merge_from_combines_all_signal_kinds() {
        let a = Recorder::new();
        let b = Recorder::new();
        {
            let _s = span(&a, "alpha");
            a.counter("shared", 1);
            a.gauge("peak", 9);
        }
        {
            let _s = span(&b, "beta");
            b.counter("shared", 4);
            b.counter("only_b", 2);
            b.gauge("peak", 3);
            b.event("note", "from b");
        }
        b.phase_start("x");
        b.phase_end("y"); // one nesting error in b
        a.merge_from(&b);
        assert_eq!(a.counter_value("shared"), 5);
        assert_eq!(a.counter_value("only_b"), 2);
        assert_eq!(a.gauge_value("peak"), Some(9));
        assert_eq!(a.span_count("alpha"), 1);
        assert_eq!(a.span_count("beta"), 1);
        assert_eq!(a.events().len(), 1);
        assert!(!a.nesting_well_formed());
        // b itself is untouched.
        assert_eq!(b.counter_value("shared"), 4);
        assert_eq!(b.span_count("alpha"), 0);
    }

    #[test]
    fn merge_from_empty_is_identity() {
        let a = Recorder::new();
        a.counter("c", 7);
        a.merge_from(&Recorder::new());
        assert_eq!(a.counter_value("c"), 7);
        assert_eq!(a.spans().len(), 0);
    }

    #[test]
    fn chrome_trace_renders_valid_shape() {
        let c = ChromeTraceSink::new();
        {
            let _s = span(&c, "phase \"one\"");
            c.counter("edges", 7);
            c.event("spill", "v3\nround 2");
        }
        let doc = c.render();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("phase \\\"one\\\""));
        assert!(doc.contains("v3\\nround 2"));
        assert!(doc.trim_end().ends_with('}'));
        // Exactly three event objects -> two separating commas.
        let objects = doc.matches("\"cat\":\"parsched\"").count();
        assert_eq!(objects, 3);
    }

    #[test]
    fn fanout_tees_to_all_sinks() {
        let a = Recorder::new();
        let b = Recorder::new();
        let null = NullTelemetry;
        let tee = Fanout::<dyn Telemetry>::new(vec![&a, &b, &null]);
        assert!(tee.enabled());
        {
            let _s = span(&tee, "p");
            tee.counter("c", 1);
        }
        assert_eq!(a.counter_value("c"), 1);
        assert_eq!(b.counter_value("c"), 1);
        assert_eq!(a.span_count("p"), 1);
        assert_eq!(b.span_count("p"), 1);

        let only_null = Fanout::new(vec![&null]);
        assert!(!only_null.enabled());
    }

    #[test]
    fn spans_record_ancestor_paths() {
        let r = Recorder::new();
        {
            let _a = span(&r, "compile");
            {
                let _b = span(&r, "alloc");
                let _c = span(&r, "color");
            }
        }
        let spans = r.spans();
        assert_eq!(spans[0].name, "color");
        assert_eq!(spans[0].path, "compile/alloc");
        assert_eq!(spans[1].path, "compile");
        assert_eq!(spans[2].path, "");
    }

    #[test]
    fn spans_feed_duration_histograms() {
        let r = Recorder::new();
        for _ in 0..3 {
            drop(span(&r, "phase"));
        }
        r.hist("explicit", 42);
        assert_eq!(r.histogram("phase").map(|h| h.count()), Some(3));
        let Some(e) = r.histogram("explicit") else {
            unreachable!("explicit histogram was recorded above")
        };
        assert_eq!(e.count(), 1);
        assert_eq!(e.percentile(50.0), Some(42));
    }

    #[test]
    fn merge_from_merges_histograms() {
        let a = Recorder::new();
        let b = Recorder::new();
        let ground = Recorder::new();
        for v in [1u64, 5, 9] {
            a.hist("lat", v);
            ground.hist("lat", v);
        }
        for v in [2u64, 900, 7] {
            b.hist("lat", v);
            ground.hist("lat", v);
        }
        a.merge_from(&b);
        assert_eq!(a.histogram("lat"), ground.histogram("lat"));
        assert_eq!(a.histogram("lat").map(|h| h.count()), Some(6));
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
