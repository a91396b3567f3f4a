//! Bounded flight recorder for post-mortem debugging.
//!
//! [`FlightRecorder`] is a [`Telemetry`](crate::Telemetry) sink that keeps
//! only the **last N** signals in a fixed-capacity ring buffer. It costs a
//! bounded amount of memory no matter how long the compile runs, so the
//! driver can leave it armed on every resilient compilation and dump it only
//! when something goes wrong — a degradation-ladder rung fires, a budget
//! trips, or translation validation fails. The dump shows the final
//! moments before the failure: which spans closed, what they cost, and what
//! events the passes reported.

use crate::json::{Layout, Writer};
use crate::{locked, OpenSpans, Telemetry};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// What kind of signal a [`FlightEntry`] captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A closed span; `detail` holds its duration in nanoseconds.
    Span,
    /// An instant event with free-form detail.
    Event,
    /// A counter increment; `detail` holds the added value.
    Counter,
}

impl FlightKind {
    fn label(self) -> &'static str {
        match self {
            FlightKind::Span => "span",
            FlightKind::Event => "event",
            FlightKind::Counter => "counter",
        }
    }
}

/// One ring-buffer entry.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Monotone sequence number across the recorder's lifetime (never
    /// reset, so gaps after wraparound are visible).
    pub seq: u64,
    /// Offset from the recorder's epoch, in nanoseconds.
    pub at_ns: u128,
    pub kind: FlightKind,
    pub name: String,
    pub detail: String,
}

#[derive(Debug, Default)]
struct FlightState {
    /// Open spans, with their start offsets in ns.
    open: OpenSpans,
    ring: VecDeque<FlightEntry>,
    next_seq: u64,
}

/// Fixed-memory ring-buffer sink holding the last `capacity` signals.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    state: Mutex<FlightState>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default ring size: enough for several spill rounds of context.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a recorder that retains the last `capacity` entries
    /// (capacity 0 is clamped to 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            state: Mutex::new(FlightState::default()),
        }
    }

    fn now_ns(&self) -> u128 {
        self.epoch.elapsed().as_nanos()
    }

    fn push(&self, kind: FlightKind, name: &str, detail: String, at_ns: u128) {
        let mut st = locked(&self.state);
        if st.ring.len() == self.capacity {
            st.ring.pop_front();
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.ring.push_back(FlightEntry {
            seq,
            at_ns,
            kind,
            name: name.to_string(),
            detail,
        });
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        locked(&self.state).ring.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries that have been evicted by wraparound.
    pub fn dropped(&self) -> u64 {
        let st = locked(&self.state);
        st.next_seq - st.ring.len() as u64
    }

    /// Snapshot of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<FlightEntry> {
        locked(&self.state).ring.iter().cloned().collect()
    }

    /// Human-readable dump of the ring, oldest entry first.
    pub fn dump(&self, reason: &str) -> String {
        let entries = self.entries();
        let dropped = self.dropped();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== flight recorder: {} entries (dropped {}) — {} ===",
            entries.len(),
            dropped,
            reason
        );
        for e in &entries {
            let _ = writeln!(
                out,
                "[{:>6}] {:>12} ns {:<7} {} {}",
                e.seq,
                e.at_ns,
                e.kind.label(),
                e.name,
                e.detail
            );
        }
        let _ = writeln!(out, "=== end flight recorder ===");
        out
    }

    /// JSON dump: `{"reason": ..., "dropped": N, "entries": [...]}`.
    pub fn dump_json(&self, reason: &str) -> String {
        let entries = self.entries();
        Writer::compact()
            .object(Layout::Line, |w| {
                w.key("reason").str(reason);
                w.key("dropped").num(self.dropped());
                w.key("entries").array(Layout::Line, |w| {
                    for e in &entries {
                        w.object(Layout::Line, |w| {
                            w.key("seq").num(e.seq);
                            w.key("at_ns").num(e.at_ns);
                            w.key("kind").str(e.kind.label());
                            w.key("name").str(&e.name);
                            w.key("detail").str(&e.detail);
                        });
                    }
                });
            })
            .finish()
            + "\n"
    }
}

impl Telemetry for FlightRecorder {
    fn phase_start(&self, name: &str) {
        let t = self.now_ns();
        locked(&self.state).open.start(name, t);
    }

    fn phase_end(&self, name: &str) {
        let t = self.now_ns();
        let start = locked(&self.state).open.end(name).unwrap_or(t);
        self.push(
            FlightKind::Span,
            name,
            format!("{} ns", t.saturating_sub(start)),
            t,
        );
    }

    fn counter(&self, name: &str, value: u64) {
        let t = self.now_ns();
        self.push(FlightKind::Counter, name, format!("+{value}"), t);
    }

    fn gauge(&self, _name: &str, _value: u64) {
        // Gauges are peak-trackers; the peak is in the main recorder, and
        // sampling every update would only flush useful history out of the
        // ring.
    }

    fn event(&self, name: &str, detail: &str) {
        let t = self.now_ns();
        self.push(FlightKind::Event, name, detail.to_string(), t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn records_spans_events_counters() {
        let f = FlightRecorder::new(16);
        {
            let _s = span(&f, "alloc.round");
            f.counter("pig.edges", 12);
            f.event("spill", "v3 round 1");
        }
        let entries = f.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].kind, FlightKind::Counter);
        assert_eq!(entries[1].kind, FlightKind::Event);
        assert_eq!(entries[2].kind, FlightKind::Span);
        assert_eq!(entries[2].name, "alloc.round");
        assert_eq!(f.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let f = FlightRecorder::new(4);
        for i in 0..10 {
            f.event("e", &format!("{i}"));
        }
        assert_eq!(f.len(), 4);
        assert_eq!(f.dropped(), 6);
        let entries = f.entries();
        // The survivors are the newest four, in order, with stable seqs.
        let details: Vec<&str> = entries.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, ["6", "7", "8", "9"]);
        assert_eq!(entries[0].seq, 6);
        assert_eq!(entries[3].seq, 9);
    }

    #[test]
    fn dump_formats_reason_and_drops() {
        let f = FlightRecorder::new(2);
        f.event("a", "1");
        f.event("b", "2");
        f.event("c", "3");
        let text = f.dump("budget tripped");
        assert!(text.contains("budget tripped"));
        assert!(text.contains("dropped 1"));
        assert!(text.contains("c 3"));
        assert!(!text.contains("a 1"));
        let json = f.dump_json("budget tripped");
        assert!(json.contains("\"reason\":\"budget tripped\""));
        assert!(json.contains("\"dropped\":1"));
    }

    #[test]
    fn spans_pair_per_thread() {
        let f = FlightRecorder::new(8);
        crate::tests::overlap_same_named_spans(&f);
        // Start of each closed span: its end minus its duration. A's span
        // closes first and started first.
        let starts: Vec<Option<u128>> = f
            .entries()
            .iter()
            .map(|e| {
                let dur = e.detail.strip_suffix(" ns")?.parse::<u128>().ok()?;
                e.at_ns.checked_sub(dur)
            })
            .collect();
        assert_eq!(starts.len(), 2);
        assert!(starts.iter().all(Option::is_some), "{}", f.dump("test"));
        assert!(starts[0] < starts[1], "{}", f.dump("test"));
    }

    #[test]
    fn unmatched_end_is_tolerated() {
        let f = FlightRecorder::new(8);
        f.phase_end("never-opened");
        assert_eq!(f.len(), 1);
        assert_eq!(f.entries()[0].detail, "0 ns");
    }
}
