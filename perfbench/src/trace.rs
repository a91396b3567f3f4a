//! Spans recorded from the benchmark's own code, around its calls into
//! each layer. Spans live in memory and are written out when the run
//! ends; a layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which function (input id) the span belongs to.
    pub func: u32,
}

/// Self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_ns(
            s.start,
            s.end,
            children[i].iter().map(|&c| (spans[c].start, spans[c].end)),
        );
        *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Total duration of the top-level spans (those without a parent) whose
/// name is in `names`.
pub fn top_level_ns(spans: &[Span], names: &[&str]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && names.contains(&s.name))
        .map(|s| s.end - s.start)
        .sum()
}

/// A single-threaded span recorder. A disabled tracer records nothing, so
/// the same code can run traced and untraced to measure the overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    func: Cell<u32>,
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.tracer.now();
            self.tracer.spans.borrow_mut()[i].end = end;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            func: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_func(&self, id: u32) {
        self.func.set(id);
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let parent = self.stack.borrow().last().copied();
        let start = self.now();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            func: self.func.get(),
        });
        let index = spans.len() - 1;
        self.stack.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Spans as one JSON array (Chrome `trace_event` "X" events, so the file
/// opens in any trace viewer), with the parent index in `args`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"func\":{}}}}}{}",
            s.name,
            s.start as f64 / 1000.0,
            (s.end - s.start) as f64 / 1000.0,
            s.func,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            func: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("alloc", 0, 100, None),
            span("pig", 10, 30, Some(0)),
            span("color", 30, 60, Some(0)),
            // A grandchild is covered by its parent, not by "alloc".
            span("deps", 40, 50, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["alloc"], 50);
        assert_eq!(t["pig"], 20);
        assert_eq!(t["color"], 20);
        assert_eq!(t["deps"], 10);
        // Self times partition the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            // Clipped to the parent's interval.
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [110,160) + [190,200) = 60.
        assert_eq!(self_times(&spans)["root"], 40);
    }

    #[test]
    fn repeated_names_accumulate_and_top_level_sums() {
        let spans = vec![
            span("list", 0, 10, None),
            span("list", 20, 25, None),
            span("deps", 20, 22, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["list"], 13);
        assert_eq!(top_level_ns(&spans, &["list"]), 15);
        assert_eq!(top_level_ns(&spans, &["deps"]), 0);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let tr = Tracer::new(true);
        tr.set_func(3);
        {
            let _outer = tr.span("outer");
            let _inner = tr.span("inner");
        }
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].func, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let off = Tracer::new(false);
        drop(off.span("x"));
        assert!(off.take().is_empty());
    }
}
