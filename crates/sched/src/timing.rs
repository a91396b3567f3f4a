//! The production timing model, the one place that prices time on a
//! [`MachineDesc`]. `parsched-verify`'s schedule checker re-derives
//! [`in_order_completion`] independently; `tests/verify.rs` pins the two.

use crate::deps::{op_class, DepEdge, DepGraph, DepKind};
use parsched_ir::{Block, Inst};
use parsched_machine::{MachineDesc, OpClass, ReservationTable};

/// One block's latencies, successors with edge latencies, critical-path
/// heights and the body instructions feeding the terminator. Every
/// dependence edge points forward, so body order is the topological order.
#[derive(Debug, Clone)]
pub struct BlockTiming<'m> {
    machine: &'m MachineDesc,
    classes: Vec<OpClass>,
    pub(crate) latency: Vec<u32>,
    /// Node `i`'s successors are `succ[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<usize>,
    succ: Vec<(usize, u32)>,
    heights: Vec<u32>,
    /// Whether each body instruction defines a register the terminator reads.
    pub(crate) feeds_term: Vec<bool>,
    pub(crate) term_class: Option<OpClass>,
}

impl<'m> BlockTiming<'m> {
    /// Builds the table for `block`, whose body `deps` describes.
    pub fn new(block: &Block, deps: &DepGraph, machine: &'m MachineDesc) -> Self {
        let mut timing = BlockTiming::of_body(deps, machine);
        if let Some(term) = block.terminator() {
            let reads = term.uses();
            let feeds = |inst: &Inst| inst.defs().iter().any(|d| reads.contains(d));
            timing.feeds_term = block.body().iter().map(feeds).collect();
            timing.term_class = Some(op_class(term));
        }
        timing
    }

    /// The table of a body without a terminator.
    pub(crate) fn of_body(deps: &DepGraph, machine: &'m MachineDesc) -> Self {
        let (n, graph) = (deps.len(), deps.graph());
        let classes = deps.classes().to_vec();
        let mut t = BlockTiming {
            machine,
            latency: classes.iter().map(|&c| machine.latency(c)).collect(),
            classes,
            succ_start: vec![0; n + 1],
            succ: Vec::with_capacity(graph.edge_count()),
            heights: vec![0; n],
            feeds_term: vec![false; n],
            term_class: None,
        };
        for from in 0..n {
            for (&to, &kind) in graph.succs(from).iter().zip(deps.succ_kinds(from)) {
                let lat = t.edge_latency(&DepEdge { from, to, kind });
                t.succ.push((to, lat));
            }
            t.succ_start[from + 1] = t.succ.len();
        }
        for u in (0..n).rev() {
            let below = t.succs(u).iter().map(|&(v, lat)| lat + t.heights[v]);
            t.heights[u] = below.max().unwrap_or(0).max(t.latency[u].max(1));
        }
        t
    }

    /// Machine class of body instruction `i`.
    pub fn class(&self, i: usize) -> OpClass {
        self.classes[i]
    }

    /// Successors of `i` as `(node, edge latency)`.
    pub(crate) fn succs(&self, i: usize) -> &[(usize, u32)] {
        &self.succ[self.succ_start[i]..self.succ_start[i + 1]]
    }

    /// The latency `edge` imposes, `cycle(to) ≥ cycle(from) + latency`:
    /// flow and memory flow cost the producer's latency; output and memory
    /// output 1 (the later write must win); register anti 0 (register files
    /// read before they write within a cycle — the paper's footnote on
    /// reusing a register in its last use); memory anti 1 (memory ports need
    /// not order a same-cycle load and store; spill-slot reuse depends on
    /// it); control 1 (calls are sequenced).
    pub(crate) fn edge_latency(&self, edge: &DepEdge) -> u32 {
        match edge.kind {
            DepKind::Flow | DepKind::MemFlow => self.latency[edge.from],
            DepKind::Output | DepKind::MemOutput | DepKind::MemAnti => 1,
            DepKind::Anti => 0,
            DepKind::Control => 1,
        }
    }

    /// Critical-path height of each node: the longest latency-weighted
    /// path from the node to any sink, counting the node's own latency.
    pub fn heights(&self) -> &[u32] {
        &self.heights
    }

    /// Raises each `times[v]` to at least `times[u] + latency(u → v)` in
    /// topological order (from zeros: the earliest dependence-legal cycles).
    pub(crate) fn relax(&self, times: &mut [u32]) {
        for u in 0..self.classes.len() {
            let tu = times[u];
            for &(v, lat) in self.succs(u) {
                times[v] = times[v].max(tu + lat);
            }
        }
    }

    /// The `nodes` that do not fit in one cycle after those before them,
    /// booked in `scratch` (see [`BlockTiming::overflow_scratch`]) so that
    /// repeated checks reuse one table and one output buffer.
    pub(crate) fn overflow<'s>(&self, nodes: &[usize], scratch: &'s mut Overflow) -> &'s [usize] {
        let Overflow { fresh, rt, out } = scratch;
        rt.clone_from(fresh);
        out.clear();
        for &i in nodes {
            if rt.can_issue(self.machine, self.classes[i], 0) {
                rt.issue(self.machine, self.classes[i], 0);
            } else {
                out.push(i);
            }
        }
        out
    }

    /// Empty buffers for [`BlockTiming::overflow`].
    pub(crate) fn overflow_scratch(&self) -> Overflow {
        let fresh = self.machine.reservation_table();
        Overflow {
            rt: fresh.clone(),
            fresh,
            out: Vec::new(),
        }
    }

    /// A fresh issue clock at cycle 0.
    pub fn clock(&self) -> IssueClock<'_> {
        IssueClock {
            timing: self,
            rt: self.machine.reservation_table(),
            release: vec![0; self.classes.len()],
            floor: 0,
            completion: 0,
            term_release: 0,
        }
    }
}

/// [`BlockTiming::overflow`]'s reusable buffers: an empty table of the
/// machine, the table being booked, and the nodes that did not fit.
#[derive(Debug)]
pub(crate) struct Overflow {
    fresh: ReservationTable,
    rt: ReservationTable,
    out: Vec<usize>,
}

/// In-order issue on one block: unit bookings, dependence releases, the
/// floor (latest issue so far), completion and the terminator's release.
#[derive(Debug)]
pub struct IssueClock<'t> {
    timing: &'t BlockTiming<'t>,
    rt: ReservationTable,
    release: Vec<u32>,
    floor: u32,
    completion: u32,
    term_release: u32,
}

impl Clone for IssueClock<'_> {
    fn clone(&self) -> Self {
        IssueClock {
            timing: self.timing,
            rt: self.rt.clone(),
            release: self.release.clone(),
            floor: self.floor,
            completion: self.completion,
            term_release: self.term_release,
        }
    }

    /// Reuses `self`'s buffers, so a search that snapshots its clock at
    /// every step allocates nothing once its snapshots are warm.
    fn clone_from(&mut self, source: &Self) {
        self.timing = source.timing;
        self.rt.clone_from(&source.rt);
        self.release.clone_from(&source.release);
        self.floor = source.floor;
        self.completion = source.completion;
        self.term_release = source.term_release;
    }
}

impl IssueClock<'_> {
    /// Whether `class` fits at exactly `cycle` given the bookings so far.
    pub(crate) fn fits(&self, class: OpClass, cycle: u32) -> bool {
        self.rt.can_issue(self.timing.machine, class, cycle)
    }

    /// The cycle node `i`'s issued predecessors release it at.
    pub fn release(&self, i: usize) -> u32 {
        self.release[i]
    }

    /// The cycle [`issue`](Self::issue) would give node `i`.
    pub fn next_free(&self, i: usize, earliest: u32) -> u32 {
        let from = self.release[i].max(self.floor).max(earliest);
        self.rt
            .next_free_cycle(self.timing.machine, self.timing.class(i), from)
    }

    /// Books node `i` at the first cycle ≥ `earliest`, its release and the
    /// floor where its class fits, and returns the cycle.
    pub fn issue(&mut self, i: usize, earliest: u32) -> u32 {
        let t = self.timing;
        let c = self.next_free(i, earliest);
        self.rt.issue(t.machine, t.class(i), c);
        self.floor = self.floor.max(c);
        self.completion = self.completion.max(c + t.latency[i]);
        if t.feeds_term[i] {
            self.term_release = self.term_release.max(c + t.latency[i]);
        }
        for &(s, lat) in t.succs(i) {
            self.release[s] = self.release[s].max(c + lat);
        }
        c
    }

    /// The latest issue cycle so far.
    pub fn floor(&self) -> u32 {
        self.floor
    }

    /// When every issued result is available.
    pub fn completion(&self) -> u32 {
        self.completion
    }

    /// When every result the terminator reads is available.
    pub fn term_release(&self) -> u32 {
        self.term_release
    }

    /// Block completion with the terminator at `tc`: `max(cᵢ + latᵢ, tc + 1)`.
    pub(crate) fn complete(&self, term_cycle: Option<u32>) -> u32 {
        term_cycle.map_or(self.completion, |tc| self.completion.max(tc + 1))
    }

    /// The terminator rule, `tc = next_free(term_class, max(floor, feeding
    /// results))`; returns `(tc, completion)`.
    pub fn finish(&self) -> (Option<u32>, u32) {
        let tc = self.timing.term_class.map(|class| {
            let from = self.floor.max(self.term_release);
            self.rt.next_free_cycle(self.timing.machine, class, from)
        });
        (tc, self.complete(tc))
    }
}

/// Completion of `block` when its instructions issue greedily in emitted
/// order, each at the first cycle dependences, resources and the floor
/// allow, and then the terminator by the terminator rule.
pub fn in_order_completion(block: &Block, machine: &MachineDesc) -> u32 {
    let deps = DepGraph::build(block, &parsched_telemetry::NullTelemetry);
    let timing = BlockTiming::new(block, &deps, machine);
    let mut clock = timing.clock();
    for i in 0..deps.len() {
        clock.issue(i, 0);
    }
    clock.finish().1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_waits_for_latency_then_places_terminator() -> Result<(), Box<dyn std::error::Error>> {
        let src =
            "func @t(s0) {\nentry:\n    s1 = load [s0 + 0]\n    s2 = add s1, 1\n    ret s2\n}";
        let f = parsched_ir::parse_function(src)?;
        let (b, m) = (&f.blocks()[0], parsched_machine::presets::rs6000(8)); // load latency 2
        let deps = DepGraph::build(b, &parsched_telemetry::NullTelemetry);
        let t = BlockTiming::new(b, &deps, &m);
        assert_eq!((t.succs(0), t.heights()), (&[(1, 2)][..], &[3, 1][..]));
        let mut clock = t.clock();
        assert_eq!((clock.issue(0, 0), clock.issue(1, 0)), (0, 2));
        assert_eq!(clock.finish(), (Some(3), 4));
        assert_eq!(in_order_completion(b, &m), 4);
        Ok(())
    }
}
