//! The parallelizable interference graph (PIG).
//!
//! `G = (V, E)` with `V = Vr` (the allocation vertices) and
//! `E = Er ∪ { {u,v} : {u,v} ∈ Ef and u,v ∈ V }` — the union of the
//! interference graph and the false-dependence graph restricted to
//! defining vertices. Theorem 1: an optimal coloring of `G` is a spill-free
//! register allocation whose scheduling graph has no false dependence.
//! Theorem 2: `G` is minimal with that property.

use crate::problem::BlockAllocProblem;
use parsched_graph::{BitMatrix, BitSet, ClosureMode, Reachability, UnGraph};
use parsched_machine::MachineDesc;
use parsched_sched::falsedep::{for_each_ef_pair, EfScratch};
use parsched_sched::DepGraph;
use std::sync::OnceLock;
use std::time::Instant;

/// A PIG: the combined graph plus bookkeeping about which edges came from
/// where (needed by the combined allocator's heuristics, Lemmas 2/3).
///
/// Everything the allocator reads is a bit row: `G = Er ∪ Ef` and the three
/// edge classes, with degrees taken by popcount. The graph [`Pig::graph`]
/// is a view of `G`'s rows built on first use (DOT output, figures, exact
/// coloring, tests); the spill loop never builds it.
#[derive(Debug, Clone)]
pub struct Pig {
    adjacency: BitMatrix,
    interference_only: BitMatrix,
    false_only: BitMatrix,
    shared: BitMatrix,
    edge_count: usize,
    view: OnceLock<UnGraph>,
}

/// The pooled tables of one `Ef` walk over a block's allocation vertices.
#[derive(Debug, Default)]
pub(crate) struct EfBuffers {
    kernel: EfScratch,
    /// The body positions that define a vertex.
    defining: BitSet,
    /// `Ef` over the vertices.
    edges: BitMatrix,
}

impl EfBuffers {
    /// `Ef` over `problem`'s vertices, from `reach`, the closure of `deps`:
    /// every pair of defining instructions the kernel yields becomes an
    /// edge between every vertex one defines and every vertex the other
    /// defines, so each result of a multi-result call carries its
    /// instruction's edges (Theorem 1). `None` once `deadline` passes.
    pub(crate) fn fill(
        &mut self,
        problem: &BlockAllocProblem,
        deps: &DepGraph,
        reach: &Reachability,
        machine: &MachineDesc,
        deadline: Option<Instant>,
    ) -> Option<&BitMatrix> {
        let n = deps.len();
        self.defining.reset(n);
        for i in (0..n).filter(|&i| !problem.nodes_defined_at(i).is_empty()) {
            self.defining.insert(i);
        }
        let edges = &mut self.edges;
        edges.reset(problem.len());
        for_each_ef_pair(
            deps,
            reach,
            machine,
            &self.defining,
            &mut self.kernel,
            deadline,
            |i, j| {
                for u in problem.nodes_defined_at(i) {
                    for v in problem.nodes_defined_at(j) {
                        edges.set(u, v);
                        edges.set(v, u);
                    }
                }
            },
        )?;
        Some(edges)
    }
}

impl Pig {
    /// Builds the PIG for `problem` on `machine`.
    ///
    /// # Examples
    ///
    /// ```
    /// use parsched_ir::liveness::Liveness;
    /// use parsched_ir::{parse_function, BlockId};
    /// use parsched_machine::presets;
    /// use parsched_regalloc::{BlockAllocProblem, Pig};
    /// use parsched_sched::DepGraph;
    /// use parsched_telemetry::NullTelemetry;
    ///
    /// let f = parse_function(
    ///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = fadd s0, 2\n    s3 = add s1, s2\n    ret s3\n}",
    /// )?;
    /// let lv = Liveness::compute(&f, &[]);
    /// let problem = BlockAllocProblem::build(&f, BlockId(0), &lv)?;
    /// let deps = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    /// let pig = Pig::build(&problem, &deps, &presets::paper_machine(8), &NullTelemetry);
    /// // The PIG contains at least the interference edges.
    /// assert!(pig.edge_count() >= problem.interference().edge_count());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// `deps` must be the dependence graph of the same block built from
    /// *symbolic* code. An `Ef` edge between two defining instructions
    /// becomes an edge between every vertex one defines and every vertex
    /// the other defines; `Ef` edges touching non-defining instructions
    /// (stores, branch inputs) have no allocation counterpart and are
    /// dropped, per the paper's `u, v ∈ V` restriction. This is the
    /// allocator's own construction ([`crate::AllocSession::build_pig_into`])
    /// with a closure built from scratch.
    ///
    /// Construction statistics are reported to `telemetry`: node/edge
    /// counts per class (`pig.*`) and the maximum PIG degree.
    pub fn build(
        problem: &BlockAllocProblem,
        deps: &DepGraph,
        machine: &MachineDesc,
        telemetry: &dyn parsched_telemetry::Telemetry,
    ) -> Pig {
        let _span = parsched_telemetry::span(telemetry, "pig.build");
        let Some(reach) = Reachability::build(deps.graph(), ClosureMode::Auto, None) else {
            unreachable!("a closure without a deadline cannot trip")
        };
        let mut buf = EfBuffers::default();
        let Some(ef) = buf.fill(problem, deps, &reach, machine, None) else {
            unreachable!("an Ef walk without a deadline cannot trip")
        };
        let mut pig = Pig::empty();
        pig.assemble(problem.interference(), ef);
        pig.report(telemetry);
        pig
    }

    pub(crate) fn report(&self, telemetry: &dyn parsched_telemetry::Telemetry) {
        if telemetry.enabled() {
            let n = self.node_count();
            telemetry.counter("pig.nodes", n as u64);
            telemetry.counter("pig.edges", self.edge_count as u64);
            telemetry.counter(
                "pig.interference_only_edges",
                (self.interference_only.count() / 2) as u64,
            );
            telemetry.counter("pig.false_only_edges", (self.false_only.count() / 2) as u64);
            telemetry.counter("pig.shared_edges", (self.shared.count() / 2) as u64);
            let max_degree = (0..n).map(|v| self.degree(v)).max().unwrap_or(0);
            telemetry.gauge("pig.max_degree", max_degree as u64);
        }
    }

    /// An empty PIG, the starting point of an in-place rebuild.
    pub(crate) fn empty() -> Pig {
        Pig {
            adjacency: BitMatrix::new(0),
            interference_only: BitMatrix::new(0),
            false_only: BitMatrix::new(0),
            shared: BitMatrix::new(0),
            edge_count: 0,
            view: OnceLock::new(),
        }
    }

    /// Assembles a PIG from an interference graph `Er` and a
    /// false-dependence edge set `Ef` over the *same* vertex set — the
    /// entry point for the global (web-based) construction.
    ///
    /// # Panics
    /// Panics if node counts differ.
    pub fn from_parts(er: &UnGraph, false_edges: &UnGraph) -> Pig {
        assert_eq!(
            er.node_count(),
            false_edges.node_count(),
            "Er and Ef must share a vertex set"
        );
        let mut pig = Pig::empty();
        pig.classify(er, |v| false_edges.row(v));
        pig
    }

    /// Rebuilds `self` in place as the PIG of `er` ∪ `ef`, where `ef` is a
    /// symmetric adjacency matrix over the same vertices, reusing the
    /// previous round's buffers. The spill loop calls this once per round.
    ///
    /// # Panics
    /// Panics if the sizes differ.
    pub(crate) fn assemble(&mut self, er: &UnGraph, ef: &BitMatrix) {
        assert_eq!(
            er.node_count(),
            ef.size(),
            "Er and Ef must share a vertex set"
        );
        self.classify(er, |v| ef.row(v));
    }

    /// Fills the rows of `G` and of the three edge classes from `Er` and
    /// `Ef`'s rows. The classes are row-wise boolean combinations of the
    /// two adjacency relations, so this runs a word at a time with no
    /// per-edge probes.
    fn classify<'a>(&mut self, er: &UnGraph, ef_row: impl Fn(usize) -> &'a BitSet) {
        let n = er.node_count();
        for m in [
            &mut self.adjacency,
            &mut self.interference_only,
            &mut self.false_only,
            &mut self.shared,
        ] {
            m.reset(n);
        }
        for v in 0..n {
            let (er_row, ef_row) = (er.row(v), ef_row(v));
            let row = self.adjacency.row_mut(v);
            row.clone_from(er_row);
            row.union_with(ef_row);
            let row = self.shared.row_mut(v);
            row.clone_from(er_row);
            row.intersect_with(ef_row);
            let row = self.interference_only.row_mut(v);
            row.clone_from(er_row);
            row.difference_with(ef_row);
            let row = self.false_only.row_mut(v);
            row.clone_from(ef_row);
            row.difference_with(er_row);
        }
        self.edge_count = er.edge_count() + self.false_only.count() / 2;
        self.view = OnceLock::new();
    }

    /// The combined graph `G` as an [`UnGraph`], built from its rows on
    /// first use.
    pub fn graph(&self) -> &UnGraph {
        self.view
            .get_or_init(|| UnGraph::from_symmetric(self.adjacency.clone()))
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.adjacency.size()
    }

    /// Number of edges of `G`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adjacency rows of `G`.
    pub fn adjacency(&self) -> &BitMatrix {
        &self.adjacency
    }

    /// Degree of `v` in `G`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency.row(v).count()
    }

    /// Adjacency of edges in `Er` only (pure interference; removing one may
    /// cause a spill but cannot lose parallelism — the dual of Lemma 2).
    pub fn interference_only(&self) -> &BitMatrix {
        &self.interference_only
    }

    /// Adjacency of edges in `Ef` only (pure parallelism; Lemma 2 — merging
    /// the two definitions cannot spill but restricts the scheduler).
    pub fn false_only(&self) -> &BitMatrix {
        &self.false_only
    }

    /// Adjacency of edges in both `Er` and `Ef` (Lemma 3 — keeping them
    /// separate both prevents a spill *and* preserves parallelism; never
    /// remove these).
    pub fn shared(&self) -> &BitMatrix {
        &self.shared
    }

    /// Degree of `v` counting only interference edges (`Er`), the quantity
    /// the combined algorithm's second simplify loop tests.
    pub fn interference_degree(&self, v: usize) -> usize {
        self.interference_only.row(v).count() + self.shared.row(v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_graph::coloring::{exact_chromatic_number, ExactLimits};
    use parsched_ir::liveness::Liveness;
    use parsched_ir::{parse_function, BlockId, Reg};
    use parsched_machine::presets;
    use parsched_sched::falsedep::false_dependence_graph;

    fn setup(src: &str) -> (parsched_ir::Function, BlockAllocProblem, DepGraph) {
        let f = parse_function(src).unwrap();
        let lv = Liveness::compute(&f, &[]);
        let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
        let d = DepGraph::build(&f.blocks()[0], &parsched_telemetry::NullTelemetry);
        (f, p, d)
    }

    const EXAMPLE1: &str = r#"
        func @ex1(s9) {
        entry:
            s1 = load [@z + 0]
            s2 = fadd s9, 0
            s3 = load [s2 + 0]
            s4 = add s1, s1
            s5 = mul s3, s1
            ret s5
        }
    "#;

    #[test]
    fn example1_pig_needs_three_colors() {
        // Figure 3: the parallelizable interference graph of Example 1
        // admits a 3-register allocation.
        let (_f, p, d) = setup(EXAMPLE1);
        let m = presets::paper_machine(8);
        let pig = Pig::build(&p, &d, &m, &parsched_telemetry::NullTelemetry);
        let chrom = exact_chromatic_number(pig.graph(), &ExactLimits::default()).unwrap();
        assert_eq!(chrom, 3);
    }

    #[test]
    fn example1_pig_adds_false_edges() {
        let (_f, p, d) = setup(EXAMPLE1);
        let m = presets::paper_machine(8);
        let pig = Pig::build(&p, &d, &m, &parsched_telemetry::NullTelemetry);
        let n = |r: u32| p.node_of(Reg::sym(r)).unwrap();
        // The false-dependence pairs {s1,s2}, {s2,s4}, {s3,s4} appear.
        assert!(pig.graph().has_edge(n(1), n(2)));
        assert!(pig.graph().has_edge(n(2), n(4)));
        assert!(pig.graph().has_edge(n(3), n(4)));
        // {s1,s2} is also an interference edge → shared (Lemma 3).
        assert!(pig.shared().get(n(1), n(2)));
        // {s2,s4}: s2 dead by s4's def → false-only (Lemma 2).
        assert!(pig.false_only().get(n(2), n(4)));
        // Interference degree excludes false-only edges.
        assert_eq!(
            pig.interference_degree(n(2)),
            pig.graph().degree(n(2)) - pig.false_only().row(n(2)).count()
        );
    }

    #[test]
    fn single_issue_pig_equals_interference_graph() {
        // No parallelism → Ef empty → PIG is exactly Gr.
        let (_f, p, d) = setup(EXAMPLE1);
        let m = presets::single_issue(8);
        let pig = Pig::build(&p, &d, &m, &parsched_telemetry::NullTelemetry);
        assert_eq!(pig.graph().edge_count(), p.interference().edge_count());
        assert_eq!(pig.false_only().count(), 0);
    }

    #[test]
    fn live_in_vertices_carry_no_false_edges() {
        let (_f, p, d) = setup(
            r#"
            func @li(s0, s1) {
            entry:
                s2 = add s0, 1
                s3 = fadd s1, 1
                s4 = add s2, s2
                ret s4
            }
            "#,
        );
        let m = presets::paper_machine(8);
        let pig = Pig::build(&p, &d, &m, &parsched_telemetry::NullTelemetry);
        let s0 = p.node_of(Reg::sym(0)).unwrap();
        let s1 = p.node_of(Reg::sym(1)).unwrap();
        assert_eq!(pig.false_only().row(s0).count(), 0);
        assert_eq!(pig.false_only().row(s1).count(), 0);
        // But they do interfere with each other (both live-in).
        assert!(pig.interference_only().get(s0, s1));
    }

    #[test]
    fn augmented_pig_available_lists_match_figure2() {
        // The paper's augmented PIG gives each instruction its list of
        // available partners: `Ef`'s neighbors. Example 1's available pairs
        // are the three Ef edges.
        let (_f, _p, d) = setup(EXAMPLE1);
        let m = presets::paper_machine(8);
        let ef = false_dependence_graph(&d, &m, &parsched_telemetry::NullTelemetry);
        assert_eq!(ef.node_count(), 5);
        assert!(ef.has_edge(0, 1), "load z ∥ s2");
        assert!(ef.has_edge(1, 3), "s2 ∥ add");
        assert!(ef.has_edge(2, 3), "load a[i] ∥ add");
        assert!(!ef.has_edge(0, 2), "loads share the fetch unit");
        assert_eq!(ef.neighbors(3).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn augmented_pig_same_cycle_pairs_are_available() {
        // Any two instructions the list scheduler issues in one cycle must
        // be in each other's available lists.
        use parsched_sched::list_schedule;
        let (f, _p, d) = setup(EXAMPLE1);
        let m = presets::paper_machine(8);
        let ef = false_dependence_graph(&d, &m, &parsched_telemetry::NullTelemetry);
        let s = list_schedule(
            &f.blocks()[0],
            &d,
            &m,
            parsched_sched::SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        for (_, group) in s.groups() {
            for (a, &u) in group.iter().enumerate() {
                for &v in &group[a + 1..] {
                    assert!(ef.has_edge(u, v), "scheduler paired {u} and {v} outside Ef");
                }
            }
        }
    }

    #[test]
    fn pig_chromatic_at_least_interference_chromatic() {
        // PIG ⊇ Gr, so χ(PIG) ≥ χ(Gr) always.
        let (_f, p, d) = setup(EXAMPLE1);
        let m = presets::paper_machine(8);
        let pig = Pig::build(&p, &d, &m, &parsched_telemetry::NullTelemetry);
        let lim = ExactLimits::default();
        let chrom_gr = exact_chromatic_number(p.interference(), &lim).unwrap();
        let chrom_pig = exact_chromatic_number(pig.graph(), &lim).unwrap();
        assert!(chrom_pig >= chrom_gr);
    }
}
