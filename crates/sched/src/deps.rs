//! Dependence-graph construction for one basic block.

use crate::timing::BlockTiming;
use parsched_graph::DiGraph;
use parsched_graph::FastMap;
use parsched_ir::{Block, Inst, InstKind};
use parsched_machine::{MachineDesc, OpClass};
use std::time::Instant;

/// The kind of a dependence edge, in the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Data flow dependence: "the register defined in u is used in v".
    Flow,
    /// Data anti-dependence: "a register used in u is later redefined in v".
    Anti,
    /// Data output dependence: "the register defined in u is redefined in v".
    Output,
    /// Memory flow (store → aliasing load).
    MemFlow,
    /// Memory anti (load → aliasing store).
    MemAnti,
    /// Memory output (store → aliasing store).
    MemOutput,
    /// Control / ordering constraint (calls act as barriers; the block
    /// terminator follows its body).
    Control,
}

impl DepKind {
    /// Whether this dependence can be a *false* dependence that actually
    /// restricts the scheduler.
    ///
    /// Register **output** dependences qualify: two definitions sharing a
    /// register can never issue in the same cycle. Register **anti**
    /// dependences do not: under the paper's footnote semantics (a live
    /// interval excludes its last use, reads precede writes within a
    /// cycle) a reader and the subsequent redefinition may share a cycle —
    /// this is exactly why the paper's Theorem 1 proof only has to argue
    /// about output dependences and dismisses anti dependences. Our
    /// scheduler gives anti edges zero latency, matching that semantics.
    pub fn is_register_false_candidate(self) -> bool {
        matches!(self, DepKind::Output)
    }
}

/// One dependence edge between body instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source body-instruction index.
    pub from: usize,
    /// Destination body-instruction index (always `> from`).
    pub to: usize,
    /// Dependence kind.
    pub kind: DepKind,
}

/// Maps an instruction to the machine operation class it occupies.
pub fn op_class(inst: &Inst) -> OpClass {
    match inst.kind() {
        InstKind::LoadImm { .. } | InstKind::Copy { .. } => OpClass::IntAlu,
        InstKind::Binary { op, .. } => {
            if op.is_float() {
                OpClass::FloatAlu
            } else {
                OpClass::IntAlu
            }
        }
        InstKind::Unary { op, .. } => {
            if op.is_float() {
                OpClass::FloatAlu
            } else {
                OpClass::IntAlu
            }
        }
        InstKind::Load { .. } => OpClass::MemLoad,
        InstKind::Store { .. } => OpClass::MemStore,
        InstKind::Branch { .. } | InstKind::Jump { .. } | InstKind::Ret { .. } => OpClass::Branch,
        InstKind::Call { .. } => OpClass::Call,
        InstKind::Nop => OpClass::Nop,
    }
}

/// The dependence graph of one basic-block *body* (the terminator is
/// excluded; it is pinned last by every scheduler in this workspace).
///
/// # Examples
///
/// ```
/// use parsched_ir::parse_function;
/// use parsched_sched::{DepGraph, DepKind};
///
/// let f = parse_function(
///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = mul s1, s1\n    ret s2\n}",
/// )?;
/// let deps = DepGraph::build(
///     f.block(parsched_ir::BlockId(0)),
///     &parsched_telemetry::NullTelemetry,
/// );
/// assert_eq!(deps.kind(0, 1), Some(DepKind::Flow));
/// # Ok::<(), parsched_ir::ParseError>(())
/// ```
///
/// Built from program order: for every later instruction that conflicts
/// with an earlier one, a directed edge runs earlier → later. When several
/// kinds relate the same pair the strongest is kept, in the order
/// flow > output > anti (memory kinds likewise).
#[derive(Debug, Clone)]
pub struct DepGraph {
    graph: DiGraph,
    kinds: FastMap<(usize, usize), DepKind>,
    classes: Vec<OpClass>,
}

impl DepGraph {
    /// Builds the dependence graph of `block`'s body, reporting node/edge
    /// counts to `telemetry` (pass
    /// [`parsched_telemetry::NullTelemetry`] when observability is not
    /// needed).
    ///
    /// Register dependences (flow/anti/output) are found per the paper's
    /// definitions; memory dependences use [`parsched_ir::MemAddr::may_alias`]
    /// (same base + different offset proves independence); `call`s are
    /// barriers against all memory operations and each other.
    pub fn build(block: &Block, telemetry: &dyn parsched_telemetry::Telemetry) -> DepGraph {
        match Self::build_until(block, telemetry, None) {
            Some(deps) => deps,
            None => unreachable!("build_until without a deadline cannot trip"),
        }
    }

    /// [`DepGraph::build`] with a cooperative wall-clock deadline: the
    /// quadratic pair scan polls the clock once per row and returns
    /// `None` as soon as `deadline` is in the past. Meant for
    /// statistics-only callers that would rather skip the graph than
    /// blow a compile budget on it.
    pub fn build_until(
        block: &Block,
        telemetry: &dyn parsched_telemetry::Telemetry,
        deadline: Option<Instant>,
    ) -> Option<DepGraph> {
        let _span = parsched_telemetry::span(telemetry, "deps.build");
        let deps = Self::build_impl(block, deadline)?;
        if telemetry.enabled() {
            telemetry.counter("deps.insts", deps.len() as u64);
            telemetry.counter("deps.edges", deps.graph.edge_count() as u64);
        }
        Some(deps)
    }

    fn build_impl(block: &Block, deadline: Option<Instant>) -> Option<DepGraph> {
        let body = block.body();
        let n = body.len();
        let mut graph = DiGraph::new(n);
        let mut kinds: FastMap<(usize, usize), DepKind> = FastMap::default();

        let mut add = |graph: &mut DiGraph, from: usize, to: usize, kind: DepKind| {
            debug_assert!(from < to, "dependences point forward");
            use std::collections::hash_map::Entry;
            match kinds.entry((from, to)) {
                Entry::Vacant(e) => {
                    graph.add_edge(from, to);
                    e.insert(kind);
                }
                Entry::Occupied(mut e) => {
                    if strength(kind) > strength(*e.get()) {
                        e.insert(kind);
                    }
                }
            }
        };

        // Flow dependences are *killing*: a use depends on the most recent
        // definition of its register, not on stale earlier ones (an
        // intervening redefinition yields output + flow edges whose
        // transitive combination preserves ordering). Anti and output
        // dependences follow the paper's literal any-later-redefinition
        // wording; they are conservative but only add ordering already
        // implied transitively.
        // Hoisted per-instruction facts: the pair scan below would
        // otherwise recompute them (and the memory/call pattern matches)
        // O(n²) times. Register lists live in two flat arenas indexed by
        // instruction, so hoisting costs two allocations, not 2n.
        let mut defs_arena: Vec<parsched_ir::Reg> = Vec::new();
        let mut uses_arena: Vec<parsched_ir::Reg> = Vec::new();
        let mut defs_idx: Vec<usize> = Vec::with_capacity(n + 1);
        let mut uses_idx: Vec<usize> = Vec::with_capacity(n + 1);
        defs_idx.push(0);
        uses_idx.push(0);
        for inst in body {
            inst.defs_into(&mut defs_arena);
            inst.uses_into(&mut uses_arena);
            defs_idx.push(defs_arena.len());
            uses_idx.push(uses_arena.len());
        }
        let defs = |i: usize| &defs_arena[defs_idx[i]..defs_idx[i + 1]];
        let uses = |i: usize| &uses_arena[uses_idx[i]..uses_idx[i + 1]];
        let mem_r: Vec<Option<&parsched_ir::MemAddr>> = body.iter().map(Inst::mem_read).collect();
        let mem_w: Vec<Option<&parsched_ir::MemAddr>> = body.iter().map(Inst::mem_write).collect();
        let is_call: Vec<bool> = body
            .iter()
            .map(|b| matches!(b.kind(), InstKind::Call { .. }))
            .collect();

        let mut last_def: FastMap<parsched_ir::Reg, usize> = FastMap::default();
        for j in 0..n {
            for u in uses(j) {
                if let Some(&i) = last_def.get(u) {
                    add(&mut graph, i, j, DepKind::Flow);
                }
            }
            for &d in defs(j) {
                last_def.insert(d, j);
            }
        }

        for j in 0..n {
            // Each row below is O(j) with several register scans, so one
            // clock read per row is invisible next to the row itself.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            let defs_j = defs(j);
            let (rj, wj) = (mem_r[j], mem_w[j]);
            for i in 0..j {
                // Output: i and j define the same register.
                if defs(i).iter().any(|d| defs_j.contains(d)) {
                    add(&mut graph, i, j, DepKind::Output);
                }
                // Anti: i uses a register j redefines.
                if uses(i).iter().any(|u| defs_j.contains(u)) {
                    add(&mut graph, i, j, DepKind::Anti);
                }
                // Memory dependences.
                let (ri, wi) = (mem_r[i], mem_w[i]);
                if let (Some(w), Some(r)) = (wi, rj) {
                    if w.may_alias(r) {
                        add(&mut graph, i, j, DepKind::MemFlow);
                    }
                }
                if let (Some(r), Some(w)) = (ri, wj) {
                    if r.may_alias(w) {
                        add(&mut graph, i, j, DepKind::MemAnti);
                    }
                }
                if let (Some(w1), Some(w2)) = (wi, wj) {
                    if w1.may_alias(w2) {
                        add(&mut graph, i, j, DepKind::MemOutput);
                    }
                }
                // Calls are barriers for memory and other calls.
                if (is_call[i] && (is_call[j] || rj.is_some() || wj.is_some()))
                    || (is_call[j] && (ri.is_some() || wi.is_some()))
                {
                    add(&mut graph, i, j, DepKind::Control);
                }
            }
        }

        Some(DepGraph {
            graph,
            kinds,
            classes: body.iter().map(op_class).collect(),
        })
    }

    /// Number of body instructions.
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying directed graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The machine class of body instruction `i`.
    pub fn class(&self, i: usize) -> OpClass {
        self.classes[i]
    }

    /// All machine classes, indexed by body position.
    pub fn classes(&self) -> &[OpClass] {
        &self.classes
    }

    /// The kind of the edge `from → to`, if present.
    pub fn kind(&self, from: usize, to: usize) -> Option<DepKind> {
        self.kinds.get(&(from, to)).copied()
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = DepEdge> + '_ {
        self.graph.edges().map(|(from, to)| DepEdge {
            from,
            to,
            kind: self.kinds[&(from, to)],
        })
    }

    /// Critical-path height of each node on `machine`: the longest
    /// latency-weighted path from the node to any sink, counting the node's
    /// own latency. The classic list-scheduling priority.
    ///
    /// # Errors
    /// Never in practice: every edge points forward, so the graph is
    /// acyclic. The `Result` is kept for API compatibility.
    pub fn heights(&self, machine: &MachineDesc) -> Result<Vec<u32>, parsched_graph::CycleError> {
        Ok(BlockTiming::of_body(self, machine).heights().to_vec())
    }
}

/// Dependence kinds from weakest to strongest: when several relate one
/// pair, the strongest is kept.
const BY_STRENGTH: [DepKind; 7] = [
    DepKind::MemAnti,
    DepKind::Anti,
    DepKind::MemOutput,
    DepKind::Output,
    DepKind::MemFlow,
    DepKind::Control,
    DepKind::Flow,
];

fn strength(k: DepKind) -> usize {
    BY_STRENGTH.iter().position(|&s| s == k).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;

    fn block_of(src: &str) -> parsched_ir::Block {
        parse_function(src).unwrap().blocks()[0].clone()
    }

    fn build(b: &parsched_ir::Block) -> DepGraph {
        DepGraph::build(b, &parsched_telemetry::NullTelemetry)
    }

    #[test]
    fn flow_dependences_in_example1() {
        // The paper's Example 1(b), symbolic form.
        let b = block_of(
            r#"
            func @ex1() {
            entry:
                s1 = load [@z + 0]
                s2 = li 0
                s3 = load [s2 + 0]
                s4 = add s1, s1
                s5 = mul s3, s1
                ret s5
            }
            "#,
        );
        let g = build(&b);
        assert_eq!(g.len(), 5);
        // Figure 2(a): s2→s3, s1→s4, s1→s5, s3→s5 flow edges.
        assert_eq!(g.kind(1, 2), Some(DepKind::Flow));
        assert_eq!(g.kind(0, 3), Some(DepKind::Flow));
        assert_eq!(g.kind(0, 4), Some(DepKind::Flow));
        assert_eq!(g.kind(2, 4), Some(DepKind::Flow));
        // No anti/output with symbolic single-def registers.
        assert!(g.edges().all(|e| !e.kind.is_register_false_candidate()));
    }

    #[test]
    fn anti_and_output_after_allocation() {
        // Example 1(c): physical code with r1/r2 reuse.
        let b = block_of(
            r#"
            func @ex1c() {
            entry:
                r1 = load [@z + 0]
                r2 = li 0
                r3 = load [r2 + 0]
                r2 = add r1, r1
                r1 = mul r3, r1
                ret r1
            }
            "#,
        );
        let g = build(&b);
        // The paper's false dependence: inst 2 (uses r2) vs inst 3 (redefines r2).
        assert_eq!(g.kind(2, 3), Some(DepKind::Anti));
        // Output dep: r2 defined at 1 and 3 — but flow 1→2's anti? Check output.
        assert_eq!(g.kind(1, 3), Some(DepKind::Output));
        // r1: defined at 0, redefined at 4, used at 3 → anti 3→4.
        assert_eq!(g.kind(3, 4), Some(DepKind::Anti));
    }

    #[test]
    fn memory_disambiguation() {
        let b = block_of(
            r#"
            func @mem(s0) {
            entry:
                store s0, [s0 + 0]
                s1 = load [s0 + 8]
                s2 = load [s0 + 0]
                store s0, [@g + 0]
                ret s2
            }
            "#,
        );
        let g = build(&b);
        // store [s0+0] vs load [s0+8]: provably disjoint.
        assert_eq!(g.kind(0, 1), None);
        // store [s0+0] vs load [s0+0]: must alias → MemFlow.
        assert_eq!(g.kind(0, 2), Some(DepKind::MemFlow));
        // store [s0+0] vs store [@g+0]: register base vs global → may alias.
        assert_eq!(g.kind(0, 3), Some(DepKind::MemOutput));
        // load [s0+8] vs store [@g+0]: may alias → MemAnti.
        assert_eq!(g.kind(1, 3), Some(DepKind::MemAnti));
    }

    #[test]
    fn calls_are_barriers() {
        let b = block_of(
            r#"
            func @c(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = call @f(s1)
                s3 = load [s0 + 0]
                s4 = call @f(s3)
                ret s4
            }
            "#,
        );
        let g = build(&b);
        assert_eq!(g.kind(0, 1), Some(DepKind::Flow), "arg flow wins");
        assert_eq!(g.kind(1, 2), Some(DepKind::Control), "call blocks load");
        assert_eq!(g.kind(1, 3), Some(DepKind::Control), "call blocks call");
    }

    #[test]
    fn heights_follow_latency() {
        let b = block_of(
            r#"
            func @h() {
            entry:
                s0 = load [@a + 0]
                s1 = add s0, 1
                s2 = add s1, 1
                ret s2
            }
            "#,
        );
        let g = build(&b);
        let m = parsched_machine::presets::rs6000(32); // load latency 2
        let h = g.heights(&m).unwrap();
        // chain: load(2) → add(1) → add(1) = 4, 2, 1
        assert_eq!(h, vec![4, 2, 1]);
    }

    #[test]
    fn op_class_mapping() {
        let b = block_of(
            r#"
            func @cls(s0) {
            entry:
                s1 = li 1
                s2 = fadd s0, s1
                s3 = fload [s0 + 0]
                store s3, [s0 + 8]
                s4 = call @f()
                nop
                ret s4
            }
            "#,
        );
        let g = build(&b);
        assert_eq!(g.class(0), OpClass::IntAlu);
        assert_eq!(g.class(1), OpClass::FloatAlu);
        assert_eq!(g.class(2), OpClass::MemLoad);
        assert_eq!(g.class(3), OpClass::MemStore);
        assert_eq!(g.class(4), OpClass::Call);
        assert_eq!(g.class(5), OpClass::Nop);
    }
}
