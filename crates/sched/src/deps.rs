//! Dependence-graph construction for one basic block.

use crate::timing::BlockTiming;
use parsched_graph::DiGraph;
use parsched_graph::FastMap;
use parsched_ir::{Block, Inst, InstKind, MemAddr, Reg};
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
/// Built from program order, every edge running earlier → later. Register
/// dependences are *killing*: a use depends on its register's last
/// definition (flow), and a definition on the register's last definition
/// (output) and on its uses since then (anti). The paper's wording orders
/// a definition after *every* earlier definition and use of its register;
/// each of those extra edges is implied by a kept path of at least its
/// latency, so heights, the transitive closure and list schedules are the
/// literal graph's, and `Et`/`Ef` with them. Memory operations and calls
/// are ordered pairwise by [`MemAddr::may_alias`]. When several kinds
/// relate the same pair the strongest is kept, in the order flow > output
/// > anti (memory kinds likewise).
#[derive(Debug, Clone)]
pub struct DepGraph {
    graph: DiGraph,
    /// Edge kinds aligned with `graph.succs(u)`: node `u`'s are
    /// `succ_kinds[kind_start[u]..kind_start[u + 1]]`.
    kind_start: Vec<usize>,
    succ_kinds: Vec<DepKind>,
    classes: Vec<OpClass>,
}

/// "No instruction" / "no occurrence" in the builder's index tables.
const NONE: usize = usize::MAX;

impl DepGraph {
    /// Builds the dependence graph of `block`'s body, reporting node/edge
    /// counts to `telemetry` (pass
    /// [`parsched_telemetry::NullTelemetry`] when observability is not
    /// needed).
    ///
    /// Register dependences (flow/anti/output) are killing, as described
    /// on [`DepGraph`]; memory dependences use [`MemAddr::may_alias`] (same
    /// base + different offset proves independence); `call`s are barriers
    /// against all memory operations and each other.
    pub fn build(block: &Block, telemetry: &dyn parsched_telemetry::Telemetry) -> DepGraph {
        match Self::build_until(block, telemetry, None) {
            Some(deps) => deps,
            None => unreachable!("build_until without a deadline cannot trip"),
        }
    }

    /// [`DepGraph::build`] with a cooperative wall-clock deadline: the
    /// anti/output/memory pass polls the clock once per row and returns
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
        // `(from, kind)` of every edge in insertion order, which is each
        // node's successor order; sorted into per-node rows at the end.
        let mut log: Vec<(usize, DepKind)> = Vec::with_capacity(2 * n);

        // Per-instruction register lists as dense register ids, in two
        // flat arenas indexed by instruction: each register is hashed once
        // per occurrence here, and the passes below index plain tables.
        let mut ids: FastMap<Reg, usize> = FastMap::with_capacity_and_hasher(n, Default::default());
        let mut regs: Vec<Reg> = Vec::new();
        let (mut defs_arena, mut uses_arena) = (Vec::with_capacity(n), Vec::with_capacity(2 * n));
        let mut defs_idx: Vec<usize> = Vec::with_capacity(n + 1);
        let mut uses_idx: Vec<usize> = Vec::with_capacity(n + 1);
        defs_idx.push(0);
        uses_idx.push(0);
        let mut intern = |regs: &mut Vec<Reg>, arena: &mut Vec<usize>| {
            for r in regs.drain(..) {
                let next = ids.len();
                arena.push(*ids.entry(r).or_insert(next));
            }
        };
        for inst in body {
            inst.defs_into(&mut regs);
            intern(&mut regs, &mut defs_arena);
            inst.uses_into(&mut regs);
            intern(&mut regs, &mut uses_arena);
            defs_idx.push(defs_arena.len());
            uses_idx.push(uses_arena.len());
        }
        let defs = |i: usize| &defs_arena[defs_idx[i]..defs_idx[i + 1]];
        let uses = |i: usize| &uses_arena[uses_idx[i]..uses_idx[i + 1]];

        // Flow dependences are *killing*: a use depends on the most recent
        // definition of its register, not on stale earlier ones (an
        // intervening redefinition yields output + flow edges whose
        // transitive combination preserves ordering). They are inserted
        // first, so they lead every successor list.
        let mut last_def = vec![NONE; ids.len()];
        for j in 0..n {
            for &u in uses(j) {
                let i = last_def[u];
                if i != NONE && graph.add_edge(i, j) {
                    log.push((i, DepKind::Flow));
                }
            }
            for &d in defs(j) {
                last_def[d] = j;
            }
        }

        // Anti and output dependences are killing too: a definition of `r`
        // depends on `r`'s last definition (output) and on the uses of `r`
        // since then (anti), each use list cleared at the definition. The
        // paper's wording also orders it after every older definition and
        // use; each such edge is implied by a kept path of at least its
        // latency (output 1 ≤ 1 + 1 through the intervening definition,
        // anti 0 ≤ 0 + 1), so heights, the closure, release times and every
        // list schedule are those of the literal graph. That argument needs
        // every class latency to be ≥ 1, which `MachineBuilder::route` and
        // the spec parser enforce. Memory operations and calls are compared
        // pairwise. Each row inserts its new edges by ascending source, each
        // once with its strongest kind.
        let mut use_head = vec![NONE; ids.len()];
        last_def.fill(NONE);
        // (instruction, previous use of the register since its last def)
        let mut occ: Vec<(usize, usize)> = Vec::with_capacity(uses_arena.len());
        let mut mem: Vec<usize> = Vec::new();
        let mut row: Vec<(usize, DepKind)> = Vec::new();
        for j in 0..n {
            // One clock read per row is invisible next to the row itself.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            row.clear();
            // A use by `i` of one of several results of `j` is an output
            // dependence when `i` also defines another of them.
            let multi = defs(j).len() > 1;
            for &d in defs(j) {
                if last_def[d] != NONE {
                    row.push((last_def[d], DepKind::Output));
                }
                let mut k = use_head[d];
                while k != NONE {
                    let i = occ[k].0;
                    let kind = if multi && defs(i).iter().any(|r| defs(j).contains(r)) {
                        DepKind::Output
                    } else {
                        DepKind::Anti
                    };
                    row.push((i, kind));
                    k = occ[k].1;
                }
            }
            if touches_memory(&body[j]) {
                for &i in &mem {
                    if let Some(kind) = mem_dep(&body[i], &body[j], MemAddr::may_alias) {
                        row.push((i, kind));
                    }
                }
                mem.push(j);
            }
            row.sort_unstable_by_key(|&(i, kind)| (i, std::cmp::Reverse(strength(kind))));
            row.dedup_by_key(|&mut (i, _)| i);
            for &(i, kind) in &row {
                if graph.add_edge(i, j) {
                    log.push((i, kind));
                }
            }
            for &r in uses(j) {
                let head = use_head[r];
                if head == NONE || occ[head].0 != j {
                    use_head[r] = occ.len();
                    occ.push((j, head));
                }
            }
            for &d in defs(j) {
                last_def[d] = j;
                use_head[d] = NONE;
            }
        }

        Some(Self::assemble(graph, &log, body))
    }

    /// The graph of `block`'s body with exactly `edges`, in the given
    /// order within each source (the first of duplicate pairs wins) — for
    /// checking [`DepGraph::build`] against a reference construction
    /// through the schedulers and analyses that read a `DepGraph`.
    ///
    /// `None` if an edge does not point forward (`from < to`, as in every
    /// built graph) or an endpoint is not a body position: a backward edge
    /// could close a cycle, which no analysis of a `DepGraph` expects.
    pub fn from_edges(block: &Block, edges: impl IntoIterator<Item = DepEdge>) -> Option<DepGraph> {
        let body = block.body();
        let mut graph = DiGraph::new(body.len());
        let mut log = Vec::new();
        for e in edges {
            if e.from >= e.to || e.to >= body.len() {
                return None;
            }
            if graph.add_edge(e.from, e.to) {
                log.push((e.from, e.kind));
            }
        }
        Some(Self::assemble(graph, &log, body))
    }

    /// Lays out `log`, the `(from, kind)` of every edge of `graph` in
    /// insertion order (each node's successor order), as per-node kind
    /// rows aligned with `graph.succs`.
    fn assemble(graph: DiGraph, log: &[(usize, DepKind)], body: &[Inst]) -> DepGraph {
        // Counting sort of the log by source: `kind_start[u]` first serves
        // as `u`'s write cursor (ending at the next row's start), then is
        // shifted back into place.
        let n = body.len();
        let mut kind_start = vec![0; n + 1];
        for u in 0..n {
            kind_start[u + 1] = kind_start[u] + graph.out_degree(u);
        }
        let mut succ_kinds = vec![DepKind::Flow; log.len()];
        for &(u, kind) in log {
            succ_kinds[kind_start[u]] = kind;
            kind_start[u] += 1;
        }
        kind_start.rotate_right(1);
        kind_start[0] = 0;

        DepGraph {
            graph,
            kind_start,
            succ_kinds,
            classes: body.iter().map(op_class).collect(),
        }
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

    /// The kinds of `u`'s outgoing edges, aligned with
    /// `self.graph().succs(u)`.
    pub fn succ_kinds(&self, u: usize) -> &[DepKind] {
        &self.succ_kinds[self.kind_start[u]..self.kind_start[u + 1]]
    }

    /// The kind of the edge `from → to`, if present.
    pub fn kind(&self, from: usize, to: usize) -> Option<DepKind> {
        if from >= self.len() {
            return None;
        }
        let k = self.graph.succs(from).iter().position(|&v| v == to)?;
        Some(self.succ_kinds(from)[k])
    }

    /// Iterates over all edges, by source and then in successor order.
    pub fn edges(&self) -> impl Iterator<Item = DepEdge> + '_ {
        (0..self.len()).flat_map(move |from| {
            let succs = self.graph.succs(from).iter();
            succs
                .zip(self.succ_kinds(from))
                .map(move |(&to, &kind)| DepEdge { from, to, kind })
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

/// Whether `inst` takes part in memory ordering: a load, a store or a call.
pub(crate) fn touches_memory(inst: &Inst) -> bool {
    is_call(inst) || inst.mem_read().is_some() || inst.mem_write().is_some()
}

fn is_call(inst: &Inst) -> bool {
    matches!(inst.kind(), InstKind::Call { .. })
}

/// The strongest memory or call-ordering dependence of a later `b` on an
/// earlier `a`, with `alias` deciding whether two addresses may overlap:
/// calls are barriers for memory operations and each other, and a store
/// orders against every aliasing load or store.
pub(crate) fn mem_dep(
    a: &Inst,
    b: &Inst,
    alias: impl Fn(&MemAddr, &MemAddr) -> bool,
) -> Option<DepKind> {
    if (is_call(a) && touches_memory(b)) || (is_call(b) && touches_memory(a)) {
        return Some(DepKind::Control);
    }
    let overlap =
        |x: Option<&MemAddr>, y: Option<&MemAddr>| x.zip(y).is_some_and(|(x, y)| alias(x, y));
    if overlap(a.mem_write(), b.mem_read()) {
        Some(DepKind::MemFlow)
    } else if overlap(a.mem_write(), b.mem_write()) {
        Some(DepKind::MemOutput)
    } else if overlap(a.mem_read(), b.mem_write()) {
        Some(DepKind::MemAnti)
    } else {
        None
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
        assert!(g
            .edges()
            .all(|e| !matches!(e.kind, DepKind::Anti | DepKind::Output)));
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
    fn from_edges_takes_only_forward_edges() {
        let b = block_of("func @f(s0) {\nentry:\n s1 = add s0, s0\n s2 = add s1, s1\n s3 = add s2, s2\n ret s3\n}\n");
        let edge = |from, to| DepEdge {
            from,
            to,
            kind: DepKind::Flow,
        };
        let g = DepGraph::from_edges(&b, [edge(0, 1), edge(1, 2)]);
        assert_eq!(g.map(|g| g.kind(0, 1)), Some(Some(DepKind::Flow)));
        // A backward edge would close the cycle 0 → 1 → 0.
        assert!(DepGraph::from_edges(&b, [edge(0, 1), edge(1, 0)]).is_none());
        assert!(DepGraph::from_edges(&b, [edge(1, 1)]).is_none());
        assert!(DepGraph::from_edges(&b, [edge(0, 3)]).is_none());
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
