//! The sets `Et` and `Ef` of Pinter's construction, and detection of false
//! dependences introduced by register allocation.
//!
//! For a basic block with schedule graph `Gs` (symbolic registers, so no
//! register anti/output dependences exist):
//!
//! * `Et` = the edges of the transitive closure of `Gs` with directions
//!   removed, **plus** all non-precedence machine constraints (pairs that
//!   can never issue in the same cycle, e.g. two ops on a single shared
//!   unit);
//! * `Ef` = the complement of `Et`: exactly the pairs that *can* be
//!   scheduled together (**Lemma 1** — an edge `(u,v)` of a post-allocation
//!   scheduling graph is a false dependence iff `{u,v} ∈ Ef`).
//!
//! [`for_each_ef_pair`] is the one `Ef` kernel: it walks the closure's
//! rows over a universe of positions and never builds `Et`. Every PIG
//! takes its false-dependence edges from it — the allocator's session,
//! `Pig::build`, [`false_dependence_graph`] and the global region loop —
//! and [`et_graph`] keeps the paper's literal construction as the
//! reference.

use crate::deps::{mem_dep, touches_memory, DepEdge, DepGraph, DepKind};
use parsched_graph::{BitSet, ClosureMode, FastMap, Reachability, UnGraph, DEADLINE_STRIDE};
use parsched_ir::{Block, Inst, MemAddr, Reg, RegRole};
use parsched_machine::{MachineDesc, OpClass};
use std::collections::HashMap;
use std::time::Instant;

/// Builds `Et` for a block body: undirected transitive closure of the
/// dependence graph plus pairwise machine constraints, reporting its edge
/// count to `telemetry`.
///
/// This is the paper's literal construction, kept for the `Et` DOT dump,
/// the figures and as the tests' reference; every PIG takes `Ef` from
/// [`for_each_ef_pair`] instead.
///
/// `deps` should be built from *symbolic* code (the paper's `Gs`); building
/// it from allocated code would bake the allocation's false dependences
/// into `Et` and defeat the analysis.
pub fn et_graph(
    deps: &DepGraph,
    machine: &MachineDesc,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> UnGraph {
    let _span = parsched_telemetry::span(telemetry, "ef.et_build");
    let Some(reach) = Reachability::build(deps.graph(), ClosureMode::Auto, None) else {
        unreachable!("a closure without a deadline cannot trip")
    };
    let n = deps.len();
    let mut et = UnGraph::new(n);
    for u in 0..n {
        for v in reach.row_iter(u) {
            if v != u && !et.has_edge(u, v) {
                et.add_edge(u.min(v), u.max(v));
            }
        }
        for v in (u + 1)..n {
            if machine.pairwise_conflict(deps.class(u), deps.class(v)) {
                et.add_edge(u, v);
            }
        }
    }
    if telemetry.enabled() {
        telemetry.counter("ef.et_edges", et.edge_count() as u64);
    }
    et
}

/// [`for_each_ef_pair`]'s per-call tables, pooled so a caller that walks
/// `Ef` every spill round rebuilds them in place.
#[derive(Debug, Default)]
pub struct EfScratch {
    /// The distinct op classes of the block, in first-seen order.
    classes: Vec<OpClass>,
    /// Index into `classes` of each body position's class.
    class_of: Vec<usize>,
    class_positions: Vec<BitSet>,
    /// `conflict_rows[c]`: the positions whose class conflicts with
    /// `classes[c]` on the machine.
    conflict_rows: Vec<BitSet>,
    row: BitSet,
}

/// The one `Ef` kernel: calls `emit(i, j)` for every pair `i < j` of
/// `universe` that lies in `Ef`, in ascending `(i, j)` order. A pair is in
/// `Ef` when neither position reaches the other in `reach` (the closure of
/// `deps`) and the machine has no pairwise conflict between their op
/// classes (Lemma 1). Each row is one closure query minus the row's class
/// conflicts, a word at a time; no `Et` is built.
///
/// `universe` must have capacity `deps.len()`; callers restrict it to the
/// positions they can map, e.g. a PIG's defining instructions.
///
/// Returns `None`, like the closure builds, once `deadline` passes,
/// polled every ~[`DEADLINE_STRIDE`] rows.
pub fn for_each_ef_pair(
    deps: &DepGraph,
    reach: &Reachability,
    machine: &MachineDesc,
    universe: &BitSet,
    s: &mut EfScratch,
    deadline: Option<Instant>,
    mut emit: impl FnMut(usize, usize),
) -> Option<()> {
    let n = deps.len();
    s.classes.clear();
    s.class_of.clear();
    for &c in deps.classes() {
        let idx = s.classes.iter().position(|&d| d == c);
        s.class_of.push(idx.unwrap_or(s.classes.len()));
        if idx.is_none() {
            s.classes.push(c);
        }
    }
    let n_classes = s.classes.len();
    s.class_positions.resize_with(n_classes, BitSet::default);
    s.conflict_rows.resize_with(n_classes, BitSet::default);
    for set in s.class_positions.iter_mut().chain(&mut s.conflict_rows) {
        set.reset(n);
    }
    for (i, &idx) in s.class_of.iter().enumerate() {
        s.class_positions[idx].insert(i);
    }
    for (&c, row) in s.classes.iter().zip(&mut s.conflict_rows) {
        for (&d, set) in s.classes.iter().zip(&s.class_positions) {
            if machine.pairwise_conflict(c, d) {
                row.union_with(set);
            }
        }
    }

    s.row.reset(n);
    for (processed, i) in universe.iter().enumerate() {
        if processed % DEADLINE_STRIDE == DEADLINE_STRIDE - 1
            && deadline.is_some_and(|d| Instant::now() >= d)
        {
            return None;
        }
        // row(i) = universe \ reach(i) \ reach⁻¹(i) \ conflicts(i) \ {i};
        // the closure answers the first three in one query.
        reach.unordered_into(i, universe, &mut s.row);
        s.row.difference_with(&s.conflict_rows[s.class_of[i]]);
        // Each unordered pair once: Ef is symmetric.
        for j in s.row.iter().filter(|&j| j > i) {
            emit(i, j);
        }
    }
    Some(())
}

/// Builds the false-dependence graph `Ef` over every position of `deps`
/// with [`for_each_ef_pair`]. Its edges are exactly the instruction pairs
/// that can issue in the same cycle given the symbolic code and the
/// machine — the complement of [`et_graph`].
///
/// # Examples
///
/// ```
/// use parsched_ir::{parse_function, BlockId};
/// use parsched_machine::presets;
/// use parsched_sched::{falsedep, DepGraph};
///
/// let f = parse_function(
///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = fadd s0, 2\n    ret s2\n}",
/// )?;
/// let deps = DepGraph::build(f.block(BlockId(0)), &parsched_telemetry::NullTelemetry);
/// let ef = falsedep::false_dependence_graph(
///     &deps,
///     &presets::paper_machine(8),
///     &parsched_telemetry::NullTelemetry,
/// );
/// assert!(ef.has_edge(0, 1), "int and float ops may co-issue");
/// # Ok::<(), parsched_ir::ParseError>(())
/// ```
pub fn false_dependence_graph(
    deps: &DepGraph,
    machine: &MachineDesc,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> UnGraph {
    let _span = parsched_telemetry::span(telemetry, "ef.build");
    let n = deps.len();
    let Some(reach) = Reachability::build(deps.graph(), ClosureMode::Auto, None) else {
        unreachable!("a closure without a deadline cannot trip")
    };
    let mut all = BitSet::new(n);
    all.fill();
    let mut ef = UnGraph::new(n);
    let walked = for_each_ef_pair(
        deps,
        &reach,
        machine,
        &all,
        &mut EfScratch::default(),
        None,
        |i, j| {
            ef.add_edge(i, j);
        },
    );
    if walked.is_none() {
        unreachable!("an Ef walk without a deadline cannot trip");
    }
    if telemetry.enabled() {
        telemetry.counter("ef.edges", ef.edge_count() as u64);
    }
    ef
}

/// Returns the register output dependences of `alloc` (the *allocated*
/// block) that are **false**: their endpoints could have issued together
/// according to `ef` (built from the symbolic block via
/// [`false_dependence_graph`]). Every pair of definitions of a shared
/// register is tested, by ascending `(from, to)`: the paper's literal
/// output dependences, which the killing [`DepGraph`] keeps only between
/// consecutive definitions. Anti dependences are excluded by the paper's
/// footnote semantics — a last use and the reuse of its register may share
/// a cycle, so they cost no parallelism.
///
/// Both blocks must have identical instruction order (allocation renames
/// registers in place), so body indices correspond.
pub fn introduced_false_deps(ef: &UnGraph, alloc: &Block) -> Vec<DepEdge> {
    let mut out = Vec::new();
    for_each_redefinition(alloc.body(), |from, to| {
        if ef.has_edge(from, to) {
            out.push(DepEdge {
                from,
                to,
                kind: DepKind::Output,
            });
        }
    });
    out.sort_unstable_by_key(|e| (e.from, e.to));
    out
}

/// Calls `f(i, j)` once for every pair `i < j` of `body` positions that
/// define a common register, by ascending `j` and then `i`: the candidate
/// false dependences. The pairs come off per-register definition lists,
/// not off a [`DepGraph`], whose killing output edges join only
/// consecutive definitions; a false pair `(a, c)` can hide behind `a → b →
/// c` when `(a, b)` conflicts on a unit.
fn for_each_redefinition(body: &[Inst], mut f: impl FnMut(usize, usize)) {
    let mut ids: FastMap<Reg, usize> = FastMap::default();
    let mut defs_of: Vec<Vec<usize>> = Vec::new();
    let (mut regs, mut own, mut row) = (Vec::new(), Vec::new(), Vec::new());
    for (j, inst) in body.iter().enumerate() {
        inst.defs_into(&mut regs);
        own.clear();
        for r in regs.drain(..) {
            let next = ids.len();
            let id = *ids.entry(r).or_insert(next);
            if id == defs_of.len() {
                defs_of.push(Vec::new());
            }
            own.push(id);
        }
        row.clear();
        for &id in &own {
            row.extend_from_slice(&defs_of[id]);
        }
        // A multi-result instruction may share several registers with one
        // earlier definition.
        if own.len() > 1 {
            row.sort_unstable();
            row.dedup();
        }
        for &i in &row {
            f(i, j);
        }
        for &id in &own {
            if defs_of[id].last() != Some(&j) {
                defs_of[id].push(j);
            }
        }
    }
}

/// Renames the registers of `block` *apart*: every definition gets a fresh
/// symbolic register and every use reads the most recent definition of its
/// register (values live into the block get fresh names at entry). The
/// result is the block's single-definition symbolic form — the code "as if
/// an unbounded number of symbolic registers" were available — whose
/// schedule graph has no register anti/output dependences.
pub fn rename_apart(block: &Block) -> Block {
    let mut out = Block::new(block.label());
    let mut fresh: u32 = 0;
    let mut current: HashMap<Reg, Reg> = HashMap::new();
    for inst in block.insts() {
        // Uses read the incoming names, then defs bind new ones: the walk
        // visits uses first, and the new bindings take effect after it, so
        // a register both read and written (`r1 = add r1, 1`) reads its
        // old name.
        let mut renamed = inst.clone();
        let mut bound = Vec::new();
        renamed.map_regs_by_role(|r, role| {
            if let (RegRole::Use, Some(&name)) = (role, current.get(&r)) {
                return name;
            }
            let name = Reg::sym(fresh);
            fresh += 1;
            match role {
                RegRole::Use => _ = current.insert(r, name),
                RegRole::Def => bound.push((r, name)),
            }
            name
        });
        current.extend(bound);
        out.push(renamed);
    }
    out
}

/// Counts the false dependences of `block` intrinsically: the block is
/// renamed apart to recover its symbolic form, whose closure is built from
/// scratch, and every pair of definitions of a shared register is tested
/// against it. Zero for any code produced by PIG coloring with enough
/// registers (Theorem 1).
///
/// The closure build polls `deadline` and the count returns `None` once it
/// passes (never with `None`), so a caller inside a budgeted pipeline
/// phase overshoots by at most one stride of work rather than the whole
/// analysis.
///
/// This never materializes `Et`/`Ef`: each pair of definitions of a
/// shared register, found by comparing every pair `i < j` of instructions'
/// definitions, is tested directly against the reachability relation and
/// the machine's pairwise constraints (`{u,v} ∈ Ef ⇔ u ≁ v in the closure
/// and `u`,`v` have no issue conflict`). The reference for
/// [`count_false_deps_in`], sharing neither its pair enumeration nor its
/// reachability.
pub fn count_false_deps_until(
    block: &Block,
    machine: &MachineDesc,
    deadline: Option<Instant>,
) -> Option<usize> {
    let tripped = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
    let quiet = parsched_telemetry::NullTelemetry;
    let renamed = rename_apart(block);
    if tripped(deadline) {
        return None;
    }
    let sym_deps = DepGraph::build_until(&renamed, &quiet, deadline)?;
    let reach = Reachability::build(sym_deps.graph(), ClosureMode::Auto, deadline)?;
    let defs: Vec<Vec<Reg>> = block.body().iter().map(Inst::defs).collect();
    let mut count = 0;
    for v in 0..defs.len() {
        if tripped(deadline) {
            return None;
        }
        for u in 0..v {
            if defs[u].iter().any(|r| defs[v].contains(r))
                && !reach.reaches(u, v)
                && !reach.reaches(v, u)
                && !machine.pairwise_conflict(sym_deps.class(u), sym_deps.class(v))
            {
                count += 1;
            }
        }
    }
    Some(count)
}

/// Counts the false dependences of `block` from `own`, the block's own
/// dependence graph (the one its final list schedule uses, read here for
/// op classes), without renaming the block or building a second graph.
/// Equal to [`count_false_deps_until`], the independent reference.
///
/// The candidates are the pairs of definitions of a shared register that
/// the machine could issue together. The renamed-apart form is
/// value-numbered in place: a use reads the most recent definition of its
/// register, and memory and call edges are recomputed with each base
/// register standing for the value it holds. They cannot be read off
/// `own`: there a reused physical base hides memory edges the renamed
/// block has. Every edge points forward, so one forward pass builds each
/// instruction's ancestor set, and a candidate `u < v` is false iff `u` is
/// not an ancestor of `v`.
///
/// Polls `deadline` once per instruction and returns `None` once it
/// passes (or if it already has on entry).
pub fn count_false_deps_in(
    block: &Block,
    own: &DepGraph,
    machine: &MachineDesc,
    deadline: Option<Instant>,
) -> Option<usize> {
    let tripped = || deadline.is_some_and(|d| Instant::now() >= d);
    if tripped() {
        return None;
    }
    let body = block.body();
    let mut candidates = Vec::new();
    for_each_redefinition(body, |u, v| {
        if !machine.pairwise_conflict(own.class(u), own.class(v)) {
            candidates.push((u, v));
        }
    });
    if candidates.is_empty() {
        return Some(0);
    }

    let (n, words) = (body.len(), body.len().div_ceil(64));
    // Row `v` holds the renamed-apart ancestors of `v`.
    let mut ancestors = vec![0u64; n * words];
    let mut last_def: FastMap<Reg, usize> = FastMap::default();
    // Memory operations and calls so far, each with the definition its
    // base register reads (`None`: the value live into the block).
    let mut mem: Vec<(usize, Option<usize>)> = Vec::new();
    let mut regs: Vec<Reg> = Vec::new();
    for v in 0..n {
        if tripped() {
            return None;
        }
        let (done, rest) = ancestors.split_at_mut(v * words);
        let row = &mut rest[..words];
        let mut inherit = |u: usize| {
            row[u / 64] |= 1 << (u % 64);
            for (a, &b) in row.iter_mut().zip(&done[u * words..(u + 1) * words]) {
                *a |= b;
            }
        };
        let inst = &body[v];
        inst.uses_into(&mut regs);
        for r in regs.drain(..) {
            if let Some(&u) = last_def.get(&r) {
                inherit(u);
            }
        }
        if touches_memory(inst) {
            let addr = inst.mem_read().or(inst.mem_write());
            let base = addr.and_then(MemAddr::base_reg);
            let def = base.and_then(|r| last_def.get(&r).copied());
            for &(u, u_def) in &mem {
                // One register holding two different values is two names
                // after renaming, so nothing proves the addresses apart.
                let alias = |a: &MemAddr, b: &MemAddr| {
                    (a.base_reg().is_some() && a.base_reg() == b.base_reg() && u_def != def)
                        || a.may_alias(b)
                };
                if mem_dep(&body[u], inst, alias).is_some() {
                    inherit(u);
                }
            }
            mem.push((v, def));
        }
        inst.defs_into(&mut regs);
        for d in regs.drain(..) {
            last_def.insert(d, v);
        }
    }
    let reaches = |u: usize, v: usize| ancestors[v * words + u / 64] >> (u % 64) & 1 == 1;
    Some(candidates.iter().filter(|&&(u, v)| !reaches(u, v)).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;
    use parsched_machine::presets;

    const Q: parsched_telemetry::NullTelemetry = parsched_telemetry::NullTelemetry;

    fn block(src: &str) -> parsched_ir::Block {
        parse_function(src).unwrap().blocks()[0].clone()
    }

    /// The paper's Example 1(b): symbolic code. `s2 := i` is modeled as a
    /// float-unit copy (`fadd s9, 0`) so that — as in the paper's
    /// walk-through — it contends with neither the fetch unit (it may pair
    /// with `load z`) nor the fixed-point unit (it may pair with the add).
    fn example1_sym() -> parsched_ir::Block {
        block(
            r#"
            func @ex1(s9) {
            entry:
                s1 = load [@z + 0]
                s2 = fadd s9, 0
                s3 = load [s2 + 0]
                s4 = add s1, s1
                s5 = mul s3, s1
                ret s5
            }
            "#,
        )
    }

    /// Example 1(c): the paper's allocation that reuses r1, r2 and creates
    /// a false dependence between instructions 1 and 3 (s2/s4 → r2).
    fn example1_bad_alloc() -> parsched_ir::Block {
        block(
            r#"
            func @ex1c(r9) {
            entry:
                r1 = load [@z + 0]
                r2 = fadd r9, 0
                r3 = load [r2 + 0]
                r2 = add r1, r1
                r1 = mul r3, r1
                ret r1
            }
            "#,
        )
    }

    /// A machine like the paper's walk-through for Example 1: loads share
    /// one fetch unit, fixed ops share one fixed unit.
    fn machine() -> parsched_machine::MachineDesc {
        presets::paper_machine(8)
    }

    #[test]
    fn ef_contains_parallel_pairs_of_example1() {
        let deps = DepGraph::build(&example1_sym(), &Q);
        let ef = false_dependence_graph(&deps, &machine(), &Q);
        // The paper (Figure 2): false-dependence (parallelizable) pairs
        // include {s1,s2} (0,1), {s2,s4} (1,3), {s3,s4} (2,3).
        assert!(ef.has_edge(0, 1), "load z ∥ li");
        assert!(ef.has_edge(1, 3), "li ∥ add");
        assert!(ef.has_edge(2, 3), "load a[i] ∥ add");
        // Dependent or machine-conflicting pairs are not in Ef:
        assert!(!ef.has_edge(1, 2), "flow dependence s2→s3");
        assert!(!ef.has_edge(0, 2), "two loads share the fetch unit");
        assert!(!ef.has_edge(2, 4), "flow dependence s3→s5");
    }

    #[test]
    fn et_includes_machine_constraints() {
        let deps = DepGraph::build(&example1_sym(), &Q);
        let et = et_graph(&deps, &machine(), &Q);
        // {s1, s3}: both loads — machine constraint even though the paper's
        // figure also lists it among machine-dependent edges.
        assert!(et.has_edge(0, 2));
        // {s4, s5}: both fixed-point ops — the paper's other machine edge.
        assert!(et.has_edge(3, 4));
        // Transitive: s2 → s3 → s5 gives {s2, s5}.
        assert!(et.has_edge(1, 4));
    }

    #[test]
    fn paper_allocation_introduces_false_dep() {
        let sym_deps = DepGraph::build(&example1_sym(), &Q);
        let ef = false_dependence_graph(&sym_deps, &machine(), &Q);
        let false_deps = introduced_false_deps(&ef, &example1_bad_alloc());
        // The paper: reuse of r2 forbids parallel execution of the second
        // and fourth instructions (indices 1 and 3).
        assert!(
            false_deps.iter().any(|e| e.from == 1 && e.to == 3),
            "expected the paper's false dependence 1→3, got {false_deps:?}"
        );
    }

    #[test]
    fn good_allocation_introduces_none() {
        // The paper's fix (Figure 3): the mapping s1-r1, s2-r2, s3-r2,
        // s4-r3, s5-r2 uses three registers and creates no false
        // dependence (s2 dies at s3's definition, so reusing r2 there is a
        // real flow, not a false anti).
        let alloc = block(
            r#"
            func @ex1good(r9) {
            entry:
                r1 = load [@z + 0]
                r2 = fadd r9, 0
                r2 = load [r2 + 0]
                r3 = add r1, r1
                r2 = mul r2, r1
                ret r2
            }
            "#,
        );
        let sym_deps = DepGraph::build(&example1_sym(), &Q);
        let ef = false_dependence_graph(&sym_deps, &machine(), &Q);
        let false_deps = introduced_false_deps(&ef, &alloc);
        assert!(
            false_deps.is_empty(),
            "paper's 3-register allocation is false-dependence-free, got {false_deps:?}"
        );
    }

    #[test]
    fn rename_apart_removes_reuse() {
        let b = example1_bad_alloc();
        let renamed = rename_apart(&b);
        let deps = DepGraph::build(&renamed, &Q);
        assert!(
            deps.edges().all(|e| !matches!(
                e.kind,
                crate::deps::DepKind::Anti | crate::deps::DepKind::Output
            )),
            "renamed block has no register anti/output deps"
        );
    }

    #[test]
    fn intrinsic_count_matches_reference_count() {
        let m = machine();
        assert_eq!(
            count_false_deps_until(&example1_bad_alloc(), &m, None),
            Some(1)
        );
        let good = block(
            r#"
            func @ex1good(r9) {
            entry:
                r1 = load [@z + 0]
                r2 = fadd r9, 0
                r2 = load [r2 + 0]
                r3 = add r1, r1
                r2 = mul r2, r1
                ret r2
            }
            "#,
        );
        assert_eq!(count_false_deps_until(&good, &m, None), Some(0));
        // Symbolic code has none by construction.
        assert_eq!(count_false_deps_until(&example1_sym(), &m, None), Some(0));
    }

    #[test]
    fn shared_count_matches_reference_and_honors_deadline() {
        let m = machine();
        let bad = example1_bad_alloc();
        let own = DepGraph::build(&bad, &Q);
        assert_eq!(count_false_deps_in(&bad, &own, &m, None), Some(1));
        // A deadline already in the past skips the count, as it skips the
        // reference.
        let past = Some(Instant::now());
        assert_eq!(count_false_deps_in(&bad, &own, &m, past), None);
        assert_eq!(count_false_deps_until(&bad, &m, past), None);
    }

    #[test]
    fn ef_walk_polls_its_deadline() {
        // One poll per DEADLINE_STRIDE rows: a past deadline trips a
        // universe of more rows than that, and no deadline never trips.
        let mut src = String::from("func @wide() {\nentry:\n");
        for i in 0..DEADLINE_STRIDE + 8 {
            src.push_str(&format!("    s{i} = li {i}\n"));
        }
        src.push_str("    ret s0\n}");
        let deps = DepGraph::build(&block(&src), &Q);
        let Some(reach) = Reachability::build(deps.graph(), ClosureMode::Auto, None) else {
            unreachable!("no deadline set")
        };
        let mut all = BitSet::new(deps.len());
        all.fill();
        let walk = |deadline| {
            let mut s = EfScratch::default();
            for_each_ef_pair(&deps, &reach, &machine(), &all, &mut s, deadline, |_, _| {})
        };
        let past = Some(Instant::now());
        assert_eq!(walk(past), None);
        assert_eq!(walk(None), Some(()));
    }

    #[test]
    fn single_issue_machine_has_empty_ef() {
        // On a single-issue machine nothing is parallelizable, so Ef = ∅ and
        // *no* allocation can introduce a false dependence.
        let deps = DepGraph::build(&example1_sym(), &Q);
        let ef = false_dependence_graph(&deps, &presets::single_issue(8), &Q);
        assert_eq!(ef.edge_count(), 0);
    }
}
