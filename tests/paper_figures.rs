//! Structural reproduction of every figure and example in Pinter (PLDI
//! 1993). Each test names the figure it validates; the `figures` binary in
//! `parsched-bench` prints the same artifacts for visual inspection.

use parsched::graph::coloring::{exact_chromatic_number, ExactLimits};
use parsched::ir::liveness::Liveness;
use parsched::ir::{BlockId, Reg};
use parsched::regalloc::{BlockAllocProblem, Pig};
use parsched::sched::falsedep::{
    count_false_deps_until, et_graph, false_dependence_graph, introduced_false_deps,
};
use parsched::sched::{DepGraph, DepKind};
use parsched::telemetry::NullTelemetry;
use parsched::{paper, Pipeline, Strategy};

fn example1_problem() -> (parsched::ir::Function, BlockAllocProblem, DepGraph) {
    let f = paper::example1();
    let lv = Liveness::compute(&f, &[]);
    let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
    let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    (f, p, d)
}

/// Figure 1: the dependence edges of the schedule graph of Example 2.
#[test]
fn figure1_schedule_graph_of_example2() {
    let f = paper::example2();
    let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    // Instructions (0-based): 0:s1 1:s2 2:s3 3:s4 4:s5 5:s6 6:s7 7:s8 8:s9.
    let expect_flow = [
        (0, 2), // s1 -> s3
        (1, 2), // s2 -> s3
        (0, 3), // s1 -> s4
        (1, 3), // s2 -> s4
        (2, 4), // s3 -> s5
        (3, 4), // s4 -> s5
        (5, 7), // s6 -> s8
        (6, 7), // s7 -> s8
        (4, 8), // s5 -> s9
        (7, 8), // s8 -> s9
    ];
    for &(u, v) in &expect_flow {
        assert_eq!(d.kind(u, v), Some(DepKind::Flow), "edge {u}->{v}");
    }
    assert_eq!(
        d.edges().count(),
        expect_flow.len(),
        "no extra dependence edges in Figure 1"
    );
}

/// Figure 2(a): the data-dependence edges of Example 1's schedule graph.
#[test]
fn figure2a_dependences_of_example1() {
    let (_f, _p, d) = example1_problem();
    for &(u, v) in &[(1, 2), (0, 3), (0, 4), (2, 4)] {
        assert_eq!(d.kind(u, v), Some(DepKind::Flow), "edge {u}->{v}");
    }
}

/// Figure 2(b): the set `Et` — transitive closure plus the machine edges
/// `{s1,s3}` (two loads, one fetch unit) and `{s4,s5}` (two fixed-point
/// ops, one fixed unit).
#[test]
fn figure2b_et_of_example1() {
    let (_f, _p, d) = example1_problem();
    let et = et_graph(&d, &paper::machine(8), &NullTelemetry);
    let expected = [
        (0, 2), // machine: loads
        (3, 4), // machine: fixed ops
        (1, 2), // flow
        (0, 3),
        (0, 4),
        (2, 4),
        (1, 4), // transitive via s3
    ];
    for &(u, v) in &expected {
        assert!(et.has_edge(u, v), "Et edge {{{u},{v}}}");
    }
    assert_eq!(et.edge_count(), expected.len());
    // Consequently Ef = the paper's three pairs.
    let ef = false_dependence_graph(&d, &paper::machine(8), &NullTelemetry);
    let mut ef_edges: Vec<_> = ef.edges().collect();
    ef_edges.sort();
    assert_eq!(ef_edges, vec![(0, 1), (1, 3), (2, 3)]);
}

/// Figure 2(c): the interference graph of Example 1 — s1 is live across
/// the definitions of s2, s3 and s4; s3 overlaps s4.
#[test]
fn figure2c_interference_of_example1() {
    let (_f, p, _d) = example1_problem();
    let n = |r: u32| p.node_of(Reg::sym(r)).unwrap();
    let g = p.interference();
    for (a, b) in [(1, 2), (1, 3), (1, 4), (3, 4)] {
        assert!(g.has_edge(n(a), n(b)), "Gr edge s{a}-s{b}");
    }
    assert!(!g.has_edge(n(2), n(3)), "s2 dies at s3's definition");
    assert!(!g.has_edge(n(3), n(5)), "s3 dies at s5's definition");
}

/// Figure 3: the parallelizable interference graph of Example 1 admits a
/// three-register, false-dependence-free allocation — and the paper's own
/// mapping (s1-r1, s2-r2, s3-r2, s4-r3, s5-r2) is one.
#[test]
fn figure3_pig_of_example1() {
    let (_f, p, d) = example1_problem();
    let m = paper::machine(8);
    let pig = Pig::build(&p, &d, &m, &NullTelemetry);
    assert_eq!(
        exact_chromatic_number(pig.graph(), &ExactLimits::default()).unwrap(),
        3,
        "χ(PIG) = 3 registers"
    );
    // The paper's concrete allocation passes both validity and Theorem 1.
    let good = paper::example1_good_alloc();
    assert_eq!(
        count_false_deps_until(good.block(BlockId(0)), &m, None),
        Some(0)
    );
}

/// Example 1(c): the paper's r1/r2-reusing allocation introduces exactly
/// the false dependence between the second and fourth instructions.
#[test]
fn example1c_false_dependence() {
    let (_f, _p, d) = example1_problem();
    let m = paper::machine(8);
    let ef = false_dependence_graph(&d, &m, &NullTelemetry);
    let bad = paper::example1_paper_alloc();
    let fds = introduced_false_deps(&ef, bad.block(BlockId(0)));
    assert_eq!(fds.len(), 1);
    assert_eq!((fds[0].from, fds[0].to), (1, 3));
    assert_eq!(
        count_false_deps_until(bad.block(BlockId(0)), &m, None),
        Some(1)
    );
}

/// Figure 4: Example 2's plain interference graph is 3-colorable, but the
/// parallelizable interference graph needs four registers.
#[test]
fn figure4_example2_needs_four_registers() {
    let f = paper::example2();
    let lv = Liveness::compute(&f, &[]);
    let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
    let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    let m = paper::machine(8);
    let lim = ExactLimits::default();
    assert_eq!(
        exact_chromatic_number(p.interference(), &lim).unwrap(),
        3,
        "interference graph: 3 registers"
    );
    let pig = Pig::build(&p, &d, &m, &NullTelemetry);
    assert_eq!(
        exact_chromatic_number(pig.graph(), &lim).unwrap(),
        4,
        "PIG: 4 registers"
    );
}

/// Figure 5: the paper's concrete 4-register assignment for Example 2 is a
/// proper PIG coloring — no false dependence, full parallelism kept.
#[test]
fn figure5_assignment_is_false_dependence_free() {
    let m = paper::machine(8);
    let alloc = paper::example2_figure5_alloc();
    // The paper names registers r1..r4: four distinct registers.
    let mut distinct: Vec<Reg> = alloc
        .insts()
        .flat_map(|(_, i)| i.defs().into_iter().chain(i.uses()))
        .collect();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), 4);
    assert_eq!(
        count_false_deps_until(alloc.block(BlockId(0)), &m, None),
        Some(0)
    );
    // And it computes the same value as the symbolic form.
    use parsched::ir::interp::{Interpreter, Memory};
    let mut mem = Memory::new();
    for (g, v) in [("z", 3), ("y", 5), ("x", 7), ("w", 11)] {
        mem.set_global(g, 0, v);
    }
    let i = Interpreter::new();
    let sym = i.run(&paper::example2(), &[], mem.clone()).unwrap();
    let phys = i.run(&alloc, &[], mem).unwrap();
    assert_eq!(sym.return_value, phys.return_value);
}

/// Figure 6: definitions on both arms of a conditional reaching one use
/// combine into a single web (one register), and the combined pipeline
/// still compiles the function correctly.
#[test]
fn figure6_webs_combine() {
    use parsched::ir::defuse::DefUse;
    use parsched::ir::webs::Webs;
    let f = paper::figure6();
    let du = DefUse::compute(&f);
    let webs = Webs::compute(&du);
    let defs = du.defs_of_reg(Reg::sym(1));
    assert_eq!(defs.len(), 2);
    assert_eq!(webs.web_of(defs[0]), webs.web_of(defs[1]));

    let p = Pipeline::new(paper::machine(4));
    let r = p
        .compile(&f, &Strategy::combined(), &NullTelemetry)
        .unwrap();
    use parsched::ir::interp::{Interpreter, Memory};
    let i = Interpreter::new();
    for arg in [0, 1] {
        assert_eq!(
            i.run(&f, &[arg], Memory::new()).unwrap().return_value,
            i.run(&r.function, &[arg], Memory::new())
                .unwrap()
                .return_value
        );
    }
}

/// The headline comparison of the introduction: on the paper's machine
/// with three registers, the combined allocator keeps Example 1 fully
/// parallel while the naive allocate-first pipeline may lose cycles to the
/// false dependence.
#[test]
fn introduction_tradeoff_reproduced() {
    let f = paper::example1();
    let p = Pipeline::new(paper::machine(3));
    let combined = p
        .compile(&f, &Strategy::combined(), &NullTelemetry)
        .unwrap();
    assert_eq!(combined.stats.introduced_false_deps, 0);
    assert_eq!(combined.stats.spilled_values, 0);
    assert!(combined.stats.registers_used <= 3);

    let naive = p
        .compile(&f, &Strategy::AllocThenSched, &NullTelemetry)
        .unwrap();
    assert!(
        combined.stats.cycles <= naive.stats.cycles,
        "combined {} vs naive {}",
        combined.stats.cycles,
        naive.stats.cycles
    );
}
