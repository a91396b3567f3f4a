//! Each block's graphs against their reference definitions, on seeded
//! blocks:
//!
//! * [`DepGraph::build`], whose register dependences are killing, against
//!   the all-pairs scan of the paper's literal wording (kept below as the
//!   reference): every kept edge is a reference edge of the same kind,
//!   every dropped one is implied by a kept path of at least its latency,
//!   and heights, refined EP numbers, closure rows, list schedules and the
//!   false-dependence count are the reference graph's — on symbolic
//!   blocks, on every block each strategy emits, on random physical
//!   blocks and on every round of seeded spill loops;
//! * [`count_false_deps_in`], which reuses the block's own graph, against
//!   [`count_false_deps_until`], which renames the block apart, builds
//!   its closure from scratch and compares every two instructions'
//!   definitions, and both against the count over the reference graph's
//!   output edges;
//! * [`BlockAllocProblem`]'s interference graph against one built from
//!   [`Liveness::per_inst_live_out`], every spill round.

use parsched::exact::ExactConfig;
use parsched::graph::{BitSet, ClosureMode, DiGraph, Reachability, UnGraph};
use parsched::ir::liveness::Liveness;
use parsched::ir::{parse_function, Block, BlockId, Function, Inst, InstKind, Reg};
use parsched::machine::{presets, MachineDesc};
use parsched::regalloc::combined::{combined_color_in, CombinedWorkspace};
use parsched::regalloc::spill::insert_spill_code;
use parsched::regalloc::{BlockAllocProblem, Pig, PinterConfig};
use parsched::sched::ep::refined_ep_numbers;
use parsched::sched::falsedep::{count_false_deps_in, count_false_deps_until, rename_apart};
use parsched::sched::{list_schedule, DepEdge, DepGraph, DepKind, SchedPriority};
use parsched::telemetry::NullTelemetry;
use parsched::{Pipeline, Strategy};
use parsched_workload::{
    kernels, random_cfg_function, random_dag_function, CfgParams, DagParams, SplitMix64,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

/// The paper's literal dependence graph, built all-pairs: every pair
/// `i < j` is tested for every kind, a definition depending on *every*
/// earlier definition and use of its register, and the strongest kind
/// wins. Flow edges go in first, then the pair scan row by row.
fn reference_deps(block: &Block) -> (DiGraph, HashMap<(usize, usize), DepKind>) {
    let body = block.body();
    let n = body.len();
    let mut graph = DiGraph::new(n);
    let mut kinds: HashMap<(usize, usize), DepKind> = HashMap::new();
    let strength = |k: DepKind| {
        [
            DepKind::MemAnti,
            DepKind::Anti,
            DepKind::MemOutput,
            DepKind::Output,
            DepKind::MemFlow,
            DepKind::Control,
            DepKind::Flow,
        ]
        .iter()
        .position(|&s| s == k)
    };
    let mut add = |graph: &mut DiGraph, from: usize, to: usize, kind: DepKind| {
        let slot = kinds.entry((from, to)).or_insert_with(|| {
            graph.add_edge(from, to);
            kind
        });
        if strength(kind) > strength(*slot) {
            *slot = kind;
        }
    };
    let is_call = |i: &Inst| matches!(i.kind(), InstKind::Call { .. });

    let mut last_def: HashMap<Reg, usize> = HashMap::new();
    for (j, inst) in body.iter().enumerate() {
        for u in inst.uses() {
            if let Some(&i) = last_def.get(&u) {
                add(&mut graph, i, j, DepKind::Flow);
            }
        }
        for d in inst.defs() {
            last_def.insert(d, j);
        }
    }
    for j in 0..n {
        let (bj, defs_j) = (&body[j], body[j].defs());
        let (rj, wj) = (bj.mem_read(), bj.mem_write());
        for (i, bi) in body.iter().enumerate().take(j) {
            if bi.defs().iter().any(|d| defs_j.contains(d)) {
                add(&mut graph, i, j, DepKind::Output);
            }
            if bi.uses().iter().any(|u| defs_j.contains(u)) {
                add(&mut graph, i, j, DepKind::Anti);
            }
            let (ri, wi) = (bi.mem_read(), bi.mem_write());
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
            if (is_call(bi) && (is_call(bj) || rj.is_some() || wj.is_some()))
                || (is_call(bj) && (ri.is_some() || wi.is_some()))
            {
                add(&mut graph, i, j, DepKind::Control);
            }
        }
    }
    (graph, kinds)
}

/// The reference graph as a [`DepGraph`], so the schedulers and analyses
/// can read it, with its kinds by edge.
fn literal_graph(block: &Block) -> (DepGraph, HashMap<(usize, usize), DepKind>) {
    let (graph, kinds) = reference_deps(block);
    let edges = graph.edges().map(|(from, to)| DepEdge {
        from,
        to,
        kind: kinds[&(from, to)],
    });
    let graph = DepGraph::from_edges(block, edges).expect("reference edges point forward");
    (graph, kinds)
}

/// Per node `u`: the nodes a path from `u` reaches, and those a path with
/// positive latency reaches. Register anti is the only zero-latency kind
/// (every class latency is at least 1), so a path has positive latency
/// iff it has an edge of another kind.
fn path_sets(deps: &DepGraph) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = deps.len();
    let mut any = vec![BitSet::new(n); n];
    let mut positive = vec![BitSet::new(n); n];
    for u in (0..n).rev() {
        let succs = deps.graph().succs(u).iter().zip(deps.succ_kinds(u));
        for (&v, &kind) in succs {
            let (below_any, below_positive) = (any[v].clone(), positive[v].clone());
            any[u].insert(v);
            any[u].union_with(&below_any);
            if kind == DepKind::Anti {
                positive[u].union_with(&below_positive);
            } else {
                positive[u].insert(v);
                positive[u].union_with(&below_any);
            }
        }
    }
    (any, positive)
}

fn closure_rows(deps: &DepGraph) -> Vec<Vec<usize>> {
    let reach =
        Reachability::build(deps.graph(), ClosureMode::Auto, None).expect("no deadline set");
    (0..deps.len())
        .map(|u| reach.row_iter(u).collect())
        .collect()
}

/// Checks `DepGraph::build` on `block` against the literal reference: a
/// subgraph with the reference's kinds, every dropped edge implied by a
/// kept path of at least its latency, and the same heights, refined EP
/// numbers, closure rows, list schedules and false-dependence counts on
/// each of `machines`.
fn assert_deps_match_reference(block: &Block, machines: &[MachineDesc], context: &str) {
    let deps = DepGraph::build(block, &NullTelemetry);
    let (literal, kinds) = literal_graph(block);
    assert_eq!(deps.len(), literal.len(), "{context}");
    for e in deps.edges() {
        assert_eq!(
            kinds.get(&(e.from, e.to)),
            Some(&e.kind),
            "kept edge {} -> {}, {context}",
            e.from,
            e.to
        );
    }
    let (any, positive) = path_sets(&deps);
    for (&(u, v), &kind) in &kinds {
        if deps.kind(u, v).is_some() {
            continue;
        }
        let implied = match kind {
            DepKind::Anti => any[u].contains(v),
            DepKind::Output => positive[u].contains(v),
            other => panic!("dropped a {other:?} edge {u} -> {v}, {context}"),
        };
        assert!(
            implied,
            "dropped {kind:?} edge {u} -> {v} has no kept path, {context}"
        );
    }
    assert_eq!(
        closure_rows(&deps),
        closure_rows(&literal),
        "closure, {context}"
    );
    for m in machines {
        let ctx = format!("{context} on {}", m.name());
        assert_eq!(deps.heights(m), literal.heights(m), "heights, {ctx}");
        assert_eq!(
            refined_ep_numbers(&deps, m),
            refined_ep_numbers(&literal, m),
            "refined EP numbers, {ctx}"
        );
        let schedule =
            |d: &DepGraph| list_schedule(block, d, m, SchedPriority::CriticalPath, &NullTelemetry);
        assert_eq!(schedule(&deps), schedule(&literal), "list schedule, {ctx}");
        assert_eq!(
            count_false_deps_in(block, &deps, m, None),
            count_false_deps_in(block, &literal, m, None),
            "false-dependence count, {ctx}"
        );
    }
}

/// The false-dependence count as the reference graph's edges define it:
/// its output edges whose endpoints the renamed-apart closure leaves
/// unordered and the machine could issue together.
fn literal_edge_count(block: &Block, machine: &MachineDesc) -> usize {
    let (_, kinds) = reference_deps(block);
    let renamed = DepGraph::build(&rename_apart(block), &NullTelemetry);
    let reach =
        Reachability::build(renamed.graph(), ClosureMode::Auto, None).expect("no deadline set");
    kinds
        .iter()
        .filter(|&(&(u, v), &kind)| {
            kind == DepKind::Output
                && !reach.reaches(u, v)
                && !reach.reaches(v, u)
                && !machine.pairwise_conflict(renamed.class(u), renamed.class(v))
        })
        .count()
}

fn assert_count_matches_reference(block: &Block, machine: &MachineDesc, context: &str) {
    let own = DepGraph::build(block, &NullTelemetry);
    let reference = count_false_deps_until(block, machine, None);
    assert_eq!(
        count_false_deps_in(block, &own, machine, None),
        reference,
        "{context}"
    );
    assert_eq!(
        reference,
        Some(literal_edge_count(block, machine)),
        "literal edges, {context}"
    );
}

/// A random physical block over `regs` registers (`r0`…): loads and
/// stores through reused register bases and globals at a few offsets,
/// calls, copies and integer/float arithmetic, so bases are redefined
/// between memory operations and values are overwritten while live.
fn random_physical_block(rng: &mut SplitMix64, regs: usize, len: usize) -> Function {
    let params: Vec<String> = (0..regs).map(|r| format!("r{r}")).collect();
    let mut text = format!("func @phys({}) {{\nentry:\n", params.join(", "));
    let reg = |rng: &mut SplitMix64| format!("r{}", rng.gen_range_usize(0, regs));
    for _ in 0..len {
        let (d, a, b) = (reg(rng), reg(rng), reg(rng));
        let off = 8 * rng.gen_range_usize(0, 3);
        let addr = if rng.gen_bool(0.8) {
            format!("[{a} + {off}]")
        } else {
            format!("[@g{} + {off}]", rng.gen_range_usize(0, 2))
        };
        let line = match rng.gen_range_usize(0, 10) {
            0 | 1 => format!("{d} = load {addr}"),
            2 => format!("{d} = fload {addr}"),
            3 | 4 => format!("store {b}, {addr}"),
            5 => format!("{d} = call @f({a}, {b})"),
            6 => format!("{d} = mov {a}"),
            7 => format!("{d} = li {off}"),
            8 => format!("{d} = fadd {a}, {b}"),
            _ => format!("{d} = add {a}, {b}"),
        };
        text.push_str(&format!("    {line}\n"));
    }
    text.push_str(&format!("    ret {}\n}}\n", reg(rng)));
    match parse_function(&text) {
        Ok(f) => f,
        Err(e) => panic!("generated block must parse: {e}\n{text}"),
    }
}

fn machines() -> Vec<MachineDesc> {
    vec![
        presets::paper_machine(32),
        presets::paper_machine(6),
        presets::single_issue(8),
        presets::mips_r3000(8),
        presets::rs6000(8),
        presets::wide(4, 8),
    ]
}

/// Symbolic inputs: pig-large-shaped DAGs (100–160 insts, narrow and wide
/// windows), spill-tight-shaped ones (44–52 insts, wide windows), the
/// kernels and multi-block functions.
fn symbolic_corpus() -> Vec<Function> {
    // (size, load fraction, window)
    let shapes = [
        (100, 0.05, 3),
        (137, 0.05, 18),
        (44, 0.25, 24),
        (48, 0.25, 40),
    ];
    let mut funcs: Vec<Function> = shapes
        .iter()
        .zip(0u64..)
        .map(|(&(size, load_fraction, window), seed)| {
            let params = DagParams {
                size,
                load_fraction,
                float_fraction: 0.4,
                window,
            };
            random_dag_function(seed, &params)
        })
        .collect();
    funcs.extend((0..2).map(|seed| random_cfg_function(seed, &CfgParams::default())));
    funcs.extend(kernels().into_iter().map(|(_, f)| f));
    funcs
}

/// Small blocks the exact solver accepts.
fn small_corpus() -> Vec<Function> {
    (0..8u64)
        .map(|seed| {
            let params = DagParams {
                size: 5 + seed as usize % 6,
                load_fraction: 0.25,
                float_fraction: 0.4,
                window: 2 + seed as usize % 3,
            };
            random_dag_function(200 + seed, &params)
        })
        .collect()
}

fn ladder() -> Vec<Strategy> {
    vec![
        Strategy::combined(),
        Strategy::SchedThenAlloc,
        Strategy::AllocThenSched,
        Strategy::LinearScanThenSched,
        Strategy::SpillEverything,
    ]
}

/// Every block each rung emits, on register files from starved to ample
/// (compiled once, shared by the tests).
fn compiled_blocks() -> &'static [(String, Block, MachineDesc)] {
    static BLOCKS: OnceLock<Vec<(String, Block, MachineDesc)>> = OnceLock::new();
    BLOCKS.get_or_init(compile_corpora)
}

fn compile_corpora() -> Vec<(String, Block, MachineDesc)> {
    let mut out = Vec::new();
    let mut push = |func: &Function, strategy: &Strategy, machine: &MachineDesc| {
        let pipeline = Pipeline::new(machine.clone());
        if let Ok(result) = pipeline.compile(func, strategy, &NullTelemetry) {
            for block in result.function.blocks() {
                let context = format!(
                    "{} on @{} ({} regs), block {}",
                    strategy.label(),
                    func.name(),
                    machine.num_regs(),
                    block.label()
                );
                out.push((context, block.clone(), machine.clone()));
            }
        }
    };
    for func in symbolic_corpus() {
        for regs in [3, 6, 32] {
            for strategy in ladder() {
                push(&func, &strategy, &presets::paper_machine(regs));
            }
        }
    }
    for func in small_corpus() {
        for regs in [3, 5] {
            let exact = Strategy::Exact(ExactConfig::default());
            push(&func, &exact, &presets::paper_machine(regs));
        }
    }
    out
}

/// Machines with different latencies and unit conflicts, for the graphs'
/// timing-derived results.
fn timing_machines() -> Vec<MachineDesc> {
    vec![
        presets::paper_machine(6),
        presets::rs6000(8),
        presets::wide(4, 8),
    ]
}

#[test]
fn dep_graph_matches_all_pairs_reference() {
    let mut blocks = 0;
    let machines = timing_machines();
    for func in symbolic_corpus() {
        for block in func.blocks() {
            let context = format!("symbolic @{}", func.name());
            assert_deps_match_reference(block, &machines, &context);
            blocks += 1;
        }
    }
    for (context, block, machine) in compiled_blocks() {
        let own = [machine.clone(), presets::rs6000(8)];
        assert_deps_match_reference(block, &own, context);
        let renamed = format!("renamed {context}");
        assert_deps_match_reference(&rename_apart(block), &own, &renamed);
        blocks += 2;
    }
    let mut rng = SplitMix64::seed_from_u64(7);
    for case in 0..300 {
        let regs = 3 + case % 30;
        let func = random_physical_block(&mut rng, regs, 1 + case % 48);
        let context = format!("physical case {case}");
        assert_deps_match_reference(&func.blocks()[0], &machines, &context);
        blocks += 1;
    }
    assert!(blocks > 1000, "only {blocks} blocks compared");
}

#[test]
fn shared_false_dep_count_matches_reference() {
    let mut nonzero = 0;
    for (context, block, machine) in compiled_blocks() {
        assert_count_matches_reference(block, machine, context);
        nonzero += usize::from(count_false_deps_until(block, machine, None) > Some(0));
    }
    let mut rng = SplitMix64::seed_from_u64(11);
    for case in 0..400 {
        let regs = 3 + case % 30;
        let func = random_physical_block(&mut rng, regs, 1 + case % 40);
        for machine in machines() {
            let context = format!("physical case {case} on {}", machine.name());
            assert_count_matches_reference(&func.blocks()[0], &machine, &context);
            nonzero +=
                usize::from(count_false_deps_until(&func.blocks()[0], &machine, None) > Some(0));
        }
    }
    assert!(
        nonzero > 100,
        "only {nonzero} blocks with a false dependence"
    );
}

/// A reused physical base hides a memory edge: `r1` is redefined between
/// `load [r1 + 0]` and `store r2, [r1 + 8]`, so the physical graph proves
/// the two apart (same base, different offset) while the renamed-apart
/// graph, where the bases are two names, orders them. Through that edge
/// the load reaches the `fadd` that overwrites its `r3`, so the output
/// dependence between them is not false; a symbolic graph taken from the
/// physical one minus its anti/output edges would count it.
#[test]
fn reused_base_register_keeps_its_renamed_memory_edge() {
    let func = parse_function(
        r#"
        func @reuse(r1, r2) {
        entry:
            r3 = load [r1 + 0]
            r1 = add r2, 8
            store r2, [r1 + 8]
            r4 = load [r1 + 8]
            r3 = fadd r4, r4
            ret r3
        }
        "#,
    )
    .unwrap();
    let block = &func.blocks()[0];
    let own = DepGraph::build(block, &NullTelemetry);
    assert_eq!(own.kind(0, 2), None, "same physical base, offsets differ");
    assert_eq!(own.kind(0, 4), Some(DepKind::Output));
    let renamed = DepGraph::build(&rename_apart(block), &NullTelemetry);
    assert_eq!(
        renamed.kind(0, 2),
        Some(DepKind::MemAnti),
        "two names may alias"
    );
    let machine = presets::paper_machine(8);
    assert_eq!(count_false_deps_until(block, &machine, None), Some(0));
    assert_eq!(count_false_deps_in(block, &own, &machine, None), Some(0));
}

/// The interference graph as it was built from per-instruction live sets.
fn reference_interference(func: &Function, problem: &BlockAllocProblem) -> UnGraph {
    let block_id = problem.block();
    let liveness = Liveness::compute(func, &[]);
    let live_in = liveness.live_in(block_id);
    let per_inst = liveness.per_inst_live_out(func, block_id);
    let mut g = UnGraph::new(problem.len());
    let add_live_edges = |g: &mut UnGraph, node: usize, live: &BTreeSet<Reg>| {
        for &other in live {
            if let Some(o) = problem.node_of(other) {
                if o != node {
                    g.add_edge(node, o);
                }
            }
        }
    };
    let live_in_nodes: Vec<usize> = live_in.iter().filter_map(|&r| problem.node_of(r)).collect();
    for (a, &u) in live_in_nodes.iter().enumerate() {
        for &v in &live_in_nodes[a + 1..] {
            g.add_edge(u, v);
        }
    }
    for (i, inst) in func.block(block_id).body().iter().enumerate() {
        for d in inst.defs() {
            if let Some(n) = problem.node_of(d) {
                add_live_edges(&mut g, n, &per_inst[i]);
            }
        }
    }
    g
}

/// Runs the combined spill loop on `func`, checking the interference graph,
/// `nodes_defined_at` and the dependence graph every round.
fn check_interference_rounds(func: &Function, machine: &MachineDesc, context: &str) -> usize {
    let block_id = BlockId(0);
    let mut current = func.clone();
    let mut next_slot = 0i64;
    for round in 0..8 {
        let liveness = Liveness::compute(&current, &[]);
        let Ok(problem) = BlockAllocProblem::build(&current, block_id, &liveness) else {
            return round;
        };
        let expected = reference_interference(&current, &problem);
        let got = problem.interference();
        for v in 0..problem.len() {
            assert_eq!(
                got.neighbors(v).collect::<Vec<_>>(),
                expected.neighbors(v).collect::<Vec<_>>(),
                "neighbors({v}), {context}, round {round}"
            );
        }
        for i in 0..current.block(block_id).body().len() + 1 {
            let scan: Vec<usize> = (0..problem.len())
                .filter(|&n| problem.def_site(n) == Some(i))
                .collect();
            let got: Vec<usize> = problem.nodes_defined_at(i).collect();
            assert_eq!(got, scan, "{context}, round {round}");
        }

        let block = current.block(block_id);
        let ctx = format!("{context}, round {round}");
        assert_deps_match_reference(block, std::slice::from_ref(machine), &ctx);
        let deps = DepGraph::build(block, &NullTelemetry);
        let pig = Pig::build(&problem, &deps, machine, &NullTelemetry);
        let costs: Vec<f64> = (0..problem.len()).map(|n| problem.spill_cost(n)).collect();
        let heights = deps.heights(machine).expect("block bodies are acyclic");
        let priority: Vec<u32> = (0..problem.len())
            .map(|n| problem.def_site(n).map_or(0, |i| heights[i]))
            .collect();
        let out = combined_color_in(
            &mut CombinedWorkspace::default(),
            &pig,
            machine.num_regs(),
            &costs,
            &priority,
            &PinterConfig::default(),
            &NullTelemetry,
        );
        if out.spilled.is_empty() {
            return round + 1;
        }
        let spills: Vec<Reg> = out.spilled.iter().map(|&n| problem.nodes()[n]).collect();
        let (rewritten, _, _) =
            insert_spill_code(&current, block_id, &spills, &mut next_slot, &NullTelemetry);
        current = rewritten;
    }
    8
}

#[test]
fn interference_matches_per_instruction_live_sets_every_spill_round() {
    let mut rounds = 0;
    for seed in 0..24u64 {
        let i = seed as usize;
        let params = DagParams {
            size: 12 + (i % 5) * 9,
            load_fraction: 0.2,
            float_fraction: 0.3,
            window: 4 + (i % 4) * 8,
        };
        let func = random_dag_function(seed * 7 + 3, &params);
        for regs in [3, 6, 32] {
            let context = format!("@{} on {regs} regs", func.name());
            rounds += check_interference_rounds(&func, &presets::paper_machine(regs), &context);
        }
    }
    assert!(rounds > 100, "only {rounds} rounds checked");
}
