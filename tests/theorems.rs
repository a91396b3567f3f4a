//! Empirical validation of the paper's theorems and lemmas over random
//! basic blocks, driven by a deterministic seeded parameter sweep, plus
//! Theorem 1 on the multi-result calls no generator emits.

use parsched::graph::coloring::{exact_coloring, ExactLimits};
use parsched::graph::{BitMatrix, UnGraph};
use parsched::ir::liveness::Liveness;
use parsched::ir::{parse_module, print_function, BlockId};
use parsched::machine::presets;
use parsched::regalloc::assignment::{apply_coloring, check_function_allocation};
use parsched::regalloc::{AllocSession, BlockAllocProblem, Pig};
use parsched::sched::falsedep::count_false_deps_until;
use parsched::sched::DepGraph;
use parsched::sched::SchedPriority;
use parsched::telemetry::NullTelemetry;
use parsched::{GlobalScope, Pipeline, Strategy};
use parsched_verify::Verifier;
use parsched_workload::{random_dag_function, DagParams, SplitMix64};

const CASES: u64 = 64;

/// Deterministic sweep of (seed, DagParams) pairs mirroring the original
/// property-test strategy: size 3..10, load 0..0.5, float 0..0.8,
/// window 1..6.
fn small_block_params(case_seed: u64) -> Vec<(u64, DagParams)> {
    let mut rng = SplitMix64::seed_from_u64(case_seed);
    (0..CASES)
        .map(|_| {
            let seed = rng.next_u64() % 500;
            let size = rng.gen_range_usize(3, 10);
            let load_fraction = 0.5 * (rng.next_u64() as f64 / u64::MAX as f64);
            let float_fraction = 0.8 * (rng.next_u64() as f64 / u64::MAX as f64);
            let window = rng.gen_range_usize(1, 6);
            (
                seed,
                DagParams {
                    size,
                    load_fraction,
                    float_fraction,
                    window,
                },
            )
        })
        .collect()
}

fn setup(
    seed: u64,
    params: &DagParams,
) -> (parsched::ir::Function, BlockAllocProblem, DepGraph, Pig) {
    let f = random_dag_function(seed, params);
    let lv = Liveness::compute(&f, &[]);
    let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
    let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    let machine = parsched::paper::machine(32);
    let pig = Pig::build(&p, &d, &machine, &NullTelemetry);
    (f, p, d, pig)
}

/// **Theorem 1**: an optimal coloring of the parallelizable interference
/// graph yields a valid allocation (no spills for live values) that
/// introduces **no false dependence**.
#[test]
fn theorem1_optimal_pig_coloring_is_false_dep_free() {
    for (seed, params) in small_block_params(11) {
        let (f, p, _d, pig) = setup(seed, &params);
        let machine = parsched::paper::machine(32);
        let limits = ExactLimits {
            max_nodes: 40,
            max_steps: 2_000_000,
        };
        let Ok(coloring) = exact_coloring(pig.graph(), &limits) else {
            // Budget exhausted on a rare large instance: vacuous.
            continue;
        };
        let colors = coloring.into_vec();
        let allocated = apply_coloring(&f, &p, &colors);
        // Valid allocation…
        check_function_allocation(&f, &allocated, &p, &colors).unwrap();
        // …with zero false dependences (Theorem 1).
        assert_eq!(
            count_false_deps_until(allocated.block(BlockId(0)), &machine, None),
            Some(0)
        );
    }
}

/// **Theorem 2** (minimality): merging the endpoints of any PIG edge —
/// i.e. coloring the graph with that edge removed and forcing the two
/// vertices into one register — produces a spill (an invalid allocation,
/// for interference edges) or a false dependence (for false-dependence
/// edges).
#[test]
fn theorem2_every_pig_edge_is_load_bearing() {
    for (seed, params) in small_block_params(12) {
        let (f, p, _d, pig) = setup(seed, &params);
        let machine = parsched::paper::machine(32);
        let edges: Vec<(usize, usize)> = pig.graph().edges().collect();
        for (u, v) in edges {
            // Contract v into u: color the graph-minus-edge with u,v fused.
            let contracted = contract(pig.graph(), u, v);
            let limits = ExactLimits {
                max_nodes: 40,
                max_steps: 500_000,
            };
            let Ok(coloring) = exact_coloring(&contracted, &limits) else {
                continue;
            };
            let mut colors = coloring.into_vec();
            colors[v] = colors[u];
            let allocated = apply_coloring(&f, &p, &colors);
            let check = check_function_allocation(&f, &allocated, &p, &colors);
            let false_deps = count_false_deps_until(allocated.block(BlockId(0)), &machine, None);
            assert!(
                check.is_err() || false_deps != Some(0),
                "merging PIG edge ({u},{v}) cost nothing — contradicts Theorem 2"
            );
        }
    }
}

/// **Lemma 1, operational direction**: every pair of instructions the list
/// scheduler issues in the same cycle is an edge of `Ef` — the
/// false-dependence graph really does enumerate the co-issue options.
#[test]
fn same_cycle_pairs_are_ef_edges() {
    use parsched::sched::falsedep::false_dependence_graph;
    use parsched::sched::list_schedule;
    for (seed, params) in small_block_params(13) {
        let f = random_dag_function(seed, &params);
        let machine = parsched::paper::machine(32);
        let block = f.block(BlockId(0));
        let deps = DepGraph::build(block, &NullTelemetry);
        let ef = false_dependence_graph(&deps, &machine, &NullTelemetry);
        let s = list_schedule(
            block,
            &deps,
            &machine,
            SchedPriority::CriticalPath,
            &NullTelemetry,
        )
        .unwrap();
        for (_, group) in s.groups() {
            for (a, &u) in group.iter().enumerate() {
                for &v in &group[a + 1..] {
                    assert!(
                        ef.has_edge(u, v),
                        "scheduler co-issued {u},{v} which Ef forbids"
                    );
                }
            }
        }
    }
}

/// **Theorem 1, operational form**: code allocated by optimal PIG coloring
/// never pairs two instructions the symbolic code could not — and
/// conversely never *loses* a co-issue to a false output dependence. (The
/// theorem preserves *co-issue* freedom; it does not promise identical
/// schedule *length*, because a zero-latency anti edge still forbids
/// issuing a redefiner strictly before the last reader of its register —
/// an ordering restriction the paper's false-dependence criterion
/// deliberately excludes.)
#[test]
fn theorem1_allocated_pairs_stay_within_ef() {
    use parsched::sched::falsedep::false_dependence_graph;
    use parsched::sched::list_schedule;
    for (seed, params) in small_block_params(14) {
        let (f, p, d, pig) = setup(seed, &params);
        let machine = parsched::paper::machine(32);
        let limits = ExactLimits {
            max_nodes: 40,
            max_steps: 2_000_000,
        };
        let Ok(coloring) = exact_coloring(pig.graph(), &limits) else {
            continue;
        };
        let colors = coloring.into_vec();
        let allocated = apply_coloring(&f, &p, &colors);
        let ef = false_dependence_graph(&d, &machine, &NullTelemetry);
        let alloc_deps = DepGraph::build(allocated.block(BlockId(0)), &NullTelemetry);
        let schedule = list_schedule(
            allocated.block(BlockId(0)),
            &alloc_deps,
            &machine,
            SchedPriority::CriticalPath,
            &NullTelemetry,
        )
        .unwrap();
        for (_, group) in schedule.groups() {
            for (a, &u) in group.iter().enumerate() {
                for &v in &group[a + 1..] {
                    assert!(
                        ef.has_edge(u, v),
                        "allocated schedule paired {u},{v} outside the symbolic Ef"
                    );
                }
            }
        }
        // And no co-issue option died to a false *output* dependence:
        assert_eq!(
            count_false_deps_until(allocated.block(BlockId(0)), &machine, None),
            Some(0)
        );
    }
}

/// **Lemma 1 companion**: symbolic single-definition code never has
/// register anti/output dependences, so no false dependences exist before
/// allocation.
#[test]
fn symbolic_code_has_no_false_deps() {
    for (seed, params) in small_block_params(15) {
        let f = random_dag_function(seed, &params);
        let machine = parsched::paper::machine(32);
        assert_eq!(
            count_false_deps_until(f.block(BlockId(0)), &machine, None),
            Some(0)
        );
    }
}

/// PIG ⊇ Gr structurally: interference edges never vanish, so the PIG
/// chromatic number is a register-count upper bound certificate.
#[test]
fn pig_contains_interference() {
    for (seed, params) in small_block_params(16) {
        let (_f, p, _d, pig) = setup(seed, &params);
        for (u, v) in p.interference().edges() {
            assert!(pig.graph().has_edge(u, v));
        }
        // And the edge-class partition tiles the PIG exactly.
        let total = pig.interference_only().count() / 2
            + pig.false_only().count() / 2
            + pig.shared().count() / 2;
        assert_eq!(total, pig.graph().edge_count());
    }
}

/// **Lemma 2/3 classification**: every false-only edge joins two
/// definitions whose live ranges are disjoint (no interference), and every
/// shared edge joins overlapping parallelizable definitions.
#[test]
fn edge_classes_are_consistent() {
    for (seed, params) in small_block_params(17) {
        let (_f, p, _d, pig) = setup(seed, &params);
        for (u, v) in pig.false_only().edges() {
            assert!(!p.interference().has_edge(u, v));
            assert!(
                p.def_site(u).is_some() && p.def_site(v).is_some(),
                "false edges only connect in-block definitions"
            );
        }
        for (u, v) in pig.shared().edges() {
            assert!(p.interference().has_edge(u, v));
        }
    }
}

/// **Theorem 1 on multi-result instructions**: every vertex a call defines
/// carries the call's `Ef` edges, so with registers to spare the combined
/// strategy introduces no false dependence whichever result is dead, on
/// the block path and on the web path, and the independent checkers
/// agree. The allocator's session PIG is the one [`Pig::build`] draws.
/// The inputs are `ci/fuzz-corpus/multi_result_call.psc` and the same
/// functions with the call's results swapped.
#[test]
fn multi_result_calls_give_every_result_its_false_edges() {
    let corpus = include_str!("../ci/fuzz-corpus/multi_result_call.psc");
    let swapped = corpus
        .replace("s3, s4 =", "<swap>")
        .replace("s4, s3 =", "s3, s4 =")
        .replace("<swap>", "s4, s3 =");
    let strategy = Strategy::combined();
    for func in [corpus, &swapped]
        .map(|src| parse_module(src).unwrap())
        .concat()
    {
        for name in ["paper", "rs6000", "wide4"] {
            let machine = presets::by_name(name, 8).unwrap();
            for scope in [GlobalScope::Function, GlobalScope::PerBlockBaseline] {
                let ctx = format!("{}on {name}, {scope:?}", print_function(&func));
                let pipeline = Pipeline::new(machine.clone()).with_scope(scope);
                let result = pipeline.compile(&func, &strategy, &NullTelemetry).unwrap();
                assert_eq!(result.stats.introduced_false_deps, 0, "{ctx}");
                let verifier = Verifier::new(&machine).strategy(strategy);
                assert!(verifier.expects_theorem1(&result), "{ctx}");
                let report = verifier.verify(&func, &result, &NullTelemetry);
                assert!(report.ok(), "{ctx}: {:#?}", report.violations);
            }
            if func.block_count() > 1 {
                continue;
            }
            let block = func.block(BlockId(0));
            let lv = Liveness::compute(&func, &[]);
            let problem = BlockAllocProblem::build(&func, BlockId(0), &lv).unwrap();
            let deps = DepGraph::build(block, &NullTelemetry);
            let built = Pig::build(&problem, &deps, &machine, &NullTelemetry);
            let (mut session, mut slot) = (AllocSession::new(), None);
            session.begin(block, &NullTelemetry).unwrap();
            session
                .build_pig_into(&problem, &machine, &NullTelemetry, &mut slot)
                .unwrap();
            let edges = |m: &BitMatrix| m.edges().collect::<Vec<_>>();
            let pig = slot.unwrap();
            assert_eq!(edges(pig.adjacency()), edges(built.adjacency()), "{name}");
            assert_eq!(edges(pig.false_only()), edges(built.false_only()), "{name}");
        }
    }
}

/// Returns `g` with `v`'s constraints folded into `u` (edge {u,v} dropped):
/// coloring the result and copying `u`'s color to `v` is exactly "assign u
/// and v one register while keeping every *other* constraint satisfied".
fn contract(g: &UnGraph, u: usize, v: usize) -> UnGraph {
    let mut out = UnGraph::new(g.node_count());
    for (a, b) in g.edges() {
        if (a, b) == (u.min(v), u.max(v)) {
            continue;
        }
        let a2 = if a == v { u } else { a };
        let b2 = if b == v { u } else { b };
        if a2 != b2 {
            out.add_edge(a2, b2);
        }
    }
    out
}

#[test]
fn contract_helper_folds_edges() {
    let mut g = UnGraph::new(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    let c = contract(&g, 1, 2);
    assert!(!c.has_edge(1, 2));
    assert!(c.has_edge(0, 1));
    assert!(c.has_edge(1, 3), "v's edge moved to u");
}
