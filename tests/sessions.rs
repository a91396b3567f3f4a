//! Session contracts: the incremental PIG an [`AllocSession`] maintains
//! across spill rounds is **edge-identical** to the PIG of the literal
//! construction (`Er` plus the complement of `Et` on every vertex of each
//! defining instruction) at every round, as is the from-scratch
//! [`Pig::build`], and a session reused across functions produces
//! byte-identical output to fresh sessions.

use parsched::graph::UnGraph;
use parsched::ir::liveness::Liveness;
use parsched::ir::{print_function, BlockId, Reg};
use parsched::machine::{presets, MachineDesc};
use parsched::regalloc::combined::combined_color;
use parsched::regalloc::spill::insert_spill_code;
use parsched::regalloc::{
    allocate_single_block, allocate_single_block_in, AllocSession, BlockAllocProblem,
    BlockStrategy, Budget, Pig, PinterConfig,
};
use parsched::sched::falsedep::et_graph;
use parsched::sched::{BlockRemap, DepGraph};
use parsched::telemetry::NullTelemetry;
use parsched_workload::{random_dag_function, DagParams};

fn edge_set(g: &UnGraph) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = g.edges().collect();
    edges.sort_unstable();
    edges
}

fn matrix_edge_set(m: &parsched::graph::BitMatrix) -> Vec<(usize, usize)> {
    m.edges().collect()
}

fn assert_pigs_identical(session: &Pig, reference: &Pig, context: &str) {
    assert_eq!(
        edge_set(session.graph()),
        edge_set(reference.graph()),
        "PIG edge sets diverge: {context}"
    );
    assert_eq!(
        matrix_edge_set(session.false_only()),
        matrix_edge_set(reference.false_only()),
        "false-only edge sets diverge: {context}"
    );
    assert_eq!(
        matrix_edge_set(session.shared()),
        matrix_edge_set(reference.shared()),
        "shared edge sets diverge: {context}"
    );
}

/// The PIG of the literal construction: `Er`, plus an edge between every
/// vertex two instructions define whenever the pair is in the complement
/// of [`et_graph`].
fn literal_pig(problem: &BlockAllocProblem, deps: &DepGraph, machine: &MachineDesc) -> Pig {
    let mut false_edges = UnGraph::new(problem.len());
    for (i, j) in et_graph(deps, machine, &NullTelemetry).complement().edges() {
        for u in problem.nodes_defined_at(i) {
            problem
                .nodes_defined_at(j)
                .for_each(|v| _ = false_edges.add_edge(u, v));
        }
    }
    Pig::from_parts(problem.interference().clone(), false_edges)
}

/// Mirrors the allocator's Pinter spill loop on one function, asserting
/// after **every** round that the session's incrementally-maintained PIG
/// matches the literal construction. Returns how many spill rounds
/// actually exercised the incremental path.
fn check_spill_loop(func: &parsched::ir::Function, machine: &MachineDesc, case: &str) -> usize {
    let block_id = BlockId(0);
    let k = machine.num_regs();
    let mut session = AllocSession::new();
    let mut current = func.clone();
    let mut next_slot = 0i64;
    let mut pending_remap: Option<BlockRemap> = None;
    let protected_from = current.num_sym_regs();
    let mut incremental_rounds = 0;

    for round in 0..8 {
        let liveness = Liveness::compute(&current, &[]);
        let problem = match BlockAllocProblem::build(&current, block_id, &liveness) {
            Ok(p) => p,
            Err(_) => return incremental_rounds,
        };
        match pending_remap.take() {
            Some(remap) => {
                session
                    .rebuild_after_spill(current.block(block_id), &remap, &NullTelemetry)
                    .expect("no deadline set, rebuild cannot trip");
                incremental_rounds += 1;
            }
            None => session
                .begin(current.block(block_id), &NullTelemetry)
                .expect("no deadline set, build cannot trip"),
        }
        let mut slot = None;
        session
            .build_pig_into(&problem, machine, &NullTelemetry, &mut slot)
            .expect("no deadline set, PIG walk cannot trip");
        let pig = slot.expect("session was begun, PIG must build");

        let deps = DepGraph::build(current.block(block_id), &NullTelemetry);
        let reference = literal_pig(&problem, &deps, machine);
        let context = format!("{case}, round {round}");
        assert_pigs_identical(&pig, &reference, &context);
        let built = Pig::build(&problem, &deps, machine, &NullTelemetry);
        assert_pigs_identical(&built, &reference, &format!("Pig::build, {context}"));

        // Drive the next spill round exactly as the allocator would.
        let costs: Vec<f64> = (0..problem.len())
            .map(|n| match problem.nodes()[n] {
                Reg::Sym(s) if s.0 >= protected_from => 1e12,
                _ => problem.spill_cost(n),
            })
            .collect();
        let heights = deps.heights(machine).expect("block bodies are acyclic");
        let priority: Vec<u32> = (0..problem.len())
            .map(|n| problem.def_site(n).map_or(0, |i| heights[i]))
            .collect();
        let out = combined_color(
            &pig,
            k,
            &costs,
            &priority,
            &PinterConfig::default(),
            &NullTelemetry,
        );
        if out.spilled.is_empty() {
            return incremental_rounds;
        }
        let spill_regs: Vec<Reg> = out.spilled.iter().map(|&n| problem.nodes()[n]).collect();
        let (rewritten, _inserted, remap) = insert_spill_code(
            &current,
            block_id,
            &spill_regs,
            &mut next_slot,
            &NullTelemetry,
        );
        pending_remap = Some(remap);
        current = rewritten;
    }
    incremental_rounds
}

/// ≥200 seeded cases across machine sizes and DAG shapes. Starved
/// register files force multi-round spill loops, so the incremental
/// closure path (not just the initial full build) is what's compared.
#[test]
fn incremental_pig_matches_from_scratch_across_spill_rounds() {
    let mut cases = 0;
    let mut rounds_with_incremental_pig = 0;
    for seed in 0..70u64 {
        let params = DagParams {
            size: 12 + (seed as usize % 5) * 7,
            load_fraction: 0.2,
            float_fraction: 0.3,
            // Wide windows keep many values live, forcing spills on the
            // smaller machines below.
            window: 8 + (seed as usize % 3) * 8,
        };
        let func = random_dag_function(seed * 13 + 1, &params);
        for machine in [
            presets::paper_machine(4),
            presets::paper_machine(6),
            presets::single_issue(8),
        ] {
            rounds_with_incremental_pig +=
                check_spill_loop(&func, &machine, &format!("seed {seed}, {machine}"));
            cases += 1;
        }
    }
    assert!(cases >= 200, "only {cases} property cases ran");
    // If no case ever spilled, the incremental path was never compared
    // and the test is vacuous — fail loudly instead.
    assert!(
        rounds_with_incremental_pig >= 50,
        "only {rounds_with_incremental_pig} incremental rounds exercised; \
         workload no longer forces spilling"
    );
}

/// One session reused across two different functions must produce output
/// byte-identical to two fresh sessions: `begin` is a full reset.
#[test]
fn session_reuse_across_functions_is_byte_identical() {
    let machine = presets::paper_machine(6);
    let params_a = DagParams {
        size: 30,
        load_fraction: 0.2,
        float_fraction: 0.3,
        window: 16,
    };
    let params_b = DagParams {
        size: 22,
        load_fraction: 0.3,
        float_fraction: 0.5,
        window: 24,
    };
    let f1 = random_dag_function(11, &params_a);
    let f2 = random_dag_function(42, &params_b);
    let strategy = BlockStrategy::Pinter(PinterConfig::default());
    let budget = Budget::unlimited();

    let fresh1 = allocate_single_block(&f1, &machine, strategy, &budget, &NullTelemetry).unwrap();
    let fresh2 = allocate_single_block(&f2, &machine, strategy, &budget, &NullTelemetry).unwrap();

    let mut session = AllocSession::new();
    let reused1 = allocate_single_block_in(
        &mut session,
        &f1,
        &machine,
        strategy,
        &budget,
        &NullTelemetry,
    )
    .unwrap();
    let reused2 = allocate_single_block_in(
        &mut session,
        &f2,
        &machine,
        strategy,
        &budget,
        &NullTelemetry,
    )
    .unwrap();

    assert_eq!(
        print_function(&fresh1.function),
        print_function(&reused1.function)
    );
    assert_eq!(
        print_function(&fresh2.function),
        print_function(&reused2.function)
    );
    assert_eq!(fresh1.spilled_values, reused1.spilled_values);
    assert_eq!(fresh2.spilled_values, reused2.spilled_values);
    assert_eq!(fresh1.colors_used, reused1.colors_used);
    assert_eq!(fresh2.colors_used, reused2.colors_used);
}
