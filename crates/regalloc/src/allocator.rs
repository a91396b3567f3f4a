//! Block-level allocation driver: color, spill, rewrite, repeat.

use crate::assignment::{apply_coloring, check_function_allocation, AllocCheckError};
use crate::combined::PinterConfig;
use crate::limits::{Budget, BudgetExceeded};
use crate::pig::Pig;
use crate::problem::{BlockAllocProblem, ProblemError};
use crate::session::AllocSession;
use parsched_graph::CycleError;
use parsched_ir::liveness::Liveness;
use parsched_ir::{BlockId, Function, Reg};
use parsched_machine::MachineDesc;
use parsched_sched::ep::ep_reorder;
use parsched_sched::DepGraph;
use std::error::Error;
use std::fmt;

/// Which allocator runs on the block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockStrategy {
    /// Classic Chaitin coloring of the plain interference graph — the
    /// phase-ordered baseline (parallelism-blind).
    Chaitin,
    /// Poletto–Sarkar linear scan over live intervals — the no-graph
    /// baseline (also parallelism-blind, and blind to interference shape).
    LinearScan,
    /// The paper's combined allocator on the parallelizable interference
    /// graph.
    Pinter(PinterConfig),
    /// Degradation floor: spill every original value to memory up front,
    /// then Chaitin-color the residue of short-lived reload temporaries.
    /// Slow code, but succeeds on essentially any input without ever
    /// building a quadratic structure.
    SpillAll,
}

/// A completed block allocation.
#[derive(Debug, Clone)]
pub struct BlockAllocation {
    /// The rewritten function (physical registers, spill code included).
    pub function: Function,
    /// Registers actually used.
    pub colors_used: u32,
    /// Total values spilled across all rounds.
    pub spilled_values: usize,
    /// False-dependence edges given up by the combined allocator (always 0
    /// for Chaitin).
    pub removed_false_edges: usize,
    /// Memory operations inserted by spilling.
    pub inserted_mem_ops: usize,
    /// Color/spill rounds executed.
    pub rounds: u32,
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocError {
    /// The function has more than one block; use the global allocator.
    NotSingleBlock {
        /// Actual block count.
        blocks: usize,
    },
    /// The block violates the allocation preconditions.
    Problem(ProblemError),
    /// Spilling failed to converge.
    TooManyRounds {
        /// The round limit.
        limit: u32,
    },
    /// The final rewrite failed its independent validity check — an
    /// allocator bug, surfaced rather than hidden.
    Invalid(AllocCheckError),
    /// A resource budget (block size, PIG edges, deadline) was exhausted.
    Budget(BudgetExceeded),
    /// The dependence graph was cyclic — malformed input to the combined
    /// path (a well-formed block always yields a DAG).
    Cycle(CycleError),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NotSingleBlock { blocks } => {
                write!(
                    f,
                    "block-level allocator needs a single block, got {blocks}"
                )
            }
            AllocError::Problem(p) => p.fmt(f),
            AllocError::TooManyRounds { limit } => {
                write!(f, "spilling did not converge within {limit} rounds")
            }
            AllocError::Invalid(e) => write!(f, "allocation failed validation: {e}"),
            AllocError::Budget(b) => b.fmt(f),
            AllocError::Cycle(c) => c.fmt(f),
        }
    }
}

impl Error for AllocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AllocError::Problem(p) => Some(p),
            AllocError::Invalid(e) => Some(e),
            AllocError::Budget(b) => Some(b),
            AllocError::Cycle(c) => Some(c),
            _ => None,
        }
    }
}

impl From<ProblemError> for AllocError {
    fn from(p: ProblemError) -> Self {
        AllocError::Problem(p)
    }
}

impl From<BudgetExceeded> for AllocError {
    fn from(b: BudgetExceeded) -> Self {
        AllocError::Budget(b)
    }
}

impl From<CycleError> for AllocError {
    fn from(c: CycleError) -> Self {
        AllocError::Cycle(c)
    }
}

/// Allocates registers for a single-block function on `machine`.
///
/// # Examples
///
/// ```
/// use parsched_ir::parse_function;
/// use parsched_machine::presets;
/// use parsched_regalloc::{allocate_single_block, BlockStrategy, Budget, PinterConfig};
/// use parsched_telemetry::NullTelemetry;
///
/// let f = parse_function(
///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = mul s1, s1\n    ret s2\n}",
/// )?;
/// let machine = presets::paper_machine(4);
/// let out = allocate_single_block(
///     &f,
///     &machine,
///     BlockStrategy::Pinter(PinterConfig::default()),
///     &Budget::unlimited(),
///     &NullTelemetry,
/// )?;
/// assert_eq!(out.spilled_values, 0);
/// assert!(out.colors_used <= 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Runs the configured strategy, inserting spill code and retrying until
/// the block colors within `machine.num_regs()` registers. For
/// [`BlockStrategy::Pinter`] with `ep_prepass`, the block body is first
/// reordered by refined EP numbers (the paper's Section 4 pre-pass).
///
/// `budget.max_block_insts` and `budget.max_pig_edges` gate only the
/// quadratic [`BlockStrategy::Pinter`] path (transitive closure and PIG
/// construction); the cheaper strategies always run, so a degradation
/// ladder has rungs that still succeed under a tight budget. The deadline
/// and round cap apply to every strategy.
///
/// Per-round progress is reported to `telemetry`: an `alloc.round` span
/// wraps each color/spill round (containing `alloc.liveness`, `pig.build`,
/// the backend\'s coloring span, and `spill.rewrite`), and `alloc.rounds` /
/// `alloc.spilled_values` / `alloc.removed_false_edges` /
/// `alloc.inserted_mem_ops` counters accumulate the round outcomes.
///
/// # Errors
/// Returns [`AllocError`] if the function is not single-block, violates the
/// symbolic single-definition discipline, or spilling fails to converge;
/// [`AllocError::Budget`] when a limit trips; [`AllocError::Cycle`] on a
/// malformed dependence graph.
pub fn allocate_single_block(
    func: &Function,
    machine: &MachineDesc,
    strategy: BlockStrategy,
    budget: &Budget,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> Result<BlockAllocation, AllocError> {
    let mut session = AllocSession::new();
    allocate_single_block_in(&mut session, func, machine, strategy, budget, telemetry)
}

/// [`allocate_single_block`] running inside a caller-owned
/// [`AllocSession`], so the dependence graph and transitive closure persist
/// across spill rounds (updated incrementally, not rebuilt) and warm
/// allocations persist across functions. The batch driver gives each
/// worker one session and routes every function through it.
///
/// # Errors
/// Same contract as [`allocate_single_block`].
pub fn allocate_single_block_in(
    session: &mut AllocSession,
    func: &Function,
    machine: &MachineDesc,
    strategy: BlockStrategy,
    budget: &Budget,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> Result<BlockAllocation, AllocError> {
    if func.block_count() != 1 {
        return Err(AllocError::NotSingleBlock {
            blocks: func.block_count(),
        });
    }
    let k = machine.num_regs();
    let block_id = BlockId(0);

    let mut current = func.clone();
    if let BlockStrategy::Pinter(cfg) = &strategy {
        budget.check_block_insts("alloc.ep_prepass", current.block(block_id).body().len())?;
        if cfg.ep_prepass {
            let _span = parsched_telemetry::span(telemetry, "alloc.ep_prepass");
            let deps = DepGraph::build(current.block(block_id), telemetry);
            let reordered = {
                let _span = parsched_telemetry::span(telemetry, "ep.reorder");
                ep_reorder(current.block(block_id), &deps, machine)?
            };
            *current.block_mut(block_id) = reordered;
        }
    }
    // Registers introduced by spill rewriting (reload temporaries) must
    // never be spilled again — their live ranges are already minimal and
    // re-spilling them loops forever. Protect them with a prohibitive cost.
    let protected_from = current.num_sym_regs();

    let mut spilled_values = 0usize;
    let mut removed_false_edges = 0usize;
    let mut inserted_mem_ops = 0usize;
    let mut next_slot: i64 = 0;
    // Per-block profile data for the hotspot report (`psc --profile`);
    // gathered only when a sink is recording.
    let block_start = telemetry.enabled().then(std::time::Instant::now);
    let mut last_pig_edges: u64 = 0;
    // SpillAll must not pick the same value twice: a spilled definition
    // keeps its register name (def + store), so filtering on the id alone
    // would re-spill it every round.
    let mut spilled_once: std::collections::HashSet<Reg> = std::collections::HashSet::new();
    // The remap produced by the previous round's spill rewrite, consumed by
    // the session's incremental closure update at the top of the next round.
    let mut pending_remap: Option<parsched_sched::BlockRemap> = None;
    // Round-to-round PIG buffer: `build_pig_into` rebuilds in place, so the
    // spill loop stops paying a four-graph reallocation per round.
    let mut pig_slot: Option<Pig> = None;
    let mut combined_ws = crate::combined::CombinedWorkspace::default();

    let max_rounds = budget.rounds();
    for round in 1..=max_rounds {
        budget.check_deadline("alloc.deadline")?;
        let round_span = parsched_telemetry::span(telemetry, "alloc.round");
        let (liveness, problem) = {
            let _span = parsched_telemetry::span(telemetry, "alloc.liveness");
            let liveness = Liveness::compute(&current, &[]);
            let problem = BlockAllocProblem::build(&current, block_id, &liveness)?;
            (liveness, problem)
        };
        let costs: Vec<f64> = (0..problem.len())
            .map(|n| match problem.nodes()[n] {
                Reg::Sym(s) if s.0 >= protected_from => 1e12,
                _ => problem.spill_cost(n),
            })
            .collect();

        let (colors, spills, removed) = match &strategy {
            BlockStrategy::Chaitin => {
                let out =
                    crate::chaitin::chaitin_color(problem.interference(), k, &costs, telemetry);
                (out.colors, out.spilled, Vec::new())
            }
            BlockStrategy::LinearScan => {
                let out = crate::linear::linear_scan_color(
                    &current, block_id, &problem, &liveness, k, telemetry,
                );
                // Linear scan has no cost model; protect reload temps by
                // never re-spilling them (they are intervals of length ≤ 1
                // and always win a register, so this is vacuous in
                // practice but keeps the invariant visible).
                (out.colors, out.spilled, Vec::new())
            }
            BlockStrategy::Pinter(cfg) => {
                budget.check_block_insts("pig.build", current.block(block_id).body().len())?;
                session.set_deadline(budget.deadline);
                match pending_remap.take() {
                    Some(remap) => {
                        session.rebuild_after_spill(current.block(block_id), &remap, telemetry)?;
                    }
                    None => session.begin(current.block(block_id), telemetry)?,
                }
                session.build_pig_into(&problem, machine, telemetry, &mut pig_slot)?;
                let Some(pig) = pig_slot.as_ref() else {
                    unreachable!("the session was begun or rebuilt above")
                };
                last_pig_edges = pig.edge_count() as u64;
                budget.check_pig_edges("pig.edges", last_pig_edges)?;
                let priority: Vec<u32> = {
                    let _span = parsched_telemetry::span(telemetry, "alloc.heights");
                    match session.deps() {
                        Some(deps) => {
                            let heights = deps.heights(machine)?;
                            (0..problem.len())
                                .map(|n| problem.def_site(n).map_or(0, |i| heights[i]))
                                .collect()
                        }
                        None => vec![0; problem.len()],
                    }
                };
                let out = crate::combined::combined_color_in(
                    &mut combined_ws,
                    pig,
                    k,
                    &costs,
                    &priority,
                    cfg,
                    telemetry,
                );
                (out.colors, out.spilled, out.removed_false_edges)
            }
            BlockStrategy::SpillAll => {
                // Round 1 sends every original (unprotected) value to a
                // spill slot; later rounds Chaitin-color the residue —
                // reload temporaries and the point-range defs that feed the
                // stores, all spanning single instructions.
                let all: Vec<usize> = (0..problem.len())
                    .filter(|&n| {
                        let r = problem.nodes()[n];
                        matches!(r, Reg::Sym(s) if s.0 < protected_from)
                            && !spilled_once.contains(&r)
                    })
                    .collect();
                if all.is_empty() {
                    let out =
                        crate::chaitin::chaitin_color(problem.interference(), k, &costs, telemetry);
                    (out.colors, out.spilled, Vec::new())
                } else {
                    (Vec::new(), all, Vec::new())
                }
            }
        };
        removed_false_edges += removed.len();

        if spills.is_empty() {
            let apply_span = parsched_telemetry::span(telemetry, "alloc.apply");
            let allocated = apply_coloring(&current, &problem, &colors);
            check_function_allocation(&current, &allocated, &problem, &colors)
                .map_err(AllocError::Invalid)?;
            let colors_used = colors.iter().map(|&c| c + 1).max().unwrap_or(0);
            drop(apply_span);
            drop(round_span);
            if telemetry.enabled() {
                telemetry.counter("alloc.rounds", round as u64);
                telemetry.counter("alloc.spilled_values", spilled_values as u64);
                telemetry.counter("alloc.removed_false_edges", removed_false_edges as u64);
                telemetry.counter("alloc.inserted_mem_ops", inserted_mem_ops as u64);
                let wall_ns = block_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
                telemetry.hist("alloc.block_ns", wall_ns);
                telemetry.event(
                    "profile.block",
                    &format!(
                        "func={} insts={} pig_edges={} rounds={} spilled={} wall_ns={}",
                        func.name(),
                        func.block(block_id).body().len(),
                        last_pig_edges,
                        round,
                        spilled_values,
                        wall_ns
                    ),
                );
            }
            return Ok(BlockAllocation {
                function: allocated,
                colors_used,
                spilled_values,
                removed_false_edges,
                inserted_mem_ops,
                rounds: round,
            });
        }

        let spill_regs: Vec<Reg> = spills.iter().map(|&n| problem.nodes()[n]).collect();
        spilled_once.extend(spill_regs.iter().copied());
        spilled_values += spill_regs.len();
        let (rewritten, inserted, remap) = crate::spill::insert_spill_code(
            &current,
            block_id,
            &spill_regs,
            &mut next_slot,
            telemetry,
        );
        inserted_mem_ops += inserted;
        pending_remap = Some(remap);
        current = rewritten;
    }
    Err(AllocError::TooManyRounds { limit: max_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::interp::{Interpreter, Memory};
    use parsched_ir::parse_function;
    use parsched_machine::presets;
    use parsched_telemetry::NullTelemetry;

    fn alloc(
        f: &Function,
        m: &MachineDesc,
        strategy: BlockStrategy,
    ) -> Result<BlockAllocation, AllocError> {
        allocate_single_block(f, m, strategy, &Budget::unlimited(), &NullTelemetry)
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

    fn run_both(f: &Function, g: &Function, args: &[i64]) {
        let mut mem = Memory::new();
        mem.set_global("z", 0, 11);
        for a in 0..64 {
            mem.set_abs(a, a * 3 + 1);
        }
        let i = Interpreter::new();
        let before = i.run(f, args, mem.clone()).unwrap();
        let after = i.run(g, args, mem).unwrap();
        assert_eq!(before.return_value, after.return_value);
    }

    #[test]
    fn chaitin_allocates_example1() {
        let f = parse_function(EXAMPLE1).unwrap();
        let m = presets::paper_machine(3);
        let out = alloc(&f, &m, BlockStrategy::Chaitin).unwrap();
        assert_eq!(out.spilled_values, 0);
        assert!(out.colors_used <= 3);
        assert_eq!(out.function.num_sym_regs(), 0, "fully rewritten");
        run_both(&f, &out.function, &[5]);
    }

    #[test]
    fn pinter_allocates_example1_with_three_regs_no_false_deps() {
        let f = parse_function(EXAMPLE1).unwrap();
        let m = presets::paper_machine(3);
        let cfg = PinterConfig {
            ep_prepass: false,
            ..PinterConfig::default()
        };
        let out = alloc(&f, &m, BlockStrategy::Pinter(cfg)).unwrap();
        assert_eq!(out.spilled_values, 0, "paper: 3 registers suffice");
        assert_eq!(out.removed_false_edges, 0, "no parallelism given up");
        run_both(&f, &out.function, &[5]);

        // And the allocation introduces no false dependence.
        use parsched_sched::falsedep::{false_dependence_graph, introduced_false_deps};
        let sym_deps = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
        let ef = false_dependence_graph(&sym_deps, &m, &NullTelemetry);
        let alloc_deps = DepGraph::build(out.function.block(BlockId(0)), &NullTelemetry);
        assert!(introduced_false_deps(&ef, &alloc_deps).is_empty());
    }

    #[test]
    fn spilling_converges_under_extreme_pressure() {
        let f = parse_function(
            r#"
            func @hot(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = load [s0 + 8]
                s3 = load [s0 + 16]
                s4 = load [s0 + 24]
                s5 = add s1, s2
                s6 = add s3, s4
                s7 = add s5, s6
                s8 = add s1, s7
                ret s8
            }
            "#,
        )
        .unwrap();
        let m = presets::paper_machine(2);
        for strat in [
            BlockStrategy::Chaitin,
            BlockStrategy::LinearScan,
            BlockStrategy::Pinter(PinterConfig::default()),
        ] {
            let out = alloc(&f, &m, strat).unwrap();
            assert!(out.colors_used <= 2, "{strat:?}");
            assert!(out.spilled_values > 0, "{strat:?} must spill");
            run_both(&f, &out.function, &[100]);
        }
    }

    #[test]
    fn rejects_multi_block() {
        let f = parse_function(
            r#"
            func @mb(s0) {
            entry:
                beq s0, 0, done
            mid:
                s1 = li 1
                ret s1
            done:
                ret s0
            }
            "#,
        )
        .unwrap();
        let m = presets::paper_machine(4);
        let err = alloc(&f, &m, BlockStrategy::Chaitin).unwrap_err();
        assert_eq!(err, AllocError::NotSingleBlock { blocks: 3 });
    }

    #[test]
    fn ep_prepass_reorders_before_measuring() {
        // Just exercises the prepass path end to end.
        let f = parse_function(EXAMPLE1).unwrap();
        let m = presets::paper_machine(4);
        let out = alloc(&f, &m, BlockStrategy::Pinter(PinterConfig::default())).unwrap();
        assert_eq!(out.function.inst_count(), f.inst_count());
        // Interpreter equivalence holds despite reordering.
        run_both(&f, &out.function, &[5]);
    }

    #[test]
    fn pinter_uses_at_most_as_many_spills_with_more_regs() {
        let f = parse_function(EXAMPLE1).unwrap();
        let cfg = BlockStrategy::Pinter(PinterConfig::default());
        let spill_at = |r: u32| {
            alloc(&f, &presets::paper_machine(r), cfg)
                .unwrap()
                .spilled_values
        };
        assert!(spill_at(8) <= spill_at(2));
    }
}
