//! The compilation pipeline: strategy selection, allocation, scheduling,
//! and statistics.

use crate::driver::DegradationLevel;
use crate::error::ParschedError;
use parsched_exact::ExactConfig;
use parsched_ir::{BlockId, Function};
use parsched_machine::MachineDesc;
use parsched_regalloc::allocator::{allocate_single_block_in, AllocError, BlockStrategy};
use parsched_regalloc::global::{allocate_global_scoped, GlobalScope};
use parsched_regalloc::{AllocSession, Budget, PinterConfig};
use parsched_sched::falsedep::count_false_deps_in;
use parsched_sched::{list_schedule, DepGraph, SchedError};
use parsched_telemetry::Telemetry;
use std::error::Error;
use std::fmt;

/// How register allocation and instruction scheduling are ordered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Allocate first (Chaitin, parallelism-blind), then schedule the
    /// physical code — the MIPS-style phase order. Register reuse may
    /// introduce false dependences that serialize issue.
    AllocThenSched,
    /// List-schedule the symbolic code first, then allocate (Chaitin) over
    /// the stretched live ranges — the RS/6000-style phase order. Keeps
    /// parallelism but raises pressure and spills.
    SchedThenAlloc,
    /// Linear-scan allocation first, then schedule — the fastest-compile
    /// baseline (single-block functions only; multi-block functions fall
    /// back to the global Chaitin allocator).
    LinearScanThenSched,
    /// The paper's approach: color the parallelizable interference graph,
    /// then schedule. With enough registers this provably introduces no
    /// false dependence (Theorem 1).
    Combined(PinterConfig),
    /// Degradation floor: spill every original value to memory and
    /// schedule the residue. Produces the worst code the pipeline can emit
    /// but succeeds on any verified input under any register count — the
    /// last rung of the resilience ladder.
    SpillEverything,
    /// Exact branch-and-bound over the joint (schedule order × register
    /// assignment) space: lexicographically minimal (spills, registers,
    /// cycles) for single blocks up to the configured size cap, with a
    /// typed refusal beyond it. The optimality yardstick every heuristic
    /// rung is measured against (`fuzz --gap`); see `docs/EXACT.md`.
    Exact(ExactConfig),
}

impl Strategy {
    /// The combined strategy with the paper's default configuration.
    pub fn combined() -> Strategy {
        Strategy::Combined(PinterConfig::default())
    }

    /// The exact strategy with the default size and node caps.
    pub fn exact() -> Strategy {
        Strategy::Exact(ExactConfig::default())
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::AllocThenSched => "alloc-then-sched",
            Strategy::SchedThenAlloc => "sched-then-alloc",
            Strategy::LinearScanThenSched => "linear-scan",
            Strategy::Combined(_) => "combined",
            Strategy::SpillEverything => "spill-everything",
            Strategy::Exact(_) => "exact",
        }
    }

    /// Parses a command-line strategy name (`combined`, `alloc-first`,
    /// `sched-first`, `linear-scan`, `spill-everything`, `exact`) into the
    /// strategy with its default configuration.
    ///
    /// # Errors
    /// Returns [`StrategyParseError`] (whose message enumerates every
    /// valid name) for anything else.
    pub fn parse(name: &str) -> Result<Strategy, StrategyParseError> {
        match name {
            "combined" => Ok(Strategy::combined()),
            "alloc-first" => Ok(Strategy::AllocThenSched),
            "sched-first" => Ok(Strategy::SchedThenAlloc),
            "linear-scan" => Ok(Strategy::LinearScanThenSched),
            "spill-everything" => Ok(Strategy::SpillEverything),
            "exact" => Ok(Strategy::exact()),
            other => Err(StrategyParseError {
                name: other.to_string(),
            }),
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = StrategyParseError;

    fn from_str(s: &str) -> Result<Strategy, StrategyParseError> {
        Strategy::parse(s)
    }
}

/// An unrecognized command-line strategy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyParseError {
    /// The rejected name.
    pub name: String,
}

impl fmt::Display for StrategyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown strategy `{}`: expected combined, alloc-first, sched-first, \
             linear-scan, spill-everything, or exact",
            self.name
        )
    }
}

impl Error for StrategyParseError {}

/// Aggregate statistics of one compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Physical registers used.
    pub registers_used: u32,
    /// Values (or webs) spilled.
    pub spilled_values: usize,
    /// Loads/stores inserted by spilling.
    pub inserted_mem_ops: usize,
    /// False-dependence edges the combined allocator gave up.
    pub removed_false_edges: usize,
    /// False (output) dependences present in the final code relative to
    /// its pre-allocation form — the quantity Theorem 1 drives to zero.
    pub introduced_false_deps: usize,
    /// Static schedule length: sum over blocks of completion cycles.
    pub cycles: u32,
    /// Final instruction count (spill code included).
    pub inst_count: usize,
}

/// A compiled function: allocated, scheduled, and measured.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The final function: physical registers, instructions in scheduled
    /// order within each block.
    pub function: Function,
    /// Per-block completion cycles.
    pub block_cycles: Vec<u32>,
    /// Aggregate statistics.
    pub stats: CompileStats,
    /// How far down the resilience ladder the driver had to walk to
    /// produce this result. [`DegradationLevel::None`] unless the result
    /// came from [`crate::Driver::compile_resilient_in`] after a fallback.
    pub degradation: DegradationLevel,
}

/// The compilation pipeline for one machine.
#[derive(Debug, Clone)]
pub struct Pipeline {
    machine: MachineDesc,
    scope: GlobalScope,
}

impl Pipeline {
    /// Creates a pipeline targeting `machine`.
    pub fn new(machine: MachineDesc) -> Pipeline {
        Pipeline {
            machine,
            scope: GlobalScope::Function,
        }
    }

    /// Sets the scope of the web allocator that compiles multi-block
    /// functions: [`GlobalScope::Function`] (default, one color per web
    /// function-wide) or [`GlobalScope::PerBlockBaseline`] (dedicated
    /// registers for cross-block webs — the measurement baseline, `psc
    /// --per-block`). Single-block functions always take the block-level
    /// allocators, where a web is just a value. See `docs/GLOBAL.md`.
    pub fn with_scope(mut self, scope: GlobalScope) -> Pipeline {
        self.scope = scope;
        self
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineDesc {
        &self.machine
    }

    /// Compiles `func` (symbolic registers) under `strategy`: register
    /// allocation per the strategy, then list scheduling of every block,
    /// with blocks rewritten into scheduled order.
    ///
    /// Single-block functions use the block-level allocators; multi-block
    /// functions use the global (web-based) allocators.
    ///
    /// Phases appear as spans on `telemetry` (`pipeline.pre_schedule`,
    /// `pipeline.allocate`, `pipeline.false_dep_count`,
    /// `pipeline.final_schedule`) nested under one `pipeline.compile` span.
    /// The final [`CompileStats`] fields are emitted once, authoritatively,
    /// as `stats.*` counters
    /// (`stats.registers_used`, `stats.spilled_values`,
    /// `stats.inserted_mem_ops`, `stats.removed_false_edges`,
    /// `stats.introduced_false_deps`, `stats.cycles`, `stats.inst_count`),
    /// so a recording sink can cross-check them against the returned value.
    /// Pass [`parsched_telemetry::NullTelemetry`] when observability is not
    /// needed.
    ///
    /// # Errors
    /// Returns [`ParschedError`] when allocation fails (e.g. spilling does
    /// not converge on a pathological input).
    pub fn compile(
        &self,
        func: &Function,
        strategy: &Strategy,
        telemetry: &dyn Telemetry,
    ) -> Result<CompileResult, ParschedError> {
        let mut session = AllocSession::new();
        self.compile_budgeted_in(
            &mut session,
            func,
            strategy,
            &Budget::unlimited(),
            telemetry,
        )
    }

    /// [`Pipeline::compile`] under a resource [`Budget`], running inside a
    /// caller-owned [`AllocSession`]: the dependence graph and transitive
    /// closure of the combined strategy persist across spill rounds
    /// (updated incrementally) and across calls, which is how the batch
    /// driver amortizes PIG construction over a whole module.
    ///
    /// Budget caps are checked at the super-linear choke points (PIG
    /// construction, transitive closure, spill iteration); the deadline is
    /// additionally checked between phases. The statistics-only false-
    /// dependence count is *skipped* (not failed) for blocks over the
    /// instruction cap, with a `pipeline.false_dep_count.skipped` event.
    ///
    /// # Errors
    /// Returns [`ParschedError::BudgetExceeded`] when a cap or the deadline
    /// trips, and the other variants as [`Pipeline::compile`] does.
    pub fn compile_budgeted_in(
        &self,
        session: &mut AllocSession,
        func: &Function,
        strategy: &Strategy,
        budget: &Budget,
        telemetry: &dyn Telemetry,
    ) -> Result<CompileResult, ParschedError> {
        let _compile_span = parsched_telemetry::span(telemetry, "pipeline.compile");
        // The exact strategy replaces the whole allocate/schedule phase
        // pair with one joint search; its emitted order *is* the schedule.
        if let Strategy::Exact(cfg) = strategy {
            return self.compile_exact(func, cfg, budget, telemetry);
        }
        // Phase order.
        let pre_scheduled = match strategy {
            Strategy::SchedThenAlloc => {
                let _span = parsched_telemetry::span(telemetry, "pipeline.pre_schedule");
                budget.check_deadline("pipeline.pre_schedule")?;
                self.schedule_blocks_measured(func, telemetry)?.0
            }
            _ => func.clone(),
        };

        let (mut allocated, mut stats) = {
            let _span = parsched_telemetry::span(telemetry, "pipeline.allocate");
            self.allocate(session, &pre_scheduled, strategy, budget, telemetry)?
        };
        // Allocation can map a copy's source and destination to one
        // register; drop the resulting identity copies before scheduling.
        parsched_regalloc::assignment::remove_identity_copies(&mut allocated);

        // Each allocated block's dependence graph is built once, for both
        // the false-dependence count and the final list schedule.
        let graphs = block_graphs(&allocated, telemetry);
        stats.introduced_false_deps = self.false_dep_count(&allocated, &graphs, budget, telemetry);

        // Final scheduling of the allocated code.
        budget.check_deadline("pipeline.final_schedule")?;
        let (final_fn, block_cycles) = {
            let _span = parsched_telemetry::span(telemetry, "pipeline.final_schedule");
            self.schedule_blocks_with(&allocated, &graphs, telemetry)?
        };
        stats.cycles = block_cycles.iter().sum();
        stats.inst_count = final_fn.inst_count();
        emit_stats(&stats, telemetry);
        Ok(CompileResult {
            function: final_fn,
            block_cycles,
            stats,
            degradation: DegradationLevel::None,
        })
    }

    /// The [`Strategy::Exact`] path: one joint branch-and-bound search
    /// replaces the allocate → schedule phase pair. The solver's typed
    /// refusals surface as [`ParschedError::Exact`] (exit 5, class
    /// `alloc`), and its size cap as an `exact.max_insts` budget trip, so
    /// the driver ladder degrades through them as through the heuristic
    /// rungs' failures.
    fn compile_exact(
        &self,
        func: &Function,
        cfg: &ExactConfig,
        budget: &Budget,
        telemetry: &dyn Telemetry,
    ) -> Result<CompileResult, ParschedError> {
        let sol = parsched_exact::solve(func, &self.machine, cfg, budget.deadline, telemetry)?;
        let mut stats = CompileStats {
            registers_used: sol.registers_used,
            spilled_values: sol.spilled_values,
            inserted_mem_ops: sol.inserted_mem_ops,
            removed_false_edges: 0,
            introduced_false_deps: 0,
            cycles: sol.cycles(),
            inst_count: sol.function.inst_count(),
        };
        let graphs = block_graphs(&sol.function, &parsched_telemetry::NullTelemetry);
        stats.introduced_false_deps =
            self.false_dep_count(&sol.function, &graphs, budget, telemetry);
        emit_stats(&stats, telemetry);
        Ok(CompileResult {
            function: sol.function,
            block_cycles: sol.block_cycles,
            stats,
            degradation: DegradationLevel::None,
        })
    }

    /// Counts false dependences intrinsically: each allocated block's own
    /// register output dependences (from `graphs`, one per block) are
    /// tested against the block's renamed-apart form. The count is
    /// statistics-only, so budget pressure skips it (per block) instead of
    /// failing the compilation: it builds a transitive closure, quadratic
    /// in the block's length.
    fn false_dep_count(
        &self,
        allocated: &Function,
        graphs: &[DepGraph],
        budget: &Budget,
        telemetry: &dyn Telemetry,
    ) -> usize {
        let _span = parsched_telemetry::span(telemetry, "pipeline.false_dep_count");
        let cap = budget.max_block_insts.unwrap_or(usize::MAX);
        (0..allocated.block_count())
            .map(|b| {
                let block = allocated.block(BlockId(b));
                let counted = if block.insts().len() > cap {
                    None
                } else {
                    count_false_deps_in(block, &graphs[b], &self.machine, budget.deadline)
                };
                counted.unwrap_or_else(|| {
                    if telemetry.enabled() {
                        telemetry.event("pipeline.false_dep_count.skipped", block.label());
                    }
                    0
                })
            })
            .sum()
    }

    /// Schedules every block of the final code and reports per-block
    /// completion cycles without allocating (used on physical code), with
    /// one `sched.block` span per block (the block's label in a
    /// `sched.block` event) and a `sched.block_cycles` counter per block.
    ///
    /// # Errors
    /// Returns [`SchedError`] when a block's dependence graph is cyclic or
    /// the scheduler produces an invalid schedule.
    pub fn schedule_blocks_measured(
        &self,
        func: &Function,
        telemetry: &dyn Telemetry,
    ) -> Result<(Function, Vec<u32>), SchedError> {
        self.schedule_blocks_with(func, &block_graphs(func, telemetry), telemetry)
    }

    /// [`Pipeline::schedule_blocks_measured`] over prebuilt dependence
    /// graphs, one per block.
    fn schedule_blocks_with(
        &self,
        func: &Function,
        graphs: &[DepGraph],
        telemetry: &dyn Telemetry,
    ) -> Result<(Function, Vec<u32>), SchedError> {
        let mut out = func.clone();
        let mut cycles = Vec::with_capacity(func.block_count());
        for (b, deps) in graphs.iter().enumerate() {
            let block = func.block(BlockId(b));
            let _span = parsched_telemetry::span(telemetry, "sched.block");
            if telemetry.enabled() {
                telemetry.event("sched.block", block.label());
            }
            let schedule = list_schedule(
                block,
                deps,
                &self.machine,
                parsched_sched::SchedPriority::CriticalPath,
                telemetry,
            )?;
            if telemetry.enabled() {
                telemetry.counter(
                    "sched.block_cycles",
                    u64::from(schedule.completion_cycles()),
                );
            }
            cycles.push(schedule.completion_cycles());
            *out.block_mut(BlockId(b)) = schedule.linearize(block);
        }
        Ok((out, cycles))
    }

    fn allocate(
        &self,
        session: &mut AllocSession,
        func: &Function,
        strategy: &Strategy,
        budget: &Budget,
        telemetry: &dyn Telemetry,
    ) -> Result<(Function, CompileStats), ParschedError> {
        let s = match strategy {
            Strategy::AllocThenSched | Strategy::SchedThenAlloc => BlockStrategy::Chaitin,
            Strategy::LinearScanThenSched => BlockStrategy::LinearScan,
            Strategy::Combined(cfg) => BlockStrategy::Pinter(*cfg),
            Strategy::SpillEverything => BlockStrategy::SpillAll,
            Strategy::Exact(_) => unreachable!("exact strategy bypasses allocate()"),
        };
        let out = if func.block_count() > 1 {
            allocate_global_scoped(func, &self.machine, s, self.scope, true, budget, telemetry)
                .map_err(|e| match e {
                    AllocError::Budget(b) => b.into(),
                    other => ParschedError::Global(other),
                })?
        } else {
            allocate_single_block_in(session, func, &self.machine, s, budget, telemetry)?
        };
        let stats = CompileStats {
            registers_used: out.colors_used,
            spilled_values: out.spilled_values,
            inserted_mem_ops: out.inserted_mem_ops,
            removed_false_edges: out.removed_false_edges,
            ..CompileStats::default()
        };
        Ok((out.function, stats))
    }
}

/// The dependence graph of every block of `func`, in block order.
fn block_graphs(func: &Function, telemetry: &dyn Telemetry) -> Vec<DepGraph> {
    func.blocks()
        .iter()
        .map(|block| DepGraph::build(block, telemetry))
        .collect()
}

/// Emits the final [`CompileStats`] once, authoritatively, as `stats.*`
/// counters — shared by the heuristic and exact compile paths.
fn emit_stats(stats: &CompileStats, telemetry: &dyn Telemetry) {
    if telemetry.enabled() {
        telemetry.counter("stats.registers_used", u64::from(stats.registers_used));
        telemetry.counter("stats.spilled_values", stats.spilled_values as u64);
        telemetry.counter("stats.inserted_mem_ops", stats.inserted_mem_ops as u64);
        telemetry.counter(
            "stats.removed_false_edges",
            stats.removed_false_edges as u64,
        );
        telemetry.counter(
            "stats.introduced_false_deps",
            stats.introduced_false_deps as u64,
        );
        telemetry.counter("stats.cycles", u64::from(stats.cycles));
        telemetry.counter("stats.inst_count", stats.inst_count as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use parsched_ir::interp::{Interpreter, Memory};
    use parsched_ir::parse_function;

    fn interp_equal(a: &Function, b: &Function, args: &[i64]) {
        let mut mem = Memory::new();
        for g in ["z", "y", "x", "w"] {
            mem.set_global(g, 0, 42 + g.len() as i64);
        }
        for i in 0..256 {
            mem.set_abs(i, i * 13 + 7);
        }
        let interp = Interpreter::new();
        let ra = interp.run(a, args, mem.clone()).unwrap();
        let rb = interp.run(b, args, mem).unwrap();
        assert_eq!(ra.return_value, rb.return_value);
    }

    #[test]
    fn example1_combined_beats_alloc_first() {
        let func = paper::example1();
        let machine = paper::machine(3);
        let p = Pipeline::new(machine);
        let combined = p
            .compile(
                &func,
                &Strategy::combined(),
                &parsched_telemetry::NullTelemetry,
            )
            .unwrap();
        let naive = p
            .compile(
                &func,
                &Strategy::AllocThenSched,
                &parsched_telemetry::NullTelemetry,
            )
            .unwrap();
        assert_eq!(combined.stats.introduced_false_deps, 0);
        assert!(combined.stats.cycles <= naive.stats.cycles);
        interp_equal(&func, &combined.function, &[1]);
        interp_equal(&func, &naive.function, &[1]);
    }

    #[test]
    fn example2_strategies_all_preserve_semantics() {
        let func = paper::example2();
        let machine = paper::machine(4);
        let p = Pipeline::new(machine);
        for s in [
            Strategy::AllocThenSched,
            Strategy::SchedThenAlloc,
            Strategy::combined(),
        ] {
            let r = p
                .compile(&func, &s, &parsched_telemetry::NullTelemetry)
                .unwrap();
            assert!(r.stats.registers_used <= 4, "{}", s.label());
            interp_equal(&func, &r.function, &[]);
        }
    }

    #[test]
    fn combined_never_more_registers_than_machine() {
        let func = paper::example2();
        for regs in [4, 6, 8] {
            let p = Pipeline::new(paper::machine(regs));
            let r = p
                .compile(
                    &func,
                    &Strategy::combined(),
                    &parsched_telemetry::NullTelemetry,
                )
                .unwrap();
            assert!(r.stats.registers_used <= regs);
        }
    }

    #[test]
    fn multi_block_pipeline_works() {
        let func = parse_function(
            r#"
            func @sum(s0) {
            entry:
                s1 = li 0
                s2 = li 0
            head:
                s3 = slt s2, s0
                beq s3, 0, done
            body:
                s4 = add s1, s2
                s1 = mov s4
                s5 = add s2, 1
                s2 = mov s5
                jmp head
            done:
                ret s1
            }
            "#,
        )
        .unwrap();
        let p = Pipeline::new(paper::machine(8));
        for s in [
            Strategy::AllocThenSched,
            Strategy::SchedThenAlloc,
            Strategy::combined(),
        ] {
            let r = p
                .compile(&func, &s, &parsched_telemetry::NullTelemetry)
                .unwrap();
            assert_eq!(r.block_cycles.len(), 4);
            interp_equal(&func, &r.function, &[9]);
        }
    }

    #[test]
    fn chain_merging_preserves_semantics_and_widens_scope() {
        let func = parse_function(
            r#"
            func @chain(s0) {
            a:
                s1 = add s0, 1
                s2 = mul s1, s1
            b:
                s3 = fadd s0, 1
                s4 = fmul s3, s3
            c:
                s5 = add s2, s4
                ret s5
            }
            "#,
        )
        .unwrap();
        let pipeline = Pipeline::new(paper::machine(8));
        let compile = |f: &Function| {
            pipeline
                .compile(f, &Strategy::combined(), &parsched_telemetry::NullTelemetry)
                .unwrap()
        };
        let r_plain = compile(&func);
        let r_merged = compile(&parsched_ir::simplify::merge_chains(&func));
        assert_eq!(r_merged.function.block_count(), 1);
        assert!(
            r_merged.stats.cycles <= r_plain.stats.cycles,
            "merged {} vs plain {}",
            r_merged.stats.cycles,
            r_plain.stats.cycles
        );
        interp_equal(&func, &r_merged.function, &[3]);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::AllocThenSched.label(), "alloc-then-sched");
        assert_eq!(Strategy::SchedThenAlloc.label(), "sched-then-alloc");
        assert_eq!(Strategy::combined().label(), "combined");
    }
}
