//! `parsched-exact` — an exact branch-and-bound solver over the **joint**
//! space of (topological schedule order × register assignment) for small
//! single blocks.
//!
//! The paper promised an evaluation of how close combined scheduling and
//! allocation gets to optimal but never published one. This crate is the
//! yardstick: for blocks up to [`ExactConfig::max_insts`] instructions it
//! minimizes the lexicographic objective **(spilled values, registers
//! used, completion cycles)** exactly, so every heuristic rung can be
//! measured against a ground-truth optimum (`parsched-verify fuzz --gap`).
//!
//! # How it searches
//!
//! * **Spills** are minimized by iterative deepening over subsets of the
//!   spillable registers, reusing the shared spill-code rewriter
//!   ([`parsched_regalloc::spill::insert_spill_code`]), so "optimal" means
//!   optimal *within the pipeline's spill-code scheme*.
//! * **Registers** are assigned *inside* the search, because which freed
//!   register a value reuses changes the write-after-write dependences of
//!   the emitted code and therefore its cycle count. The assignment is
//!   canonical up to one branch: a def reuses the freed register with the
//!   oldest last write (register identity is a pure permutation), and
//!   only when every freed register would delay the issue does the search
//!   also try a fresh one.
//! * **Cycles** are carried physically during the search — each issue is
//!   placed on the machine's reservation table with the same greedy
//!   in-order policy the verify checker uses, write-after-write
//!   constraints included — so the claimed cycle counts are exactly what
//!   `parsched-verify` will re-derive.
//!
//! Admissible lower bounds (critical-path height for cycles, a
//! must-overlap/max-antichain bound for registers), prefix-dominance
//! pruning, and a node/deadline budget keep the search bounded: when the
//! budget trips the solver returns the best incumbent with
//! [`ExactSolution::proven_optimal`] `== false` instead of hanging.
//!
//! See `docs/EXACT.md` for the full model, bounds, and pruning rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::time::Instant;

use parsched_ir::Function;
use parsched_machine::MachineDesc;
use parsched_regalloc::ProblemError;
use parsched_telemetry::Telemetry;

mod solver;

/// Size and effort caps for the exact solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactConfig {
    /// Maximum instructions (terminator included) the solver accepts;
    /// larger functions are refused with [`ExactError::TooLarge`].
    pub max_insts: usize,
    /// Search-node budget. When exhausted the solver returns its best
    /// incumbent with [`ExactSolution::proven_optimal`] `== false`.
    pub max_nodes: u64,
}

impl ExactConfig {
    /// Default instruction cap (the "blocks up to ~20 instructions" regime
    /// where exact joint search is routinely feasible).
    pub const DEFAULT_MAX_INSTS: usize = 20;
    /// Default search-node budget.
    pub const DEFAULT_MAX_NODES: u64 = 250_000;
}

impl Default for ExactConfig {
    fn default() -> ExactConfig {
        ExactConfig {
            max_insts: Self::DEFAULT_MAX_INSTS,
            max_nodes: Self::DEFAULT_MAX_NODES,
        }
    }
}

/// Why the exact solver refused an input.
///
/// Refusals are *typed*, never panics: the driver ladder catches them and
/// falls through to the heuristic rungs.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactError {
    /// The function has more than one block; the exact model is
    /// single-block only.
    NotSingleBlock {
        /// Number of blocks in the function.
        blocks: usize,
    },
    /// The function exceeds the configured instruction cap.
    TooLarge {
        /// Instructions in the function (terminator included).
        insts: usize,
        /// The configured [`ExactConfig::max_insts`].
        cap: usize,
    },
    /// The block violates the block-allocation preconditions shared with
    /// the heuristic block allocators (single def per register, no def
    /// shadowing a live-in).
    Problem(ProblemError),
    /// No schedule fits the register file even with every candidate
    /// spilled (e.g. more simultaneously-live operands than registers).
    Infeasible {
        /// A lower bound on the registers any schedule needs.
        required: u32,
        /// Registers the machine offers.
        available: u32,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::NotSingleBlock { blocks } => {
                write!(f, "exact solver requires a single block, got {blocks}")
            }
            ExactError::TooLarge { insts, cap } => {
                write!(f, "exact solver refused {insts} instructions (cap {cap})")
            }
            ExactError::Problem(e) => e.fmt(f),
            ExactError::Infeasible {
                required,
                available,
            } => write!(
                f,
                "no feasible schedule: needs at least {required} registers, machine has {available}"
            ),
        }
    }
}

impl Error for ExactError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExactError::Problem(e) => Some(e),
            _ => None,
        }
    }
}

/// The solver's output: a fully scheduled, physically-allocated function
/// plus the objective values and search statistics.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The final function: physical registers, instructions in the chosen
    /// order (dead parameters keep their symbolic names, mirroring the
    /// heuristic allocators).
    pub function: Function,
    /// Per-block completion cycles (always one entry), replayed with the
    /// checker's greedy reservation-table policy.
    pub block_cycles: Vec<u32>,
    /// Distinct physical registers used.
    pub registers_used: u32,
    /// Values spilled (candidates rewritten through spill code).
    pub spilled_values: usize,
    /// Loads/stores the spill rewrite inserted.
    pub inserted_mem_ops: usize,
    /// Search nodes expanded.
    pub nodes: u64,
    /// Nodes cut by bounds, dominance, or feasibility.
    pub pruned: u64,
    /// Whether the search closed the whole space. `false` when the node
    /// budget or deadline tripped first: the solution is still valid and
    /// its objective is an upper bound, but optimality is not proven.
    pub proven_optimal: bool,
}

impl ExactSolution {
    /// Total completion cycles (sum over blocks).
    pub fn cycles(&self) -> u32 {
        self.block_cycles.iter().sum()
    }

    /// The lexicographic objective `(spills, registers, cycles)`.
    pub fn objective(&self) -> (u32, u32, u32) {
        (
            self.spilled_values as u32,
            self.registers_used,
            self.cycles(),
        )
    }
}

/// Solves `func` exactly for the machine: minimal `(spills, registers,
/// cycles)` lexicographically, over all topological instruction orders ×
/// register assignments × spill subsets.
///
/// Emits one `exact.solve` span and the `exact.nodes`, `exact.pruned`,
/// `exact.seeded` and `exact.proven_optimal` counters on `telemetry`.
///
/// # Errors
/// Returns [`ExactError`] for multi-block functions, functions over the
/// size cap, precondition violations, or infeasible register files. A
/// tripped node budget or `deadline` is **not** an error: the best
/// incumbent is returned with `proven_optimal == false`.
pub fn solve(
    func: &Function,
    machine: &MachineDesc,
    config: &ExactConfig,
    deadline: Option<Instant>,
    telemetry: &dyn Telemetry,
) -> Result<ExactSolution, ExactError> {
    solver::run(func, machine, config, deadline, true, telemetry)
}

/// [`solve`] with every bound and dominance rule disabled: a plain
/// enumeration of the same search space. Exists so property tests can
/// check that pruning never changes the optimum; only sensible for blocks
/// of at most ~8 instructions.
///
/// # Errors
/// Same contract as [`solve`].
pub fn solve_brute_force(
    func: &Function,
    machine: &MachineDesc,
    config: &ExactConfig,
    telemetry: &dyn Telemetry,
) -> Result<ExactSolution, ExactError> {
    solver::run(func, machine, config, None, false, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::{parse_function, Reg};
    use parsched_machine::presets;
    use parsched_telemetry::NullTelemetry;

    fn parse(src: &str) -> Function {
        match parse_function(src) {
            Ok(f) => f,
            Err(e) => unreachable!("test source is valid: {e}"),
        }
    }

    #[test]
    fn straight_line_block_solves_to_known_optimum() -> Result<(), ExactError> {
        let func = parse(
            "func @t(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = mul s0, 2\n    s3 = add s1, s2\n    ret s3\n}\n",
        );
        let sol = solve(
            &func,
            &presets::paper_machine(8),
            &ExactConfig::default(),
            None,
            &NullTelemetry,
        )?;
        assert!(sol.proven_optimal);
        // Two registers suffice (s1 and s2 overlap; s3 reuses one), and
        // the single fixed-point unit serializes the three ALU ops: they
        // issue at 0,1,2 and the dependent ret at 3 -> 4 cycles.
        assert_eq!(sol.objective(), (0, 2, 4));
        assert_eq!(sol.block_cycles, vec![4]);
        Ok(())
    }

    #[test]
    fn starved_machine_forces_a_spill() -> Result<(), ExactError> {
        // Three long-lived values on a 2-register machine: some value must
        // take a trip through memory, and the solver proves one is enough.
        let func = parse(
            "func @p(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = add s0, 2\n    s3 = add s0, 3\n    s4 = add s1, s2\n    s5 = add s4, s3\n    ret s5\n}\n",
        );
        let sol = solve(
            &func,
            &presets::single_issue(2),
            &ExactConfig::default(),
            None,
            &NullTelemetry,
        )?;
        assert!(sol.proven_optimal);
        assert!(sol.spilled_values >= 1, "{:?}", sol.objective());
        assert!(sol.registers_used <= 2);
        assert!(sol.inserted_mem_ops > 0);
        Ok(())
    }

    #[test]
    fn pruning_matches_brute_force() -> Result<(), ExactError> {
        let func = parse(
            "func @t(s0, s9) {\nentry:\n    s1 = add s0, 1\n    s2 = mul s9, 2\n    s3 = sub s1, s2\n    s4 = add s3, s0\n    ret s4\n}\n",
        );
        for machine in [presets::single_issue(3), presets::paper_machine(4)] {
            let fast = solve(
                &func,
                &machine,
                &ExactConfig::default(),
                None,
                &NullTelemetry,
            )?;
            let brute =
                solve_brute_force(&func, &machine, &ExactConfig::default(), &NullTelemetry)?;
            assert!(fast.proven_optimal && brute.proven_optimal);
            assert_eq!(fast.objective(), brute.objective());
        }
        Ok(())
    }

    #[test]
    fn typed_refusals() {
        let multi = parse("func @m(s0) {\nentry:\n    jmp next\nnext:\n    ret s0\n}\n");
        let err = solve(
            &multi,
            &presets::paper_machine(4),
            &ExactConfig::default(),
            None,
            &NullTelemetry,
        )
        .unwrap_err();
        assert_eq!(err, ExactError::NotSingleBlock { blocks: 2 });

        let small = parse("func @s(s0) {\nentry:\n    s1 = add s0, 1\n    ret s1\n}\n");
        let err = solve(
            &small,
            &presets::paper_machine(4),
            &ExactConfig {
                max_insts: 1,
                ..ExactConfig::default()
            },
            None,
            &NullTelemetry,
        )
        .unwrap_err();
        assert_eq!(err, ExactError::TooLarge { insts: 2, cap: 1 });

        // The block allocators' single-definition rules, one input each.
        let twice =
            parse("func @d(s0) {\nentry:\n    s1 = add s0, 1\n    s1 = add s0, 2\n    ret s1\n}\n");
        let shadow =
            parse("func @l(s0) {\nentry:\n    s1 = add s0, 1\n    s0 = add s1, 1\n    ret s0\n}\n");
        for (func, expected) in [
            (twice, ProblemError::MultipleDefs { reg: Reg::sym(1) }),
            (shadow, ProblemError::DefShadowsLiveIn { reg: Reg::sym(0) }),
        ] {
            let err = solve(
                &func,
                &presets::paper_machine(4),
                &ExactConfig::default(),
                None,
                &NullTelemetry,
            )
            .unwrap_err();
            assert_eq!(err, ExactError::Problem(expected));
        }
    }

    #[test]
    fn budget_exhaustion_returns_unproven_incumbent() -> Result<(), ExactError> {
        let func = parse(
            "func @t(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = mul s0, 2\n    s3 = add s1, s2\n    ret s3\n}\n",
        );
        let sol = solve(
            &func,
            &presets::paper_machine(8),
            &ExactConfig {
                max_nodes: 2,
                ..ExactConfig::default()
            },
            None,
            &NullTelemetry,
        )?;
        assert!(!sol.proven_optimal);
        assert!(sol.block_cycles[0] > 0);
        Ok(())
    }
}
