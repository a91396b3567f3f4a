//! Block schedules: cycle assignments plus validation and linearization.

use crate::deps::{DepEdge, DepGraph, DepKind};
use crate::timing::BlockTiming;
use parsched_ir::Block;
use parsched_machine::MachineDesc;
use std::error::Error;
use std::fmt;

/// A cycle-accurate schedule of one basic block.
///
/// `cycles[i]` is the issue cycle of body instruction `i` (in original body
/// order); the terminator, if any, issues at `term_cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSchedule {
    cycles: Vec<u32>,
    term_cycle: Option<u32>,
    completion: u32,
}

impl BlockSchedule {
    /// Wraps and validates a cycle assignment for `block` on `machine`.
    ///
    /// # Errors
    /// Returns [`ScheduleError`] if any dependence-latency constraint is
    /// violated, a functional unit or the issue width is oversubscribed, or
    /// the terminator does not issue last.
    pub fn new(
        block: &Block,
        deps: &DepGraph,
        machine: &MachineDesc,
        cycles: Vec<u32>,
        term_cycle: Option<u32>,
    ) -> Result<BlockSchedule, ScheduleError> {
        let timing = BlockTiming::new(block, deps, machine);
        BlockSchedule::validated(deps, &timing, cycles, term_cycle)
    }

    /// [`BlockSchedule::new`] against an already-built timing table.
    pub(crate) fn validated(
        deps: &DepGraph,
        timing: &BlockTiming,
        cycles: Vec<u32>,
        term_cycle: Option<u32>,
    ) -> Result<BlockSchedule, ScheduleError> {
        let n = deps.len();
        if cycles.len() != n {
            return Err(ScheduleError::WrongLength {
                expected: n,
                got: cycles.len(),
            });
        }
        // Dependence constraints.
        let late = |e: &DepEdge| cycles[e.to] < cycles[e.from] + timing.edge_latency(e);
        if let Some(DepEdge { from, to, kind }) = deps.edges().find(late) {
            return Err(ScheduleError::DependenceViolated { from, to, kind });
        }
        // Resource constraints: book every instruction at its claimed cycle.
        let mut clock = timing.clock();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| cycles[i]);
        for &i in &order {
            if !clock.fits(timing.class(i), cycles[i]) {
                return Err(ScheduleError::ResourceOversubscribed {
                    inst: i,
                    cycle: cycles[i],
                });
            }
            clock.issue(i, cycles[i]);
        }
        // Terminator: flows from its inputs and issues no earlier than any
        // body instruction.
        if let Some(tc) = term_cycle {
            let Some(tclass) = timing.term_class else {
                return Err(ScheduleError::TerminatorMissing);
            };
            for (i, &c) in cycles.iter().enumerate() {
                if c > tc {
                    return Err(ScheduleError::TerminatorNotLast { inst: i });
                }
                if timing.feeds_term[i] && tc < c + timing.latency[i] {
                    return Err(ScheduleError::DependenceViolated {
                        from: i,
                        to: n,
                        kind: DepKind::Flow,
                    });
                }
            }
            if !clock.fits(tclass, tc) {
                return Err(ScheduleError::ResourceOversubscribed { inst: n, cycle: tc });
            }
        }

        let completion = clock.complete(term_cycle);
        Ok(BlockSchedule {
            cycles,
            term_cycle,
            completion,
        })
    }

    /// Issue cycle of body instruction `i`.
    pub fn cycle(&self, i: usize) -> u32 {
        self.cycles[i]
    }

    /// All body issue cycles.
    pub fn cycles(&self) -> &[u32] {
        &self.cycles
    }

    /// Issue cycle of the terminator, if the block has one.
    pub fn term_cycle(&self) -> Option<u32> {
        self.term_cycle
    }

    /// Completion time of the block: every result produced and the
    /// terminator retired. This is the schedule length the evaluation
    /// reports.
    pub fn completion_cycles(&self) -> u32 {
        self.completion
    }

    /// Body instruction indices grouped by issue cycle (empty cycles
    /// omitted), ascending. Instructions within one cycle are in original
    /// order, which respects zero-latency anti edges.
    pub fn groups(&self) -> Vec<(u32, Vec<usize>)> {
        let mut by_cycle: Vec<(u32, Vec<usize>)> = Vec::new();
        let mut idx: Vec<usize> = (0..self.cycles.len()).collect();
        idx.sort_by_key(|&i| (self.cycles[i], i));
        for i in idx {
            match by_cycle.last_mut() {
                Some((c, v)) if *c == self.cycles[i] => v.push(i),
                _ => by_cycle.push((self.cycles[i], vec![i])),
            }
        }
        by_cycle
    }

    /// Rewrites `block` so its body appears in scheduled order (cycle-major,
    /// original order within a cycle — safe for zero-latency anti edges).
    /// The terminator stays last. Returns the permuted block.
    pub fn linearize(&self, block: &Block) -> Block {
        let mut out = Block::new(block.label());
        for (_, group) in self.groups() {
            for i in group {
                out.push(block.body()[i].clone());
            }
        }
        if let Some(t) = block.terminator() {
            out.push(t.clone());
        }
        out
    }
}

/// Schedule validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The cycle vector does not match the body length.
    WrongLength {
        /// Body length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// A dependence edge's latency constraint is violated.
    DependenceViolated {
        /// Source body index.
        from: usize,
        /// Destination body index (`body.len()` denotes the terminator).
        to: usize,
        /// Edge kind.
        kind: DepKind,
    },
    /// Too many instructions on a unit or in an issue group.
    ResourceOversubscribed {
        /// Offending instruction (`body.len()` denotes the terminator).
        inst: usize,
        /// The oversubscribed cycle.
        cycle: u32,
    },
    /// A body instruction issues after the terminator.
    TerminatorNotLast {
        /// The offending body index.
        inst: usize,
    },
    /// A terminator cycle was supplied for a block with no terminator.
    TerminatorMissing,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::WrongLength { expected, got } => {
                write!(
                    f,
                    "schedule covers {got} instructions, block body has {expected}"
                )
            }
            ScheduleError::DependenceViolated { from, to, kind } => {
                write!(f, "{kind:?} dependence {from} -> {to} violated")
            }
            ScheduleError::ResourceOversubscribed { inst, cycle } => {
                write!(
                    f,
                    "instruction {inst} oversubscribes resources at cycle {cycle}"
                )
            }
            ScheduleError::TerminatorNotLast { inst } => {
                write!(f, "instruction {inst} issues after the terminator")
            }
            ScheduleError::TerminatorMissing => {
                write!(f, "terminator cycle given for a block without a terminator")
            }
        }
    }
}

impl Error for ScheduleError {}

/// Any failure the scheduling layer can report: a cyclic (malformed)
/// dependence graph, or a produced schedule that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The dependence graph is not a DAG; no schedule exists.
    Cycle(parsched_graph::CycleError),
    /// The scheduler produced a cycle assignment that failed validation —
    /// an internal scheduler bug surfaced as a typed error instead of a
    /// panic so one poisoned block cannot take down the process.
    Invalid(ScheduleError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Cycle(e) => write!(f, "dependence graph is cyclic: {e}"),
            SchedError::Invalid(e) => write!(f, "scheduler produced an invalid schedule: {e}"),
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Cycle(e) => Some(e),
            SchedError::Invalid(e) => Some(e),
        }
    }
}

impl From<parsched_graph::CycleError> for SchedError {
    fn from(e: parsched_graph::CycleError) -> Self {
        SchedError::Cycle(e)
    }
}

impl From<ScheduleError> for SchedError {
    fn from(e: ScheduleError) -> Self {
        SchedError::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;
    use parsched_machine::presets;

    fn block(src: &str) -> Block {
        parse_function(src).unwrap().blocks()[0].clone()
    }

    const INDEP: &str = r#"
        func @i() {
        entry:
            s0 = li 1
            s1 = fadd s0, s0
            ret s1
        }
    "#;

    #[test]
    fn accepts_valid_schedule() {
        let b = block(INDEP);
        let g = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let s = BlockSchedule::new(&b, &g, &m, vec![0, 1], Some(2)).unwrap();
        assert_eq!(s.completion_cycles(), 3);
        assert_eq!(s.groups(), vec![(0, vec![0]), (1, vec![1])]);
    }

    #[test]
    fn rejects_dependence_violation() {
        let b = block(INDEP);
        let g = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let err = BlockSchedule::new(&b, &g, &m, vec![0, 0], Some(2)).unwrap_err();
        assert!(matches!(err, ScheduleError::DependenceViolated { .. }));
    }

    #[test]
    fn rejects_unit_contention() {
        let b = block(
            r#"
            func @two_loads(s9) {
            entry:
                s0 = load [s9 + 0]
                s1 = load [s9 + 8]
                s2 = add s0, s1
                ret s2
            }
            "#,
        );
        let g = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        // Two loads same cycle: one fetch unit.
        let err = BlockSchedule::new(&b, &g, &m, vec![0, 0, 1], Some(3)).unwrap_err();
        assert!(matches!(err, ScheduleError::ResourceOversubscribed { .. }));
        // Staggered is fine (loads have latency 1 on the paper machine).
        assert!(BlockSchedule::new(&b, &g, &m, vec![0, 1, 2], Some(3)).is_ok());
    }

    #[test]
    fn rejects_terminator_before_body() {
        let b = block(INDEP);
        let g = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let err = BlockSchedule::new(&b, &g, &m, vec![0, 1], Some(0)).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::TerminatorNotLast { .. } | ScheduleError::DependenceViolated { .. }
        ));
    }

    #[test]
    fn terminator_waits_for_flow() {
        let b = block(
            r#"
            func @t(s0) {
            entry:
                s1 = load [s0 + 0]
                ret s1
            }
            "#,
        );
        let g = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::rs6000(8); // load latency 2
        let err = BlockSchedule::new(&b, &g, &m, vec![0], Some(1)).unwrap_err();
        assert!(matches!(err, ScheduleError::DependenceViolated { .. }));
        assert!(BlockSchedule::new(&b, &g, &m, vec![0], Some(2)).is_ok());
    }

    #[test]
    fn linearize_orders_by_cycle() {
        let b = block(INDEP);
        let g = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let s = BlockSchedule::new(&b, &g, &m, vec![0, 1], Some(2)).unwrap();
        let lin = s.linearize(&b);
        assert_eq!(lin.insts().len(), 3);
        assert!(lin.terminator().is_some());
    }

    #[test]
    fn wrong_length_rejected() {
        let b = block(INDEP);
        let g = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let err = BlockSchedule::new(&b, &g, &m, vec![0], Some(2)).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::WrongLength {
                expected: 2,
                got: 1
            }
        ));
        assert!(err.to_string().contains("2"));
    }
}
