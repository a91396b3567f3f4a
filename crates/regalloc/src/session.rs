//! Reusable allocation sessions.
//!
//! An [`AllocSession`] wraps a [`SchedSession`] (the dependence graph and
//! its incrementally-maintained transitive closure) and derives the PIG's
//! `Ef` edges from the closure rows with the one `Ef` kernel,
//! [`parsched_sched::falsedep::for_each_ef_pair`], restricted to defining
//! instructions. Across a spill loop this replaces a per-round closure
//! build with an incremental closure update, which is what makes the
//! combined strategy competitive in compile time.
//!
//! The session is reusable across functions: [`AllocSession::begin`] fully
//! resets it for a new block while keeping allocations warm, which is what
//! the batch driver's per-worker sessions rely on.

use crate::limits::BudgetExceeded;
use crate::pig::{EfBuffers, Pig};
use crate::problem::BlockAllocProblem;
use parsched_graph::ClosureMode;
use parsched_ir::Block;
use parsched_machine::MachineDesc;
use parsched_sched::{BlockRemap, DeadlineExceeded, DepGraph, SchedSession};
use std::time::Instant;

/// Converts the scheduler's cooperative-deadline trip into the allocator's
/// typed budget error. Deadlines carry no meaningful count, so
/// `limit`/`actual` are 0 by the [`BudgetExceeded`] convention.
fn deadline_budget(e: DeadlineExceeded) -> BudgetExceeded {
    BudgetExceeded {
        phase: e.phase,
        limit: 0,
        actual: 0,
    }
}

/// Long-lived allocation state for one block, reusable across spill rounds
/// (via [`AllocSession::rebuild_after_spill`]) and across functions (via
/// [`AllocSession::begin`]).
///
/// Telemetry: closure maintenance reports `pig.full_rebuilds` /
/// `pig.incremental_nodes` (see [`SchedSession`]); every
/// [`AllocSession::build_pig_into`] call bumps `pig.rounds` and reports the
/// usual `pig.*` construction statistics.
#[derive(Debug)]
pub struct AllocSession {
    sched: SchedSession,
    /// [`AllocSession::build_pig_into`]'s `Ef` tables, pooled so the spill
    /// loop rebuilds them in place instead of reallocating them every
    /// round.
    buf: EfBuffers,
}

impl Default for AllocSession {
    fn default() -> Self {
        AllocSession::new()
    }
}

impl AllocSession {
    /// Creates an empty session.
    pub fn new() -> AllocSession {
        AllocSession {
            sched: SchedSession::new(),
            buf: EfBuffers::default(),
        }
    }

    /// Sets (or clears) the wall-clock deadline polled cooperatively inside
    /// closure maintenance and [`AllocSession::build_pig_into`]'s row walk,
    /// every ~[`parsched_graph::DEADLINE_STRIDE`] units of work.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.sched.set_deadline(deadline);
    }

    /// Kept only because perfbench's `layers.rs` calls it: a no-op.
    pub fn set_closure_mode(&mut self, _mode: ClosureMode) {}

    /// Starts a fresh block: full dependence-graph and closure build. Also
    /// the reset between functions when a session is reused.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] if the session deadline (see
    /// [`AllocSession::set_deadline`]) passes mid-build; the session is left
    /// empty, never half-built.
    pub fn begin(
        &mut self,
        block: &Block,
        telemetry: &dyn parsched_telemetry::Telemetry,
    ) -> Result<(), BudgetExceeded> {
        self.sched.build(block, telemetry).map_err(deadline_budget)
    }

    /// Updates the session after a spill round rewrote the block, reusing
    /// closure rows the inserted loads/stores did not dirty. Falls back to
    /// a full build when the remap does not match the stored state.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] if the session deadline passes mid-rebuild.
    pub fn rebuild_after_spill(
        &mut self,
        block: &Block,
        remap: &BlockRemap,
        telemetry: &dyn parsched_telemetry::Telemetry,
    ) -> Result<(), BudgetExceeded> {
        self.sched
            .rebuild_after_spill(block, remap, telemetry)
            .map_err(deadline_budget)
    }

    /// The current dependence graph, if a block has been built.
    pub fn deps(&self) -> Option<&DepGraph> {
        self.sched.deps()
    }

    /// The underlying scheduling session.
    pub fn sched(&self) -> &SchedSession {
        &self.sched
    }

    /// Builds the PIG for `problem` from the session's closure rows into
    /// `slot`.
    ///
    /// Edge-identical to [`Pig::build`] on the same inputs (the property
    /// suite in `tests/sessions.rs` checks this across seeded spill loops):
    /// both walk `Ef` with the same kernel, over the *defining*
    /// instructions only, and give every vertex an instruction defines its
    /// instruction's edges.
    ///
    /// On success `slot` holds the PIG; a previous round's PIG left in the
    /// slot donates its buffers, making the per-round rebuild allocation-
    /// free once sizes stabilize. `slot` is left `None` if no block has
    /// been built or the stored closure does not cover the dependence
    /// graph.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] (phase `"pig.ef_rows"`) if the session
    /// deadline passes during the `Ef` row walk (polled every
    /// ~[`parsched_graph::DEADLINE_STRIDE`] rows); `slot` is cleared.
    pub fn build_pig_into(
        &mut self,
        problem: &BlockAllocProblem,
        machine: &MachineDesc,
        telemetry: &dyn parsched_telemetry::Telemetry,
        slot: &mut Option<Pig>,
    ) -> Result<(), BudgetExceeded> {
        // Take the previous PIG up front: every early exit then leaves the
        // slot empty, and the success path reuses its buffers.
        let donor = slot.take();
        let Some(deps) = self.sched.deps() else {
            return Ok(());
        };
        let reach = self.sched.reachability();
        if reach.len() != deps.len() {
            return Ok(());
        }
        let _span = parsched_telemetry::span(telemetry, "pig.build");
        let ef_span = parsched_telemetry::span(telemetry, "pig.ef_rows");
        let ef = self
            .buf
            .fill(problem, deps, reach, machine, self.sched.deadline())
            .map_err(|_| BudgetExceeded {
                phase: "pig.ef_rows",
                limit: 0,
                actual: 0,
            })?;
        drop(ef_span);
        let _asm_span = parsched_telemetry::span(telemetry, "pig.assemble");
        let mut pig = donor.unwrap_or_else(Pig::empty);
        pig.assemble(problem.interference(), ef);
        pig.report(telemetry);
        if telemetry.enabled() {
            telemetry.counter("pig.rounds", 1);
        }
        *slot = Some(pig);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_graph::UnGraph;
    use parsched_ir::liveness::Liveness;
    use parsched_ir::{parse_function, BlockId};
    use parsched_machine::presets;
    use parsched_telemetry::NullTelemetry;

    fn edge_set(g: &UnGraph) -> Vec<(usize, usize)> {
        g.edges().collect()
    }

    fn matrix_edge_set(m: &parsched_graph::BitMatrix) -> Vec<(usize, usize)> {
        m.edges().collect()
    }

    fn must<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => unreachable!("test input is fixed and valid: {e:?}"),
        }
    }

    #[test]
    fn session_pig_matches_from_scratch_pig() {
        let f = must(parse_function(
            r#"
            func @f(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = load [s0 + 8]
                s3 = fadd s1, s2
                s4 = add s1, 1
                s5 = mul s4, s3
                ret s5
            }
            "#,
        ));
        for m in [presets::paper_machine(4), presets::single_issue(4)] {
            let lv = Liveness::compute(&f, &[]);
            let problem = must(BlockAllocProblem::build(&f, BlockId(0), &lv));
            let deps = DepGraph::build(&f.blocks()[0], &NullTelemetry);
            let reference = Pig::build(&problem, &deps, &m, &NullTelemetry);

            let mut sess = AllocSession::new();
            assert!(sess.begin(&f.blocks()[0], &NullTelemetry).is_ok());
            let mut slot = None;
            assert!(sess
                .build_pig_into(&problem, &m, &NullTelemetry, &mut slot)
                .is_ok());
            let Some(pig) = slot else {
                unreachable!("session was begun, PIG must build")
            };

            assert_eq!(edge_set(pig.graph()), edge_set(reference.graph()));
            assert_eq!(
                matrix_edge_set(pig.false_only()),
                matrix_edge_set(reference.false_only())
            );
            assert_eq!(
                matrix_edge_set(pig.shared()),
                matrix_edge_set(reference.shared())
            );
        }
    }

    #[test]
    fn build_pig_without_begin_returns_none() {
        let f = must(parse_function(
            "func @g() {\nentry:\n    s0 = li 1\n    ret s0\n}",
        ));
        let lv = Liveness::compute(&f, &[]);
        let problem = must(BlockAllocProblem::build(&f, BlockId(0), &lv));
        let mut sess = AllocSession::new();
        let mut slot = None;
        let built = sess.build_pig_into(
            &problem,
            &presets::paper_machine(4),
            &NullTelemetry,
            &mut slot,
        );
        assert!(built.is_ok() && slot.is_none());
    }

    #[test]
    fn expired_deadline_trips_begin() {
        let f = must(parse_function(
            "func @g() {\nentry:\n    s0 = li 1\n    ret s0\n}",
        ));
        let mut sess = AllocSession::new();
        sess.set_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        // Tiny blocks finish inside one poll stride, so begin may succeed;
        // what matters is that an error, when reported, is the deadline
        // form (limit/actual both zero) and the session stays usable.
        if let Err(e) = sess.begin(&f.blocks()[0], &NullTelemetry) {
            assert_eq!((e.limit, e.actual), (0, 0));
        }
        sess.set_deadline(None);
        assert!(sess.begin(&f.blocks()[0], &NullTelemetry).is_ok());
    }
}
