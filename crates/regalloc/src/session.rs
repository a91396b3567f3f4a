//! Reusable allocation sessions.
//!
//! An [`AllocSession`] owns the long-lived per-block state of Pinter's
//! coloring loop — the dependence graph `Gs`, its reachability relation and
//! the cooperative deadline — across spill rounds and across functions. A
//! fresh block enters via [`AllocSession::begin`] (full closure
//! construction); after a spill round rewrites the block,
//! [`AllocSession::rebuild_after_spill`] reuses every closure row the
//! inserted loads/stores did not dirty, guided by a [`BlockRemap`] from old
//! to new body positions. The closure is maintained exactly: a rebuild
//! always equals a from-scratch construction over the new block, which the
//! property suite in `tests/sessions.rs` checks against hundreds of seeded
//! cases.
//!
//! Each round's PIG takes its `Ef` edges from the closure rows with the one
//! `Ef` kernel, [`parsched_sched::falsedep::for_each_ef_pair`], restricted
//! to defining instructions. Across a spill loop this replaces a per-round
//! closure build with an incremental closure update, which is what makes
//! the combined strategy competitive in compile time.
//!
//! The session is reusable across functions: [`AllocSession::begin`] fully
//! resets it for a new block while keeping allocations warm, which is what
//! the batch driver's per-worker sessions rely on.

use crate::limits::BudgetExceeded;
use crate::pig::{EfBuffers, Pig};
use crate::problem::BlockAllocProblem;
use parsched_graph::{ClosureMode, Reachability, Rebuilt};
use parsched_ir::Block;
use parsched_machine::MachineDesc;
use parsched_sched::{BlockRemap, DepGraph};
use parsched_telemetry::Telemetry;
use std::time::Instant;

/// Long-lived allocation state for one block, reusable across spill rounds
/// (via [`AllocSession::rebuild_after_spill`]) and across functions (via
/// [`AllocSession::begin`]).
///
/// Telemetry: every full closure construction bumps `pig.full_rebuilds`;
/// every incremental rebuild bumps `pig.incremental_nodes` by the number of
/// rows actually recomputed; every [`AllocSession::build_pig_into`] call
/// bumps `pig.rounds` and reports the usual `pig.*` construction
/// statistics.
#[derive(Debug)]
pub struct AllocSession {
    deps: Option<DepGraph>,
    reach: Reachability,
    /// Cooperative wall-clock deadline for closure maintenance and the
    /// `Ef` row walk.
    deadline: Option<Instant>,
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
            deps: None,
            reach: Reachability::new(),
            deadline: None,
            buf: EfBuffers::default(),
        }
    }

    /// Sets (or clears) the wall-clock deadline polled cooperatively inside
    /// closure maintenance and [`AllocSession::build_pig_into`]'s row walk,
    /// every ~[`parsched_graph::DEADLINE_STRIDE`] units of work.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Kept only because perfbench's `layers.rs` calls it: a no-op.
    pub fn set_closure_mode(&mut self, _mode: ClosureMode) {}

    /// Empties the session after a tripped deadline, so no half-written
    /// closure state survives: the next use must `begin` from scratch.
    fn tripped(&mut self, phase: &'static str) -> BudgetExceeded {
        self.deps = None;
        self.reach = Reachability::new();
        BudgetExceeded::deadline(phase)
    }

    /// Starts a fresh block: full dependence-graph and closure build. Also
    /// the reset between functions when a session is reused.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] (phase `"closure.build"`) if the session
    /// deadline (see [`AllocSession::set_deadline`]) passes mid-build; the
    /// session is left empty, never half-built.
    pub fn begin(
        &mut self,
        block: &Block,
        telemetry: &dyn Telemetry,
    ) -> Result<(), BudgetExceeded> {
        let deps = DepGraph::build(block, telemetry);
        let reach = {
            let _s = parsched_telemetry::span(telemetry, "closure.build");
            Reachability::build(deps.graph(), ClosureMode::Auto, self.deadline)
        };
        let Some(reach) = reach else {
            return Err(self.tripped("closure.build"));
        };
        self.reach = reach;
        self.deps = Some(deps);
        if telemetry.enabled() {
            telemetry.counter("pig.full_rebuilds", 1);
        }
        Ok(())
    }

    /// Updates the session after a spill round rewrote the block, reusing
    /// closure rows the inserted loads/stores did not dirty.
    ///
    /// `remap` must map the previous block's body positions to `block`'s.
    /// If the session has no previous state or the remap lengths do not
    /// match the stored state, this falls back to a full
    /// [`AllocSession::begin`]; if the new graph is cyclic (impossible for
    /// graphs built from blocks, possible for hand-made ones) the closure
    /// engine itself rebuilds from scratch.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] (phase `"closure.rebuild"`) if the session
    /// deadline passes mid-rebuild; the session is left empty.
    pub fn rebuild_after_spill(
        &mut self,
        block: &Block,
        remap: &BlockRemap,
        telemetry: &dyn Telemetry,
    ) -> Result<(), BudgetExceeded> {
        let usable = self.reach.len() == remap.old_len() && remap.new_len() == block.body().len();
        let Some(prev_deps) = self.deps.take().filter(|_| usable) else {
            return self.begin(block, telemetry);
        };
        let deps = DepGraph::build(block, telemetry);
        let outcome = {
            let _s = parsched_telemetry::span(telemetry, "closure.build");
            let (old, new) = (prev_deps.graph(), deps.graph());
            self.reach.rebuild(old, new, remap.table(), self.deadline)
        };
        let Some(outcome) = outcome else {
            return Err(self.tripped("closure.rebuild"));
        };
        self.deps = Some(deps);
        if telemetry.enabled() {
            match outcome {
                Rebuilt::Incremental { recomputed } => {
                    telemetry.counter("pig.incremental_nodes", recomputed);
                }
                Rebuilt::Full => telemetry.counter("pig.full_rebuilds", 1),
            }
        }
        Ok(())
    }

    /// The current dependence graph, if a block has been built.
    pub fn deps(&self) -> Option<&DepGraph> {
        self.deps.as_ref()
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
        telemetry: &dyn Telemetry,
        slot: &mut Option<Pig>,
    ) -> Result<(), BudgetExceeded> {
        // Take the previous PIG up front: every early exit then leaves the
        // slot empty, and the success path reuses its buffers.
        let donor = slot.take();
        let Some(deps) = self.deps.as_ref().filter(|d| d.len() == self.reach.len()) else {
            return Ok(());
        };
        let _span = parsched_telemetry::span(telemetry, "pig.build");
        let ef_span = parsched_telemetry::span(telemetry, "pig.ef_rows");
        let ef = self
            .buf
            .fill(problem, deps, &self.reach, machine, self.deadline)
            .ok_or(BudgetExceeded::deadline("pig.ef_rows"))?;
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

    fn block(src: &str) -> Block {
        must(parse_function(src)).blocks()[0].clone()
    }

    /// A straight-line chain of `n` adds: big enough that the closure
    /// loops poll the clock (the stride is 1024 units of work).
    fn chain(n: usize) -> String {
        let mut src = String::from("func @big(s0) {\nentry:\n");
        for i in 0..n {
            src.push_str(&format!("    s{} = add s{}, 1\n", i + 1, i));
        }
        src.push_str(&format!("    ret s{n}\n}}"));
        src
    }

    fn past() -> Option<Instant> {
        Some(Instant::now() - std::time::Duration::from_millis(1))
    }

    #[test]
    fn full_build_matches_reachability() {
        let b = block(
            r#"
            func @f(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = add s1, 1
                s3 = mul s2, s1
                ret s3
            }
            "#,
        );
        let mut sess = AllocSession::new();
        assert!(sess.begin(&b, &NullTelemetry).is_ok());
        let reference = DepGraph::build(&b, &NullTelemetry).graph().reachability();
        assert_eq!(sess.reach.to_dense(), reference);
    }

    #[test]
    fn incremental_rebuild_is_exact_after_insertions() {
        let old = block(
            r#"
            func @f(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = add s1, 1
                s3 = mul s2, s1
                ret s3
            }
            "#,
        );
        // Simulate a spill rewrite: a store after inst 0 and a reload
        // before inst 2 (old positions 0,1,2 → 0,2,4).
        let new = block(
            r#"
            func @f(s0) {
            entry:
                s1 = load [s0 + 0]
                store s1, [@__spill + 0]
                s2 = add s1, 1
                s9 = load [@__spill + 0]
                s3 = mul s2, s9
                ret s3
            }
            "#,
        );
        let mut sess = AllocSession::new();
        assert!(sess.begin(&old, &NullTelemetry).is_ok());
        let remap = BlockRemap::new(vec![0, 2, 4], 5);
        assert!(sess
            .rebuild_after_spill(&new, &remap, &NullTelemetry)
            .is_ok());
        let reference = DepGraph::build(&new, &NullTelemetry).graph().reachability();
        assert_eq!(sess.reach.to_dense(), reference);
    }

    #[test]
    fn mismatched_remap_falls_back_to_full_build() {
        let b = block("func @g() {\nentry:\n    s0 = li 1\n    ret s0\n}");
        let mut sess = AllocSession::new();
        // No prior state: rebuild_after_spill must still produce a correct
        // closure via the full-build fallback.
        let remap = BlockRemap::identity(0);
        assert!(sess.rebuild_after_spill(&b, &remap, &NullTelemetry).is_ok());
        let reference = DepGraph::build(&b, &NullTelemetry).graph().reachability();
        assert_eq!(sess.reach.to_dense(), reference);
    }

    #[test]
    fn expired_deadline_trips_the_build_cooperatively() {
        let b = block(&chain(1500));
        let mut sess = AllocSession::new();
        sess.set_deadline(past());
        let err = sess.begin(&b, &NullTelemetry);
        assert_eq!(err, Err(BudgetExceeded::deadline("closure.build")));
        // The failed build leaves no half-built state behind.
        assert!(sess.deps().is_none());
        // Clearing the deadline makes the same block build fine.
        sess.set_deadline(None);
        assert!(sess.begin(&b, &NullTelemetry).is_ok());
        assert!(sess.deps().is_some());
    }

    #[test]
    fn expired_deadline_trips_the_rebuild_cooperatively() {
        let b = block(&chain(1500));
        let remap = BlockRemap::identity(b.body().len());
        let mut sess = AllocSession::new();
        assert!(sess.begin(&b, &NullTelemetry).is_ok());
        sess.set_deadline(past());
        let err = sess.rebuild_after_spill(&b, &remap, &NullTelemetry);
        assert_eq!(err, Err(BudgetExceeded::deadline("closure.rebuild")));
        assert!(sess.deps().is_none());
        sess.set_deadline(None);
        assert!(sess.rebuild_after_spill(&b, &remap, &NullTelemetry).is_ok());
        assert!(sess.deps().is_some());
    }

    #[test]
    fn expired_deadline_trips_the_ef_walk() {
        // More defining instructions than one poll stride of rows.
        let mut src = String::from("func @wide() {\nentry:\n");
        for i in 0..parsched_graph::DEADLINE_STRIDE + 8 {
            src.push_str(&format!("    s{i} = li {i}\n"));
        }
        src.push_str("    ret s0\n}");
        let f = must(parse_function(&src));
        let lv = Liveness::compute(&f, &[]);
        let problem = must(BlockAllocProblem::build(&f, BlockId(0), &lv));
        let m = presets::paper_machine(4);
        let mut sess = AllocSession::new();
        assert!(sess.begin(&f.blocks()[0], &NullTelemetry).is_ok());
        sess.set_deadline(past());
        let mut slot = Some(Pig::empty());
        let err = sess.build_pig_into(&problem, &m, &NullTelemetry, &mut slot);
        assert_eq!(err, Err(BudgetExceeded::deadline("pig.ef_rows")));
        assert!(slot.is_none());
        sess.set_deadline(None);
        assert!(sess
            .build_pig_into(&problem, &m, &NullTelemetry, &mut slot)
            .is_ok());
        assert!(slot.is_some());
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
