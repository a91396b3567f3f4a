//! Reusable allocation sessions.
//!
//! An [`AllocSession`] wraps a [`SchedSession`] (the dependence graph and
//! its incrementally-maintained transitive closure) and derives the PIG
//! from the closure *rows* directly, without ever materializing the dense
//! `Et`/`Ef` graphs that [`crate::Pig::build`] constructs from scratch.
//! Across a spill loop this replaces the per-round `O(n³)` closure plus
//! `O(n²)` complement with an incremental closure update and a row walk
//! restricted to defining instructions — the tentpole of making the
//! combined strategy competitive in compile time.
//!
//! The session is reusable across functions: [`AllocSession::begin`] fully
//! resets it for a new block while keeping allocations warm, which is what
//! the batch driver's per-worker sessions rely on.

use crate::limits::BudgetExceeded;
use crate::pig::Pig;
use crate::problem::BlockAllocProblem;
use parsched_graph::{BitMatrix, BitSet, ClosureMode, DEADLINE_STRIDE};
use parsched_ir::Block;
use parsched_machine::{MachineDesc, OpClass};
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
/// [`AllocSession::build_pig`] call bumps `pig.rounds` and reports the
/// usual `pig.*` construction statistics.
#[derive(Debug)]
pub struct AllocSession {
    sched: SchedSession,
    buf: PigBuffers,
}

/// [`AllocSession::build_pig_into`]'s per-round tables, pooled so the spill
/// loop rebuilds them in place instead of reallocating them every round.
#[derive(Debug, Default)]
struct PigBuffers {
    def_node: Vec<Option<usize>>,
    def_mask: BitSet,
    /// The distinct op classes of the block, in first-seen order.
    classes: Vec<OpClass>,
    /// Index into `classes` of each body position's class.
    class_of: Vec<usize>,
    class_positions: Vec<BitSet>,
    conflict_rows: Vec<BitSet>,
    scratch: BitSet,
    /// The `Ef` accumulator over allocation vertices.
    false_edges: BitMatrix,
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
            buf: PigBuffers::default(),
        }
    }

    /// Sets (or clears) the wall-clock deadline polled cooperatively inside
    /// closure maintenance and [`AllocSession::build_pig`]'s row walk, every
    /// ~[`DEADLINE_STRIDE`] units of work.
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

    /// Builds the PIG for `problem` from the session's closure rows.
    ///
    /// Edge-identical to [`Pig::build`] on the same inputs (the property
    /// suite in `tests/sessions.rs` checks this across seeded spill loops),
    /// but touches only the rows of *defining* instructions: a pair of
    /// definition vertices gets an `Ef` edge exactly when neither
    /// instruction reaches the other in the closure and their op classes
    /// have no pairwise machine conflict.
    ///
    /// Returns `Ok(None)` if no block has been built or the stored closure
    /// does not cover `deps` — callers should fall back to [`Pig::build`].
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] if the session deadline passes during the
    /// `Ef` row walk (polled every ~[`DEADLINE_STRIDE`] rows).
    pub fn build_pig(
        &mut self,
        problem: &BlockAllocProblem,
        machine: &MachineDesc,
        telemetry: &dyn parsched_telemetry::Telemetry,
    ) -> Result<Option<Pig>, BudgetExceeded> {
        let mut slot = None;
        self.build_pig_into(problem, machine, telemetry, &mut slot)?;
        Ok(slot)
    }

    /// [`AllocSession::build_pig`], but rebuilding into `slot` in place.
    ///
    /// On success `slot` holds the PIG; a previous round's PIG left in the
    /// slot donates its buffers, making the per-round rebuild allocation-
    /// free once sizes stabilize. Sets `slot` to `None` (the
    /// fall-back-to-[`Pig::build`] signal) in the same cases `build_pig`
    /// returns `Ok(None)`.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] under the same conditions as
    /// [`AllocSession::build_pig`]; `slot` is cleared.
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
        let n = deps.len();
        if self.sched.reachability().len() != n {
            return Ok(());
        }
        let _span = parsched_telemetry::span(telemetry, "pig.build");
        let reach = self.sched.reachability();
        let buf = &mut self.buf;

        // def_node[i] = allocation vertex defined at body position i.
        buf.def_node.clear();
        buf.def_node.resize(n, None);
        buf.def_mask.reset(n);
        for node in 0..problem.len() {
            if let Some(i) = problem.def_site(node) {
                if i < n {
                    buf.def_node[i] = Some(node);
                    buf.def_mask.insert(i);
                }
            }
        }

        // Positions grouped by op class, and per-class conflict rows:
        // conflict_rows[c] = ⋃ { positions of class d : c conflicts with d }.
        // class_of[i] indexes position i's class in both, hoisting the
        // per-row class lookup out of the walk below.
        buf.classes.clear();
        buf.class_of.clear();
        for &c in deps.classes() {
            let idx = match buf.classes.iter().position(|&d| d == c) {
                Some(idx) => idx,
                None => {
                    buf.classes.push(c);
                    buf.classes.len() - 1
                }
            };
            buf.class_of.push(idx);
        }
        let n_classes = buf.classes.len();
        buf.class_positions.resize_with(n_classes, BitSet::default);
        buf.conflict_rows.resize_with(n_classes, BitSet::default);
        for set in buf.class_positions.iter_mut().chain(&mut buf.conflict_rows) {
            set.reset(n);
        }
        for (i, &idx) in buf.class_of.iter().enumerate() {
            buf.class_positions[idx].insert(i);
        }
        for (c, row) in buf.classes.iter().zip(&mut buf.conflict_rows) {
            for (d, set) in buf.classes.iter().zip(&buf.class_positions) {
                if machine.pairwise_conflict(*c, *d) {
                    row.union_with(set);
                }
            }
        }

        let _ef_span = parsched_telemetry::span(telemetry, "pig.ef_rows");
        let deadline = self.sched.deadline();
        buf.scratch.reset(n);
        buf.false_edges.reset(problem.len());
        for (processed, i) in buf.def_mask.iter().enumerate() {
            if processed % DEADLINE_STRIDE == DEADLINE_STRIDE - 1
                && deadline.is_some_and(|d| Instant::now() >= d)
            {
                return Err(BudgetExceeded {
                    phase: "pig.ef_rows",
                    limit: 0,
                    actual: 0,
                });
            }
            // ef_row(i) = defs \ reach(i) \ reach⁻¹(i) \ conflicts(i) \ {i};
            // the engine answers the first three in one query.
            reach.unordered_into(i, &buf.def_mask, &mut buf.scratch);
            buf.scratch
                .difference_with(&buf.conflict_rows[buf.class_of[i]]);
            for j in buf.scratch.iter() {
                // Each unordered pair once: Ef is symmetric.
                if j <= i {
                    continue;
                }
                if let (Some(u), Some(v)) = (buf.def_node[i], buf.def_node[j]) {
                    buf.false_edges.set(u, v);
                    buf.false_edges.set(v, u);
                }
            }
        }

        drop(_ef_span);
        let _asm_span = parsched_telemetry::span(telemetry, "pig.assemble");
        let mut pig = donor.unwrap_or_else(Pig::empty);
        pig.assemble(problem.interference(), &buf.false_edges);
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
            let Ok(Some(pig)) = sess.build_pig(&problem, &m, &NullTelemetry) else {
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
        assert!(matches!(
            sess.build_pig(&problem, &presets::paper_machine(4), &NullTelemetry),
            Ok(None)
        ));
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
