//! Reusable scheduling sessions.
//!
//! A [`SchedSession`] owns the long-lived per-block state of Pinter's
//! construction — the dependence graph `Gs` and its reachability relation —
//! across spill rounds and across functions. A fresh block enters via
//! [`SchedSession::build`] (full closure construction); after a spill round
//! rewrites the block, [`SchedSession::rebuild_after_spill`] reuses whatever
//! the inserted loads/stores did not dirty, guided by a [`BlockRemap`] from
//! old to new body positions.
//!
//! The reachability relation itself lives behind
//! [`parsched_graph::Reachability`], which answers point queries, row
//! enumeration, and unordered-pair enumeration. It is maintained exactly, not
//! approximately: the result of a rebuild is always equal to a from-scratch
//! construction over the new block, which the property suite in
//! `tests/sessions.rs` checks against hundreds of seeded cases.

use crate::deps::DepGraph;
use parsched_graph::{ClosureMode, Reachability, Rebuilt};
use parsched_ir::Block;
use std::fmt;
use std::time::Instant;

/// The session's wall-clock deadline passed mid-build.
///
/// Closure maintenance is the longest uninterruptible loop in the
/// pipeline; the reachability builds poll the clock every
/// ~[`parsched_graph::DEADLINE_STRIDE`] units of work so a deadline set via
/// [`SchedSession::set_deadline`] trips within a bounded slice of work
/// instead of after a whole rung. The caller (the allocator's budget
/// machinery) converts this into its typed budget error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// The loop that tripped (`"closure.build"` or `"closure.rebuild"`).
    pub phase: &'static str,
}

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadline passed during {}", self.phase)
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Maps old body positions to new body positions across a spill rewrite.
///
/// Spill rewriting preserves every original instruction (reloads are
/// inserted before uses, stores after definitions), so the map is total
/// and strictly increasing.
#[derive(Debug, Clone)]
pub struct BlockRemap {
    old_to_new: Vec<usize>,
    new_len: usize,
}

impl BlockRemap {
    /// Builds a remap from the explicit old-position → new-position table.
    ///
    /// # Panics
    /// Panics if any mapped position is out of range of `new_len`.
    pub fn new(old_to_new: Vec<usize>, new_len: usize) -> BlockRemap {
        assert!(
            old_to_new.iter().all(|&p| p < new_len),
            "remapped position out of range"
        );
        BlockRemap {
            old_to_new,
            new_len,
        }
    }

    /// The identity remap over `n` positions.
    pub fn identity(n: usize) -> BlockRemap {
        BlockRemap {
            old_to_new: (0..n).collect(),
            new_len: n,
        }
    }

    /// Number of old body positions.
    pub fn old_len(&self) -> usize {
        self.old_to_new.len()
    }

    /// Number of new body positions.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// The new position of old body position `old`.
    pub fn new_pos(&self, old: usize) -> usize {
        self.old_to_new[old]
    }

    /// The old → new table.
    pub fn table(&self) -> &[usize] {
        &self.old_to_new
    }
}

/// Long-lived scheduling state for one block, reusable across spill rounds
/// and (after [`SchedSession::build`] on a new block) across functions.
///
/// Telemetry: every full closure construction bumps `pig.full_rebuilds`;
/// every incremental rebuild bumps `pig.incremental_nodes` by the number of
/// rows actually recomputed.
#[derive(Debug)]
pub struct SchedSession {
    deps: Option<DepGraph>,
    reach: Reachability,
    /// Cooperative wall-clock deadline for closure maintenance.
    deadline: Option<Instant>,
}

impl Default for SchedSession {
    fn default() -> Self {
        SchedSession::new()
    }
}

impl SchedSession {
    /// Creates an empty session.
    pub fn new() -> SchedSession {
        SchedSession {
            deps: None,
            reach: Reachability::new(),
            deadline: None,
        }
    }

    /// Sets (or clears) the wall-clock deadline the closure loops poll
    /// cooperatively. Checked every ~[`parsched_graph::DEADLINE_STRIDE`]
    /// units of work inside [`SchedSession::build`] and
    /// [`SchedSession::rebuild_after_spill`].
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// The currently configured cooperative deadline.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Empties the session so a failed build cannot leave half-written
    /// closure state behind: the next use must `build` from scratch.
    fn reset(&mut self) {
        self.deps = None;
        self.reach = Reachability::new();
    }

    fn report_build(telemetry: &dyn parsched_telemetry::Telemetry) {
        if telemetry.enabled() {
            telemetry.counter("pig.full_rebuilds", 1);
        }
    }

    /// Rebuilds everything from scratch for `block` — the entry point for a
    /// fresh block (and the reset between functions).
    ///
    /// # Errors
    /// Returns [`DeadlineExceeded`] when the session deadline (see
    /// [`SchedSession::set_deadline`]) passes mid-build; the session is
    /// left empty, never half-built.
    pub fn build(
        &mut self,
        block: &Block,
        telemetry: &dyn parsched_telemetry::Telemetry,
    ) -> Result<(), DeadlineExceeded> {
        let deps = DepGraph::build(block, telemetry);
        let reach = {
            let _s = parsched_telemetry::span(telemetry, "closure.build");
            Reachability::build(deps.graph(), ClosureMode::Auto, self.deadline)
        };
        let Some(reach) = reach else {
            self.reset();
            return Err(DeadlineExceeded {
                phase: "closure.build",
            });
        };
        self.reach = reach;
        self.deps = Some(deps);
        Self::report_build(telemetry);
        Ok(())
    }

    /// Rebuilds after a spill round rewrote the block, reusing whatever
    /// reachability state the inserted instructions did not dirty.
    ///
    /// `remap` must map the previous block's body positions to `block`'s.
    /// If the session has no previous state or the remap lengths do not
    /// match the stored state, this falls back to a full
    /// [`SchedSession::build`]; if the new graph is cyclic (impossible for
    /// graphs built from blocks, possible for hand-made ones) the engine
    /// itself rebuilds from scratch.
    ///
    /// # Errors
    /// Returns [`DeadlineExceeded`] when the session deadline passes
    /// mid-rebuild (polled every ~[`parsched_graph::DEADLINE_STRIDE`] units
    /// of work); the session is left empty.
    pub fn rebuild_after_spill(
        &mut self,
        block: &Block,
        remap: &BlockRemap,
        telemetry: &dyn parsched_telemetry::Telemetry,
    ) -> Result<(), DeadlineExceeded> {
        let n = block.body().len();
        let usable =
            self.deps.is_some() && self.reach.len() == remap.old_len() && remap.new_len() == n;
        if !usable {
            return self.build(block, telemetry);
        }
        let prev_deps = match self.deps.take() {
            Some(d) => d,
            None => unreachable!("checked above"),
        };
        let deps = DepGraph::build(block, telemetry);
        let outcome = {
            let _s = parsched_telemetry::span(telemetry, "closure.build");
            self.reach.rebuild(
                prev_deps.graph(),
                deps.graph(),
                remap.table(),
                self.deadline,
            )
        };
        let Some(outcome) = outcome else {
            self.reset();
            return Err(DeadlineExceeded {
                phase: "closure.rebuild",
            });
        };
        drop(prev_deps);
        self.deps = Some(deps);
        match outcome {
            Rebuilt::Incremental { recomputed } => {
                if telemetry.enabled() {
                    telemetry.counter("pig.incremental_nodes", recomputed);
                }
            }
            Rebuilt::Full => Self::report_build(telemetry),
        }
        Ok(())
    }

    /// The current dependence graph, if a block has been built.
    pub fn deps(&self) -> Option<&DepGraph> {
        self.deps.as_ref()
    }

    /// The current reachability relation (empty until a block is built).
    pub fn reachability(&self) -> &Reachability {
        &self.reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;
    use parsched_telemetry::NullTelemetry;

    fn block(src: &str) -> Block {
        match parse_function(src) {
            Ok(f) => f.blocks()[0].clone(),
            Err(e) => unreachable!("test input is fixed and valid: {e:?}"),
        }
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
        let mut sess = SchedSession::new();
        assert!(sess.build(&b, &NullTelemetry).is_ok());
        let reference = DepGraph::build(&b, &NullTelemetry).graph().reachability();
        assert_eq!(sess.reachability().to_dense(), reference);
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
        let mut sess = SchedSession::new();
        assert!(sess.build(&old, &NullTelemetry).is_ok());
        let remap = BlockRemap::new(vec![0, 2, 4], 5);
        assert!(sess
            .rebuild_after_spill(&new, &remap, &NullTelemetry)
            .is_ok());
        let reference = DepGraph::build(&new, &NullTelemetry).graph().reachability();
        assert_eq!(sess.reachability().to_dense(), reference);
    }

    #[test]
    fn mismatched_remap_falls_back_to_full_build() {
        let b = block("func @g() {\nentry:\n    s0 = li 1\n    ret s0\n}");
        let mut sess = SchedSession::new();
        // No prior state: rebuild_after_spill must still produce a correct
        // closure via the full-build fallback.
        let remap = BlockRemap::identity(0);
        assert!(sess.rebuild_after_spill(&b, &remap, &NullTelemetry).is_ok());
        let reference = DepGraph::build(&b, &NullTelemetry).graph().reachability();
        assert_eq!(sess.reachability().to_dense(), reference);
    }

    #[test]
    fn expired_deadline_trips_the_build_cooperatively() {
        // A block big enough that the closure loop polls the clock at
        // least once (the stride is 1024 units of work).
        let mut src = String::from("func @big(s0) {\nentry:\n");
        for i in 0..1500 {
            src.push_str(&format!("    s{} = add s{}, 1\n", i + 1, i));
        }
        src.push_str("    ret s1500\n}");
        let b = block(&src);
        let mut sess = SchedSession::new();
        sess.set_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        let err = sess.build(&b, &NullTelemetry);
        assert_eq!(
            err,
            Err(DeadlineExceeded {
                phase: "closure.build"
            })
        );
        // The failed build leaves no half-built state behind.
        assert!(sess.deps().is_none());
        // Clearing the deadline makes the same block build fine.
        sess.set_deadline(None);
        assert!(sess.build(&b, &NullTelemetry).is_ok());
        assert!(sess.deps().is_some());
    }
}
