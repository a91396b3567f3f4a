//! Query-oriented reachability over dependence DAGs.
//!
//! Pinter's construction needs the transitive closure of the schedule graph
//! `Gs` three ways: point queries (`does i reach j?`), row enumeration (all
//! `j` reachable from `i`, in either direction), and the *unordered* set
//! (all `j` with no path either way — the candidates for a false-dependence
//! edge). [`Reachability`] answers all three behind one interface, backed by
//! a pair of [`BitMatrix`] closures (forward rows and reverse rows). Row
//! operations run a word at a time; memory is `2·n²` bits.
//!
//! DAGs are closed along a topological order; cyclic graphs (possible for
//! hand-made graphs, never for block dependence DAGs) fall back to the
//! fixpoint of [`DiGraph::reachability_until`]. Across spill rewrites,
//! [`Reachability::rebuild`] maintains both matrices incrementally.
//!
//! Every build supports the cooperative wall-clock deadline protocol of
//! [`DiGraph::reachability_until`]: work is charged per row and the clock is
//! polled every [`DEADLINE_STRIDE`] units, so a deadline trips within a
//! bounded slice of work.

use crate::bitmatrix::BitMatrix;
use crate::bitset::BitSet;
use crate::digraph::{DiGraph, DEADLINE_STRIDE};
use crate::NodeId;
use std::time::Instant;

/// Kept only because perfbench's `layers.rs` passes it to [`Reachability::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClosureMode {
    /// The dense closure, the only backend.
    #[default]
    Auto,
}

/// How [`Reachability::rebuild`] serviced an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rebuilt {
    /// State from the previous graph was reused; `recomputed` closure rows
    /// (forward plus reverse) were re-derived.
    Incremental {
        /// Number of per-node rows recomputed rather than reused.
        recomputed: u64,
    },
    /// Nothing could be reused; the engine rebuilt from scratch.
    Full,
}

/// Charges units of closure work and polls the wall clock every
/// [`DEADLINE_STRIDE`] units, mirroring [`DiGraph::reachability_until`].
struct DeadlinePoll {
    deadline: Option<Instant>,
    pending: usize,
}

impl DeadlinePoll {
    fn new(deadline: Option<Instant>) -> DeadlinePoll {
        DeadlinePoll {
            deadline,
            pending: 0,
        }
    }

    /// Charges `units` of work; returns `true` when the deadline has passed.
    fn charge(&mut self, units: usize) -> bool {
        let Some(d) = self.deadline else {
            return false;
        };
        self.pending += units;
        if self.pending >= DEADLINE_STRIDE {
            self.pending = 0;
            return Instant::now() >= d;
        }
        false
    }
}

/// Reachability relation of a directed graph behind a query interface.
///
/// Built by [`Reachability::build`] and updated across spill rewrites by
/// [`Reachability::rebuild`]. All queries treat reachability as *non-empty*
/// paths: for a DAG `reaches(i, i)` is always `false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reachability {
    /// `fwd[i]` = nodes reachable from `i` by a non-empty path.
    fwd: BitMatrix,
    /// `bwd[i]` = nodes that reach `i` by a non-empty path.
    bwd: BitMatrix,
}

impl Default for Reachability {
    fn default() -> Self {
        Reachability::new()
    }
}

impl Reachability {
    /// An empty relation over zero nodes (the state of a fresh session).
    pub fn new() -> Reachability {
        Reachability {
            fwd: BitMatrix::new(0),
            bwd: BitMatrix::new(0),
        }
    }

    /// Computes the reachability relation of `g`, or `None` when `deadline`
    /// passes mid-build. The ignored `ClosureMode` argument exists only
    /// because perfbench's `layers.rs` passes one.
    pub fn build(
        g: &DiGraph,
        _mode: ClosureMode,
        deadline: Option<Instant>,
    ) -> Option<Reachability> {
        match g.topological_sort() {
            Ok(order) => Self::build_acyclic(g, &order, deadline),
            Err(_) => Self::build_cyclic(g, deadline),
        }
    }

    /// DAGs close along a topological order, one row union per edge.
    fn build_acyclic(
        g: &DiGraph,
        order: &[NodeId],
        deadline: Option<Instant>,
    ) -> Option<Reachability> {
        let mut poll = DeadlinePoll::new(deadline);
        let n = g.node_count();
        let mut fwd = BitMatrix::new(n);
        let mut bwd = BitMatrix::new(n);
        for (u, v) in g.edges() {
            fwd.set(u, v);
            bwd.set(v, u);
        }
        for &u in order.iter().rev() {
            if poll.charge(1) {
                return None;
            }
            for &s in g.succs(u) {
                if s != u {
                    fwd.union_rows(u, s);
                }
            }
        }
        for &u in order {
            if poll.charge(1) {
                return None;
            }
            for &p in g.preds(u) {
                if p != u {
                    bwd.union_rows(u, p);
                }
            }
        }
        Some(Reachability { fwd, bwd })
    }

    /// Cyclic graphs get the fixpoint closure.
    fn build_cyclic(g: &DiGraph, deadline: Option<Instant>) -> Option<Reachability> {
        let fwd = g.reachability_until(deadline)?;
        let bwd = fwd.transposed();
        Some(Reachability { fwd, bwd })
    }

    /// Updates the relation after a spill rewrite mapped the nodes of
    /// `prev_g` into `g` via `old_to_new` (old position → new position).
    ///
    /// Runs symmetrically in both directions — forward rows over successors
    /// in reverse topological order, reverse rows over predecessors in
    /// forward order — and reuses verbatim every row whose neighbor set
    /// survived the remap unchanged. If the stored state does not match
    /// `prev_g`, or `g` is cyclic, the engine rebuilds from scratch and
    /// reports [`Rebuilt::Full`].
    ///
    /// Returns `None` when `deadline` passes mid-rebuild; the relation is
    /// then unspecified and must be discarded.
    pub fn rebuild(
        &mut self,
        prev_g: &DiGraph,
        g: &DiGraph,
        old_to_new: &[usize],
        deadline: Option<Instant>,
    ) -> Option<Rebuilt> {
        let usable = self.len() == prev_g.node_count() && old_to_new.len() == prev_g.node_count();
        let order = match g.topological_sort() {
            Ok(o) if usable => o,
            _ => {
                *self = Self::build(g, ClosureMode::Auto, deadline)?;
                return Some(Rebuilt::Full);
            }
        };
        let n = g.node_count();
        let mut old_of = vec![usize::MAX; n];
        for (old, &newp) in old_to_new.iter().enumerate() {
            old_of[newp] = old;
        }
        let mut poll = DeadlinePoll::new(deadline);
        let mut recomputed = 0;
        for (m, forward) in [(&mut self.fwd, true), (&mut self.bwd, false)] {
            let prev = std::mem::replace(m, BitMatrix::new(n));
            recomputed += rebuild_dir(
                &prev, m, prev_g, g, old_to_new, &old_of, &order, forward, &mut poll,
            )?;
        }
        Some(Rebuilt::Incremental { recomputed })
    }

    /// Number of nodes in the relation.
    pub fn len(&self) -> usize {
        self.fwd.size()
    }

    /// Whether the relation is over zero nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Kept only for perfbench's `layers.rs`: always `"dense"`.
    pub fn backend_label(&self) -> &'static str {
        "dense"
    }

    /// Whether there is a non-empty directed path from `i` to `j`.
    pub fn reaches(&self, i: NodeId, j: NodeId) -> bool {
        self.fwd.get(i, j)
    }

    /// Iterates, in ascending order, over every node reachable from `i`
    /// (excluding `i` on DAGs).
    pub fn row_iter(&self, i: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.fwd.row(i).iter()
    }

    /// Iterates, in ascending order, over every node that reaches `i` (the
    /// reverse row).
    pub fn rrow_iter(&self, i: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.bwd.row(i).iter()
    }

    /// Sets `out` to `universe ∩ {j ≠ i : no path between i and j in either
    /// direction}`, a word at a time — the row query of the `Ef` kernel,
    /// `parsched_sched::falsedep::for_each_ef_pair`.
    ///
    /// # Panics
    /// Panics if `universe` or `out` does not have capacity `len()`.
    pub fn unordered_into(&self, i: NodeId, universe: &BitSet, out: &mut BitSet) {
        out.clone_from(universe);
        out.difference_with(self.fwd.row(i));
        out.difference_with(self.bwd.row(i));
        out.remove(i);
    }

    /// The forward relation as a [`BitMatrix`] — a debugging and testing
    /// aid.
    pub fn to_dense(&self) -> BitMatrix {
        self.fwd.clone()
    }
}

/// One direction of the incremental rebuild. A surviving node's row is
/// reused verbatim (remapped) when its neighbor set is unchanged under the
/// remap and no neighbor's row changed; every other row is recomputed from
/// its (already-processed) neighbors.
#[allow(clippy::too_many_arguments)]
fn rebuild_dir(
    prev: &BitMatrix,
    next: &mut BitMatrix,
    prev_g: &DiGraph,
    g: &DiGraph,
    old_to_new: &[usize],
    old_of: &[usize],
    order: &[NodeId],
    forward: bool,
    poll: &mut DeadlinePoll,
) -> Option<u64> {
    let n = g.node_count();
    fn neigh(graph: &DiGraph, u: usize, forward: bool) -> &[usize] {
        if forward {
            graph.succs(u)
        } else {
            graph.preds(u)
        }
    }
    let mut changed = BitSet::new(n);
    let mut scratch = BitSet::new(n);
    let mut dirty: u64 = 0;
    let process = |u: usize,
                   next: &mut BitMatrix,
                   changed: &mut BitSet,
                   scratch: &mut BitSet,
                   dirty: &mut u64| {
        let old_u = old_of[u];
        let clean = old_u != usize::MAX
            && !neigh(g, u, forward).iter().any(|&s| changed.contains(s))
            && neighbors_equal(
                neigh(prev_g, old_u, forward),
                old_to_new,
                neigh(g, u, forward),
            );
        if clean {
            remap_row_into(prev.row(old_u), old_to_new, scratch);
            next.row_mut(u).clone_from(scratch);
            return;
        }
        *dirty += 1;
        scratch.clear();
        for &s in neigh(g, u, forward) {
            if s != u {
                scratch.insert(s);
                scratch.union_with(next.row(s));
            }
        }
        let row_changed = old_u == usize::MAX || !row_matches(prev.row(old_u), old_to_new, scratch);
        if row_changed {
            changed.insert(u);
        }
        next.row_mut(u).clone_from(scratch);
    };
    if forward {
        for &u in order.iter().rev() {
            if poll.charge(1) {
                return None;
            }
            process(u, next, &mut changed, &mut scratch, &mut dirty);
        }
    } else {
        for &u in order {
            if poll.charge(1) {
                return None;
            }
            process(u, next, &mut changed, &mut scratch, &mut dirty);
        }
    }
    Some(dirty)
}

fn neighbors_equal(old_neigh: &[usize], old_to_new: &[usize], new_neigh: &[usize]) -> bool {
    if old_neigh.len() != new_neigh.len() {
        return false;
    }
    let mut a: Vec<usize> = old_neigh.iter().map(|&s| old_to_new[s]).collect();
    let mut b: Vec<usize> = new_neigh.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

fn remap_row_into(old_row: &BitSet, old_to_new: &[usize], out: &mut BitSet) {
    out.clear();
    for v in old_row.iter() {
        out.insert(old_to_new[v]);
    }
}

fn row_matches(old_row: &BitSet, old_to_new: &[usize], new_row: &BitSet) -> bool {
    if old_row.count() != new_row.count() {
        return false;
    }
    old_row.iter().all(|v| new_row.contains(old_to_new[v]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn diamond() -> DiGraph {
        // 0 -> {1, 2} -> 3
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    fn build(g: &DiGraph) -> Reachability {
        match Reachability::build(g, ClosureMode::Auto, None) {
            Some(r) => r,
            None => unreachable!("no deadline"),
        }
    }

    /// Membership of the nodes reachable from `i` by a non-empty path, by
    /// breadth-first search over `next` — the reference every query is
    /// checked against.
    fn bfs(n: usize, next: impl Fn(NodeId) -> Vec<NodeId>, i: NodeId) -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut queue: VecDeque<NodeId> = next(i).into();
        while let Some(u) = queue.pop_front() {
            if !seen[u] {
                seen[u] = true;
                queue.extend(next(u));
            }
        }
        seen
    }

    fn members(set: &[bool]) -> Vec<NodeId> {
        (0..set.len()).filter(|&j| set[j]).collect()
    }

    /// Checks every query surface of `r` against per-node BFS over `g`.
    fn assert_matches_reference(r: &Reachability, g: &DiGraph) {
        let n = g.node_count();
        assert_eq!(r.len(), n);
        let dense = r.to_dense();
        let mut universe = BitSet::new(n);
        universe.fill();
        let mut out = BitSet::new(n);
        for i in 0..n {
            let fwd = bfs(n, |u| g.succs(u).to_vec(), i);
            let bwd = bfs(n, |u| g.preds(u).to_vec(), i);
            for (j, &expected) in fwd.iter().enumerate() {
                assert_eq!(r.reaches(i, j), expected, "({i},{j})");
                assert_eq!(dense.get(i, j), expected, "to_dense ({i},{j})");
            }
            assert_eq!(r.row_iter(i).collect::<Vec<_>>(), members(&fwd), "row {i}");
            assert_eq!(
                r.rrow_iter(i).collect::<Vec<_>>(),
                members(&bwd),
                "rrow {i}"
            );
            let unordered: Vec<NodeId> = (0..n).filter(|&j| j != i && !fwd[j] && !bwd[j]).collect();
            r.unordered_into(i, &universe, &mut out);
            assert_eq!(
                out.iter().collect::<Vec<_>>(),
                unordered,
                "unordered_into {i}"
            );
        }
    }

    #[test]
    fn diamond_matches_reference() {
        let g = diamond();
        assert_matches_reference(&build(&g), &g);
    }

    #[test]
    fn width_one_chain() {
        // A pure chain: everything is ordered.
        let mut g = DiGraph::new(6);
        for i in 1..6 {
            g.add_edge(i - 1, i);
        }
        let r = build(&g);
        let (mut universe, mut out) = (BitSet::new(6), BitSet::new(6));
        universe.fill();
        for i in 0..6 {
            r.unordered_into(i, &universe, &mut out);
            assert_eq!(out.count(), 0, "node {i} is totally ordered");
        }
        assert_matches_reference(&r, &g);
    }

    #[test]
    fn width_n_antichain() {
        // No edges: every pair is unordered.
        let g = DiGraph::new(5);
        let r = build(&g);
        let (mut universe, mut out) = (BitSet::new(5), BitSet::new(5));
        universe.fill();
        for i in 0..5 {
            assert_eq!(r.row_iter(i).count(), 0);
            assert_eq!(r.rrow_iter(i).count(), 0);
            r.unordered_into(i, &universe, &mut out);
            assert_eq!(out.count(), 4);
        }
        assert_matches_reference(&r, &g);
    }

    #[test]
    fn unordered_into_matches_for_each() {
        let r = build(&diamond());
        let mut universe = BitSet::new(4);
        universe.fill();
        let mut out = BitSet::new(4);
        r.unordered_into(1, &universe, &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![2]);
        // A restricted universe filters the result.
        let mut small = BitSet::new(4);
        small.insert(3);
        r.unordered_into(1, &small, &mut out);
        assert_eq!(out.count(), 0);
    }

    #[test]
    fn cyclic_falls_back_to_dense() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let r = build(&g);
        for i in 0..3 {
            for j in 0..3 {
                assert!(r.reaches(i, j));
            }
        }
        assert_matches_reference(&r, &g);
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        // Simulate a spill rewrite of the diamond: insert nodes at new
        // positions 1 and 4 (old 0,1,2,3 → 0,2,3,5).
        let old = diamond();
        let mut new = DiGraph::new(6);
        new.add_edge(0, 1); // inserted store after 0
        new.add_edge(0, 2);
        new.add_edge(0, 3);
        new.add_edge(2, 5);
        new.add_edge(3, 4); // inserted reload
        new.add_edge(4, 5);
        let mut r = build(&old);
        let outcome = r.rebuild(&old, &new, &[0, 2, 3, 5], None);
        assert!(matches!(outcome, Some(Rebuilt::Incremental { .. })));
        assert_eq!(r, build(&new));
        assert_matches_reference(&r, &new);
    }

    #[test]
    fn rebuild_with_mismatched_state_is_full() {
        let old = diamond();
        let new = diamond();
        let mut r = build(&old);
        // Wrong old_to_new length → full rebuild.
        let outcome = r.rebuild(&old, &new, &[0, 1], None);
        assert_eq!(outcome, Some(Rebuilt::Full));
        assert_matches_reference(&r, &new);
    }

    #[test]
    fn expired_deadline_trips_the_build() {
        let mut g = DiGraph::new(1500);
        for i in 1..1500 {
            g.add_edge(i - 1, i);
        }
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert!(Reachability::build(&g, ClosureMode::Auto, Some(past)).is_none());
        // Without a deadline the same graph closes normally.
        assert_matches_reference(&build(&g), &g);
    }
}
