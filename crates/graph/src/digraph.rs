//! Directed graphs over dense node ids.

use crate::bitmatrix::BitMatrix;
use crate::topo::{topological_sort, CycleError};
use crate::NodeId;
use std::fmt;

/// How many closure rows are processed between wall-clock polls in
/// [`DiGraph::reachability_until`]. Chosen so the poll overhead is
/// invisible (one `Instant::now` per ~1k rows) while a deadline trip is
/// detected within a tiny slice of the whole build.
pub const DEADLINE_STRIDE: usize = 1024;

/// A directed graph over nodes `0..n`, stored as adjacency lists plus a
/// bit-matrix for O(1) edge queries.
///
/// This is the representation for schedule graphs `Gs` and dependence DAGs.
/// Parallel edges are collapsed; self-loops are permitted but the transitive
/// closure helpers assume a DAG (they fall back to iterative propagation for
/// cyclic graphs).
#[derive(Clone)]
pub struct DiGraph {
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    adj: BitMatrix,
    edge_count: usize,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            adj: BitMatrix::new(n),
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of (distinct) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds the edge `u -> v`; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.adj.set(u, v) {
            self.succs[u].push(v);
            self.preds[v].push(u);
            self.edge_count += 1;
            true
        } else {
            false
        }
    }

    /// Whether the edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj.get(u, v)
    }

    /// Successors of `u`.
    pub fn succs(&self, u: NodeId) -> &[NodeId] {
        &self.succs[u]
    }

    /// Predecessors of `u`.
    pub fn preds(&self, u: NodeId) -> &[NodeId] {
        &self.preds[u]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.succs[u].len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.preds[u].len()
    }

    /// Iterates over all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// Topological order of the nodes.
    ///
    /// # Errors
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn topological_sort(&self) -> Result<Vec<NodeId>, CycleError> {
        topological_sort(self)
    }

    /// Computes the reachability relation as a bit matrix: entry `(u, v)` is
    /// set iff there is a non-empty directed path from `u` to `v`.
    ///
    /// Runs in O(V·E/64) for DAGs by propagating successor bit-rows in
    /// reverse topological order; for cyclic graphs it iterates to a fixed
    /// point.
    pub fn reachability(&self) -> BitMatrix {
        match self.reachability_until(None) {
            Some(m) => m,
            // Unreachable: without a deadline the computation always runs
            // to completion.
            None => BitMatrix::new(self.node_count()),
        }
    }

    /// [`DiGraph::reachability`] with a cooperative wall-clock deadline.
    ///
    /// The closure build is the most expensive single loop in the
    /// allocation pipeline; on a huge block it can run for longer than a
    /// caller's entire compile budget. This variant polls the clock every
    /// [`DEADLINE_STRIDE`] processed rows and returns `None` as soon as
    /// `deadline` is in the past, bounding deadline overshoot to one
    /// stride of row unions instead of the whole matrix.
    pub fn reachability_until(&self, deadline: Option<std::time::Instant>) -> Option<BitMatrix> {
        let n = self.node_count();
        let mut reach = BitMatrix::new(n);
        for (u, v) in self.edges() {
            reach.set(u, v);
        }
        let mut processed: usize = 0;
        let tripped = |processed: &mut usize| {
            *processed += 1;
            (*processed).is_multiple_of(DEADLINE_STRIDE)
                && deadline.is_some_and(|d| std::time::Instant::now() >= d)
        };
        match self.topological_sort() {
            Ok(order) => {
                for &u in order.iter().rev() {
                    if tripped(&mut processed) {
                        return None;
                    }
                    // clone needed: rows of `reach` for successors are read
                    // while `u`'s row is written.
                    let succ: Vec<NodeId> = self.succs[u].to_vec();
                    for v in succ {
                        if u != v {
                            reach.union_rows(u, v);
                        }
                    }
                }
            }
            Err(_) => {
                let mut changed = true;
                while changed {
                    changed = false;
                    for u in 0..n {
                        if tripped(&mut processed) {
                            return None;
                        }
                        let targets: Vec<NodeId> = reach.row(u).iter().collect();
                        for v in targets {
                            if u != v {
                                changed |= reach.union_rows(u, v);
                            }
                        }
                    }
                }
            }
        }
        Some(reach)
    }

    /// Longest-path length (in edges) ending at each node, for a DAG.
    ///
    /// With unit edge weights this is the depth used for critical-path
    /// priorities; see `parsched-sched` for the latency-weighted variant.
    ///
    /// # Errors
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn longest_path_from_roots(&self) -> Result<Vec<usize>, CycleError> {
        let order = self.topological_sort()?;
        let mut depth = vec![0usize; self.node_count()];
        for &u in &order {
            for &v in self.succs(u) {
                depth[v] = depth[v].max(depth[u] + 1);
            }
        }
        Ok(depth)
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DiGraph(n={}, edges={:?})",
            self.node_count(),
            self.edges().collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    #[test]
    fn add_remove_edges() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.succs(0), &[1]);
        assert_eq!(g.preds(1), &[0]);
        assert!(g.has_edge(0, 1) && !g.has_edge(1, 0));
    }

    #[test]
    fn closure_of_chain_is_total_order() {
        let g = chain(5);
        let c = g.reachability();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(c.get(i, j), i < j, "({i},{j})");
            }
        }
    }

    #[test]
    fn closure_of_diamond() {
        // 0 -> {1,2} -> 3
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let c = g.reachability();
        assert!(c.get(0, 3));
        assert!(!c.get(1, 2) && !c.get(2, 1));
        assert_eq!(c.count(), 5);
    }

    #[test]
    fn closure_of_cycle_is_complete_with_self_loops() {
        let mut g = chain(3);
        g.add_edge(2, 0);
        let c = g.reachability();
        for i in 0..3 {
            for j in 0..3 {
                assert!(c.get(i, j));
            }
        }
    }

    #[test]
    fn longest_path_depths() {
        let mut g = DiGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        g.add_edge(3, 4);
        g.add_edge(2, 4);
        let d = g.longest_path_from_roots().unwrap();
        assert_eq!(d, vec![0, 1, 2, 1, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        assert_eq!(g.node_count(), 0);
        assert!(g.topological_sort().unwrap().is_empty());
        assert_eq!(g.reachability().count(), 0);
    }
}
