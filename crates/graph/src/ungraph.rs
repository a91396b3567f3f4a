//! Undirected graphs over dense node ids.

use crate::bitmatrix::BitMatrix;
use crate::bitset::BitSet;
use crate::NodeId;
use std::fmt;

/// An undirected simple graph over nodes `0..n`.
///
/// This is the representation for interference graphs `Gr`, false-dependence
/// graphs `Gf`, and the parallelizable interference graph `G = Gr ∪ Gf`.
/// Self-loops are rejected; parallel edges collapse.
///
/// The graph is its symmetric adjacency matrix and nothing else: neighbors
/// come out of a row in ascending order, a degree is a row's popcount, and
/// edges are listed in ascending `(u, v)` order, whatever order they were
/// added in.
#[derive(Clone)]
pub struct UnGraph {
    adj: BitMatrix,
    edge_count: usize,
}

impl UnGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        UnGraph {
            adj: BitMatrix::new(n),
            edge_count: 0,
        }
    }

    /// The graph whose adjacency matrix is `adj`, which must be symmetric
    /// with an empty diagonal (as every adjacency relation built with
    /// paired [`BitMatrix::set`] calls is).
    pub fn from_symmetric(adj: BitMatrix) -> Self {
        let edge_count = adj.count() / 2;
        UnGraph { adj, edge_count }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.size()
    }

    /// Removes every edge and changes the node count to `n`, reusing the
    /// adjacency rows — the cheap way to rebuild a graph of similar size
    /// every round.
    pub fn reset(&mut self, n: usize) {
        self.adj.reset(n);
        self.edge_count = 0;
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds the edge `{u, v}`; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `u == v` (self-loop) or either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert_ne!(u, v, "self-loop {u} in undirected graph");
        if self.adj.set(u, v) {
            self.adj.set(v, u);
            self.edge_count += 1;
            true
        } else {
            false
        }
    }

    /// Removes the edge `{u, v}`; returns `true` if it was present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.adj.unset(u, v) {
            self.adj.unset(v, u);
            self.edge_count -= 1;
            true
        } else {
            false
        }
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj.get(u, v)
    }

    /// Neighbors of `u`, ascending.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.row(u).iter()
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj.row(u).count()
    }

    /// Borrows the adjacency row of `u` as a bit set (one bit per neighbor).
    pub fn row(&self, u: NodeId) -> &BitSet {
        self.adj.row(u)
    }

    /// Iterates over edges as `(u, v)` pairs with `u < v`, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.edges()
    }

    /// Returns the complement graph: `{u, v}` present iff absent in `self`.
    pub fn complement(&self) -> UnGraph {
        let n = self.node_count();
        let mut g = UnGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Checks whether `coloring[v]` assigns distinct values across every edge.
    ///
    /// `coloring` must have one entry per node.
    pub fn is_proper_coloring(&self, coloring: &[u32]) -> bool {
        coloring.len() == self.node_count() && self.edges().all(|(u, v)| coloring[u] != coloring[v])
    }
}

impl fmt::Debug for UnGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "UnGraph(n={}, edges={:?})",
            self.node_count(),
            self.edges().collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_symmetry() {
        let mut g = UnGraph::new(4);
        assert!(g.add_edge(0, 2));
        assert!(!g.add_edge(2, 0));
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert_eq!(g.degree(0), 1);
        assert!(g.remove_edge(2, 0));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        UnGraph::new(2).add_edge(1, 1);
    }

    #[test]
    fn edges_are_canonical() {
        let mut g = UnGraph::new(3);
        g.add_edge(2, 0);
        g.add_edge(1, 2);
        g.add_edge(0, 1);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn neighbors_ascend_whatever_the_insertion_order() {
        let mut g = UnGraph::new(5);
        for v in [4, 1, 3] {
            g.add_edge(2, v);
        }
        g.add_edge(0, 2);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![0, 1, 3, 4]);
        assert_eq!(g.degree(2), 4);
        g.remove_edge(3, 2);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![0, 1, 4]);
        assert_eq!(g.neighbors(3).count(), 0);
    }

    #[test]
    fn from_symmetric_counts_each_edge_once() {
        let mut g = UnGraph::new(4);
        g.add_edge(0, 3);
        g.add_edge(1, 2);
        let mut adj = BitMatrix::new(4);
        for (u, v) in [(3, 0), (2, 1)] {
            adj.set(u, v);
            adj.set(v, u);
        }
        let h = UnGraph::from_symmetric(adj);
        assert_eq!(h.edge_count(), 2);
        assert_eq!(h.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn union_and_complement() {
        // The union of {0-1} and {1-2}, one add_edge per edge of each.
        let mut u = UnGraph::new(3);
        for (a, b) in [(0, 1), (1, 2), (1, 0)] {
            u.add_edge(a, b);
        }
        assert_eq!(u.edge_count(), 2);
        let c = u.complement();
        assert_eq!(c.edges().collect::<Vec<_>>(), vec![(0, 2)]);
        // complement of complement is the original
        let cc = c.complement();
        assert!(cc.has_edge(0, 1) && cc.has_edge(1, 2) && !cc.has_edge(0, 2));
    }

    #[test]
    fn proper_coloring_check() {
        let mut g = UnGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.is_proper_coloring(&[0, 1, 0]));
        assert!(!g.is_proper_coloring(&[0, 0, 1]));
        assert!(!g.is_proper_coloring(&[0, 1])); // wrong length
    }
}
