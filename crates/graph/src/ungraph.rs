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
pub struct UnGraph {
    adj: BitMatrix,
    neighbors: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Clone for UnGraph {
    fn clone(&self) -> Self {
        UnGraph {
            adj: self.adj.clone(),
            neighbors: self.neighbors.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Reuses adjacency rows and neighbor lists (allocation-free once the
    /// buffers have grown to size), preserving `source`'s neighbor order.
    fn clone_from(&mut self, source: &Self) {
        self.adj.clone_from(&source.adj);
        self.neighbors.clone_from(&source.neighbors);
        self.edge_count = source.edge_count;
    }
}

impl UnGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        UnGraph {
            adj: BitMatrix::new(n),
            neighbors: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Removes every edge and changes the node count to `n`, reusing the
    /// adjacency and neighbor-list buffers — the cheap way to rebuild a
    /// graph of similar size every round.
    pub fn reset(&mut self, n: usize) {
        self.adj.reset(n);
        for vs in self.neighbors.iter_mut().take(n) {
            vs.clear();
        }
        if self.neighbors.len() > n {
            self.neighbors.truncate(n);
        } else {
            self.neighbors.resize_with(n, Vec::new);
        }
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
            self.neighbors[u].push(v);
            self.neighbors[v].push(u);
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
            self.neighbors[u].retain(|&x| x != v);
            self.neighbors[v].retain(|&x| x != u);
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

    /// Neighbors of `u`.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[u]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors[u].len()
    }

    /// Borrows the adjacency row of `u` as a bit set (one bit per neighbor).
    pub fn row(&self, u: NodeId) -> &BitSet {
        self.adj.row(u)
    }

    /// Iterates over edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.neighbors
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Returns the union of `self` and `other` (same node count required).
    ///
    /// # Panics
    /// Panics if node counts differ.
    pub fn union(&self, other: &UnGraph) -> UnGraph {
        assert_eq!(
            self.node_count(),
            other.node_count(),
            "graph union requires equal node counts"
        );
        let mut g = self.clone();
        for (u, v) in other.edges() {
            g.add_edge(u, v);
        }
        g
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
        let mut e: Vec<_> = g.edges().collect();
        e.sort();
        assert_eq!(e, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn union_and_complement() {
        let mut a = UnGraph::new(3);
        a.add_edge(0, 1);
        let mut b = UnGraph::new(3);
        b.add_edge(1, 2);
        let u = a.union(&b);
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
