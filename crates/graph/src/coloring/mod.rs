//! Graph coloring algorithms.
//!
//! Pinter's framework turns register allocation into coloring of the
//! parallelizable interference graph, and its optimality theorems are stated
//! for *optimal* colorings. This module therefore provides:
//!
//! * [`dsatur_coloring`] — Brélaz's saturation-degree heuristic;
//! * [`exact_coloring`] / [`exact_chromatic_number`] — a branch-and-bound
//!   exact minimum coloring, feasible for the small blocks the paper reasons
//!   about, used to validate Theorems 1 and 2;
//! * [`max_clique_lower_bound`] — a greedy clique for pruning the search.
//!
//! The allocators' own Chaitin-style simplify/select lives in
//! `parsched-regalloc`.

mod clique;
mod dsatur;
mod exact;

pub use clique::max_clique_lower_bound;
pub use dsatur::dsatur_coloring;
pub use exact::{exact_chromatic_number, exact_coloring, ExactError, ExactLimits};

use crate::ungraph::UnGraph;
use std::error::Error;
use std::fmt;

/// A proper coloring of an undirected graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<u32>,
    num_colors: u32,
}

impl Coloring {
    /// Wraps a color assignment, validating it against `g`.
    ///
    /// # Errors
    /// Returns [`ColoringError::Improper`] if two adjacent nodes share a
    /// color, or [`ColoringError::WrongLength`] if `colors.len()` differs
    /// from the node count.
    pub fn new(g: &UnGraph, colors: Vec<u32>) -> Result<Self, ColoringError> {
        if colors.len() != g.node_count() {
            return Err(ColoringError::WrongLength {
                expected: g.node_count(),
                got: colors.len(),
            });
        }
        if let Some((u, v)) = g.edges().find(|&(u, v)| colors[u] == colors[v]) {
            return Err(ColoringError::Improper { u, v });
        }
        let num_colors = colors.iter().copied().max().map_or(0, |m| m + 1);
        Ok(Coloring { colors, num_colors })
    }

    /// Color of node `v`.
    pub fn color(&self, v: usize) -> u32 {
        self.colors[v]
    }

    /// Number of colors used (max color + 1).
    pub fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// The underlying assignment, indexed by node.
    pub fn as_slice(&self) -> &[u32] {
        &self.colors
    }

    /// Consumes the coloring and returns the assignment vector.
    pub fn into_vec(self) -> Vec<u32> {
        self.colors
    }
}

/// Errors produced when constructing or validating a [`Coloring`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColoringError {
    /// Two adjacent nodes received the same color.
    Improper {
        /// One endpoint of the violated edge.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// The assignment has the wrong number of entries.
    WrongLength {
        /// Node count of the graph.
        expected: usize,
        /// Length of the provided vector.
        got: usize,
    },
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringError::Improper { u, v } => {
                write!(f, "adjacent nodes {u} and {v} share a color")
            }
            ColoringError::WrongLength { expected, got } => {
                write!(f, "expected {expected} colors, got {got}")
            }
        }
    }
}

impl Error for ColoringError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> UnGraph {
        let mut g = UnGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g
    }

    #[test]
    fn coloring_validation() {
        let g = triangle();
        let c = Coloring::new(&g, vec![0, 1, 2]).unwrap();
        assert_eq!(c.num_colors(), 3);
        assert_eq!(c.color(1), 1);
        assert_eq!(
            Coloring::new(&g, vec![0, 0, 1]),
            Err(ColoringError::Improper { u: 0, v: 1 })
        );
        assert!(matches!(
            Coloring::new(&g, vec![0]),
            Err(ColoringError::WrongLength {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn error_display() {
        let e = ColoringError::Improper { u: 1, v: 2 };
        assert_eq!(e.to_string(), "adjacent nodes 1 and 2 share a color");
    }

    #[test]
    fn all_algorithms_agree_on_triangle() {
        let g = triangle();
        assert_eq!(dsatur_coloring(&g).num_colors(), 3);
        assert_eq!(
            exact_coloring(&g, &ExactLimits::default())
                .unwrap()
                .num_colors(),
            3
        );
    }
}
