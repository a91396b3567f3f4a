//! Graph substrate for `parsched`.
//!
//! This crate provides the graph machinery that Pinter's PLDI 1993 framework
//! is built from: directed graphs for schedule/dependence graphs, undirected
//! graphs for interference and false-dependence graphs, dense bit-matrix
//! adjacency for transitive closure and complement, and a family of
//! graph-coloring algorithms (DSATUR and an exact branch-and-bound used to
//! validate the paper's optimality theorems on small blocks).
//!
//! All graphs are over dense node indices `0..n` ([`NodeId`] is a plain
//! `usize`); callers keep their own side tables mapping ids to instructions
//! or live ranges.
//!
//! # Examples
//!
//! ```
//! use parsched_graph::{DiGraph, UnGraph};
//!
//! // A tiny dependence DAG: 0 -> 1 -> 2 and 0 -> 3.
//! let mut g = DiGraph::new(4);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(0, 3);
//! let reach = g.reachability();
//! assert!(reach.get(0, 2) && !reach.get(1, 3));
//!
//! // The pairs the DAG orders, undirected; their complement holds the
//! // pairs that may run in parallel.
//! let mut ordered = UnGraph::new(4);
//! for u in 0..4 {
//!     for v in reach.row(u).iter() {
//!         ordered.add_edge(u, v);
//!     }
//! }
//! let parallel = ordered.complement();
//! assert_eq!(parallel.edges().collect::<Vec<_>>(), vec![(1, 3), (2, 3)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmatrix;
mod bitset;
pub mod coloring;
mod digraph;
mod dominators;
pub mod dot;
pub mod hash;
mod reachability;
mod topo;
mod ungraph;

pub use bitmatrix::BitMatrix;
pub use bitset::BitSet;
pub use coloring::{Coloring, ColoringError};
pub use digraph::{DiGraph, DEADLINE_STRIDE};
pub use dominators::Dominators;
pub use hash::{FastMap, FastSet};
pub use reachability::{ClosureMode, Reachability, Rebuilt};
pub use topo::{topological_sort, CycleError};
pub use ungraph::UnGraph;

/// Dense node identifier: graphs in this crate are always over `0..n`.
pub type NodeId = usize;
