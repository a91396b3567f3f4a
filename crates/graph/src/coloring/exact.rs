//! Exact minimum coloring by branch and bound.
//!
//! Theorems 1 and 2 of Pinter (PLDI 1993) are stated for *optimal* colorings
//! of the parallelizable interference graph. Basic blocks in the paper's
//! examples have at most nine instructions, so an exact exponential search
//! is entirely feasible for validation; [`ExactLimits`] caps the work so the
//! solver degrades gracefully if handed something large.

use super::clique::max_clique_lower_bound;
use super::dsatur::dsatur_coloring;
use super::Coloring;
use crate::ungraph::UnGraph;
use std::error::Error;
use std::fmt;

/// Resource limits for the exact solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactLimits {
    /// Maximum node count accepted (default 64).
    pub max_nodes: usize,
    /// Maximum number of search-tree nodes expanded (default 5,000,000).
    pub max_steps: u64,
}

impl Default for ExactLimits {
    fn default() -> Self {
        ExactLimits {
            max_nodes: 64,
            max_steps: 5_000_000,
        }
    }
}

/// Error returned when the exact solver gives up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// The graph exceeds `max_nodes`.
    TooLarge {
        /// Node count of the offending graph.
        nodes: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The search exceeded `max_steps` before proving optimality.
    StepBudgetExhausted,
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::TooLarge { nodes, limit } => {
                write!(f, "graph has {nodes} nodes, exact solver limit is {limit}")
            }
            ExactError::StepBudgetExhausted => write!(f, "exact coloring step budget exhausted"),
        }
    }
}

impl Error for ExactError {}

/// Computes a minimum coloring of `g` exactly.
///
/// Runs DSATUR for the upper bound and a greedy clique for the lower bound;
/// if they meet, the heuristic answer is returned directly. Otherwise a
/// branch-and-bound over nodes in DSATUR order searches for successively
/// smaller colorings.
///
/// # Errors
/// Returns [`ExactError`] if `g` exceeds the limits.
pub fn exact_coloring(g: &UnGraph, limits: &ExactLimits) -> Result<Coloring, ExactError> {
    let n = g.node_count();
    if n > limits.max_nodes {
        return Err(ExactError::TooLarge {
            nodes: n,
            limit: limits.max_nodes,
        });
    }
    let mut best = dsatur_coloring(g);
    let clique = max_clique_lower_bound(g);
    let lower = clique.len() as u32;
    if best.num_colors() <= lower {
        return Ok(best);
    }

    // Branch-and-bound: order nodes by degree (descending) with the clique
    // members first so their colors are forced immediately.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| {
        let in_clique = clique.binary_search(&v).is_ok();
        (!in_clique, std::cmp::Reverse(g.degree(v)))
    });

    let mut colors = vec![u32::MAX; n];
    let mut steps = 0u64;
    let mut target = best.num_colors() - 1;
    while target >= lower {
        colors.fill(u32::MAX);
        match try_color(
            g,
            &order,
            0,
            target,
            &mut colors,
            &mut steps,
            limits.max_steps,
        ) {
            Some(true) => {
                best = match Coloring::new(g, colors.clone()) {
                    Ok(coloring) => coloring,
                    Err(e) => unreachable!(
                        "try_color colors every node differently from its neighbors: {e}"
                    ),
                };
                if target == 0 {
                    break;
                }
                target -= 1;
            }
            Some(false) => break, // proven: target colors impossible, best is optimal
            None => return Err(ExactError::StepBudgetExhausted),
        }
    }
    Ok(best)
}

/// Computes just the chromatic number of `g`.
///
/// # Errors
/// Returns [`ExactError`] if `g` exceeds the limits.
pub fn exact_chromatic_number(g: &UnGraph, limits: &ExactLimits) -> Result<u32, ExactError> {
    exact_coloring(g, limits).map(|c| c.num_colors())
}

/// Tries to color nodes `order[idx..]` with colors `0..num_colors`.
/// Returns `Some(true)` on success, `Some(false)` on exhaustive failure,
/// `None` on step-budget exhaustion.
fn try_color(
    g: &UnGraph,
    order: &[usize],
    idx: usize,
    num_colors: u32,
    colors: &mut [u32],
    steps: &mut u64,
    max_steps: u64,
) -> Option<bool> {
    if idx == order.len() {
        return Some(true);
    }
    *steps += 1;
    if *steps > max_steps {
        return None;
    }
    let v = order[idx];
    let mut used = 0u64; // bitmask of neighbor colors (num_colors <= 64)
    for &u in g.neighbors(v) {
        if colors[u] != u32::MAX {
            used |= 1 << colors[u];
        }
    }
    // Symmetry breaking: never introduce color c before all colors < c have
    // appeared earlier in the assignment order.
    let max_so_far = order[..idx]
        .iter()
        .map(|&u| colors[u] + 1)
        .max()
        .unwrap_or(0);
    let try_up_to = num_colors.min(max_so_far + 1);
    for c in 0..try_up_to {
        if used & (1 << c) == 0 {
            colors[v] = c;
            match try_color(g, order, idx + 1, num_colors, colors, steps, max_steps) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            colors[v] = u32::MAX;
        }
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> UnGraph {
        let mut g = UnGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn chromatic_numbers_of_cycles() {
        let lim = ExactLimits::default();
        assert_eq!(exact_chromatic_number(&cycle(4), &lim).unwrap(), 2);
        assert_eq!(exact_chromatic_number(&cycle(5), &lim).unwrap(), 3);
        assert_eq!(exact_chromatic_number(&cycle(7), &lim).unwrap(), 3);
    }

    #[test]
    fn complete_graph_needs_n() {
        let mut g = UnGraph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j);
            }
        }
        assert_eq!(
            exact_chromatic_number(&g, &ExactLimits::default()).unwrap(),
            5
        );
    }

    #[test]
    fn petersen_graph_is_3_chromatic() {
        // The Petersen graph: outer C5 (0..5), inner pentagram (5..10),
        // spokes i -- i+5.
        let mut g = UnGraph::new(10);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
            g.add_edge(5 + i, 5 + (i + 2) % 5);
            g.add_edge(i, i + 5);
        }
        let c = exact_coloring(&g, &ExactLimits::default()).unwrap();
        assert_eq!(c.num_colors(), 3);
        assert!(g.is_proper_coloring(c.as_slice()));
    }

    #[test]
    fn beats_bad_heuristic_cases() {
        // Crown graph S3 (bipartite) — exact must find 2 even though naive
        // greedy orderings give 3.
        let mut g = UnGraph::new(6);
        for i in 0..3 {
            for j in 3..6 {
                if j != i + 3 {
                    g.add_edge(i, j);
                }
            }
        }
        assert_eq!(
            exact_chromatic_number(&g, &ExactLimits::default()).unwrap(),
            2
        );
    }

    #[test]
    fn rejects_oversized() {
        let g = UnGraph::new(65);
        let err = exact_coloring(&g, &ExactLimits::default()).unwrap_err();
        assert!(matches!(err, ExactError::TooLarge { nodes: 65, .. }));
        assert!(err.to_string().contains("65"));
    }

    #[test]
    fn empty_and_edgeless() {
        let lim = ExactLimits::default();
        assert_eq!(exact_chromatic_number(&UnGraph::new(0), &lim).unwrap(), 0);
        assert_eq!(exact_chromatic_number(&UnGraph::new(9), &lim).unwrap(), 1);
    }
}
