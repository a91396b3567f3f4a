//! Brélaz's DSATUR coloring heuristic.

use super::Coloring;
use crate::ungraph::UnGraph;
use std::collections::HashSet;

/// Colors `g` with the DSATUR heuristic: repeatedly pick the uncolored node
/// with the most distinctly-colored neighbors (saturation degree), breaking
/// ties by plain degree then node id, and give it the smallest free color.
///
/// DSATUR is exact on bipartite graphs and a strong general heuristic; the
/// exact solver uses it for its initial upper bound.
pub fn dsatur_coloring(g: &UnGraph) -> Coloring {
    let n = g.node_count();
    const UNCOLORED: u32 = u32::MAX;
    let mut colors = vec![UNCOLORED; n];
    let mut saturation: Vec<HashSet<u32>> = vec![HashSet::new(); n];

    while let Some(v) = (0..n)
        .filter(|&v| colors[v] == UNCOLORED)
        .max_by_key(|&v| (saturation[v].len(), g.degree(v), std::cmp::Reverse(v)))
    {
        let mut c = 0;
        while saturation[v].contains(&c) {
            c += 1;
        }
        colors[v] = c;
        for &u in g.neighbors(v) {
            saturation[u].insert(c);
        }
    }
    match Coloring::new(g, colors) {
        Ok(coloring) => coloring,
        Err(e) => unreachable!("each node got a color none of its neighbors had: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_bipartite() {
        // Complete bipartite K3,3.
        let mut g = UnGraph::new(6);
        for i in 0..3 {
            for j in 3..6 {
                g.add_edge(i, j);
            }
        }
        assert_eq!(dsatur_coloring(&g).num_colors(), 2);
    }

    #[test]
    fn odd_cycle_needs_three() {
        let mut g = UnGraph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        let c = dsatur_coloring(&g);
        assert_eq!(c.num_colors(), 3);
        assert!(g.is_proper_coloring(c.as_slice()));
    }

    #[test]
    fn complete_graph() {
        let mut g = UnGraph::new(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j);
            }
        }
        assert_eq!(dsatur_coloring(&g).num_colors(), 4);
    }

    #[test]
    fn no_edges_one_color() {
        let g = UnGraph::new(7);
        assert_eq!(dsatur_coloring(&g).num_colors(), 1);
    }
}
