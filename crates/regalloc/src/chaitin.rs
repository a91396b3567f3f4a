//! Chaitin-style simplify/spill/select coloring (with Briggs optimism).
//!
//! This is the classic allocator of Chaitin et al. (1981) the paper builds
//! on and measures against: repeatedly *simplify* (remove a node of degree
//! `< k`), otherwise pick the cheapest node by `h(v) = cost(v)/deg(v)` as a
//! spill candidate and remove it optimistically; *select* colors in reverse
//! removal order; candidates that receive no color become actual spills.

use parsched_graph::UnGraph;

/// The result of one coloring attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct ColorOutcome {
    /// Per-node colors; meaningful only for nodes not in `spilled`
    /// (spilled nodes get `u32::MAX`).
    pub colors: Vec<u32>,
    /// Nodes that could not be colored within `k` colors.
    pub spilled: Vec<usize>,
}

impl ColorOutcome {
    /// Number of distinct colors used by colored nodes.
    pub fn colors_used(&self) -> u32 {
        self.colors
            .iter()
            .filter(|&&c| c != u32::MAX)
            .map(|&c| c + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Colors `g` with at most `k` colors, spilling by the `h = cost/degree`
/// metric when simplification blocks.
///
/// `costs[n]` is the spill cost of node `n` (higher = keep in a register).
/// Simplify/spill statistics are reported to `telemetry`:
/// `chaitin.simplified` (nodes removed below degree `k`),
/// `chaitin.spill_candidates` (optimistic candidates), `chaitin.spilled`
/// (candidates that received no color).
///
/// # Panics
/// Panics if `costs.len() != g.node_count()`.
pub fn chaitin_color(
    g: &UnGraph,
    k: u32,
    costs: &[f64],
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> ColorOutcome {
    let _span = parsched_telemetry::span(telemetry, "chaitin.color");
    let n = g.node_count();
    assert_eq!(costs.len(), n, "one cost per node");
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut candidates: Vec<usize> = Vec::new();

    for _ in 0..n {
        let pick = (0..n)
            .filter(|&v| !removed[v] && degree[v] < k as usize)
            .min_by_key(|&v| (degree[v], v));
        let v = match pick {
            Some(v) => v,
            None => {
                // Exactly one node is removed per outer iteration, so an
                // unremoved node always exists here; `else break` is the
                // panic-free statement of that invariant. `total_cmp`
                // orders NaN metrics deterministically instead of panicking.
                let h = |v: usize| costs[v] / degree[v].max(1) as f64;
                let Some(v) = (0..n)
                    .filter(|&v| !removed[v])
                    .min_by(|&a, &b| h(a).total_cmp(&h(b)).then(a.cmp(&b)))
                else {
                    break;
                };
                candidates.push(v);
                v
            }
        };
        removed[v] = true;
        stack.push(v);
        for &u in g.neighbors(v) {
            if !removed[u] {
                degree[u] -= 1;
            }
        }
    }

    // Select in reverse removal order; optimistic candidates may color.
    let mut colors = vec![u32::MAX; n];
    let mut spilled = Vec::new();
    for &v in stack.iter().rev() {
        let mut used = vec![false; k as usize];
        for &u in g.neighbors(v) {
            if colors[u] != u32::MAX {
                used[colors[u] as usize] = true;
            }
        }
        match (0..k).find(|&c| !used[c as usize]) {
            Some(c) => colors[v] = c,
            None => spilled.push(v),
        }
    }
    spilled.sort_unstable();
    if telemetry.enabled() {
        telemetry.counter("chaitin.simplified", (n - candidates.len()) as u64);
        telemetry.counter("chaitin.spill_candidates", candidates.len() as u64);
        telemetry.counter("chaitin.spilled", spilled.len() as u64);
    }
    ColorOutcome { colors, spilled }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: usize) -> UnGraph {
        let mut g = UnGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        g
    }

    #[test]
    fn colors_within_k_without_spills() {
        let mut g = UnGraph::new(5);
        for i in 0..4 {
            g.add_edge(i, i + 1);
        }
        let out = chaitin_color(&g, 2, &[1.0; 5], &parsched_telemetry::NullTelemetry);
        assert!(out.spilled.is_empty());
        assert!(g.is_proper_coloring(&out.colors));
        assert_eq!(out.colors_used(), 2);
    }

    #[test]
    fn spills_cheapest_cost_over_degree() {
        // K4 with 3 colors: one node must spill; costs make node 2 cheapest.
        let g = complete(4);
        let costs = [10.0, 10.0, 1.0, 10.0];
        let out = chaitin_color(&g, 3, &costs, &parsched_telemetry::NullTelemetry);
        assert_eq!(out.spilled, vec![2]);
        // Remaining nodes properly colored.
        for (v, &c) in out.colors.iter().enumerate() {
            if v != 2 {
                assert!(c < 3);
            }
        }
    }

    #[test]
    fn briggs_optimism_avoids_fake_spill() {
        // C4 with k=2: Chaitin's test stalls (all degrees 2) but the
        // optimistic candidate still colors.
        let mut g = UnGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        let out = chaitin_color(&g, 2, &[1.0; 4], &parsched_telemetry::NullTelemetry);
        assert!(out.spilled.is_empty(), "optimism should color C4");
        assert!(g.is_proper_coloring(&out.colors));
    }

    #[test]
    fn zero_k_spills_everything_connected() {
        let g = complete(3);
        let out = chaitin_color(&g, 1, &[1.0; 3], &parsched_telemetry::NullTelemetry);
        assert_eq!(out.spilled.len(), 2, "one node keeps the single color");
    }

    #[test]
    fn empty_graph() {
        let g = UnGraph::new(0);
        let out = chaitin_color(&g, 4, &[], &parsched_telemetry::NullTelemetry);
        assert!(out.spilled.is_empty());
        assert_eq!(out.colors_used(), 0);
    }
}
