//! Property-style tests for the graph substrate, driven by a seeded local
//! PRNG so the suite needs no external crates and stays deterministic.

use parsched_graph::coloring::{
    dsatur_coloring, exact_coloring, max_clique_lower_bound, ExactLimits,
};
use parsched_graph::{BitSet, ClosureMode, DiGraph, Reachability, Rebuilt, UnGraph};
use std::collections::VecDeque;

/// SplitMix64 — enough randomness for structural graph tests.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Random undirected graph with 2..max_n nodes and up to 2n edge draws.
fn random_ungraph(rng: &mut Rng, max_n: usize) -> UnGraph {
    let n = 2 + rng.below(max_n - 2);
    let mut g = UnGraph::new(n);
    for _ in 0..rng.below(n * 2 + 1) {
        let a = rng.below(n);
        let b = rng.below(n);
        if a != b {
            g.add_edge(a, b);
        }
    }
    g
}

/// Random DAG: edges only from lower to higher index.
fn random_dag(rng: &mut Rng, max_n: usize) -> DiGraph {
    let n = 2 + rng.below(max_n - 2);
    let mut g = DiGraph::new(n);
    for _ in 0..rng.below(n * 2 + 1) {
        let a = rng.below(n);
        let b = rng.below(n);
        if a != b {
            g.add_edge(a.min(b), a.max(b));
        }
    }
    g
}

const CASES: u64 = 128;

#[test]
fn dsatur_is_always_proper() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 24);
        let c = dsatur_coloring(&g);
        assert!(g.is_proper_coloring(c.as_slice()));
    }
}

#[test]
fn exact_is_at_most_dsatur_and_at_least_clique() {
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 16);
        let limits = ExactLimits {
            max_nodes: 16,
            max_steps: 1_000_000,
        };
        if let Ok(exact) = exact_coloring(&g, &limits) {
            let dsatur = dsatur_coloring(&g);
            let clique = max_clique_lower_bound(&g);
            assert!(g.is_proper_coloring(exact.as_slice()));
            assert!(exact.num_colors() <= dsatur.num_colors());
            assert!(exact.num_colors() as usize >= clique.len());
        }
    }
}

#[test]
fn complement_is_involutive() {
    let mut rng = Rng::new(4);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 20);
        let cc = g.complement().complement();
        assert_eq!(cc.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            assert!(cc.has_edge(u, v));
        }
    }
}

#[test]
fn complement_partitions_pairs() {
    let mut rng = Rng::new(5);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 20);
        let comp = g.complement();
        let n = g.node_count();
        assert_eq!(
            g.edge_count() + comp.edge_count(),
            n * (n - 1) / 2,
            "every pair is in exactly one of g, complement"
        );
    }
}

#[test]
fn closure_is_idempotent() {
    let mut rng = Rng::new(6);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 16);
        let c1 = g.reachability();
        // The closure as a graph of its own closes to itself.
        let n = g.node_count();
        let mut closed = DiGraph::new(n);
        for u in 0..n {
            for v in c1.row(u).iter() {
                closed.add_edge(u, v);
            }
        }
        assert!(c1 == closed.reachability());
    }
}

#[test]
fn closure_is_transitive() {
    let mut rng = Rng::new(7);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 14);
        let c = g.reachability();
        let n = g.node_count();
        for a in 0..n {
            for b in 0..n {
                for d in 0..n {
                    if c.get(a, b) && c.get(b, d) {
                        assert!(c.get(a, d), "({a},{b},{d})");
                    }
                }
            }
        }
    }
}

#[test]
fn topological_sort_respects_edges() {
    let mut rng = Rng::new(8);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 20);
        let order = g.topological_sort().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.node_count()];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u] < pos[v]);
        }
    }
}

#[test]
fn clique_is_actually_a_clique() {
    let mut rng = Rng::new(10);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 24);
        let clique = max_clique_lower_bound(&g);
        for (i, &a) in clique.iter().enumerate() {
            for &b in &clique[i + 1..] {
                assert!(g.has_edge(a, b));
            }
        }
    }
}

/// Membership of the nodes reachable from `i` by a non-empty path, by
/// breadth-first search over `next` — an independent reference for
/// [`Reachability`].
fn bfs(n: usize, next: impl Fn(usize) -> Vec<usize>, i: usize) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut queue: VecDeque<usize> = next(i).into();
    while let Some(u) = queue.pop_front() {
        if !seen[u] {
            seen[u] = true;
            queue.extend(next(u));
        }
    }
    seen
}

fn members(set: &[bool]) -> Vec<usize> {
    (0..set.len()).filter(|&j| set[j]).collect()
}

/// Asserts `reach` answers every query surface of `g`'s reachability as the
/// BFS reference does: `reaches`, sorted `row_iter`/`rrow_iter`,
/// `unordered_into`, and `to_dense`.
fn assert_matches_bfs(reach: &Reachability, g: &DiGraph) {
    let n = g.node_count();
    assert_eq!(reach.len(), n);
    let dense = reach.to_dense();
    let mut universe = BitSet::new(n);
    universe.fill();
    let mut out = BitSet::new(n);
    for i in 0..n {
        let fwd = bfs(n, |u| g.succs(u).to_vec(), i);
        let bwd = bfs(n, |u| g.preds(u).to_vec(), i);
        for (j, &expected) in fwd.iter().enumerate() {
            assert_eq!(reach.reaches(i, j), expected, "reaches({i}, {j})");
            assert_eq!(dense.get(i, j), expected, "to_dense ({i}, {j})");
        }
        let mut row: Vec<usize> = reach.row_iter(i).collect();
        row.sort_unstable();
        assert_eq!(row, members(&fwd), "row_iter({i})");
        let mut rrow: Vec<usize> = reach.rrow_iter(i).collect();
        rrow.sort_unstable();
        assert_eq!(rrow, members(&bwd), "rrow_iter({i})");
        let unordered: Vec<usize> = (0..n).filter(|&j| j != i && !fwd[j] && !bwd[j]).collect();
        reach.unordered_into(i, &universe, &mut out);
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            unordered,
            "unordered_into({i})"
        );
    }
}

fn closure(g: &DiGraph) -> Reachability {
    Reachability::build(g, ClosureMode::Auto, None).unwrap()
}

/// Hand-made cyclic graphs: the closure falls back to the fixpoint.
fn cyclic_graphs() -> Vec<DiGraph> {
    let graph = |n: usize, edges: &[(usize, usize)]| {
        let mut g = DiGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    };
    vec![
        // A 5-ring.
        graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        // A self-loop feeding a chain, plus an isolated node.
        graph(4, &[(0, 0), (0, 1), (1, 2)]),
        // Two 2-cycles joined one way, with a tail into the first.
        graph(6, &[(5, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]),
    ]
}

#[test]
fn closure_matches_bfs_reference() {
    let mut rng = Rng::new(11);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 24);
        assert_matches_bfs(&closure(&g), &g);
    }
    for g in cyclic_graphs() {
        assert_matches_bfs(&closure(&g), &g);
    }
}

#[test]
fn incremental_rebuild_equals_from_scratch() {
    // Simulates a spill round: grow the DAG by splicing new nodes into the
    // index space (the identity-with-gaps remap spill insertion produces),
    // then check the incrementally rebuilt relation matches a fresh build
    // and the BFS reference.
    let mut rng = Rng::new(12);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 20);
        let n = g.node_count();
        let inserted = 1 + rng.below(3);
        let insert_at = rng.below(n + 1);
        let grown_n = n + inserted;
        let old_to_new: Vec<usize> = (0..n)
            .map(|v| if v < insert_at { v } else { v + inserted })
            .collect();
        let mut grown = DiGraph::new(grown_n);
        for u in 0..n {
            for &v in g.succs(u) {
                grown.add_edge(old_to_new[u], old_to_new[v]);
            }
        }
        // Wire the spliced nodes to a random neighbor each, keeping the
        // graph a DAG (edges only from lower to higher index).
        for i in 0..inserted {
            let s = insert_at + i;
            let t = rng.below(grown_n);
            if s != t {
                grown.add_edge(s.min(t), s.max(t));
            }
        }
        let mut reach = closure(&g);
        let rebuilt = reach.rebuild(&g, &grown, &old_to_new, None).unwrap();
        assert!(
            matches!(rebuilt, Rebuilt::Incremental { .. }),
            "usable previous state must take the incremental path"
        );
        assert_eq!(
            reach,
            closure(&grown),
            "incremental rebuild diverges from scratch"
        );
        assert_matches_bfs(&reach, &grown);
    }
}
