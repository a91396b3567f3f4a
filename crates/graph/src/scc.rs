//! Strongly connected components (iterative Tarjan).

use crate::digraph::DiGraph;
use crate::NodeId;

/// Computes the strongly connected components of `g`.
///
/// Returns the components in *reverse topological* order of the condensation
/// (Tarjan's natural output order): if component `A` has an edge into
/// component `B`, then `B` appears before `A`. Each component lists its
/// member nodes.
///
/// The implementation is an explicit-stack Tarjan so deep dependence chains
/// (thousands of instructions) cannot overflow the call stack.
pub fn strongly_connected_components(g: &DiGraph) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Work items: (node, next-successor-position).
    let mut work: Vec<(NodeId, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        work.push((root, 0));
        while let Some(&mut (v, ref mut si)) = work.last_mut() {
            if *si == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = g.succs(v).get(*si) {
                *si += 1;
                if index[w] == UNVISITED {
                    work.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    // `v` is still on the stack, so this pops down to it.
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_components_for_dag() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 3);
        // Reverse topological: sink first.
        assert_eq!(sccs[0], vec![2]);
        assert_eq!(sccs[2], vec![0]);
    }

    #[test]
    fn finds_cycle_component() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.add_edge(2, 3);
        let sccs = strongly_connected_components(&g);
        assert!(sccs.contains(&vec![1, 2]));
        assert_eq!(sccs.len(), 3);
    }

    #[test]
    fn whole_graph_cycle() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn deep_chain_no_overflow() {
        let n = 100_000;
        let mut g = DiGraph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        assert_eq!(strongly_connected_components(&g).len(), n);
    }
}
