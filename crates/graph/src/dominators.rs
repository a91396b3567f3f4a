//! Dominator analysis (Cooper–Harvey–Kennedy iterative algorithm).
//!
//! Pinter's inter-block extension schedules two blocks together when they are
//! *plausible*: one dominates the other and the second post-dominates the
//! first. Post-dominators are computed by running the same analysis on the
//! reversed flow graph.

use crate::digraph::DiGraph;
use crate::NodeId;

/// Immediate-dominator table for a rooted flow graph.
///
/// Nodes unreachable from the root have no dominator entry.
#[derive(Debug, Clone)]
pub struct Dominators {
    root: NodeId,
    idom: Vec<Option<NodeId>>,
}

impl Dominators {
    /// Computes dominators of `g` from `root` using the iterative algorithm
    /// of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance Algorithm").
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    pub fn compute(g: &DiGraph, root: NodeId) -> Self {
        let n = g.node_count();
        assert!(root < n, "root {root} out of range {n}");
        // Reverse postorder of reachable nodes.
        let rpo = reverse_postorder(g, root);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &v) in rpo.iter().enumerate() {
            rpo_index[v] = i;
        }
        let mut idom: Vec<Option<NodeId>> = vec![None; n];
        idom[root] = Some(root);
        let mut changed = true;
        while changed {
            changed = false;
            for &v in rpo.iter().skip(1) {
                let mut new_idom: Option<NodeId> = None;
                for &p in g.preds(v) {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[v] != Some(ni) {
                        idom[v] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { root, idom }
    }

    /// The root (entry) node of the analysis.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immediate dominator of `v`, or `None` for the root and for
    /// unreachable nodes.
    pub fn idom(&self, v: NodeId) -> Option<NodeId> {
        if v == self.root {
            None
        } else {
            self.idom[v]
        }
    }

    /// Whether `v` is reachable from the root.
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.idom[v].is_some()
    }

    /// Whether `a` dominates `b` (reflexive: every node dominates itself).
    ///
    /// Returns `false` if either node is unreachable.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(d) if cur != self.root => cur = d,
                _ => return false,
            }
        }
    }
}

fn intersect(idom: &[Option<NodeId>], rpo_index: &[usize], mut a: NodeId, mut b: NodeId) -> NodeId {
    // Both fingers start at processed nodes and only climb to their
    // dominators, which reverse postorder processed earlier, so every idom
    // looked up here is already set.
    let climb = |v: NodeId| match idom[v] {
        Some(d) => d,
        None => unreachable!("finger {v} climbed to an unprocessed node"),
    };
    while a != b {
        while rpo_index[a] > rpo_index[b] {
            a = climb(a);
        }
        while rpo_index[b] > rpo_index[a] {
            b = climb(b);
        }
    }
    a
}

fn reverse_postorder(g: &DiGraph, root: NodeId) -> Vec<NodeId> {
    let n = g.node_count();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with explicit successor cursors.
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    visited[root] = true;
    while let Some(&mut (v, ref mut si)) = stack.last_mut() {
        if let Some(&w) = g.succs(v).get(*si) {
            *si += 1;
            if !visited[w] {
                visited[w] = true;
                stack.push((w, 0));
            }
        } else {
            post.push(v);
            stack.pop();
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
    fn diamond() -> DiGraph {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn diamond_dominators() {
        let dom = Dominators::compute(&diamond(), 0);
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(0));
        assert_eq!(dom.idom(3), Some(0));
        assert!(dom.dominates(0, 3));
        assert!(!dom.dominates(1, 3));
        assert!(dom.dominates(3, 3));
    }

    #[test]
    fn diamond_postdominators_via_reversal() {
        // Reverse the diamond and root at the exit.
        let g = diamond();
        let mut rev = DiGraph::new(4);
        for (u, v) in g.edges() {
            rev.add_edge(v, u);
        }
        let pdom = Dominators::compute(&rev, 3);
        // 3 post-dominates everything; 1 and 2 post-dominate nothing else.
        assert!(pdom.dominates(3, 0));
        assert!(!pdom.dominates(1, 0));
        assert_eq!(pdom.idom(0), Some(3));
    }

    #[test]
    fn chain_dominators() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let dom = Dominators::compute(&g, 0);
        assert_eq!(dom.idom(2), Some(1));
        assert!(dom.dominates(0, 2));
        assert_eq!(dom.root(), 0);
    }

    #[test]
    fn unreachable_nodes() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        let dom = Dominators::compute(&g, 0);
        assert!(!dom.is_reachable(2));
        assert!(!dom.dominates(0, 2));
        assert!(!dom.dominates(2, 0));
        assert_eq!(dom.idom(2), None);
    }

    #[test]
    fn loop_back_edge() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.add_edge(2, 3);
        let dom = Dominators::compute(&g, 0);
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(1));
        assert_eq!(dom.idom(3), Some(2));
    }
}
