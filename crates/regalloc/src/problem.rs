//! The block-level allocation problem: vertices and interference graph.

use parsched_graph::UnGraph;
use parsched_ir::liveness::Liveness;
use parsched_ir::{BlockId, Function, Reg};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// "Not a node" in [`BlockAllocProblem`]'s rank table.
const NONE: usize = usize::MAX;

/// The register-allocation problem for one basic block.
///
/// Vertices follow the paper's Claim 1: every allocation vertex is either a
/// *definition* in the block body (so it corresponds to an instruction of
/// the schedule graph, `Vr ⊆ Vs`) or a value *live into* the block (defined
/// upstream — such vertices take part in coloring but carry no
/// false-dependence edges, since their defining instruction is elsewhere).
///
/// Interference follows the paper's definition with the classic last-use
/// refinement: a definition interferes with every value live *immediately
/// after* the defining instruction — "the end point of the live interval …
/// is not considered part of the interval; this enables the reuse of the
/// register in the same statement that last uses it".
#[derive(Debug, Clone)]
pub struct BlockAllocProblem {
    block: BlockId,
    nodes: Vec<Reg>,
    /// Every register the block mentions, sorted; a register's index here
    /// is its rank.
    regs: Vec<Reg>,
    /// The node of each rank, or [`NONE`].
    node_of_rank: Vec<usize>,
    def_site: Vec<Option<usize>>,
    /// The nodes body instruction `i` defines are
    /// `def_start[i]..def_start[i + 1]`.
    def_start: Vec<usize>,
    uses_count: Vec<u32>,
    interference: UnGraph,
}

/// Errors constructing a [`BlockAllocProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// A symbolic register is defined more than once in the block; the
    /// paper's framework assumes one symbolic register per value. Run the
    /// webs/"right number of names" renaming first.
    MultipleDefs {
        /// The offending register.
        reg: Reg,
    },
    /// A register is defined in the block but the block also sees it
    /// live-in (a block-local analysis cannot name both values).
    DefShadowsLiveIn {
        /// The offending register.
        reg: Reg,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::MultipleDefs { reg } => {
                write!(f, "register {reg} defined more than once in the block")
            }
            ProblemError::DefShadowsLiveIn { reg } => {
                write!(f, "register {reg} is both live-in and defined in the block")
            }
        }
    }
}

impl Error for ProblemError {}

impl BlockAllocProblem {
    /// Builds the problem for `block_id` of `func` using `liveness`.
    ///
    /// # Errors
    /// Returns [`ProblemError`] if the block violates the single-definition
    /// discipline for symbolic registers.
    pub fn build(
        func: &Function,
        block_id: BlockId,
        liveness: &Liveness,
    ) -> Result<BlockAllocProblem, ProblemError> {
        let block = func.block(block_id);
        let body = block.body();
        let live_in = liveness.live_in(block_id);
        let live_out = liveness.live_out(block_id);

        // Rank every register the block mentions in `Reg` order: a bit set
        // over ranks then iterates like the `BTreeSet`s liveness hands out,
        // so edges come out as if built from those.
        let mut regs: Vec<Reg> = live_in.iter().chain(live_out).copied().collect();
        for inst in block.insts() {
            inst.defs_into(&mut regs);
            inst.uses_into(&mut regs);
        }
        regs.sort_unstable();
        regs.dedup();
        let rank = |r: &Reg| match regs.binary_search(r) {
            Ok(k) => k,
            Err(_) => unreachable!("every register of the block is ranked"),
        };

        // Enumerate nodes: live-in values first (deterministic BTreeSet
        // order), then body definitions in program order.
        let mut nodes: Vec<Reg> = Vec::new();
        let mut node_of_rank = vec![NONE; regs.len()];
        let mut def_site: Vec<Option<usize>> = Vec::new();
        let mut def_start: Vec<usize> = Vec::with_capacity(body.len() + 1);
        for r in live_in {
            node_of_rank[rank(r)] = nodes.len();
            nodes.push(*r);
            def_site.push(None);
        }
        for (i, inst) in body.iter().enumerate() {
            def_start.push(nodes.len());
            for d in inst.defs() {
                let k = rank(&d);
                let existing = node_of_rank[k];
                if existing != NONE {
                    return Err(if def_site[existing].is_none() {
                        ProblemError::DefShadowsLiveIn { reg: d }
                    } else {
                        ProblemError::MultipleDefs { reg: d }
                    });
                }
                node_of_rank[k] = nodes.len();
                nodes.push(d);
                def_site.push(Some(i));
            }
        }
        def_start.push(nodes.len());

        // Count uses for spill costs (terminator uses count too).
        let mut uses_count = vec![0u32; nodes.len()];
        for inst in block.insts() {
            for u in inst.uses() {
                let n = node_of_rank[rank(&u)];
                if n != NONE {
                    uses_count[n] += 1;
                }
            }
        }

        // The registers live right after each body instruction, one row of
        // rank bits per instruction, from one backward walk.
        let words = regs.len().div_ceil(64);
        let mut live = vec![0u64; words];
        for r in live_out {
            let k = rank(r);
            live[k / 64] |= 1 << (k % 64);
        }
        let mut live_after = vec![0u64; body.len() * words];
        let mut scratch: Vec<Reg> = Vec::new();
        for (i, inst) in block.insts().iter().enumerate().rev() {
            if i < body.len() {
                live_after[i * words..(i + 1) * words].copy_from_slice(&live);
            }
            inst.defs_into(&mut scratch);
            for r in scratch.drain(..) {
                let k = rank(&r);
                live[k / 64] &= !(1 << (k % 64));
            }
            inst.uses_into(&mut scratch);
            for r in scratch.drain(..) {
                let k = rank(&r);
                live[k / 64] |= 1 << (k % 64);
            }
        }

        // Interference: def point of each node vs values live right after.
        let mut interference = UnGraph::new(nodes.len());
        // Live-in values (nodes `0..live_in.len()`) are all simultaneously
        // live at entry.
        for a in 0..live_in.len() {
            for b in a + 1..live_in.len() {
                interference.add_edge(a, b);
            }
        }
        // Definitions interfere with the live-out set of their instruction.
        for (i, inst) in body.iter().enumerate() {
            let row = &live_after[i * words..(i + 1) * words];
            for d in inst.defs() {
                let n = node_of_rank[rank(&d)];
                for (w, &word) in row.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let o = node_of_rank[w * 64 + bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                        if o != NONE && o != n {
                            interference.add_edge(n, o);
                        }
                    }
                }
            }
        }

        Ok(BlockAllocProblem {
            block: block_id,
            nodes,
            regs,
            node_of_rank,
            def_site,
            def_start,
            uses_count,
            interference,
        })
    }

    /// The block this problem describes.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Allocation vertices: the register each node names.
    pub fn nodes(&self) -> &[Reg] {
        &self.nodes
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the problem has no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for register `r`, if `r` is live-in or defined here.
    pub fn node_of(&self, r: Reg) -> Option<usize> {
        let k = self.regs.binary_search(&r).ok()?;
        Some(self.node_of_rank[k]).filter(|&n| n != NONE)
    }

    /// The body-instruction index defining node `n`, or `None` for live-in
    /// values.
    pub fn def_site(&self, n: usize) -> Option<usize> {
        self.def_site[n]
    }

    /// The nodes defined by body instruction `i`, in result order: empty
    /// for an instruction that defines nothing (or `i` past the body),
    /// several for a multi-result call. One instruction's definitions are
    /// numbered consecutively.
    pub fn nodes_defined_at(&self, i: usize) -> Range<usize> {
        self.def_start.get(i..i + 2).map_or(0..0, |w| w[0]..w[1])
    }

    /// Number of uses of node `n` within the block (terminator included).
    pub fn uses_count(&self, n: usize) -> u32 {
        self.uses_count[n]
    }

    /// The paper's spill-cost numerator: a value that is defined and used
    /// often is expensive to keep in memory. Block-level: `1 + uses`.
    pub fn spill_cost(&self, n: usize) -> f64 {
        1.0 + f64::from(self.uses_count[n])
    }

    /// The interference graph `Gr` over the vertices.
    pub fn interference(&self) -> &UnGraph {
        &self.interference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;

    fn problem(src: &str) -> BlockAllocProblem {
        let f = parse_function(src).unwrap();
        let lv = Liveness::compute(&f, &[]);
        BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap()
    }

    #[test]
    fn example1_interference_matches_figure2c() {
        // Example 1(b); Figure 2(c) shows Gr with edges s1-s2, s1-s3, s1-s4.
        let p = problem(
            r#"
            func @ex1(s9) {
            entry:
                s1 = load [@z + 0]
                s2 = fadd s9, 0
                s3 = load [s2 + 0]
                s4 = add s1, s1
                s5 = mul s3, s1
                ret s5
            }
            "#,
        );
        let g = p.interference();
        let n = |r: u32| p.node_of(Reg::sym(r)).unwrap();
        // s1 is live across s2, s3, s4 definitions.
        assert!(g.has_edge(n(1), n(2)));
        assert!(g.has_edge(n(1), n(3)));
        assert!(g.has_edge(n(1), n(4)));
        // s2 dies at s3's def (last use not in interval): no s2-s3 edge.
        assert!(!g.has_edge(n(2), n(3)));
        // s3 dies at s5's def; s4 and s3 overlap (s3 live after s4's def).
        assert!(g.has_edge(n(3), n(4)));
        assert!(!g.has_edge(n(3), n(5)));
        // s5 defined after everything died except nothing: isolated.
        assert_eq!(g.degree(n(5)), 0);
    }

    #[test]
    fn live_in_values_form_clique() {
        let p = problem(
            r#"
            func @li(s0, s1, s2) {
            entry:
                s3 = add s0, s1
                s4 = add s3, s2
                ret s4
            }
            "#,
        );
        let g = p.interference();
        let n = |r: u32| p.node_of(Reg::sym(r)).unwrap();
        assert!(g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(0), n(2)));
        assert!(g.has_edge(n(1), n(2)));
        // s3 defined while s2 still live.
        assert!(g.has_edge(n(3), n(2)));
        assert!(!g.has_edge(n(3), n(0)), "s0 dead after s3's def");
    }

    #[test]
    fn def_sites_and_costs() {
        let p = problem(
            r#"
            func @c(s0) {
            entry:
                s1 = add s0, s0
                s2 = add s1, s1
                ret s2
            }
            "#,
        );
        let s0 = p.node_of(Reg::sym(0)).unwrap();
        let s1 = p.node_of(Reg::sym(1)).unwrap();
        assert_eq!(p.def_site(s0), None);
        assert_eq!(p.def_site(s1), Some(0));
        assert_eq!(p.nodes_defined_at(0), s1..s1 + 1);
        assert!(p.nodes_defined_at(2).is_empty(), "past the body");
        assert_eq!(p.uses_count(s0), 2);
        assert_eq!(p.uses_count(s1), 2);
        assert!(p.spill_cost(s0) > 2.9);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn rejects_double_definition() {
        let f = parse_function(
            r#"
            func @dd() {
            entry:
                s0 = li 1
                s0 = li 2
                ret s0
            }
            "#,
        )
        .unwrap();
        let lv = Liveness::compute(&f, &[]);
        let err = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap_err();
        assert_eq!(err, ProblemError::MultipleDefs { reg: Reg::sym(0) });
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn rejects_def_shadowing_live_in() {
        let f = parse_function(
            r#"
            func @sh(s0) {
            entry:
                s1 = add s0, 1
                s0 = li 2
                s2 = add s0, s1
                ret s2
            }
            "#,
        )
        .unwrap();
        let lv = Liveness::compute(&f, &[]);
        let err = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap_err();
        assert_eq!(err, ProblemError::DefShadowsLiveIn { reg: Reg::sym(0) });
    }
}
