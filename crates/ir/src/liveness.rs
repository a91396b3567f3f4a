//! Live-variable analysis (backward may dataflow).
//!
//! Live ranges are the raw material of the interference graph: "there exists
//! an (undirected) edge {u, v} if one definition is live … in a statement
//! where the other is defined". This module computes block-level live-in /
//! live-out sets over all registers, plus per-instruction live-out sets
//! within a block.

use crate::block::BlockId;
use crate::func::Function;
use crate::reg::Reg;
use std::collections::BTreeSet;

/// Result of live-variable analysis over a [`Function`].
///
/// Register sets are `BTreeSet<Reg>` so iteration order — and therefore
/// everything derived from liveness, including interference-graph node
/// numbering — is deterministic.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<BTreeSet<Reg>>,
    live_out: Vec<BTreeSet<Reg>>,
}

impl Liveness {
    /// Runs the analysis to a fixed point.
    ///
    /// # Examples
    ///
    /// ```
    /// use parsched_ir::liveness::Liveness;
    /// use parsched_ir::{parse_function, BlockId, Reg};
    ///
    /// let f = parse_function(
    ///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    ret s1\n}",
    /// )?;
    /// let lv = Liveness::compute(&f, &[]);
    /// assert!(lv.live_in(BlockId(0)).contains(&Reg::sym(0)));
    /// assert!(lv.live_out(BlockId(0)).is_empty());
    /// # Ok::<(), parsched_ir::ParseError>(())
    /// ```
    ///
    /// `live_across_exit` names registers that must be considered live when
    /// the function returns (beyond any `ret` operand) — useful when a block
    /// fragment is analysed in isolation, as the paper does with its
    /// examples ("assume that no value is live on the entrance and exit").
    pub fn compute(func: &Function, live_across_exit: &[Reg]) -> Liveness {
        let n = func.block_count();
        let mut use_sets: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); n];
        let mut def_sets: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); n];
        for (b, block) in func.blocks().iter().enumerate() {
            for inst in block.insts() {
                for u in inst.uses() {
                    if !def_sets[b].contains(&u) {
                        use_sets[b].insert(u);
                    }
                }
                for d in inst.defs() {
                    def_sets[b].insert(d);
                }
            }
        }

        let exit_live: BTreeSet<Reg> = live_across_exit.iter().copied().collect();
        let mut live_in: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); n];
        let mut live_out: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse block order converges quickly for reducible CFGs.
            for b in (0..n).rev() {
                let mut out: BTreeSet<Reg> = BTreeSet::new();
                let succs = func.successors(BlockId(b));
                if succs.is_empty() {
                    out.extend(exit_live.iter().copied());
                }
                for s in succs {
                    out.extend(live_in[s.0].iter().copied());
                }
                let mut inn: BTreeSet<Reg> = use_sets[b].clone();
                for &r in &out {
                    if !def_sets[b].contains(&r) {
                        inn.insert(r);
                    }
                }
                if out != live_out[b] || inn != live_in[b] {
                    live_out[b] = out;
                    live_in[b] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to `block`.
    pub fn live_in(&self, block: BlockId) -> &BTreeSet<Reg> {
        &self.live_in[block.0]
    }

    /// Registers live on exit from `block`.
    pub fn live_out(&self, block: BlockId) -> &BTreeSet<Reg> {
        &self.live_out[block.0]
    }

    /// Per-instruction live-out sets for one block, in program order.
    ///
    /// `live_at[i]` is the set of registers live *immediately after*
    /// instruction `i` of the block. The last entry equals
    /// [`live_out`](Self::live_out).
    pub fn per_inst_live_out(&self, func: &Function, block: BlockId) -> Vec<BTreeSet<Reg>> {
        let insts = func.block(block).insts();
        let mut result = vec![BTreeSet::new(); insts.len()];
        let mut live = self.live_out[block.0].clone();
        for (i, inst) in insts.iter().enumerate().rev() {
            result[i] = live.clone();
            for d in inst.defs() {
                live.remove(&d);
            }
            for u in inst.uses() {
                live.insert(u);
            }
        }
        result
    }

    /// Maximum number of registers `block` occupies at once (the block's
    /// register pressure): the values live into it, and at each
    /// instruction `|live_out(i) ∪ defs(i)|` — a definition takes a
    /// register at its own instruction even when nothing reads it.
    pub fn block_pressure(&self, func: &Function, block: BlockId) -> usize {
        let per = self.per_inst_live_out(func, block);
        let at = |(live, inst): (&BTreeSet<Reg>, &crate::Inst)| {
            let mut defs = inst.defs();
            defs.sort_unstable();
            defs.dedup();
            live.len() + defs.iter().filter(|d| !live.contains(d)).count()
        };
        per.iter()
            .zip(func.block(block).insts())
            .map(at)
            .max()
            .unwrap_or(0)
            .max(self.live_in[block.0].len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_function;

    #[test]
    fn straight_line_liveness() {
        let f = parse_function(
            r#"
            func @f(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s1, 1
                ret s2
            }
            "#,
        )
        .unwrap();
        let lv = Liveness::compute(&f, &[]);
        let b = BlockId(0);
        assert!(lv.live_in(b).contains(&Reg::sym(0)));
        assert!(lv.live_out(b).is_empty());
        let per = lv.per_inst_live_out(&f, b);
        // After inst 0, s1 is live (used by inst 1); s0 is dead.
        assert!(per[0].contains(&Reg::sym(1)));
        assert!(!per[0].contains(&Reg::sym(0)));
        // After inst 1, s2 is live (used by ret).
        assert!(per[1].contains(&Reg::sym(2)));
        assert_eq!(lv.block_pressure(&f, b), 1);
    }

    #[test]
    fn loop_carried_liveness() {
        let f = parse_function(
            r#"
            func @sum(s0) {
            entry:
                s1 = li 0
                s2 = li 0
            head:
                s3 = slt s2, s0
                beq s3, 0, done
            body:
                s4 = add s1, s2
                s1 = mov s4
                s5 = add s2, 1
                s2 = mov s5
                jmp head
            done:
                ret s1
            }
            "#,
        )
        .unwrap();
        let lv = Liveness::compute(&f, &[]);
        let head = f.block_by_label("head").unwrap();
        let body = f.block_by_label("body").unwrap();
        // s0, s1, s2 are live around the loop.
        for r in [Reg::sym(0), Reg::sym(1), Reg::sym(2)] {
            assert!(lv.live_in(head).contains(&r), "{r} live into head");
            assert!(lv.live_in(body).contains(&r), "{r} live into body");
        }
        // s3 is consumed by the branch, dead after head.
        assert!(!lv.live_out(head).contains(&Reg::sym(3)));
    }

    #[test]
    fn live_across_exit_pins_registers() {
        let f = parse_function(
            r#"
            func @g() {
            entry:
                s0 = li 7
                ret
            }
            "#,
        )
        .unwrap();
        let dead = Liveness::compute(&f, &[]);
        assert!(dead.live_out(BlockId(0)).is_empty());
        let pinned = Liveness::compute(&f, &[Reg::sym(0)]);
        assert!(pinned.live_out(BlockId(0)).contains(&Reg::sym(0)));
    }

    #[test]
    fn pressure_counts_overlap() {
        let f = parse_function(
            r#"
            func @p() {
            entry:
                s0 = li 1
                s1 = li 2
                s2 = li 3
                s3 = add s0, s1
                s4 = add s3, s2
                ret s4
            }
            "#,
        )
        .unwrap();
        let lv = Liveness::compute(&f, &[]);
        assert_eq!(lv.block_pressure(&f, BlockId(0)), 3);
    }

    #[test]
    fn pressure_counts_a_dead_definition_at_its_instruction() -> Result<(), crate::ParseError> {
        // Nothing reads s1, so no live-out set holds it, but s1 still
        // needs a register next to s0 while `li 2` executes.
        let f = parse_function(
            r#"
            func @dead() {
            entry:
                s0 = li 1
                s1 = li 2
                s2 = add s0, s0
                ret s2
            }
            "#,
        )?;
        let lv = Liveness::compute(&f, &[]);
        assert!(!lv.per_inst_live_out(&f, BlockId(0))[1].contains(&Reg::sym(1)));
        assert_eq!(lv.block_pressure(&f, BlockId(0)), 2);
        Ok(())
    }
}
