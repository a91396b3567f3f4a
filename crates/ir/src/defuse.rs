//! Definition sites, reaching definitions, and def-use chains.
//!
//! The interference-graph vertices in the paper are *definitions* ("every
//! vertex corresponds to a distinct program interval in which a definition
//! of a variable's value is live"), and the global construction merges
//! definitions that reach a common use ("the right number of names
//! analysis"). This module enumerates definition sites — including function
//! parameters, which are defined at entry — and computes which definitions
//! reach each use.

use crate::block::BlockId;
use crate::func::Function;
use crate::inst::InstId;
use crate::reg::Reg;
use parsched_graph::BitSet;
use std::collections::HashMap;

/// Where a value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefSite {
    /// The `i`-th function parameter (defined at entry).
    Param(usize),
    /// Defined by the instruction at `InstId` (its `nth` defined register,
    /// almost always 0; calls may define several).
    Inst(InstId, usize),
}

/// Dense identifier for a definition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefId(pub usize);

/// A use of a register by an instruction (its `nth` use operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UseSite {
    /// The using instruction.
    pub inst: InstId,
    /// Index into [`crate::Inst::uses`] of that instruction.
    pub nth: usize,
}

/// All definition sites of a function plus reaching-definition results.
#[derive(Debug)]
pub struct DefUse {
    defs: Vec<(DefSite, Reg)>,
    /// `first_def[b][i]`: the id of the first definition of instruction `i`
    /// of block `b`; its `nth` result is that id plus `nth`.
    first_def: Vec<Vec<usize>>,
    def_ids_of_reg: HashMap<Reg, Vec<DefId>>,
    /// For every use site, the set of definitions that reach it.
    reaching: HashMap<UseSite, Vec<DefId>>,
    /// Definitions reaching each block's entry, per block.
    entry_reaching: Vec<Vec<DefId>>,
}

impl DefUse {
    /// Enumerates definitions and computes reaching definitions for `func`.
    pub fn compute(func: &Function) -> DefUse {
        // 1. Enumerate definition sites in a deterministic order.
        let mut defs: Vec<(DefSite, Reg)> = Vec::new();
        let mut def_ids_of_reg: HashMap<Reg, Vec<DefId>> = HashMap::new();
        for (i, &p) in func.params().iter().enumerate() {
            def_ids_of_reg.entry(p).or_default().push(DefId(defs.len()));
            defs.push((DefSite::Param(i), p));
        }
        let mut first_def: Vec<Vec<usize>> = vec![Vec::new(); func.block_count()];
        for (id, inst) in func.insts() {
            first_def[id.block.0].push(defs.len());
            for (nth, d) in inst.defs().into_iter().enumerate() {
                def_ids_of_reg.entry(d).or_default().push(DefId(defs.len()));
                defs.push((DefSite::Inst(id, nth), d));
            }
        }
        let nd = defs.len();

        // 2. Block-level gen/kill.
        let nb = func.block_count();
        let mut gen_sets = vec![BitSet::new(nd); nb];
        let mut kill_sets = vec![BitSet::new(nd); nb];
        for (b, block) in func.blocks().iter().enumerate() {
            for (i, inst) in block.insts().iter().enumerate() {
                for (nth, d) in inst.defs().into_iter().enumerate() {
                    let this = first_def[b][i] + nth;
                    // This def kills every other def of the same register.
                    for &DefId(other) in &def_ids_of_reg[&d] {
                        if other != this {
                            kill_sets[b].insert(other);
                        }
                    }
                    kill_sets[b].remove(this);
                    gen_sets[b].insert(this);
                }
            }
        }

        // 3. Forward dataflow: in[b] = ∪ out[p]; out[b] = gen ∪ (in − kill).
        // Parameters reach the entry.
        let mut in_sets = vec![BitSet::new(nd); nb];
        let mut out_sets = vec![BitSet::new(nd); nb];
        let mut entry_in = BitSet::new(nd);
        for i in 0..func.params().len() {
            entry_in.insert(i);
        }
        let preds = func.predecessors();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                let mut inn = if b == func.entry().0 {
                    entry_in.clone()
                } else {
                    BitSet::new(nd)
                };
                if let Some(ps) = preds.get(&BlockId(b)) {
                    for p in ps {
                        inn.union_with(&out_sets[p.0]);
                    }
                }
                let mut out = inn.clone();
                out.difference_with(&kill_sets[b]);
                out.union_with(&gen_sets[b]);
                if inn != in_sets[b] || out != out_sets[b] {
                    in_sets[b] = inn;
                    out_sets[b] = out;
                    changed = true;
                }
            }
        }

        // 4. Walk each block to attribute reaching defs to each use site.
        let mut reaching: HashMap<UseSite, Vec<DefId>> = HashMap::new();
        for (b, block) in func.blocks().iter().enumerate() {
            // current[r] = defs of r reaching this program point
            let mut current: HashMap<Reg, Vec<DefId>> = HashMap::new();
            for d in in_sets[b].iter() {
                current.entry(defs[d].1).or_default().push(DefId(d));
            }
            for (i, inst) in block.insts().iter().enumerate() {
                let id = InstId::new(BlockId(b), i);
                for (nth, u) in inst.uses().into_iter().enumerate() {
                    let rs = current.get(&u).cloned().unwrap_or_default();
                    reaching.insert(UseSite { inst: id, nth }, rs);
                }
                for (nth, d) in inst.defs().into_iter().enumerate() {
                    current.insert(d, vec![DefId(first_def[b][i] + nth)]);
                }
            }
        }

        let entry_reaching: Vec<Vec<DefId>> = in_sets
            .iter()
            .map(|s| s.iter().map(DefId).collect())
            .collect();

        DefUse {
            defs,
            first_def,
            def_ids_of_reg,
            reaching,
            entry_reaching,
        }
    }

    /// Definitions reaching the entry of `block`.
    pub fn reaching_at_entry(&self, block: BlockId) -> &[DefId] {
        &self.entry_reaching[block.0]
    }

    /// All definition sites, indexed by [`DefId`].
    pub fn defs(&self) -> &[(DefSite, Reg)] {
        &self.defs
    }

    /// The definition of the `nth` register instruction `id` defines.
    pub fn def_at(&self, id: InstId, nth: usize) -> DefId {
        DefId(self.first_def[id.block.0][id.index] + nth)
    }

    /// The definition of the `i`-th function parameter: parameters are
    /// enumerated first.
    pub fn param_def(&self, i: usize) -> DefId {
        DefId(i)
    }

    /// The register defined by `id`.
    pub fn reg_of(&self, id: DefId) -> Reg {
        self.defs[id.0].1
    }

    /// The site of definition `id`.
    pub fn site_of(&self, id: DefId) -> DefSite {
        self.defs[id.0].0
    }

    /// All definitions of register `r`, in enumeration order.
    pub fn defs_of_reg(&self, r: Reg) -> &[DefId] {
        self.def_ids_of_reg.get(&r).map_or(&[], Vec::as_slice)
    }

    /// Definitions reaching a particular use site (empty for uses of
    /// never-defined registers, which the verifier rejects).
    pub fn reaching_defs(&self, site: UseSite) -> &[DefId] {
        self.reaching.get(&site).map_or(&[], Vec::as_slice)
    }

    /// Iterates over all `(use site, reaching defs)` pairs.
    pub fn uses(&self) -> impl Iterator<Item = (&UseSite, &Vec<DefId>)> + '_ {
        self.reaching.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_function;

    #[test]
    fn single_defs_in_straight_line() {
        let f = parse_function(
            r#"
            func @f(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s1, s0
                ret s2
            }
            "#,
        )
        .unwrap();
        let du = DefUse::compute(&f);
        assert_eq!(du.defs().len(), 3); // param s0 + two insts
                                        // Use of s1 in inst 1 reaches exactly the def at inst 0.
        let site = UseSite {
            inst: InstId::new(BlockId(0), 1),
            nth: 0,
        };
        let rd = du.reaching_defs(site);
        assert_eq!(rd.len(), 1);
        assert_eq!(
            du.site_of(rd[0]),
            DefSite::Inst(InstId::new(BlockId(0), 0), 0)
        );
        assert_eq!(du.reg_of(rd[0]), Reg::sym(1));
        // Param reaches its uses.
        let s0_use = UseSite {
            inst: InstId::new(BlockId(0), 0),
            nth: 0,
        };
        assert_eq!(du.site_of(du.reaching_defs(s0_use)[0]), DefSite::Param(0));
    }

    #[test]
    fn merge_point_sees_both_defs() {
        // The paper's Figure 6 situation: defs on both branches reach a
        // single use after the join.
        let f = parse_function(
            r#"
            func @fig6(s0) {
            entry:
                beq s0, 0, other
            then:
                s1 = li 1
                jmp join
            other:
                s1 = li 2
            join:
                s2 = add s1, s1
                ret s2
            }
            "#,
        )
        .unwrap();
        let du = DefUse::compute(&f);
        let join = f.block_by_label("join").unwrap();
        let site = UseSite {
            inst: InstId::new(join, 0),
            nth: 0,
        };
        let rd = du.reaching_defs(site);
        assert_eq!(rd.len(), 2, "both branch defs reach the join use");
        assert_eq!(du.defs_of_reg(Reg::sym(1)).len(), 2);
    }

    #[test]
    fn redefinition_kills_upstream() {
        let f = parse_function(
            r#"
            func @kill() {
            entry:
                s0 = li 1
                s0 = li 2
                s1 = add s0, 0
                ret s1
            }
            "#,
        )
        .unwrap();
        let du = DefUse::compute(&f);
        let site = UseSite {
            inst: InstId::new(BlockId(0), 2),
            nth: 0,
        };
        let rd = du.reaching_defs(site);
        assert_eq!(rd.len(), 1);
        assert_eq!(
            du.site_of(rd[0]),
            DefSite::Inst(InstId::new(BlockId(0), 1), 0),
            "only the second li reaches"
        );
    }

    #[test]
    fn loop_def_reaches_itself() {
        let f = parse_function(
            r#"
            func @l(s0) {
            entry:
                s1 = li 0
            head:
                s1 = add s1, 1
                blt s1, s0, head
            done:
                ret s1
            }
            "#,
        )
        .unwrap();
        let du = DefUse::compute(&f);
        let head = f.block_by_label("head").unwrap();
        let site = UseSite {
            inst: InstId::new(head, 0),
            nth: 0,
        };
        let rd = du.reaching_defs(site);
        assert_eq!(rd.len(), 2, "initial def and loop def both reach");
    }
}
