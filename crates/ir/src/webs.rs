//! Webs: the paper's "right number of names" analysis.
//!
//! A *web* unifies all definitions that feed a common use (transitively):
//! when several def-use chains reach a single use — e.g. the two arms of an
//! if-then-else defining `x` before a use after the join, the paper's
//! Figure 6 — those definitions must land in one register, so they form a
//! single allocation unit. Webs are the vertices of the *global*
//! interference graph; within a straight-line block with single-def
//! symbolic registers every web is a single definition. How webs fit the
//! rest of the global pipeline is documented in `docs/GLOBAL.md`.

use crate::defuse::{DefId, DefUse};
use crate::reg::Reg;
use std::collections::HashMap;

/// Dense identifier for a web (an allocation unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WebId(pub usize);

/// The partition of definition sites into webs.
#[derive(Debug)]
pub struct Webs {
    web_of_def: Vec<WebId>,
    members: Vec<Vec<DefId>>,
    reg_of_web: Vec<Reg>,
}

impl Webs {
    /// Computes webs for `func` from its def-use information.
    ///
    /// # Examples
    ///
    /// ```
    /// use parsched_ir::defuse::DefUse;
    /// use parsched_ir::webs::Webs;
    /// use parsched_ir::parse_function;
    ///
    /// let f = parse_function(
    ///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    ret s1\n}",
    /// )?;
    /// let du = DefUse::compute(&f);
    /// let webs = Webs::compute(&du);
    /// assert_eq!(webs.len(), 2, "one web per value here");
    /// # Ok::<(), parsched_ir::ParseError>(())
    /// ```
    ///
    /// Two definitions are placed in the same web when some use is reached
    /// by both (closed transitively via union-find). Definitions of
    /// *different* registers are never merged.
    pub fn compute(du: &DefUse) -> Webs {
        let nd = du.defs().len();
        let mut uf = UnionFind::new(nd);
        for (_site, reaching) in du.uses() {
            for pair in reaching.windows(2) {
                // All defs reaching one use must share a register: union
                // consecutive pairs to link the whole set.
                debug_assert_eq!(
                    du.reg_of(pair[0]),
                    du.reg_of(pair[1]),
                    "a use's reaching defs name one register"
                );
                uf.union(pair[0].0, pair[1].0);
            }
        }

        // Assign dense web ids by first-seen root, deterministic over DefId.
        let mut id_of_root: HashMap<usize, WebId> = HashMap::new();
        let mut web_of_def = Vec::with_capacity(nd);
        let mut members: Vec<Vec<DefId>> = Vec::new();
        let mut reg_of_web: Vec<Reg> = Vec::new();
        for d in 0..nd {
            let root = uf.find(d);
            let web = *id_of_root.entry(root).or_insert_with(|| {
                members.push(Vec::new());
                reg_of_web.push(du.reg_of(DefId(d)));
                WebId(members.len() - 1)
            });
            web_of_def.push(web);
            members[web.0].push(DefId(d));
        }
        Webs {
            web_of_def,
            members,
            reg_of_web,
        }
    }

    /// Number of webs.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether there are no webs (empty function).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The web containing definition `d`.
    pub fn web_of(&self, d: DefId) -> WebId {
        self.web_of_def[d.0]
    }

    /// The definitions comprising web `w`.
    pub fn members(&self, w: WebId) -> &[DefId] {
        &self.members[w.0]
    }

    /// The register all members of `w` define.
    pub fn reg_of(&self, w: WebId) -> Reg {
        self.reg_of_web[w.0]
    }

    /// Iterates over `(WebId, members)`.
    pub fn iter(&self) -> impl Iterator<Item = (WebId, &[DefId])> + '_ {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| (WebId(i), m.as_slice()))
    }
}

/// Minimal union-find with path compression and union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_function;

    #[test]
    fn straight_line_webs_are_singletons() {
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
        let du = DefUse::compute(&f);
        let webs = Webs::compute(&du);
        assert_eq!(webs.len(), 3);
        for (w, m) in webs.iter() {
            assert_eq!(m.len(), 1, "web {w:?} should be a singleton");
        }
    }

    #[test]
    fn branch_defs_merge_into_one_web() {
        // Figure 6: two defs of s1 on different arms + a use after the join.
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
        let webs = Webs::compute(&du);
        let s1_defs = du.defs_of_reg(Reg::sym(1));
        assert_eq!(s1_defs.len(), 2);
        assert_eq!(
            webs.web_of(s1_defs[0]),
            webs.web_of(s1_defs[1]),
            "defs reaching a common use share a web"
        );
        let w = webs.web_of(s1_defs[0]);
        assert_eq!(webs.members(w).len(), 2);
        assert_eq!(webs.reg_of(w), Reg::sym(1));
    }

    #[test]
    fn disjoint_reuses_stay_separate() {
        // Two defs of s0 whose uses never meet: distinct webs (the "right
        // number of names" splits the over-shared name).
        let f = parse_function(
            r#"
            func @reuse() {
            entry:
                s0 = li 1
                s1 = add s0, 1
                s0 = li 2
                s2 = add s0, 1
                s3 = add s1, s2
                ret s3
            }
            "#,
        )
        .unwrap();
        let du = DefUse::compute(&f);
        let webs = Webs::compute(&du);
        let s0_defs = du.defs_of_reg(Reg::sym(0));
        assert_eq!(s0_defs.len(), 2);
        assert_ne!(
            webs.web_of(s0_defs[0]),
            webs.web_of(s0_defs[1]),
            "independent reuses of a name get separate webs"
        );
    }

    #[test]
    fn loop_variable_is_one_web() {
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
        let webs = Webs::compute(&du);
        let s1_defs = du.defs_of_reg(Reg::sym(1));
        assert_eq!(webs.web_of(s1_defs[0]), webs.web_of(s1_defs[1]));
    }
}
