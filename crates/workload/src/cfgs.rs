//! Seeded random structured control-flow graphs.
//!
//! Produces multi-block functions built from nested-free structured
//! segments — straight blocks, if-then-else diamonds (each arm defining a
//! common register, the Figure 6 shape), and counted loops — to exercise
//! the global (web-based) allocator and inter-block analyses. All loops
//! have small constant trip counts so the reference interpreter always
//! terminates.

use crate::rng::SplitMix64;
use parsched_ir::{BinOp, Block, BlockId, Cond, Function, Inst, InstKind, Operand, Reg};

/// Parameters for the structured-CFG generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfgParams {
    /// Number of structured segments (straight / diamond / loop).
    pub segments: usize,
    /// Operations per straight segment or arm.
    pub ops_per_block: usize,
}

impl Default for CfgParams {
    fn default() -> Self {
        CfgParams {
            segments: 4,
            ops_per_block: 4,
        }
    }
}

/// Builder state: blocks under construction plus the value pool.
struct Gen {
    rng: SplitMix64,
    blocks: Vec<Block>,
    current: usize,
    next_sym: u32,
    /// Values defined on every path so far.
    pool: Vec<Reg>,
}

impl Gen {
    fn fresh(&mut self) -> Reg {
        let r = Reg::sym(self.next_sym);
        self.next_sym += 1;
        r
    }

    fn push(&mut self, inst: impl Into<Inst>) {
        self.blocks[self.current].push(inst);
    }

    fn new_block(&mut self, label: String) -> usize {
        self.blocks.push(Block::new(label));
        self.blocks.len() - 1
    }

    fn pick(&mut self) -> Reg {
        let i = self.rng.gen_range_usize(0, self.pool.len());
        self.pool[i]
    }

    fn random_op(&mut self) -> Reg {
        const OPS: &[BinOp] = &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Xor,
            BinOp::And,
            BinOp::Fadd,
            BinOp::Fmul,
        ];
        let op = *self.rng.pick(OPS);
        let lhs = self.pick();
        let rhs: Operand = if self.rng.gen_bool(0.3) {
            Operand::Imm(self.rng.gen_range_i64(-4, 10))
        } else {
            Operand::Reg(self.pick())
        };
        let dst = self.fresh();
        self.push(InstKind::Binary {
            op,
            dst,
            lhs: lhs.into(),
            rhs,
        });
        dst
    }
}

/// Generates a structured multi-block function from `seed`.
pub fn random_cfg_function(seed: u64, params: &CfgParams) -> Function {
    let mut g = Gen {
        rng: SplitMix64::seed_from_u64(seed),
        blocks: vec![Block::new("entry")],
        current: 0,
        next_sym: 0,
        pool: Vec::new(),
    };
    let p0 = g.fresh();
    let p1 = g.fresh();
    g.pool = vec![p0, p1];
    let params_regs = vec![p0, p1];

    for seg in 0..params.segments {
        match g.rng.gen_range_usize(0, 3) {
            // Straight-line segment in its own block (a mergeable chain
            // link, exercising region/chain analyses).
            0 => {
                let nb = g.new_block(format!("straight{seg}"));
                g.push(InstKind::Jump {
                    target: BlockId(nb),
                });
                g.current = nb;
                for _ in 0..params.ops_per_block {
                    let v = g.random_op();
                    g.pool.push(v);
                }
            }
            // Diamond: both arms define `t` (one web), then join.
            1 => {
                let cond = g.pick();
                let t = g.fresh();
                let then_b = g.new_block(format!("then{seg}"));
                let else_b = g.new_block(format!("else{seg}"));
                let join_b = g.new_block(format!("join{seg}"));
                g.push(InstKind::Branch {
                    cond: Cond::Lt,
                    lhs: cond,
                    rhs: Operand::Imm(0),
                    target: BlockId(else_b),
                });
                g.current = then_b;
                for _ in 0..params.ops_per_block / 2 {
                    let v = g.random_op();
                    // Arm-local values must not enter the pool (not defined
                    // on the other path); fold into t instead.
                    let _ = v;
                }
                let a = g.pick();
                g.push(InstKind::Binary {
                    op: BinOp::Add,
                    dst: t,
                    lhs: a.into(),
                    rhs: Operand::Imm(1),
                });
                g.push(InstKind::Jump {
                    target: BlockId(join_b),
                });
                g.current = else_b;
                let b = g.pick();
                g.push(InstKind::Binary {
                    op: BinOp::Mul,
                    dst: t,
                    lhs: b.into(),
                    rhs: Operand::Imm(3),
                });
                g.current = join_b;
                g.pool.push(t);
            }
            // Counted loop with a loop-carried accumulator.
            _ => {
                let acc0 = g.pick();
                let acc = g.fresh();
                let i = g.fresh();
                g.push(InstKind::Copy {
                    dst: acc,
                    src: acc0,
                });
                g.push(InstKind::LoadImm { dst: i, imm: 0 });
                let head = g.new_block(format!("head{seg}"));
                let body = g.new_block(format!("body{seg}"));
                let exit = g.new_block(format!("exit{seg}"));
                g.current = head;
                let trip = g.rng.gen_range_i64(2, 6);
                let cond = g.fresh();
                g.push(InstKind::Binary {
                    op: BinOp::Slt,
                    dst: cond,
                    lhs: i.into(),
                    rhs: Operand::Imm(trip),
                });
                g.push(InstKind::Branch {
                    cond: Cond::Eq,
                    lhs: cond,
                    rhs: Operand::Imm(0),
                    target: BlockId(exit),
                });
                g.current = body;
                let stepped = g.fresh();
                let mixed = g.pick();
                g.push(InstKind::Binary {
                    op: BinOp::Add,
                    dst: stepped,
                    lhs: acc.into(),
                    rhs: mixed.into(),
                });
                g.push(InstKind::Copy {
                    dst: acc,
                    src: stepped,
                });
                let i2 = g.fresh();
                g.push(InstKind::Binary {
                    op: BinOp::Add,
                    dst: i2,
                    lhs: i.into(),
                    rhs: Operand::Imm(1),
                });
                g.push(InstKind::Copy { dst: i, src: i2 });
                g.push(InstKind::Jump {
                    target: BlockId(head),
                });
                g.current = exit;
                g.pool.push(acc);
            }
        }
    }

    // Reduce a few pool values into the return.
    let Some(&last) = g.pool.last() else {
        unreachable!("the pool starts with both parameters and only grows");
    };
    let mut acc = last;
    let tail: Vec<Reg> = g.pool.iter().rev().take(3).skip(1).copied().collect();
    for v in tail {
        let dst = g.fresh();
        g.push(InstKind::Binary {
            op: BinOp::Xor,
            dst,
            lhs: acc.into(),
            rhs: v.into(),
        });
        acc = dst;
    }
    g.push(InstKind::Ret { value: Some(acc) });

    Function::new(format!("cfg_{seed}"), params_regs, g.blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::interp::{Interpreter, Memory};
    use parsched_ir::verify::verify_function;

    #[test]
    fn generated_cfgs_verify_and_run() {
        for seed in 0..30 {
            let f = random_cfg_function(seed, &CfgParams::default());
            verify_function(&f, true).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            let i = Interpreter::new();
            let out = i
                .run(&f, &[7, -3], Memory::new())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(out.return_value.is_some());
        }
    }

    #[test]
    fn deterministic() {
        let p = CfgParams::default();
        assert_eq!(random_cfg_function(3, &p), random_cfg_function(3, &p));
        assert_ne!(random_cfg_function(3, &p), random_cfg_function(4, &p));
    }

    #[test]
    fn produces_multi_block_shapes() {
        let mut saw_multi = false;
        for seed in 0..10 {
            let f = random_cfg_function(seed, &CfgParams::default());
            if f.block_count() > 3 {
                saw_multi = true;
            }
        }
        assert!(saw_multi, "generator should produce branching CFGs");
    }
}
