//! Instructions: three-address RISC operations over registers.

use crate::block::BlockId;
use crate::reg::Reg;
use std::fmt;

/// Identifies an instruction by `(block, index within block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId {
    /// The containing block.
    pub block: BlockId,
    /// Zero-based position within the block.
    pub index: usize,
}

impl InstId {
    /// Convenience constructor.
    pub fn new(block: BlockId, index: usize) -> Self {
        InstId { block, index }
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.block.0, self.index)
    }
}

/// Binary ALU operations. `F*` variants are identical in value semantics but
/// execute on the floating-point unit class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Slt,
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
}

impl BinOp {
    /// Whether this op runs on the floating-point unit class.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::Fadd | BinOp::Fsub | BinOp::Fmul | BinOp::Fdiv)
    }

    /// Evaluates the operation on two `i64` values (wrapping; `/ 0 == 0`).
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add | BinOp::Fadd => a.wrapping_add(b),
            BinOp::Sub | BinOp::Fsub => a.wrapping_sub(b),
            BinOp::Mul | BinOp::Fmul => a.wrapping_mul(b),
            BinOp::Div | BinOp::Fdiv => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Slt => i64::from(a < b),
        }
    }

    /// Textual mnemonic, as used by the parser and printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Slt => "slt",
            BinOp::Fadd => "fadd",
            BinOp::Fsub => "fsub",
            BinOp::Fmul => "fmul",
            BinOp::Fdiv => "fdiv",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            "slt" => BinOp::Slt,
            "fadd" => BinOp::Fadd,
            "fsub" => BinOp::Fsub,
            "fmul" => BinOp::Fmul,
            "fdiv" => BinOp::Fdiv,
            _ => return None,
        })
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
    Fneg,
}

impl UnOp {
    /// Whether this op runs on the floating-point unit class.
    pub fn is_float(self) -> bool {
        matches!(self, UnOp::Fneg)
    }

    /// Evaluates the operation.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg | UnOp::Fneg => a.wrapping_neg(),
            UnOp::Not => !a,
        }
    }

    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Fneg => "fneg",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<UnOp> {
        Some(match s {
            "neg" => UnOp::Neg,
            "not" => UnOp::Not,
            "fneg" => UnOp::Fneg,
            _ => return None,
        })
    }
}

/// Branch conditions for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    /// Evaluates the condition.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    /// Textual mnemonic (`beq`, `bne`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
            Cond::Ge => "bge",
        }
    }

    /// Parses a branch mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Cond> {
        Some(match s {
            "beq" => Cond::Eq,
            "bne" => Cond::Ne,
            "blt" => Cond::Lt,
            "ble" => Cond::Le,
            "bgt" => Cond::Gt,
            "bge" => Cond::Ge,
            _ => return None,
        })
    }
}

/// A register or immediate operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate constant.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Operand {
        Operand::Imm(i)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => r.fmt(f),
            Operand::Imm(i) => i.fmt(f),
        }
    }
}

/// The base of a memory address: a named global or a register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AddrBase {
    /// A named global symbol (e.g. `@z` in `load [@z + 0]`).
    Global(String),
    /// A register holding the base address.
    Reg(Reg),
}

/// A memory address `base + offset` in the RISC load/store form.
///
/// Two addresses with the *same* base and *different* offsets provably do
/// not alias; everything else is conservatively assumed to alias (see
/// `parsched-sched`'s dependence construction).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemAddr {
    /// Base of the address.
    pub base: AddrBase,
    /// Constant byte offset.
    pub offset: i64,
}

impl MemAddr {
    /// Address of a global symbol plus offset.
    pub fn global(name: impl Into<String>, offset: i64) -> MemAddr {
        MemAddr {
            base: AddrBase::Global(name.into()),
            offset,
        }
    }

    /// Register-relative address.
    pub fn reg(base: Reg, offset: i64) -> MemAddr {
        MemAddr {
            base: AddrBase::Reg(base),
            offset,
        }
    }

    /// The base register, if the base is a register.
    pub fn base_reg(&self) -> Option<Reg> {
        match &self.base {
            AddrBase::Reg(r) => Some(*r),
            AddrBase::Global(_) => None,
        }
    }

    /// Whether `self` and `other` are *provably* the same location.
    pub fn must_alias(&self, other: &MemAddr) -> bool {
        self.base == other.base && self.offset == other.offset
    }

    /// Whether `self` and `other` may refer to the same location.
    ///
    /// Same base, different offset → provably disjoint. Two distinct
    /// globals → disjoint. Anything involving two different register bases
    /// is conservatively `true`.
    pub fn may_alias(&self, other: &MemAddr) -> bool {
        match (&self.base, &other.base) {
            (AddrBase::Global(a), AddrBase::Global(b)) => a == b && self.offset == other.offset,
            (AddrBase::Reg(a), AddrBase::Reg(b)) if a == b => self.offset == other.offset,
            _ => true,
        }
    }
}

impl fmt::Display for MemAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.base {
            AddrBase::Global(g) => write!(f, "[@{g} + {}]", self.offset),
            AddrBase::Reg(r) => write!(f, "[{r} + {}]", self.offset),
        }
    }
}

/// The operation performed by an [`Inst`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// `dst = li imm`
    LoadImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = op lhs, rhs`
    Binary {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = op src`
    Unary {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = load addr` — the only instruction reading memory.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address read.
        addr: MemAddr,
        /// Whether the load occupies the floating-point unit class
        /// (`fload`); value semantics are identical.
        float: bool,
    },
    /// `store src, addr` — the only instruction writing memory.
    Store {
        /// Register stored.
        src: Reg,
        /// Address written.
        addr: MemAddr,
        /// Floating-point unit class flag (`fstore`).
        float: bool,
    },
    /// `dst = mov src`
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Conditional branch `bCC lhs, rhs, target` (falls through otherwise).
    Branch {
        /// Condition code.
        cond: Cond,
        /// Left comparison operand.
        lhs: Reg,
        /// Right comparison operand.
        rhs: Operand,
        /// Target block if the condition holds.
        target: BlockId,
    },
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Call to a named external function: per the paper, "a call instruction
    /// is changed to be a multiple register assignment".
    Call {
        /// Callee name.
        name: String,
        /// Destination registers (the multiple assignment).
        dsts: Vec<Reg>,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Return, optionally with a value.
    Ret {
        /// Returned register, if any.
        value: Option<Reg>,
    },
    /// No-op (used by spill-free rewriting and tests).
    Nop,
}

/// Whether a register occurrence is read or written; see
/// [`Inst::map_regs_by_role`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegRole {
    /// The instruction reads the register.
    Use,
    /// The instruction writes the register.
    Def,
}

/// An instruction: an [`InstKind`] plus derived def/use accessors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inst {
    kind: InstKind,
}

impl Inst {
    /// Wraps an [`InstKind`].
    pub fn new(kind: InstKind) -> Inst {
        Inst { kind }
    }

    /// The operation.
    pub fn kind(&self) -> &InstKind {
        &self.kind
    }

    /// Mutable access to the operation (used by the allocator's rewriter).
    pub fn kind_mut(&mut self) -> &mut InstKind {
        &mut self.kind
    }

    /// Registers defined (written) by this instruction.
    pub fn defs(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.defs_into(&mut out);
        out
    }

    /// Appends the registers defined by this instruction to `out` —
    /// [`Inst::defs`] without the per-call allocation, for dense scans.
    pub fn defs_into(&self, out: &mut Vec<Reg>) {
        match &self.kind {
            InstKind::LoadImm { dst, .. }
            | InstKind::Binary { dst, .. }
            | InstKind::Unary { dst, .. }
            | InstKind::Load { dst, .. }
            | InstKind::Copy { dst, .. } => out.push(*dst),
            InstKind::Call { dsts, .. } => out.extend(dsts.iter().copied()),
            InstKind::Store { .. }
            | InstKind::Branch { .. }
            | InstKind::Jump { .. }
            | InstKind::Ret { .. }
            | InstKind::Nop => {}
        }
    }

    /// Registers used (read) by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.uses_into(&mut out);
        out
    }

    /// Appends the registers read by this instruction to `out` —
    /// [`Inst::uses`] without the per-call allocation, for dense scans.
    pub fn uses_into(&self, out: &mut Vec<Reg>) {
        fn push_op(out: &mut Vec<Reg>, op: &Operand) {
            if let Operand::Reg(r) = op {
                out.push(*r);
            }
        }
        match &self.kind {
            InstKind::LoadImm { .. } | InstKind::Jump { .. } | InstKind::Nop => {}
            InstKind::Binary { lhs, rhs, .. } => {
                push_op(out, lhs);
                push_op(out, rhs);
            }
            InstKind::Unary { src, .. } | InstKind::Copy { src, .. } => out.push(*src),
            InstKind::Load { addr, .. } => {
                if let Some(r) = addr.base_reg() {
                    out.push(r);
                }
            }
            InstKind::Store { src, addr, .. } => {
                out.push(*src);
                if let Some(r) = addr.base_reg() {
                    out.push(r);
                }
            }
            InstKind::Branch { lhs, rhs, .. } => {
                out.push(*lhs);
                push_op(out, rhs);
            }
            InstKind::Call { args, .. } => out.extend(args.iter().copied()),
            InstKind::Ret { value } => out.extend(value.iter().copied()),
        }
    }

    /// The memory address read, if this is a load.
    pub fn mem_read(&self) -> Option<&MemAddr> {
        match &self.kind {
            InstKind::Load { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// The memory address written, if this is a store.
    pub fn mem_write(&self) -> Option<&MemAddr> {
        match &self.kind {
            InstKind::Store { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// Whether this instruction ends a basic block (branch/jump/ret).
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.kind,
            InstKind::Branch { .. } | InstKind::Jump { .. } | InstKind::Ret { .. }
        )
    }

    /// Whether this instruction may touch memory or has side effects that
    /// pin it relative to other such instructions (loads, stores, calls).
    pub fn has_side_effects(&self) -> bool {
        matches!(self.kind, InstKind::Store { .. } | InstKind::Call { .. })
    }

    /// Rewrites every register (defs and uses) through `f`.
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        self.map_regs_by_role(|r, _| f(r));
    }

    /// Rewrites every register through `f`, telling it whether the
    /// occurrence is read or written, so a register that is both
    /// (`s1 = add s1, 1`, or a call result that is also an argument) can
    /// take a different name in each role. Uses are visited before defs,
    /// each in [`Inst::uses`] / [`Inst::defs`] order.
    pub fn map_regs_by_role(&mut self, mut f: impl FnMut(Reg, RegRole) -> Reg) {
        use RegRole::{Def, Use};
        let map_operand = |op: &mut Operand, f: &mut dyn FnMut(Reg, RegRole) -> Reg| {
            if let Operand::Reg(r) = op {
                *r = f(*r, Use);
            }
        };
        let map_addr = |addr: &mut MemAddr, f: &mut dyn FnMut(Reg, RegRole) -> Reg| {
            if let AddrBase::Reg(r) = &mut addr.base {
                *r = f(*r, Use);
            }
        };
        match &mut self.kind {
            InstKind::LoadImm { dst, .. } => *dst = f(*dst, Def),
            InstKind::Binary { dst, lhs, rhs, .. } => {
                map_operand(lhs, &mut f);
                map_operand(rhs, &mut f);
                *dst = f(*dst, Def);
            }
            InstKind::Unary { dst, src, .. } | InstKind::Copy { dst, src } => {
                *src = f(*src, Use);
                *dst = f(*dst, Def);
            }
            InstKind::Load { dst, addr, .. } => {
                map_addr(addr, &mut f);
                *dst = f(*dst, Def);
            }
            InstKind::Store { src, addr, .. } => {
                *src = f(*src, Use);
                map_addr(addr, &mut f);
            }
            InstKind::Branch { lhs, rhs, .. } => {
                *lhs = f(*lhs, Use);
                map_operand(rhs, &mut f);
            }
            InstKind::Call { dsts, args, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a, Use);
                }
                for d in dsts.iter_mut() {
                    *d = f(*d, Def);
                }
            }
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    *v = f(*v, Use);
                }
            }
            InstKind::Jump { .. } | InstKind::Nop => {}
        }
    }
}

impl From<InstKind> for Inst {
    fn from(kind: InstKind) -> Inst {
        Inst::new(kind)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::fmt_inst(self, None, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_semantics() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Fadd.eval(2, 3), 5, "float ops share int semantics");
        assert_eq!(BinOp::Div.eval(7, 0), 0, "division by zero is zero");
        assert_eq!(BinOp::Rem.eval(7, 0), 0);
        assert_eq!(BinOp::Slt.eval(1, 2), 1);
        assert_eq!(BinOp::Shl.eval(1, 65), 2, "shift masked to 6 bits");
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2), -2, "wrapping");
    }

    #[test]
    fn mnemonic_round_trip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Slt,
            BinOp::Fadd,
            BinOp::Fsub,
            BinOp::Fmul,
            BinOp::Fdiv,
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(Cond::from_mnemonic(c.mnemonic()), Some(c));
        }
        for u in [UnOp::Neg, UnOp::Not, UnOp::Fneg] {
            assert_eq!(UnOp::from_mnemonic(u.mnemonic()), Some(u));
        }
    }

    #[test]
    fn defs_and_uses() {
        let i = Inst::new(InstKind::Binary {
            op: BinOp::Add,
            dst: Reg::sym(2),
            lhs: Reg::sym(0).into(),
            rhs: Operand::Imm(4),
        });
        assert_eq!(i.defs(), vec![Reg::sym(2)]);
        assert_eq!(i.uses(), vec![Reg::sym(0)]);

        let st = Inst::new(InstKind::Store {
            src: Reg::sym(1),
            addr: MemAddr::reg(Reg::sym(0), 8),
            float: false,
        });
        assert!(st.defs().is_empty());
        assert_eq!(st.uses(), vec![Reg::sym(1), Reg::sym(0)]);
        assert!(st.has_side_effects());

        let call = Inst::new(InstKind::Call {
            name: "f".into(),
            dsts: vec![Reg::sym(5), Reg::sym(6)],
            args: vec![Reg::sym(1)],
        });
        assert_eq!(call.defs().len(), 2);
        assert_eq!(call.uses(), vec![Reg::sym(1)]);
    }

    #[test]
    fn aliasing_rules() {
        let a = MemAddr::reg(Reg::sym(0), 0);
        let b = MemAddr::reg(Reg::sym(0), 8);
        let c = MemAddr::reg(Reg::sym(1), 0);
        assert!(!a.may_alias(&b), "same base, different offsets disjoint");
        assert!(a.may_alias(&c), "different bases conservatively alias");
        assert!(a.must_alias(&a.clone()));
        let g1 = MemAddr::global("x", 0);
        let g2 = MemAddr::global("y", 0);
        assert!(!g1.may_alias(&g2), "distinct globals disjoint");
        assert!(g1.may_alias(&c), "global vs register base aliases");
    }

    #[test]
    fn map_regs_rewrites_everything() {
        let mut i = Inst::new(InstKind::Store {
            src: Reg::sym(1),
            addr: MemAddr::reg(Reg::sym(2), 0),
            float: false,
        });
        i.map_regs(|r| match r {
            Reg::Sym(s) => Reg::phys(s.0 * 10),
            p => p,
        });
        assert_eq!(i.uses(), vec![Reg::phys(10), Reg::phys(20)]);

        // One register read and written: each role takes its own name.
        let by_role = |r: Reg, role: RegRole| {
            let n = r.as_sym().map_or(0, |s| s.0) * 10;
            Reg::phys(if role == RegRole::Use { n } else { n + 1 })
        };
        let mut inc = Inst::new(InstKind::Binary {
            op: BinOp::Add,
            dst: Reg::sym(1),
            lhs: Reg::sym(1).into(),
            rhs: Operand::Imm(1),
        });
        inc.map_regs_by_role(by_role);
        assert_eq!(inc.uses(), vec![Reg::phys(10)]);
        assert_eq!(inc.defs(), vec![Reg::phys(11)]);
        let mut call = Inst::new(InstKind::Call {
            name: "f".into(),
            dsts: vec![Reg::sym(2), Reg::sym(3)],
            args: vec![Reg::sym(3), Reg::sym(4)],
        });
        call.map_regs_by_role(by_role);
        assert_eq!(call.uses(), vec![Reg::phys(30), Reg::phys(40)]);
        assert_eq!(call.defs(), vec![Reg::phys(21), Reg::phys(31)]);
    }

    #[test]
    fn terminators() {
        assert!(Inst::new(InstKind::Ret { value: None }).is_terminator());
        assert!(Inst::new(InstKind::Jump { target: BlockId(0) }).is_terminator());
        assert!(!Inst::new(InstKind::Nop).is_terminator());
    }
}
