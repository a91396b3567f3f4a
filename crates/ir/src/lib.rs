//! RISC-style register intermediate representation for `parsched`.
//!
//! Pinter's framework (PLDI 1993) is defined over "register based
//! intermediate code where an infinite number of symbolic registers is
//! assumed (one symbolic register per value)" on a RISC machine whose only
//! memory instructions are loads and stores. This crate provides exactly
//! that substrate:
//!
//! * [`Inst`] / [`InstKind`] — three-address instructions over
//!   [`Reg::Sym`] (symbolic) and [`Reg::Phys`] (physical) registers;
//! * [`Function`] / [`Block`] — basic blocks and a control-flow graph;
//! * a textual [`parse_function`] / [`print_function`] pair so kernels and
//!   tests are legible;
//! * [`FunctionBuilder`] for programmatic construction;
//! * [`liveness`] — backward dataflow live-variable analysis;
//! * [`defuse`] — def-use chains and reaching definitions;
//! * [`webs`] — the "right number of names" analysis the paper uses to
//!   combine def-use chains into allocation units;
//! * [`interp`] — a reference interpreter used by the test suite to prove
//!   that allocation + scheduling preserved program semantics;
//! * [`verify`] — structural well-formedness checks.
//!
//! # Value semantics
//!
//! All values are `i64`. "Floating point" opcodes ([`BinOp::Fadd`] etc.)
//! have the *same* integer semantics as their fixed-point counterparts —
//! they exist solely to occupy a different functional-unit class in the
//! machine model, which is the only property the paper's construction
//! observes. Division by zero yields zero, and arithmetic wraps, so the
//! interpreter is total.
//!
//! # Example
//!
//! ```
//! use parsched_ir::parse_function;
//!
//! let f = parse_function(
//!     r#"
//!     func @axpy(s0, s1) {
//!     entry:
//!         s2 = load [s0 + 0]
//!         s3 = fmul s2, s1
//!         s4 = fadd s3, s2
//!         ret s4
//!     }
//!     "#,
//! )?;
//! assert_eq!(f.name(), "axpy");
//! assert_eq!(f.block(parsched_ir::BlockId(0)).insts().len(), 4);
//! # Ok::<(), parsched_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod builder;
pub mod cfg;
pub mod defuse;
mod func;
mod inst;
pub mod interp;
pub mod liveness;
pub mod loops;
mod parser;
mod printer;
mod reg;
pub mod simplify;
pub mod verify;
pub mod webs;

pub use block::{Block, BlockId};
pub use builder::FunctionBuilder;
pub use func::Function;
pub use inst::{AddrBase, BinOp, Cond, Inst, InstId, InstKind, MemAddr, Operand, RegRole, UnOp};
pub use parser::{parse_function, parse_module, ParseError};
pub use printer::{print_function, print_inst, print_module};
pub use reg::{PhysReg, Reg, SymReg};
