//! Register allocators for `parsched`: classic Chaitin coloring and the
//! combined allocator of Pinter (PLDI 1993).
//!
//! The crate is organized around the paper's pipeline:
//!
//! * [`BlockAllocProblem`] — allocation vertices (definitions and live-in
//!   values, Claim 1) and the interference graph `Gr` of one basic block;
//! * [`pig`] — the **parallelizable interference graph** `G = Gr ∪ Ef`
//!   (restricted to defining vertices), whose optimal coloring yields a
//!   spill-free allocation with no false dependences (Theorems 1 and 2);
//! * [`chaitin`] — the classic simplify/spill/select allocator used as the
//!   phase-ordered baseline;
//! * [`combined`] — the paper's Section 4 coloring procedure: simplify on
//!   the PIG, false-edge removal under register pressure (Lemmas 2/3), the
//!   weighted spill metric `h*`, and iterated spilling;
//! * [`spill`] — spill-code insertion and rewriting;
//! * [`assignment`] — symbolic→physical rewriting plus an independent
//!   validity checker;
//! * [`global`] — the inter-block extension: webs as vertices, region-wide
//!   false-dependence edges;
//! * [`AllocSession`] — the one reusable session: it owns the dependence
//!   graph, the incrementally-maintained closure and the cooperative
//!   deadline across spill rounds and functions, deriving the PIG from
//!   closure rows instead of rebuilding it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod assignment;
pub mod chaitin;
pub mod combined;
pub mod global;
pub mod limits;
pub mod linear;
pub mod pig;
mod problem;
mod session;
pub mod spill;

pub use allocator::{
    allocate_single_block, allocate_single_block_in, AllocError, BlockAllocation, BlockStrategy,
};
pub use combined::{EdgeRemovalPolicy, PinterConfig, SpillMetric};
pub use limits::{AllocLimits, Budget, BudgetExceeded, DEFAULT_MAX_ROUNDS};
pub use pig::Pig;
pub use problem::{BlockAllocProblem, ProblemError};
pub use session::AllocSession;
