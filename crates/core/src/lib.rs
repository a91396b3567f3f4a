//! `parsched` — combined register allocation and instruction scheduling,
//! reproducing Pinter, *"Register Allocation with Instruction Scheduling: a
//! New Approach"*, PLDI 1993.
//!
//! The central idea: build a **parallelizable interference graph** that
//! unions the classic interference graph with the *false-dependence graph*
//! (the pairs of instructions the machine could issue together); coloring
//! that graph allocates registers **without destroying any instruction-level
//! parallelism**. This crate exposes the whole system behind one
//! [`Pipeline`] API and re-exports the underlying subsystem crates.
//!
//! # Quick start
//!
//! ```
//! use parsched::prelude::*;
//!
//! let func = parsched::paper::example1();
//! let machine = parsched::paper::machine(4);
//! let pipeline = Pipeline::new(machine);
//!
//! let combined = pipeline.compile(&func, &Strategy::combined(), &NullTelemetry)?;
//! let naive = pipeline.compile(&func, &Strategy::AllocThenSched, &NullTelemetry)?;
//! assert!(combined.stats.cycles <= naive.stats.cycles);
//! # Ok::<(), parsched::ParschedError>(())
//! ```
//!
//! Every phase entry point takes a `&dyn Telemetry` last argument; pass
//! [`NullTelemetry`](parsched_telemetry::NullTelemetry) when you don't
//! care, or a [`Recorder`](parsched_telemetry::Recorder) to capture phase
//! timings and counters such as `pig.rounds` / `pig.full_rebuilds`.
//!
//! Above the pipeline sit two robustness layers: the [`Driver`] walks a
//! degradation ladder under a resource [`Budget`] instead of failing, and
//! the [`BatchDriver`] shards a whole module's functions across a
//! work-stealing thread pool with deterministic, thread-count-independent
//! output. See `docs/ARCHITECTURE.md` for the full picture.
//!
//! # Crate map
//!
//! | need | crate |
//! |---|---|
//! | IR, parser, interpreter | [`ir`] (re-export of `parsched-ir`) |
//! | machine models | [`machine`] (`parsched-machine`) |
//! | dependence graphs & scheduling | [`sched`] (`parsched-sched`) |
//! | allocators (Chaitin & combined) | [`regalloc`] (`parsched-regalloc`) |
//! | exact joint solver (optimality yardstick) | [`exact`] (`parsched-exact`) |
//! | graph algorithms | [`graph`] (`parsched-graph`) |
//! | telemetry sinks | [`telemetry`] (`parsched-telemetry`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod driver;
pub mod error;
pub mod paper;
mod pipeline;
pub mod report;

/// One-stop imports for the common compilation workflow.
///
/// ```
/// use parsched::prelude::*;
///
/// let pipeline = Pipeline::new(parsched::paper::machine(4));
/// let out = pipeline
///     .compile(&parsched::paper::example1(), &Strategy::combined(), &NullTelemetry)?;
/// assert!(out.stats.cycles > 0);
/// # Ok::<(), parsched::ParschedError>(())
/// ```
pub mod prelude {
    pub use crate::batch::{BatchDriver, BatchOutput};
    pub use crate::driver::{DegradationLevel, Driver};
    pub use crate::error::ParschedError;
    pub use crate::pipeline::{
        AllocScope, CompileResult, CompileStats, Pipeline, Strategy, StrategyParseError,
    };
    pub use parsched_exact::ExactConfig;
    pub use parsched_graph::Reachability;
    pub use parsched_regalloc::{AllocSession, Budget};
    pub use parsched_telemetry::{NullTelemetry, Recorder, Telemetry};
}

pub use batch::{BatchDriver, BatchOutput};
pub use driver::{DegradationLevel, Driver};
pub use error::ParschedError;
pub use parsched_graph::Reachability;
pub use parsched_regalloc::Budget;
pub use pipeline::{
    AllocScope, CompileResult, CompileStats, Pipeline, Strategy, StrategyParseError,
};

pub use parsched_exact as exact;
pub use parsched_graph as graph;
pub use parsched_ir as ir;
pub use parsched_machine as machine;
pub use parsched_regalloc as regalloc;
pub use parsched_sched as sched;
pub use parsched_telemetry as telemetry;
