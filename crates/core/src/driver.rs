//! The fault-tolerant compilation driver.
//!
//! [`Driver::compile_resilient_in`] walks a **strategy ladder** — by
//! default `Combined → SchedThenAlloc → AllocThenSched →
//! LinearScanThenSched → SpillEverything` — downgrading one rung at a time
//! when a rung fails (budget exhausted, allocation did not converge) or
//! panics. Each rung runs inside [`std::panic::catch_unwind`], so a
//! poisoned compilation fails that rung, not the process. Every downgrade
//! is recorded as a telemetry event and a `driver.fallback.<class>`
//! counter, and the rung that finally succeeded is reported as the
//! result's [`DegradationLevel`].
//!
//! The floor rung, [`Strategy::SpillEverything`], spills every value in
//! one round, so a verified input always has a successful rung unless the
//! wall-clock deadline has already passed.
//!
//! Callers compile through [`crate::BatchDriver`], which owns the
//! per-function loop, the worker sessions and the outer panic net for
//! every surface (psc, pscd, the fuzzer).

use crate::error::ParschedError;
use crate::pipeline::{CompileResult, Pipeline, Strategy};
use parsched_ir::verify::verify_function;
use parsched_ir::Function;
use parsched_regalloc::{AllocSession, Budget, BudgetExceeded};
use parsched_telemetry::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How far down the strategy ladder a resilient compilation had to walk.
///
/// Ordered by severity: `None < SchedThenAlloc < … < SpillEverything`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradationLevel {
    /// The first (preferred) rung succeeded; full quality.
    #[default]
    None,
    /// Fell back to schedule-then-allocate phase ordering.
    SchedThenAlloc,
    /// Fell back to allocate-then-schedule phase ordering.
    AllocThenSched,
    /// Fell back to linear-scan allocation.
    LinearScan,
    /// Hit the floor: every value spilled to memory.
    SpillEverything,
}

impl DegradationLevel {
    /// Short label for diagnostics and `--stats` output.
    pub fn label(&self) -> &'static str {
        match self {
            DegradationLevel::None => "none",
            DegradationLevel::SchedThenAlloc => "sched-then-alloc",
            DegradationLevel::AllocThenSched => "alloc-then-sched",
            DegradationLevel::LinearScan => "linear-scan",
            DegradationLevel::SpillEverything => "spill-everything",
        }
    }

    /// The level a successful fallback to `strategy` represents.
    fn for_strategy(strategy: &Strategy) -> DegradationLevel {
        match strategy {
            Strategy::Combined(_) | Strategy::Exact(_) => DegradationLevel::None,
            Strategy::SchedThenAlloc => DegradationLevel::SchedThenAlloc,
            Strategy::AllocThenSched => DegradationLevel::AllocThenSched,
            Strategy::LinearScanThenSched => DegradationLevel::LinearScan,
            Strategy::SpillEverything => DegradationLevel::SpillEverything,
        }
    }
}

/// A fault-tolerant front end over [`Pipeline`].
///
/// ```
/// use parsched::regalloc::AllocSession;
/// use parsched::{paper, Driver, Pipeline};
/// use parsched_telemetry::NullTelemetry;
///
/// let driver = Driver::new(Pipeline::new(paper::machine(4)));
/// let mut session = AllocSession::new();
/// let result = driver.compile_resilient_in(&mut session, &paper::example1(), &NullTelemetry)?;
/// assert_eq!(result.degradation.label(), "none");
/// # Ok::<(), parsched::ParschedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Driver {
    pipeline: Pipeline,
    budget: Budget,
    ladder: Vec<Strategy>,
}

impl Driver {
    /// A driver over `pipeline` with an unlimited [`Budget`] and the
    /// default ladder.
    pub fn new(pipeline: Pipeline) -> Driver {
        Driver {
            pipeline,
            budget: Budget::unlimited(),
            ladder: Driver::default_ladder(),
        }
    }

    /// The default strategy ladder, best quality first.
    pub fn default_ladder() -> Vec<Strategy> {
        vec![
            Strategy::combined(),
            Strategy::SchedThenAlloc,
            Strategy::AllocThenSched,
            Strategy::LinearScanThenSched,
            Strategy::SpillEverything,
        ]
    }

    /// The default ladder with `preferred` moved to the front: the
    /// requested strategy is tried first and the rest of the default
    /// ladder follows in order. `psc --resilient` and `pscd` both start
    /// from this ladder.
    pub fn preferred_first_ladder(preferred: Strategy) -> Vec<Strategy> {
        let mut ladder = Driver::default_ladder();
        ladder.retain(|s| *s != preferred);
        ladder.insert(0, preferred);
        ladder
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Driver {
        self.budget = budget;
        self
    }

    /// Replaces the ladder. Empty ladders are replaced by the default.
    pub fn with_ladder(mut self, ladder: Vec<Strategy>) -> Driver {
        self.ladder = if ladder.is_empty() {
            Driver::default_ladder()
        } else {
            ladder
        };
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The configured ladder.
    pub fn ladder(&self) -> &[Strategy] {
        &self.ladder
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Compiles `func`, walking the strategy ladder on failure, inside a
    /// caller-owned [`AllocSession`] (see [`Pipeline::compile_budgeted_in`]);
    /// the batch driver gives each worker one session reused across its
    /// whole stripe of functions.
    ///
    /// The input is verified first — malformed IR is rejected up front as
    /// [`ParschedError::Verify`] rather than fed to five allocators. Each
    /// rung then runs under the driver's budget inside `catch_unwind`; on
    /// failure the driver emits a `driver.fallback.<class>` counter and a
    /// `driver.fallback` event and tries the next rung. If every rung
    /// fails, the *first* rung's error is returned (it describes the
    /// preferred strategy).
    ///
    /// Downgrades are reported to `telemetry`. A faulty sink is part of
    /// the threat model: telemetry emitted by the driver itself is wrapped
    /// in `catch_unwind`, and a sink that panics mid-compilation fails
    /// only that rung.
    ///
    /// # Errors
    /// Any [`ParschedError`]; with the default ladder this is only
    /// possible for verification failures, a passed deadline, or a
    /// panic in every rung.
    pub fn compile_resilient_in(
        &self,
        session: &mut AllocSession,
        func: &Function,
        telemetry: &dyn Telemetry,
    ) -> Result<CompileResult, ParschedError> {
        verify_function(func, false).map_err(ParschedError::Verify)?;

        let mut first_err: Option<ParschedError> = None;
        for (rung, strategy) in self.ladder.iter().enumerate() {
            if self.budget.check_deadline("driver.deadline").is_err() {
                // No rung can beat a clock that has already run out.
                quiet_telemetry(telemetry, |t| {
                    t.counter("driver.fallback.budget", 1);
                    t.event(
                        "driver.budget",
                        &format!("{}: deadline passed before rung {}", func.name(), rung),
                    );
                });
                return Err(first_err.unwrap_or_else(deadline_passed));
            }
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.pipeline.compile_budgeted_in(
                    &mut *session,
                    func,
                    strategy,
                    &self.budget,
                    telemetry,
                )
            }));
            let err: ParschedError = match attempt {
                Ok(Ok(mut result)) => {
                    let level = if rung == 0 {
                        DegradationLevel::None
                    } else {
                        DegradationLevel::for_strategy(strategy)
                    };
                    result.degradation = level;
                    quiet_telemetry(telemetry, |t| {
                        t.counter("driver.compiled", 1);
                        t.gauge("driver.degradation", rung as u64);
                        if rung > 0 {
                            t.event("driver.degraded", level.label());
                        }
                    });
                    return Ok(result);
                }
                Ok(Err(e)) => e,
                Err(payload) => ParschedError::Panicked {
                    context: format!("{} with {}", func.name(), strategy.label()),
                    message: panic_message(payload.as_ref()),
                },
            };
            quiet_telemetry(telemetry, |t| {
                t.counter(fallback_counter(&err), 1);
                t.event("driver.fallback", strategy.label());
            });
            first_err.get_or_insert(err);
        }
        Err(first_err.unwrap_or_else(deadline_passed))
    }
}

/// The error of a ladder that ran out of clock before any rung failed.
fn deadline_passed() -> ParschedError {
    BudgetExceeded::deadline("driver.deadline").into()
}

/// The `driver.fallback.<class>` counter key for a rung failure.
fn fallback_counter(err: &ParschedError) -> &'static str {
    match err.class() {
        "alloc" => "driver.fallback.alloc",
        "global" => "driver.fallback.global",
        "sched" => "driver.fallback.sched",
        "budget" => "driver.fallback.budget",
        "panic" => "driver.fallback.panic",
        _ => "driver.fallback.other",
    }
}

/// Emits telemetry, containing any panic from a faulty sink.
fn quiet_telemetry(telemetry: &dyn Telemetry, f: impl FnOnce(&dyn Telemetry)) {
    if telemetry.enabled() {
        let _ = catch_unwind(AssertUnwindSafe(|| f(telemetry)));
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn compile(driver: &Driver) -> Result<CompileResult, ParschedError> {
        driver.compile_resilient_in(
            &mut AllocSession::new(),
            &paper::example1(),
            &parsched_telemetry::NullTelemetry,
        )
    }

    #[test]
    fn healthy_input_does_not_degrade() {
        let driver = Driver::new(Pipeline::new(paper::machine(4)));
        let r = compile(&driver).unwrap();
        assert_eq!(r.degradation, DegradationLevel::None);
    }

    #[test]
    fn ladder_and_budget_accessors() {
        let driver = Driver::new(Pipeline::new(paper::machine(4)))
            .with_budget(Budget::unlimited().with_max_block_insts(64))
            .with_ladder(vec![Strategy::SpillEverything]);
        assert_eq!(driver.ladder().len(), 1);
        assert_eq!(driver.budget().max_block_insts, Some(64));
        let r = compile(&driver).unwrap();
        // A one-rung ladder that succeeds on its first rung reports None.
        assert_eq!(r.degradation, DegradationLevel::None);
    }

    #[test]
    fn preferred_first_ladder_front_loads_without_duplicates() {
        assert_eq!(
            Driver::preferred_first_ladder(Strategy::combined()),
            Driver::default_ladder()
        );
        let ladder = Driver::preferred_first_ladder(Strategy::LinearScanThenSched);
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0], Strategy::LinearScanThenSched);
        assert_eq!(ladder[1], Strategy::combined());
        let exact = Driver::preferred_first_ladder(Strategy::exact());
        assert_eq!(exact.len(), 6);
        assert_eq!(exact[1..], Driver::default_ladder()[..]);
    }

    #[test]
    fn empty_ladder_falls_back_to_default() {
        let driver = Driver::new(Pipeline::new(paper::machine(4))).with_ladder(Vec::new());
        assert_eq!(driver.ladder().len(), 5);
    }

    #[test]
    fn degradation_levels_order_by_severity() {
        assert!(DegradationLevel::None < DegradationLevel::SchedThenAlloc);
        assert!(DegradationLevel::LinearScan < DegradationLevel::SpillEverything);
        assert_eq!(DegradationLevel::default(), DegradationLevel::None);
    }
}
