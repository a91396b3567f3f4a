//! The workspace-wide error type.
//!
//! Every fallible stage of the pipeline — parsing, verification,
//! allocation, the exact solver, scheduling, budget enforcement — surfaces
//! here as one variant of [`ParschedError`] carrying the stage's own error,
//! so drivers and the `psc` CLI handle a single type and can map each
//! failure class to a distinct exit code.

use parsched_exact::ExactError;
use parsched_ir::verify::VerifyError;
use parsched_ir::ParseError;
use parsched_regalloc::allocator::AllocError;
use parsched_regalloc::BudgetExceeded;
use parsched_sched::SchedError;
use std::error::Error;
use std::fmt;

/// Any failure the `parsched` pipeline can report.
///
/// Invariant-violation panics inside a compilation are caught by the
/// resilient driver and surface as [`ParschedError::Panicked`]; everything
/// else is constructed directly from the stage errors via `From`.
#[derive(Debug, Clone)]
pub enum ParschedError {
    /// The `.psc` source did not parse.
    Parse(ParseError),
    /// The parsed function failed IR verification.
    Verify(Vec<VerifyError>),
    /// Block-level register allocation failed.
    Alloc(AllocError),
    /// Global (web-based) register allocation failed: spilling over webs
    /// did not converge, or the entry live set exceeds the register file.
    Global(AllocError),
    /// The exact solver refused the function (more than one block, a
    /// violated allocation precondition, or no feasible schedule). Its
    /// size-cap refusal is a [`ParschedError::BudgetExceeded`] instead.
    Exact(ExactError),
    /// Instruction scheduling failed (cyclic dependence graph or an
    /// invalid schedule).
    Sched(SchedError),
    /// A resource budget was exhausted.
    BudgetExceeded(BudgetExceeded),
    /// A compilation stage panicked; the panic was contained by the
    /// driver and the process kept running.
    Panicked {
        /// What was being compiled (function name or strategy label).
        context: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// An I/O failure (reading source, writing output).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// The compiled output failed post-compilation translation validation
    /// (`psc --verify`): an independent checker in `parsched-verify` found
    /// a violated invariant in otherwise "successful" output.
    OutputVerify {
        /// The function whose compile failed validation.
        function: String,
        /// How many violations the checkers reported.
        count: usize,
        /// The first violation, rendered for diagnostics.
        first: String,
    },
}

impl ParschedError {
    /// A stable, distinct process exit code for each failure class:
    ///
    /// | code | class |
    /// |---|---|
    /// | 3 | parse |
    /// | 4 | verify |
    /// | 5 | block allocation or exact solver |
    /// | 6 | global allocation |
    /// | 7 | scheduling |
    /// | 8 | budget exhausted |
    /// | 9 | contained panic |
    /// | 10 | I/O |
    /// | 12 | output failed translation validation (`--verify`) |
    ///
    /// (0 is success; 1 is reserved for generic failure, 2 for usage
    /// errors, 11 for miscompilation detected by `--run`.)
    pub fn exit_code(&self) -> i32 {
        match self {
            ParschedError::Parse(_) => 3,
            ParschedError::Verify(_) => 4,
            ParschedError::Alloc(_) | ParschedError::Exact(_) => 5,
            ParschedError::Global(_) => 6,
            ParschedError::Sched(_) => 7,
            ParschedError::BudgetExceeded(_) => 8,
            ParschedError::Panicked { .. } => 9,
            ParschedError::Io { .. } => 10,
            ParschedError::OutputVerify { .. } => 12,
        }
    }

    /// Short class label for diagnostics and telemetry keys.
    pub fn class(&self) -> &'static str {
        match self {
            ParschedError::Parse(_) => "parse",
            ParschedError::Verify(_) => "verify",
            ParschedError::Alloc(_) | ParschedError::Exact(_) => "alloc",
            ParschedError::Global(_) => "global",
            ParschedError::Sched(_) => "sched",
            ParschedError::BudgetExceeded(_) => "budget",
            ParschedError::Panicked { .. } => "panic",
            ParschedError::Io { .. } => "io",
            ParschedError::OutputVerify { .. } => "output-verify",
        }
    }
}

impl fmt::Display for ParschedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParschedError::Parse(e) => e.fmt(f),
            ParschedError::Verify(errs) => match errs.len() {
                0 => write!(f, "verification failed"),
                1 => write!(f, "verification failed: {}", errs[0]),
                n => write!(
                    f,
                    "verification failed with {n} errors: {} (first)",
                    errs[0]
                ),
            },
            ParschedError::Alloc(e) => e.fmt(f),
            ParschedError::Global(e) => write!(f, "global {e}"),
            ParschedError::Exact(e) => e.fmt(f),
            ParschedError::Sched(e) => e.fmt(f),
            ParschedError::BudgetExceeded(e) => e.fmt(f),
            ParschedError::Panicked { context, message } => {
                write!(f, "internal error compiling {context}: {message}")
            }
            ParschedError::Io { path, message } => write!(f, "{path}: {message}"),
            ParschedError::OutputVerify {
                function,
                count,
                first,
            } => match count {
                1 => write!(f, "output verification failed for @{function}: {first}"),
                n => write!(
                    f,
                    "output verification failed for @{function} with {n} violations: \
                     {first} (first)"
                ),
            },
        }
    }
}

impl Error for ParschedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParschedError::Parse(e) => Some(e),
            ParschedError::Alloc(e) | ParschedError::Global(e) => Some(e),
            ParschedError::Exact(e) => Some(e),
            ParschedError::Sched(e) => Some(e),
            ParschedError::BudgetExceeded(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for ParschedError {
    fn from(e: ParseError) -> Self {
        ParschedError::Parse(e)
    }
}

impl From<Vec<VerifyError>> for ParschedError {
    fn from(e: Vec<VerifyError>) -> Self {
        ParschedError::Verify(e)
    }
}

impl From<BudgetExceeded> for ParschedError {
    fn from(e: BudgetExceeded) -> Self {
        ParschedError::BudgetExceeded(e)
    }
}

impl From<AllocError> for ParschedError {
    fn from(e: AllocError) -> Self {
        match e {
            AllocError::Budget(b) => b.into(),
            other => ParschedError::Alloc(other),
        }
    }
}

impl From<ExactError> for ParschedError {
    fn from(e: ExactError) -> Self {
        match e {
            ExactError::TooLarge { insts, cap } => BudgetExceeded {
                phase: "exact.max_insts",
                limit: cap as u64,
                actual: insts as u64,
            }
            .into(),
            other => ParschedError::Exact(other),
        }
    }
}

impl From<SchedError> for ParschedError {
    fn from(e: SchedError) -> Self {
        ParschedError::Sched(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errs: Vec<ParschedError> = vec![
            ParschedError::Verify(Vec::new()),
            ParschedError::BudgetExceeded(BudgetExceeded::deadline("t")),
            ParschedError::Panicked {
                context: "f".into(),
                message: "m".into(),
            },
            ParschedError::Io {
                path: "p".into(),
                message: "m".into(),
            },
            ParschedError::OutputVerify {
                function: "f".into(),
                count: 1,
                first: "v".into(),
            },
        ];
        let mut codes: Vec<i32> = errs.iter().map(ParschedError::exit_code).collect();
        assert!(codes.iter().all(|&c| c > 2));
        codes.dedup();
        assert_eq!(codes.len(), 5, "codes must be pairwise distinct");
        assert!(!codes.contains(&11), "11 belongs to --run miscompiles");
    }

    #[test]
    fn budget_flattens_through_alloc() {
        let b = BudgetExceeded {
            phase: "pig.edges",
            limit: 10,
            actual: 11,
        };
        let e: ParschedError = AllocError::Budget(b).into();
        assert!(matches!(
            e,
            ParschedError::BudgetExceeded(BudgetExceeded {
                phase: "pig.edges",
                ..
            })
        ));
        assert_eq!(e.exit_code(), 8);
    }
}
