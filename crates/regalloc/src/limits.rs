//! Resource budgets for compilation.
//!
//! The combined allocator's parallelizable interference graph needs an
//! undirected transitive closure of `Gs` (quadratic in block size) and the
//! spill loop can iterate; on adversarial input either can run away. A
//! [`Budget`] caps that super-linear work — instruction count per block,
//! PIG edge count, spill-repair rounds — and can carry a wall-clock
//! deadline. The allocators check it at their choke points and the
//! pipeline between phases; a trip surfaces as a typed [`BudgetExceeded`]
//! error that a driver can downgrade on, instead of a hung or OOM-killed
//! process.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Default bound on color/spill rounds, matching the historical constant.
pub const DEFAULT_MAX_ROUNDS: u32 = 32;

/// A resource budget was exhausted.
///
/// `limit`/`actual` are the configured bound and the observed value; both
/// are 0 when the exhausted budget is a wall-clock deadline, which has no
/// meaningful count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The phase that hit its budget (e.g. `"pig.closure"`, `"alloc.deadline"`).
    pub phase: &'static str,
    /// The configured limit (0 for deadlines).
    pub limit: u64,
    /// The observed value (0 for deadlines).
    pub actual: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.limit == 0 && self.actual == 0 {
            write!(f, "budget exceeded in {}: deadline passed", self.phase)
        } else {
            write!(
                f,
                "budget exceeded in {}: {} over limit {}",
                self.phase, self.actual, self.limit
            )
        }
    }
}

impl BudgetExceeded {
    /// A wall-clock deadline that passed during `phase`.
    pub fn deadline(phase: &'static str) -> BudgetExceeded {
        BudgetExceeded {
            phase,
            limit: 0,
            actual: 0,
        }
    }
}

impl Error for BudgetExceeded {}

/// Resource caps for one compilation.
///
/// All caps are optional; `None` means unlimited, and the default is
/// unlimited apart from [`DEFAULT_MAX_ROUNDS`], which has always bounded
/// the spill loop. Construct with [`Budget::unlimited`] and narrow with
/// the `with_*` builders:
///
/// ```
/// use parsched_regalloc::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::unlimited()
///     .with_max_block_insts(10_000)
///     .with_deadline_in(Duration::from_secs(5));
/// assert_eq!(budget.max_block_insts, Some(10_000));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Largest basic block (in instructions, terminator included) the
    /// quadratic-plus phases (transitive closure, PIG construction) will
    /// accept. Cheaper strategies ignore it.
    pub max_block_insts: Option<usize>,
    /// Largest parallelizable interference graph (in edges) the combined
    /// allocator will color.
    pub max_pig_edges: Option<u64>,
    /// Most spill-and-retry rounds an allocator may take; `None` uses
    /// [`DEFAULT_MAX_ROUNDS`].
    pub max_spill_rounds: Option<u32>,
    /// Wall-clock deadline for the whole compilation, checked at round
    /// boundaries and between pipeline phases.
    pub deadline: Option<Instant>,
}

/// Kept only because perfbench's `layers.rs` names the allocators' limits
/// this way; the allocators take [`Budget`].
pub type AllocLimits = Budget;

impl Budget {
    /// A budget with no caps (spill rounds still default to
    /// [`DEFAULT_MAX_ROUNDS`]).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps the instruction count of any single block.
    pub fn with_max_block_insts(mut self, n: usize) -> Budget {
        self.max_block_insts = Some(n);
        self
    }

    /// Caps the PIG edge count.
    pub fn with_max_pig_edges(mut self, n: u64) -> Budget {
        self.max_pig_edges = Some(n);
        self
    }

    /// Caps the spill-and-retry rounds.
    pub fn with_max_spill_rounds(mut self, n: u32) -> Budget {
        self.max_spill_rounds = Some(n);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, at: Instant) -> Budget {
        self.deadline = Some(at);
        self
    }

    /// Sets the deadline to `d` from now.
    pub fn with_deadline_in(self, d: Duration) -> Budget {
        self.with_deadline(Instant::now() + d)
    }

    /// The effective round bound.
    pub fn rounds(&self) -> u32 {
        self.max_spill_rounds.unwrap_or(DEFAULT_MAX_ROUNDS)
    }

    /// Errors if the wall-clock deadline has passed.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] naming `phase` once `deadline` is in the past.
    pub fn check_deadline(&self, phase: &'static str) -> Result<(), BudgetExceeded> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(BudgetExceeded::deadline(phase)),
            _ => Ok(()),
        }
    }

    /// Errors if a block of `n` instructions exceeds `max_block_insts`.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] naming `phase` when `n` is over the cap.
    pub fn check_block_insts(&self, phase: &'static str, n: usize) -> Result<(), BudgetExceeded> {
        match self.max_block_insts {
            Some(cap) if n > cap => Err(BudgetExceeded {
                phase,
                limit: cap as u64,
                actual: n as u64,
            }),
            _ => Ok(()),
        }
    }

    /// Errors if a constructed PIG holds more than `max_pig_edges` edges.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] naming `phase` when `edges` is over the cap.
    pub fn check_pig_edges(&self, phase: &'static str, edges: u64) -> Result<(), BudgetExceeded> {
        match self.max_pig_edges {
            Some(cap) if edges > cap => Err(BudgetExceeded {
                phase,
                limit: cap,
                actual: edges,
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited_except_rounds() {
        let b = Budget::unlimited();
        assert_eq!(b.max_block_insts, None);
        assert_eq!(b.max_pig_edges, None);
        assert_eq!(b.max_spill_rounds, None);
        assert!(b.deadline.is_none());
        assert_eq!(b.rounds(), DEFAULT_MAX_ROUNDS);
        assert!(b.check_deadline("p").is_ok());
        assert!(b.check_block_insts("p", usize::MAX).is_ok());
        assert!(b.check_pig_edges("p", u64::MAX).is_ok());
    }

    #[test]
    fn unlimited_lowers_to_default_limits() {
        let b = Budget::unlimited();
        assert_eq!(format!("{b:?}"), format!("{:?}", Budget::default()));
        assert_eq!(b.max_spill_rounds, None);
        assert_eq!(b.max_block_insts, None);
        assert_eq!(b.max_pig_edges, None);
        assert!(b.deadline.is_none());
        assert!(b.check_deadline("t").is_ok());
    }

    #[test]
    fn builders_set_caps_and_deadline_trips() {
        let b = Budget::unlimited()
            .with_max_block_insts(7)
            .with_max_pig_edges(9)
            .with_max_spill_rounds(3)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.max_block_insts, Some(7));
        assert_eq!(b.max_pig_edges, Some(9));
        assert_eq!(b.max_spill_rounds, Some(3));
        assert!(b.check_deadline("t").is_err());
        let now = Budget::unlimited().with_deadline_in(Duration::ZERO);
        assert_eq!(now.check_deadline("t"), Err(BudgetExceeded::deadline("t")));
    }

    #[test]
    fn caps_trip_and_display() {
        let b = Budget::unlimited()
            .with_max_block_insts(10)
            .with_max_pig_edges(100)
            .with_max_spill_rounds(3)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.rounds(), 3);
        assert!(b.check_block_insts("p", 10).is_ok());
        let e = b.check_block_insts("pig.build", 11).unwrap_err();
        assert_eq!(e.actual, 11);
        assert!(e.to_string().contains("pig.build"));
        let d = b.check_deadline("alloc.deadline").unwrap_err();
        assert!(d.to_string().contains("deadline"));
        assert!(b.check_pig_edges("pig.closure", 100).is_ok());
        assert!(b.check_pig_edges("pig.closure", 101).is_err());
    }
}
