//! Resource budgets for the allocators.
//!
//! The combined allocator's parallelizable interference graph needs an
//! undirected transitive closure of `Gs` (quadratic in block size) and the
//! spill loop can iterate; on adversarial input either can run away. An
//! [`AllocLimits`] bounds the choke points and turns overruns into typed
//! [`BudgetExceeded`] errors that a driver can downgrade on, instead of a
//! hung or OOM-killed process.

use std::error::Error;
use std::fmt;
use std::time::Instant;

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

/// Resource limits observed by the block and global allocators.
///
/// The default is fully unlimited (apart from [`DEFAULT_MAX_ROUNDS`], which
/// has always bounded the spill loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocLimits {
    /// Cap on color/spill rounds; `None` means [`DEFAULT_MAX_ROUNDS`].
    pub max_rounds: Option<u32>,
    /// Cap on block body size for the quadratic combined-allocator path
    /// (transitive closure / PIG construction). Cheaper strategies ignore it.
    pub max_block_insts: Option<usize>,
    /// Cap on PIG edge count after construction.
    pub max_pig_edges: Option<u64>,
    /// Wall-clock deadline checked at round boundaries.
    pub deadline: Option<Instant>,
}

impl AllocLimits {
    /// The effective round bound.
    pub fn rounds(&self) -> u32 {
        self.max_rounds.unwrap_or(DEFAULT_MAX_ROUNDS)
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
    use std::time::Duration;

    #[test]
    fn default_is_unlimited_except_rounds() {
        let l = AllocLimits::default();
        assert_eq!(l.rounds(), DEFAULT_MAX_ROUNDS);
        assert!(l.check_deadline("p").is_ok());
        assert!(l.check_block_insts("p", usize::MAX).is_ok());
        assert!(l.check_pig_edges("p", u64::MAX).is_ok());
    }

    #[test]
    fn caps_trip_and_display() {
        let l = AllocLimits {
            max_block_insts: Some(10),
            max_pig_edges: Some(100),
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..AllocLimits::default()
        };
        assert!(l.check_block_insts("p", 10).is_ok());
        let e = l.check_block_insts("pig.build", 11).unwrap_err();
        assert_eq!(e.actual, 11);
        assert!(e.to_string().contains("pig.build"));
        let d = l.check_deadline("alloc.deadline").unwrap_err();
        assert!(d.to_string().contains("deadline"));
        assert!(l.check_pig_edges("pig.closure", 101).is_err());
    }
}
