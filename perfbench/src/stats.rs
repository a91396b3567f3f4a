//! Order statistics: medians and the tail rule.
//!
//! A tail is reported as the highest percentile of a fixed ladder that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so the
//! reported figure never rests on a handful of outliers. A fixed ladder
//! (rather than a continuous percentile) keeps the figure comparable
//! between runs whose sample counts differ slightly.

/// Percentile ladder in thousandths of a percent (50, 90, 99, 99.9, 99.99).
const LADDER_MILLI: [u64; 5] = [50_000, 90_000, 99_000, 99_900, 99_990];

/// Samples that must lie strictly beyond the reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail figure with the percentile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile used; 100 when no ladder rung qualified (fewer than
    /// 20 samples), in which case `value` is the maximum.
    pub percentile: f64,
    pub samples: usize,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
}

impl Tail {
    pub fn describe(&self) -> String {
        format!(
            "p{} of {} samples ({} beyond)",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// The highest ladder percentile (nearest-rank) with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for &p in LADDER_MILLI.iter().rev() {
        // Nearest rank, 1-based: ceil(p/100 * n), in integers.
        let rank = ((p * n as u64).div_ceil(100_000) as usize).max(1);
        if rank <= n && n - rank >= TAIL_MIN_BEYOND {
            return Tail {
                value: v[rank - 1],
                percentile: p as f64 / 1000.0,
                samples: n,
                beyond: n - rank,
            };
        }
    }
    Tail {
        value: v.last().copied().unwrap_or(f64::NAN),
        percentile: 100.0,
        samples: n,
        beyond: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order must not matter.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9
        // would leave only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 is rank 990 with 9 beyond, so p90 it is.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900.0, 99));
        // 100 samples: p90 has exactly 10 beyond.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // 20 samples: only the median has 10 beyond.
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 10000 samples: p99.9 has 10 beyond.
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.value), (99.9, 9990.0));
    }

    #[test]
    fn tail_falls_back_to_max_when_no_rung_qualifies() {
        let t = tail(&ramp(19));
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 19.0, 0));
        assert!(tail(&[]).value.is_nan());
    }
}
