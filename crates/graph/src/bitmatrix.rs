//! Dense square boolean matrix, the backing store for adjacency relations.

use crate::bitset::BitSet;
use std::fmt;

/// A dense `n × n` boolean matrix.
///
/// Rows are [`BitSet`]s, so whole-row operations (union, complement) run a
/// word at a time. This is the representation used for transitive closures
/// and graph complements, both of which Pinter's construction performs on
/// every basic block.
#[derive(Default, PartialEq, Eq)]
pub struct BitMatrix {
    rows: Vec<BitSet>,
    n: usize,
}

impl Clone for BitMatrix {
    fn clone(&self) -> Self {
        BitMatrix {
            rows: self.rows.clone(),
            n: self.n,
        }
    }

    /// Reuses the row buffers of `self` (allocation-free when shapes match),
    /// which matters for callers that rebuild a matrix every round.
    fn clone_from(&mut self, source: &Self) {
        self.rows.clone_from(&source.rows);
        self.n = source.n;
    }
}

impl BitMatrix {
    /// Creates an all-false `n × n` matrix.
    pub fn new(n: usize) -> Self {
        BitMatrix {
            rows: (0..n).map(|_| BitSet::new(n)).collect(),
            n,
        }
    }

    /// Side length of the matrix.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Clears every entry and changes the side length to `n`, reusing row
    /// buffers where capacities allow.
    pub fn reset(&mut self, n: usize) {
        let keep = self.rows.len().min(n);
        for row in self.rows.iter_mut().take(keep) {
            row.reset(n);
        }
        if self.rows.len() > n {
            self.rows.truncate(n);
        } else {
            self.rows.resize_with(n, || BitSet::new(n));
        }
        self.n = n;
    }

    /// Sets entry `(i, j)` to true. Returns `true` if it was newly set.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    pub fn set(&mut self, i: usize, j: usize) -> bool {
        assert!(j < self.n, "column {j} out of range {}", self.n);
        self.rows[i].insert(j)
    }

    /// Clears entry `(i, j)`. Returns `true` if it was previously set.
    pub fn unset(&mut self, i: usize, j: usize) -> bool {
        self.rows[i].remove(j)
    }

    /// Reads entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> bool {
        i < self.n && self.rows[i].contains(j)
    }

    /// Borrows row `i` as a bit set.
    pub fn row(&self, i: usize) -> &BitSet {
        &self.rows[i]
    }

    /// Mutably borrows row `i`, for whole-row writes (e.g. incremental
    /// closure maintenance). Callers must keep the row's capacity at `n`.
    pub fn row_mut(&mut self, i: usize) -> &mut BitSet {
        &mut self.rows[i]
    }

    /// Unions row `src` into row `dst`; returns `true` if `dst` changed.
    ///
    /// # Panics
    /// Panics if `dst == src` (aliasing) or either is out of range.
    pub fn union_rows(&mut self, dst: usize, src: usize) -> bool {
        assert_ne!(dst, src, "cannot union a row into itself");
        let (a, b) = if dst < src {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        };
        a.union_with(b)
    }

    /// Number of true entries.
    pub fn count(&self) -> usize {
        self.rows.iter().map(BitSet::count).sum()
    }

    /// Iterates the strictly-upper-triangle true entries as `(i, j)` pairs
    /// with `i < j`, in ascending order — the edge list of a symmetric
    /// matrix viewed as an undirected graph.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| {
            self.rows[i]
                .iter()
                .filter(move |&j| j > i)
                .map(move |j| (i, j))
        })
    }

    /// Returns the transpose.
    pub fn transposed(&self) -> BitMatrix {
        let mut t = BitMatrix::new(self.n);
        for i in 0..self.n {
            for j in self.rows[i].iter() {
                t.set(j, i);
            }
        }
        t
    }

    /// Returns the symmetric closure (`m[i][j] || m[j][i]`).
    pub fn symmetric(&self) -> BitMatrix {
        let mut s = self.clone();
        for i in 0..self.n {
            for j in self.rows[i].iter() {
                s.set(j, i);
            }
        }
        s
    }

    /// Returns the off-diagonal complement: true wherever `self` is false and
    /// `i != j`.
    pub fn complement(&self) -> BitMatrix {
        let mut c = BitMatrix::new(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j && !self.get(i, j) {
                    c.set(i, j);
                }
            }
        }
        c
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{}", if self.get(i, j) { '1' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset() {
        let mut m = BitMatrix::new(5);
        assert!(m.set(1, 3));
        assert!(!m.set(1, 3));
        assert!(m.get(1, 3));
        assert!(!m.get(3, 1));
        assert!(m.unset(1, 3));
        assert!(!m.get(1, 3));
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn transpose_and_symmetric() {
        let mut m = BitMatrix::new(3);
        m.set(0, 1);
        m.set(1, 2);
        let t = m.transposed();
        assert!(t.get(1, 0) && t.get(2, 1));
        assert!(!t.get(0, 1));
        let s = m.symmetric();
        assert!(s.get(0, 1) && s.get(1, 0) && s.get(1, 2) && s.get(2, 1));
    }

    #[test]
    fn complement_excludes_diagonal() {
        let mut m = BitMatrix::new(3);
        m.set(0, 1);
        let c = m.complement();
        assert!(!c.get(0, 1));
        assert!(c.get(1, 0));
        assert!(c.get(0, 2) && c.get(2, 0) && c.get(1, 2) && c.get(2, 1));
        for i in 0..3 {
            assert!(!c.get(i, i));
        }
    }

    #[test]
    fn union_rows_propagates() {
        let mut m = BitMatrix::new(4);
        m.set(2, 3);
        assert!(m.union_rows(0, 2));
        assert!(m.get(0, 3));
        assert!(!m.union_rows(0, 2));
    }
}
