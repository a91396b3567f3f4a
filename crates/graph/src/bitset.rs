//! A fixed-capacity bit set over dense indices.

use std::fmt;

/// A fixed-capacity set of `usize` indices backed by a `Vec<u64>`.
///
/// Used throughout the crate for liveness-style dataflow sets, adjacency
/// rows, and reachability vectors. Capacity is fixed at construction; all
/// operations panic if an index is out of range (callers always know `n`).
#[derive(PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl Default for BitSet {
    /// An empty set of capacity 0 (grow it with [`BitSet::reset`]).
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Reuses the existing word buffer, so cloning into a set of the same
    /// (or larger) capacity performs no allocation.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitSet {
    /// Creates an empty set with capacity for indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of indices this set can hold (`0..capacity()`).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Empties the set and changes its capacity to `len`, reusing the word
    /// buffer when it is large enough.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Inserts `i`, returning `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `i`, returning `true` if it was present.
    ///
    /// # Panics
    /// Panics if `i >= capacity()`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Tests membership of `i`.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every index in `0..capacity()`.
    pub fn fill(&mut self) {
        self.words.fill(!0);
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Intersects `self` with `other`; returns `true` if `self` changed.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Removes every element of `other` from `self`; returns `true` on change.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & !*b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Whether `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the indices present, in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the members of a [`BitSet`], ascending.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to hold the largest element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(cap);
        for i in items {
            set.insert(i);
        }
        set
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn fill_sets_exactly_the_capacity() {
        for n in [0, 1, 63, 64, 65, 130] {
            let mut s = BitSet::new(n);
            s.fill();
            assert_eq!(s.count(), n, "fill() at capacity {n}");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn union_intersect_difference() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        for i in [1, 5, 70] {
            a.insert(i);
        }
        for i in [5, 70, 99] {
            b.insert(i);
        }
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 70, 99]);
        assert!(!u.union_with(&b));

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5, 70]);

        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn subset_disjoint() {
        let a: BitSet = [1, 2].into_iter().collect();
        let mut b = BitSet::new(3);
        b.insert(1);
        b.insert(2);
        assert!(b.is_subset(&a));
        let c: BitSet = [0].into_iter().collect();
        let mut c2 = BitSet::new(3);
        c2.insert(0);
        assert!(c2.is_disjoint(&b));
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn iter_empty_and_debug() {
        let s = BitSet::new(0);
        assert_eq!(s.iter().count(), 0);
        assert!(s.is_empty());
        let s: BitSet = [3].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{3}");
    }
}
