//! A set of small indices — variable ids, predicate indices, argument
//! positions — as a bit set.
//!
//! The first 64 indices live in one inline word, so a set over a
//! query's variables or predicates costs no allocation at the sizes
//! queries have; a larger index spills the words above it to the heap.

use std::fmt;

/// A set of `usize` indices, one bit each.
#[derive(Clone, Default)]
pub struct BitSet {
    /// Indices `0..64`.
    low: u64,
    /// Indices `64..`, 64 per word; never ends in a zero word.
    high: Vec<u64>,
}

impl BitSet {
    /// The empty set.
    pub const fn new() -> Self {
        BitSet {
            low: 0,
            high: Vec::new(),
        }
    }

    fn word(&self, w: usize) -> u64 {
        match w {
            0 => self.low,
            w => self.high.get(w - 1).copied().unwrap_or(0),
        }
    }

    fn words(&self) -> usize {
        1 + self.high.len()
    }

    /// Adds `i`; returns whether it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let word = match w {
            0 => &mut self.low,
            w => {
                if self.high.len() < w {
                    self.high.resize(w, 0);
                }
                &mut self.high[w - 1]
            }
        };
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.word(i / 64) & (1u64 << (i % 64)) != 0
    }

    /// Adds every index of `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        self.low |= other.low;
        if self.high.len() < other.high.len() {
            self.high.resize(other.high.len(), 0);
        }
        for (mine, theirs) in self.high.iter_mut().zip(&other.high) {
            *mine |= theirs;
        }
    }

    /// Whether every index of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.low & !other.low == 0
            && self
                .high
                .iter()
                .enumerate()
                .all(|(w, &mine)| mine & !other.word(w + 1) == 0)
    }

    /// Removes every index, keeping the spilled words' storage.
    pub fn clear(&mut self) {
        self.low = 0;
        self.high.clear();
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        (0..self.words())
            .map(|w| self.word(w).count_ones() as usize)
            .sum()
    }

    /// The indices, ascending.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.low,
        }
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.low == other.low && self.high == other.high
    }
}

impl Eq for BitSet {}

/// A set equals the list of its indices in ascending order.
impl PartialEq<Vec<usize>> for BitSet {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = BitSet::new();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`BitSet`].
pub struct Iter<'a> {
    set: &'a BitSet,
    /// Index of the word `bits` was read from.
    word: usize,
    /// The bits of that word not yet yielded.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.set.words() {
                return None;
            }
            self.bits = self.set.word(self.word);
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_spilled_indices() {
        let mut s = BitSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(63));
        assert!(s.high.is_empty(), "indices below 64 stay inline");
        assert!(s.insert(200));
        assert!(s.insert(64));
        assert_eq!(s, vec![3, 63, 64, 200]);
        assert_eq!(s.len(), 4);
        assert!(s.contains(200) && !s.contains(199) && !s.contains(100_000));
        assert_eq!(format!("{s:?}"), "[3, 63, 64, 200]");
    }

    #[test]
    fn union_spills_as_needed() {
        let mut a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [2, 130].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a, vec![1, 2, 130]);
        let mut c = BitSet::new();
        c.union_with(&a);
        assert_eq!(c, a);
        assert_eq!(BitSet::new(), Vec::<usize>::new());
    }

    #[test]
    fn subsets_across_words() {
        let small: BitSet = [1, 130].into_iter().collect();
        let big: BitSet = [1, 2, 130].into_iter().collect();
        assert!(small.is_subset(&big) && !big.is_subset(&small));
        assert!(BitSet::new().is_subset(&small));
        let low: BitSet = [1, 2].into_iter().collect();
        assert!(
            !small.is_subset(&low),
            "a spilled index is not in an inline-only set"
        );
        let mut cleared = big.clone();
        cleared.clear();
        assert!(cleared.is_empty() && cleared == BitSet::new());
    }
}
