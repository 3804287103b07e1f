//! Dense bitset state sets.
//!
//! A [`StateSet`] represents a subset of the state space `0..n` as packed
//! `u64` blocks: membership is one shift-and-mask, intersection and
//! subset tests are word-wide AND, and iteration walks set bits with
//! `trailing_zeros`. The transition engine ([`crate::FiniteSystem`]) uses
//! it for initial states, reachability closures, and legitimate sets,
//! replacing the `BTreeSet<usize>` representation (now retained only as
//! the oracle `ReferenceSystem` in the test-only `graybox-oracles`
//! crate).

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

const BLOCK_BITS: usize = 64;

/// A set of states (small `usize` indices) stored as a dense bitset.
///
/// Equality ignores trailing zero blocks, so sets built with different
/// capacities compare by membership alone.
///
/// # Example
///
/// ```
/// use graybox_core::StateSet;
///
/// let set: StateSet = [3, 0, 7].into_iter().collect();
/// assert!(set.contains(3) && set.contains(&7));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 7]);
/// assert_eq!(set.len(), 3);
/// ```
#[derive(Clone, Default, Eq)]
pub struct StateSet {
    blocks: Vec<u64>,
}

impl StateSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StateSet::default()
    }

    /// Creates an empty set preallocated for states `0..num_states`.
    pub fn with_capacity(num_states: usize) -> Self {
        StateSet {
            blocks: vec![0; num_states.div_ceil(BLOCK_BITS)],
        }
    }

    /// Inserts `state`; returns `true` if it was not already present.
    pub fn insert(&mut self, state: usize) -> bool {
        let block = state / BLOCK_BITS;
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << (state % BLOCK_BITS);
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Removes `state`; returns `true` if it was present.
    pub fn remove(&mut self, state: usize) -> bool {
        let block = state / BLOCK_BITS;
        if block >= self.blocks.len() {
            return false;
        }
        let mask = 1u64 << (state % BLOCK_BITS);
        let present = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        present
    }

    /// Membership test. Accepts `usize` or `&usize`, like the `BTreeSet`
    /// API this type replaced.
    pub fn contains(&self, state: impl Borrow<usize>) -> bool {
        let state = *state.borrow();
        self.blocks
            .get(state / BLOCK_BITS)
            .is_some_and(|block| block & (1u64 << (state % BLOCK_BITS)) != 0)
    }

    /// Number of states in the set.
    pub fn len(&self) -> usize {
        self.blocks
            .iter()
            .map(|block| block.count_ones() as usize)
            .sum()
    }

    /// True when no state is in the set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&block| block == 0)
    }

    /// Removes all states, keeping the allocation.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Iterates the states in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: &self.blocks,
            block_index: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// True when every state of `self` is in `other`.
    pub fn is_subset(&self, other: &StateSet) -> bool {
        self.blocks
            .iter()
            .enumerate()
            .all(|(i, &block)| block & !other.blocks.get(i).copied().unwrap_or(0) == 0)
    }

    /// The states present in both sets.
    pub fn intersection(&self, other: &StateSet) -> StateSet {
        let blocks = self
            .blocks
            .iter()
            .zip(&other.blocks)
            .map(|(&a, &b)| a & b)
            .collect();
        StateSet { blocks }
    }

    /// Crate-internal: wraps raw `u64` blocks (bit `i` of block `b`
    /// encodes state `b * 64 + i`) without copying. The sharded GCL
    /// compiler assembles init sets this way: its chunks start at
    /// multiples of 64 and all but the last span whole blocks, so the
    /// chunks' blocks laid end to end form the global set.
    pub(crate) fn from_blocks(blocks: Vec<u64>) -> StateSet {
        StateSet { blocks }
    }

    /// Adds every state of `other` to `self`.
    pub fn union_with(&mut self, other: &StateSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (mine, &theirs) in self.blocks.iter_mut().zip(&other.blocks) {
            *mine |= theirs;
        }
    }
}

impl PartialEq for StateSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.blocks.len() <= other.blocks.len() {
            (&self.blocks, &other.blocks)
        } else {
            (&other.blocks, &self.blocks)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&block| block == 0)
    }
}

impl PartialEq<BTreeSet<usize>> for StateSet {
    fn eq(&self, other: &BTreeSet<usize>) -> bool {
        self.len() == other.len() && other.iter().all(|&s| self.contains(s))
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for StateSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = StateSet::new();
        for state in iter {
            set.insert(state);
        }
        set
    }
}

impl Extend<usize> for StateSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for state in iter {
            self.insert(state);
        }
    }
}

impl<'a> IntoIterator for &'a StateSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over the states of a [`StateSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.block_index += 1;
            self.current = *self.blocks.get(self.block_index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.block_index * BLOCK_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut set = StateSet::new();
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.contains(5) && set.contains(5));
        assert!(!set.contains(4));
        assert!(set.remove(5));
        assert!(!set.remove(5));
        assert!(set.is_empty());
    }

    #[test]
    fn iteration_is_ascending_across_blocks() {
        let states = [0usize, 63, 64, 65, 127, 128, 300];
        let set: StateSet = states.into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), states.to_vec());
        assert_eq!(set.len(), states.len());
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = StateSet::with_capacity(1000);
        a.insert(3);
        let b: StateSet = [3].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(b, a);
        a.insert(999);
        assert_ne!(a, b);
    }

    #[test]
    fn equality_against_btreeset() {
        let set: StateSet = [1, 2, 70].into_iter().collect();
        assert_eq!(set, BTreeSet::from([1, 2, 70]));
        assert!(set != BTreeSet::from([1, 2]));
        assert!(set != BTreeSet::from([1, 2, 71]));
    }

    #[test]
    fn subset_and_intersection() {
        let small: StateSet = [1, 65].into_iter().collect();
        let big: StateSet = [1, 2, 65, 130].into_iter().collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert_eq!(big.intersection(&small), small);
        // Subset across different block counts.
        let tall: StateSet = [1, 65, 500].into_iter().collect();
        assert!(!tall.is_subset(&big));
        assert!(small.is_subset(&tall));
    }

    #[test]
    fn union_with_grows() {
        let mut a: StateSet = [1].into_iter().collect();
        let b: StateSet = [200].into_iter().collect();
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(200));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn debug_prints_as_a_set() {
        let set: StateSet = [2, 0].into_iter().collect();
        assert_eq!(format!("{set:?}"), "{0, 2}");
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut set: StateSet = (0..100).collect();
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }
}
