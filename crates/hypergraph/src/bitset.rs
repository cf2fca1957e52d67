//! A compact, fixed-capacity bit set used for adjacency rows and vertex sets.
//!
//! Graph algorithms in this workspace spend most of their time testing and
//! merging vertex sets, so the representation is a plain `Vec<u64>` with
//! branch-free word operations (see the Rust Performance Book's advice on
//! keeping hot data dense).

/// A set of `usize` values in `0..capacity`, stored one bit per value.
///
/// All binary operations (`union_with`, `intersect_with`, …) require both
/// operands to have the same capacity; this is an invariant of the graph
/// code, enforced with debug assertions.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

const BITS: usize = 64;

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(BITS)],
            capacity,
        }
    }

    /// Creates a set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// Builds a set from an iterator of elements.
    pub fn from_iter<I: IntoIterator<Item = usize>>(capacity: usize, iter: I) -> Self {
        let mut s = Self::new(capacity);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// The exclusive upper bound on storable values.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `v`, returning `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, v: usize) -> bool {
        debug_assert!(v < self.capacity);
        let (b, m) = (v / BITS, 1u64 << (v % BITS));
        let fresh = self.blocks[b] & m == 0;
        self.blocks[b] |= m;
        fresh
    }

    /// Removes `v`, returning `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: usize) -> bool {
        debug_assert!(v < self.capacity);
        let (b, m) = (v / BITS, 1u64 << (v % BITS));
        let present = self.blocks[b] & m != 0;
        self.blocks[b] &= !m;
        present
    }

    /// Tests membership of `v`.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        debug_assert!(v < self.capacity);
        self.blocks[v / BITS] & (1u64 << (v % BITS)) != 0
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `true` iff the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// Makes `self` an exact copy of `other`, reusing the existing block
    /// allocation whenever it is large enough (a `clone_from` that scratch
    /// buffers can rely on not to allocate in the steady state).
    pub fn copy_from(&mut self, other: &BitSet) {
        self.blocks.clear();
        self.blocks.extend_from_slice(&other.blocks);
        self.capacity = other.capacity;
    }

    /// Empties the set and re-dimensions it for values in `0..capacity`,
    /// reusing the existing block allocation whenever possible.
    pub fn reset(&mut self, capacity: usize) {
        self.blocks.clear();
        self.blocks.resize(capacity.div_ceil(BITS), 0);
        self.capacity = capacity;
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= *b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= *b;
        }
    }

    /// In-place difference: `self −= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !*b;
        }
    }

    /// `true` iff `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.blocks.iter().zip(&other.blocks).all(|(a, b)| a & !b == 0)
    }

    /// `true` iff the sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.blocks.iter().zip(&other.blocks).all(|(a, b)| a & b == 0)
    }

    /// Size of the intersection, without materialising it.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Count of elements in `self` that are *not* in `other`.
    pub fn difference_len(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Smallest element, if any.
    pub fn min(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The raw 64-bit blocks (low to high) — used as a compact hash key.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// The raw 64-bit blocks, mutably. Callers must leave bits at or above
    /// `capacity` clear.
    #[inline]
    pub(crate) fn blocks_mut(&mut self) -> &mut [u64] {
        &mut self.blocks
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::over_blocks(&self.blocks)
    }

    /// Collects the elements into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is one past the maximum element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().copied().max().map_or(0, |m| m + 1);
        BitSet::from_iter(cap, items)
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
#[derive(Clone)]
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl<'a> Iter<'a> {
    /// Iterates over the set bits of raw 64-bit blocks (low to high), laid
    /// out as in [`BitSet::blocks`].
    pub fn over_blocks(blocks: &'a [u64]) -> Self {
        Iter {
            blocks,
            block_idx: 0,
            current: blocks.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.block_idx * BITS + tz);
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_order_is_sorted() {
        let s = BitSet::from_iter(200, [150, 3, 64, 63, 65, 0]);
        assert_eq!(s.to_vec(), vec![0, 3, 63, 64, 65, 150]);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(100, [1, 2, 3, 70]);
        let b = BitSet::from_iter(100, [2, 3, 4, 71]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 4, 70, 71]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![2, 3]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 70]);
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.difference_len(&b), 2);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert!(s.contains(66));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
    }

    #[test]
    fn disjoint() {
        let a = BitSet::from_iter(10, [1, 3]);
        let b = BitSet::from_iter(10, [2, 4]);
        assert!(a.is_disjoint(&b));
        let c = BitSet::from_iter(10, [3]);
        assert!(!a.is_disjoint(&c));
    }

    #[test]
    fn empty_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
