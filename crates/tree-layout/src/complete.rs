//! Geometry of **complete** (non-perfect) trees and the "perfect prefix +
//! overflow leaves" layout format used by the Chapter-5 extensions.
//!
//! Sorted input of arbitrary size `N` always forms a *complete* tree: all
//! levels full except the last, which is filled left to right. Following
//! the paper, construction first separates the `L` elements of the non-full
//! last level (the **overflow leaves**) from the `I` elements of the full
//! levels, permutes the full part as a perfect tree, and stores the
//! overflow leaves — still sorted — in the array's suffix:
//!
//! ```text
//! [ perfect layout of the I full elements | L overflow leaves, sorted ]
//! ```
//!
//! Queries descend the perfect part and, on falling off at in-order gap
//! `g`, probe the overflow suffix (gap `g` hosts overflow content iff it is
//! among the leftmost gaps). This module provides the index maps for both
//! the binary case (BST / vEB) and the multiway case (B-tree).

use ist_bits::{ilog, ilog2_floor};

/// Split of a complete **binary** tree of `n` keys into full levels and
/// overflow leaves.
///
/// # Examples
/// ```
/// use ist_layout::CompleteShape;
/// let s = CompleteShape::new(10); // full tree 7, overflow 3
/// assert_eq!(s.full_count(), 7);
/// assert_eq!(s.overflow(), 3);
/// assert_eq!(s.full_levels(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteShape {
    n: usize,
    full_levels: u32,
}

impl CompleteShape {
    /// Shape for `n ≥ 1` keys.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        // Largest h with 2^h - 1 <= n; when n is perfect this yields
        // L = 0 because n + 1 = 2^h exactly.
        let h = ilog2_floor(n as u64 + 1);
        Self { n, full_levels: h }
    }

    /// Total number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff there are no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of levels in the full (perfect) part.
    #[inline]
    pub fn full_levels(&self) -> u32 {
        self.full_levels
    }

    /// Number of keys in the full part: `2^full_levels − 1`.
    #[inline]
    pub fn full_count(&self) -> usize {
        (1usize << self.full_levels) - 1
    }

    /// Number of overflow (non-full level) keys.
    #[inline]
    pub fn overflow(&self) -> usize {
        self.n - self.full_count()
    }

    /// `true` iff the tree is perfect (no overflow).
    #[inline]
    pub fn is_perfect(&self) -> bool {
        self.overflow() == 0
    }

    /// Is the key at this sorted position an overflow leaf?
    ///
    /// The `L` overflow leaves occupy the even sorted positions
    /// `0, 2, …, 2(L−1)` (the leftmost leaves visited first by the
    /// in-order traversal).
    #[inline]
    pub fn is_overflow(&self, sorted: usize) -> bool {
        sorted < 2 * self.overflow() && sorted.is_multiple_of(2)
    }

    /// Rank of a *full* element within the full tree's sorted order.
    ///
    /// # Panics
    /// Debug-asserts the position is not an overflow leaf.
    #[inline]
    pub fn full_rank(&self, sorted: usize) -> usize {
        debug_assert!(!self.is_overflow(sorted));
        let l = self.overflow();
        if sorted < 2 * l {
            (sorted - 1) / 2
        } else {
            sorted - l
        }
    }

    /// Rank of an overflow leaf among the overflow leaves.
    #[inline]
    pub fn overflow_rank(&self, sorted: usize) -> usize {
        debug_assert!(self.is_overflow(sorted));
        sorted / 2
    }

    /// Full layout map for the complete tree, parameterized by the perfect
    /// map used for the full part (BST or vEB): sorted → layout position.
    ///
    /// # Examples
    /// ```
    /// use ist_layout::{bst_pos, CompleteShape};
    /// let s = CompleteShape::new(10);
    /// // Overflow leaf at sorted 0 goes to layout 7 + 0.
    /// assert_eq!(s.pos(0, bst_pos), 7);
    /// // Full element at sorted 1 has full rank 0.
    /// assert_eq!(s.pos(1, bst_pos), bst_pos(3, 0));
    /// ```
    pub fn pos(&self, sorted: usize, perfect: impl Fn(u32, usize) -> usize) -> usize {
        if self.is_overflow(sorted) {
            self.full_count() + self.overflow_rank(sorted)
        } else {
            perfect(self.full_levels, self.full_rank(sorted))
        }
    }
}

/// Split of a complete **B-tree** of `n` keys into the perfect part and
/// overflow leaves.
///
/// Overflow structure: `L = q·B + s` overflow keys form `q` full overflow
/// leaf nodes plus one partial node of `s` keys; overflow node `j` hangs
/// in in-order gap `j` of the full tree.
///
/// # Examples
/// ```
/// use ist_layout::complete::BtreeCompleteShape;
/// let s = BtreeCompleteShape::new(30, 2); // full 3-ary tree of 26 + 4 overflow
/// assert_eq!(s.full_count(), 26);
/// assert_eq!(s.overflow(), 4);
/// assert_eq!(s.full_overflow_nodes(), 2);
/// assert_eq!(s.partial_node_len(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtreeCompleteShape {
    n: usize,
    b: usize,
    full_node_levels: u32,
}

impl BtreeCompleteShape {
    /// Shape for `n ≥ 1` keys, `b ≥ 1` keys per node.
    pub fn new(n: usize, b: usize) -> Self {
        assert!(n >= 1 && b >= 1);
        let k = (b + 1) as u64;
        let m = ilog(k, n as u64 + 1);
        Self {
            n,
            b,
            full_node_levels: m,
        }
    }

    /// Total number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff there are no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Keys per node.
    #[inline]
    pub fn b(&self) -> usize {
        self.b
    }

    /// Node levels of the full (perfect) part.
    #[inline]
    pub fn full_node_levels(&self) -> u32 {
        self.full_node_levels
    }

    /// Keys in the full part: `(B+1)^m − 1`.
    #[inline]
    pub fn full_count(&self) -> usize {
        (self.b + 1).pow(self.full_node_levels) - 1
    }

    /// Number of overflow keys `L`.
    #[inline]
    pub fn overflow(&self) -> usize {
        self.n - self.full_count()
    }

    /// `true` iff the tree is perfect.
    #[inline]
    pub fn is_perfect(&self) -> bool {
        self.overflow() == 0
    }

    /// Number of *full* overflow leaf nodes `q = ⌊L/B⌋`.
    #[inline]
    pub fn full_overflow_nodes(&self) -> usize {
        self.overflow() / self.b
    }

    /// Keys in the final partial overflow node `s = L mod B`.
    #[inline]
    pub fn partial_node_len(&self) -> usize {
        self.overflow() % self.b
    }

    /// Is the key at this sorted position an overflow key?
    ///
    /// Overflow keys occupy sorted positions `j(B+1)+c` for `j < q`,
    /// `c < B`, plus `q(B+1)..q(B+1)+s`.
    #[inline]
    pub fn is_overflow(&self, sorted: usize) -> bool {
        let k = self.b + 1;
        let q = self.full_overflow_nodes();
        if sorted < q * k {
            sorted % k != self.b
        } else {
            sorted < q * k + self.partial_node_len()
        }
    }

    /// Rank of a full element within the full tree's sorted order.
    #[inline]
    pub fn full_rank(&self, sorted: usize) -> usize {
        debug_assert!(!self.is_overflow(sorted));
        let k = self.b + 1;
        let q = self.full_overflow_nodes();
        if sorted < q * k {
            sorted / k
        } else {
            sorted - self.overflow()
        }
    }

    /// Rank of an overflow key among the overflow keys (its offset in the
    /// layout's overflow suffix).
    #[inline]
    pub fn overflow_rank(&self, sorted: usize) -> usize {
        debug_assert!(self.is_overflow(sorted));
        let k = self.b + 1;
        let q = self.full_overflow_nodes();
        if sorted < q * k {
            sorted - sorted / k
        } else {
            sorted - q
        }
    }

    /// Full layout map: sorted → layout position
    /// (`[perfect B-tree layout | overflow keys]`).
    pub fn pos(&self, sorted: usize) -> usize {
        if self.is_overflow(sorted) {
            self.full_count() + self.overflow_rank(sorted)
        } else {
            crate::btree::btree_pos(self.b, self.full_node_levels, self.full_rank(sorted))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bst::bst_pos;
    use crate::veb::veb_pos;

    #[test]
    fn binary_partition_is_consistent() {
        for n in 1..600usize {
            let s = CompleteShape::new(n);
            assert!(s.full_count() <= n);
            assert!(s.overflow() <= s.full_count() + 1);
            // Full and overflow ranks each count up from 0 in sorted order.
            let mut full = 0;
            let mut over = 0;
            for i in 0..n {
                if s.is_overflow(i) {
                    assert_eq!(s.overflow_rank(i), over, "n={n} i={i}");
                    over += 1;
                } else {
                    assert_eq!(s.full_rank(i), full, "n={n} i={i}");
                    full += 1;
                }
            }
            assert_eq!(full, s.full_count(), "n={n}");
            assert_eq!(over, s.overflow(), "n={n}");
        }
    }

    #[test]
    fn binary_full_ranks_are_order_preserving() {
        let s = CompleteShape::new(100);
        let fulls: Vec<usize> = (0..100).filter(|&i| !s.is_overflow(i)).collect();
        for (f, &i) in fulls.iter().enumerate() {
            assert_eq!(s.full_rank(i), f);
        }
    }

    #[test]
    fn binary_pos_is_permutation() {
        for n in [1usize, 2, 3, 7, 8, 20, 63, 64, 100, 255, 300] {
            let s = CompleteShape::new(n);
            let mut seen = vec![false; n];
            for i in 0..n {
                let p = s.pos(i, bst_pos);
                assert!(!seen[p], "n={n} collision at {p}");
                seen[p] = true;
            }
            // Also exercises the vEB variant.
            let mut seen = vec![false; n];
            for i in 0..n {
                let p = s.pos(i, veb_pos);
                assert!(!seen[p]);
                seen[p] = true;
            }
        }
    }

    #[test]
    fn btree_partition_is_consistent() {
        for b in [1usize, 2, 3, 8] {
            for n in 1..400usize {
                let s = BtreeCompleteShape::new(n, b);
                let (mut full, mut over) = (0, 0);
                for i in 0..n {
                    if s.is_overflow(i) {
                        assert_eq!(s.overflow_rank(i), over, "n={n} b={b} i={i}");
                        over += 1;
                    } else {
                        assert_eq!(s.full_rank(i), full, "n={n} b={b} i={i}");
                        full += 1;
                    }
                }
                assert_eq!(full, s.full_count(), "n={n} b={b}");
                assert_eq!(over, s.overflow(), "n={n} b={b}");
            }
        }
    }

    #[test]
    fn btree_pos_is_permutation() {
        for b in [1usize, 2, 4] {
            for n in [1usize, 5, 26, 27, 30, 79, 80, 81, 200] {
                let s = BtreeCompleteShape::new(n, b);
                let mut seen = vec![false; n];
                for i in 0..n {
                    let p = s.pos(i);
                    assert!(!seen[p], "n={n} b={b} collision at {p}");
                    seen[p] = true;
                }
            }
        }
    }

    #[test]
    fn perfect_sizes_have_no_overflow() {
        assert!(CompleteShape::new(127).is_perfect());
        assert!(!CompleteShape::new(128).is_perfect());
        assert!(BtreeCompleteShape::new(26, 2).is_perfect());
        assert!(!BtreeCompleteShape::new(25, 2).is_perfect());
    }

    #[test]
    fn overflow_keys_sorted_in_suffix() {
        // Overflow ranks must be increasing in sorted order so the suffix
        // stays sorted (queries binary-probe it by gap index).
        let s = BtreeCompleteShape::new(100, 3);
        let mut last = None;
        for i in 0..100 {
            if s.is_overflow(i) {
                let r = s.overflow_rank(i);
                if let Some(prev) = last {
                    assert_eq!(r, prev + 1);
                }
                last = Some(r);
            }
        }
    }
}
