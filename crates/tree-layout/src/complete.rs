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
//! among the leftmost gaps). One type, [`CompleteShape`], provides the
//! index maps for every layout: the B-tree's `(B+1)`-ary tree, and the
//! binary tree of BST and vEB as the B-tree with `b = 1`.

/// Split of a complete `(b+1)`-ary tree of `n` keys — `b` keys per node,
/// `b = 1` for BST and vEB — into the perfect part and overflow leaves.
///
/// Overflow structure: `L = q·B + s` overflow keys form `q` full overflow
/// leaf nodes plus one partial node of `s` keys; overflow node `j` hangs
/// in in-order gap `j` of the full tree.
///
/// # Examples
/// ```
/// use ist_layout::CompleteShape;
/// let s = CompleteShape::new(30, 2); // full 3-ary tree of 26 + 4 overflow
/// assert_eq!(s.full_count(), 26);
/// assert_eq!(s.overflow(), 4);
/// assert_eq!(s.full_overflow_nodes(), 2);
/// assert_eq!(s.partial_node_len(), 0);
/// let s = CompleteShape::new(10, 1); // full binary tree of 7 + 3 overflow
/// assert_eq!(s.full_node_levels(), 3);
/// assert_eq!(s.overflow(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteShape {
    n: usize,
    b: usize,
    full_node_levels: u32,
    /// Keys in the full part, `(b+1)^full_node_levels − 1`.
    full: usize,
}

impl CompleteShape {
    /// Shape for `n ≥ 1` keys, `b ≥ 1` keys per node.
    ///
    /// The fan-out `b + 1` saturates: no array fills a node of
    /// `usize::MAX` keys, so every `b ≥ n` is a tree with no full level.
    #[inline]
    pub fn new(n: usize, b: usize) -> Self {
        assert!(n >= 1 && b >= 1);
        // Largest m with (b+1)^m − 1 ≤ n; a perfect n gives L = 0.
        let (full_node_levels, full) = if b == 1 {
            let m = (n + 1).ilog2();
            (m, (1 << m) - 1)
        } else {
            let k = b.saturating_add(1);
            let m = (n + 1).ilog(k);
            (m, k.pow(m) - 1)
        };
        Self {
            n,
            b,
            full_node_levels,
            full,
        }
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
        self.full
    }

    /// Number of overflow keys `L`.
    #[inline]
    pub fn overflow(&self) -> usize {
        self.n - self.full
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
        let k = self.b.saturating_add(1);
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
        let k = self.b.saturating_add(1);
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
        let k = self.b.saturating_add(1);
        let q = self.full_overflow_nodes();
        if sorted < q * k {
            sorted - sorted / k
        } else {
            sorted - q
        }
    }

    /// Full layout map, sorted → layout position
    /// (`[perfect layout | overflow keys]`), parameterized by the map of
    /// the perfect part, `perfect(levels, full_rank)`: [`crate::bst_pos`]
    /// or [`crate::veb_pos`] at `b = 1`, [`crate::btree_pos`] with this
    /// `b` otherwise.
    ///
    /// # Examples
    /// ```
    /// use ist_layout::{bst_pos, btree_pos, CompleteShape};
    /// let s = CompleteShape::new(10, 1);
    /// // Overflow leaf at sorted 0 goes to layout 7 + 0.
    /// assert_eq!(s.pos(0, bst_pos), 7);
    /// // Full element at sorted 1 has full rank 0.
    /// assert_eq!(s.pos(1, bst_pos), bst_pos(3, 0));
    /// let s = CompleteShape::new(30, 2);
    /// assert_eq!(s.pos(2, |m, r| btree_pos(2, m, r)), btree_pos(2, 3, 0));
    /// ```
    #[inline]
    pub fn pos(&self, sorted: usize, perfect: impl Fn(u32, usize) -> usize) -> usize {
        if self.is_overflow(sorted) {
            self.full + self.overflow_rank(sorted)
        } else {
            perfect(self.full_node_levels, self.full_rank(sorted))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bst::bst_pos;
    use crate::btree::btree_pos;
    use crate::veb::veb_pos;

    /// The perfect maps a shape with `b` keys per node is laid out with.
    fn perfect_maps(b: usize) -> Vec<Box<dyn Fn(u32, usize) -> usize>> {
        let btree: Box<dyn Fn(u32, usize) -> usize> = Box::new(move |m, r| btree_pos(b, m, r));
        if b == 1 {
            vec![Box::new(bst_pos), Box::new(veb_pos), btree]
        } else {
            vec![btree]
        }
    }

    #[test]
    fn btree_partition_is_consistent() {
        for (b, sizes) in [(1usize, 1..600usize), (2, 1..400), (3, 1..400), (8, 1..400)] {
            for n in sizes {
                let s = CompleteShape::new(n, b);
                assert!(s.full_count() <= n);
                // At most one overflow node per in-order gap.
                assert!(s.overflow() <= (s.full_count() + 1) * b, "n={n} b={b}");
                // Full and overflow ranks each count up from 0 in sorted order.
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
            for n in [
                1usize, 2, 3, 5, 7, 8, 20, 26, 27, 30, 63, 64, 79, 80, 81, 100, 200, 255, 300,
            ] {
                let s = CompleteShape::new(n, b);
                for perfect in perfect_maps(b) {
                    let mut seen = vec![false; n];
                    for i in 0..n {
                        let p = s.pos(i, &perfect);
                        assert!(!seen[p], "n={n} b={b} collision at {p}");
                        seen[p] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn perfect_sizes_have_no_overflow() {
        assert!(CompleteShape::new(127, 1).is_perfect());
        assert!(!CompleteShape::new(128, 1).is_perfect());
        assert!(CompleteShape::new(26, 2).is_perfect());
        assert!(!CompleteShape::new(25, 2).is_perfect());
    }

    /// A node of `b ≥ n` keys holds the whole array in order: one full
    /// node at `b = n`, no full level above it. The fan-out of
    /// `b = usize::MAX` saturates.
    #[test]
    fn node_capacity_at_least_n_is_the_identity() {
        for n in [1usize, 2, 10] {
            for b in [n, n + 1, 1 << 40, usize::MAX - 1, usize::MAX] {
                let s = CompleteShape::new(n, b);
                let levels = u32::from(b == n);
                assert_eq!(s.full_node_levels(), levels, "n={n} b={b}");
                assert_eq!(s.full_count() + s.overflow(), n, "n={n} b={b}");
                let perfect = |m, r| btree_pos(b, m, r);
                assert!((0..n).all(|i| s.pos(i, perfect) == i), "n={n} b={b}");
            }
        }
    }

    #[test]
    fn overflow_keys_sorted_in_suffix() {
        // Overflow ranks must be increasing in sorted order so the suffix
        // stays sorted (queries binary-probe it by gap index).
        let s = CompleteShape::new(100, 3);
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
