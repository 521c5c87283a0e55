//! BST (level-order / breadth-first) layout position maps.
//!
//! A perfect BST on `N = 2^d − 1` keys stores the root at layout index 0
//! and the children of layout index `v` at `2v + 1` and `2v + 2`.
//!
//! The map from sorted order is the classical observation of Fich, Munro
//! and Poblete: writing a 1-indexed in-order position as `i = (x 1 0^j)₂`
//! (so `j = trailing_zeros(i)` is the node's height above the leaves and
//! `x` its rank within its level), the 1-indexed level-order position is
//! `π(i) = (0^j 1 x)₂ = 2^{d−1−j} + x`. Equivalently
//! `π(i) = rev₂(d − (j+1), rev₂(d, i))` — the two-involution form the
//! in-place algorithm applies.

/// Sorted position (0-indexed) → level-order layout position (0-indexed)
/// for a perfect BST with `d` levels.
///
/// # Examples
/// ```
/// use ist_layout::bst_pos;
/// // N = 7, sorted [1..7]: layout is [4, 2, 6, 1, 3, 5, 7] (values), i.e.
/// // sorted index 3 (the median) is the root at layout index 0.
/// assert_eq!(bst_pos(3, 3), 0);
/// assert_eq!(bst_pos(3, 1), 1);
/// assert_eq!(bst_pos(3, 5), 2);
/// assert_eq!(bst_pos(3, 0), 3);
/// ```
#[inline]
pub fn bst_pos(d: u32, sorted: usize) -> usize {
    let i = (sorted + 1) as u64; // 1-indexed in-order position
    debug_assert!(i < (1u64 << d), "index out of tree");
    let j = i.trailing_zeros(); // height above leaf level
    let x = i >> (j + 1); // rank within level
    ((1u64 << (d - 1 - j)) + x - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_bits::{rev2, rev_k};

    /// In-order traversal reference: build the layout by recursion.
    fn reference_layout(d: u32) -> Vec<usize> {
        let n = (1usize << d) - 1;
        let mut layout = vec![usize::MAX; n];
        // Assign sorted ranks by in-order traversal of the implicit heap.
        fn go(v: usize, n: usize, next: &mut usize, layout: &mut [usize]) {
            if v >= n {
                return;
            }
            go(2 * v + 1, n, next, layout);
            layout[v] = *next; // node v holds sorted rank *next
            *next += 1;
            go(2 * v + 2, n, next, layout);
        }
        let mut next = 0;
        go(0, n, &mut next, &mut layout);
        layout
    }

    #[test]
    fn matches_inorder_reference() {
        for d in 1..=12u32 {
            let layout = reference_layout(d);
            let n = layout.len();
            for (v, &in_order) in layout.iter().enumerate().take(n) {
                assert_eq!(bst_pos(d, in_order), v, "d={d} node={v}");
            }
        }
    }

    #[test]
    fn equals_two_involution_form() {
        // π(i) (1-indexed) = rev₂(d−(j+1), rev₂(d, i)) per Fich et al.
        for d in 1..=12u32 {
            let n = (1u64 << d) - 1;
            for i in 1..=n {
                let j = i.trailing_zeros();
                let once = rev2(d, i);
                let twice = rev_k(2, d - (j + 1), once);
                assert_eq!(
                    bst_pos(d, (i - 1) as usize),
                    (twice - 1) as usize,
                    "d={d} i={i}"
                );
            }
        }
    }

    #[test]
    fn children_are_adjacent_ranges() {
        // Left child keys all smaller, right child keys all larger.
        let d = 10u32;
        let n = (1usize << d) - 1;
        let mut rank_at = vec![0; n];
        for i in 0..n {
            rank_at[bst_pos(d, i)] = i;
        }
        for v in 0..(n - 1) / 2 {
            let me = rank_at[v];
            let lc = rank_at[2 * v + 1];
            let rc = rank_at[2 * v + 2];
            assert!(lc < me && me < rc, "v={v}");
        }
    }
}
