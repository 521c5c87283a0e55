//! Out-of-place reference permutation — the oracle every in-place
//! algorithm is validated against.
//!
//! This is the trivial `A[i] → B[π(i)]` construction the paper cites as
//! the non-in-place baseline; `π` comes from the closed-form position maps
//! in `ist-layout` (including the complete-tree extension).

use crate::Layout;
use ist_layout::{bst_pos, btree_pos, veb_pos, CompleteShape};

/// Compute the layout permutation of sorted `data` **out of place**.
///
/// Works for any input size (non-perfect trees use the
/// `[perfect | overflow]` format of [`ist_layout::complete`]).
///
/// # Examples
/// ```
/// use ist_core::{reference_permutation, Layout};
/// let sorted: Vec<u32> = (1..=15).collect();
/// let veb = reference_permutation(&sorted, Layout::Veb);
/// assert_eq!(veb, vec![8, 4, 12, 2, 1, 3, 6, 5, 7, 10, 9, 11, 14, 13, 15]);
/// ```
pub fn reference_permutation<T: Clone>(data: &[T], layout: Layout) -> Vec<T> {
    let n = data.len();
    if n <= 1 {
        return data.to_vec();
    }
    let (b, perfect): (usize, Box<dyn Fn(u32, usize) -> usize>) = match layout {
        Layout::Bst => (1, Box::new(bst_pos)),
        Layout::Veb => (1, Box::new(veb_pos)),
        Layout::Btree { b } => {
            assert!(b >= 1, "B must be positive");
            (b, Box::new(move |m, r| btree_pos(b, m, r)))
        }
    };
    let shape = CompleteShape::new(n, b);
    ist_perm::apply_out_of_place(data, |i| shape.pos(i, &perfect))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bst_small() {
        let v: Vec<u32> = (1..=7).collect();
        assert_eq!(
            reference_permutation(&v, Layout::Bst),
            vec![4, 2, 6, 1, 3, 5, 7]
        );
    }

    #[test]
    fn btree_figure_1_2() {
        let v: Vec<u32> = (1..=26).collect();
        let out = reference_permutation(&v, Layout::Btree { b: 2 });
        assert_eq!(&out[..8], &[9, 18, 3, 6, 12, 15, 21, 24]);
        assert_eq!(&out[8..10], &[1, 2]);
    }

    #[test]
    fn nonperfect_has_sorted_overflow_suffix() {
        let n = 100usize;
        let v: Vec<u32> = (0..n as u32).collect();
        let out = reference_permutation(&v, Layout::Bst);
        let shape = CompleteShape::new(n, 1);
        let i = shape.full_count();
        let suffix = &out[i..];
        assert!(suffix.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(suffix.len(), shape.overflow());
    }
}
