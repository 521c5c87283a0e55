//! The classical sequential in-place baseline (Fich, Munro, Poblete).
//!
//! Section 1.2 of the paper: for data permuted *from sorted order*, the
//! FMP cycle-leader algorithm permutes in place in
//! `O(N · (τ_π + τ_π⁻¹))` time using the inverse permutation to detect
//! cycle minima — but it is inherently sequential (cycle walks cannot be
//! split), which is exactly the gap the paper's parallel algorithms
//! close. We expose it as a baseline and as a
//! correctness cross-check: it derives the permutation from the
//! closed-form position maps rather than from the involution/gather
//! structure, so agreement is strong evidence both are right.

use crate::Layout;
use ist_layout::{
    bst_pos, bst_pos_inv, complete::BtreeCompleteShape, veb_pos, veb_pos_inv, CompleteShape,
};
use ist_perm::permute_sorted_in_place;

/// Permute sorted `data` into `layout` in place, **sequentially**, with
/// the Fich–Munro–Poblete cycle-leader algorithm driven by the
/// closed-form position maps.
///
/// Produces exactly the same array as
/// [`crate::permute_in_place`] / [`crate::permute_in_place_seq`].
///
/// # Examples
/// ```
/// use ist_core::{fich_baseline, permute_in_place_seq, Algorithm, Layout};
/// let mut a: Vec<u32> = (0..1000).collect();
/// let mut b = a.clone();
/// fich_baseline(&mut a, Layout::Veb).unwrap();
/// permute_in_place_seq(&mut b, Layout::Veb, Algorithm::CycleLeader).unwrap();
/// assert_eq!(a, b);
/// ```
pub fn fich_baseline<T>(data: &mut [T], layout: Layout) -> Result<(), crate::Error> {
    let n = data.len();
    if n <= 1 {
        if matches!(layout, Layout::Btree { b: 0 }) {
            return Err(crate::Error::ZeroNodeCapacity);
        }
        return Ok(());
    }
    match layout {
        Layout::Bst => {
            let shape = CompleteShape::new(n);
            permute_sorted_in_place(
                data,
                |i| shape.pos(i, bst_pos),
                |i| shape.pos_inv(i, bst_pos_inv),
            );
        }
        Layout::Veb => {
            let shape = CompleteShape::new(n);
            permute_sorted_in_place(
                data,
                |i| shape.pos(i, veb_pos),
                |i| shape.pos_inv(i, veb_pos_inv),
            );
        }
        Layout::Btree { b } => {
            if b == 0 {
                return Err(crate::Error::ZeroNodeCapacity);
            }
            let shape = BtreeCompleteShape::new(n, b);
            permute_sorted_in_place(data, |i| shape.pos(i), |i| shape.pos_inv(i));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{permute_in_place_seq, Algorithm};

    #[test]
    fn matches_paper_algorithms_everywhere() {
        for n in [1usize, 2, 7, 26, 63, 100, 511, 1000, 4095] {
            for layout in [Layout::Bst, Layout::Btree { b: 3 }, Layout::Veb] {
                let sorted: Vec<u64> = (0..n as u64).collect();
                let mut fich = sorted.clone();
                fich_baseline(&mut fich, layout).unwrap();
                let mut ours = sorted.clone();
                permute_in_place_seq(&mut ours, layout, Algorithm::Involution).unwrap();
                assert_eq!(fich, ours, "n={n} {layout:?}");
            }
        }
    }

    #[test]
    fn rejects_zero_b() {
        let mut v = vec![1u8, 2];
        assert!(fich_baseline(&mut v, Layout::Btree { b: 0 }).is_err());
    }
}
