//! Extensions to non-perfect (complete) trees — Chapter 5.
//!
//! Sorted input of arbitrary size forms a complete tree whose last level
//! holds `L` *overflow* leaves. Construction first moves those leaves, in
//! place, to the array's suffix, leaving the `I` full-level elements
//! sorted in the prefix; the perfect-tree algorithms then run on the
//! prefix. The resulting array format is
//!
//! ```text
//! [ perfect layout of I elements | L overflow leaves, sorted ]
//! ```
//!
//! which is exactly what [`ist_layout::complete`] describes and what
//! `ist-query` searches (on falling off the perfect tree at in-order gap
//! `g`, the query probes the overflow suffix).
//!
//! The stripping pass is implemented once, generically, in
//! [`crate::algorithms`] (so the PEM and GPU cost backends replay it
//! too); this module instantiates it on plain slices. In sorted order
//! the overflow region is `q` full leaf nodes of `B` keys, each followed
//! by one full-level key, then a partial node of `s < B` keys (`B = 1`,
//! `s = 0` for the binary layouts) — the extended equidistant gather's
//! pattern (§3.2) with an arbitrary run count. So the pass is
//! cycle-leader primitives only, no involution round: one extended gather
//! over the `q` runs (split by the leading base-`(B+1)` digit of `q` into
//! power-sized blocks plus a remainder), then circular shifts that move
//! the `L = qB + s` leaves past the rest of the array. Work
//! `O(L log_{B+1} L + N)`, depth `O(log_{B+1} L)` gather-and-shift rounds.
//!
//! **Documented deviation from the paper:** for the vEB layout the paper
//! re-interleaves overflow leaves into the recursive bottom subtrees so
//! that the final array is a pure vEB layout of the complete tree. We
//! instead keep the `[perfect | overflow]` format for all three layouts.
//! This preserves in-placeness, the cycle-leader family's work/depth
//! bounds, and query correctness, at the cost of one extra cache line
//! touched per query that ends in the suffix (README, "Array format for
//! arbitrary sizes").

use crate::algorithms;
use ist_layout::{complete::BtreeCompleteShape, CompleteShape};
use ist_machine::Ram;

/// Move the `L` overflow leaves of a complete **binary** tree to the
/// array suffix, leaving the `I` full elements sorted in the prefix.
/// They sit at even positions `0, 2, …, 2(L−1)`, each followed by its
/// parent: `L` runs of one key (see the module docs).
pub fn strip_overflow_binary<T: Send>(data: &mut [T], shape: CompleteShape, par: bool) {
    debug_assert_eq!(data.len(), shape.len());
    algorithms::strip_overflow_binary(&mut Ram::with_mode(data, par), shape);
}

/// Move the `L` overflow leaves of a complete **B-tree** to the array
/// suffix: `q = ⌊L/B⌋` full leaf nodes, each followed by one full-level
/// key, then `s = L mod B` leftover leaves (see the module docs).
pub fn strip_overflow_btree<T: Send>(data: &mut [T], shape: BtreeCompleteShape, par: bool) {
    debug_assert_eq!(data.len(), shape.len());
    algorithms::strip_overflow_btree(&mut Ram::with_mode(data, par), shape);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: stable partition into [full elements | overflow leaves].
    fn reference_binary(n: usize) -> Vec<usize> {
        let shape = CompleteShape::new(n);
        let mut out: Vec<usize> = (0..n).filter(|&i| !shape.is_overflow(i)).collect();
        out.extend((0..n).filter(|&i| shape.is_overflow(i)));
        out
    }

    fn reference_btree(n: usize, b: usize) -> Vec<usize> {
        let shape = BtreeCompleteShape::new(n, b);
        let mut out: Vec<usize> = (0..n).filter(|&i| !shape.is_overflow(i)).collect();
        out.extend((0..n).filter(|&i| shape.is_overflow(i)));
        out
    }

    /// Strip `0..n` sequentially and in parallel; both must equal the
    /// stable partition `expect`. (`assert!`, not `assert_eq!`: a failure
    /// at N ≈ 10^6 should print the case, not two arrays.)
    fn check(expect: &[usize], case: &str, strip: impl Fn(&mut [usize], bool)) {
        for par in [false, true] {
            let mut a: Vec<usize> = (0..expect.len()).collect();
            strip(&mut a, par);
            assert!(a == expect, "{case} par={par}");
        }
    }

    fn check_binary(n: usize) {
        let shape = CompleteShape::new(n);
        check(&reference_binary(n), &format!("binary n={n}"), |a, par| {
            strip_overflow_binary(a, shape, par)
        });
    }

    fn check_btree(n: usize, b: usize) {
        let shape = BtreeCompleteShape::new(n, b);
        check(
            &reference_btree(n, b),
            &format!("btree n={n} b={b}"),
            |a, par| strip_overflow_btree(a, shape, par),
        );
    }

    /// The smallest `n` whose complete `(b+1)`-ary tree has `q` full
    /// overflow leaf nodes and a partial one of `s` keys.
    fn btree_len(b: usize, q: usize, s: usize) -> usize {
        let (k, l) = (b + 1, q * b + s);
        let mut leaf_nodes = k; // nodes of the first level that can overflow
        while l >= leaf_nodes * b {
            leaf_nodes *= k;
        }
        let n = leaf_nodes - 1 + l;
        let shape = BtreeCompleteShape::new(n, b);
        assert_eq!(
            (shape.full_overflow_nodes(), shape.partial_node_len()),
            (q, s),
            "n={n} b={b}"
        );
        n
    }

    #[test]
    fn binary_all_sizes() {
        for n in 1..700usize {
            check_binary(n);
        }
    }

    #[test]
    fn btree_all_sizes() {
        for b in [1usize, 2, 3, 8] {
            let k = b + 1;
            for n in 1..(k.pow(3) + k.pow(2)).max(400) {
                check_btree(n, b);
            }
        }
    }

    /// Run counts chosen by their base-`(b+1)` digits — the extended
    /// gather splits on the leading digit and recurses on the rest —
    /// crossed with the partial-node lengths that do and do not need the
    /// extra shift.
    #[test]
    fn btree_run_counts_by_digit_pattern() {
        for b in [1usize, 2, 3, 8] {
            let k = b + 1;
            let mut qs = Vec::new();
            for j in 1..=5u32 {
                let p = k.pow(j);
                // 10…0 − 1, 10…0, 10…01, a0…0 (two values of a), b0…01,
                // and a second non-zero digit in the middle.
                let mid = p + k.pow(j / 2);
                qs.extend([p - 1, p, p + 1, 2.min(b) * p, b * p, b * p + 1, mid]);
            }
            qs.sort_unstable();
            qs.dedup();
            // Debug-build time: 9^5 runs of 8 keys is 0.5 M elements; the
            // multiples of 9^5 are left to `million_keys`.
            qs.retain(|q| q * k <= 600_000);
            let mut partials = vec![0, 1.min(b - 1), b - 1];
            partials.dedup();
            for &q in &qs {
                for &s in &partials {
                    check_btree(btree_len(b, q, s), b);
                }
            }
        }
    }

    /// One overflow leaf, and a last level one key short of full.
    #[test]
    fn extreme_overflow_counts() {
        for d in 1..=12u32 {
            check_binary(1 << d);
            check_binary((1 << (d + 1)) - 2);
        }
        for b in [1usize, 2, 3, 8] {
            let k = b + 1;
            for levels in 1..=4u32 {
                check_btree(k.pow(levels), b);
                check_btree(k.pow(levels + 1) - 2, b);
            }
        }
    }

    /// Large enough that the parallel `Ram` leaves its sequential
    /// grains: spawned task groups, parallel gathers and rotations.
    #[test]
    fn million_keys() {
        check_binary(1_000_000);
        check_btree(1_000_000, 8);
        check_btree(btree_len(8, 2 * 9usize.pow(5) + 9, 1), 8);
    }

    #[test]
    fn suffix_is_sorted_and_prefix_is_sorted() {
        let n = 12345usize;
        let shape = CompleteShape::new(n);
        let mut v: Vec<usize> = (0..n).collect();
        strip_overflow_binary(&mut v, shape, true);
        let i = shape.full_count();
        assert!(v[..i].windows(2).all(|w| w[0] < w[1]));
        assert!(v[i..].windows(2).all(|w| w[0] < w[1]));
    }
}
