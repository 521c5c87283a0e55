//! In-place reversals and circular shifts (rotations).
//!
//! A circular shift of `n` elements is two rounds of reversals:
//! shifting `A` left by `c` is `rev(rev(A[0..c]) ++ rev(A[c..n]))`.
//! Each reversal is `⌊len/2⌋` independent swaps, so rotations inherit the
//! `O(1)`-depth / `O(N)`-work parallel structure of involutions, and the
//! paper's I/O analysis (§4.2) blocks the swaps into `B` contiguous
//! elements for `O(N / (P·B))` I/Os — which is how the PEM backend
//! executes a rotation and the GPU backend charges one.
//!
//! In RAM the identity is 2.6 × the work of `slice::rotate_right`
//! (1.44 ms against 0.55 ms at 2^20 `u64`s on one core), so running its
//! passes in parallel cannot win on fewer than three cores whatever a
//! hand-off costs. The RAM backend therefore rotates with the standard
//! library, sequentially, and this module offers no parallel rotation;
//! one that pays on many cores is a ROADMAP item, to be judged on a
//! host that has them.

use ist_perm::{SharedSlice, MOVE_COST_NS};
use rayon::prelude::*;

/// Circular shift right by `c` positions: element at index `i` moves to
/// index `(i + c) mod n`.
///
/// # Examples
/// ```
/// use ist_shuffle::rotate_right;
/// let mut v = vec![1, 2, 3, 4, 5];
/// rotate_right(&mut v, 2);
/// assert_eq!(v, vec![4, 5, 1, 2, 3]);
/// ```
#[inline]
pub fn rotate_right<T>(data: &mut [T], c: usize) {
    let n = data.len();
    if n == 0 {
        return;
    }
    data.rotate_right(c % n);
}

/// Swap two equal-length disjoint regions `[a, a+len)` and `[b, b+len)` of
/// `data`. Used by the equidistant gather (every run swap of its first
/// stage) and by Figure 6.4's "swap first half with second half"
/// baseline.
///
/// Every swap is a block swap (`ptr::swap_nonoverlapping`, 0.2–0.7 ns
/// a pair against about 1 ns for one pair at a time). From two floors of
/// swapped pairs ([`rayon::min_task_len`] at [`MOVE_COST_NS`] a pair),
/// in a pool of more than one thread, the regions are cut into
/// contiguous blocks of at least a floor of pairs each and the blocks
/// are dealt to the pool; otherwise the calling thread swaps the whole
/// regions as one block.
///
/// # Panics
/// Panics if the regions overlap or are out of bounds.
///
/// # Examples
/// ```
/// use ist_shuffle::rotate::swap_regions_par;
/// let mut v = vec![1, 2, 3, 4, 5, 6];
/// swap_regions_par(&mut v, 0, 4, 2);
/// assert_eq!(v, vec![5, 6, 3, 4, 1, 2]);
/// ```
pub fn swap_regions_par<T: Send>(data: &mut [T], a: usize, b: usize, len: usize) {
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    // Checked: a wrapped `b + len` could pass and hand the pool blocks
    // past the slice. With it in bounds, `a + len` cannot wrap.
    assert!(
        b.checked_add(len).is_some_and(|end| end <= data.len()),
        "region out of bounds"
    );
    assert!(a + len <= b, "regions overlap");
    let floor = rayon::min_task_len(MOVE_COST_NS);
    if len < 2 * floor || rayon::current_num_threads() == 1 {
        let (front, back) = data.split_at_mut(b);
        return front[a..a + len].swap_with_slice(&mut back[..len]);
    }
    // Block `i` covers pairs `[i·len/blocks, (i+1)·len/blocks)`: at least
    // `len / blocks ≥ floor` of them.
    let blocks = len / floor;
    let shared = SharedSlice::new(data);
    (0..blocks).into_par_iter().for_each(|i| {
        let (start, end) = (i * len / blocks, (i + 1) * len / blocks);
        // SAFETY: `[a + start, a + end)` and `[b + start, b + end)` lie
        // inside the two regions, which are in bounds and disjoint
        // (asserted above); block `i` is owned by one task, and blocks
        // partition the pairs, so no two tasks touch the same element.
        unsafe { shared.swap_range(a + start, b + start, end - start) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_right_index_map() {
        rotate_right(&mut [0u8; 0], 3);
        for n in [1usize, 2, 5, 11, 100] {
            for c in [0usize, 1, n / 3, n - 1, n, n + 7] {
                let mut v: Vec<usize> = (0..n).collect();
                rotate_right(&mut v, c);
                for i in 0..n {
                    // element originally at i now at (i + c) % n
                    assert_eq!(v[(i + c) % n], i, "n={n} c={c}");
                }
            }
        }
    }

    #[test]
    fn swap_regions_basic() {
        let mut v: Vec<u32> = (0..10).collect();
        swap_regions_par(&mut v, 6, 0, 4); // order-insensitive
        assert_eq!(v, vec![6, 7, 8, 9, 4, 5, 0, 1, 2, 3]);
    }

    /// Lengths at and around the parallel floor, whose blocks do not
    /// divide evenly, in a one- and a four-thread pool.
    #[test]
    fn swap_regions_blocks_match_pairwise() {
        let floor = rayon::min_task_len(MOVE_COST_NS);
        for len in [0, 1, 2 * floor - 1, 2 * floor, 3 * floor + 7, 5 * floor - 1] {
            let (a, b) = (3, 3 + len + 5);
            let n = b + len + 2;
            let mut expect: Vec<u64> = (0..n as u64).collect();
            for i in 0..len {
                expect.swap(a + i, b + i);
            }
            for threads in [1, 4] {
                let mut v: Vec<u64> = (0..n as u64).collect();
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| swap_regions_par(&mut v, b, a, len));
                assert!(v == expect, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn swap_regions_rejects_overlap() {
        let mut v = vec![0u8; 10];
        swap_regions_par(&mut v, 0, 3, 4);
    }

    /// A length whose `b + len` wraps to inside the slice (`5 + 2^64 − 2`
    /// is 3 on a 64-bit target). The guard rejects it in a one- and a
    /// two-thread pool, in every build; unchecked, a release build passed
    /// it and the two-thread pool swapped past the slice.
    #[test]
    fn swap_regions_rejects_a_length_that_wraps() {
        for threads in [1, 2] {
            let panicked = std::panic::catch_unwind(|| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| swap_regions_par(&mut [0u64; 10], 3, 5, usize::MAX - 1))
            });
            let payload = panicked.expect_err("a wrapped length passed the guard");
            let message = payload.downcast_ref::<&str>().unwrap();
            assert_eq!(*message, "region out of bounds", "threads={threads}");
        }
    }
}
