//! van Emde Boas (vEB) layout position maps.
//!
//! The vEB layout of a perfect tree with `d` levels splits it into a *top*
//! subtree `T₀` on the upper `t = ⌈d/2⌉` levels (holding `r = 2^t − 1`
//! keys) and `r + 1` *bottom* subtrees `T₁..T_{r+1}` on the lower
//! `b = ⌊d/2⌋` levels (`l = 2^b − 1` keys each), laid out as
//! `vEB(T₀), vEB(T₁), …, vEB(T_{r+1})`, recursively.
//!
//! This split convention matches the paper: for `N = 2^{2x} − 1` (even
//! `d`) `r = l = 2^x − 1`; for `N = 2^{2x−1} − 1` (odd `d`) `r = 2^x − 1`
//! and `l = 2^{x−1} − 1`, i.e. `r = 2l + 1`.
//!
//! In sorted (in-order, 1-indexed) position `p`, the key belongs to `T₀`
//! iff `p ≡ 0 (mod 2^b)`; otherwise it belongs to bottom tree
//! `⌊p / 2^b⌋ + 1` at in-order offset `p mod 2^b`. The rank → position
//! map [`veb_pos`] iterates this decomposition, costing
//! `O(log d) = O(log log N)` per index — the `τ_π` the paper cites for the
//! vEB layout. That cost describes **construction** and the closed-form
//! rank → position map only.
//!
//! A root-to-leaf **descent** does not pay it: consecutive nodes of a path
//! share all but the innermost levels of the decomposition, so the
//! per-depth table of Brodal, Fagerberg and Jacob ([`veb_levels`],
//! [`VebCursor`]) derives a child's position from the saved position of
//! one ancestor with a mask and a multiply-add.

use core::hint::select_unpredictable;

/// The vEB split of `d` levels: `(t, b) = (⌈d/2⌉, ⌊d/2⌋)`.
///
/// # Examples
/// ```
/// use ist_layout::veb_split;
/// assert_eq!(veb_split(4), (2, 2));
/// assert_eq!(veb_split(5), (3, 2));
/// assert_eq!(veb_split(1), (1, 0));
/// ```
#[inline]
pub const fn veb_split(d: u32) -> (u32, u32) {
    (d.div_ceil(2), d / 2)
}

/// Sorted position (0-indexed) → vEB layout position (0-indexed) for a
/// perfect tree with `d` levels. Iterative, `O(log d)` time, no
/// allocation.
///
/// # Examples
/// ```
/// use ist_layout::veb_pos;
/// // Figure 1.3 of the paper: N = 15, layout (values 1..15) is
/// // [8, 4, 12, 2, 1, 3, 6, 5, 7, 10, 9, 11, 14, 13, 15].
/// let layout_of = |value: usize| veb_pos(4, value - 1);
/// assert_eq!(layout_of(8), 0);
/// assert_eq!(layout_of(4), 1);
/// assert_eq!(layout_of(12), 2);
/// assert_eq!(layout_of(2), 3);
/// assert_eq!(layout_of(1), 4);
/// assert_eq!(layout_of(15), 14);
/// ```
#[inline]
pub const fn veb_pos(d: u32, sorted: usize) -> usize {
    debug_assert!(d >= 1 && (sorted as u64) < (1u64 << d) - 1);
    let mut p = (sorted + 1) as u64; // 1-indexed in-order within subtree
    let mut d = d;
    let mut base = 0usize; // layout offset of the current subtree
    loop {
        if d == 1 {
            debug_assert!(p == 1);
            return base;
        }
        let (t, b) = veb_split(d);
        let low = p & ((1u64 << b) - 1);
        if low == 0 {
            // Key lies in the top subtree.
            p >>= b;
            d = t;
        } else {
            // Key lies in bottom subtree q (0-indexed among bottoms).
            let q = p >> b;
            let r = (1usize << t) - 1;
            let l = (1usize << b) - 1;
            base += r + (q as usize) * l;
            p = low;
            d = b;
        }
    }
}

/// Most levels of a tree [`veb_order`] has a table for: 1 023 keys, the
/// height-10 subtrees a 2^20-key vEB split halves into, which
/// `ist_perm::permute_direct`'s scratch holds as `u64`s. The tables of
/// every depth take 4 KiB of `u16`s.
pub const VEB_ORDER_DEPTH: u32 = 10;

/// Where depth `VEB_ORDER_DEPTH + 1` would start in [`VEB_ORDER`].
const VEB_ORDER_LEN: usize = (1 << (VEB_ORDER_DEPTH + 1)) - 2 - VEB_ORDER_DEPTH as usize;

/// [`veb_order`]'s tables, depth `h` from offset `2^h − 1 − h`, built at
/// compile time from [`veb_pos`].
static VEB_ORDER: [u16; VEB_ORDER_LEN] = {
    let mut tables = [0; VEB_ORDER_LEN];
    let mut d = 1;
    while d <= VEB_ORDER_DEPTH {
        let start = (1 << d) - 1 - d as usize;
        let mut sorted = 0;
        while sorted < (1 << d) - 1 {
            tables[start + veb_pos(d, sorted)] = sorted as u16;
            sorted += 1;
        }
        d += 1;
    }
    tables
};

/// The sorted index of the key at each slot of a `d`-level vEB layout,
/// `1 ≤ d ≤` [`VEB_ORDER_DEPTH`] (the inverse of [`veb_pos`]), from a
/// table; `None` for other heights.
///
/// # Examples
/// ```
/// use ist_layout::{veb_order, veb_pos};
/// let order = veb_order(4).unwrap();
/// assert_eq!(order, [7, 3, 11, 1, 0, 2, 5, 4, 6, 9, 8, 10, 13, 12, 14]);
/// assert!((0..15).all(|sorted| usize::from(order[veb_pos(4, sorted)]) == sorted));
/// assert!(veb_order(11).is_none());
/// ```
pub fn veb_order(d: u32) -> Option<&'static [u16]> {
    (1..=VEB_ORDER_DEPTH).contains(&d).then(|| {
        let start = (1 << d) - 1 - d as usize;
        &VEB_ORDER[start..start + (1 << d) - 1]
    })
}

// ---------------------------------------------------------------------
// Descent: the per-depth table.
// ---------------------------------------------------------------------

/// Most levels a tree indexed by `usize` can have.
const MAX_LEVELS: usize = 64;

/// Saved positions a descent carries: one per recursion level of the
/// layout (`d → ⌈d/2⌉ → … → 1` is `⌈log2 d⌉ + 1 ≤ 7` levels), not one
/// per depth, because the subtrees of one recursion level occupy
/// disjoint depth ranges.
const SLOTS: usize = 7;

/// One depth `k ≥ 1` of a `d`-level descent. In the recursion exactly
/// one split has its bottom trees rooted at depth `k`; the entry
/// describes that split.
#[derive(Debug, Clone, Copy)]
pub struct VebLevel {
    /// Keys in the split's top tree, `2^t − 1` (also the mask selecting
    /// which of its `2^t` bottom trees a depth-`k` node roots).
    top: u32,
    /// Keys in each of its bottom trees, `2^b − 1`.
    bottom: u32,
    /// Slot holding the position of the top tree's root.
    read: u8,
    /// Slot a depth-`k` node saves its own position to: the recursion
    /// level at which it roots a bottom tree.
    write: u8,
}

static LEVELS: [[VebLevel; MAX_LEVELS]; MAX_LEVELS + 1] = {
    let unused = VebLevel {
        top: 0,
        bottom: 0,
        read: 0,
        write: 0,
    };
    let mut table = [[unused; MAX_LEVELS]; MAX_LEVELS + 1];
    let mut d = 1;
    while d <= MAX_LEVELS {
        fill_levels(&mut table[d], 0, d as u32, 0);
        d += 1;
    }
    table
};

/// Record the split of the `h`-level subtree rooted at depth `a`, which
/// sits at recursion level `level` of the layout, then those of its top
/// and bottom trees.
const fn fill_levels(row: &mut [VebLevel; MAX_LEVELS], a: u32, h: u32, level: u8) {
    if h < 2 {
        return;
    }
    let (t, b) = veb_split(h);
    let k = a + t;
    assert!((level as usize) + 1 < SLOTS);
    row[k as usize] = VebLevel {
        top: ((1u64 << t) - 1) as u32,
        bottom: ((1u64 << b) - 1) as u32,
        // Depth a saved its position when it became a bottom-tree root
        // (slot 0 for the root of the whole tree); no depth in (a, k)
        // overwrites it, as they root bottom trees of deeper levels.
        read: row[a as usize].write,
        write: level + 1,
    };
    fill_levels(row, a, t, level + 1);
    fill_levels(row, k, b, level + 1);
}

/// The descent table of a `d`-level tree: entry `k` (for `1 ≤ k < d`)
/// is what [`VebCursor::descend`] needs to step onto depth `k`. Depends
/// on `d` alone and is evaluated at compile time, so looking it up costs
/// nothing per query.
///
/// # Panics
/// If `d > 64`.
///
/// # Examples
/// ```
/// use ist_layout::{veb_levels, veb_pos, VebCursor};
/// // Walk left, right, right through a 4-level tree: the 4th of the 8
/// // leaves, in-order position 7.
/// let levels = veb_levels(4);
/// let (mut cur, mut j) = (VebCursor::ROOT, 0usize);
/// for (k, left) in [(1, true), (2, false), (3, false)] {
///     cur.descend(&levels[k], j, left);
///     j = 2 * j + usize::from(!left);
/// }
/// assert_eq!(j, 3);
/// assert_eq!(cur.pos(), veb_pos(4, 7 - 1));
/// ```
#[inline]
pub fn veb_levels(d: u32) -> &'static [VebLevel; MAX_LEVELS] {
    &LEVELS[d as usize]
}

/// Where a root-to-leaf descent stands: the current node's layout
/// position plus the saved positions of the ancestors later depths
/// compute theirs from.
#[derive(Debug, Clone, Copy)]
pub struct VebCursor {
    pos: usize,
    saved: [usize; SLOTS],
}

impl VebCursor {
    /// The root of any tree: layout position 0.
    pub const ROOT: Self = Self {
        pos: 0,
        saved: [0; SLOTS],
    };

    /// Layout position of the current node.
    #[inline(always)]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Step from node `j` of depth `k − 1` (counting from 0, left to
    /// right) onto its left or right child, with `level` entry `k` of
    /// the tree's [`veb_levels`]. The left child is node `2j` of depth
    /// `k`, so it roots bottom tree `2j & top` of the split, and bottom
    /// trees follow the top tree back to back; the right child roots
    /// the next one. Only that last choice waits for the key
    /// comparison.
    #[inline(always)]
    pub fn descend(&mut self, level: &VebLevel, j: usize, left: bool) {
        let (top, bottom) = (level.top as usize, level.bottom as usize);
        let q = j << 1 & top;
        let first = self.saved[level.read as usize] + top + q * bottom;
        // A coin flip on random probes, so it must stay a conditional
        // move; written as arithmetic LLVM turns it into a branch.
        let pos = select_unpredictable(left, first, first + bottom);
        self.saved[level.write as usize] = pos;
        self.pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vEB layout built by explicit recursion on index vectors.
    /// Returns `layout[v] = sorted rank at layout slot v`.
    fn reference_layout(d: u32) -> Vec<usize> {
        fn build(d: u32, inorder: Vec<usize>) -> Vec<usize> {
            let n = inorder.len();
            assert_eq!(n, (1usize << d) - 1);
            if d == 1 {
                return inorder;
            }
            let (t, b) = veb_split(d);
            let bb = 1usize << b;
            // Top tree: every bb-th element (1-indexed multiples of 2^b).
            let top: Vec<usize> = (1..=n)
                .filter(|p| p % bb == 0)
                .map(|p| inorder[p - 1])
                .collect();
            let mut out = build(t, top);
            // Bottom trees: consecutive runs between top elements.
            let r = (1usize << t) - 1;
            for q in 0..=r {
                let bottom: Vec<usize> =
                    (q * bb + 1..(q + 1) * bb).map(|p| inorder[p - 1]).collect();
                out.extend(build(b, bottom));
            }
            out
        }
        build(d, (0..(1usize << d) - 1).collect())
    }

    #[test]
    fn matches_recursive_reference() {
        for d in 1..=14u32 {
            let layout = reference_layout(d);
            for (v, &rank) in layout.iter().enumerate() {
                assert_eq!(veb_pos(d, rank), v, "d={d} v={v}");
            }
        }
    }

    /// Every table is the reference layout of its depth, and there is
    /// one for each depth up to [`VEB_ORDER_DEPTH`].
    #[test]
    fn order_tables_match_recursive_reference() {
        for d in 1..=VEB_ORDER_DEPTH {
            let order = veb_order(d).unwrap();
            assert!(
                order
                    .iter()
                    .map(|&j| usize::from(j))
                    .eq(reference_layout(d)),
                "d={d}"
            );
        }
        assert!(veb_order(0).is_none());
        assert!(veb_order(VEB_ORDER_DEPTH + 1).is_none());
    }

    #[test]
    fn figure_1_3_full() {
        let expect: Vec<usize> = vec![8, 4, 12, 2, 1, 3, 6, 5, 7, 10, 9, 11, 14, 13, 15];
        for (v, &val) in expect.iter().enumerate() {
            assert_eq!(veb_pos(4, val - 1), v);
        }
    }

    #[test]
    fn small_trees_match_bst() {
        // For d <= 2 the vEB and BFS layouts coincide.
        use crate::bst::bst_pos;
        for d in 1..=2u32 {
            let n = (1usize << d) - 1;
            for i in 0..n {
                assert_eq!(veb_pos(d, i), bst_pos(d, i));
            }
        }
    }

    #[test]
    fn root_is_median() {
        for d in 1..=20u32 {
            let n = (1u64 << d) - 1;
            let median = (n / 2) as usize; // 0-indexed in-order root
            assert_eq!(veb_pos(d, median), 0, "d={d}");
        }
    }

    #[test]
    fn split_sizes() {
        // r = 2l + 1 for odd d; r = l for even d (paper's two cases).
        for d in 2..=30u32 {
            let (t, b) = veb_split(d);
            assert_eq!(t + b, d);
            let r = (1u64 << t) - 1;
            let l = (1u64 << b) - 1;
            if d % 2 == 0 {
                assert_eq!(r, l);
            } else {
                assert_eq!(r, 2 * l + 1);
            }
        }
    }

    /// In-order rank of node `j` (from 0, left to right) of depth `k`.
    fn rank_of(d: u32, k: u32, j: usize) -> usize {
        ((2 * j + 1) << (d - 1 - k)) - 1
    }

    /// Every node of every root-to-leaf path: the table-derived position
    /// is `veb_pos` of the node's in-order rank.
    #[test]
    fn descent_matches_veb_pos_on_every_path() {
        fn walk(d: u32, k: u32, cur: VebCursor, j: usize) -> usize {
            assert_eq!(cur.pos(), veb_pos(d, rank_of(d, k, j)), "d={d} k={k} j={j}");
            if k + 1 == d {
                return 1;
            }
            let mut visited = 1;
            for left in [true, false] {
                let mut c = cur;
                c.descend(&veb_levels(d)[(k + 1) as usize], j, left);
                visited += walk(d, k + 1, c, 2 * j + usize::from(!left));
            }
            visited
        }
        for d in 1..=16u32 {
            assert_eq!(walk(d, 0, VebCursor::ROOT, 0), (1usize << d) - 1);
        }
    }

    /// Deep trees reuse slots; pseudo-random paths through every `d` a
    /// 64-bit index allows, plus the leftmost and rightmost path.
    #[test]
    fn descent_matches_veb_pos_on_sampled_deep_paths() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for d in 1..=63u32 {
            for sample in 0..66 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let turns = match sample {
                    0 => 0,
                    1 => u64::MAX,
                    _ => x,
                };
                let (mut cur, mut j) = (VebCursor::ROOT, 0usize);
                for k in 1..d {
                    let left = turns >> k & 1 == 0;
                    cur.descend(&veb_levels(d)[k as usize], j, left);
                    j = 2 * j + usize::from(!left);
                    assert_eq!(cur.pos(), veb_pos(d, rank_of(d, k, j)), "d={d} k={k} j={j}");
                }
            }
        }
    }

    /// The split whose bottom trees are rooted at depth `k`, found by
    /// walking the recursion: `(depth of its top tree's root, t, b)`.
    fn split_at(d: u32, k: u32) -> (u32, u32, u32) {
        let (mut a, mut h) = (0, d);
        loop {
            let (t, b) = veb_split(h);
            if a + t == k {
                return (a, t, b);
            }
            if k < a + t {
                h = t;
            } else {
                a += t;
                h = b;
            }
        }
    }

    /// Slot liveness: every depth writes one slot, so replaying the
    /// writes in depth order shows what each read finds — it must be the
    /// position saved at exactly the depth of the enclosing top tree's
    /// root.
    #[test]
    fn each_depth_reads_the_slot_its_top_tree_root_wrote() {
        for d in 1..=MAX_LEVELS as u32 {
            let levels = veb_levels(d);
            let mut written_at = [None; SLOTS];
            written_at[0] = Some(0); // VebCursor::ROOT
            for k in 1..d {
                let level = &levels[k as usize];
                let (a, t, b) = split_at(d, k);
                assert_eq!(u64::from(level.top), (1u64 << t) - 1, "d={d} k={k}");
                assert_eq!(u64::from(level.bottom), (1u64 << b) - 1, "d={d} k={k}");
                assert_eq!(written_at[level.read as usize], Some(a), "d={d} k={k}");
                written_at[level.write as usize] = Some(k);
            }
        }
    }

    /// Layout slot → 1-indexed in-order position, by recursion on the
    /// split (the inverse direction of `veb_pos`).
    fn reference_rank(d: u32, layout: usize) -> u64 {
        if d == 1 {
            return 1;
        }
        let (t, b) = veb_split(d);
        let r = (1usize << t) - 1;
        let l = (1usize << b) - 1;
        if layout < r {
            reference_rank(t, layout) << b
        } else {
            let off = layout - r;
            (((off / l) as u64) << b) + reference_rank(b, off % l)
        }
    }

    /// Sampled ranks of a tree too large for `reference_layout`.
    #[test]
    fn large_roundtrip_sampled() {
        let d = 26u32;
        let n = (1usize << d) - 1;
        for i in (0..n).step_by(104_729) {
            assert_eq!(reference_rank(d, veb_pos(d, i)), i as u64 + 1);
        }
    }
}
