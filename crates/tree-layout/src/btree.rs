//! B-tree (level-order multiway) layout position maps.
//!
//! A perfect B-tree with branching `k = B + 1` and `m` node levels holds
//! `N = k^m − 1` keys in `(k^m − 1)/B` nodes of `B` keys each, stored in
//! breadth-first node order: node `v` (0-indexed) occupies layout slots
//! `[vB, vB + B)`, and its children are nodes `vk + 1 + c` for
//! `c ∈ [0, k]`... more precisely child `c` of node `v` is node
//! `v·k + c + 1` — the standard (B+1)-ary heap rule.
//!
//! The sorted → layout map follows the paper's recursive structure: in
//! sorted order every `k`-th element (1-indexed positions divisible by
//! `k`) is *internal*; the rest form runs of `B` consecutive keys, one run
//! per leaf node. Internal elements form a perfect B-tree one level
//! shorter, laid out in the prefix; leaf nodes follow, left to right.

/// Sorted position (0-indexed) → level-order B-tree layout position
/// (0-indexed), for a perfect B-tree with `B = b` keys per node and `m`
/// node levels (`N = (b+1)^m − 1`). Costs `O(m)`.
///
/// # Examples
/// ```
/// use ist_layout::btree_pos;
/// // B = 2, m = 2: N = 8, sorted [1..8]. Root node holds {3, 6}; leaves
/// // {1,2}, {4,5}, {7,8}. Layout: [3,6, 1,2, 4,5, 7,8].
/// assert_eq!(btree_pos(2, 2, 2), 0); // value 3
/// assert_eq!(btree_pos(2, 2, 5), 1); // value 6
/// assert_eq!(btree_pos(2, 2, 0), 2); // value 1
/// assert_eq!(btree_pos(2, 2, 3), 4); // value 4
/// ```
pub fn btree_pos(b: usize, m: u32, sorted: usize) -> usize {
    let k = b + 1;
    debug_assert!(sorted < k.pow(m) - 1);
    let mut i = sorted;
    let mut m = m;
    loop {
        debug_assert!(m >= 1);
        if !(i + 1).is_multiple_of(k) {
            // Leaf element of the current (sub)tree: internal prefix has
            // k^{m-1} - 1 slots, then leaf node j = i / k, slot i % k.
            let internal = k.pow(m - 1) - 1;
            return internal + (i / k) * b + i % k;
        }
        // Internal: recurse on the tree formed by every k-th element.
        i = (i + 1) / k - 1;
        m -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rank_at[v]` = the sorted rank `btree_pos` sends to layout slot `v`.
    fn ranks_by_slot(b: usize, m: u32) -> Vec<usize> {
        let n = (b + 1).pow(m) - 1;
        let mut rank_at = vec![usize::MAX; n];
        for i in 0..n {
            rank_at[btree_pos(b, m, i)] = i;
        }
        rank_at
    }

    /// Reference layout by explicit multiway in-order traversal.
    /// Returns `layout[v] = sorted rank stored at layout slot v`.
    fn reference_layout(b: usize, m: u32) -> Vec<usize> {
        let k = b + 1;
        let n = k.pow(m) - 1;
        let num_nodes = n / b;
        let mut layout = vec![usize::MAX; n];
        let mut next = 0usize;
        // In-order traversal of the node heap: children of node v are
        // v*k + c + 1 for c in 0..k.
        fn go(
            v: usize,
            num_nodes: usize,
            k: usize,
            b: usize,
            next: &mut usize,
            layout: &mut [usize],
        ) {
            if v >= num_nodes {
                return;
            }
            for c in 0..k {
                go(v * k + c + 1, num_nodes, k, b, next, layout);
                if c < b {
                    layout[v * b + c] = *next;
                    *next += 1;
                }
            }
        }
        go(0, num_nodes, k, b, &mut next, &mut layout);
        assert_eq!(next, n);
        layout
    }

    #[test]
    fn matches_inorder_reference() {
        for b in [1usize, 2, 3, 4, 7] {
            for m in 1..=4u32 {
                if (b + 1).pow(m) > 1 << 14 {
                    continue;
                }
                let layout = reference_layout(b, m);
                for (v, &rank) in layout.iter().enumerate() {
                    assert_eq!(btree_pos(b, m, rank), v, "b={b} m={m} v={v}");
                }
            }
        }
    }

    #[test]
    fn figure_1_2_of_paper() {
        // N = 26, B = 2 (Figure 1.2): root holds values {9, 18}; second
        // level nodes {3,6}, {12,15}, {21,24}; leaves the rest.
        // Values are 1-indexed sorted ranks.
        let rank_at = ranks_by_slot(2, 3);
        let val = |layout: usize| rank_at[layout] + 1;
        assert_eq!(val(0), 9);
        assert_eq!(val(1), 18);
        assert_eq!(val(2), 3);
        assert_eq!(val(3), 6);
        assert_eq!(val(4), 12);
        assert_eq!(val(5), 15);
        assert_eq!(val(6), 21);
        assert_eq!(val(7), 24);
        // First leaf node: {1, 2}
        assert_eq!(val(8), 1);
        assert_eq!(val(9), 2);
        // Last leaf node: {25, 26}
        assert_eq!(val(24), 25);
        assert_eq!(val(25), 26);
    }

    #[test]
    fn b_equals_1_matches_bst() {
        use crate::bst::bst_pos;
        for d in 1..=10u32 {
            let n = (1usize << d) - 1;
            for i in 0..n {
                assert_eq!(btree_pos(1, d, i), bst_pos(d, i), "d={d} i={i}");
            }
        }
    }

    #[test]
    fn node_key_order_and_child_ranges() {
        // Keys within a node are increasing; child c's keys lie strictly
        // between the node's keys c-1 and c.
        let b = 3usize;
        let m = 3u32;
        let k = b + 1;
        let n = k.pow(m) - 1;
        let num_nodes = n / b;
        let internal_nodes = (k.pow(m - 1) - 1) / b;
        let rank_at = ranks_by_slot(b, m);
        for v in 0..internal_nodes {
            for c in 0..=b {
                let child = v * k + c + 1;
                assert!(child < num_nodes);
                let lo = if c == 0 {
                    0
                } else {
                    rank_at[v * b + c - 1] + 1
                };
                let hi = if c == b { n } else { rank_at[v * b + c] };
                for s in 0..b {
                    let key = rank_at[child * b + s];
                    assert!(key >= lo && key < hi, "v={v} c={c} s={s}");
                }
            }
        }
    }
}
