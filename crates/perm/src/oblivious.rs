//! Oblivious co-permutation: apply one index permutation to parallel
//! payload arrays, in place, without ever comparing the payloads.
//!
//! # Why co-permuting values needs no key comparisons
//!
//! The implicit search tree layouts are **data-oblivious**: the layout
//! position of the element with sorted rank `j` is a pure function of
//! `(n, layout)` — `bst_pos`, `btree_pos`, `veb_pos` and their
//! complete-tree extensions in `ist-layout` — and never of the key
//! *values*. The construction algorithms in `ist-core` realize exactly
//! that permutation through index arithmetic alone (involution swap
//! rounds, equidistant gathers, rotations); nothing in them calls
//! `Ord` — which is why [`ist_core::permute_in_place`] is bounded by
//! `T: Send`, not `T: Ord`.
//!
//! Consequently a key array and any payload array co-indexed with it
//! can be carried through the *same* permutation independently: permute
//! the keys, permute the values with the identical index map, and slot
//! `v` still holds the payload of the key in slot `v`. The values are
//! never compared, never inspected, and need no `Ord` (or even
//! `PartialEq`) — `StaticMap<K, V>` in the facade crate is built on
//! precisely this: sort keys + co-permute values by the sort's index
//! permutation (this module), then run the oblivious layout permutation
//! over each array separately.
//!
//! The entry point here covers the step the analytic machinery does
//! not: applying an **explicitly tabulated** permutation (e.g. a sort's
//! argsort) in place, following cycles with `n` visited bytes of scratch —
//! the in-place counterpart of [`crate::apply_out_of_place`].
//!
//! [`ist_core::permute_in_place`]: https://docs.rs/ist-core

/// Apply one gather-form permutation to **two** parallel arrays in a
/// single cycle walk: afterwards `a[j]`/`b[j]` hold the elements
/// previously at `a[idx[j]]`/`b[idx[j]]`. Follows the permutation's
/// cycles with one visited byte of scratch per element (`O(n)` time and
/// space); `idx` is left untouched.
///
/// This is the workhorse of `StaticMap::build`: `idx` is the keys'
/// argsort, `a` the keys, `b` the payloads — the payloads follow the
/// keys positionally and are never compared (see the
/// [module docs](self)).
///
/// # Panics
/// Panics if the lengths differ or `idx` is not a permutation of
/// `0..a.len()`.
///
/// # Examples
/// ```
/// use ist_perm::co_permute_by_gather;
/// let mut keys = vec![30u64, 10, 20];
/// let mut vals = vec!["thirty", "ten", "twenty"];
/// co_permute_by_gather(&mut keys, &mut vals, &[1, 2, 0]); // argsort of keys
/// assert_eq!(keys, vec![10, 20, 30]);
/// assert_eq!(vals, vec!["ten", "twenty", "thirty"]);
/// ```
pub fn co_permute_by_gather<A, B>(a: &mut [A], b: &mut [B], idx: &[usize]) {
    assert_eq!(a.len(), b.len(), "parallel arrays must have equal lengths");
    walk_cycles(idx, a.len(), |prev, cur| {
        a.swap(prev, cur);
        b.swap(prev, cur);
    });
}

/// Walk the disjoint cycles of gather-map `idx` over `0..n`, invoking
/// `swap(prev, cur)` along each cycle so that the caller's arrays end
/// up gathered (`out[j] = in[idx[j]]`). Validates `idx` as it goes.
fn walk_cycles(idx: &[usize], n: usize, mut swap: impl FnMut(usize, usize)) {
    assert_eq!(idx.len(), n, "index map must cover the whole array");
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut prev = start;
        let mut cur = idx[start];
        while cur != start {
            assert!(
                cur < n && !visited[cur],
                "idx is not a permutation (at {cur})"
            );
            visited[cur] = true;
            swap(prev, cur);
            prev = cur;
            cur = idx[cur];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `co_permute_by_gather` on `(data, scratch)`: the first array.
    fn gathered(data: &[usize], idx: &[usize]) -> Vec<usize> {
        let mut got = data.to_vec();
        let mut other = vec![(); data.len()];
        co_permute_by_gather(&mut got, &mut other, idx);
        got
    }

    #[test]
    fn gather_matches_out_of_place_reference() {
        let n = 97usize;
        let idx: Vec<usize> = (0..n).map(|i| (i * 31 + 5) % n).collect();
        let data: Vec<usize> = (0..n).map(|i| i * 10).collect();
        let expect: Vec<usize> = idx.iter().map(|&i| data[i]).collect();
        assert_eq!(gathered(&data, &idx), expect);
    }

    #[test]
    fn co_permute_keeps_pairs_aligned() {
        let n = 64usize;
        let idx: Vec<usize> = (0..n).map(|i| (i * 27 + 3) % n).collect();
        let mut keys: Vec<usize> = (0..n).collect();
        let mut vals: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        co_permute_by_gather(&mut keys, &mut vals, &idx);
        for (k, v) in keys.iter().zip(&vals) {
            assert_eq!(*v, format!("v{k}"));
        }
        assert_eq!(keys, idx); // gathering the identity array yields idx
    }

    #[test]
    fn identity_and_empty() {
        assert_eq!(gathered(&[9, 8, 7], &[0, 1, 2]), vec![9, 8, 7]);
        assert!(gathered(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_duplicates() {
        gathered(&[1, 2, 3], &[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "whole array")]
    fn rejects_short_maps() {
        gathered(&[1, 2, 3], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn rejects_mismatched_arrays() {
        co_permute_by_gather(&mut [1, 2], &mut [1], &[0, 1]);
    }
}
