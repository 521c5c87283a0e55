//! [`StaticIndex`]: the one-stop facade for "I have keys, serve
//! queries fast".
//!
//! Owns its key array: construction sorts the keys and scatters them
//! into a fresh **cache-line-aligned** buffer ([`crate::AlignedVec`]) in
//! the chosen layout — the permutation is applied *during* the move, in
//! one parallel pass, so node base addresses coincide with cache lines
//! without any extra copy. Then every point, batch, and range query
//! from `ist-query` is available as a method. Batch queries run on the
//! software-pipelined multi-descent engine and parallelize over
//! chunks of the batch.

use crate::alloc::{AlignedVec, LayoutPos};
use ist_core::{Error, Layout};
use ist_query::{QueryKind, Searcher};
use std::borrow::Borrow;

/// An immutable sorted-key index stored as an implicit search tree
/// layout.
///
/// # Examples
/// ```
/// use implicit_search_trees::{Layout, StaticIndex};
///
/// // Unsorted, duplicated keys: build() sorts, then scatters into the layout.
/// let index = StaticIndex::build(vec![30u64, 10, 20, 20, 50], Layout::Veb).unwrap();
/// assert_eq!(index.len(), 5);
/// assert!(index.contains(&20));
/// assert_eq!(index.rank(&20), 1);              // one key (10) strictly below
/// assert_eq!(index.lower_bound(&25), Some(&30));
/// assert_eq!(index.range_count(&10, &30), 3);  // 10, 20, 20
/// assert_eq!(index.batch_count(&[10, 11, 50]), 2);
/// ```
pub struct StaticIndex<K> {
    data: AlignedVec<K>,
    kind: QueryKind,
}

impl<K: Ord + Send + Sync + 'static> StaticIndex<K> {
    /// Sort `keys` and scatter them into `layout` inside aligned run
    /// storage, using the best default query descent for that layout
    /// (grandchild prefetching for the BST; the const-width SIMD kernel
    /// for B-tree widths 8/16 on eligible key types — see
    /// [`default_kind_for_layout`]).
    ///
    /// Duplicates are kept (see [`ist_query`'s duplicate-key
    /// contract](ist_query#duplicate-keys)).
    pub fn build(keys: Vec<K>, layout: Layout) -> Result<Self, Error> {
        Self::build_for_kind(keys, default_kind_for_layout(layout))
    }

    /// Full-control constructor: explicit [`QueryKind`] (which implies
    /// the layout — [`QueryKind::Sorted`] skips permutation entirely,
    /// giving the plain binary-search baseline).
    pub fn build_for_kind(mut keys: Vec<K>, kind: QueryKind) -> Result<Self, Error> {
        keys.sort_unstable();
        Self::build_presorted(keys, kind)
    }

    /// Build from keys that are **already sorted** ascending, skipping
    /// the sort: the merge-then-build fast path. A k-way merge of
    /// sorted runs (as in [`crate::DynamicMap`]'s tier merges) produces
    /// sorted output, so re-sorting would waste the dominant `O(n log n)`
    /// term — this constructor goes straight to the parallel layout
    /// scatter into aligned run storage.
    ///
    /// For tree layouts the permutation is applied **during** the move
    /// into the 64-byte-aligned destination (`dst[pos(r)] = keys[r]`,
    /// one pass — see [`crate::AlignedVec`]), so this is an out-of-place
    /// build; a caller who owns the buffer and wants no second one
    /// permutes it with [`ist_core::permute_in_place`] and queries it
    /// through a [`Searcher`]. [`QueryKind::Sorted`] adopts the
    /// caller's allocation zero-copy.
    ///
    /// Sortedness is the caller's contract; debug builds assert it.
    ///
    /// # Examples
    /// ```
    /// use implicit_search_trees::{QueryKind, StaticIndex};
    /// let merged: Vec<u64> = (0..100).map(|x| 2 * x).collect(); // already sorted
    /// let idx = StaticIndex::build_presorted(merged, QueryKind::Veb).unwrap();
    /// assert!(idx.contains(&42));
    /// assert_eq!(idx.rank(&51), 26);
    /// ```
    pub fn build_presorted(keys: Vec<K>, kind: QueryKind) -> Result<Self, Error> {
        debug_assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "StaticIndex::build_presorted: keys are not sorted"
        );
        let data = match layout_of_kind(kind) {
            Some(layout) if !keys.is_empty() => {
                let pos = LayoutPos::new(layout, keys.len())?;
                AlignedVec::scatter_from_vec(keys, &pos)
            }
            _ => AlignedVec::from_vec(keys),
        };
        Ok(Self { data, kind })
    }

    /// Wrap keys that are **already** sorted-and-permuted into `kind`'s
    /// layout (`StaticMap` builds its key side this way after
    /// co-permuting the payloads through the same index maps).
    pub(crate) fn from_layout_order(data: AlignedVec<K>, kind: QueryKind) -> Self {
        Self { data, kind }
    }

    /// Number of stored keys (duplicates counted).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The layout the keys are stored in (`None` for the un-permuted
    /// [`QueryKind::Sorted`] baseline).
    pub fn layout(&self) -> Option<Layout> {
        layout_of_kind(self.kind)
    }

    /// The descent this index answers queries with.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The stored keys in **layout order** (not sorted order, unless
    /// the kind is [`QueryKind::Sorted`]).
    pub fn as_slice(&self) -> &[K] {
        &self.data
    }

    /// The key at layout position `pos` (as returned by
    /// [`StaticIndex::search`] / [`StaticIndex::batch_search`]).
    pub fn get(&self, pos: usize) -> Option<&K> {
        self.data.get(pos)
    }

    /// The guaranteed alignment of the key buffer: ≥ 64 bytes for tree
    /// layouts (see [`crate::AlignedVec`]), the key type's natural
    /// alignment for the un-permuted [`QueryKind::Sorted`] baseline.
    pub fn buffer_alignment(&self) -> usize {
        self.data.alignment()
    }

    /// Consume the index, returning the keys in layout order (copies
    /// out of the aligned buffer for tree layouts; zero-copy for
    /// [`QueryKind::Sorted`]).
    pub fn into_inner(self) -> Vec<K> {
        self.data.into_vec()
    }

    /// A borrowing [`Searcher`] over the stored keys, for the full
    /// query API (and for amortizing shape setup across many calls).
    pub fn searcher(&self) -> Searcher<'_, K> {
        Searcher::new(&self.data, self.kind)
    }

    /// `true` iff `key` is stored.
    pub fn contains(&self, key: &K) -> bool {
        self.searcher().contains(key)
    }

    /// Layout position of a stored key equal to `key`, if any.
    pub fn search(&self, key: &K) -> Option<usize> {
        self.searcher().search(key)
    }

    /// Number of stored keys strictly smaller than `key`.
    pub fn rank(&self, key: &K) -> usize {
        self.searcher().rank(key)
    }

    /// The smallest stored key `≥ key` (successor), if any.
    pub fn lower_bound(&self, key: &K) -> Option<&K> {
        let pos = self.searcher().lower_bound(key)?;
        Some(&self.data[pos])
    }

    /// Number of stored keys strictly smaller than or equal to `key`
    /// (so `rank_upper − rank` is the key's multiplicity).
    pub fn rank_upper(&self, key: &K) -> usize {
        self.searcher().rank_upper(key)
    }

    /// Number of stored keys in the half-open interval `[lo, hi)`, via
    /// two rank descents.
    ///
    /// **Reversed bounds are defined, not a bug**: when `lo > hi` (or
    /// `lo == hi`) the interval is empty and the count is `0` — never a
    /// panic, in debug or release, on any layout. The same contract
    /// holds for [`StaticIndex::batch_range_count`],
    /// `StaticMap::range_count`, and `Frozen::range_count`.
    pub fn range_count(&self, lo: &K, hi: &K) -> usize {
        self.searcher().range_count(lo, hi)
    }

    /// Count how many of `keys` are stored — pipelined multi-descent,
    /// parallel over adaptive chunks.
    pub fn batch_count<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> usize {
        self.searcher().batch_count(keys)
    }

    /// Layout positions for a batch of lookups (pipelined + parallel);
    /// `out[i]` is exactly what [`StaticIndex::search`]`(keys[i])`
    /// returns. Keys are read in place through [`Borrow`], so `&[K]`
    /// and `&[&K]` are the same call — routing layers partition a batch
    /// by reference and pass the borrowed sub-batch straight in.
    pub fn batch_search<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> Vec<Option<usize>> {
        self.searcher().batch_search(keys)
    }

    /// Ranks for a batch of keys (pipelined + parallel), keys read in
    /// place like [`StaticIndex::batch_search`].
    pub fn batch_rank<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> Vec<usize> {
        self.searcher().batch_rank(keys)
    }

    /// Per-pair [`StaticIndex::range_count`] for a batch of `(lo, hi)`
    /// ranges; both descents of every pair go through one pipeline.
    /// Reversed pairs (`lo > hi`) yield 0, like the scalar call.
    pub fn batch_range_count(&self, ranges: &[(K, K)]) -> Vec<usize> {
        self.searcher().batch_range_count(ranges)
    }
}

/// The construction layout behind a [`QueryKind`] (`None` for the
/// un-permuted sorted baseline). Shared by both facades so the mapping
/// lives once.
pub(crate) fn layout_of_kind(kind: QueryKind) -> Option<Layout> {
    match kind {
        QueryKind::Sorted => None,
        QueryKind::Bst | QueryKind::BstPrefetch => Some(Layout::Bst),
        QueryKind::Btree(b) => Some(Layout::Btree { b }),
        QueryKind::Veb => Some(Layout::Veb),
    }
}

/// The best default descent for a layout (grandchild prefetching for
/// the BST); the `build` constructors of the facades use this, and
/// callers that pre-partition data for the kind-explicit constructors
/// (e.g. a sharded bulk load) can apply the same mapping.
///
/// `Layout::Btree { b: 8 | 16 }` maps to `QueryKind::Btree(b)` like any
/// other width — the kind names the *shape*, which is physical — but
/// [`Searcher`] construction upgrades that kind to the monomorphized
/// wide-node SIMD kernel whenever the key type is
/// [`SimdKey`](ist_query::SimdKey)-eligible
/// ([`Searcher::is_wide`](ist_query::Searcher::is_wide) reports the
/// route), so the default build path lands on the wide kernel with no
/// opt-in here.
pub fn default_kind_for_layout(layout: Layout) -> QueryKind {
    match layout {
        Layout::Bst => QueryKind::BstPrefetch,
        Layout::Btree { b } => QueryKind::Btree(b),
        Layout::Veb => QueryKind::Veb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_unsorted_with_duplicates() {
        let keys = vec![5u64, 3, 9, 3, 3, 7, 1];
        for kind in [
            QueryKind::Sorted,
            QueryKind::Bst,
            QueryKind::BstPrefetch,
            QueryKind::Btree(2),
            QueryKind::Veb,
        ] {
            let idx = StaticIndex::build_for_kind(keys.clone(), kind).unwrap();
            assert_eq!(idx.len(), 7);
            assert_eq!(idx.rank(&3), 1, "{kind:?}");
            assert_eq!(idx.rank(&4), 4, "{kind:?}");
            assert_eq!(idx.lower_bound(&4), Some(&5), "{kind:?}");
            assert_eq!(idx.range_count(&3, &8), 5, "{kind:?}");
            assert!(idx.contains(&9) && !idx.contains(&2), "{kind:?}");
        }
    }

    #[test]
    fn empty_index() {
        let idx = StaticIndex::<u64>::build(vec![], Layout::Bst).unwrap();
        assert!(idx.is_empty());
        assert!(!idx.contains(&1));
        assert_eq!(idx.batch_count(&[1, 2]), 0);
        assert_eq!(idx.lower_bound(&0), None);
    }
}
