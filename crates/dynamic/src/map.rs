//! [`StaticMap`]: the one static serving facade — keys in an implicit
//! search tree layout, payloads carried alongside.
//!
//! The layouts make the payload side almost free: because the layout
//! permutation is **data-oblivious** (position depends only on `n` and
//! the layout — see `ist_perm::oblivious`), the payload array can be
//! carried through the exact same index maps as the keys without ever
//! being compared. Construction therefore:
//!
//! 1. argsorts the keys (the only comparisons anywhere),
//! 2. applies the sort's index permutation to keys **and** values in
//!    one in-place cycle walk ([`ist_perm::co_permute_by_gather`]),
//! 3. scatters each array through the same oblivious layout walk into
//!    cache-line-aligned run storage ([`crate::AlignedVec`] — one
//!    streaming pass per array that pairs each sorted rank with its
//!    slot, the permutation applied during the move; note the `V: Send`
//!    bound is all the value side needs: no `Ord`, no `Eq`, nothing).
//!
//! After that, `keys()[p]` and `values()[p]` are parallel for every
//! layout position `p`, so every query the key side answers (point,
//! batch, range, successor/predecessor — scalar and on the
//! software-pipelined batched engine) resolves to a payload with one
//! array read. A key-only index is the same map with a zero-sized
//! payload, `StaticMap<K, ()>`: the `()` side adopts its `Vec` with no
//! allocation and no scatter, and position-level queries (`search`,
//! `batch_search`, `batch_count`, `land`, …) go through
//! [`StaticMap::searcher`].

use crate::alloc::{AlignedVec, LayoutWalk};
use ist_core::{Algorithm, Error, Layout};
use ist_perm::co_permute_by_gather;
use ist_query::{default_kind_for_layout, QueryKind, Searcher};
use std::borrow::Borrow;

/// An immutable key→value map stored as two parallel implicit-layout
/// arrays: keys in the layout, payloads co-permuted obliviously.
///
/// Duplicate keys are allowed; lookups resolve to *some* matching
/// slot's value (deterministic per layout — see the duplicate-key
/// contract in [`ist_query`](ist_query#duplicate-keys)).
///
/// # Examples
/// ```
/// use implicit_search_trees::{Layout, StaticMap};
///
/// // Unsorted keys with arbitrary (non-Ord) payloads.
/// let map = StaticMap::build(
///     vec![30u64, 10, 20],
///     vec!["thirty", "ten", "twenty"],
///     Layout::Veb,
/// )
/// .unwrap();
/// assert_eq!(map.get(&20), Some(&"twenty"));
/// assert_eq!(map.get(&25), None);
/// assert_eq!(map.lower_bound(&25), Some((&30, &"thirty")));
/// assert_eq!(map.batch_get(&[10, 15, 30]), vec![Some(&"ten"), None, Some(&"thirty")]);
/// assert_eq!(map.range_count(&10, &30), 2);
///
/// // Key-only: a zero-sized payload, duplicates kept.
/// let index = StaticMap::build(vec![30u64, 10, 20, 20, 50], vec![(); 5], Layout::Veb).unwrap();
/// assert_eq!(index.rank(&20), 1); // one key (10) strictly below
/// assert_eq!(index.searcher().land::<true>(&20).rank, 3); // keys <= 20
/// assert_eq!(index.searcher().batch_count(&[10, 11, 50]), 2);
/// ```
pub struct StaticMap<K, V> {
    keys: AlignedVec<K>,
    values: AlignedVec<V>,
    kind: QueryKind,
}

impl<K: Ord + Send + Sync + 'static, V: Send> StaticMap<K, V> {
    /// Sort `keys`, co-permute `values` alongside them, and scatter
    /// both into `layout` inside aligned run storage, answering with
    /// the layout's default descent ([`default_kind_for_layout`]).
    ///
    /// Duplicates are kept (see [`ist_query`'s duplicate-key
    /// contract](ist_query#duplicate-keys)).
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths.
    pub fn build(keys: Vec<K>, values: Vec<V>, layout: Layout) -> Result<Self, Error> {
        Self::build_for_kind(keys, values, default_kind_for_layout(layout))
    }

    /// Full-control constructor: explicit [`QueryKind`] (with
    /// [`QueryKind::Sorted`] the arrays stay in sorted order — the
    /// binary-search baseline).
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths.
    pub fn build_for_kind(
        mut keys: Vec<K>,
        mut values: Vec<V>,
        kind: QueryKind,
    ) -> Result<Self, Error> {
        assert_eq!(
            keys.len(),
            values.len(),
            "StaticMap::build: {} keys but {} values",
            keys.len(),
            values.len()
        );
        // Argsort (stable under duplicates via the index tiebreak): the
        // only place anything is ever compared.
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by(|&x, &y| keys[x].cmp(&keys[y]).then(x.cmp(&y)));
        co_permute_by_gather(&mut keys, &mut values, &order);
        drop(order);
        Self::from_sorted_parts(keys, values, kind)
    }

    /// Build from `(keys, values)` pairs that are **already sorted** by
    /// key and already aligned slot-for-slot, skipping the argsort and
    /// the co-permutation entirely: the merge-then-build fast path.
    ///
    /// [`crate::DynamicMap`]'s tier merges produce exactly this shape —
    /// a k-way merge of sorted runs is sorted, and its values were
    /// carried along during the merge — so the rebuild reduces to two
    /// oblivious layout scatters (keys, then values through the same
    /// layout walk; see [`ist_perm::oblivious`]) that move each array
    /// **directly** into its aligned destination buffer: exactly one
    /// allocation per array on the rebuild hot path, no intermediate
    /// copy (a regression test pins the allocation count).
    ///
    /// Sortedness of `keys` is the caller's contract; debug builds
    /// assert it.
    ///
    /// The fourth parameter is **ignored**: the scatter above is the
    /// only construction this facade has, whichever [`Algorithm`] is
    /// named. It stays in the signature because the frozen benchmark
    /// (`perfbench/`) calls this function with it; the next `benchmark`
    /// PR drops it (see ROADMAP, "Minimal, round two").
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths.
    ///
    /// # Examples
    /// ```
    /// use implicit_search_trees::{Algorithm, Layout, QueryKind, StaticMap};
    /// // Already merged: sorted keys, values aligned.
    /// let map = StaticMap::build_presorted(
    ///     vec![10u64, 20, 30],
    ///     vec!["ten", "twenty", "thirty"],
    ///     QueryKind::Veb,
    ///     Algorithm::CycleLeader,
    /// )
    /// .unwrap();
    /// assert_eq!(map.get(&20), Some(&"twenty"));
    /// ```
    pub fn build_presorted(
        keys: Vec<K>,
        values: Vec<V>,
        kind: QueryKind,
        _ignored: Algorithm,
    ) -> Result<Self, Error> {
        Self::from_sorted_parts(keys, values, kind)
    }

    /// [`StaticMap::build_presorted`] without its ignored parameter —
    /// what every caller inside the workspace uses.
    pub(crate) fn from_sorted_parts(
        keys: Vec<K>,
        values: Vec<V>,
        kind: QueryKind,
    ) -> Result<Self, Error> {
        assert_eq!(
            keys.len(),
            values.len(),
            "StaticMap::build_presorted: {} keys but {} values",
            keys.len(),
            values.len()
        );
        debug_assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "StaticMap::build_presorted: keys are not sorted"
        );
        let (keys, values) = match kind.layout() {
            Some(layout) if !keys.is_empty() => {
                // One walk serves both scatters: the layouts are
                // data-oblivious, so the value side streams through the
                // same pieces and slots as the key side.
                let walk = LayoutWalk::new(layout, keys.len())?;
                (
                    AlignedVec::scatter_from_vec(keys, &walk),
                    AlignedVec::scatter_from_vec(values, &walk),
                )
            }
            _ => (AlignedVec::from_vec(keys), AlignedVec::from_vec(values)),
        };
        Ok(Self { keys, values, kind })
    }

    /// Reassemble a map from arrays already in **layout order** — the
    /// run-file load path: a persisted run stores its keys and values
    /// exactly as the in-memory `AlignedVec`s hold them, so a load is
    /// adoption plus this constructor, with no permutation work.
    /// Layout-order correctness is the caller's (the run file format's)
    /// contract.
    pub(crate) fn from_layout_parts(
        keys: AlignedVec<K>,
        values: AlignedVec<V>,
        kind: QueryKind,
    ) -> Self {
        debug_assert_eq!(keys.len(), values.len());
        Self { keys, values, kind }
    }

    /// Number of stored entries (duplicate keys counted).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` iff no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The layout the entries are stored in (`None` for the un-permuted
    /// [`QueryKind::Sorted`] baseline).
    pub fn layout(&self) -> Option<Layout> {
        self.kind.layout()
    }

    /// The descent this map answers queries with.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The stored keys in **layout order** (parallel to
    /// [`StaticMap::values`]; sorted order only for
    /// [`QueryKind::Sorted`]). A tree layout's buffer is at least
    /// 64-byte aligned; the sorted baseline adopts the caller's `Vec`.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Zero-copy view of the payloads in **layout order**: for every
    /// layout position `p` (as returned by the key side's `search` /
    /// `batch_search`), `values()[p]` is the payload stored under
    /// `keys()[p]`.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// A borrowing [`Searcher`] over the keys, for the position-level
    /// query API (`search`, `batch_search`, `batch_rank`, `batch_count`,
    /// `land`, …) and for amortizing shape setup across many
    /// calls.
    pub fn searcher(&self) -> Searcher<'_, K> {
        Searcher::new(&self.keys, self.kind)
    }

    /// [`StaticMap::searcher`] under the name the frozen benchmark
    /// (`perfbench/`) calls; it folds into `searcher` when the benchmark
    /// is next changed (see ROADMAP item 1).
    pub fn index(&self) -> Searcher<'_, K> {
        self.searcher()
    }

    /// `true` iff `key` is stored.
    pub fn contains_key(&self, key: &K) -> bool {
        self.searcher().contains(key)
    }

    /// The payload stored under `key`, if any (the value of its
    /// leftmost copy in sorted order when `key` is duplicated).
    pub fn get(&self, key: &K) -> Option<&V> {
        Some(&self.values[self.searcher().search(key)?])
    }

    /// Number of stored keys strictly smaller than `key`.
    pub fn rank(&self, key: &K) -> usize {
        self.searcher().rank(key)
    }

    /// The smallest stored entry with key `≥ key`, if any.
    pub fn lower_bound(&self, key: &K) -> Option<(&K, &V)> {
        self.entry_at(self.searcher().lower_bound(key)?)
    }

    /// The smallest stored entry with key **strictly greater** than
    /// `key`, if any.
    pub fn successor(&self, key: &K) -> Option<(&K, &V)> {
        self.entry_at(self.searcher().successor(key)?)
    }

    /// The largest stored entry with key **strictly smaller** than
    /// `key`, if any.
    pub fn predecessor(&self, key: &K) -> Option<(&K, &V)> {
        self.entry_at(self.searcher().predecessor(key)?)
    }

    /// Number of stored keys in the half-open interval `[lo, hi)`
    /// (duplicates counted), via two rank descents.
    ///
    /// **Reversed bounds are defined, not a bug**: when `lo > hi` (or
    /// `lo == hi`) the interval is empty and the count is `0` — never a
    /// panic, in debug or release, on any layout. The same contract
    /// holds for [`StaticMap::batch_range_count`] and
    /// [`Frozen::range_count`](crate::Frozen::range_count).
    pub fn range_count(&self, lo: &K, hi: &K) -> usize {
        self.searcher().range_count(lo, hi)
    }

    /// Payloads for a batch of lookups, on the software-pipelined
    /// multi-descent engine (parallel over adaptive chunks):
    /// `out[i]` is exactly what [`StaticMap::get`]`(keys[i])` returns.
    /// Keys are read in place through [`Borrow`], so `&[K]` and `&[&K]`
    /// are the same call — routing layers partition a batch by
    /// reference and pass the borrowed sub-batch straight in.
    ///
    /// Each chunk reads every key's landing and writes its payload
    /// reference straight into the one output vector
    /// ([`Searcher::batch_land_into`]), so the call allocates exactly
    /// that vector. Sharing `&V` with the chunks' threads is why this
    /// needs `V: Sync`.
    pub fn batch_get<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> Vec<Option<&V>>
    where
        V: Sync,
    {
        let values: &[V] = &self.values;
        let mut out = vec![None; keys.len()];
        self.searcher()
            .batch_land_into(keys, &mut out, |o, l| *o = l.hit().map(|p| &values[p]));
        out
    }

    /// Per-pair [`StaticMap::range_count`] for a batch of `(lo, hi)`
    /// ranges; both descents of every pair go through one pipeline.
    /// Reversed pairs (`lo > hi`) yield 0, like the scalar call.
    pub fn batch_range_count(&self, ranges: &[(K, K)]) -> Vec<usize> {
        self.searcher().batch_range_count(ranges)
    }

    fn entry_at(&self, pos: usize) -> Option<(&K, &V)> {
        Some((self.keys.get(pos)?, &self.values[pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payload type with no Ord/Eq — the obliviousness claim in types.
    struct Payload {
        tag: f64, // f64: not even Eq
    }

    #[test]
    fn values_follow_keys_through_every_layout() {
        let keys: Vec<u64> = vec![50, 10, 40, 20, 30, 20];
        let values: Vec<Payload> = keys.iter().map(|&k| Payload { tag: k as f64 }).collect();
        for kind in [
            QueryKind::Sorted,
            QueryKind::Bst,
            QueryKind::BstPrefetch,
            QueryKind::Btree(2),
            QueryKind::Veb,
        ] {
            let map = StaticMap::build_for_kind(
                keys.clone(),
                keys.iter().map(|&k| Payload { tag: k as f64 }).collect(),
                kind,
            )
            .unwrap();
            // Parallel views stay aligned slot by slot.
            for (k, v) in map.keys().iter().zip(map.values()) {
                assert_eq!(*k as f64, v.tag, "{kind:?}");
            }
            for k in &keys {
                assert_eq!(map.get(k).unwrap().tag, *k as f64, "{kind:?}");
            }
            assert!(map.get(&99).is_none());
        }
        drop(values);
    }

    #[test]
    fn empty_and_mismatched() {
        let map = StaticMap::<u64, String>::build(vec![], vec![], Layout::Bst).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.get(&1), None);
        assert_eq!(map.batch_get(&[1, 2]), vec![None, None]);
        assert_eq!(map.successor(&0), None);
        assert_eq!(map.lower_bound(&0), None);
        assert_eq!(map.searcher().batch_count(&[1, 2]), 0);
        let r =
            std::panic::catch_unwind(|| StaticMap::build(vec![1u64], vec!["a", "b"], Layout::Bst));
        assert!(r.is_err(), "length mismatch must panic");
    }
}
