//! [`DynamicMap`]: a write-capable key→value map built as
//! log-structured tiers of static layouts.
//!
//! The paper's layouts are data-oblivious, so rebuilding one from
//! sorted input is a single parallel scatter — cheap enough to be the
//! mutation primitive. This module applies the classic logarithmic
//! method (LSM-style) on top of it:
//!
//! ```text
//!        writes
//!          │
//!          ▼
//!   ┌─────────────┐   sorted write buffer (≤ cap entries, newest data)
//!   │   buffer    │
//!   └─────────────┘
//!          │ overflow: SEAL — freeze the sorted buffer into an L0 run
//!          ▼          (a move + weight prefix sum; synchronous, ~free)
//!   L0     ▒ ▒ ▒         sealed runs awaiting compaction (newest last)
//!          │ COMPACT — k-way merge + rebuild on a background worker;
//!          ▼           installed atomically on completion
//!   tier 0 ░             (≈ cap entries)        newest tier run
//!   tier 1 ░░            (≈ 2·cap)                  │
//!   tier 2 (empty)                                  │ age
//!   ⋮                                               │
//!   tier t ▓▓▓▓▓▓▓▓      (≈ 2^t·cap)            oldest run
//!
//!   ▒ ░  sorted order: sealed runs, and merged runs below the crossover
//!   ▓    the configured layout: merged runs from the crossover on
//! ```
//!
//! Every occupied tier (and every sealed L0 slot) holds one immutable
//! **run**: a [`StaticMap`] whose layout follows from its size — the
//! paper's crossover, applied run by run. A run too small to outgrow
//! the cache keeps its keys in **sorted order** ([`QueryKind::Sorted`]),
//! where binary search reads as fast as any layout and building costs
//! nothing: seals always, and compaction outputs below
//! `LAYOUT_CROSSOVER_VERSIONS` (2^18 versions, measured by the
//! `figures -- crossover` sweep; see its doc in `dynamic/run.rs`),
//! whose merged columns are adopted as they are. A larger compaction
//! output is scattered into the map's configured cache-optimal layout
//! — the `kind` it was built with names this large-run layout — by one
//! out-of-place scatter into cache-line-aligned storage
//! ([`StaticMap::build_presorted`]). A bulk load
//! ([`DynamicMap::build`]) lands as one run in the layout the caller
//! asked for, whatever its size. The overflow path is split in two so
//! the expensive half never sits on the writer's critical path:
//!
//! * **Seal** (synchronous, near-free): the sorted buffer is frozen
//!   into an L0 run via [`StaticMap::build_presorted`] with
//!   [`QueryKind::Sorted`] — sealed runs keep sorted order (≤ `cap`
//!   entries sit in a couple of cache lines; binary search is already
//!   optimal there, and the run only lives until the next compaction),
//!   so sealing is a buffer move plus a weight prefix sum, with no
//!   layout permutation on the write path.
//! * **Compact** (deamortized): all sealed runs plus the runs of every
//!   tier up to the first empty one are k-way merged (already-sorted
//!   sources) and rebuilt into that tier, in the layout its size calls
//!   for. This always runs on a background worker thread over
//!   `Arc`-shared immutable runs; the writer installs the finished run
//!   atomically at the start of a later mutation (or in
//!   [`DynamicMap::quiesce`]). Until then, reads and snapshots consult
//!   the sealed-but-uncompacted runs — newest first, before any tier —
//!   so answers stay exact while the merge is mid-flight. A caller that
//!   needs deterministic tier shapes (tests, replay) calls `quiesce`
//!   after each mutation: a mutation seals at most once, so a drained
//!   map plans every compaction over exactly one sealed run, as the
//!   synchronous logarithmic method would.
//!
//! Neither half writes to storage, also on a persistent map
//! ([`DynamicMap::persist_to`]): the WAL holds every mutation a sealed
//! or merged run absorbed, and run files are written only at
//! checkpoints, which come once the WAL holds dozens of buffers' worth
//! of entries.
//!
//! At most [`MAX_SEALED_RUNS`] sealed runs accumulate; past that the
//! writer blocks on the in-flight merge (backpressure bounds read
//! fan-out and memory, and is the only time a write waits for a merge).
//! Amortized, an element is merged `O(log(n/cap))` times over its
//! lifetime, exactly as in the synchronous schedule.
//!
//! ## Deletes, overwrites, and exact ranks: per-version weights
//!
//! Runs are immutable, so a delete is a **tombstone** (a version whose
//! payload slot is empty) that shadows older versions of its key; a
//! merge annihilates tombstones when (and only when) no older tier
//! remains below the merge target. Overwrites and re-inserts leave
//! multiple versions of one key resident at once, which would make the
//! natural "sum the per-run ranks" answer overcount. Every version
//! therefore carries an integer **weight**, assigned at write time so
//! that the invariant
//!
//! > for every key, the weights of all resident versions sum to **1 if
//! > the key is live and 0 if it is not**
//!
//! always holds: a fresh insert weighs `+1`, an overwrite of a live key
//! weighs `0`, a tombstone weighs minus the summed weight of the older
//! versions it shadows, and merges add the weights of the versions they
//! collapse. Each run stores its weights as a rank-indexed prefix-sum
//! array, so the run's contribution to a global rank is
//! `prefix[run.rank(key)]` — one descent — and
//!
//! `rank(k) = Σ_runs prefix[rank_r(k)] + Σ_{buffer, key < k} weight`
//!
//! is **exactly** the number of live keys strictly below `k`, no matter
//! how keys were overwritten, deleted, or re-inserted across runs.
//! `range_count` is a rank difference (reversed bounds yield 0), and
//! `len` is the total weight.
//!
//! ## Queries
//!
//! Every read is written once, on [`Frozen`] — a sorted buffer plus a
//! newest-first run list. The live map keeps its current state as one
//! (the writer rebuilds the run list at every seal, install and
//! recovery) and derefs to it, so `map.get(..)` and `snapshot.get(..)`
//! are the same code and neither allocates. Point lookups probe the
//! buffer, then runs newest-first, and stop at the first version found
//! (live → the value, tombstone → absent). [`Frozen::batch_get`] does
//! the same run-by-run but drives every run with the software-pipelined
//! batched engine
//! ([`Searcher::batch_land_into`](ist_query::Searcher::batch_land_into)),
//! so batched read throughput survives dynamization. Order queries
//! (`lower_bound` / `successor` / `predecessor`) combine per-run
//! candidates and skip dead versions.
//!
//! ## Snapshots: readers never block on a merge
//!
//! [`DynamicMap::snapshot`] returns a [`Frozen`] — the current run list
//! (shared, one `Arc` bump) plus a copy of the (small) buffer —
//! reflecting **exactly** the state at the call: taking it borrows
//! `&self` and every mutation needs `&mut self`, so no write can
//! interleave. A `Frozen` is `Send + Sync` and cheap to clone, so a
//! writer thread that owns the map hands readers its state by value —
//! down a channel, or once per batch tick — and each reader sees the
//! exact cut the writer took. Merges complete entirely before the
//! install swaps the run list, so a reader is never stalled behind
//! one, and the runs a `Frozen` references are kept alive by refcounts
//! even after the writer compacts them away.

mod compact;
mod read;
mod run;

pub use read::Frozen;

pub(crate) use run::{BufEntry, Prefix, Run};

use crate::map::default_kind_for_layout;
#[cfg(doc)]
use crate::map::StaticMap;
use crate::sync::{Arc, Mutex};
use compact::Pending;
use ist_core::{Error, Layout};
use ist_query::QueryKind;
use run::buffer_slot;

/// Default write-buffer capacity (entries buffered between seals).
///
/// Small enough that buffer probes and the (move-only) seal stay
/// cache-resident, large enough that merge amortization works; see
/// [`DynamicMap::with_config`] to tune.
pub const DEFAULT_BUFFER_CAP: usize = 256;

/// Maximum number of sealed L0 runs allowed to accumulate while a
/// compaction is in flight. Sealing past this limit blocks the writer
/// on the in-flight merge — the backpressure that bounds read fan-out
/// and resident memory, and the only point where a write waits for a
/// merge.
///
/// Sized so a full-depth merge comfortably finishes within the writes
/// that fill the budget: sealed runs are tiny (≤ `buffer_cap` sorted
/// entries each, probed by binary search), so the cost of a deep
/// budget is a few extra micro-run probes on reads, while too shallow
/// a budget puts the merge back on the writer's path exactly when it
/// is longest.
pub const MAX_SEALED_RUNS: usize = 16;

/// Sort `pairs` by key and keep one pair per key, the **last** one
/// given: a stable sort keeps equal keys in input order, and the dedup
/// swaps each later duplicate into the kept slot. The one definition of
/// "last entry per key wins" behind every bulk write (`apply` and the
/// bulk loaders of this map and of a sharded map).
pub fn sort_dedup_last_wins<K: Ord, V>(pairs: &mut Vec<(K, V)>) {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs.dedup_by(|later, kept| {
        if later.0 == kept.0 {
            std::mem::swap(later, kept);
            true
        } else {
            false
        }
    });
}

/// A write-capable key→value map: a sorted write buffer plus
/// geometrically-tiered immutable runs, each run a [`StaticMap`] —
/// sorted while it is small, in a cache-optimal implicit layout once it
/// outgrows the cache. See the [module docs](self) for the design.
///
/// Semantics mirror `std::collections::BTreeMap`: one live value per
/// key, `insert` overwrites, `remove` deletes; `rank`, `range_count`,
/// `lower_bound`, `successor`, and `predecessor` see only live keys.
/// Every read is a method of [`Frozen`], which the map derefs to.
///
/// # Examples
/// ```
/// use implicit_search_trees::{DynamicMap, Layout};
///
/// let mut m: DynamicMap<u64, &str> = DynamicMap::new(Layout::Veb);
/// assert!(!m.insert(2, "two")); // false: no live value replaced
/// m.insert(1, "one");
/// m.insert(3, "three");
/// assert_eq!(m.get(&2), Some(&"two"));
/// assert_eq!(m.rank(&3), 2);
/// assert_eq!(m.successor(&1), Some((&2, &"two")));
///
/// let snap = m.snapshot(); // frozen view
/// assert!(m.remove(&2));
/// assert_eq!(m.get(&2), None);
/// assert_eq!(m.len(), 2);
/// assert_eq!(snap.len(), 3); // unaffected by later writes
/// assert_eq!(snap.get(&2), Some(&"two"));
/// ```
pub struct DynamicMap<K, V> {
    /// The current read state: the write buffer (held uniquely — a
    /// snapshot copies it — so `Arc::make_mut` mutates in place) and
    /// the newest-first list of every run in `l0` and `tiers`, rebuilt
    /// by [`DynamicMap::refresh_runs`] wherever the run set changes.
    /// Reads reach it through `Deref`.
    live: Frozen<K, V>,
    /// Sealed-but-uncompacted L0 runs, **oldest first** (seals push to
    /// the back); all are newer than every tier run.
    pub(crate) l0: Vec<Arc<Run<K, V>>>,
    /// `tiers[0]` is the shallowest (newest-data) tier; within a tier,
    /// runs are **newest first**. The schedule keeps at most one run
    /// per tier; only a reopened store written by an earlier version
    /// can hold several, until a compaction reaches that tier.
    pub(crate) tiers: Vec<Vec<Arc<Run<K, V>>>>,
    /// The single in-flight compaction, if any.
    pending: Option<Pending<K, V>>,
    /// The **large-run** layout: what a compaction output of at least
    /// `LAYOUT_CROSSOVER_VERSIONS` versions (and a bulk load) is built
    /// in. Seals and smaller compaction outputs stay sorted.
    pub(crate) kind: QueryKind,
    pub(crate) buffer_cap: usize,
    /// Cumulative count of buffer entries displaced toward the back by
    /// out-of-order mutations (the cost the bulk append fast path
    /// avoids); see [`DynamicMap::buffer_element_moves`].
    buffer_moves: u64,
    /// The attached durability engine, if this map is persistent (see
    /// the [`crate::persist`] module). Behind a `Mutex` only so the map
    /// stays `Sync` — every access is `&mut self`, so the lock is
    /// uncontended.
    pub(crate) store: Option<Mutex<Box<dyn crate::persist::RunSink<K, V>>>>,
    /// Model-check hook: the next background worker panics inside its
    /// `DoneGuard` scope (exercises panic propagation to the writer).
    #[cfg(ist_loom)]
    panic_next_compaction: bool,
}

impl<K, V> DynamicMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty map storing its large runs in `layout` (best default
    /// descent, [`DEFAULT_BUFFER_CAP`]); small runs stay sorted.
    ///
    /// # Panics
    /// Panics on `Layout::Btree { b: 0 }`.
    pub fn new(layout: Layout) -> Self {
        Self::with_config(default_kind_for_layout(layout), DEFAULT_BUFFER_CAP)
    }

    /// Full-control constructor: explicit query descent and
    /// write-buffer capacity (`buffer_cap` writes are absorbed between
    /// seals; small values make seals and merges adversarially
    /// frequent, which the differential suite exploits). `kind` is the
    /// layout of the map's **large** runs: runs too small to outgrow
    /// the cache stay sorted, whatever `kind` says (see the
    /// [module docs](self)). Compaction runs on a background worker;
    /// call [`DynamicMap::quiesce`] after each mutation for
    /// deterministic tier shapes.
    ///
    /// # Panics
    /// Panics if `buffer_cap == 0` or `kind` is `QueryKind::Btree(0)`.
    pub fn with_config(kind: QueryKind, buffer_cap: usize) -> Self {
        assert!(buffer_cap >= 1, "buffer_cap must be at least 1");
        if let QueryKind::Btree(b) = kind {
            assert!(b >= 1, "B-tree node capacity B must be at least 1");
        }
        Self {
            live: Frozen::empty(),
            l0: Vec::new(),
            tiers: Vec::new(),
            pending: None,
            kind,
            buffer_cap,
            buffer_moves: 0,
            store: None,
            #[cfg(ist_loom)]
            panic_next_compaction: false,
        }
    }

    /// The attached durability sink, if any — `&mut self` access never
    /// contends, so the mutex is bypassed via `get_mut`.
    pub(crate) fn sink_mut(&mut self) -> Option<&mut Box<dyn crate::persist::RunSink<K, V>>> {
        self.store.as_mut().map(|m| {
            m.get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
    }

    /// Bulk-load from unsorted `(keys, values)` pairs (duplicate keys:
    /// the **last** pair wins, like repeated `BTreeMap::insert`). The
    /// data lands in a single run on a deep tier, leaving the shallow
    /// tiers free so subsequent writes don't immediately re-merge it.
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths.
    pub fn build(keys: Vec<K>, values: Vec<V>, layout: Layout) -> Result<Self, Error> {
        Self::build_for_kind(
            keys,
            values,
            default_kind_for_layout(layout),
            DEFAULT_BUFFER_CAP,
        )
    }

    /// [`DynamicMap::build`] with explicit descent and buffer capacity.
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths, or on the
    /// invalid configurations [`DynamicMap::with_config`] rejects.
    pub fn build_for_kind(
        keys: Vec<K>,
        values: Vec<V>,
        kind: QueryKind,
        buffer_cap: usize,
    ) -> Result<Self, Error> {
        assert_eq!(
            keys.len(),
            values.len(),
            "DynamicMap::build: {} keys but {} values",
            keys.len(),
            values.len()
        );
        let mut pairs: Vec<(K, V)> = keys.into_iter().zip(values).collect();
        sort_dedup_last_wins(&mut pairs);
        let (keys, values): (Vec<K>, Vec<V>) = pairs.into_iter().unzip();
        Self::build_presorted(keys, values, kind, buffer_cap)
    }

    /// Bulk-load from `(keys, values)` pairs that are **already sorted**
    /// by key with **distinct** keys, skipping the sort and dedup
    /// entirely: the fast path for callers that pre-partition sorted
    /// data (a `ShardedMap` bulk load builds every shard this way).
    /// Mirrors [`crate::StaticMap::build_presorted`].
    ///
    /// Sortedness and distinctness are the caller's contract; debug
    /// builds assert them.
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths, or on the
    /// invalid configurations [`DynamicMap::with_config`] rejects.
    pub fn build_presorted(
        keys: Vec<K>,
        values: Vec<V>,
        kind: QueryKind,
        buffer_cap: usize,
    ) -> Result<Self, Error> {
        assert_eq!(
            keys.len(),
            values.len(),
            "DynamicMap::build_presorted: {} keys but {} values",
            keys.len(),
            values.len()
        );
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "DynamicMap::build_presorted: keys are not sorted and distinct"
        );
        let mut map = Self::with_config(kind, buffer_cap);
        let n = keys.len();
        if n > 0 {
            // Deep enough that `t` buffer flushes fit above the bulk run.
            let mut t = 0usize;
            while (buffer_cap << t) < n {
                t += 1;
            }
            let slots: Vec<Option<V>> = values.into_iter().map(Some).collect();
            map.tiers = vec![Vec::new(); t + 1];
            map.tiers[t].push(Arc::new(Run::build(keys, slots, Prefix::Unit(n), kind)?));
            map.refresh_runs();
        }
        Ok(map)
    }

    // ----- mutation -----

    /// Insert or overwrite; returns `true` iff a live value for `key`
    /// was replaced (what `BTreeMap::insert(..).is_some()` reports).
    ///
    /// On buffer overflow this **seals** the buffer into a sorted L0
    /// run (a move plus a weight prefix sum — no layout permutation)
    /// and hands the k-way merge to a background worker, so the merge
    /// is off this call's path unless [`MAX_SEALED_RUNS`] backpressure
    /// engages.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.try_install();
        // Durability: the write is in the WAL before it is applied. A
        // poisoned or failing sink rejects the mutation outright (see
        // [`DynamicMap::store_error`]).
        if let Some(sink) = self.sink_mut() {
            if !sink.log_put(&key, &value) {
                return false;
            }
        }
        let live_before;
        match buffer_slot(&self.live.buffer, &key) {
            Ok(i) => {
                // Buffer hit: the entry's weight already encodes the
                // runs' summed weight for this key (weight = liveness −
                // s, see the module docs), so the overwrite needs no
                // run descent at all.
                let entry = &mut self.buffer_mut()[i];
                let s = if entry.slot.is_some() {
                    1 - entry.weight
                } else {
                    -entry.weight
                };
                live_before = entry.slot.is_some();
                entry.slot = Some(value);
                entry.weight = 1 - s;
            }
            Err(i) => {
                let s = self.runs_weight_of(&key);
                live_before = s == 1;
                self.buffer_moves += (self.live.buffer.len() - i) as u64;
                self.buffer_mut().insert(
                    i,
                    BufEntry {
                        key,
                        slot: Some(value),
                        weight: 1 - s,
                    },
                );
                self.maybe_seal();
            }
        }
        self.after_mutation();
        live_before
    }

    /// Delete; returns `true` iff a live value for `key` was removed
    /// (what `BTreeMap::remove(..).is_some()` reports). Removing an
    /// absent or already-deleted key is a no-op.
    ///
    /// A delete that must shadow older resident versions buffers a
    /// tombstone, annihilated when a merge reaches the bottom tier.
    pub fn remove(&mut self, key: &K) -> bool {
        self.try_install();
        // Log-before-apply, as in `insert` (no-op removes are logged
        // too: replay reproduces them as no-ops).
        if let Some(sink) = self.sink_mut() {
            if !sink.log_del(key) {
                return false;
            }
        }
        let live_before;
        match buffer_slot(&self.live.buffer, key) {
            Ok(i) => {
                // Buffer hit: recover `s` from the entry itself, no run
                // descent (see `insert`).
                let entry = &mut self.buffer_mut()[i];
                let s = if entry.slot.is_some() {
                    1 - entry.weight
                } else {
                    -entry.weight
                };
                live_before = entry.slot.is_some();
                entry.slot = None;
                entry.weight = -s;
            }
            Err(i) => {
                let s = self.runs_weight_of(key);
                if s == 1 {
                    live_before = true;
                    self.buffer_moves += (self.live.buffer.len() - i) as u64;
                    self.buffer_mut().insert(
                        i,
                        BufEntry {
                            key: key.clone(),
                            slot: None,
                            weight: -1,
                        },
                    );
                    self.maybe_seal();
                } else {
                    debug_assert_eq!(s, 0, "per-key weight invariant violated");
                    live_before = false;
                }
            }
        }
        self.after_mutation();
        live_before
    }

    /// Bulk insert: [`DynamicMap::apply`] with every pair as an
    /// insert (the **last** pair of a duplicated key wins). Returns how
    /// many **distinct** batch keys were live before the batch — the
    /// batch analog of the scalar `bool`s summed, except that
    /// intra-batch overwrites of the same key count once, not per pair.
    ///
    /// # Examples
    /// ```
    /// use implicit_search_trees::{DynamicMap, Layout};
    ///
    /// let mut m: DynamicMap<u64, &str> = DynamicMap::new(Layout::Veb);
    /// m.insert(1, "old");
    /// let replaced = m.batch_insert(vec![(1, "new"), (2, "two"), (3, "three")]);
    /// assert_eq!(replaced, 1); // only key 1 was live before
    /// assert_eq!(m.len(), 3);
    /// assert_eq!(m.get(&1), Some(&"new"));
    /// ```
    pub fn batch_insert(&mut self, pairs: Vec<(K, V)>) -> usize {
        self.apply(pairs.into_iter().map(|(k, v)| (k, Some(v))).collect())
    }

    /// Bulk delete: [`DynamicMap::apply`] with every key as a remove
    /// (duplicates collapse). Returns how many keys were live before
    /// the batch. Keys that are absent (or already deleted) are no-ops
    /// and buffer no tombstone.
    ///
    /// # Examples
    /// ```
    /// use implicit_search_trees::{DynamicMap, Layout};
    ///
    /// let mut m: DynamicMap<u64, u64> = DynamicMap::new(Layout::Veb);
    /// m.batch_insert((0..10u64).map(|k| (k, k)).collect());
    /// assert_eq!(m.batch_remove(&[3, 4, 99]), 2); // 99 was never live
    /// assert_eq!(m.len(), 8);
    /// ```
    pub fn batch_remove(&mut self, keys: &[K]) -> usize {
        self.apply(keys.iter().map(|k| (k.clone(), None)).collect())
    }

    /// Bulk write: apply a mixed delta as one operation — `Some(v)`
    /// inserts or overwrites, `None` removes (duplicate keys in the
    /// delta: the **last** entry wins, like the scalar calls in
    /// order). Returns how many **distinct** delta keys were live
    /// before the call. On a persistent map the whole delta is one WAL
    /// record.
    ///
    /// The delta is sorted **once**, its per-key run weights are
    /// resolved with one software-pipelined landing sweep per resident
    /// run (instead of one descent cascade per key), and the
    /// result is combined with the write buffer in a single linear
    /// merge — no per-key `O(cap)` memmove. A delta that lands
    /// entirely above the current buffer maximum appends without
    /// touching existing entries at all (see
    /// [`DynamicMap::buffer_element_moves`]). If the combined buffer
    /// overflows `buffer_cap` it is sealed directly into a presorted
    /// L0 run and handed to the compactor, exactly like a scalar
    /// overflow.
    ///
    /// # Examples
    /// ```
    /// use implicit_search_trees::{DynamicMap, Layout};
    ///
    /// let mut m: DynamicMap<u64, &str> = DynamicMap::new(Layout::Veb);
    /// m.batch_insert(vec![(1, "one"), (2, "two")]);
    /// let live = m.apply(vec![(1, None), (2, Some("TWO")), (3, Some("three")), (4, None)]);
    /// assert_eq!(live, 2); // keys 1 and 2 were live before
    /// assert_eq!(m.get(&1), None);
    /// assert_eq!(m.get(&2), Some(&"TWO"));
    /// assert_eq!(m.len(), 2);
    /// ```
    pub fn apply(&mut self, mut delta: Vec<(K, Option<V>)>) -> usize {
        if delta.is_empty() {
            return 0;
        }
        self.try_install();
        // One WAL record for the whole delta, logged **before** the
        // sort so replay applies the verbatim batch through this same
        // path (sort + dedup are deterministic).
        if let Some(sink) = self.sink_mut() {
            if !sink.log_delta(&delta) {
                return 0;
            }
        }
        sort_dedup_last_wins(&mut delta);
        // Per-key summed run weights, one pipelined landing sweep per
        // run, each adding its weights in place (the bulk analog of
        // `runs_weight_of`); the keys are read through references.
        let mut s_runs = vec![0i64; delta.len()];
        let keys: Vec<&K> = delta.iter().map(|(k, _)| k).collect();
        for run in self.live.runs.iter() {
            let searcher = run.map.searcher();
            searcher.batch_land_into(&keys, &mut s_runs, |s, l| *s += run.weight_at(l));
        }
        // Combine the delta with the buffer in one linear merge (delta
        // wins per key). A batch strictly above the buffer max appends
        // without displacing a single existing entry.
        let batch_len = delta.len();
        let mut changed = 0usize;
        let append = match (self.live.buffer.last(), delta.first()) {
            (Some(last), Some((first, _))) => last.key < *first,
            _ => true,
        };
        let (old, mut merged) = if append {
            (Vec::new(), std::mem::take(self.buffer_mut()))
        } else {
            let old = std::mem::take(self.buffer_mut());
            let cap = old.len() + batch_len;
            (old, Vec::with_capacity(cap))
        };
        let mut old_it = old.into_iter().peekable();
        let mut displaced = 0u64;
        let mut delta_started = false;
        for (i, (key, slot)) in delta.into_iter().enumerate() {
            while old_it.peek().is_some_and(|e| e.key < key) {
                if delta_started {
                    displaced += 1;
                }
                merged.push(old_it.next().expect("peeked"));
            }
            let s = s_runs[i];
            let buffered = old_it
                .peek()
                .is_some_and(|e| e.key == key)
                .then(|| old_it.next().expect("peeked").weight);
            let live_before = s + buffered.unwrap_or(0) == 1;
            if live_before {
                changed += 1;
            }
            delta_started = true;
            match slot {
                Some(v) => merged.push(BufEntry {
                    key,
                    slot: Some(v),
                    weight: 1 - s,
                }),
                // A tombstone only needs buffering if run versions hold
                // non-zero weight; with `s == 0` the runs' newest
                // version (if any) is already dead, so the key can
                // simply vanish from the buffer.
                None if s != 0 => merged.push(BufEntry {
                    key,
                    slot: None,
                    weight: -s,
                }),
                None => {}
            }
        }
        for e in old_it {
            displaced += 1;
            merged.push(e);
        }
        *self.buffer_mut() = merged;
        self.buffer_moves += displaced;
        self.maybe_seal();
        self.after_mutation();
        changed
    }

    /// Seal the buffer now, regardless of fill level, and start a
    /// compaction — so subsequent reads (and snapshots, which then copy
    /// an empty buffer) skip the buffer probe. Note the merge targets
    /// the first empty tier: if tier 0 is empty this *adds* a shallow
    /// run rather than reducing the run count (follow with
    /// [`DynamicMap::quiesce`] to see it land).
    // LINT-ALLOW(test-only-pub): model_check's panic-propagation model seals with it
    pub fn compact_buffer(&mut self) {
        self.try_install();
        self.seal();
        self.ensure_compaction();
        self.after_mutation();
    }

    /// Drain all deferred compaction work: block until the in-flight
    /// merge (if any) installs and every sealed L0 run has been
    /// compacted into a tier. The buffer is left as-is (it is the
    /// normal resting state for recent writes). Afterwards
    /// [`DynamicMap::sealed_runs`] is 0 and
    /// [`DynamicMap::compaction_in_flight`] is `false`.
    ///
    /// Observable state is unchanged — compaction never alters answers,
    /// only where versions reside. Worth calling at the end of a write
    /// burst: installs otherwise happen at the start of the **next**
    /// mutation, so a map that goes read-only mid-compaction keeps both
    /// the merge's source runs and the finished merged run resident
    /// (up to 2× the compacted data) until some later write or this
    /// call installs it.
    ///
    /// Called after every mutation, it also makes tier shapes
    /// deterministic ([`DynamicMap::tier_versions`] then depends only
    /// on the operation sequence, not on worker timing).
    pub fn quiesce(&mut self) {
        loop {
            self.wait_for_pending();
            if self.l0.is_empty() {
                break;
            }
            self.start_compaction();
        }
        self.after_mutation();
    }

    // ----- model-check hooks (compiled only under `--cfg ist_loom`) -----

    /// Make the next background compaction worker panic after arming
    /// its `DoneGuard`, to model-check panic propagation to the writer.
    #[cfg(ist_loom)]
    // LINT-ALLOW(test-only-pub): model_check's panic-propagation model arms it
    pub fn debug_panic_next_compaction(&mut self) {
        self.panic_next_compaction = true;
    }

    // ----- snapshots -----

    /// An immutable view of the current state; later writes to `self`
    /// are invisible to it. Cost: one copy of the (≤ `buffer_cap`-entry)
    /// buffer plus one `Arc` bump for the shared run list.
    ///
    /// The snapshot is the exact state at the call and crosses threads
    /// by value: a writer thread sends it to its readers.
    pub fn snapshot(&self) -> Frozen<K, V> {
        Frozen {
            buffer: Arc::new(Vec::clone(&self.live.buffer)),
            runs: Arc::clone(&self.live.runs),
        }
    }

    // ----- introspection -----

    /// Writes currently absorbed by the buffer (not yet sealed).
    pub fn buffered_versions(&self) -> usize {
        self.live.buffer.len()
    }

    /// Resident versions per run, per tier: element `t` lists tier
    /// `t`'s runs newest-first (empty = empty tier; more than one run
    /// appears only in a reopened store that an earlier version wrote
    /// that way, until a compaction reaches the tier). Sealed L0 runs
    /// are **not** included (see
    /// [`DynamicMap::sealed_versions`]). Sums can exceed
    /// [`Frozen::len`]: overwrites, re-inserts, and tombstones all
    /// hold versions until a merge collapses them.
    pub fn tier_versions(&self) -> Vec<Vec<usize>> {
        self.tiers
            .iter()
            .map(|t| t.iter().map(|r| r.versions()).collect())
            .collect()
    }

    /// Cumulative count of buffer entries displaced toward the back of
    /// the sorted write buffer by mutations (each scalar out-of-order
    /// insert shifts `len − i` entries; a bulk delta that interleaves
    /// re-positions the tail it overlaps). A batch that lands entirely
    /// above the buffer maximum takes the **append fast path** and
    /// displaces nothing — the regression meter for it.
    pub fn buffer_element_moves(&self) -> u64 {
        self.buffer_moves
    }

    /// Resident versions per sealed-but-uncompacted L0 run, newest
    /// first.
    pub fn sealed_versions(&self) -> Vec<usize> {
        self.l0.iter().rev().map(|r| r.versions()).collect()
    }

    /// Number of sealed L0 runs awaiting compaction.
    pub fn sealed_runs(&self) -> usize {
        self.l0.len()
    }

    /// `true` while a compaction is in flight (started but not yet
    /// installed); [`DynamicMap::quiesce`] leaves it `false`.
    pub fn compaction_in_flight(&self) -> bool {
        self.pending.is_some()
    }

    /// Number of resident runs (sealed L0 runs plus tier runs).
    pub fn run_count(&self) -> usize {
        self.l0.len() + self.tiers.iter().map(Vec::len).sum::<usize>()
    }

    // ----- internals -----

    /// Re-derive the newest-first run list every read, weight probe,
    /// and snapshot goes through: sealed L0 runs (newest sealed last in
    /// `l0`), then tiers shallow-to-deep. Called wherever `l0` or
    /// `tiers` change — seal, install, bulk load, recovery.
    pub(crate) fn refresh_runs(&mut self) {
        let runs = self.l0.iter().rev().chain(self.tiers.iter().flatten());
        self.live.runs = Arc::new(runs.cloned().collect());
    }

    /// The write buffer, for mutation. The live buffer is never shared
    /// by this module (snapshots copy it), so `make_mut` mutates in
    /// place; it copies only if a caller cloned the live [`Frozen`]
    /// through `Deref`, which then keeps its own version.
    fn buffer_mut(&mut self) -> &mut Vec<BufEntry<K, V>> {
        Arc::make_mut(&mut self.live.buffer)
    }

    /// Mutation epilogue: on a persistent map, checkpoint once the WAL
    /// is long enough (see [`crate::persist`]).
    fn after_mutation(&mut self) {
        if let Some(store) = &mut self.store {
            let sink = store
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            sink.checkpoint_if_due(&self.l0, &self.tiers, &self.live.buffer);
        }
    }

    /// Summed weight of `key`'s versions across all resident runs
    /// (excluding the buffer): one rank descent per run.
    fn runs_weight_of(&self, key: &K) -> i64 {
        self.live.runs.iter().map(|r| r.weight_of(key)).sum()
    }

    /// Seal and hand the sealed run to the compactor once the buffer
    /// holds `buffer_cap` entries.
    fn maybe_seal(&mut self) {
        if self.live.buffer.len() >= self.buffer_cap {
            self.seal();
            self.ensure_compaction();
        }
    }

    /// The seal half of the overflow path: freeze the sorted buffer
    /// into an immutable L0 run — the only construction work on the
    /// writer's critical path. Snapshots taken afterwards share the new
    /// run by `Arc` without any data copy.
    ///
    /// Sealed runs stay in **sorted order** ([`QueryKind::Sorted`]):
    /// they hold ≤ `buffer_cap` entries, where binary search is already
    /// cache-resident, and they live only until the next compaction
    /// merges them into a tier run — so the seal is a `move` of the
    /// buffer plus a weight prefix sum, with no layout permutation at
    /// all on the write path. This holds whatever `buffer_cap` is: the
    /// size crossover that lays out large compaction outputs does not
    /// apply to seals.
    ///
    /// A seal writes nothing, also on a persistent map: the WAL still
    /// holds every mutation the sealed run absorbed, and the run reaches
    /// disk at the next checkpoint — if a compaction has not merged it
    /// away by then (see [`crate::persist`]).
    fn seal(&mut self) {
        if self.live.buffer.is_empty() {
            return;
        }
        let buffer = std::mem::take(self.buffer_mut());
        let mut keys = Vec::with_capacity(buffer.len());
        let mut slots = Vec::with_capacity(buffer.len());
        let mut weights = Vec::with_capacity(buffer.len());
        for e in buffer {
            keys.push(e.key);
            slots.push(e.slot);
            weights.push(e.weight);
        }
        let prefix = Prefix::from_weights(&weights);
        let run = Run::build(keys, slots, prefix, QueryKind::Sorted)
            .expect("sorted runs never fail to build");
        self.l0.push(Arc::new(run));
        self.refresh_runs();
    }
}

impl<K, V> std::ops::Deref for DynamicMap<K, V> {
    type Target = Frozen<K, V>;

    /// The map's current state. Holding the borrow is what keeps it
    /// frozen: every mutation needs `&mut self`.
    fn deref(&self) -> &Frozen<K, V> {
        &self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    impl<K, V> DynamicMap<K, V>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        /// Test-only exhaustive check of the per-key weight invariant:
        /// for every resident key, weights sum to 1 iff the newest
        /// version is live. Holds at every instant, including while a
        /// background compaction is mid-flight (sealed runs included).
        fn validate_weights(&self) {
            let mut keys: Vec<K> = self.buffer.iter().map(|e| e.key.clone()).collect();
            for run in self.runs.iter() {
                keys.extend_from_slice(run.map.keys());
            }
            keys.sort();
            keys.dedup();
            for k in keys {
                let total = self.runs_weight_of(&k)
                    + self
                        .buffer
                        .iter()
                        .find(|e| e.key == k)
                        .map_or(0, |e| e.weight);
                let live = self.version(&k).expect("resident").is_some();
                assert_eq!(total, i64::from(live), "weight invariant for resident key");
            }
        }
    }

    #[test]
    fn tier_evolution_is_binomial() {
        // Quiesce after every write: deterministic tier shapes (a
        // free-running worker preserves answers, not shapes).
        let mut m: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 4);
        for k in 0..16u64 {
            m.insert(k, k * 10);
            m.quiesce();
            m.validate_weights();
        }
        // 16 inserts at cap 4 = 4 seal+compact cycles: binomial counter
        // 100 -> tier 2 holds everything, tiers 0/1 empty.
        assert_eq!(m.tier_versions(), vec![vec![], vec![], vec![16]]);
        assert_eq!(m.sealed_runs(), 0);
        assert_eq!(m.len(), 16);
        assert_eq!(m.buffered_versions(), 0);
        for k in 0..16u64 {
            assert_eq!(m.get(&k), Some(&(k * 10)));
            assert_eq!(m.rank(&k), k as usize);
        }
    }

    #[test]
    fn batch_append_fast_path_moves_no_elements() {
        let mut m: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 64);
        // Even keys only, so later odd-key writes miss the buffer.
        assert_eq!(m.batch_insert((0..16u64).map(|k| (2 * k, k)).collect()), 0);
        assert_eq!(
            m.buffer_element_moves(),
            0,
            "first batch fills empty buffer"
        );
        // A sorted batch strictly above the buffer max appends without
        // displacing a single existing entry.
        assert_eq!(m.batch_insert((16..32u64).map(|k| (2 * k, k)).collect()), 0);
        assert_eq!(m.buffer_element_moves(), 0, "above-max batch must append");
        // An overlapping batch pays only for the entries it passes.
        assert_eq!(m.batch_insert(vec![(10, 500)]), 1);
        let after_overlap = m.buffer_element_moves();
        assert!(after_overlap > 0, "overlapping batch displaces the tail");
        // A per-key buffer-miss insert below the max pays the O(cap)
        // memmove the batch path avoids.
        m.insert(1, 100);
        assert!(m.buffer_element_moves() > after_overlap);
        m.validate_weights();
        assert_eq!(m.len(), 33);
        assert_eq!(m.get(&10), Some(&500));
    }

    #[test]
    fn batch_ops_match_scalar_loop() {
        let mut batched: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 4);
        let mut scalar = DynamicMap::with_config(QueryKind::Veb, 4);
        // Duplicate keys in one batch: last pair wins, exactly like the
        // scalar loop; the count is per **distinct** key live before
        // (the scalar loop would also count intra-batch overwrites).
        let pairs = vec![(5u64, 1u64), (3, 2), (5, 3), (9, 4), (3, 5)];
        for &(k, v) in &pairs {
            scalar.insert(k, v);
            scalar.quiesce();
        }
        assert_eq!(batched.batch_insert(pairs), 0, "nothing was live before");
        batched.quiesce();
        batched.validate_weights();
        // Re-inserting over live keys counts each distinct key once.
        assert_eq!(batched.batch_insert(vec![(5, 7), (5, 8), (11, 9)]), 1);
        batched.quiesce();
        for (k, v, live) in [(5, 7, true), (5, 8, true), (11, 9, false)] {
            assert_eq!(scalar.insert(k, v), live);
            scalar.quiesce();
        }
        let keys = [3u64, 3, 7, 9];
        let expect_removed = [3u64, 7, 9]
            .iter()
            .map(|k| {
                let removed = scalar.remove(k);
                scalar.quiesce();
                usize::from(removed)
            })
            .sum::<usize>();
        assert_eq!(batched.batch_remove(&keys), expect_removed);
        batched.quiesce();
        batched.validate_weights();
        for k in 0..12u64 {
            assert_eq!(batched.get(&k), scalar.get(&k));
            assert_eq!(batched.rank(&k), scalar.rank(&k));
        }
        assert_eq!(batched.len(), scalar.len());
        // One mixed delta: insert-then-remove of absent 20,
        // remove-then-insert of live 5, a remove of absent 99, an
        // overwrite of live 11. Last entry per key wins; the count is
        // distinct keys live before the call.
        let delta = vec![
            (20u64, Some(1u64)),
            (20, None),
            (5, None),
            (5, Some(50)),
            (99, None),
            (11, Some(90)),
        ];
        let distinct: std::collections::BTreeSet<u64> = delta.iter().map(|(k, _)| *k).collect();
        let expect_live = distinct.iter().filter(|k| scalar.get(k).is_some()).count();
        for &(k, v) in &delta {
            match v {
                Some(v) => scalar.insert(k, v),
                None => scalar.remove(&k),
            };
            scalar.quiesce();
        }
        assert_eq!(expect_live, 2);
        assert_eq!(batched.apply(delta), expect_live);
        batched.quiesce();
        batched.validate_weights();
        for k in 0..100u64 {
            assert_eq!(batched.get(&k), scalar.get(&k));
            assert_eq!(batched.rank(&k), scalar.rank(&k));
        }
        assert_eq!(batched.len(), scalar.len());
        // Empty batches are free no-ops.
        assert_eq!(batched.batch_insert(Vec::new()), 0);
        assert_eq!(batched.batch_remove(&[]), 0);
        assert_eq!(batched.apply(Vec::new()), 0);
    }

    #[test]
    fn annihilation_empties_the_structure() {
        let mut m: DynamicMap<u64, &str> = DynamicMap::with_config(QueryKind::BstPrefetch, 1);
        m.insert(7, "seven"); // seal+compact -> tier 0 live
        m.quiesce();
        assert!(m.remove(&7)); // tombstone merge reaches bottom -> annihilated
        m.quiesce();
        m.validate_weights();
        assert_eq!(m.len(), 0);
        assert_eq!(m.run_count(), 0, "tombstone + value must annihilate");
        assert_eq!(m.get(&7), None);
        assert!(!m.remove(&7), "double delete is a no-op");
    }

    #[test]
    fn background_annihilation_after_quiesce() {
        let mut m: DynamicMap<u64, &str> = DynamicMap::with_config(QueryKind::BstPrefetch, 1);
        m.insert(7, "seven");
        assert!(m.remove(&7));
        m.validate_weights();
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(&7), None);
        m.quiesce();
        assert_eq!(m.sealed_runs(), 0);
        assert!(!m.compaction_in_flight());
        assert_eq!(m.run_count(), 0, "tombstone + value must annihilate");
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn reinsert_across_runs_keeps_ranks_exact() {
        let mut m: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Btree(2), 2);
        // Spread versions of key 5 across several runs.
        for round in 0..5u64 {
            m.insert(5, round);
            m.insert(100 + round, round);
            m.validate_weights();
        }
        assert_eq!(m.get(&5), Some(&4));
        assert_eq!(m.len(), 6); // 5 plus 100..=104
        assert_eq!(m.rank(&100), 1, "key 5 must count once despite re-inserts");
        assert_eq!(m.range_count(&0, &200), 6);
        assert!(m.remove(&5));
        m.validate_weights();
        assert_eq!(m.rank(&100), 0);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn bulk_build_last_duplicate_wins() {
        let m = DynamicMap::build(
            vec![3u64, 1, 3, 2, 1],
            vec!["a", "b", "c", "d", "e"],
            Layout::Bst,
        )
        .unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&1), Some(&"e"));
        assert_eq!(m.get(&3), Some(&"c"));
        assert_eq!(m.get(&2), Some(&"d"));
        assert_eq!(m.run_count(), 1);
    }

    #[test]
    fn reversed_bounds_yield_zero() {
        let mut m: DynamicMap<u64, u64> = DynamicMap::new(Layout::Veb);
        for k in 0..50u64 {
            m.insert(k, k);
        }
        assert_eq!(m.range_count(&30, &10), 0);
        assert_eq!(m.range_count(&10, &10), 0);
        assert_eq!(
            m.batch_range_count(&[(30, 10), (0, 50), (49, 49)]),
            vec![0, 50, 0]
        );
        assert_eq!(m.snapshot().range_count(&u64::MAX, &0), 0);
    }

    #[test]
    fn snapshots_are_isolated_and_readers_advance() {
        let mut m: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 3);
        let mut snaps = vec![m.snapshot()];
        for k in 0..10u64 {
            m.insert(k, k);
            snaps.push(m.snapshot());
        }
        // Every snapshot is pinned at exactly its prefix, seals and
        // merges in between notwithstanding.
        for (i, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.len(), i, "snapshot pinned at its prefix");
            assert_eq!(snap.get(&(i as u64)), None);
            if i > 0 {
                assert_eq!(snap.get(&(i as u64 - 1)), Some(&(i as u64 - 1)));
            }
        }
        assert_eq!(snaps[9].batch_get(&[0, 9]), vec![Some(&0), None]);
        assert_eq!(snaps[10].batch_get(&[0, 9]), vec![Some(&0), Some(&9)]);
    }

    /// A value whose clones are counted: the write-amplification
    /// contract in types.
    #[derive(Debug)]
    struct CountedVal {
        n: u64,
        clones: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Clone for CountedVal {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::SeqCst);
            Self {
                n: self.n,
                clones: Arc::clone(&self.clones),
            }
        }
    }

    #[test]
    fn writes_clone_nothing_until_a_snapshot_or_merge() {
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut m: DynamicMap<u64, CountedVal> = DynamicMap::with_config(QueryKind::Veb, 64);
        for k in 0..63u64 {
            m.insert(
                k,
                CountedVal {
                    n: k,
                    clones: Arc::clone(&clones),
                },
            );
        }
        // The write-amplification contract: buffered writes clone
        // NOTHING.
        assert_eq!(
            clones.load(Ordering::SeqCst),
            0,
            "buffered writes must not clone"
        );
        // A snapshot copies the live buffer — exactly once, on demand.
        let snap = m.snapshot();
        assert_eq!(clones.load(Ordering::SeqCst), 63);
        assert_eq!(snap.len(), 63);
        drop(snap);
        // The 64th insert seals: entries move into the L0 run without
        // cloning, and the merge streams each version exactly once.
        m.insert(
            63,
            CountedVal {
                n: 63,
                clones: Arc::clone(&clones),
            },
        );
        m.quiesce();
        assert_eq!(
            clones.load(Ordering::SeqCst),
            63 + 64,
            "seal + one merge stream, nothing else"
        );
        // A merge whose sources share keys and hold tombstones clones
        // only the versions it keeps: not the shadowed versions, not the
        // annihilated ones.
        let before = clones.load(Ordering::SeqCst);
        for k in 0..60u64 {
            let clones = Arc::clone(&clones);
            m.insert(
                k,
                CountedVal {
                    n: k + 1000,
                    clones,
                },
            );
        }
        for k in 60..63u64 {
            assert!(m.remove(&k));
        }
        assert_eq!(
            clones.load(Ordering::SeqCst),
            before,
            "writes clone nothing"
        );
        // The 64th write seals and merges: the 60 overwrites, key 63 from
        // the older run and key 100 survive; keys 60–62 annihilate with
        // their tombstones.
        m.insert(
            100,
            CountedVal {
                n: 100,
                clones: Arc::clone(&clones),
            },
        );
        m.quiesce();
        assert_eq!(m.tier_versions(), vec![vec![], vec![62]]);
        assert_eq!(
            clones.load(Ordering::SeqCst) - before,
            62,
            "one clone per survivor"
        );
        assert_eq!(m.get(&0).map(|v| v.n), Some(1000));
        assert_eq!(m.get(&63).map(|v| v.n), Some(63));
        assert!(m.get(&61).is_none());
    }

    /// A value whose clone panics once armed: the only clones in the
    /// write path happen on the merge worker, so arming it detonates
    /// the background compaction.
    struct Grenade {
        armed: bool,
    }

    impl Clone for Grenade {
        fn clone(&self) -> Self {
            assert!(!self.armed, "merge grenade");
            Self { armed: self.armed }
        }
    }

    #[test]
    fn background_worker_panics_propagate_to_writer() {
        let result = std::panic::catch_unwind(|| {
            let mut m: DynamicMap<u64, Grenade> = DynamicMap::with_config(QueryKind::Veb, 4);
            // Armed values reach the worker via a seal; the writer must
            // observe the worker's panic at a later install (or at the
            // quiesce() below at the latest), not seal forever on top
            // of a compaction that will never finish.
            for k in 0..200u64 {
                m.insert(k, Grenade { armed: true });
            }
            m.quiesce();
        });
        let payload = result.expect_err("worker panic must reach the writer");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("merge grenade"), "unexpected panic: {msg}");
    }

    #[test]
    fn free_running_matches_quiesced_observably() {
        let mut quiesced: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Btree(2), 4);
        let mut bg: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Btree(2), 4);
        // A deterministic mutation mix with overwrites and deletes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..600u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 50;
            if x.is_multiple_of(5) {
                assert_eq!(quiesced.remove(&k), bg.remove(&k), "op {i}");
            } else {
                assert_eq!(quiesced.insert(k, i), bg.insert(k, i), "op {i}");
            }
            quiesced.quiesce();
            assert_eq!(quiesced.len(), bg.len(), "op {i}");
            bg.validate_weights();
        }
        bg.quiesce();
        assert_eq!(bg.sealed_runs(), 0);
        for k in 0..52u64 {
            assert_eq!(quiesced.get(&k), bg.get(&k));
            assert_eq!(quiesced.rank(&k), bg.rank(&k));
            assert_eq!(
                quiesced.successor(&k).map(|(a, b)| (*a, *b)),
                bg.successor(&k).map(|(a, b)| (*a, *b))
            );
        }
    }
}
