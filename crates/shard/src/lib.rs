//! # ist-shard
//!
//! [`Sharded`]: a **key-range-sharded** serving facade — the
//! multi-writer-scale front-end of the serving story. One generic type
//! carries the routing, the offset sums and the batch fan-out; what
//! its shards are decides what else it can do:
//!
//! | alias | shard type | beyond the shared reads |
//! |---|---|---|
//! | [`ShardedMap`] | [`DynamicMap`] | writes, compaction control, persistence, `snapshot()` |
//! | [`ShardedFrozen`] | [`Frozen`] | nothing — an immutable composite snapshot |
//!
//! ## Range partition
//!
//! A `Sharded` is `splits.len() + 1` shards under a sorted,
//! strictly-increasing split-key vector: shard `0` owns keys below
//! `splits[0]`, shard `i` owns `[splits[i-1], splits[i])`, the last
//! shard owns everything from the last split up
//! ([`ist_query::route::shard_of_key`]). Each [`ShardedMap`] shard is a
//! full [`DynamicMap`]: its own write buffer, sealed L0 runs, tiers, and
//! background compaction worker — so shards seal and merge
//! independently, and a hot key range never stalls writes elsewhere.
//!
//! ## Why the answers stay exact
//!
//! The **range-partition invariant** — every key in shard `j < i` is
//! strictly smaller than every key in shard `i` — turns global order
//! statistics into sums of per-shard answers:
//!
//! `rank(k) = Σ_{j < shard(k)} len_j + rank_{shard(k)}(k)`
//!
//! and `range_count` is a rank difference, so both are exact for the
//! same reason the per-shard answers are (the weight machinery in
//! [`ist_dynamic::dynamic`]). Order queries probe the home shard and
//! walk outward only across empty neighbors.
//!
//! ## Batched queries
//!
//! [`Sharded::batch_get`] / [`Sharded::batch_rank`] /
//! [`Sharded::batch_range_count`] partition the batch per shard **by
//! reference** ([`ist_query::route::partition_batch_ref`] — no key is
//! cloned just to route it), drive every shard's software-pipelined
//! descent engine — **in parallel** when the sub-batches are long
//! enough to pay for a hand-off (they are disjoint), on the calling
//! thread otherwise — and scatter the results back into input order
//! ([`ist_query::route::scatter_to_input_order`]) — bit-identical to
//! what one unsharded [`DynamicMap`] would answer, which
//! `tests/sharded_differential.rs` (repository root) checks against
//! both a `BTreeMap` oracle and a single-map mirror.
//!
//! ## Snapshots and concurrent readers
//!
//! The same reads — literally the same code — are available off the
//! writer's thread: [`ShardedMap::snapshot`] freezes the **exact
//! current** state into a [`ShardedFrozen`] — a global cut, because
//! taking it requires `&self` and mutation requires `&mut self`, so no
//! write can interleave with the per-shard freezes. The thread that
//! owns the map sends snapshots to its readers by value.

#![forbid(unsafe_code)]

use std::path::Path;
use std::sync::Arc;

use ist_core::{Error, Layout};
use ist_dynamic::{
    default_kind_for_layout, sort_dedup_last_wins, DynamicMap, Frozen, DEFAULT_BUFFER_CAP,
};
use ist_query::route::{
    partition_batch, partition_batch_ref, partition_owned, scatter_to_input_order, shard_of_key,
};
use ist_query::QueryKind;
use ist_store::{shard_dir_name, Codec, ShardsFile, StoreConfig, StoreError};

/// What one routed item costs the shard it lands on, in nanoseconds,
/// as the floor rule ([`rayon::min_task_len`]) needs it: a buffer probe
/// and a descent per resident run for a read, a share of one linear
/// buffer merge for a write — a pipelined descent either way
/// (`ist_query`'s batch engine uses the same figure).
const SHARD_ITEM_COST_NS: u64 = 50;

/// Run `run(task)` for every `(len, syncs, task)` triple with `len > 0`
/// — one task per shard, `len` the length of the sub-batch routed to it
/// (a shard nothing was routed to is skipped). A sub-batch shorter than
/// [`rayon::min_task_len`]`(SHARD_ITEM_COST_NS)` does not pay for a
/// hand-off and runs on the calling thread, in turn — unless `syncs`:
/// the task waits on an fsync (a write to a persistent shard), which
/// the floor's CPU cost cannot see, so it is offered to the pool
/// whatever its length and the shards' syncs overlap. A longer one is
/// offered too (the pool still keeps a task on the caller when no
/// helper is free). A memory-only serving tick's per-shard sub-batches
/// are a few hundred items, so it never leaves its thread; a bulk load
/// or a 2^16-key read batch still spreads across shards.
fn for_each_shard_task<'env, T: Send + 'env>(
    tasks: impl Iterator<Item = (usize, bool, T)> + Send,
    run: impl Fn(T) + Sync + 'env,
) {
    let floor = rayon::min_task_len(SHARD_ITEM_COST_NS);
    rayon::scope(|s| {
        let run = &run;
        for (len, syncs, task) in tasks {
            if len == 0 {
                continue;
            }
            if syncs || len >= floor {
                s.spawn(move |_| run(task));
            } else {
                run(task);
            }
        }
    });
}

/// Range-partitioned shards of type `S` under one shared split vector.
///
/// Every read — scalar routing, global-rank offset sums, the
/// partition-by-reference → parallel per-shard → scatter batch
/// skeleton, and the empty-shard walks of the order queries — is an
/// inherent method written once here, for any shard that can lend its
/// state as a [`Frozen`] (the [`Shard`] bound). What else a `Sharded`
/// can do depends on the shard type; see [`ShardedMap`] and
/// [`ShardedFrozen`].
pub struct Sharded<K, S> {
    /// Sorted, strictly increasing; shard `i` owns `[splits[i-1],
    /// splits[i])` with open ends at the extremes. `Arc`-shared with
    /// every [`ShardedFrozen`] taken from a map (splits never change
    /// after construction).
    splits: Arc<Vec<K>>,
    /// `shards.len() == splits.len() + 1`, ordered by key range.
    shards: Vec<S>,
}

impl<K, S: Clone> Clone for Sharded<K, S> {
    fn clone(&self) -> Self {
        Self {
            splits: Arc::clone(&self.splits),
            shards: self.shards.clone(),
        }
    }
}

/// What the routed reads of [`Sharded`] need from a shard: its state as
/// the dynamic layer's read core.
pub trait Shard<K> {
    /// The shard's value type.
    type Value;

    /// The shard's current state.
    fn frozen(&self) -> &Frozen<K, Self::Value>;
}

impl<K, V> Shard<K> for DynamicMap<K, V> {
    type Value = V;

    fn frozen(&self) -> &Frozen<K, V> {
        self
    }
}

impl<K, V> Shard<K> for Frozen<K, V> {
    type Value = V;

    fn frozen(&self) -> &Frozen<K, V> {
        self
    }
}

/// A key-range-sharded map: a [`Sharded`] whose shards are
/// [`DynamicMap`]s, each with its own buffer and background compaction,
/// adding writes, compaction control, persistence and snapshots to the
/// shared reads.
///
/// Semantics mirror a single [`DynamicMap`] (one live value per key,
/// `insert` overwrites, `remove` deletes, order statistics see only
/// live keys); the differential suite pins batch results bit-identical
/// to the unsharded map.
///
/// # Examples
/// ```
/// use implicit_search_trees::{Layout, ShardedMap};
///
/// // Four shards at equal-count boundaries of the loaded data.
/// let keys: Vec<u64> = (0..10_000).map(|x| 3 * x).collect();
/// let vals: Vec<u64> = (0..10_000).collect();
/// let mut m = ShardedMap::build(keys, vals, Layout::Veb, 4).unwrap();
/// assert_eq!(m.shard_count(), 4);
/// assert_eq!(m.len(), 10_000);
///
/// m.insert(1, 999); // routed to the owning shard
/// assert_eq!(m.get(&1), Some(&999));
/// assert_eq!(m.rank(&1), 1); // global: one key (0) strictly below
///
/// // Batched reads straddle shard boundaries transparently.
/// let got = m.batch_get(&[0, 1, 29_997, 5]);
/// assert_eq!(got, vec![Some(&0), Some(&999), Some(&9_999), None]);
/// assert_eq!(m.range_count(&0, &u64::MAX), 10_001);
/// ```
pub type ShardedMap<K, V> = Sharded<K, DynamicMap<K, V>>;

impl<K, V> ShardedMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty map with explicit split keys (`splits.len() + 1`
    /// shards; an empty `splits` gives a single shard), each shard a
    /// [`DynamicMap`] with query descent `kind` and its own
    /// `buffer_cap`-entry write buffer.
    ///
    /// # Panics
    /// Panics if `splits` is not sorted and strictly increasing, or on
    /// the invalid configurations [`DynamicMap::with_config`] rejects.
    // LINT-ALLOW(test-only-pub): sharded_differential, store_crash and alloc_count fix splits
    pub fn with_splits_config(splits: Vec<K>, kind: QueryKind, buffer_cap: usize) -> Self {
        // Bulk loaders construct their splits sorted; only this
        // constructor takes them from the caller.
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "splits must be sorted and strictly increasing"
        );
        let shards = (0..splits.len() + 1)
            .map(|_| DynamicMap::with_config(kind, buffer_cap))
            .collect();
        Self {
            splits: Arc::new(splits),
            shards,
        }
    }

    /// Bulk-load from unsorted `(keys, values)` pairs (duplicate keys:
    /// the **last** pair wins, like [`DynamicMap::build`]), choosing
    /// split keys at equal-count boundaries of the loaded data and
    /// building one bulk run per shard. Duplicate-heavy data can
    /// collapse boundaries, yielding fewer than `num_shards` shards.
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths or
    /// `num_shards == 0`.
    pub fn build(
        keys: Vec<K>,
        values: Vec<V>,
        layout: Layout,
        num_shards: usize,
    ) -> Result<Self, Error> {
        Self::build_for_kind(
            keys,
            values,
            default_kind_for_layout(layout),
            DEFAULT_BUFFER_CAP,
            num_shards,
        )
    }

    /// [`ShardedMap::build`] with explicit descent and per-shard
    /// buffer capacity.
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths,
    /// `num_shards == 0`, or on the invalid configurations
    /// [`DynamicMap::with_config`] rejects.
    pub fn build_for_kind(
        keys: Vec<K>,
        values: Vec<V>,
        kind: QueryKind,
        buffer_cap: usize,
        num_shards: usize,
    ) -> Result<Self, Error> {
        let (splits, parts) = Self::partition_bulk(keys, values, num_shards);
        let shards = parts
            .into_iter()
            // The global pre-pass sorted and deduped; every partition
            // is sorted with distinct keys, so shards skip both.
            .map(|(k, v)| DynamicMap::build_presorted(k, v, kind, buffer_cap))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            splits: Arc::new(splits),
            shards,
        })
    }

    /// Dedup (last wins), pick equal-count splits, and partition the
    /// pairs by the resulting ranges — shared by both bulk loaders.
    #[allow(clippy::type_complexity)]
    fn partition_bulk(
        keys: Vec<K>,
        values: Vec<V>,
        num_shards: usize,
    ) -> (Vec<K>, Vec<(Vec<K>, Vec<V>)>) {
        assert_eq!(
            keys.len(),
            values.len(),
            "ShardedMap::build: {} keys but {} values",
            keys.len(),
            values.len()
        );
        assert!(num_shards >= 1, "num_shards must be at least 1");
        let mut pairs: Vec<(K, V)> = keys.into_iter().zip(values).collect();
        sort_dedup_last_wins(&mut pairs);
        // Equal-count boundaries over the (now distinct) sorted keys.
        let mut splits: Vec<K> = Vec::with_capacity(num_shards.saturating_sub(1));
        for i in 1..num_shards {
            let idx = i * pairs.len() / num_shards;
            if idx == 0 || idx >= pairs.len() {
                continue;
            }
            let candidate = &pairs[idx].0;
            if splits.last().is_none_or(|last| last < candidate) {
                splits.push(candidate.clone());
            }
        }
        let mut parts: Vec<(Vec<K>, Vec<V>)> = vec![(Vec::new(), Vec::new()); splits.len() + 1];
        for (k, v) in pairs {
            let s = shard_of_key(&splits, &k);
            parts[s].0.push(k);
            parts[s].1.push(v);
        }
        (splits, parts)
    }

    /// Live keys per shard, in key-range order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// `true` while any shard has a background compaction in flight.
    pub fn compaction_in_flight(&self) -> bool {
        self.shards.iter().any(DynamicMap::compaction_in_flight)
    }

    /// Total sealed-but-uncompacted L0 runs across all shards (0 after
    /// [`ShardedMap::quiesce`]).
    pub fn sealed_runs(&self) -> usize {
        self.shards.iter().map(DynamicMap::sealed_runs).sum()
    }

    // ----- mutation -----

    /// Insert or overwrite in the owning shard; returns `true` iff a
    /// live value for `key` was replaced. See [`DynamicMap::insert`]
    /// for the seal/compact behavior behind an overflow.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let s = self.shard_of(&key);
        self.shards[s].insert(key, value)
    }

    /// Delete from the owning shard; returns `true` iff a live value
    /// was removed.
    pub fn remove(&mut self, key: &K) -> bool {
        let s = self.shard_of(key);
        self.shards[s].remove(key)
    }

    /// Bulk write across shards: the mixed delta (`Some(v)` inserts,
    /// `None` removes, last entry per key wins) is partitioned per
    /// shard by the range router ([`ist_query::route::partition_owned`]
    /// — items moved, not cloned) and every non-empty sub-delta is
    /// applied via [`DynamicMap::apply`] — **in parallel** across
    /// shards when the sub-deltas are long enough to pay for a hand-off
    /// or the shards are persistent, so that their WAL syncs overlap
    /// (see `for_each_shard_task`; shards are disjoint structures, so
    /// `&mut` access per shard is race-free by construction), on the
    /// calling thread otherwise. Returns how many distinct delta keys
    /// were live before the call. On a persistent map, each shard the
    /// delta touches logs one WAL record.
    ///
    /// Global-rank exactness is untouched: the range-partition
    /// invariant (every key in shard `j < i` sorts strictly below every
    /// key in shard `i`) is a property of the *router*, not of when
    /// writes land, so per-shard bulk deltas — whatever order the
    /// scope schedules them in — leave
    /// `rank(k) = Σ_{j<shard(k)} len_j + rank_{shard(k)}(k)` exact, as
    /// the sharded differential suite pins against an unsharded mirror.
    ///
    /// # Examples
    /// ```
    /// use implicit_search_trees::{QueryKind, ShardedMap, DEFAULT_BUFFER_CAP};
    ///
    /// let mut m: ShardedMap<u64, u64> =
    ///     ShardedMap::with_splits_config(vec![10, 20], QueryKind::Veb, DEFAULT_BUFFER_CAP);
    /// assert_eq!(m.apply((0..30u64).map(|k| (k, Some(k))).collect()), 0);
    /// assert_eq!(m.shard_lens(), vec![10, 10, 10]);
    /// // One call, every shard: remove 5, overwrite 15, insert 30.
    /// assert_eq!(m.apply(vec![(5, None), (15, Some(0)), (30, Some(30))]), 2);
    /// assert_eq!(m.shard_lens(), vec![9, 10, 11]);
    /// ```
    pub fn apply(&mut self, delta: Vec<(K, Option<V>)>) -> usize {
        let splits = &self.splits;
        let parts = partition_owned(delta, self.shards.len(), |(k, _)| shard_of_key(splits, k));
        let mut counts = vec![0usize; self.shards.len()];
        for_each_shard_task(
            self.shards
                .iter_mut()
                .zip(parts)
                .zip(counts.iter_mut())
                .map(|((shard, (_, routed)), count)| {
                    (routed.len(), shard.is_persistent(), (shard, routed, count))
                }),
            |(shard, routed, count)| *count = shard.apply(routed),
        );
        counts.into_iter().sum()
    }

    /// Bulk insert across shards: [`ShardedMap::apply`] with every pair
    /// as an insert. Returns how many distinct keys were live before.
    pub fn batch_insert(&mut self, pairs: Vec<(K, V)>) -> usize {
        self.apply(pairs.into_iter().map(|(k, v)| (k, Some(v))).collect())
    }

    /// Bulk delete across shards: [`ShardedMap::apply`] with every key
    /// as a remove. Returns how many keys were live before the batch.
    pub fn batch_remove(&mut self, keys: &[K]) -> usize {
        self.apply(keys.iter().map(|k| (k.clone(), None)).collect())
    }

    /// Drain every shard's deferred compaction work; see
    /// [`DynamicMap::quiesce`]. Observable state is unchanged.
    ///
    /// Shards drain **in parallel** under the rayon-shim scope: each
    /// shard's quiesce blocks on its own in-flight merge, and an
    /// earlier serial loop let one slow shard's merge delay even
    /// *starting* to drain the rest — exactly the stall a serving tick
    /// cannot afford.
    pub fn quiesce(&mut self) {
        rayon::scope(|s| {
            for shard in &mut self.shards {
                s.spawn(move |_| shard.quiesce());
            }
        });
    }

    // ----- snapshots -----

    /// Freeze the **exact current** state of every shard into a
    /// [`ShardedFrozen`] — the whole read API, independent of later
    /// writes.
    ///
    /// This cut is **global**: taking it borrows `&self`, and every
    /// mutation needs `&mut self`, so the per-shard freezes cannot
    /// interleave with any write. Cost: one ≤`buffer_cap`-entry buffer
    /// copy plus one `Arc` bump, per shard. The snapshot crosses
    /// threads by value: the thread that owns the map sends it to its
    /// readers.
    ///
    /// # Examples
    /// ```
    /// use implicit_search_trees::{Layout, ShardedMap};
    /// use std::sync::mpsc;
    ///
    /// let keys: Vec<u64> = (0..1000).collect();
    /// let vals = keys.clone();
    /// let mut m = ShardedMap::build(keys, vals, Layout::Veb, 4).unwrap();
    /// let (tx, rx) = mpsc::channel();
    /// let writer = std::thread::spawn(move || {
    ///     for k in 0..500u64 {
    ///         m.remove(&k);
    ///         tx.send((k + 1, m.snapshot())).unwrap();
    ///     }
    ///     m
    /// });
    /// // Each snapshot is exactly the state after the removals it was
    /// // sent with, across all four shards.
    /// for (removed, snap) in rx {
    ///     assert_eq!(snap.len() as u64, 1000 - removed);
    ///     assert_eq!(snap.lower_bound(&0), Some((&removed, &removed)));
    /// }
    /// assert_eq!(writer.join().unwrap().len(), 500);
    /// ```
    pub fn snapshot(&self) -> ShardedFrozen<K, V> {
        Sharded {
            splits: Arc::clone(&self.splits),
            shards: self.shards.iter().map(DynamicMap::snapshot).collect(),
        }
    }
}

// ----- durability -----

impl<K, V> ShardedMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static + Codec,
    V: Clone + Send + Sync + 'static + Codec,
{
    /// Make this map persistent in `dir`: the split vector is written
    /// to the atomically-installed `SHARDS` root file, and every shard
    /// becomes a full persistent [`DynamicMap`] in its own
    /// `shard-NNNN/` subdirectory (manifest + run files + WAL each).
    /// Shards log and checkpoint **independently**, and a hot shard's
    /// fsyncs never serialize against a cold one's:
    /// [`ShardedMap::apply`] hands every persistent shard's sub-delta to
    /// the pool whatever its length, so the shards' WAL syncs run
    /// concurrently (as many at once as the pool has threads).
    ///
    /// # Panics
    /// Panics if the map is already persistent.
    ///
    /// # Errors
    /// Any filesystem failure; shards persisted before the failing one
    /// stay attached (reopenable), later ones stay memory-only.
    pub fn persist_to(
        &mut self,
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
    ) -> Result<(), StoreError> {
        let dir = dir.as_ref();
        cfg.vfs.create_dir_all(dir)?;
        ShardsFile {
            splits: (*self.splits).clone(),
        }
        .write_atomic(&*cfg.vfs, dir)?;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.persist_to(dir.join(shard_dir_name(i)), cfg.clone())?;
        }
        Ok(())
    }

    /// Reopen a sharded map persisted in `dir` with the default
    /// [`StoreConfig`].
    ///
    /// # Errors
    /// See [`ShardedMap::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreConfig::new())
    }

    /// Reopen a sharded map persisted in `dir`: the `SHARDS` root file
    /// names the split points, and each `shard-NNNN/` subdirectory is
    /// recovered as its own [`DynamicMap::open_with`] (manifest, runs,
    /// WAL-tail replay). Per-shard recovery is independent, so a crash
    /// mid-write in one shard never affects the others' state.
    ///
    /// # Errors
    /// Typed [`StoreError`]s for every failure mode — missing or
    /// corrupt files never panic.
    pub fn open_with(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let splits = ShardsFile::<K>::read(&*cfg.vfs, dir)?.splits;
        if !splits.windows(2).all(|w| w[0] < w[1]) {
            return Err(StoreError::Corrupt(
                "shards file splits are not strictly increasing".into(),
            ));
        }
        let shards = (0..splits.len() + 1)
            .map(|i| DynamicMap::open_with(dir.join(shard_dir_name(i)), cfg.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            splits: Arc::new(splits),
            shards,
        })
    }
}

impl<K, V> ShardedMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// `true` iff every shard logs its mutations to a store directory.
    pub fn is_persistent(&self) -> bool {
        !self.shards.is_empty() && self.shards.iter().all(DynamicMap::is_persistent)
    }

    /// Fsync every shard's WAL; on return every applied mutation is
    /// crash-durable regardless of the configured fsync policy. A no-op
    /// `Ok` on a non-persistent map.
    ///
    /// # Errors
    /// The first shard's [`StoreError`], if any is poisoned or fails to
    /// sync (remaining shards are still flushed).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        let mut first_err = None;
        for shard in &mut self.shards {
            if let Err(e) = shard.flush() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The first poisoned shard's latched storage error, if any. While
    /// a shard is poisoned, its mutations are rejected and its reads
    /// keep serving the in-memory state.
    pub fn store_error(&self) -> Option<StoreError> {
        self.shards.iter().find_map(DynamicMap::store_error)
    }

    /// Total crash-durable WAL records across all shards since their
    /// engines were attached; see [`DynamicMap::acked_records`].
    pub fn acked_records(&self) -> u64 {
        self.shards.iter().map(DynamicMap::acked_records).sum()
    }
}

// ----- reads: written once, for every shard type -----

impl<K, S> Sharded<K, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    S: Shard<K> + Sync,
    S::Value: Clone + Send + Sync,
{
    /// Index of the shard owning `key` (the range-partition router).
    pub fn shard_of(&self, key: &K) -> usize {
        shard_of_key(&self.splits, key)
    }

    /// The split keys (shard `i` owns `[splits[i-1], splits[i])`).
    pub fn splits(&self) -> &[K] {
        self.splits.as_slice()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.frozen().len()).sum()
    }

    /// `true` iff no key is live in any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.frozen().is_empty())
    }

    /// The home shard of `key`, as its read core.
    fn home(&self, key: &K) -> (usize, &Frozen<K, S::Value>) {
        let i = self.shard_of(key);
        (i, self.shards[i].frozen())
    }

    /// The live value under `key`, if any (one shard probe).
    pub fn get(&self, key: &K) -> Option<&S::Value> {
        self.home(key).1.get(key)
    }

    /// `true` iff `key` is live.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Number of live keys strictly smaller than `key`, globally exact:
    /// whole-shard lengths below the home shard plus one in-shard rank
    /// (the range-partition invariant).
    pub fn rank(&self, key: &K) -> usize {
        let (i, home) = self.home(key);
        let below: usize = self.shards[..i].iter().map(|s| s.frozen().len()).sum();
        below + home.rank(key)
    }

    /// Number of live keys in `[lo, hi)` across all shards. Reversed
    /// bounds (`lo > hi`) yield 0 — never a panic (the workspace-wide
    /// contract).
    pub fn range_count(&self, lo: &K, hi: &K) -> usize {
        if lo >= hi {
            return 0;
        }
        self.rank(hi).saturating_sub(self.rank(lo))
    }

    /// The smallest live entry with key `≥ key`, if any.
    pub fn lower_bound(&self, key: &K) -> Option<(&K, &S::Value)> {
        let (i, home) = self.home(key);
        home.lower_bound(key)
            .or_else(|| self.first_live_after_shard(i))
    }

    /// The smallest live entry with key **strictly greater** than
    /// `key`, if any.
    pub fn successor(&self, key: &K) -> Option<(&K, &S::Value)> {
        let (i, home) = self.home(key);
        home.successor(key)
            .or_else(|| self.first_live_after_shard(i))
    }

    /// The largest live entry with key **strictly smaller** than `key`,
    /// if any.
    pub fn predecessor(&self, key: &K) -> Option<(&K, &S::Value)> {
        let (i, home) = self.home(key);
        home.predecessor(key)
            .or_else(|| self.last_live_before_shard(i))
    }

    /// Batched [`Sharded::get`]: the batch is partitioned per shard
    /// **by reference** (routing clones no key), every shard's
    /// software-pipelined engine runs on its disjoint sub-batch (in
    /// parallel when long enough), and results scatter back in input order — `out[i]` is
    /// exactly `get(&keys[i])`.
    pub fn batch_get(&self, keys: &[K]) -> Vec<Option<&S::Value>> {
        let parts = partition_batch_ref(keys, self.shards.len(), |k| self.shard_of(k));
        self.fan_out(keys.len(), parts, |shard, _, routed| {
            shard.batch_get(routed)
        })
    }

    /// Batched [`Sharded::rank`]: per-shard pipelined rank descents in
    /// parallel, each shard's results offset by the summed lengths of
    /// the shards below it, scattered back in input order.
    pub fn batch_rank(&self, keys: &[K]) -> Vec<usize> {
        let parts = partition_batch_ref(keys, self.shards.len(), |k| self.shard_of(k));
        self.fan_out_ranks(keys.len(), parts)
    }

    /// Per-pair [`Sharded::range_count`] (reversed pairs yield 0).
    /// Endpoint ranks go through the batched rank path, so ranges
    /// straddling shard boundaries cost the same two descents as local
    /// ones.
    pub fn batch_range_count(&self, ranges: &[(K, K)]) -> Vec<usize> {
        // Flatten the endpoints by reference (no key clones), rank them
        // all in one routed fan-out, difference per pair.
        let mut flat: Vec<&K> = Vec::with_capacity(2 * ranges.len());
        for (lo, hi) in ranges {
            flat.push(lo);
            flat.push(hi);
        }
        let parts = partition_batch(&flat, self.shards.len(), |k| self.shard_of(k));
        let ranks = self.fan_out_ranks(flat.len(), parts);
        ranges
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| {
                if lo >= hi {
                    0
                } else {
                    ranks[2 * i + 1].saturating_sub(ranks[2 * i])
                }
            })
            .collect()
    }

    /// Global ranks of an already-partitioned batch: every shard's
    /// in-shard ranks plus the live-key count of the shards below it.
    fn fan_out_ranks(&self, len: usize, parts: Vec<(Vec<usize>, Vec<&K>)>) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.shards.len());
        let mut below = 0usize;
        for shard in &self.shards {
            offsets.push(below);
            below += shard.frozen().len();
        }
        self.fan_out(len, parts, |shard, i, routed| {
            let mut ranks = shard.batch_rank(routed);
            for r in &mut ranks {
                *r += offsets[i];
            }
            ranks
        })
    }

    /// The batched-query skeleton shared by every fan-out read: run
    /// `per_shard(shard, i, sub_batch)` for every non-empty sub-batch of
    /// `parts` (a by-reference partition of a `len`-key batch — routing
    /// never clones a key) — in parallel when they are long enough to
    /// pay for a hand-off (`for_each_shard_task`; the sub-batches are
    /// disjoint) — and scatter the per-shard results back into input
    /// order. The routing behind `parts` trusts the split vector to be
    /// sorted and strictly increasing without checking it here or per
    /// routed item: every constructor rejects unsorted splits (the bulk
    /// loaders build theirs sorted), and the shared `Arc<Vec<K>>` never
    /// changes after.
    fn fan_out<'s, 'k, R, F>(
        &'s self,
        len: usize,
        parts: Vec<(Vec<usize>, Vec<&'k K>)>,
        per_shard: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(&'s Frozen<K, S::Value>, usize, &[&'k K]) -> Vec<R> + Sync,
    {
        let mut results: Vec<Vec<R>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for_each_shard_task(
            results
                .iter_mut()
                .enumerate()
                .map(|(i, out)| (parts[i].1.len(), false, (i, out))),
            |(i, out)| *out = per_shard(self.shards[i].frozen(), i, &parts[i].1),
        );
        scatter_to_input_order(len, parts.into_iter().map(|(idx, _)| idx).zip(results))
    }

    /// Minimum live entry of the first non-empty shard after `i`.
    fn first_live_after_shard(&self, i: usize) -> Option<(&K, &S::Value)> {
        // Every key in shard j is ≥ its lower boundary, so a
        // lower_bound there is the shard's minimum entry.
        (i + 1..self.shards.len())
            .find_map(|j| self.shards[j].frozen().lower_bound(&self.splits[j - 1]))
    }

    /// Maximum live entry of the last non-empty shard before `i`.
    fn last_live_before_shard(&self, i: usize) -> Option<(&K, &S::Value)> {
        // Every key in shard j is < its upper boundary, so a
        // predecessor there is the shard's maximum entry.
        (0..i)
            .rev()
            .find_map(|j| self.shards[j].frozen().predecessor(&self.splits[j]))
    }
}

/// An immutable composite snapshot of a [`ShardedMap`]: a [`Sharded`]
/// of one [`Frozen`] per shard under the shared split vector — the
/// shared reads and nothing else.
///
/// Cheap to clone (`Arc` bumps), `Send + Sync` when the key and value
/// types are, and independent of the writer: compactions that retire
/// the referenced runs only drop refcounts.
///
/// A snapshot from [`ShardedMap::snapshot`] is a global cut: the exact
/// state of every shard at one instant.
pub type ShardedFrozen<K, V> = Sharded<K, Frozen<K, V>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with_gaps() -> ShardedMap<u64, u64> {
        // Shards: (..10), [10, 20), [20, ..); the middle shard stays
        // empty so order queries must walk across it.
        let mut m: ShardedMap<u64, u64> =
            ShardedMap::with_splits_config(vec![10, 20], QueryKind::Veb, DEFAULT_BUFFER_CAP);
        for k in [2u64, 5, 25, 30] {
            m.insert(k, k * 100);
        }
        m
    }

    #[test]
    fn routing_and_global_order_statistics() {
        let m = map_with_gaps();
        assert_eq!(m.shard_count(), 3);
        assert_eq!(m.shard_lens(), vec![2, 0, 2]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.rank(&0), 0);
        assert_eq!(m.rank(&25), 2);
        assert_eq!(m.rank(&100), 4);
        assert_eq!(m.range_count(&3, &26), 2); // straddles all three shards
        assert_eq!(m.range_count(&26, &3), 0); // reversed: defined as 0
    }

    #[test]
    fn order_queries_cross_empty_shards() {
        let m = map_with_gaps();
        // Successor of 5 lives two shards to the right.
        assert_eq!(m.successor(&5), Some((&25, &2500)));
        assert_eq!(m.lower_bound(&11), Some((&25, &2500)));
        // Predecessor of 25 lives two shards to the left.
        assert_eq!(m.predecessor(&25), Some((&5, &500)));
        assert_eq!(m.predecessor(&2), None);
        assert_eq!(m.successor(&30), None);
    }

    #[test]
    fn batches_scatter_back_in_input_order() {
        let m = map_with_gaps();
        let keys = [30u64, 2, 11, 25, 5, 2];
        assert_eq!(
            m.batch_get(&keys),
            vec![
                Some(&3000),
                Some(&200),
                None,
                Some(&2500),
                Some(&500),
                Some(&200)
            ]
        );
        assert_eq!(m.batch_rank(&keys), vec![3, 0, 2, 2, 1, 0]);
        assert_eq!(
            m.batch_range_count(&[(0, 100), (26, 3), (5, 26)]),
            vec![4, 0, 2] // [5, 26) holds {5, 25}
        );
    }

    #[test]
    fn bulk_build_balances_and_dedups() {
        let keys: Vec<u64> = (0..1000).chain(0..1000).collect(); // every key twice
        let vals: Vec<u64> = (0..2000).collect();
        let m = ShardedMap::build(keys, vals, Layout::Bst, 4).unwrap();
        assert_eq!(m.len(), 1000);
        assert_eq!(m.shard_count(), 4);
        let lens = m.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 1000);
        assert!(
            lens.iter().all(|&l| l == 250),
            "equal-count splits: {lens:?}"
        );
        // Last duplicate wins.
        assert_eq!(m.get(&0), Some(&1000));
        assert_eq!(m.rank(&999), 999);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_splits_are_rejected() {
        let _ = ShardedMap::<u64, u64>::with_splits_config(vec![20, 10], QueryKind::Veb, 8);
    }

    /// The composite snapshot answers every query exactly like the live
    /// map it froze, including cross-shard order statistics, and stays
    /// pinned while the live map moves on.
    #[test]
    fn sharded_snapshot_matches_live_map_then_stays_pinned() {
        let mut m = map_with_gaps();
        let snap = m.snapshot();
        let keys = [30u64, 2, 11, 25, 5, 2];
        assert_eq!(snap.len(), m.len());
        assert_eq!(snap.batch_get(&keys), m.batch_get(&keys));
        assert_eq!(snap.batch_rank(&keys), m.batch_rank(&keys));
        assert_eq!(
            snap.batch_range_count(&[(0, 100), (26, 3), (5, 26)]),
            m.batch_range_count(&[(0, 100), (26, 3), (5, 26)])
        );
        assert_eq!(snap.successor(&5), Some((&25, &2500)));
        assert_eq!(snap.predecessor(&25), Some((&5, &500)));

        m.insert(11, 1100); // lands in the empty middle shard
        m.remove(&2);
        assert_eq!(m.len(), 4);
        assert_eq!(snap.len(), 4); // pinned: pre-write state
        assert_eq!(snap.get(&11), None);
        assert_eq!(snap.get(&2), Some(&200));
        assert_eq!(snap.rank(&100), 4);
    }

    /// Regression for the serial shard drain: `quiesce` must leave
    /// observable state unchanged while actually draining every shard
    /// (it runs shard-parallel under the rayon-shim scope).
    #[test]
    fn parallel_quiesce_preserves_state_and_drains() {
        let keys: Vec<u64> = (0..4000).collect();
        let vals: Vec<u64> = (0..4000).map(|v| v * 7).collect();
        let mut m = ShardedMap::build_for_kind(
            keys,
            vals,
            QueryKind::Veb,
            32, // tiny buffers: constant seals and merges
            4,
        )
        .unwrap();

        // Churn every shard so seals and background merges are in
        // flight when the drains run.
        for k in 0..2000u64 {
            if k % 5 == 0 {
                m.remove(&(2 * k));
            } else {
                m.insert(2 * k + 1, k);
            }
        }
        let before_len = m.len();
        let probe: Vec<u64> = (0..800).map(|i| i * 5).collect();
        let before_get: Vec<Option<u64>> = m.batch_get(&probe).iter().map(|v| v.copied()).collect();
        let before_rank = m.batch_rank(&probe);

        m.quiesce();

        assert_eq!(m.len(), before_len, "quiesce changed the live count");
        let after_get: Vec<Option<u64>> = m.batch_get(&probe).iter().map(|v| v.copied()).collect();
        assert_eq!(after_get, before_get, "quiesce changed get answers");
        assert_eq!(m.batch_rank(&probe), before_rank, "quiesce changed ranks");
        assert_eq!(m.sealed_runs(), 0, "quiesce left sealed runs behind");
        assert!(!m.compaction_in_flight(), "quiesce left a merge in flight");
    }
}
