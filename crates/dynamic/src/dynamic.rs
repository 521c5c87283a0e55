//! [`DynamicMap`]: a write-capable key→value map built as
//! log-structured tiers of static layouts.
//!
//! The paper's contribution — fast parallel **in-place rebuild** of an
//! implicit search-tree layout — makes rebuilding cheap enough to be
//! the mutation primitive. This module applies the classic logarithmic
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
//!   tier 0 ▓             (≈ cap entries)        newest tier run
//!   tier 1 ▓▓            (≈ 2·cap)                  │
//!   tier 2 (empty)                                  │ age
//!   tier 3 ▓▓▓▓▓▓▓▓      (≈ 8·cap)              oldest run
//! ```
//!
//! Every occupied tier (and every sealed L0 slot) holds one immutable
//! **run**: a [`StaticMap`] whose keys sit in a cache-optimal layout,
//! built by the parallel in-place construction. The overflow path is
//! split in two so the expensive half never sits on the writer's
//! critical path:
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
//!   sources) and rebuilt into that tier. Under
//!   [`CompactionMode::Background`] (the default) this runs on a
//!   background worker thread over `Arc`-shared immutable runs; the
//!   writer installs the finished run atomically at the start of a
//!   later mutation (or in [`DynamicMap::quiesce`]). Until then, reads
//!   and snapshots consult the sealed-but-uncompacted runs — newest
//!   first, before any tier — so answers stay exact while the merge is
//!   mid-flight. [`CompactionMode::Inline`] runs the same machinery on
//!   the caller for deterministic tier shapes (tests, replay).
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
//! batched engine (`StaticIndex::batch_search`), so batched read
//! throughput survives dynamization. Order queries (`lower_bound` /
//! `successor` / `predecessor`) combine per-run candidates and skip
//! dead versions.
//!
//! ## Snapshots: readers never block on a merge
//!
//! [`DynamicMap::snapshot`] returns a [`Frozen`] — the current run list
//! (shared, one `Arc` bump) plus a copy of the (small) buffer —
//! reflecting **exactly** the state at the call. The map also
//! maintains a published snapshot cell for cloneable [`Reader`] handles
//! ([`DynamicMap::reader`]). Publication is **seal/compaction
//! granular**: the cell is swapped when a seal freezes the buffer
//! (at which point the frozen view shares the sealed run by `Arc` — no
//! data is copied), when a compaction installs, eagerly when a handle
//! is taken, and in any case after every `buffer_cap` mutations (so a
//! hot set overwriting in place, which never overflows the buffer,
//! still publishes) — never per buffered write, so a mutation while
//! readers exist costs refcount bumps at merge cadence instead of an
//! `O(cap)` buffer clone per op. A `Reader` therefore yields, at any
//! moment, the state after some recent prefix of the writer's
//! operations (at most one buffer's worth behind; call
//! [`DynamicMap::compact_buffer`] to publish the current buffer
//! immediately), and successive snapshots never go backwards. Merges
//! complete entirely before the pointer swap, so a reader is never
//! stalled behind one, and the runs a `Frozen` references are kept
//! alive by refcounts even after the writer compacts them away. When
//! the last `Reader` drops, the next mutation releases the cell's
//! frozen view, so a departed reader population does not pin a stale
//! copy of the map.

use crate::index::default_kind_for_layout;
use crate::map::StaticMap;
use crate::sync::{
    spawn, yield_now, Arc, AtomicBool, AtomicUsize, JoinHandle, Mutex, MutexGuard, Ordering,
};
use ist_core::{Algorithm, Error, Layout};
use ist_query::QueryKind;
use std::borrow::Borrow;

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

/// Where the compact half of the overflow path runs; see the
/// [module docs](self) for the seal/compact state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionMode {
    /// Merge + rebuild on the calling thread at every seal, like the
    /// classic synchronous logarithmic method. Deterministic tier
    /// shapes; the full merge cost lands on the overflowing write.
    Inline,
    /// Merge + rebuild on a background worker thread (the default).
    /// The overflowing write pays only for the seal; the merged run is
    /// installed atomically at a later mutation (or on
    /// [`DynamicMap::quiesce`]). Reads stay exact throughout.
    Background,
}

/// Merges smaller than this never split into parallel slices: the
/// boundary descents and stitch would cost more than the merge.
const PARALLEL_MERGE_MIN_SLICE: usize = 1024;

/// Tunable knobs for the compact half of the overflow path: how many
/// runs a tier accumulates before they merge one tier down (write
/// amplification vs read fan-out) and how many threads the k-way merge
/// may use.
///
/// Compaction is **size-tiered**: each tier accumulates up to `fanout`
/// runs of similar size before they are merged one tier down, so each
/// version is merged once per tier crossing while reads fan out over
/// up to `fanout` runs per tier. `fanout = 1` is the classic
/// binomial-counter logarithmic method (the default): every tier holds
/// at most one run and a merge targets the first tier with a free slot.
///
/// Configured at construction via [`DynamicMap::with_policy`] (and
/// plumbed through the `ShardedMap` builders). The default —
/// `fanout = 1`, no lazy bottom, auto merge threads — reproduces the
/// binomial-counter schedule the differential suites pin, so switching
/// policies is purely a performance decision: observable answers are
/// identical under every policy (the fuzz suites assert exactly this).
///
/// # Examples
/// ```
/// use implicit_search_trees::{CompactionPolicy, DynamicMap, Layout};
///
/// let policy = CompactionPolicy::tiered(4).with_lazy_bottom(true);
/// let mut m: DynamicMap<u64, u64> = DynamicMap::new(Layout::Veb).with_policy(policy);
/// m.insert(1, 10);
/// assert_eq!(m.get(&1), Some(&10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Runs a tier accumulates before folding one tier down (≥ 1).
    pub fanout: usize,
    /// Keep the bottom (largest) run out of merges until the data above
    /// it reaches `1/fanout` of its size. Bulk-loaded maps churn their
    /// upper tiers without repeatedly rewriting the big run, at the
    /// cost of retaining tombstones (no annihilation) until the bottom
    /// run is finally folded in.
    pub lazy_bottom: bool,
    /// Thread count for the sliced parallel merge: `0` = auto (the
    /// rayon-shim's effective parallelism, overridable process-wide via
    /// the `IST_PARALLEL` environment variable), `1` = always the
    /// classic sequential merge.
    pub merge_threads: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self::tiered(1)
    }
}

impl CompactionPolicy {
    /// Size-tiered policy with up to `fanout` runs per tier (`fanout =
    /// 1` is the default binomial schedule).
    pub fn tiered(fanout: usize) -> Self {
        Self {
            fanout,
            lazy_bottom: false,
            merge_threads: 0,
        }
    }

    /// Builder-style override of [`CompactionPolicy::lazy_bottom`].
    #[must_use]
    pub fn with_lazy_bottom(mut self, lazy: bool) -> Self {
        self.lazy_bottom = lazy;
        self
    }

    /// Builder-style override of [`CompactionPolicy::merge_threads`].
    #[must_use]
    pub fn with_merge_threads(mut self, threads: usize) -> Self {
        self.merge_threads = threads;
        self
    }
}

/// One buffered write: the newest version of `key`. An empty `slot` is
/// a tombstone. `weight` maintains the per-key sum invariant described
/// in the [module docs](self).
#[derive(Clone)]
pub(crate) struct BufEntry<K, V> {
    pub(crate) key: K,
    pub(crate) slot: Option<V>,
    pub(crate) weight: i64,
}

/// A `(key, payload-or-tombstone, weight)` triple streamed out of a
/// source during a merge.
type MergedEntry<K, V> = (K, Option<V>, i64);

/// One merged slice in column form — `(keys, slots, weights)` — as
/// [`merge_slice`] produces it and the stitch step concatenates it.
type MergedColumns<K, V> = (Vec<K>, Vec<Option<V>>, Vec<i64>);

/// Rank-indexed prefix sums of a run's per-version weights.
///
/// Fully compacted runs have unit weights everywhere, making the
/// prefix the identity `0, 1, …, n`; `Unit` represents that without
/// materializing 8 bytes per version — which matters on the recovery
/// path, where every resident run is reloaded at once.
#[derive(Debug, Clone)]
pub(crate) enum Prefix {
    /// Every version weighs 1: `prefix[r] == r`, over `n` versions.
    Unit(usize),
    /// Explicit sums, length `n + 1`, starting at 0.
    Explicit(Vec<i64>),
}

impl Prefix {
    /// Build from per-version weights, collapsing the all-unit case.
    pub(crate) fn from_weights(weights: &[i64]) -> Self {
        if weights.iter().all(|&w| w == 1) {
            return Prefix::Unit(weights.len());
        }
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        let mut acc = 0i64;
        prefix.push(0);
        for &w in weights {
            acc += w;
            prefix.push(acc);
        }
        Prefix::Explicit(prefix)
    }

    /// `prefix[r]`: summed weight of the `r` smallest versions.
    #[inline]
    pub(crate) fn at(&self, r: usize) -> i64 {
        match self {
            Prefix::Unit(_) => r as i64,
            Prefix::Explicit(p) => p[r],
        }
    }

    /// Weight of the rank-`r` version (`prefix[r+1] - prefix[r]`).
    #[inline]
    pub(crate) fn span(&self, r: usize) -> i64 {
        match self {
            Prefix::Unit(_) => 1,
            Prefix::Explicit(p) => p[r + 1] - p[r],
        }
    }

    /// The run's total weight (`prefix[n]`).
    pub(crate) fn total(&self) -> i64 {
        match self {
            Prefix::Unit(n) => *n as i64,
            Prefix::Explicit(p) => *p.last().expect("prefix is never empty"),
        }
    }
}

/// One immutable run: a static layout over this run's versions plus the
/// rank-indexed prefix sums of their weights.
pub(crate) struct Run<K, V> {
    pub(crate) map: StaticMap<K, Option<V>>,
    /// Rank-indexed (sorted order), not layout-indexed.
    pub(crate) prefix: Prefix,
}

impl<K: Ord + Send + Sync + 'static, V: Send> Run<K, V> {
    fn build(
        keys: Vec<K>,
        slots: Vec<Option<V>>,
        weights: &[i64],
        kind: QueryKind,
        algorithm: Algorithm,
    ) -> Result<Self, Error> {
        debug_assert_eq!(keys.len(), weights.len());
        Ok(Self {
            map: StaticMap::build_presorted(keys, slots, kind, algorithm)?,
            prefix: Prefix::from_weights(weights),
        })
    }

    /// Number of resident versions (live + tombstones).
    fn versions(&self) -> usize {
        self.map.len()
    }

    /// Total weight of the run (its contribution to `len`).
    fn total_weight(&self) -> i64 {
        self.prefix.total()
    }

    /// Summed weight of versions with key strictly below `key`.
    fn weight_below(&self, key: &K) -> i64 {
        self.prefix.at(self.map.rank(key))
    }

    /// Weight of this run's version of `key` (0 if absent): one rank
    /// descent, then the closed-form position map plus a key equality
    /// decides presence (run keys are distinct, so `rank`/`rank_upper`
    /// can only differ by the key itself).
    fn weight_of(&self, key: &K) -> i64 {
        let s = self.map.searcher();
        let r = s.rank(key);
        match s.position_of_rank(r) {
            Some(p) if self.map.keys()[p] == *key => self.prefix.span(r),
            _ => 0,
        }
    }

    /// Stream the run's versions with rank in `lo..hi` in sorted-key
    /// order (cloning) — each merge slice's view of a source: walks
    /// ranks through the closed-form position maps, so no sorted copy
    /// of the run is ever materialized. `(0, len)` streams the whole
    /// run.
    fn iter_sorted_range(
        &self,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = MergedEntry<K, V>> + '_
    where
        K: Clone,
        V: Clone,
    {
        debug_assert!(lo <= hi && hi <= self.map.len());
        let searcher = self.map.searcher();
        (lo..hi).map(move |r| {
            let p = searcher
                .position_of_rank(r)
                .expect("rank below len resolves");
            (
                self.map.keys()[p].clone(),
                self.map.values()[p].clone(),
                self.prefix.span(r),
            )
        })
    }
}

/// Lock that shrugs off poisoning: publication is a single pointer
/// store, so a panicked writer cannot leave the cell torn.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Binary-search the sorted write buffer (one entry per key) for
/// `key`: `Ok(index)` of the entry, or `Err(insert position)`. The
/// single home of the buffer's probe semantics — mutations and every
/// read path go through it.
fn buffer_slot<K: Ord, V>(buffer: &[BufEntry<K, V>], key: &K) -> Result<usize, usize> {
    buffer.binary_search_by(|e| e.key.cmp(key))
}

/// A compaction plan: which **contiguous newest prefix** of the
/// resident runs the merge consumes, and where the merged run lands.
/// Consuming a contiguous prefix and installing at its boundary is what
/// keeps the global newest-first run order valid under every
/// [`CompactionPolicy`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    /// How many sealed runs (the oldest prefix of `l0`) the merge
    /// consumes — always all of them.
    pub(crate) consumed_l0: usize,
    /// Tiers `0..full_tiers` are consumed entirely…
    pub(crate) full_tiers: usize,
    /// …plus the `partial_runs` **newest** runs of tier `full_tiers`
    /// (non-zero only for lazy-bottom plans that stop short of the
    /// bottom run).
    pub(crate) partial_runs: usize,
    /// The merged run is pushed as the **newest** run of this tier.
    /// After the consumed runs are removed, every tier above `target`
    /// is empty.
    pub(crate) target: usize,
    /// Whether any run survives below the consumed prefix (tombstones
    /// are annihilated iff `false`).
    deeper_occupied: bool,
}

/// An in-flight background compaction: the plan it executes. The worker
/// owns `Arc` clones of the source runs, so the writer and readers keep
/// using them until install.
struct Pending<K, V> {
    plan: Plan,
    /// Set by the worker after the merged run is fully built, so the
    /// writer's install check is one atomic load, never a join of a
    /// still-running merge.
    done: Arc<AtomicBool>,
    handle: Option<JoinHandle<Option<Run<K, V>>>>,
}

impl<K, V> Drop for Pending<K, V> {
    fn drop(&mut self) {
        // Dropping the map mid-compaction: wait the worker out rather
        // than leaking a detached thread past the owner's lifetime.
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// How many entries the background worker streams between cooperative
/// [`std::thread::yield_now`] calls. On a host with spare cores the
/// yields are nearly free; on a saturated or single-core host they are
/// what keeps the latency-sensitive writer scheduling promptly while a
/// long merge is CPU-bound (the same reason production LSM engines run
/// compaction threads at low priority).
const MERGE_YIELD_STRIDE: usize = 256;

/// The compact half of the overflow path: k-way merge `sources`
/// (newest first; each source's keys are distinct) and rebuild the
/// result as a single run. Newest version wins per key, weights are
/// summed, and tombstones are annihilated iff no occupied tier remains
/// below the merge target (`deeper_occupied == false`). Returns `None`
/// when everything annihilated.
///
/// When `threads` (0 = the rayon-shim's effective parallelism) exceeds
/// 1 and the merge is large enough, the merged key space is split into
/// near-equal **slices**: boundary keys are drawn from the largest
/// source at evenly spaced ranks (closed-form `position_of_rank`, no
/// scan), each source is cut at those keys with one rank descent per
/// boundary, the slices are merged concurrently on the rayon-shim, and
/// the outputs are stitched back together. Per-key resolution
/// (newest-wins, weight sums, annihilation) is local to a slice, so the
/// stitched output is bit-identical to the sequential merge — the fuzz
/// suites pin this at parallelism {1, 4}.
///
/// Runs on the background worker in [`CompactionMode::Background`]
/// (with `cooperative = true`: yield the timeslice every
/// [`MERGE_YIELD_STRIDE`] entries) and on the caller in
/// [`CompactionMode::Inline`]; it touches only the immutable
/// `Arc`-shared runs, never the map.
fn merge_runs<K, V>(
    sources: &[Arc<Run<K, V>>],
    deeper_occupied: bool,
    kind: QueryKind,
    algorithm: Algorithm,
    cooperative: bool,
    threads: usize,
) -> Option<Run<K, V>>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync,
{
    let total: usize = sources.iter().map(|r| r.versions()).sum();
    let threads = if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    };
    let want = threads.min(total / PARALLEL_MERGE_MIN_SLICE).max(1);

    let full: Vec<(usize, usize)> = sources.iter().map(|r| (0, r.versions())).collect();
    let (keys, slots, weights) = if want <= 1 {
        merge_slice(sources, &full, deeper_occupied, cooperative)
    } else {
        // Slice boundaries: evenly spaced ranks of the largest source
        // approximate evenly sized merged slices (smaller sources can
        // only add proportionally less to any slice).
        let largest = sources
            .iter()
            .max_by_key(|r| r.versions())
            .expect("merge has at least one source");
        let searcher = largest.map.searcher();
        let mut bounds: Vec<K> = Vec::with_capacity(want - 1);
        for i in 1..want {
            let r = i * largest.versions() / want;
            let p = searcher
                .position_of_rank(r)
                .expect("rank below len resolves");
            let k = largest.map.keys()[p].clone();
            if bounds.last().is_none_or(|b| *b < k) {
                bounds.push(k);
            }
        }
        // Cut every source at the boundary keys: slice `i` covers keys
        // in `[bounds[i-1], bounds[i])`, i.e. source ranks
        // `[rank(bounds[i-1]), rank(bounds[i]))` — one descent per
        // (source, boundary).
        let cuts: Vec<Vec<usize>> = sources
            .iter()
            .map(|run| {
                let mut c = Vec::with_capacity(bounds.len() + 2);
                c.push(0);
                c.extend(bounds.iter().map(|b| run.map.rank(b)));
                c.push(run.versions());
                c
            })
            .collect();
        let slices = bounds.len() + 1;
        let mut parts: Vec<MergedColumns<K, V>> = (0..slices).map(|_| Default::default()).collect();
        rayon::scope(|s| {
            for (i, part) in parts.iter_mut().enumerate() {
                let ranges: Vec<(usize, usize)> = cuts.iter().map(|c| (c[i], c[i + 1])).collect();
                s.spawn(move |_| {
                    *part = merge_slice(sources, &ranges, deeper_occupied, cooperative);
                });
            }
        });
        // Stitch: slices are disjoint and ordered, so concatenation is
        // the merged output.
        let mut keys = Vec::with_capacity(total);
        let mut slots = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for (k, s, w) in parts {
            keys.extend(k);
            slots.extend(s);
            weights.extend(w);
        }
        (keys, slots, weights)
    };
    if keys.is_empty() {
        None
    } else {
        Some(
            Run::build(keys, slots, &weights, kind, algorithm)
                .expect("configuration validated at construction"),
        )
    }
}

/// Sequential k-way merge of one slice: each source restricted to its
/// rank sub-range `ranges[i]`. The whole merge is one slice in the
/// sequential case.
fn merge_slice<K, V>(
    sources: &[Arc<Run<K, V>>],
    ranges: &[(usize, usize)],
    deeper_occupied: bool,
    cooperative: bool,
) -> MergedColumns<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync,
{
    let mut srcs: Vec<Source<'_, K, V>> = sources
        .iter()
        .zip(ranges)
        .map(|(run, &(lo, hi))| Source::new(Box::new(run.iter_sorted_range(lo, hi))))
        .collect();
    let mut keys = Vec::new();
    let mut slots = Vec::new();
    let mut weights = Vec::new();
    let mut streamed = 0usize;
    loop {
        streamed += 1;
        if cooperative && streamed.is_multiple_of(MERGE_YIELD_STRIDE) {
            yield_now();
        }
        // Newest source holding the minimum head key (strict `<` keeps
        // the earliest source on ties).
        let mut min_idx: Option<usize> = None;
        for i in 0..srcs.len() {
            let Some((k, _, _)) = &srcs[i].head else {
                continue;
            };
            let better = match min_idx {
                Some(j) => {
                    let (mk, _, _) = srcs[j].head.as_ref().expect("tracked head");
                    k < mk
                }
                None => true,
            };
            if better {
                min_idx = Some(i);
            }
        }
        let Some(first) = min_idx else { break };
        let (key, slot, mut weight) = srcs[first].advance();
        // Older sources may hold the same key (each source's keys are
        // distinct): collapse them, newest version wins.
        for src in srcs.iter_mut().skip(first + 1) {
            if src.head.as_ref().is_some_and(|(k, _, _)| *k == key) {
                weight += src.advance().2;
            }
        }
        if slot.is_none() && !deeper_occupied {
            // Tombstone reaching the bottom: annihilate.
            debug_assert_eq!(weight, 0, "annihilated key retains weight");
            continue;
        }
        keys.push(key);
        slots.push(slot);
        weights.push(weight);
    }
    (keys, slots, weights)
}

/// An immutable state of a [`DynamicMap`] — a sorted buffer plus the
/// resident runs, newest first — and the **single implementation of
/// every read**. A snapshot ([`DynamicMap::snapshot`],
/// [`Reader::snapshot`]) is one of these over the state after some
/// prefix of the writer's operations; the live map keeps its current
/// state as one too and derefs to it, so `map.get(..)` and
/// `snap.get(..)` are the same code.
///
/// Cheap to clone (two `Arc` bumps), `Send + Sync` when the key and
/// value types are, and independent of the writer: merges that retire
/// the referenced runs only drop refcounts.
pub struct Frozen<K, V> {
    /// Sorted by key, at most one entry per key (the newest version).
    pub(crate) buffer: Arc<Vec<BufEntry<K, V>>>,
    /// Non-empty runs, newest first.
    pub(crate) runs: Arc<Vec<Arc<Run<K, V>>>>,
}

impl<K, V> Frozen<K, V> {
    fn empty() -> Self {
        Self {
            buffer: Arc::new(Vec::new()),
            runs: Arc::new(Vec::new()),
        }
    }
}

impl<K, V> Clone for Frozen<K, V> {
    fn clone(&self) -> Self {
        Self {
            buffer: Arc::clone(&self.buffer),
            runs: Arc::clone(&self.runs),
        }
    }
}

/// A cloneable handle to a [`DynamicMap`]'s published-snapshot cell.
///
/// Obtained from [`DynamicMap::reader`] before handing the map to a
/// writer thread; [`Reader::snapshot`] then yields, at any moment, a
/// [`Frozen`] view of the state after some prefix of the writer's
/// operations (publication order is the operation order, so successive
/// snapshots never go backwards).
pub struct Reader<K, V> {
    cell: Arc<Mutex<Arc<Frozen<K, V>>>>,
}

impl<K, V> Clone for Reader<K, V> {
    fn clone(&self) -> Self {
        Self {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<K, V> Reader<K, V> {
    /// The latest published snapshot. The lock is held only to clone an
    /// `Arc` — never while a merge or rebuild runs.
    pub fn snapshot(&self) -> Frozen<K, V> {
        lock(&self.cell).as_ref().clone()
    }
}

/// A write-capable key→value map: a sorted write buffer plus
/// geometrically-tiered immutable runs, each run a [`StaticMap`] in a
/// cache-optimal implicit layout. See the [module docs](self) for the
/// design.
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
    /// runs are **newest first**. Under the default policy every tier
    /// holds at most one run; tiered policies with `fanout > 1` (and
    /// lazy-bottom debt) hold several.
    pub(crate) tiers: Vec<Vec<Arc<Run<K, V>>>>,
    /// The single in-flight compaction, if any.
    pending: Option<Pending<K, V>>,
    pub(crate) kind: QueryKind,
    pub(crate) algorithm: Algorithm,
    pub(crate) buffer_cap: usize,
    mode: CompactionMode,
    policy: CompactionPolicy,
    /// Cumulative count of buffer entries displaced toward the back by
    /// out-of-order mutations (the cost the bulk append fast path
    /// avoids); see [`DynamicMap::buffer_element_moves`].
    buffer_moves: u64,
    /// Snapshot cell swapped at seal/compaction granularity; [`Reader`]s
    /// share it.
    published: Arc<Mutex<Arc<Frozen<K, V>>>>,
    /// Whether `published` currently holds a non-trivial snapshot that
    /// should be released once the last [`Reader`] is gone.
    published_dirty: AtomicBool,
    /// Mutations since the last publication. Overwrite-heavy workloads
    /// can churn forever inside a never-overflowing buffer (every write
    /// hits an existing entry, so no seal fires); this counter forces a
    /// publication every `buffer_cap` mutations regardless, which is
    /// what makes the reader-lag bound an *operation* bound.
    muts_since_publish: AtomicUsize,
    /// The attached durability engine, if this map is persistent (see
    /// the [`crate::persist`] module). Behind a `Mutex` only so the map
    /// stays `Sync` — every access is `&mut self`, so the lock is
    /// uncontended.
    pub(crate) store: Option<Mutex<Box<dyn crate::persist::RunSink<K, V>>>>,
    /// Set during WAL replay: overflow seals are deferred until the
    /// durability engine is attached (see [`DynamicMap::maybe_seal`]).
    pub(crate) seal_suppressed: bool,
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
    /// An empty map storing its runs in `layout` (best default descent,
    /// [`DEFAULT_BUFFER_CAP`], cycle-leader construction).
    ///
    /// # Panics
    /// Panics on `Layout::Btree { b: 0 }`.
    pub fn new(layout: Layout) -> Self {
        Self::with_config(
            default_kind_for_layout(layout),
            Algorithm::CycleLeader,
            DEFAULT_BUFFER_CAP,
        )
    }

    /// Full-control constructor: explicit query descent, construction
    /// algorithm, and write-buffer capacity (`buffer_cap` writes are
    /// absorbed between seals; small values make seals and merges
    /// adversarially frequent, which the differential suite exploits).
    /// Compaction runs in [`CompactionMode::Background`]; chain
    /// [`DynamicMap::with_compaction_mode`] to override.
    ///
    /// # Panics
    /// Panics if `buffer_cap == 0` or `kind` is `QueryKind::Btree(0)`.
    pub fn with_config(kind: QueryKind, algorithm: Algorithm, buffer_cap: usize) -> Self {
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
            algorithm,
            buffer_cap,
            mode: CompactionMode::Background,
            policy: CompactionPolicy::default(),
            buffer_moves: 0,
            published: Arc::new(Mutex::new(Arc::new(Frozen::empty()))),
            published_dirty: AtomicBool::new(false),
            muts_since_publish: AtomicUsize::new(0),
            store: None,
            seal_suppressed: false,
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

    /// Builder-style override of the [`CompactionMode`] (the
    /// constructors default to [`CompactionMode::Background`]).
    /// Switching an existing map to `Inline` does not disturb an
    /// already-in-flight background merge — it is installed normally.
    #[must_use]
    pub fn with_compaction_mode(mut self, mode: CompactionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style override of the [`CompactionPolicy`] (the
    /// constructors default to `CompactionPolicy::tiered(1)`, the
    /// classic binomial schedule). Policies change **only** where
    /// versions reside and how merges are scheduled — observable
    /// answers are identical under every policy.
    ///
    /// # Panics
    /// Panics on `fanout == 0`.
    #[must_use]
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        assert!(policy.fanout >= 1, "tiered fanout must be at least 1");
        self.policy = policy;
        self
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
            Algorithm::CycleLeader,
            DEFAULT_BUFFER_CAP,
        )
    }

    /// [`DynamicMap::build`] with explicit descent, algorithm, and
    /// buffer capacity.
    ///
    /// # Panics
    /// Panics if `keys` and `values` have different lengths, or on the
    /// invalid configurations [`DynamicMap::with_config`] rejects.
    pub fn build_for_kind(
        keys: Vec<K>,
        values: Vec<V>,
        kind: QueryKind,
        algorithm: Algorithm,
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
        pairs.sort_by(|a, b| a.0.cmp(&b.0)); // stable: later duplicate stays later
        pairs.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                std::mem::swap(later, kept); // keep the later pair's value
                true
            } else {
                false
            }
        });
        let (keys, values): (Vec<K>, Vec<V>) = pairs.into_iter().unzip();
        Self::build_presorted(keys, values, kind, algorithm, buffer_cap)
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
        algorithm: Algorithm,
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
        let mut map = Self::with_config(kind, algorithm, buffer_cap);
        let n = keys.len();
        if n > 0 {
            // Deep enough that `t` buffer flushes fit above the bulk run.
            let mut t = 0usize;
            while (buffer_cap << t) < n {
                t += 1;
            }
            let slots: Vec<Option<V>> = values.into_iter().map(Some).collect();
            map.tiers = vec![Vec::new(); t + 1];
            map.tiers[t].push(Arc::new(Run::build(
                keys,
                slots,
                &vec![1i64; n],
                kind,
                algorithm,
            )?));
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
    /// and hands the k-way merge to the compactor — a background worker
    /// by default ([`CompactionMode`]), so the merge is off this call's
    /// path unless [`MAX_SEALED_RUNS`] backpressure engages.
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

    /// Bulk insert: apply every `(key, value)` pair as one delta
    /// (duplicate keys in the batch: the **last** pair wins, like
    /// repeated [`DynamicMap::insert`]). Returns how many **distinct**
    /// batch keys were live before the batch — the batch analog of the
    /// scalar `bool`s summed, except that intra-batch overwrites of
    /// the same key count once, not per pair.
    ///
    /// The delta is sorted **once**, its per-key run weights are
    /// resolved with one software-pipelined `batch_rank` sweep per
    /// resident run (instead of one descent cascade per key), and the
    /// result is combined with the write buffer in a single linear
    /// merge — no per-key `O(cap)` memmove. A batch that lands
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
    /// m.insert(1, "old");
    /// let replaced = m.batch_insert(vec![(1, "new"), (2, "two"), (3, "three")]);
    /// assert_eq!(replaced, 1); // only key 1 was live before
    /// assert_eq!(m.len(), 3);
    /// assert_eq!(m.get(&1), Some(&"new"));
    /// ```
    pub fn batch_insert(&mut self, pairs: Vec<(K, V)>) -> usize {
        self.apply_batch(pairs.into_iter().map(|(k, v)| (k, Some(v))).collect())
    }

    /// Bulk delete: apply every key as one delta (duplicates
    /// collapse). Returns how many keys were live before the batch.
    /// Keys that are absent (or already deleted) are no-ops and buffer
    /// no tombstone.
    ///
    /// Costs mirror [`DynamicMap::batch_insert`]: one sort, one
    /// pipelined weight sweep per resident run, one linear buffer
    /// merge.
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
        self.apply_batch(keys.iter().map(|k| (k.clone(), None)).collect())
    }

    /// Shared bulk-delta path: `Some(v)` entries insert, `None` entries
    /// remove. Returns the number of delta keys that were live before.
    pub(crate) fn apply_batch(&mut self, mut delta: Vec<(K, Option<V>)>) -> usize {
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
        // Sort once; stable, so "last pair wins" survives the dedup.
        delta.sort_by(|a, b| a.0.cmp(&b.0));
        delta.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                std::mem::swap(later, kept);
                true
            } else {
                false
            }
        });
        // Per-key summed run weights, one pipelined rank sweep per run
        // (the bulk analog of `runs_weight_of`).
        let keys: Vec<K> = delta.iter().map(|(k, _)| k.clone()).collect();
        let mut s_runs = vec![0i64; keys.len()];
        for run in self.live.runs.iter() {
            let ranks = run.map.index().batch_rank(&keys);
            let searcher = run.map.searcher();
            for (s, (&r, key)) in s_runs.iter_mut().zip(ranks.iter().zip(&keys)) {
                if let Some(p) = searcher.position_of_rank(r) {
                    if run.map.keys()[p] == *key {
                        *s += run.prefix.span(r);
                    }
                }
            }
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
        self.after_mutations(batch_len);
        changed
    }

    /// Seal the buffer now, regardless of fill level, and start (or, in
    /// [`CompactionMode::Inline`], complete) a compaction — so
    /// subsequent reads skip the buffer probe, and outstanding
    /// [`Reader`]s see the current state immediately (publication is
    /// otherwise seal-granular). Note the merge targets the policy's
    /// chosen tier: if tier 0 currently has room this *adds* a shallow
    /// run rather than reducing the run count.
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
    pub fn debug_panic_next_compaction(&mut self) {
        self.panic_next_compaction = true;
    }

    /// Size of the published cell's snapshot as `(buffer entries,
    /// runs)` — `(0, 0)` once the departed-reader release has fired.
    #[cfg(ist_loom)]
    pub fn debug_published_size(&self) -> (usize, usize) {
        let frozen = Arc::clone(&lock(&self.published));
        (frozen.buffer.len(), frozen.runs.len())
    }

    // ----- snapshots -----

    /// An immutable view of the current state; later writes to `self`
    /// are invisible to it. Cost: one copy of the (≤ `buffer_cap`-entry)
    /// buffer plus one `Arc` bump for the shared run list.
    pub fn snapshot(&self) -> Frozen<K, V> {
        self.freeze()
    }

    /// A handle to the published-snapshot cell, for concurrent readers;
    /// see [`Reader`]. The current state is published immediately;
    /// afterwards, for as long as any handle exists, the cell is
    /// re-published at **seal/compaction granularity** — when the
    /// buffer is sealed into an L0 run (sharing the run by `Arc`, no
    /// data copy), when a compaction installs, and in any case after
    /// every `buffer_cap` mutations (so overwrite-heavy hot sets that
    /// never overflow the buffer still publish) — never per buffered
    /// write. A reader therefore lags the writer by at most
    /// `buffer_cap` operations, at an amortized cost of one ≤-cap
    /// buffer copy per cap mutations; [`DynamicMap::compact_buffer`]
    /// publishes the current state on demand. With no outstanding
    /// handle, mutations skip publication entirely (and release the
    /// cell's last snapshot) — writers don't pay for readers they
    /// don't have.
    pub fn reader(&self) -> Reader<K, V> {
        self.publish();
        Reader {
            cell: Arc::clone(&self.published),
        }
    }

    // ----- introspection -----

    /// Writes currently absorbed by the buffer (not yet sealed).
    pub fn buffered_versions(&self) -> usize {
        self.live.buffer.len()
    }

    /// Resident versions per run, per tier: element `t` lists tier
    /// `t`'s runs newest-first (empty = empty tier; more than one run
    /// appears under tiered `fanout > 1` or lazy-bottom debt). Sealed
    /// L0 runs are **not** included (see
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

    /// The configured [`CompactionPolicy`].
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.policy
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

    /// `true` while a background compaction is in flight (started but
    /// not yet installed). Inline compactions never appear here.
    pub fn compaction_in_flight(&self) -> bool {
        self.pending.is_some()
    }

    /// The configured [`CompactionMode`].
    pub fn compaction_mode(&self) -> CompactionMode {
        self.mode
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

    fn freeze(&self) -> Frozen<K, V> {
        Frozen {
            buffer: Arc::new(Vec::clone(&self.live.buffer)),
            runs: Arc::clone(&self.live.runs),
        }
    }

    fn publish(&self) {
        let frozen = Arc::new(self.freeze());
        *lock(&self.published) = frozen;
        // Relaxed: both flags are only read and written on the writer
        // thread (mutation paths hold `&mut self`); readers receive
        // the snapshot itself through the `published` mutex, which
        // provides all cross-thread ordering.
        self.published_dirty.store(true, Ordering::Relaxed);
        // Relaxed: same argument — writer-thread-private bookkeeping.
        self.muts_since_publish.store(0, Ordering::Relaxed);
    }

    /// One atomic load: [`Reader`] handles share the cell's `Arc`.
    fn has_readers(&self) -> bool {
        Arc::strong_count(&self.published) > 1
    }

    /// Publish after a reader-visible structural event (seal or
    /// compaction install) — the publication points of the
    /// seal-granular contract. No-op without outstanding readers.
    fn publish_event(&self) {
        if self.has_readers() {
            self.publish();
        }
    }

    /// Mutation epilogue. With readers outstanding: count the mutation
    /// and force a publication once `buffer_cap` of them have gone
    /// unpublished — in-place buffer overwrites never seal, so without
    /// this an under-cap hot set would leave readers unboundedly stale;
    /// with the counter, the reader-lag bound really is "at most
    /// `buffer_cap` operations" (amortized cost: one ≤ cap buffer copy
    /// per cap mutations, same as a seal). With the last [`Reader`]
    /// gone: release the published cell's snapshot (swap in an empty
    /// view) so a departed reader population cannot pin a stale copy of
    /// the map — the regression behind
    /// `published_cell_releases_after_last_reader`.
    fn after_mutation(&self) {
        self.after_mutations(1);
    }

    /// [`DynamicMap::after_mutation`] for a batch of `n` mutations
    /// (bulk deltas count every key toward the publication bound).
    fn after_mutations(&self, n: usize) {
        if self.has_readers() {
            // Relaxed: writer-thread-private counter (see `publish`);
            // no other thread observes it.
            if self.muts_since_publish.fetch_add(n, Ordering::Relaxed) + n >= self.buffer_cap {
                self.publish();
            }
        // Relaxed: writer-thread-private flag (see `publish`); the
        // reader-visible effect (the cell swap below) is mutex-ordered.
        } else if self.published_dirty.load(Ordering::Relaxed) {
            *lock(&self.published) = Arc::new(Frozen::empty());
            // Relaxed: same writer-thread-private flag as above.
            self.published_dirty.store(false, Ordering::Relaxed);
        }
    }

    /// Summed weight of `key`'s versions across all resident runs
    /// (excluding the buffer): one rank descent per run.
    fn runs_weight_of(&self, key: &K) -> i64 {
        self.live.runs.iter().map(|r| r.weight_of(key)).sum()
    }

    /// `pub(crate)` for WAL recovery: replay suppresses sealing (the
    /// engine's manifest mirror is not attached yet, so a replay seal
    /// would create a run the store never hears about), then triggers
    /// the deferred overflow through here once the engine is attached.
    pub(crate) fn maybe_seal(&mut self) {
        if self.seal_suppressed {
            return;
        }
        if self.live.buffer.len() >= self.buffer_cap {
            self.seal();
            self.ensure_compaction();
        }
    }

    /// The seal half of the overflow path: freeze the sorted buffer
    /// into an immutable L0 run — the only construction work on the
    /// writer's critical path — and publish to readers, who share the
    /// new run by `Arc` without any data copy.
    ///
    /// Sealed runs stay in **sorted order** ([`QueryKind::Sorted`]):
    /// they hold ≤ `buffer_cap` entries, where binary search is already
    /// cache-resident, and they live only until the next compaction
    /// rebuilds them into the configured layout — so the seal is a
    /// `move` of the buffer plus a weight prefix sum, with no layout
    /// permutation at all on the write path.
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
        let run = Run::build(keys, slots, &weights, QueryKind::Sorted, self.algorithm)
            .expect("sorted runs never fail to build");
        self.l0.push(Arc::new(run));
        self.refresh_runs();
        // Durable seal: write the run file, rotate the WAL (whose
        // records are now all represented by the run), and point the
        // manifest at the new file set.
        if self.store.is_some() {
            let sealed = Arc::clone(self.l0.last().expect("just pushed"));
            if let Some(sink) = self.sink_mut() {
                sink.on_seal(&sealed);
            }
        }
        self.publish_event();
    }

    /// Make sure sealed runs are on their way into a tier, applying
    /// [`MAX_SEALED_RUNS`] backpressure first: past the limit the
    /// writer blocks on the in-flight merge before continuing.
    fn ensure_compaction(&mut self) {
        if self.pending.is_some() && self.l0.len() >= MAX_SEALED_RUNS {
            self.wait_for_pending();
        }
        if self.pending.is_none() {
            self.start_compaction();
        }
    }

    /// Decide what the next compaction consumes and where the merged
    /// run lands, per the configured [`CompactionPolicy`]. Every plan
    /// consumes all sealed runs plus a **contiguous newest prefix** of
    /// the tier runs, and installs at that prefix's boundary — the
    /// invariant that keeps global newest-first order valid.
    fn plan_compaction(&mut self) -> Plan {
        let consumed_l0 = self.l0.len();
        let fanout = self.policy.fanout;
        // First tier with a free run slot; tiers above it are full and
        // fold in.
        let mut target = self
            .tiers
            .iter()
            .position(|t| t.len() < fanout)
            .unwrap_or(self.tiers.len());
        let (mut full_tiers, mut partial_runs) = (target, 0);
        // Lazy bottom: when the plan would fold in the bottom (largest)
        // run but everything above it is still small, stop short of it
        // — merge the rest and stack the result on the bottom tier as
        // newer runs ("debt") until the trigger is reached.
        if self.policy.lazy_bottom {
            if let Some(bottom) = self.tiers.iter().rposition(|t| !t.is_empty()) {
                let consumes_bottom = full_tiers > bottom;
                if consumes_bottom {
                    let bottom_run = self.tiers[bottom].last().expect("non-empty tier");
                    let above: usize = self.l0.iter().map(|r| r.versions()).sum::<usize>()
                        + self
                            .tiers
                            .iter()
                            .flatten()
                            .map(|r| r.versions())
                            .sum::<usize>()
                        - bottom_run.versions();
                    if above.saturating_mul(fanout.max(2)) < bottom_run.versions() {
                        full_tiers = bottom;
                        partial_runs = self.tiers[bottom].len() - 1;
                        target = bottom;
                    }
                }
            }
        }
        while self.tiers.len() <= target {
            self.tiers.push(Vec::new());
        }
        // Anything below the consumed prefix that survives the merge?
        let boundary_leftover = self
            .tiers
            .get(full_tiers)
            .is_some_and(|t| t.len() > partial_runs);
        let deeper_occupied = boundary_leftover
            || self
                .tiers
                .get(full_tiers + 1..)
                .is_some_and(|rest| rest.iter().any(|t| !t.is_empty()));
        Plan {
            consumed_l0,
            full_tiers,
            partial_runs,
            target,
            deeper_occupied,
        }
    }

    /// Start compacting every sealed run plus the policy-chosen prefix
    /// of the tier runs (see [`DynamicMap::plan_compaction`]). In
    /// [`CompactionMode::Background`] the merge runs on a worker thread
    /// over `Arc`-shared sources while the map keeps serving from the
    /// originals; in [`CompactionMode::Inline`] it completes (and
    /// installs) before returning.
    fn start_compaction(&mut self) {
        debug_assert!(self.pending.is_none(), "at most one compaction in flight");
        if self.l0.is_empty() {
            return;
        }
        let plan = self.plan_compaction();
        // Newest-first sources: sealed runs (newest sealed sits last in
        // `l0`), then the consumed tier prefix shallow-to-deep.
        let mut sources: Vec<Arc<Run<K, V>>> = self.l0.iter().rev().cloned().collect();
        for tier in &self.tiers[..plan.full_tiers] {
            sources.extend(tier.iter().cloned());
        }
        if plan.partial_runs > 0 {
            sources.extend(
                self.tiers[plan.full_tiers][..plan.partial_runs]
                    .iter()
                    .cloned(),
            );
        }
        let deeper_occupied = plan.deeper_occupied;
        let (kind, algorithm) = (self.kind, self.algorithm);
        let threads = self.policy.merge_threads;
        match self.mode {
            CompactionMode::Inline => {
                let merged = merge_runs(&sources, deeper_occupied, kind, algorithm, false, threads);
                self.install(plan, merged);
            }
            CompactionMode::Background => {
                // One short-lived thread per compaction: the spawn
                // (~tens of µs) lands once per `buffer_cap` writes, not
                // per write, which keeps it out of the latency profile
                // the tail_latency bench guards. A long-lived worker
                // fed by a channel would shave it if profiles ever say
                // otherwise.
                let done = Arc::new(AtomicBool::new(false));
                let worker_done = Arc::clone(&done);
                #[cfg(ist_loom)]
                let inject_panic = std::mem::take(&mut self.panic_next_compaction);
                #[cfg(not(ist_loom))]
                let inject_panic = false;
                let handle = spawn(move || {
                    /// Sets `done` even when the merge panics, so the
                    /// writer's next `try_install` joins the worker and
                    /// re-raises the panic instead of sealing on top of
                    /// a compaction that will never finish.
                    struct DoneGuard(Arc<AtomicBool>);
                    impl Drop for DoneGuard {
                        fn drop(&mut self) {
                            self.0.store(true, Ordering::Release);
                        }
                    }
                    let _guard = DoneGuard(worker_done);
                    if inject_panic {
                        panic!("injected compaction worker panic (ist-loom test hook)");
                    }
                    merge_runs(&sources, deeper_occupied, kind, algorithm, true, threads)
                });
                self.pending = Some(Pending {
                    plan,
                    done,
                    handle: Some(handle),
                });
            }
        }
    }

    /// Atomically swap the compacted sources for the merged run: the
    /// consumed L0 prefix and tier-run prefix go out, `merged` becomes
    /// the newest run of the target tier, all under `&mut self` —
    /// readers hold `Arc`s and can never observe a torn state.
    /// Observable answers are identical before and after (the merge
    /// preserves newest-wins resolution and per-key weight sums).
    fn install(&mut self, plan: Plan, merged: Option<Run<K, V>>) {
        let merged = merged.map(Arc::new);
        // Durable install first: the merged run file and rotated
        // manifest hit storage before the in-memory swap, so a sink
        // error leaves the on-disk state at the (fully consistent)
        // pre-merge file set.
        if self.store.is_some() {
            let run = merged.clone();
            if let Some(sink) = self.sink_mut() {
                sink.on_install(plan, run.as_deref());
            }
        }
        self.l0.drain(..plan.consumed_l0);
        for tier in &mut self.tiers[..plan.full_tiers] {
            tier.clear();
        }
        if plan.partial_runs > 0 {
            self.tiers[plan.full_tiers].drain(..plan.partial_runs);
        }
        debug_assert!(
            self.tiers[..plan.target].iter().all(Vec::is_empty),
            "merged run would sit below an occupied shallower tier"
        );
        if let Some(run) = merged {
            self.tiers[plan.target].insert(0, run);
        }
        self.refresh_runs();
        self.publish_event();
    }

    /// Block until the in-flight compaction (if any) finishes, then
    /// install it. Worker panics propagate to the writer here.
    fn wait_for_pending(&mut self) {
        let Some(mut pending) = self.pending.take() else {
            return;
        };
        let handle = pending.handle.take().expect("pending owns its worker");
        let merged = handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        self.install(pending.plan, merged);
    }

    /// Non-blocking install check, run at the start of every mutation:
    /// one atomic load while the merge is still running, a join of an
    /// already-finished thread (cheap) plus the pointer swaps when it
    /// is done. Immediately starts compacting any sealed runs that
    /// accumulated while the previous merge was in flight.
    fn try_install(&mut self) {
        let finished = self
            .pending
            .as_ref()
            .is_some_and(|p| p.done.load(Ordering::Acquire));
        if finished {
            self.wait_for_pending();
            if !self.l0.is_empty() {
                self.start_compaction();
            }
        }
    }
}

/// A merge source with one-entry lookahead.
struct Source<'s, K, V> {
    head: Option<MergedEntry<K, V>>,
    rest: Box<dyn Iterator<Item = MergedEntry<K, V>> + 's>,
}

impl<'s, K, V> Source<'s, K, V> {
    fn new(mut rest: Box<dyn Iterator<Item = MergedEntry<K, V>> + 's>) -> Self {
        let head = rest.next();
        Self { head, rest }
    }

    fn advance(&mut self) -> MergedEntry<K, V> {
        let head = self.head.take().expect("advance() requires a head");
        self.head = self.rest.next();
        head
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

impl<K, V> Frozen<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync,
{
    /// Number of live keys.
    pub fn len(&self) -> usize {
        let w: i64 = self.buffer.iter().map(|e| e.weight).sum::<i64>()
            + self.runs.iter().map(|r| r.total_weight()).sum::<i64>();
        debug_assert!(w >= 0, "weight invariant violated: negative len");
        w as usize
    }

    /// `true` iff no key is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The newest resident version of `key`: `None` = absent from every
    /// run and the buffer, `Some(None)` = tombstone, `Some(Some(v))` =
    /// live.
    fn version(&self, key: &K) -> Option<&Option<V>> {
        if let Ok(i) = buffer_slot(&self.buffer, key) {
            return Some(&self.buffer[i].slot);
        }
        self.runs.iter().find_map(|run| run.map.get(key))
    }

    /// The live value under `key`, if any (buffer first, then runs
    /// newest-first, stopping at the first version found).
    pub fn get(&self, key: &K) -> Option<&V> {
        self.version(key)?.as_ref()
    }

    /// `true` iff `key` is live.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    fn buffer_weight_below(&self, key: &K) -> i64 {
        let i = self.buffer.partition_point(|e| e.key < *key);
        self.buffer[..i].iter().map(|e| e.weight).sum()
    }

    /// Number of live keys strictly smaller than `key` — exact, via the
    /// per-run weight prefixes (see the [module docs](self)).
    pub fn rank(&self, key: &K) -> usize {
        let mut w = self.buffer_weight_below(key);
        for run in self.runs.iter() {
            w += run.weight_below(key);
        }
        debug_assert!(w >= 0, "weight invariant violated: negative rank");
        w as usize
    }

    /// Number of live keys in `[lo, hi)`. Reversed bounds (`lo > hi`)
    /// describe an empty interval and yield 0 — never a panic (the same
    /// contract as [`crate::StaticIndex::range_count`]).
    pub fn range_count(&self, lo: &K, hi: &K) -> usize {
        if lo >= hi {
            return 0; // reversed or empty bounds: defined as 0
        }
        self.rank(hi).saturating_sub(self.rank(lo))
    }

    /// Smallest version key `≥ key` across buffer and runs (dead
    /// versions included — callers resolve liveness).
    fn version_at_least(&self, key: &K) -> Option<&K> {
        let i = self.buffer.partition_point(|e| e.key < *key);
        let mut best = self.buffer.get(i).map(|e| &e.key);
        for run in self.runs.iter() {
            if let Some((k, _)) = run.map.lower_bound(key) {
                best = Some(match best {
                    Some(b) if b <= k => b,
                    _ => k,
                });
            }
        }
        best
    }

    /// Smallest version key strictly greater than `key`.
    fn version_after(&self, key: &K) -> Option<&K> {
        let i = self.buffer.partition_point(|e| e.key <= *key);
        let mut best = self.buffer.get(i).map(|e| &e.key);
        for run in self.runs.iter() {
            if let Some((k, _)) = run.map.successor(key) {
                best = Some(match best {
                    Some(b) if b <= k => b,
                    _ => k,
                });
            }
        }
        best
    }

    /// Largest version key strictly smaller than `key`.
    fn version_before(&self, key: &K) -> Option<&K> {
        let i = self.buffer.partition_point(|e| e.key < *key);
        let mut best = i.checked_sub(1).map(|j| &self.buffer[j].key);
        for run in self.runs.iter() {
            if let Some((k, _)) = run.map.predecessor(key) {
                best = Some(match best {
                    Some(b) if b >= k => b,
                    _ => k,
                });
            }
        }
        best
    }

    /// Walk candidates rightward until one is live.
    fn resolve_forward<'a>(&'a self, mut cand: &'a K) -> Option<(&'a K, &'a V)> {
        loop {
            match self.version(cand).expect("candidate keys have a version") {
                Some(v) => return Some((cand, v)),
                None => cand = self.version_after(cand)?,
            }
        }
    }

    /// Walk candidates leftward until one is live.
    fn resolve_backward<'a>(&'a self, mut cand: &'a K) -> Option<(&'a K, &'a V)> {
        loop {
            match self.version(cand).expect("candidate keys have a version") {
                Some(v) => return Some((cand, v)),
                None => cand = self.version_before(cand)?,
            }
        }
    }

    /// The smallest live entry with key `≥ key`, if any.
    pub fn lower_bound(&self, key: &K) -> Option<(&K, &V)> {
        self.resolve_forward(self.version_at_least(key)?)
    }

    /// The smallest live entry with key **strictly greater** than
    /// `key`, if any.
    pub fn successor(&self, key: &K) -> Option<(&K, &V)> {
        self.resolve_forward(self.version_after(key)?)
    }

    /// The largest live entry with key **strictly smaller** than `key`,
    /// if any.
    pub fn predecessor(&self, key: &K) -> Option<(&K, &V)> {
        self.resolve_backward(self.version_before(key)?)
    }

    /// Batched [`Frozen::get`]: `out[i]` is exactly `get(keys[i])`.
    /// Unresolved keys cascade run by run (newest first), each run
    /// driven by the software-pipelined parallel `batch_search` engine.
    /// Keys are read in place through [`Borrow`] — `&[K]` and `&[&K]`
    /// (what a routing layer holds after partitioning by reference) are
    /// the same call, and nothing below this point ever clones a key.
    pub fn batch_get<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> Vec<Option<&V>> {
        let mut out: Vec<Option<&V>> = vec![None; keys.len()];
        // Buffer pass: cheap binary searches over ≤ cap entries.
        let mut pending: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match buffer_slot(&self.buffer, key.borrow()) {
                Ok(j) => out[i] = self.buffer[j].slot.as_ref(),
                Err(_) => pending.push(i),
            }
        }
        // Cascade the unresolved keys run by run, newest first, each
        // run on the pipelined parallel engine.
        for run in self.runs.iter() {
            if pending.is_empty() {
                break;
            }
            let probe: Vec<&K> = pending.iter().map(|&i| keys[i].borrow()).collect();
            let positions = run.map.index().batch_search(&probe);
            let mut still = Vec::with_capacity(pending.len());
            for (j, &i) in pending.iter().enumerate() {
                match positions[j] {
                    Some(p) => out[i] = run.map.values()[p].as_ref(),
                    None => still.push(i),
                }
            }
            pending = still;
        }
        out
    }

    /// Batched [`Frozen::rank`] on the pipelined per-run rank engine
    /// (keys read in place, like [`Frozen::batch_get`]).
    pub fn batch_rank<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> Vec<usize> {
        let mut acc: Vec<i64> = keys
            .iter()
            .map(|k| self.buffer_weight_below(k.borrow()))
            .collect();
        for run in self.runs.iter() {
            for (a, r) in acc.iter_mut().zip(run.map.index().batch_rank(keys)) {
                *a += run.prefix.at(r);
            }
        }
        acc.into_iter()
            .map(|w| {
                debug_assert!(w >= 0, "weight invariant violated: negative rank");
                w as usize
            })
            .collect()
    }

    /// Per-pair [`Frozen::range_count`] (reversed pairs yield 0); all
    /// endpoint ranks go through the pipelined engine.
    pub fn batch_range_count(&self, ranges: &[(K, K)]) -> Vec<usize> {
        let mut flat: Vec<&K> = Vec::with_capacity(2 * ranges.len());
        for (lo, hi) in ranges {
            flat.push(lo);
            flat.push(hi);
        }
        let ranks = self.batch_rank(&flat);
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
                keys.extend(run.iter_sorted_range(0, run.map.len()).map(|(k, _, _)| k));
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
        // Inline mode: deterministic tier shapes (background compaction
        // preserves answers, not shapes).
        let mut m: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 4)
                .with_compaction_mode(CompactionMode::Inline);
        for k in 0..16u64 {
            m.insert(k, k * 10);
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
    fn tiered_fanout_two_accumulates_runs_before_folding() {
        let mut m: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 4)
                .with_compaction_mode(CompactionMode::Inline)
                .with_policy(CompactionPolicy::tiered(2));
        for k in 0..16u64 {
            m.insert(k, k);
            m.validate_weights();
        }
        // Tiered(2): a tier holds up to 2 runs before folding deeper.
        // Seals 1-2 stack tier 0; seal 3 folds l0+tier0 into tier 1;
        // seal 4 restarts tier 0.
        assert_eq!(m.tier_versions(), vec![vec![4], vec![12]]);
        for k in 16..32u64 {
            m.insert(k, k);
        }
        assert_eq!(m.tier_versions(), vec![vec![4, 4], vec![12, 12]]);
        // Newest-first order within a tier: run 0 of tier 0 holds the
        // most recent seal.
        assert_eq!(m.len(), 32);
        for k in 0..32u64 {
            assert_eq!(m.get(&k), Some(&k));
            assert_eq!(m.rank(&k), k as usize);
        }
    }

    #[test]
    fn lazy_bottom_defers_rewriting_the_big_run() {
        let mut m: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 4)
                .with_compaction_mode(CompactionMode::Inline)
                .with_policy(CompactionPolicy::tiered(1).with_lazy_bottom(true));
        // One oversized bulk delta seals straight into a 12-version
        // bottom run on tier 0.
        m.batch_insert((0..12u64).map(|k| (k, k)).collect());
        assert_eq!(m.tier_versions(), vec![vec![12]]);
        let bottom = Arc::clone(&m.tiers[0][0]);
        // The next seal would fold the bottom in, but 4 versions of
        // debt × fanout 2 < 12: lazy bottom stops short and stacks the
        // merged debt as a newer run of the same tier.
        for k in 12..16u64 {
            m.insert(k, k);
            m.validate_weights();
        }
        assert_eq!(m.tier_versions(), vec![vec![4, 12]]);
        assert!(
            Arc::ptr_eq(&bottom, m.tiers[0].last().expect("bottom run")),
            "lazy bottom must not rewrite the big run below the trigger"
        );
        // One more seal crosses the trigger (8 × 2 ≥ 12): the bottom
        // run finally folds in, one tier down.
        for k in 16..20u64 {
            m.insert(k, k);
        }
        assert_eq!(m.tier_versions(), vec![vec![], vec![20]]);
        assert!(!Arc::ptr_eq(&bottom, &m.tiers[1][0]));
        for k in 0..20u64 {
            assert_eq!(m.get(&k), Some(&k));
            assert_eq!(m.rank(&k), k as usize);
        }
    }

    #[test]
    fn batch_append_fast_path_moves_no_elements() {
        let mut m: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 64);
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
        let mut batched: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 4)
                .with_compaction_mode(CompactionMode::Inline);
        let mut scalar = DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 4)
            .with_compaction_mode(CompactionMode::Inline);
        // Duplicate keys in one batch: last pair wins, exactly like the
        // scalar loop; the count is per **distinct** key live before
        // (the scalar loop would also count intra-batch overwrites).
        let pairs = vec![(5u64, 1u64), (3, 2), (5, 3), (9, 4), (3, 5)];
        for &(k, v) in &pairs {
            scalar.insert(k, v);
        }
        assert_eq!(batched.batch_insert(pairs), 0, "nothing was live before");
        batched.validate_weights();
        // Re-inserting over live keys counts each distinct key once.
        assert_eq!(batched.batch_insert(vec![(5, 7), (5, 8), (11, 9)]), 1);
        assert!(scalar.insert(5, 7));
        assert!(scalar.insert(5, 8));
        assert!(!scalar.insert(11, 9));
        let keys = [3u64, 3, 7, 9];
        let expect_removed = [3u64, 7, 9]
            .iter()
            .map(|k| usize::from(scalar.remove(k)))
            .sum::<usize>();
        assert_eq!(batched.batch_remove(&keys), expect_removed);
        batched.validate_weights();
        for k in 0..12u64 {
            assert_eq!(batched.get(&k), scalar.get(&k));
            assert_eq!(batched.rank(&k), scalar.rank(&k));
        }
        assert_eq!(batched.len(), scalar.len());
        // Empty batches are free no-ops.
        assert_eq!(batched.batch_insert(Vec::new()), 0);
        assert_eq!(batched.batch_remove(&[]), 0);
    }

    #[test]
    fn annihilation_empties_the_structure() {
        let mut m: DynamicMap<u64, &str> =
            DynamicMap::with_config(QueryKind::BstPrefetch, Algorithm::Involution, 1)
                .with_compaction_mode(CompactionMode::Inline);
        m.insert(7, "seven"); // seal+compact -> tier 0 live
        assert!(m.remove(&7)); // tombstone merge reaches bottom -> annihilated
        m.validate_weights();
        assert_eq!(m.len(), 0);
        assert_eq!(m.run_count(), 0, "tombstone + value must annihilate");
        assert_eq!(m.get(&7), None);
        assert!(!m.remove(&7), "double delete is a no-op");
    }

    #[test]
    fn background_annihilation_after_quiesce() {
        let mut m: DynamicMap<u64, &str> =
            DynamicMap::with_config(QueryKind::BstPrefetch, Algorithm::Involution, 1);
        assert_eq!(m.compaction_mode(), CompactionMode::Background);
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
        let mut m: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Btree(2), Algorithm::CycleLeader, 2);
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
        let mut m: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 3);
        let reader = m.reader();
        assert_eq!(reader.snapshot().len(), 0);
        let mut snaps = Vec::new();
        for k in 0..10u64 {
            m.insert(k, k);
            snaps.push(m.snapshot());
        }
        for (i, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.len(), i + 1, "snapshot pinned at its prefix");
            assert_eq!(snap.get(&(i as u64)), Some(&(i as u64)));
            assert_eq!(snap.get(&(i as u64 + 1)), None);
        }
        // Publication is seal-granular: the reader's cell reflects the
        // last seal (after the 9th insert at cap 3); the 10th insert is
        // still buffered and unpublished.
        assert_eq!(reader.snapshot().len(), 9);
        assert_eq!(reader.snapshot().batch_get(&[0, 9]), vec![Some(&0), None]);
        // compact_buffer publishes the current state on demand.
        m.compact_buffer();
        assert_eq!(reader.snapshot().len(), 10);
        assert_eq!(
            reader.snapshot().batch_get(&[0, 9]),
            vec![Some(&0), Some(&9)]
        );
    }

    #[test]
    fn reader_lag_is_op_bounded_even_without_seals() {
        // A hot set smaller than the buffer never overflows, so no seal
        // ever fires — the mutation counter must publish instead,
        // keeping the reader at most `buffer_cap` operations behind.
        let cap = 8usize;
        let mut m: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, cap);
        m.insert(1, 0);
        let reader = m.reader();
        for i in 1..=1_000u64 {
            m.insert(1, i); // always the in-place overwrite arm
            assert_eq!(m.buffered_versions(), 1, "hot set must never seal");
            let seen = *reader.snapshot().get(&1).expect("key 1 is live");
            assert!(
                i - seen < cap as u64,
                "reader is {} ops behind at op {i} (cap {cap})",
                i - seen
            );
        }
    }

    #[test]
    fn published_cell_releases_after_last_reader() {
        let mut m: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 4)
                .with_compaction_mode(CompactionMode::Inline);
        for k in 0..8u64 {
            m.insert(k, k);
        }
        let run = m
            .runs
            .first()
            .expect("8 inserts at cap 4 leave a resident run")
            .clone();
        // The published frozen view shares the live run *list*, so the
        // list's refcount is what a pinned snapshot shows up in.
        assert_eq!(Arc::strong_count(&m.live.runs), 1, "the live map only");
        assert_eq!(
            Arc::strong_count(&run),
            3,
            "tier + run list + this test's clone"
        );
        let reader = m.reader(); // eager publish pins the run list in the cell
        assert_eq!(Arc::strong_count(&m.live.runs), 2);
        assert_eq!(reader.snapshot().len(), 8);
        drop(reader);
        // The cell still pins the frozen view until the writer re-checks…
        assert_eq!(Arc::strong_count(&m.live.runs), 2);
        // …which happens on the next mutation (no seal needed).
        m.insert(100, 0);
        assert_eq!(
            Arc::strong_count(&m.live.runs),
            1,
            "published cell must release its snapshot after the last reader drops"
        );
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
    fn publication_is_seal_granular_not_per_write() {
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut m: DynamicMap<u64, CountedVal> =
            DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 64)
                .with_compaction_mode(CompactionMode::Inline);
        let _reader = m.reader();
        for k in 0..63u64 {
            m.insert(
                k,
                CountedVal {
                    n: k,
                    clones: Arc::clone(&clones),
                },
            );
        }
        // The write-amplification contract: buffered writes while a
        // reader is outstanding clone NOTHING (the old behavior cloned
        // the whole buffer per mutation — O(cap) value clones per op).
        assert_eq!(
            clones.load(Ordering::SeqCst),
            0,
            "buffered writes must not clone for publication"
        );
        // An explicit snapshot still copies the live buffer — exactly
        // once, on demand.
        let snap = m.snapshot();
        assert_eq!(clones.load(Ordering::SeqCst), 63);
        assert_eq!(snap.len(), 63);
        drop(snap);
        // The 64th insert seals: entries move into the L0 run without
        // cloning, publication shares it by Arc, and the inline merge
        // streams each version exactly once.
        m.insert(
            63,
            CountedVal {
                n: 63,
                clones: Arc::clone(&clones),
            },
        );
        assert_eq!(
            clones.load(Ordering::SeqCst),
            63 + 64,
            "seal + publish + one merge stream, nothing else"
        );
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
            let mut m: DynamicMap<u64, Grenade> =
                DynamicMap::with_config(QueryKind::Veb, Algorithm::CycleLeader, 4);
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
    fn background_matches_inline_observably() {
        let mut inline: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Btree(2), Algorithm::CycleLeader, 4)
                .with_compaction_mode(CompactionMode::Inline);
        let mut bg: DynamicMap<u64, u64> =
            DynamicMap::with_config(QueryKind::Btree(2), Algorithm::CycleLeader, 4);
        // A deterministic mutation mix with overwrites and deletes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..600u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 50;
            if x.is_multiple_of(5) {
                assert_eq!(inline.remove(&k), bg.remove(&k), "op {i}");
            } else {
                assert_eq!(inline.insert(k, i), bg.insert(k, i), "op {i}");
            }
            assert_eq!(inline.len(), bg.len(), "op {i}");
            bg.validate_weights();
        }
        bg.quiesce();
        assert_eq!(bg.sealed_runs(), 0);
        for k in 0..52u64 {
            assert_eq!(inline.get(&k), bg.get(&k));
            assert_eq!(inline.rank(&k), bg.rank(&k));
            assert_eq!(
                inline.successor(&k).map(|(a, b)| (*a, *b)),
                bg.successor(&k).map(|(a, b)| (*a, *b))
            );
        }
    }
}
