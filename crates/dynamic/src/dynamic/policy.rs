//! Configuration of the overflow path: buffer capacity, sealed-run
//! budget, where compaction runs, and how runs are arranged into tiers.

#[cfg(doc)]
use super::DynamicMap;

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
/// [module docs](super) for the seal/compact state machine.
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
