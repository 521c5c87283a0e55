//! Configuration of the overflow path: buffer capacity, sealed-run
//! budget, and where compaction runs.

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
