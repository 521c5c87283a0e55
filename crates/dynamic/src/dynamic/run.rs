//! The immutable run — a static layout plus the rank-indexed prefix
//! sums of its versions' weights — and the write-buffer entry.

use std::sync::OnceLock;

use crate::map::StaticMap;
use ist_core::Error;
use ist_query::{Landing, QueryKind};
use ist_store::RunRef;

/// The run size, in versions, from which a compaction output is built
/// in the map's configured layout; a smaller output stays in sorted
/// order ([`QueryKind::Sorted`]) — see [`merged_run_kind`]. This is the
/// paper's crossover turned around: a layout pays for its permutation
/// only once the array has outgrown the cache, and below that binary
/// search over sorted keys reads as fast and costs nothing to build. A
/// sorted run is also adopted zero-copy from the merge's columns, and
/// the next merge streams it in place instead of walking the layout's
/// position map.
///
/// Measured by `cargo run --release -p ist-bench --bin figures --
/// crossover`: batched `get` and `rank` Mq/s for sorted and every layout
/// at n = 2^12 … 2^22, up to eight same-size indexes queried round-robin
/// with fresh keys per batch. The rule: the smallest power of two from
/// which vEB (the serving layout) beats sorted on the geometric mean of
/// `get` and `rank` at the serving per-shard batch of 256 keys, at that
/// size and every larger one. On the 2-vCPU reference box six sweeps
/// gave 2^17 three times, 2^18 twice and 2^16 once: at 2^17 vEB over
/// sorted read 1.17 / 1.16 / 0.99 / 0.97 / 1.13 / 1.11 on that mean, at
/// 2^18 1.53 / 1.05 / 1.24 / 1.27 / 1.16 / 1.19. The constant is the
/// smallest size every sweep agrees on, 2^18. Medians over the six, vEB
/// against sorted (Mq/s, `get` / `rank`): 21.4 / 36.3 against 27.3 /
/// 29.1 at 2^16, 19.4 / 32.4 against 21.1 / 22.2 at 2^17, 15.9 / 26.0
/// against 15.7 / 17.0 at 2^18 — vEB's `rank` leads at every size, its
/// `get` trails sorted through 2^17. The benchmark of record agrees:
/// `serve_ingest_heavy` gained 13.6 % (9 of 10 pairs) with 2^18 and
/// 1.5 % (7 of 10) with 2^17 (CHANGES.md).
pub(super) const LAYOUT_CROSSOVER_VERSIONS: usize = 1 << 18;

/// The layout a compaction output of `versions` versions is built in:
/// sorted below [`LAYOUT_CROSSOVER_VERSIONS`], the map's configured
/// `kind` from there on. Seals (always sorted) and the bulk-loaded run
/// (the caller's kind) do not go through here.
pub(super) fn merged_run_kind(versions: usize, kind: QueryKind) -> QueryKind {
    if versions < LAYOUT_CROSSOVER_VERSIONS {
        QueryKind::Sorted
    } else {
        kind
    }
}

/// One buffered write: the newest version of `key`. An empty `slot` is
/// a tombstone. `weight` maintains the per-key sum invariant described
/// in the [module docs](super).
#[derive(Clone)]
pub(crate) struct BufEntry<K, V> {
    pub(crate) key: K,
    pub(crate) slot: Option<V>,
    pub(crate) weight: i64,
}

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
    /// The run file that holds this run, once a durable manifest names
    /// one: set when the run is loaded from its file or when a
    /// checkpoint first writes it, and never changed after — so no
    /// checkpoint rewrites a run. Always empty on a memory-only map.
    pub(crate) file: OnceLock<RunRef>,
}

impl<K: Ord + Send + Sync + 'static, V: Send> Run<K, V> {
    pub(super) fn build(
        keys: Vec<K>,
        slots: Vec<Option<V>>,
        prefix: Prefix,
        kind: QueryKind,
    ) -> Result<Self, Error> {
        Ok(Self {
            map: StaticMap::from_sorted_parts(keys, slots, kind)?,
            prefix,
            file: OnceLock::new(),
        })
    }

    /// Number of resident versions (live + tombstones).
    pub(super) fn versions(&self) -> usize {
        self.map.len()
    }

    /// Total weight of the run (its contribution to `len`).
    pub(super) fn total_weight(&self) -> i64 {
        self.prefix.total()
    }

    /// Summed weight of versions with key strictly below `key`.
    pub(super) fn weight_below(&self, key: &K) -> i64 {
        self.prefix.at(self.map.rank(key))
    }

    /// Weight of the version a descent of this run landed on, if it
    /// holds the probe key (0 if not): the landing's rank indexes the
    /// weight prefix, its slot plus one verify probe decides presence.
    #[inline]
    pub(super) fn weight_at(&self, landing: Landing<'_, K>) -> i64 {
        match landing.hit() {
            Some(_) => self.prefix.span(landing.rank),
            None => 0,
        }
    }
}

/// Binary-search the sorted write buffer (one entry per key) for
/// `key`: `Ok(index)` of the entry, or `Err(insert position)`. The
/// single home of the buffer's probe semantics — every read path goes
/// through it.
pub(super) fn buffer_slot<K: Ord, V>(buffer: &[BufEntry<K, V>], key: &K) -> Result<usize, usize> {
    buffer.binary_search_by(|e| e.key.cmp(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_runs_below_the_crossover_stay_sorted() {
        for kind in [QueryKind::Veb, QueryKind::Btree(8), QueryKind::BstPrefetch] {
            assert_eq!(merged_run_kind(1, kind), QueryKind::Sorted);
            assert_eq!(
                merged_run_kind(LAYOUT_CROSSOVER_VERSIONS - 1, kind),
                QueryKind::Sorted
            );
            assert_eq!(merged_run_kind(LAYOUT_CROSSOVER_VERSIONS, kind), kind);
        }
        assert_eq!(
            merged_run_kind(LAYOUT_CROSSOVER_VERSIONS, QueryKind::Sorted),
            QueryKind::Sorted
        );
    }
}
