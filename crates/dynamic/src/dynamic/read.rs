//! The read side: [`Frozen`], the single implementation of every
//! read.

use super::run::{buffer_slot, BufEntry, Run};
#[cfg(doc)]
use super::DynamicMap;
use crate::sync::Arc;
use std::borrow::Borrow;

/// An immutable state of a [`DynamicMap`] — a sorted buffer plus the
/// resident runs, newest first — and the **single implementation of
/// every read**. A snapshot ([`DynamicMap::snapshot`]) is one of these
/// over the exact state at the call; the live map keeps its current
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
    pub(super) fn empty() -> Self {
        Self {
            buffer: Arc::new(Vec::new()),
            runs: Arc::new(Vec::new()),
        }
    }
}

/// Which neighbor of a key a [`Frozen`] order query looks for.
#[derive(Clone, Copy)]
enum Seek {
    /// The smallest key `≥` it.
    AtLeast,
    /// The smallest key `>` it.
    After,
    /// The largest key `<` it.
    Before,
}

impl<K, V> Clone for Frozen<K, V> {
    fn clone(&self) -> Self {
        Self {
            buffer: Arc::clone(&self.buffer),
            runs: Arc::clone(&self.runs),
        }
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
    pub(super) fn version(&self, key: &K) -> Option<&Option<V>> {
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
    /// per-run weight prefixes (see the [module docs](super)).
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
    /// contract as [`StaticMap::range_count`](crate::StaticMap::range_count)).
    pub fn range_count(&self, lo: &K, hi: &K) -> usize {
        if lo >= hi {
            return 0; // reversed or empty bounds: defined as 0
        }
        self.rank(hi).saturating_sub(self.rank(lo))
    }

    /// The version key nearest `key` in direction `seek` across buffer
    /// and runs — the smallest `≥ key` or `> key`, or the largest
    /// `< key` — dead versions included (callers resolve liveness).
    fn version_near(&self, key: &K, seek: Seek) -> Option<&K> {
        let i = match seek {
            Seek::After => self.buffer.partition_point(|e| e.key <= *key),
            Seek::AtLeast | Seek::Before => self.buffer.partition_point(|e| e.key < *key),
        };
        let buffered = match seek {
            Seek::Before => i.checked_sub(1),
            Seek::AtLeast | Seek::After => Some(i),
        };
        let buffered = buffered.and_then(|j| self.buffer.get(j)).map(|e| &e.key);
        let runs = self.runs.iter().filter_map(|run| {
            let entry = match seek {
                Seek::AtLeast => run.map.lower_bound(key),
                Seek::After => run.map.successor(key),
                Seek::Before => run.map.predecessor(key),
            };
            entry.map(|(k, _)| k)
        });
        let all = buffered.into_iter().chain(runs);
        match seek {
            Seek::Before => all.max(),
            Seek::AtLeast | Seek::After => all.min(),
        }
    }

    /// The live entry nearest `key` in direction `seek`: the nearest
    /// version, then — past every dead one — the next in the same
    /// direction (rightward for [`Seek::AtLeast`] and [`Seek::After`],
    /// leftward for [`Seek::Before`]) until one is live.
    fn live_near(&self, key: &K, seek: Seek) -> Option<(&K, &V)> {
        let step = match seek {
            Seek::Before => Seek::Before,
            Seek::AtLeast | Seek::After => Seek::After,
        };
        let mut cand = self.version_near(key, seek)?;
        loop {
            match self.version(cand).expect("candidate keys have a version") {
                Some(v) => return Some((cand, v)),
                None => cand = self.version_near(cand, step)?,
            }
        }
    }

    /// The smallest live entry with key `≥ key`, if any.
    pub fn lower_bound(&self, key: &K) -> Option<(&K, &V)> {
        self.live_near(key, Seek::AtLeast)
    }

    /// The smallest live entry with key **strictly greater** than
    /// `key`, if any.
    pub fn successor(&self, key: &K) -> Option<(&K, &V)> {
        self.live_near(key, Seek::After)
    }

    /// The largest live entry with key **strictly smaller** than `key`,
    /// if any.
    pub fn predecessor(&self, key: &K) -> Option<(&K, &V)> {
        self.live_near(key, Seek::Before)
    }

    /// Batched [`Frozen::get`]: `out[i]` is exactly `get(keys[i])`.
    /// Unresolved keys cascade run by run (newest first), each run
    /// driven by the software-pipelined parallel landing engine
    /// ([`Searcher::batch_land_into`](ist_query::Searcher::batch_land_into)),
    /// which hands each key's payload reference to the cascade inside
    /// its chunks. Keys are read in place through [`Borrow`] — `&[K]`
    /// and `&[&K]` (what a routing layer holds after partitioning by
    /// reference) are the same call, and nothing below this point ever
    /// clones a key. The call's allocations do not grow with the run
    /// count: the result, the pending list, the probe list and the
    /// landing slice, the last three reused by every run.
    pub fn batch_get<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> Vec<Option<&V>> {
        let mut out: Vec<Option<&V>> = vec![None; keys.len()];
        // Buffer pass: cheap binary searches over ≤ cap entries.
        let mut pending: Vec<usize> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            match buffer_slot(&self.buffer, key.borrow()) {
                Ok(j) => out[i] = self.buffer[j].slot.as_ref(),
                Err(_) => pending.push(i),
            }
        }
        // Cascade the unresolved keys run by run, newest first, each
        // run on the pipelined parallel engine. `pending` shrinks in
        // place, and one probe list and one landing slice serve every
        // run.
        let mut probe: Vec<&K> = Vec::with_capacity(pending.len());
        let mut landed: Vec<Option<&Option<V>>> = Vec::with_capacity(pending.len());
        for run in self.runs.iter() {
            if pending.is_empty() {
                break;
            }
            probe.clear();
            probe.extend(pending.iter().map(|&i| keys[i].borrow()));
            landed.clear();
            landed.resize(probe.len(), None);
            let values = run.map.values();
            run.map
                .searcher()
                .batch_land_into(&probe, &mut landed, |o, l| *o = l.hit().map(|p| &values[p]));
            // `retain` visits `pending` once, in order: in step with
            // `landed`.
            let mut landed = landed.iter();
            pending.retain(|&i| match landed.next().expect("a landing per probe") {
                Some(version) => {
                    out[i] = version.as_ref();
                    false
                }
                None => true,
            });
        }
        out
    }

    /// The buffer's weight prefix, `below[i]` = summed weight of its
    /// `i` smallest entries, built once per batched call: each key then
    /// costs one binary search and a lookup
    /// ([`Frozen::buffer_below`]), not a sum over the buffer below it.
    fn buffer_prefix(&self) -> Vec<i64> {
        let mut below = Vec::with_capacity(self.buffer.len() + 1);
        below.push(0i64);
        for e in self.buffer.iter() {
            below.push(below.last().expect("starts at 0") + e.weight);
        }
        below
    }

    /// The buffer's weight below `key`, read off [`Frozen::buffer_prefix`].
    fn buffer_below(&self, below: &[i64], key: &K) -> i64 {
        below[self.buffer.partition_point(|e| e.key < *key)]
    }

    /// Batched [`Frozen::rank`] on the pipelined per-run landing engine,
    /// each run adding its weight prefix at every key's rank in place
    /// (keys read in place, like [`Frozen::batch_get`]).
    pub fn batch_rank<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> Vec<usize> {
        let below = self.buffer_prefix();
        let mut acc: Vec<i64> = keys
            .iter()
            .map(|k| self.buffer_below(&below, k.borrow()))
            .collect();
        for run in self.runs.iter() {
            let prefix = &run.prefix;
            run.map
                .searcher()
                .batch_land_into(keys, &mut acc, |a, l| *a += prefix.at(l.rank));
        }
        acc.into_iter()
            .map(|w| {
                debug_assert!(w >= 0, "weight invariant violated: negative rank");
                w as usize
            })
            .collect()
    }

    /// Per-pair [`Frozen::range_count`] (reversed pairs yield 0). Each
    /// pair keeps one running weight: the buffer's share, then per run
    /// `prefix[rank(hi)] − prefix[rank(lo)]`, added inside the run's
    /// pipelined pair window
    /// ([`Searcher::batch_range_into`](ist_query::Searcher::batch_range_into)).
    /// Nothing is staged per endpoint.
    pub fn batch_range_count(&self, ranges: &[(K, K)]) -> Vec<usize> {
        let below = self.buffer_prefix();
        let mut acc: Vec<i64> = ranges
            .iter()
            .map(|(lo, hi)| self.buffer_below(&below, hi) - self.buffer_below(&below, lo))
            .collect();
        for run in self.runs.iter() {
            let prefix = &run.prefix;
            run.map.searcher().batch_range_into(
                ranges,
                &mut acc,
                |a, rank| *a -= prefix.at(rank),
                |a, rank| *a += prefix.at(rank),
            );
        }
        acc.into_iter()
            .zip(ranges)
            .map(|(w, (lo, hi))| {
                if lo >= hi {
                    0
                } else {
                    debug_assert!(w >= 0, "weight invariant violated: negative range count");
                    w as usize
                }
            })
            .collect()
    }
}
