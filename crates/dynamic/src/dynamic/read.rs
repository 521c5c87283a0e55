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
        let mut pending: Vec<usize> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            match buffer_slot(&self.buffer, key.borrow()) {
                Ok(j) => out[i] = self.buffer[j].slot.as_ref(),
                Err(_) => pending.push(i),
            }
        }
        // Cascade the unresolved keys run by run, newest first, each
        // run on the pipelined parallel engine. `pending` shrinks in
        // place and one probe list serves every run, so a run costs
        // only the position vector its search returns.
        let mut probe: Vec<&K> = Vec::with_capacity(pending.len());
        for run in self.runs.iter() {
            if pending.is_empty() {
                break;
            }
            probe.clear();
            probe.extend(pending.iter().map(|&i| keys[i].borrow()));
            let mut positions = run.map.index().batch_search(&probe).into_iter();
            // `retain` visits `pending` once, in order: in step with
            // `positions`.
            pending.retain(|&i| match positions.next().expect("a position per probe") {
                Some(p) => {
                    out[i] = run.map.values()[p].as_ref();
                    false
                }
                None => true,
            });
        }
        out
    }

    /// Batched [`Frozen::rank`] on the pipelined per-run rank engine
    /// (keys read in place, like [`Frozen::batch_get`]).
    pub fn batch_rank<Q: Borrow<K> + Sync>(&self, keys: &[Q]) -> Vec<usize> {
        // The buffer's weight prefix, built once per call: each key then
        // costs one binary search and a lookup, not a sum over the
        // buffer below it.
        let mut below = Vec::with_capacity(self.buffer.len() + 1);
        below.push(0i64);
        for e in self.buffer.iter() {
            below.push(below.last().expect("starts at 0") + e.weight);
        }
        let mut acc: Vec<i64> = keys
            .iter()
            .map(|k| below[self.buffer.partition_point(|e| e.key < *k.borrow())])
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
