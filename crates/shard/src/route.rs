//! Scatter/gather batch routing: how a [`Sharded`](crate::Sharded)
//! answers a batch in three moves.
//!
//! 1. **partition** the input batch into per-shard sub-batches,
//!    remembering each item's original position ([`partition`], with
//!    [`shard_of_key`] as the router) — by reference for the reads
//!    (`keys.iter()`), by move for a bulk write's delta;
//! 2. drive every sub-batch through its shard's pipelined engine — in
//!    parallel, since the sub-batches are disjoint;
//! 3. **scatter** the per-shard results back into input order
//!    ([`scatter_to_input_order`]), so the caller sees exactly the
//!    answer a single unsharded structure would have produced.

/// Index of the shard owning `key` under the range partition described
/// by `splits` (sorted, strictly increasing): shard `0` owns keys below
/// `splits[0]`, shard `i` owns `[splits[i-1], splits[i])`, and the last
/// shard owns everything from `splits[len-1]` up; a boundary key goes
/// right. With empty `splits` there is exactly one shard.
///
/// This is the **range-partition invariant** that makes sharded ranks
/// exact: every key in shard `j < i` is strictly smaller than every key
/// in shard `i`, so a global rank is the sum of whole-shard lengths
/// below plus one in-shard rank.
///
/// Sortedness of `splits` is the **caller's** precondition and is *not*
/// re-checked here, not even in debug builds: this function sits inside
/// per-item routing loops, and an earlier revision that `debug_assert!`ed
/// the whole split vector on every call made every debug/fuzz partition
/// pass O(batch × splits). Validate once, where the split vector is
/// made: every `ShardedMap` constructor rejects unsorted splits, and the
/// vector never changes afterwards.
#[inline]
pub(crate) fn shard_of_key<K: Ord>(splits: &[K], key: &K) -> usize {
    splits.partition_point(|s| s <= key)
}

/// Partition a batch into `shards` per-shard sub-batches, preserving
/// input order within each: returns, per shard, the original indices
/// and the items routed to it. The items are whatever the iterator
/// yields — `keys.iter()` routes borrows, so a read clones no key; a
/// `Vec` moves its items, so a write's delta is consumed, not copied.
/// Feed each sub-batch to its shard, then hand the index lists, paired
/// with the results, to [`scatter_to_input_order`].
///
/// # Panics
/// Panics if `route` returns an index `>= shards`.
pub(crate) fn partition<T>(
    items: impl IntoIterator<Item = T>,
    shards: usize,
    mut route: impl FnMut(&T) -> usize,
) -> Vec<(Vec<usize>, Vec<T>)> {
    let mut parts: Vec<(Vec<usize>, Vec<T>)> = std::iter::repeat_with(Default::default)
        .take(shards)
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        let s = route(&item);
        assert!(s < shards, "route sent item {i} to shard {s} of {shards}");
        parts[s].0.push(i);
        parts[s].1.push(item);
    }
    parts
}

/// Scatter per-shard results back into input order: `parts` pairs each
/// shard's original-index list (from [`partition`]) with its result
/// list, and the output places result `j` of shard `s` at
/// `parts[s].0[j]` — undoing the partition, so `out[i]` answers input
/// item `i`.
///
/// # Panics
/// Panics unless the index lists form an exact partition of `0..len`
/// (each index covered once) with one result per index — torn routing
/// is a bug, never silently misattributed.
pub(crate) fn scatter_to_input_order<R>(
    len: usize,
    parts: impl IntoIterator<Item = (Vec<usize>, Vec<R>)>,
) -> Vec<R> {
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    let mut filled = 0usize;
    for (indices, results) in parts {
        assert_eq!(
            indices.len(),
            results.len(),
            "scatter: a shard returned {} results for {} routed items",
            results.len(),
            indices.len()
        );
        for (i, r) in indices.into_iter().zip(results) {
            assert!(
                out[i].replace(r).is_none(),
                "scatter: input slot {i} routed twice"
            );
            filled += 1;
        }
    }
    assert_eq!(filled, len, "scatter: not every input slot was covered");
    out.into_iter()
        .map(|slot| slot.expect("every slot covered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_key_sends_boundary_keys_right() {
        let splits = [10u64, 20];
        assert_eq!(shard_of_key(&splits, &3), 0);
        assert_eq!(shard_of_key(&splits, &10), 1);
        assert_eq!(shard_of_key(&splits, &19), 1);
        assert_eq!(shard_of_key(&splits, &99), 2);
        assert_eq!(shard_of_key(&[] as &[u64], &99), 0);
    }

    #[test]
    fn partition_then_scatter_roundtrips() {
        let items: Vec<u64> = (0..100).map(|i| (i * 37) % 90).collect();
        let parts = partition(items.iter(), 4, |k| shard_of_key(&[20u64, 45, 70], k));
        // Within-shard order is input order.
        for (indices, routed) in &parts {
            assert!(indices.windows(2).all(|w| w[0] < w[1]));
            for (&i, k) in indices.iter().zip(routed) {
                assert_eq!(items[i], **k);
            }
        }
        // Identity results scatter back to the input batch.
        let back = scatter_to_input_order(items.len(), parts);
        assert_eq!(back.into_iter().copied().collect::<Vec<_>>(), items);
    }

    #[test]
    fn partition_by_reference_matches_by_move() {
        let items: Vec<u64> = (0..257).map(|i| (i * 131) % 300).collect();
        let splits = [40u64, 90, 200];
        let owned = partition(items.clone(), 4, |k| shard_of_key(&splits, k));
        let byref = partition(items.iter(), 4, |k| shard_of_key(&splits, k));
        for ((oi, ov), (ri, rv)) in owned.iter().zip(&byref) {
            assert_eq!(oi, ri);
            assert_eq!(ov, &rv.iter().map(|&&k| k).collect::<Vec<_>>());
        }
    }

    /// Regression for the O(batch × splits) debug-assert: `shard_of_key`
    /// must NOT re-validate the split vector per routed item — that is
    /// done once, where the vector is made. Routing through
    /// knowingly-unsorted splits must therefore not panic (the result
    /// is unspecified garbage, but it is *cheap* garbage).
    #[test]
    fn shard_of_key_does_not_revalidate_splits() {
        let unsorted = [20u64, 10];
        let _ = shard_of_key(&unsorted, &15); // must not panic, even in debug
    }

    #[test]
    fn empty_batch_and_empty_shards() {
        let parts = partition(Vec::<u64>::new(), 3, |_| 0);
        assert_eq!(parts.len(), 3);
        let out: Vec<u64> = scatter_to_input_order(0, parts);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "not every input slot was covered")]
    fn scatter_rejects_missing_slots() {
        scatter_to_input_order(2, vec![(vec![0], vec!["only"])]);
    }

    #[test]
    #[should_panic(expected = "routed twice")]
    fn scatter_rejects_duplicate_slots() {
        scatter_to_input_order(2, vec![(vec![0, 0], vec!["a", "b"])]);
    }
}
