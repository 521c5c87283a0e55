//! Range queries over the implicit layouts.
//!
//! A range count needs no traversal of the range itself: with `rank(k)`
//! = "stored keys strictly smaller than `k`", the number of stored keys
//! in the half-open interval `[lo, hi)` is `rank(hi) − rank(lo)` — two
//! cache-friendly descents, independent of how many keys the range
//! contains. Batched range counts feed **both** endpoints of every pair
//! through one pipelined rank engine, so `q` range queries overlap the
//! latency of `2q` descents.

use crate::batch::par_chunked;
use crate::Searcher;

impl<'a, T: Ord + Sync + 'static> Searcher<'a, T> {
    /// Number of stored keys in the half-open interval `[lo, hi)`
    /// (duplicates counted with multiplicity), via two rank descents.
    ///
    /// Inverted bounds (`hi <= lo`) yield 0.
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = (0..100).map(|x| 2 * x).collect(); // 0, 2, …, 198
    /// permute_in_place(&mut v, Layout::Btree { b: 4 }, Algorithm::CycleLeader).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Btree { b: 4 });
    /// assert_eq!(s.range_count(&10, &20), 5); // 10, 12, 14, 16, 18
    /// assert_eq!(s.range_count(&11, &20), 4); // lo itself need not be stored
    /// assert_eq!(s.range_count(&20, &10), 0); // inverted
    /// ```
    pub fn range_count(&self, lo: &T, hi: &T) -> usize {
        self.rank(hi).saturating_sub(self.rank(lo))
    }

    /// Batch range count over `(lo, hi)` pairs: both endpoints of every
    /// pair are fed through the pipelined rank engine (parallel over
    /// chunks of the batch), then differenced.
    ///
    /// `out[i]` is identical to `range_count(&ranges[i].0,
    /// &ranges[i].1)`.
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = (0..100).map(|x| 2 * x).collect();
    /// permute_in_place(&mut v, Layout::Bst, Algorithm::CycleLeader).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Bst);
    /// assert_eq!(s.batch_range_count(&[(0, 10), (5, 5), (190, 500)]), vec![5, 0, 5]);
    /// ```
    pub fn batch_range_count(&self, ranges: &[(T, T)]) -> Vec<usize> {
        let mut counts = vec![0usize; ranges.len()];
        par_chunked(ranges, &mut counts, |rc, oc| range_chunk(self, rc, oc));
        counts
    }
}

/// Pipeline the `2·len` rank descents of one chunk of ranges, then
/// difference each pair into `counts`.
fn range_chunk<T: Ord + Sync + 'static>(
    s: &Searcher<'_, T>,
    ranges: &[(T, T)],
    counts: &mut [usize],
) {
    let mut ranks = vec![0usize; 2 * ranges.len()];
    s.pipelined_rank_into::<false>(
        2 * ranges.len(),
        |i| {
            let (lo, hi) = &ranges[i / 2];
            if i % 2 == 0 {
                lo
            } else {
                hi
            }
        },
        |i, r| ranks[i] = r,
    );
    for (i, c) in counts.iter_mut().enumerate() {
        *c = ranks[2 * i + 1].saturating_sub(ranks[2 * i]);
    }
}
