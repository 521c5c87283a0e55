//! Range queries over the implicit layouts.
//!
//! A range count needs no traversal of the range itself: with `rank(k)`
//! = "stored keys strictly smaller than `k`", the number of stored keys
//! in the half-open interval `[lo, hi)` is `rank(hi) − rank(lo)` — two
//! cache-friendly descents, independent of how many keys the range
//! contains. Batched range counts feed **both** endpoints of every pair
//! through one pipelined rank engine, so `q` range queries overlap the
//! latency of `2q` descents; [`Searcher::batch_range_into`] is that
//! pair window, and the caller's two sinks fold each endpoint's rank
//! into the pair's slot inside the chunks.

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

    /// Batch range count over `(lo, hi)` pairs, on
    /// [`Searcher::batch_range_into`]: each pair's `lo` rank is parked
    /// in its slot and its `hi` rank differenced against it.
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
        self.batch_range_into(
            ranges,
            &mut counts,
            |c, rank| *c = rank,
            |c, rank| *c = rank.saturating_sub(*c),
        );
        counts
    }

    /// The batched pair entry every range count runs: both endpoints of
    /// every pair go through the pipelined rank window (parallel over
    /// chunks of the batch), and inside the chunks `lo(&mut out[i],
    /// rank)` takes the rank of `ranges[i].0`, then `hi(&mut out[i],
    /// rank)` that of `ranges[i].1` — `lo` always first, since the
    /// window delivers its landings in query order. The caller folds
    /// each pair into its own slot, with no list of endpoints or ranks
    /// in between.
    ///
    /// # Panics
    /// Panics if `ranges` and `out` differ in length.
    ///
    /// # Examples
    /// ```
    /// use ist_query::{QueryKind, Searcher};
    /// let v = vec![10u64, 20, 30];
    /// let s = Searcher::new(&v, QueryKind::Sorted);
    /// let mut span = [(0, 0); 2];
    /// s.batch_range_into(&[(15, 35), (0, 10)], &mut span, |o, r| o.0 = r, |o, r| o.1 = r);
    /// assert_eq!(span, [(1, 3), (0, 0)]);
    /// ```
    pub fn batch_range_into<O: Send>(
        &self,
        ranges: &[(T, T)],
        out: &mut [O],
        lo: impl Fn(&mut O, usize) + Sync,
        hi: impl Fn(&mut O, usize) + Sync,
    ) {
        assert_eq!(
            ranges.len(),
            out.len(),
            "batch_range_into: ranges and out differ in length"
        );
        par_chunked(ranges, out, |rc, oc| {
            self.land_window(
                2 * rc.len(),
                |i| {
                    let (l, h) = &rc[i / 2];
                    if i % 2 == 0 {
                        l
                    } else {
                        h
                    }
                },
                |i, _, (rank, _)| {
                    let o = &mut oc[i / 2];
                    if i % 2 == 0 {
                        lo(o, rank)
                    } else {
                        hi(o, rank)
                    }
                },
            )
        });
    }
}
