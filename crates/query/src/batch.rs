//! The batched query execution engine: software-pipelined
//! multi-descent, generic over the layout [`Navigator`].
//!
//! A lone descent spends most of its time waiting: each level's node
//! address depends on the previous level's comparison, so its loads
//! serialize, and the two-way branch per level mispredicts half the
//! time on random probes. Independent queries share neither problem —
//! the engine exploits that by keeping a window of [`WINDOW`] descents
//! in flight and advancing them **level-synchronously**: each round
//! advances every in-flight descent one level (branchlessly, via the
//! navigator's compare-and-advance step) and issues the navigator's
//! prefetch for its next node before any of them is touched again. The
//! in-flight loads are mutually independent, so the core's memory-level
//! parallelism — not its latency — sets the throughput: the
//! batch-parallel analogue of the paper's GPU query model, where a warp
//! keeps 32 descents in flight.
//!
//! There is exactly **one** window loop ([`window_into`]): the
//! `UPPER = false` rank descent, each finished lane resolved once by
//! [`Navigator::land`] into its rank and slot. A search carries no
//! result register and no equality test through its rounds — every
//! lane step is exactly a rank step — and reads its answer off the
//! landing: the slot plus one verify probe. Which layout the loop
//! descends is entirely the navigator's business. Because all
//! in-flight descents sit on the same level, the per-level round
//! constant ([`Navigator::Round`]) is computed once per round for the
//! whole window.
//!
//! There is also exactly **one** batched entry point,
//! [`Searcher::batch_land_into`]: the window loop over fixed chunks of
//! the batch that the rayon shim spreads over its threads (a batch too
//! short to pay for a hand-off — `rayon::min_task_len` — and every
//! batch on a one-thread pool stay on the calling thread), handing the
//! caller each key's [`Landing`] inside the chunk, to fold into a slice
//! the caller owns. `batch_search`, `batch_rank` and `batch_count` are
//! one-liners over it, and so are `ist-dynamic`'s batched reads and
//! write-path weight sweep. A caller that reads only the rank inlines
//! the landing, and the slot arithmetic folds away. Results are
//! bit-identical to a scalar loop of the point operation: the window
//! replays the scalar engine's comparison sequence and its landing.
//! The differential suite (`tests/query_differential.rs`) enforces
//! this, and `tests/navigator_equivalence.rs` pins the visited node
//! sequences.

use crate::nav::Navigator;
use crate::{Landing, Searcher};
use rayon::prelude::*;
use std::borrow::Borrow;

/// In-flight descents per pipelined lane: sized to the memory-level
/// parallelism a core can actually sustain (line-fill buffers plus
/// prefetch queue). Throughput measured flat between 16 and 64, so the
/// width is a constant, not an option.
pub(crate) const WINDOW: usize = 32;

/// What one pipelined descent costs, in nanoseconds, as the floor rule
/// ([`rayon::min_task_len`]) needs it: the benchmark of record reads
/// 35–55 ns per query on a 2^16-key map and 85–100 ns at 2^23 keys; the
/// serving path descends many small resident runs, so the estimate
/// sits at the low end (a low cost asks for longer tasks).
const DESCENT_COST_NS: u64 = 50;

/// Queries per parallel chunk: a whole number of windows, so no chunk
/// boundary truncates one, and small enough that the pool — which
/// deals the chunks of a task's share out in blocks, from one cursor —
/// has something to balance the caller and its helpers with.
const CHUNK: usize = 32 * WINDOW;

/// Run `work(item_chunk, out_chunk)` over lockstep [`CHUNK`]-sized
/// pieces of `items`/`out` — in parallel when the batch is worth at
/// least two tasks of [`rayon::min_task_len`]`(DESCENT_COST_NS)`
/// queries each and the pool has a second thread, chunk after chunk on
/// the caller otherwise. How many tasks, and which chunks each runs, is
/// the pool's decision (`par_chunks_mut` + `with_min_len`); this is the
/// one place the batch engine states its grain, and both parallel
/// batch entry points ([`Searcher::batch_land_into`] and the range
/// count) dispatch through here.
pub(crate) fn par_chunked<I: Sync, O: Send>(
    items: &[I],
    out: &mut [O],
    work: impl Fn(&[I], &mut [O]) + Sync,
) {
    debug_assert_eq!(items.len(), out.len());
    out.par_chunks_mut(CHUNK)
        .with_min_len(rayon::min_task_len(DESCENT_COST_NS).div_ceil(CHUNK))
        .enumerate()
        .for_each(|(c, oc)| {
            work(&items[c * CHUNK..c * CHUNK + oc.len()], oc);
        });
}

/// One window of cached key references (`bw ≤ W` live entries).
#[inline(always)]
fn fill_keys<'k, T: 'k, const W: usize>(
    q: usize,
    bw: usize,
    key_of: &impl Fn(usize) -> &'k T,
) -> [&'k T; W] {
    let mut keys = [key_of(q); W];
    for (s, slot) in keys.iter_mut().enumerate().take(bw).skip(1) {
        *slot = key_of(q + s);
    }
    keys
}

/// The pipelined window loop: `n` queries in windows of `W` in-flight
/// `UPPER = false` rank descents, delivering `(query index, key,
/// landing)` to `sink` in query order — exactly what the scalar engine
/// lands on from the same registers, for any navigator.
///
/// `tap(query, node_base)` observes every node read of every live
/// descent (no-op closures compile away; the equivalence suite listens
/// here).
///
/// Always inlined, like the scalar descents, so that under
/// `dispatch_nav!`'s SIMD trampolines the loop is compiled with the
/// kernel's instructions and the node kernel inlines into it instead of
/// being called per node.
#[inline(always)]
pub(crate) fn window_into<'k, T, N, const W: usize>(
    nav: &N,
    n: usize,
    key_of: impl Fn(usize) -> &'k T,
    mut sink: impl FnMut(usize, &'k T, (usize, Option<usize>)),
    mut tap: impl FnMut(usize, usize),
) where
    T: Ord + 'k,
    N: Navigator<T>,
{
    let rounds = nav.rounds();
    let (cur0, acc0) = nav.start();
    let mut q = 0usize;
    while q < n {
        let bw = W.min(n - q);
        let keys = fill_keys::<T, W>(q, bw, &key_of);
        // Structure-of-arrays descent registers: cursor / accumulator
        // per lane.
        let mut curs = [cur0; W];
        let mut accs = [acc0; W];
        let mut ctx = nav.first_round();
        // All descents share the root; one prefetch warms it (for the
        // sorted baseline this is the shared first midpoint).
        nav.prefetch_node(&curs[0], &accs[0]);
        for _ in 1..rounds {
            for s in 0..bw {
                if !nav.is_live(&curs[s], &accs[s]) {
                    continue;
                }
                tap(q + s, nav.node_base(&curs[s], &accs[s]));
                nav.step_rank::<false>(&mut curs[s], &mut accs[s], keys[s], ctx);
                nav.prefetch_node(&curs[s], &accs[s]);
            }
            ctx = nav.next_round(ctx);
        }
        if rounds > 0 {
            // Final round: descents fall off into their gaps; prefetch
            // each gap's overflow keys — the one line the landing
            // reads that the descent has not — instead of a child.
            for s in 0..bw {
                if !nav.is_live(&curs[s], &accs[s]) {
                    continue;
                }
                tap(q + s, nav.node_base(&curs[s], &accs[s]));
                nav.step_rank_last::<false>(&mut curs[s], &mut accs[s], keys[s]);
                nav.prefetch_gap(nav.gap(&curs[s], &accs[s]));
            }
        }
        for s in 0..bw {
            let landing = nav.land::<false>(&curs[s], &accs[s], keys[s]);
            sink(q + s, keys[s], landing);
        }
        q += bw;
    }
}

impl<'a, T: Ord + Sync + 'static> Searcher<'a, T> {
    /// Run the window loop over `n` queries on the calling thread,
    /// delivering `(query index, key, landing)` to `sink` in query
    /// order.
    #[inline]
    pub(crate) fn land_window<'k>(
        &self,
        n: usize,
        key_of: impl Fn(usize) -> &'k T,
        sink: impl FnMut(usize, &'k T, (usize, Option<usize>)),
    ) where
        T: 'k,
    {
        crate::dispatch_nav!(self, nav => {
            window_into::<T, _, WINDOW>(&nav, n, key_of, sink, |_, _| {})
        });
    }

    /// The batched landing — every batch read's one entry point: for
    /// each `i`, `f(&mut out[i], landing)` with the [`Landing`] of
    /// `keys[i]` (`UPPER = false`: its rank and its lower-bound slot),
    /// computed by the software-pipelined engine within rayon-parallel
    /// chunks. `f` runs inside the chunks, so the answer a caller wants
    /// — a rank, a payload reference, a weight added to a running sum
    /// — lands in the caller's slice with no vector of positions or
    /// ranks in between.
    ///
    /// Keys are read in place through [`Borrow`], so an owned `&[T]`
    /// and a borrowed `&[&T]` (what a routing layer holds after
    /// [`crate::route::partition_batch_ref`]) are the same call — no
    /// key is ever cloned or copied into a staging buffer.
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    ///
    /// # Examples
    /// ```
    /// use ist_query::{QueryKind, Searcher};
    /// let keys = vec![10u64, 20, 30];
    /// let names = ["ten", "twenty", "thirty"];
    /// let s = Searcher::new(&keys, QueryKind::Sorted);
    /// let mut got = [None; 2];
    /// s.batch_land_into(&[20, 25], &mut got, |o, l| *o = l.hit().map(|p| names[p]));
    /// assert_eq!(got, [Some("twenty"), None]);
    /// let mut ranks = [0; 3];
    /// s.batch_land_into(&[&5, &25, &99], &mut ranks, |o, l| *o = l.rank);
    /// assert_eq!(ranks, [0, 2, 3]);
    /// ```
    pub fn batch_land_into<Q, O>(
        &self,
        keys: &[Q],
        out: &mut [O],
        f: impl Fn(&mut O, Landing<'_, T>) + Sync,
    ) where
        Q: Borrow<T> + Sync,
        O: Send,
    {
        assert_eq!(
            keys.len(),
            out.len(),
            "batch_land_into: keys and out differ in length"
        );
        par_chunked(keys, out, |kc, oc| {
            self.land_window(
                kc.len(),
                |i| kc[i].borrow(),
                |i, key, (rank, slot)| {
                    let data = self.data;
                    f(
                        &mut oc[i],
                        Landing {
                            rank,
                            slot,
                            key,
                            data,
                        },
                    )
                },
            )
        });
    }

    /// Batch search: `out[i]` is exactly [`Searcher::search`]`(keys[i])`
    /// — the leftmost slot holding the key — via
    /// [`Searcher::batch_land_into`].
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = (0..1000).map(|x| 2 * x).collect();
    /// permute_in_place(&mut v, Layout::Bst, Algorithm::CycleLeader).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Bst);
    /// let found = s.batch_search(&[0, 2, 3, 1998]);
    /// assert_eq!(found.len(), 4);
    /// assert_eq!(found[0].map(|p| v[p]), Some(0));
    /// assert_eq!(found[2], None); // 3 is not stored
    /// assert_eq!(found, s.batch_search(&[&0, &2, &3, &1998])); // borrowed keys
    /// ```
    pub fn batch_search<Q: Borrow<T> + Sync>(&self, keys: &[Q]) -> Vec<Option<usize>> {
        let mut out = vec![None; keys.len()];
        self.batch_land_into(keys, &mut out, |o, l| *o = l.hit());
        out
    }

    /// Batch rank: `out[i]` is the number of stored keys strictly
    /// smaller than `keys[i]` (identical to per-key [`Searcher::rank`]).
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = (0..100).map(|x| 2 * x).collect();
    /// permute_in_place(&mut v, Layout::Veb, Algorithm::CycleLeader).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Veb);
    /// assert_eq!(s.batch_rank(&[0, 1, 10, 999]), vec![0, 1, 5, 100]);
    /// ```
    pub fn batch_rank<Q: Borrow<T> + Sync>(&self, keys: &[Q]) -> Vec<usize> {
        let mut out = vec![0; keys.len()];
        self.batch_land_into(keys, &mut out, |o, l| *o = l.rank);
        out
    }

    /// Count how many of `keys` are present — the loop the paper's
    /// query benchmarks measure, batched. Always equal to a scalar
    /// loop of [`Searcher::contains`], including for batches smaller
    /// than any parallel grain.
    pub fn batch_count<Q: Borrow<T> + Sync>(&self, keys: &[Q]) -> usize {
        let mut hit = vec![false; keys.len()];
        self.batch_land_into(keys, &mut hit, |o, l| *o = l.hit().is_some());
        hit.into_iter().filter(|h| *h).count()
    }
}
