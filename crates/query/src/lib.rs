//! # ist-query
//!
//! Search queries over the implicit layouts produced by `ist-core`, plus
//! the plain binary-search baseline the paper compares against
//! (Figures 6.5–6.7, 6.9).
//!
//! All searchers operate on the `[perfect layout | sorted overflow]`
//! array format (see [`ist_layout::complete`]): they descend the perfect
//! tree with pure index arithmetic and, on falling off at in-order gap
//! `g`, probe the overflow suffix.
//!
//! ## One navigator per layout, one engine per strategy
//!
//! Every layout's descent arithmetic lives in exactly one place: its
//! [`nav::Navigator`] implementation ([`nav::BstNav`], [`nav::BtreeNav`],
//! [`nav::VebNav`], [`nav::SortedNav`]). Execution strategies are
//! layout-agnostic drivers over the trait:
//!
//! * the **scalar** engine (`nav` module) — one descent at a time —
//!   behind the point methods of [`Searcher`];
//! * the **software-pipelined** windowed engine (the `batch` module) — a
//!   window of descents advanced level-synchronously with navigator
//!   prefetches — behind the batch methods;
//! * the **GPU cost model** (`ist-gpu-sim`) steps the same navigators
//!   lane by lane and charges coalesced transactions.
//!
//! `tests/navigator_equivalence.rs` (repository root) asserts all three
//! visit bit-identical node sequences, via [`Searcher::trace_rank`] /
//! [`Searcher::trace_rank_pipelined`] and the GPU model's lane traces.
//!
//! Every query is a **rank descent** — steps with no equality test and
//! no early exit — resolved once, from its final registers, into a
//! [`Landing`]: the rank and the layout slot of the element of that
//! sorted rank. Each query reads its answer off that one landing; no
//! query maps a rank to a slot after the descent. A search is the slot
//! plus one verify probe, so a hit costs exactly what a miss does, and
//! a window of batched lookups carries nothing a window of ranks does
//! not.
//!
//! ## Batched queries
//!
//! A lone descent serializes its cache misses — every level's address
//! depends on the previous comparison. Independent queries don't. The
//! batch engine (the `batch` module) keeps a window of 32 descents in
//! flight per thread, advancing each one level per round and
//! prefetching its next node, so queries hide each other's memory
//! latency, and parallelizes over chunks of the batch
//! (pipelining *within* each chunk). One entry point,
//! [`Searcher::batch_land_into`], hands the caller each key's landing
//! inside the chunks; [`Searcher::batch_search`],
//! [`Searcher::batch_rank`] and [`Searcher::batch_count`] are
//! one-liners over it. Its pair twin, [`Searcher::batch_range_into`],
//! runs the same window over both endpoints of every range and hands
//! the caller each endpoint's rank; [`Searcher::batch_range_count`] is
//! a one-liner over that. Each `out[i]` is bit-identical to the point
//! operation on `keys[i]`. Keys are read through
//! [`std::borrow::Borrow`], so `&[T]` and `&[&T]` are the same call.
//!
//! ## Duplicate keys
//!
//! Stored keys need not be distinct. The contract, for every layout,
//! scalar and batched alike:
//!
//! * [`Searcher::rank`]`(k)` — the number of stored keys **strictly
//!   smaller** than `k` (so for `m` copies of `k`, ranks of the copies
//!   do not include each other). [`Searcher::land`]`::<true>(k).rank`
//!   counts keys `≤ k`, so the two differ by `k`'s multiplicity. Each is
//!   the rank of one landing (`UPPER = false` / `true`).
//! * [`Searcher::lower_bound`]`(k)` — the layout position holding the
//!   **first key `≥ k` in sorted order**, or `None` if every key is
//!   smaller: the slot of the `UPPER = false` landing. With duplicates
//!   this is the leftmost copy's slot.
//! * [`Searcher::search`]`(k)` — the slot of the **leftmost** copy of
//!   `k` in sorted order, on every layout: the same landing's slot when
//!   it holds `k`, else `None` (the batch calls return exactly the
//!   per-key scalar answer). [`Searcher::contains`] is
//!   `search(k).is_some()`.
//! * [`Searcher::successor`]`(k)` — the first key strictly greater than
//!   `k`: the slot of the `UPPER = true` landing, so duplicates of `k`
//!   itself are skipped entirely. [`Searcher::predecessor`]`(k)` — the
//!   last key strictly smaller — is the one query that maps a rank to a
//!   slot after its descent ([`Searcher::position_of_rank`]).
//! * [`Searcher::range_count`]`(lo, hi)` — keys in `[lo, hi)` counted
//!   **with multiplicity**.
//!
//! `tests/query_differential.rs` (repository root) checks all of the
//! above differentially against a sorted-array oracle, duplicates
//! included.

use ist_core::Layout;
use ist_layout::{bst_pos, btree_pos, veb_pos, CompleteShape};

mod batch;
pub mod nav;
mod order;
mod range;
mod wide;

pub use wide::SimdKey;

use nav::{BinaryShape, BtreeSearchShape};

/// Instantiate the navigator matching a [`Searcher`]'s shape and run
/// `$body` with it — the single point where shape tags become concrete
/// navigator types (everything downstream is `Navigator`-generic). The
/// SIMD shapes run `$body` inside [`wide::with_avx2`] /
/// [`wide::with_avx512`], so the node kernel inlines into the descent;
/// every call site runs once per parallel chunk, on the thread that
/// descends it.
macro_rules! dispatch_nav {
    ($searcher:expr, $nav:ident => $body:expr) => {{
        let s = $searcher;
        match s.shape {
            $crate::ShapeData::Sorted => {
                let $nav = $crate::nav::SortedNav::new(s.data);
                $body
            }
            $crate::ShapeData::Bst { shape, prefetch } => {
                let $nav = $crate::nav::BstNav::from_shape(s.data, shape, prefetch);
                $body
            }
            $crate::ShapeData::Btree(shape) => {
                let $nav = $crate::nav::BtreeNav::from_shape(s.data, shape);
                $body
            }
            $crate::ShapeData::BtreeWide8(shape) => {
                let $nav = $crate::nav::WideBtreeNav::<_, 8>::from_shape(s.data, shape);
                $body
            }
            $crate::ShapeData::BtreeWide16(shape) => {
                let $nav = $crate::nav::WideBtreeNav::<_, 16>::from_shape(s.data, shape);
                $body
            }
            $crate::ShapeData::BtreeWide8Avx2(shape) => {
                // SAFETY: `Searcher::new` picks this shape only on a CPU
                // with AVX2.
                let $nav = unsafe {
                    $crate::nav::WideBtreeNav::<_, 8, { $crate::wide::kernel::AVX2 }>::with_kernel(
                        s.data, shape,
                    )
                };
                let body = || $body;
                // SAFETY: as above.
                unsafe { $crate::wide::with_avx2(body) }
            }
            $crate::ShapeData::BtreeWide16Avx2(shape) => {
                // SAFETY: as for `BtreeWide8Avx2`.
                let $nav = unsafe {
                    $crate::nav::WideBtreeNav::<_, 16, { $crate::wide::kernel::AVX2 }>::with_kernel(
                        s.data, shape,
                    )
                };
                let body = || $body;
                // SAFETY: as above.
                unsafe { $crate::wide::with_avx2(body) }
            }
            $crate::ShapeData::BtreeWide8Avx512(shape) => {
                // SAFETY: `Searcher::new` picks this shape only on a CPU
                // with AVX-512F.
                let $nav = unsafe {
                    $crate::nav::WideBtreeNav::<_, 8, { $crate::wide::kernel::AVX512 }>::with_kernel(
                        s.data, shape,
                    )
                };
                let body = || $body;
                // SAFETY: as above.
                unsafe { $crate::wide::with_avx512(body) }
            }
            $crate::ShapeData::BtreeWide16Avx512(shape) => {
                // SAFETY: as for `BtreeWide8Avx512`.
                let $nav = unsafe {
                    $crate::nav::WideBtreeNav::<_, 16, { $crate::wide::kernel::AVX512 }>::with_kernel(
                        s.data, shape,
                    )
                };
                let body = || $body;
                // SAFETY: as above.
                unsafe { $crate::wide::with_avx512(body) }
            }
            $crate::ShapeData::Veb(shape) => {
                let $nav = $crate::nav::VebNav::from_shape(s.data, shape);
                $body
            }
        }
    }};
}
pub(crate) use dispatch_nav;

/// Which searcher a [`Searcher`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Binary search on the un-permuted sorted array.
    Sorted,
    /// BST layout descent.
    Bst,
    /// BST layout descent with explicit prefetching.
    BstPrefetch,
    /// B-tree layout descent (keys per node inside).
    Btree(usize),
    /// vEB layout descent.
    Veb,
}

impl QueryKind {
    /// Stable lowercase name used in CSV output.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Sorted => "binary_search",
            QueryKind::Bst => "bst",
            QueryKind::BstPrefetch => "bst_prefetch",
            QueryKind::Btree(_) => "btree",
            QueryKind::Veb => "veb",
        }
    }

    /// The construction layout this kind descends (`None` for the
    /// un-permuted sorted baseline) — the inverse of
    /// [`default_kind_for_layout`], with both BST kinds on
    /// [`Layout::Bst`].
    pub fn layout(self) -> Option<Layout> {
        match self {
            QueryKind::Sorted => None,
            QueryKind::Bst | QueryKind::BstPrefetch => Some(Layout::Bst),
            QueryKind::Btree(b) => Some(Layout::Btree { b }),
            QueryKind::Veb => Some(Layout::Veb),
        }
    }
}

/// The default descent for a layout: grandchild prefetching for the
/// BST, the layout's own descent otherwise. [`Searcher::for_layout`]
/// and every map's layout constructor use it, so a searcher and a map
/// over the same layout descend alike.
///
/// `Layout::Btree { b: 8 | 16 }` maps to `QueryKind::Btree(b)` like any
/// other width — the kind names the *shape*, which is physical — and
/// [`Searcher::new`] upgrades it to the wide-node SIMD kernel whenever
/// the key type is [`SimdKey`]-eligible ([`Searcher::is_wide`] reports
/// the route).
pub fn default_kind_for_layout(layout: Layout) -> QueryKind {
    match layout {
        Layout::Bst => QueryKind::BstPrefetch,
        Layout::Btree { b } => QueryKind::Btree(b),
        Layout::Veb => QueryKind::Veb,
    }
}

/// A reusable searcher: precomputes the layout shape once and answers
/// point, batch, and range queries.
///
/// # Examples
/// ```
/// use ist_core::{permute_in_place, Algorithm, Layout};
/// use ist_query::Searcher;
/// let mut v: Vec<u64> = (0..1000).collect();
/// permute_in_place(&mut v, Layout::Veb, Algorithm::CycleLeader).unwrap();
/// let s = Searcher::for_layout(&v, Layout::Veb);
/// assert!(s.contains(&123));
/// assert!(!s.contains(&5000));
/// assert_eq!(s.batch_count(&[1, 2, 3, 9999]), 3);
/// assert_eq!(s.range_count(&10, &20), 10);
/// ```
pub struct Searcher<'a, T> {
    pub(crate) data: &'a [T],
    pub(crate) shape: ShapeData,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ShapeData {
    Sorted,
    Bst {
        shape: BinaryShape,
        prefetch: bool,
    },
    Btree(BtreeSearchShape),
    /// B-tree shape served by the const-width [`nav::WideBtreeNav`]
    /// kernel (`b == 8`); see [`Searcher::new`]'s width dispatch.
    BtreeWide8(BtreeSearchShape),
    /// As [`ShapeData::BtreeWide8`], with `b == 16`.
    BtreeWide16(BtreeSearchShape),
    /// [`ShapeData::BtreeWide8`] on the AVX2 node kernel: `u64` / `i64`
    /// keys on a CPU with AVX2, which [`Searcher::new`] checked.
    BtreeWide8Avx2(BtreeSearchShape),
    /// As [`ShapeData::BtreeWide8Avx2`], with `b == 16`.
    BtreeWide16Avx2(BtreeSearchShape),
    /// [`ShapeData::BtreeWide8`] on the AVX-512 node kernel: `u64` /
    /// `i64` keys on a CPU with AVX-512F, which [`Searcher::new`]
    /// checked.
    BtreeWide8Avx512(BtreeSearchShape),
    /// As [`ShapeData::BtreeWide8Avx512`], with `b == 16`.
    BtreeWide16Avx512(BtreeSearchShape),
    Veb(BinaryShape),
}

impl<'a, T: Ord + Sync + 'static> Searcher<'a, T> {
    /// Searcher for data permuted with [`ist_core::permute_in_place`]
    /// into `layout`, on the layout's [`default_kind_for_layout`] — so a
    /// BST searcher prefetches, like every map's (see [`Searcher::new`]
    /// for full control).
    pub fn for_layout(data: &'a [T], layout: Layout) -> Self {
        Self::new(data, default_kind_for_layout(layout))
    }

    /// Searcher for an explicit [`QueryKind`].
    ///
    /// **Width dispatch**: a [`QueryKind::Btree`] whose `b` matches a
    /// compiled const-width kernel (8 or 16) on a [`SimdKey`] key type
    /// is served by the monomorphized [`nav::WideBtreeNav`] — unrolled,
    /// branchless, vectorized per-node compare-and-count — instead of
    /// the runtime-width [`nav::BtreeNav`]. Results, traces, and
    /// duplicate semantics are bit-identical (pinned by
    /// `tests/navigator_equivalence.rs`); only throughput changes.
    /// [`Searcher::new_runtime`] opts out.
    ///
    /// **Kernel choice**, made here once per searcher, whatever the
    /// build's target features (`is_x86_feature_detected!`, a cached
    /// load): `u64` / `i64` keys on an `x86_64` CPU that reports
    /// AVX-512F take the AVX-512 node kernel — 8 keys per compare into
    /// a mask register — and on one that reports AVX2 the AVX2 kernel,
    /// 4 keys per `vpcmpgtq`; `u32` keys take the SSE2 kernel; every
    /// other case takes the portable unrolled loop.
    ///
    /// # Panics
    /// On [`QueryKind::Btree`]`(0)` over a non-empty `data`: a node
    /// holds at least one key.
    pub fn new(data: &'a [T], kind: QueryKind) -> Self {
        let mut s = Self::new_runtime(data, kind);
        if let ShapeData::Btree(shape) = s.shape {
            if wide::is_simd_key::<T>() {
                let (avx512, avx2) = (wide::avx512_kernel::<T>(), wide::avx2_kernel::<T>());
                s.shape = match (shape.b, avx512, avx2) {
                    (8, true, _) => ShapeData::BtreeWide8Avx512(shape),
                    (16, true, _) => ShapeData::BtreeWide16Avx512(shape),
                    (8, _, true) => ShapeData::BtreeWide8Avx2(shape),
                    (16, _, true) => ShapeData::BtreeWide16Avx2(shape),
                    (8, ..) => ShapeData::BtreeWide8(shape),
                    (16, ..) => ShapeData::BtreeWide16(shape),
                    _ => ShapeData::Btree(shape),
                };
            }
        }
        s
    }

    /// [`Searcher::new`] without the const-width upgrade: a B-tree kind
    /// always descends through the general runtime-width
    /// [`nav::BtreeNav`]. The escape hatch the wide-vs-runtime
    /// equivalence suites are built on; answers are identical to
    /// [`Searcher::new`]'s for every query.
    pub fn new_runtime(data: &'a [T], kind: QueryKind) -> Self {
        let shape = if data.is_empty() {
            ShapeData::Sorted // degenerate; every search misses anyway
        } else {
            match kind {
                QueryKind::Sorted => ShapeData::Sorted,
                QueryKind::Bst => ShapeData::Bst {
                    shape: BinaryShape::new(data.len()),
                    prefetch: false,
                },
                QueryKind::BstPrefetch => ShapeData::Bst {
                    shape: BinaryShape::new(data.len()),
                    prefetch: true,
                },
                QueryKind::Btree(b) => ShapeData::Btree(BtreeSearchShape::new(data.len(), b)),
                QueryKind::Veb => ShapeData::Veb(BinaryShape::new(data.len())),
            }
        };
        Self { data, shape }
    }

    /// `true` iff queries descend through a const-width wide-node
    /// kernel (see [`Searcher::new`]'s width dispatch), on any node
    /// kernel: the AVX-512 or AVX2 one, which `new` picks for `u64` /
    /// `i64` keys when the CPU reports the feature, or the SSE2 /
    /// portable one otherwise.
    pub fn is_wide(&self) -> bool {
        matches!(
            self.shape,
            ShapeData::BtreeWide8(_)
                | ShapeData::BtreeWide16(_)
                | ShapeData::BtreeWide8Avx2(_)
                | ShapeData::BtreeWide16Avx2(_)
                | ShapeData::BtreeWide8Avx512(_)
                | ShapeData::BtreeWide16Avx512(_)
        )
    }

    /// The [`Landing`] of one rank descent for `key` (ties left, or
    /// right with `UPPER`): its rank and the slot of the element of
    /// that sorted rank. Every scalar query below reads one of these.
    ///
    /// The sorted baseline short-circuits to `partition_point` — the
    /// same landing the navigator's pinned probe sequence produces (the
    /// partition point is unique), in a tighter loop. Always inlined,
    /// so each caller keeps only the half of the landing it reads: out
    /// of line, the scalar vEB `get` of `perfbench`'s `static_read`
    /// (2^23 keys, a 2-vCPU AVX-512 box) ran about 35 % slower.
    ///
    /// # Examples
    /// ```
    /// use ist_query::{QueryKind, Searcher};
    /// let v = vec![10u64, 20, 20, 30];
    /// let s = Searcher::new(&v, QueryKind::Sorted);
    /// let l = s.land::<false>(&20);
    /// assert_eq!((l.rank, l.slot, l.hit()), (1, Some(1), Some(1)));
    /// let u = s.land::<true>(&20);
    /// assert_eq!((u.rank, u.slot), (3, Some(3)));
    /// assert_eq!(s.land::<true>(&30).slot, None);
    /// ```
    #[inline(always)]
    pub fn land<'k, const UPPER: bool>(&self, key: &'k T) -> Landing<'k, T>
    where
        'a: 'k,
    {
        let (rank, slot) = if let ShapeData::Sorted = self.shape {
            let r = self
                .data
                .partition_point(|x| if UPPER { x <= key } else { x < key });
            (r, (r < self.data.len()).then_some(r))
        } else {
            dispatch_nav!(self, nav => nav::land_with::<T, _, UPPER>(&nav, key, |_| {}))
        };
        let data = self.data;
        Landing {
            rank,
            slot,
            key,
            data,
        }
    }

    /// The layout index of the leftmost copy of `key` in sorted order,
    /// if present (see the [crate docs](crate#duplicate-keys)): the
    /// landing's slot, if it holds `key`.
    #[inline]
    pub fn search(&self, key: &T) -> Option<usize> {
        self.land::<false>(key).hit()
    }

    /// `true` iff `key` is present.
    #[inline]
    pub fn contains(&self, key: &T) -> bool {
        self.search(key).is_some()
    }

    /// The **rank** of `key`: how many stored keys are strictly smaller.
    ///
    /// Computed by the same cache-friendly descent as [`Searcher::search`]
    /// (partition-point probes on the un-permuted baseline), so ranks
    /// cost the same I/Os as lookups.
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = (0..100).map(|x| 2 * x).collect();
    /// permute_in_place(&mut v, Layout::Veb, Algorithm::CycleLeader).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Veb);
    /// assert_eq!(s.rank(&0), 0);
    /// assert_eq!(s.rank(&1), 1);   // one key (0) below
    /// assert_eq!(s.rank(&10), 5);
    /// assert_eq!(s.rank(&999), 100);
    /// ```
    pub fn rank(&self, key: &T) -> usize {
        self.land::<false>(key).rank
    }

    /// Layout position of the element with sorted rank `r`, via the
    /// closed-form position maps (`None` past the end). No descent
    /// reads this — each lands on its slot directly ([`Searcher::land`])
    /// — but a rank with no descent behind it does: the one below a
    /// landing ([`Searcher::predecessor`]), and a walk of the layout in
    /// **sorted order** without a sorted copy (the merge cursor and
    /// run slicing of `ist-dynamic`'s compaction). The test suites use
    /// it as the independent closed form every landing's slot is
    /// checked against.
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = (0..7).collect();
    /// permute_in_place(&mut v, Layout::Bst, Algorithm::CycleLeader).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Bst);
    /// let resorted: Vec<u64> = (0..7)
    ///     .map(|r| v[s.position_of_rank(r).unwrap()])
    ///     .collect();
    /// assert_eq!(resorted, (0..7).collect::<Vec<u64>>());
    /// assert_eq!(s.position_of_rank(7), None);
    /// ```
    #[inline]
    pub fn position_of_rank(&self, r: usize) -> Option<usize> {
        let n = self.data.len();
        if r >= n {
            return None;
        }
        Some(match self.shape {
            ShapeData::Sorted => r,
            ShapeData::Bst { .. } => CompleteShape::new(n, 1).pos(r, bst_pos),
            ShapeData::Veb(_) => CompleteShape::new(n, 1).pos(r, veb_pos),
            ShapeData::Btree(shape)
            | ShapeData::BtreeWide8(shape)
            | ShapeData::BtreeWide16(shape)
            | ShapeData::BtreeWide8Avx2(shape)
            | ShapeData::BtreeWide16Avx2(shape)
            | ShapeData::BtreeWide8Avx512(shape)
            | ShapeData::BtreeWide16Avx512(shape) => {
                let b = shape.b;
                CompleteShape::new(n, b).pos(r, |m, f| btree_pos(b, m, f))
            }
        })
    }

    /// Layout index of the smallest stored key `≥ key` (the
    /// `lower_bound`), or `None` if every key is smaller. With
    /// duplicates, the leftmost copy in sorted order (see the
    /// [crate docs](crate#duplicate-keys)) — the element of sorted rank
    /// [`Searcher::rank`]`(key)`: the landing's slot (one descent, no
    /// position map).
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = (0..100).map(|x| 2 * x).collect();
    /// permute_in_place(&mut v, Layout::Btree { b: 4 }, Algorithm::Involution).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Btree { b: 4 });
    /// assert_eq!(s.lower_bound(&51).map(|p| v[p]), Some(52));
    /// assert_eq!(s.lower_bound(&198).map(|p| v[p]), Some(198));
    /// assert_eq!(s.lower_bound(&199), None);
    /// ```
    pub fn lower_bound(&self, key: &T) -> Option<usize> {
        self.land::<false>(key).slot
    }

    /// The scalar node-address sequence of one rank descent, which is
    /// every query's descent, searches included: the base array index
    /// of every node read, in order (diagnostics; the
    /// navigator-equivalence suite compares this against the pipelined
    /// engine and the GPU cost model lane by lane).
    pub fn trace_rank(&self, key: &T) -> Vec<usize> {
        let mut t = Vec::new();
        dispatch_nav!(self, nav => {
            let _ = nav::land_with::<T, _, false>(&nav, key, |p| t.push(p));
        });
        t
    }

    /// Per-query node-address sequences of the pipelined window every
    /// batched query runs (diagnostics; rank descents never exit early,
    /// so these are bit-identical to the scalar [`Searcher::trace_rank`]).
    // LINT-ALLOW(test-only-pub): navigator_equivalence pins the pipelined rank path
    pub fn trace_rank_pipelined(&self, keys: &[T]) -> Vec<Vec<usize>> {
        let mut t = vec![Vec::new(); keys.len()];
        dispatch_nav!(self, nav => {
            batch::window_into::<T, _, { batch::WINDOW }>(
                &nav,
                keys.len(),
                |i| &keys[i],
                |_, _, _| {},
                |q, p| t[q].push(p),
            )
        });
        t
    }
}

/// Where one rank descent landed — the single resolution every query
/// reads ([`Searcher::land`], [`Searcher::batch_land_into`]).
#[derive(Debug, Clone, Copy)]
pub struct Landing<'a, T> {
    /// Stored keys strictly smaller than the probe (`≤` it for the
    /// `UPPER` flavor).
    pub rank: usize,
    /// Layout slot of the element of sorted rank `rank` — the first
    /// stored key `≥` the probe (`>` it for `UPPER`), the leftmost copy
    /// of a duplicate — or `None` when there is none.
    pub slot: Option<usize>,
    key: &'a T,
    data: &'a [T],
}

impl<T: Ord> Landing<'_, T> {
    /// The slot if it holds the probe key: the search answer of an
    /// `UPPER = false` landing, by one verify probe.
    #[inline(always)]
    pub fn hit(&self) -> Option<usize> {
        self.slot.filter(|&p| self.data[p] == *self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_core::{permute_in_place, Algorithm};

    fn sorted_data(n: usize) -> Vec<u64> {
        (0..n as u64).map(|x| 2 * x + 10).collect()
    }

    fn check_layout(n: usize, layout: Layout, kind: QueryKind) {
        let mut data = sorted_data(n);
        if !matches!(kind, QueryKind::Sorted) {
            permute_in_place(&mut data, layout, Algorithm::CycleLeader).unwrap();
        }
        let s = Searcher::new(&data, kind);
        for x in 0..n as u64 {
            let key = 2 * x + 10;
            let hit = s.search(&key);
            assert_eq!(hit.map(|p| data[p]), Some(key), "n={n} kind={kind:?} x={x}");
            assert!(!s.contains(&(key + 1)), "n={n} kind={kind:?} miss x={x}");
        }
        assert!(!s.contains(&0));
        // The batch engine must agree bit-for-bit with the scalar
        // loop at every batch length around the window (32) and the
        // parallel grain (128): partial windows, exact windows, one
        // chunk, several chunks.
        let keys: Vec<u64> = (0..2 * n as u64 + 21).cycle().take(1000).collect();
        for len in BATCH_LENS {
            let keys = &keys[..len];
            let scalar: Vec<_> = keys.iter().map(|k| s.search(k)).collect();
            assert_eq!(s.batch_search(keys), scalar, "n={n} {kind:?} len={len}");
        }
    }

    /// Batch lengths straddling the pipeline window and the parallel
    /// chunk floor.
    const BATCH_LENS: [usize; 9] = [0, 1, 31, 32, 33, 127, 128, 129, 1000];

    #[test]
    fn bst_all_sizes() {
        for n in [1usize, 2, 3, 7, 8, 20, 63, 100, 127, 128, 1000] {
            check_layout(n, Layout::Bst, QueryKind::Bst);
            check_layout(n, Layout::Bst, QueryKind::BstPrefetch);
        }
    }

    #[test]
    fn veb_all_sizes() {
        for n in [1usize, 2, 3, 7, 10, 31, 100, 511, 700, 4095, 5000] {
            check_layout(n, Layout::Veb, QueryKind::Veb);
        }
    }

    #[test]
    fn btree_all_sizes() {
        for b in [1usize, 2, 3, 8] {
            for n in [1usize, 2, 5, 8, 26, 27, 30, 80, 100, 1000] {
                check_layout(n, Layout::Btree { b }, QueryKind::Btree(b));
            }
        }
    }

    #[test]
    fn sorted_baseline() {
        check_layout(1000, Layout::Bst, QueryKind::Sorted);
    }

    #[test]
    fn batch_counts() {
        let n = 10_000usize;
        let mut data = sorted_data(n);
        permute_in_place(&mut data, Layout::Btree { b: 8 }, Algorithm::Involution).unwrap();
        let s = Searcher::new(&data, QueryKind::Btree(8));
        let keys: Vec<u64> = (0..n as u64).map(|x| x + 10).collect(); // half hit
        let expect = keys.iter().filter(|k| (**k - 10) % 2 == 0).count();
        assert_eq!(keys.iter().filter(|k| s.contains(k)).count(), expect);
        assert_eq!(s.batch_count(&keys), expect);
    }

    /// Small batches (below any parallel grain) must produce counts
    /// identical to the scalar loop — the regression the old hardcoded
    /// `with_min_len(1 << 10)` dodged by never parallelizing them.
    #[test]
    fn batch_count_small_batches_match_scalar_loop() {
        let n = 3000usize;
        let mut data = sorted_data(n);
        permute_in_place(&mut data, Layout::Veb, Algorithm::CycleLeader).unwrap();
        let s = Searcher::new(&data, QueryKind::Veb);
        for batch in [0usize, 1, 2, 7, 15, 16, 17, 100, 511, 1023] {
            let keys: Vec<u64> = (0..batch as u64).map(|x| 3 * x + 9).collect();
            assert_eq!(
                s.batch_count(&keys),
                keys.iter().filter(|k| s.contains(k)).count(),
                "batch={batch}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let data: Vec<u64> = vec![];
        let s = Searcher::new(&data, QueryKind::Veb);
        assert!(!s.contains(&5));
        for kind in [QueryKind::Bst, QueryKind::Btree(4), QueryKind::Sorted] {
            assert_eq!(Searcher::new(&data, kind).search(&5), None, "{kind:?}");
        }
        assert_eq!(s.batch_search(&[1, 2, 3]), vec![None, None, None]);
        assert_eq!(s.batch_rank(&[1, 2, 3]), vec![0, 0, 0]);
        assert_eq!(s.range_count(&1, &9), 0);
        assert_eq!(s.batch_search(&[] as &[u64]), vec![]);
        assert_eq!(s.land::<true>(&5).rank, 0);
        assert_eq!(s.successor(&5), None);
        assert_eq!(s.predecessor(&5), None);
        assert!(s.trace_rank(&5).is_empty());
    }

    #[test]
    fn rank_and_lower_bound_agree_with_sorted_reference() {
        for n in [1usize, 2, 7, 26, 100, 511, 1000] {
            let sorted: Vec<u64> = (0..n as u64).map(|x| 3 * x + 2).collect();
            let kinds: Vec<(QueryKind, Option<Layout>)> = vec![
                (QueryKind::Sorted, None),
                (QueryKind::Bst, Some(Layout::Bst)),
                (QueryKind::Btree(1), Some(Layout::Btree { b: 1 })),
                (QueryKind::Btree(4), Some(Layout::Btree { b: 4 })),
                (QueryKind::Veb, Some(Layout::Veb)),
            ];
            for (kind, layout) in kinds {
                let mut data = sorted.clone();
                if let Some(l) = layout {
                    permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
                }
                let s = Searcher::new(&data, kind);
                for probe in 0..(3 * n as u64 + 5) {
                    let expect_rank = sorted.partition_point(|x| *x < probe);
                    assert_eq!(s.rank(&probe), expect_rank, "n={n} {kind:?} probe={probe}");
                    let expect_upper = sorted.partition_point(|x| *x <= probe);
                    assert_eq!(
                        s.land::<true>(&probe).rank,
                        expect_upper,
                        "n={n} {kind:?} probe={probe}"
                    );
                    let expect_succ = sorted.get(expect_rank).copied();
                    assert_eq!(
                        s.lower_bound(&probe).map(|p| data[p]),
                        expect_succ,
                        "n={n} {kind:?} probe={probe}"
                    );
                }
                let probes: Vec<u64> = (0..(3 * n as u64 + 5)).cycle().take(1000).collect();
                for len in BATCH_LENS {
                    let probes = &probes[..len];
                    assert_eq!(
                        s.batch_rank(probes),
                        probes.iter().map(|p| s.rank(p)).collect::<Vec<_>>(),
                        "n={n} {kind:?} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn found_index_is_layout_index() {
        // The returned index must point at the key within the permuted
        // array, not the sorted rank.
        let n = 255usize;
        let mut data = sorted_data(n);
        permute_in_place(&mut data, Layout::Veb, Algorithm::Involution).unwrap();
        let s = Searcher::new(&data, QueryKind::Veb);
        for x in (0..n as u64).step_by(17) {
            let key = 2 * x + 10;
            let p = s.search(&key).unwrap();
            assert_eq!(data[p], key);
        }
    }

    #[test]
    fn range_count_matches_oracle() {
        let n = 777usize;
        let sorted: Vec<u64> = (0..n as u64).map(|x| 2 * x).collect();
        let mut data = sorted.clone();
        permute_in_place(&mut data, Layout::Bst, Algorithm::CycleLeader).unwrap();
        let s = Searcher::new(&data, QueryKind::Bst);
        let mut ranges = Vec::new();
        for lo in (0..2 * n as u64).step_by(97) {
            for width in [0u64, 1, 2, 13, 400] {
                ranges.push((lo, lo + width));
                ranges.push((lo + width, lo)); // inverted
            }
        }
        for &(lo, hi) in &ranges {
            let expect = sorted
                .partition_point(|x| *x < hi)
                .saturating_sub(sorted.partition_point(|x| *x < lo));
            assert_eq!(s.range_count(&lo, &hi), expect, "[{lo}, {hi})");
        }
        assert_eq!(
            s.batch_range_count(&ranges),
            ranges
                .iter()
                .map(|(lo, hi)| s.range_count(lo, hi))
                .collect::<Vec<_>>()
        );
    }

    /// Scalar and pipelined rank traces are equal and never empty.
    #[test]
    fn traces_are_consistent() {
        let n = 500usize;
        for (kind, layout) in [
            (QueryKind::Sorted, None),
            (QueryKind::Bst, Some(Layout::Bst)),
            (QueryKind::Btree(3), Some(Layout::Btree { b: 3 })),
            (QueryKind::Veb, Some(Layout::Veb)),
        ] {
            let mut data = sorted_data(n);
            if let Some(l) = layout {
                permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
            }
            let s = Searcher::new(&data, kind);
            let keys: Vec<u64> = (0..200u64).map(|x| 13 * x + 7).collect();
            let piped = s.trace_rank_pipelined(&keys);
            for (i, key) in keys.iter().enumerate() {
                let scalar = s.trace_rank(key);
                assert!(!scalar.is_empty(), "{kind:?}");
                assert_eq!(scalar, piped[i], "{kind:?} key={key}");
            }
        }
    }
}
