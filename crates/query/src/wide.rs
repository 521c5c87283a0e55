//! Const-width B-tree descent kernels: [`WideBtreeNav`] and the sealed
//! [`SimdKey`] trait.
//!
//! The runtime [`BtreeNav`](crate::nav::BtreeNav) compare-counts each
//! node with a loop whose trip count (`shape.b`) is only known at run
//! time, so the compiler can neither unroll it nor vectorize it — every
//! level pays a loop-carried dependency on top of its cache miss. This
//! module monomorphizes the same descent for compile-time node widths
//! (`B ∈ {8, 16}` are wired into the [`Searcher`](crate::Searcher)
//! dispatch): the per-node rank is a fully unrolled, branchless sum of
//! `B` comparisons, and for [`SimdKey`] key types on `x86_64` it is a
//! compare → movemask → popcount sequence over 128/256-bit vectors
//! (SSE2 for `u32`; SSE4.2/AVX2 for `u64`/`i64` — compiled when the
//! corresponding `target_feature` is enabled, e.g. under
//! `RUSTFLAGS="-C target-cpu=native"`; the portable unrolled loop is
//! the fallback everywhere else, including non-x86 architectures).
//!
//! [`WideBtreeNav`] implements the full [`Navigator`] surface — search
//! and rank steps, `UPPER` tie-breaking, gap resolution, overflow
//! probes, prefetch hooks — with arithmetic **bit-identical** to the
//! runtime navigator at the same `b` (`tests/navigator_equivalence.rs`
//! and `tests/query_differential.rs` pin node traces and results
//! against each other), so every engine (scalar, software-
//! pipelined window, parallel chunks, range counts, trace replay)
//! inherits the wide kernel with no new driver code.
//!
//! # Quickstart
//!
//! Nothing needs to opt in: [`Searcher::new`](crate::Searcher::new)
//! with [`QueryKind::Btree(8)`](crate::QueryKind::Btree) (or 16) on a
//! [`SimdKey`] key type routes every entry point through the wide
//! kernel automatically. To drive the navigator directly:
//!
//! ```
//! use ist_core::{permute_in_place, Algorithm, Layout};
//! use ist_query::nav::{search_with, WideBtreeNav};
//!
//! let mut v: Vec<u64> = (0..1000).map(|x| 3 * x).collect();
//! permute_in_place(&mut v, Layout::Btree { b: 8 }, Algorithm::CycleLeader).unwrap();
//! let nav = WideBtreeNav::<u64, 8>::new(&v);
//! assert_eq!(search_with(&nav, &300, |_| {}).map(|p| v[p]), Some(300));
//! assert_eq!(search_with(&nav, &301, |_| {}), None);
//! ```

use crate::nav::{prefetch, BtreeSearchShape, Navigator, MISS};
use core::any::TypeId;

mod sealed {
    /// Seals [`super::SimdKey`]: the vector kernels transmute key slices
    /// to concrete machine types, so the set of implementors is a
    /// closed, audited list.
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for i64 {}
    impl Sealed for u32 {}
}

/// Key types with an explicit SIMD compare-and-count kernel.
///
/// **Contract**: an implementor must be a plain fixed-width integer
/// whose `Ord` is exactly the machine comparison the vector unit
/// performs (unsigned compares are lowered to signed ones by a
/// sign-bit flip). The trait is sealed — `u64`, `i64`, and `u32` are
/// the implementors — because the kernels reinterpret `&[T]` as the
/// concrete machine type after a `TypeId` equality check; a foreign
/// impl with a different layout or a divergent `Ord` would make that
/// unsound. Every other `Ord` type silently takes the portable
/// unrolled path and gets identical results.
pub trait SimdKey: sealed::Sealed + Copy + Ord + 'static {}

impl SimdKey for u64 {}
impl SimdKey for i64 {}
impl SimdKey for u32 {}

/// `true` iff `T` is one of the [`SimdKey`] implementors — the check
/// the [`Searcher`](crate::Searcher) width dispatch uses. The `TypeId`
/// comparisons const-fold per monomorphization, so this is free at run
/// time.
#[inline(always)]
pub(crate) fn is_simd_key<T: 'static>() -> bool {
    let t = TypeId::of::<T>();
    t == TypeId::of::<u64>() || t == TypeId::of::<i64>() || t == TypeId::of::<u32>()
}

// ---------------------------------------------------------------------
// Per-node compare-and-count kernels.
//
// Two boundaries, matching the two descent flavors:
//   count_lt(node, key) = #{ k ∈ node : k <  key }   (search, rank)
//   count_le(node, key) = #{ k ∈ node : k <= key }   (rank with UPPER)
// Node keys are sorted ascending, so either count is the partition
// point the runtime navigator's scalar loop computes.
// ---------------------------------------------------------------------

#[inline(always)]
fn count_lt_portable<T: Ord, const B: usize>(node: &[T], key: &T) -> usize {
    debug_assert_eq!(node.len(), B);
    let mut c = 0usize;
    // Trip count is the const `B`: LLVM fully unrolls this into B
    // branchless compare/add chains.
    for k in &node[..B] {
        c += usize::from(*k < *key);
    }
    c
}

#[inline(always)]
fn count_le_portable<T: Ord, const B: usize>(node: &[T], key: &T) -> usize {
    debug_assert_eq!(node.len(), B);
    let mut c = 0usize;
    for k in &node[..B] {
        c += usize::from(*k <= *key);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! compare → movemask → popcount kernels. All loads are unaligned
    //! (`loadu`): `ist-dynamic`'s run storage is 64-byte aligned, but
    //! the navigator also serves arbitrary caller slices.
    #![allow(unsafe_op_in_unsafe_fn)]
    use core::arch::x86_64::*;

    /// #{ node[j] < key } over `B` `u64` keys (`B % 4 == 0`), unsigned
    /// order via a sign-bit flip.
    ///
    /// # Safety
    /// `node` must be valid for `B` reads.
    #[inline(always)]
    pub(super) unsafe fn count_lt_u64<const B: usize>(node: *const u64, key: u64) -> usize {
        const { assert!(B.is_multiple_of(4) && B > 0) }
        count_cmp64::<B>(node, key, false, SIGN64)
    }

    /// #{ node[j] <= key } = `B` − #{ node[j] > key }.
    ///
    /// # Safety
    /// `node` must be valid for `B` reads.
    #[inline(always)]
    pub(super) unsafe fn count_le_u64<const B: usize>(node: *const u64, key: u64) -> usize {
        const { assert!(B.is_multiple_of(4) && B > 0) }
        B - count_cmp64::<B>(node, key, true, SIGN64)
    }

    /// Signed-`i64` variants: same kernel with a zero bias — `pcmpgtq`
    /// is already a signed compare, so no sign-bit flip is needed.
    ///
    /// # Safety
    /// `node` must be valid for `B` reads.
    #[inline(always)]
    pub(super) unsafe fn count_lt_i64<const B: usize>(node: *const i64, key: i64) -> usize {
        const { assert!(B.is_multiple_of(4) && B > 0) }
        count_cmp64::<B>(node.cast::<u64>(), key as u64, false, 0)
    }

    /// # Safety
    /// `node` must be valid for `B` reads.
    #[inline(always)]
    pub(super) unsafe fn count_le_i64<const B: usize>(node: *const i64, key: i64) -> usize {
        const { assert!(B.is_multiple_of(4) && B > 0) }
        B - count_cmp64::<B>(node.cast::<u64>(), key as u64, true, 0)
    }

    const SIGN64: u64 = 1 << 63;
    const SIGN32: i32 = i32::MIN;

    /// Shared 64-bit kernel: counts `node[j] > key` (when `gt_node` is
    /// true) or `key > node[j]` (false) under the signed compare of
    /// `x ^ bias` — `bias = 1 << 63` turns that into unsigned order
    /// (for `u64`), `bias = 0` leaves it signed (for `i64`). Uses the
    /// widest compare the compile-time feature set provides; `gt_node`
    /// and `bias` are compile-time constants at every call site, so
    /// both fold away.
    ///
    /// # Safety
    /// `node` must be valid for `B` reads.
    #[inline(always)]
    unsafe fn count_cmp64<const B: usize>(
        node: *const u64,
        key: u64,
        gt_node: bool,
        bias: u64,
    ) -> usize {
        #[cfg(target_feature = "avx2")]
        {
            // 4 × u64 per 256-bit compare (pcmpgtq is signed; the bias
            // re-maps unsigned inputs onto signed order).
            let bias = _mm256_set1_epi64x(bias as i64);
            let kv = _mm256_xor_si256(_mm256_set1_epi64x(key as i64), bias);
            let mut c = 0usize;
            let mut j = 0;
            while j < B {
                let v = _mm256_loadu_si256(node.add(j).cast());
                let v = _mm256_xor_si256(v, bias);
                let m = if gt_node {
                    _mm256_cmpgt_epi64(v, kv)
                } else {
                    _mm256_cmpgt_epi64(kv, v)
                };
                c += (_mm256_movemask_pd(_mm256_castsi256_pd(m)) as u32).count_ones() as usize;
                j += 4;
            }
            c
        }
        #[cfg(all(target_feature = "sse4.2", not(target_feature = "avx2")))]
        {
            // 2 × u64 per 128-bit compare (pcmpgtq needs SSE4.2).
            let bias = _mm_set1_epi64x(bias as i64);
            let kv = _mm_xor_si128(_mm_set1_epi64x(key as i64), bias);
            let mut c = 0usize;
            let mut j = 0;
            while j < B {
                let v = _mm_loadu_si128(node.add(j).cast());
                let v = _mm_xor_si128(v, bias);
                let m = if gt_node {
                    _mm_cmpgt_epi64(v, kv)
                } else {
                    _mm_cmpgt_epi64(kv, v)
                };
                c += (_mm_movemask_pd(_mm_castsi128_pd(m)) as u32).count_ones() as usize;
                j += 2;
            }
            c
        }
        #[cfg(not(target_feature = "sse4.2"))]
        {
            // Baseline x86-64 has no 64-bit vector compare; unrolled
            // scalar chains, same semantics as the vector arms: signed
            // compare of `x ^ bias` on both sides.
            let s = core::slice::from_raw_parts(node, B);
            let k = (key ^ bias) as i64;
            let mut c = 0usize;
            for x in s {
                let v = (*x ^ bias) as i64;
                c += usize::from(if gt_node { v > k } else { v < k });
            }
            c
        }
    }

    /// #{ node[j] < key } over `B` `u32` keys (`B % 4 == 0`): SSE2
    /// (baseline x86-64) with the sign-bit flip for unsigned order.
    ///
    /// # Safety
    /// `node` must be valid for `B` reads.
    #[inline(always)]
    pub(super) unsafe fn count_lt_u32<const B: usize>(node: *const u32, key: u32) -> usize {
        const { assert!(B.is_multiple_of(4) && B > 0) }
        count_gt_key_u32::<B>(node, key, false)
    }

    /// # Safety
    /// `node` must be valid for `B` reads.
    #[inline(always)]
    pub(super) unsafe fn count_le_u32<const B: usize>(node: *const u32, key: u32) -> usize {
        const { assert!(B.is_multiple_of(4) && B > 0) }
        B - count_gt_key_u32::<B>(node, key, true)
    }

    /// # Safety
    /// `node` must be valid for `B` reads.
    #[inline(always)]
    unsafe fn count_gt_key_u32<const B: usize>(node: *const u32, key: u32, gt_node: bool) -> usize {
        let bias = _mm_set1_epi32(SIGN32);
        let kv = _mm_xor_si128(_mm_set1_epi32(key as i32), bias);
        let mut c = 0usize;
        let mut j = 0;
        while j < B {
            let v = _mm_loadu_si128(node.add(j).cast());
            let v = _mm_xor_si128(v, bias);
            let m = if gt_node {
                _mm_cmpgt_epi32(v, kv)
            } else {
                _mm_cmpgt_epi32(kv, v)
            };
            c += (_mm_movemask_ps(_mm_castsi128_ps(m)) as u32).count_ones() as usize;
            j += 4;
        }
        c
    }
}

/// #{ k ∈ node : k < key } for a `B`-key node. `SimdKey` types on
/// `x86_64` take the vector kernel; everything else takes the portable
/// unrolled loop. The `TypeId` checks const-fold, so each
/// monomorphization contains exactly one path.
#[inline(always)]
fn count_lt<T: Ord + 'static, const B: usize>(node: &[T], key: &T) -> usize {
    debug_assert_eq!(node.len(), B);
    #[cfg(target_arch = "x86_64")]
    {
        let t = TypeId::of::<T>();
        if t == TypeId::of::<u64>() {
            // SAFETY: TypeId equality proves `T` is `u64`, so the
            // pointer reinterpretations are identity casts; `node`
            // holds B elements (debug-asserted, and by the caller's
            // shape arithmetic).
            return unsafe {
                x86::count_lt_u64::<B>(node.as_ptr().cast(), *(key as *const T).cast::<u64>())
            };
        }
        if t == TypeId::of::<i64>() {
            // SAFETY: as above, with `T` proven to be `i64`.
            return unsafe {
                x86::count_lt_i64::<B>(node.as_ptr().cast(), *(key as *const T).cast::<i64>())
            };
        }
        if t == TypeId::of::<u32>() {
            // SAFETY: as above, with `T` proven to be `u32`.
            return unsafe {
                x86::count_lt_u32::<B>(node.as_ptr().cast(), *(key as *const T).cast::<u32>())
            };
        }
    }
    count_lt_portable::<T, B>(node, key)
}

/// #{ k ∈ node : k <= key } — the `UPPER` twin of [`count_lt`].
#[inline(always)]
fn count_le<T: Ord + 'static, const B: usize>(node: &[T], key: &T) -> usize {
    debug_assert_eq!(node.len(), B);
    #[cfg(target_arch = "x86_64")]
    {
        let t = TypeId::of::<T>();
        if t == TypeId::of::<u64>() {
            // SAFETY: as in `count_lt` — TypeId proves `T` is `u64`.
            return unsafe {
                x86::count_le_u64::<B>(node.as_ptr().cast(), *(key as *const T).cast::<u64>())
            };
        }
        if t == TypeId::of::<i64>() {
            // SAFETY: as in `count_lt` — TypeId proves `T` is `i64`.
            return unsafe {
                x86::count_le_i64::<B>(node.as_ptr().cast(), *(key as *const T).cast::<i64>())
            };
        }
        if t == TypeId::of::<u32>() {
            // SAFETY: as in `count_lt` — TypeId proves `T` is `u32`.
            return unsafe {
                x86::count_le_u32::<B>(node.as_ptr().cast(), *(key as *const T).cast::<u32>())
            };
        }
    }
    count_le_portable::<T, B>(node, key)
}

// ---------------------------------------------------------------------
// The navigator.
// ---------------------------------------------------------------------

/// Const-width B-tree navigator: [`crate::nav::BtreeNav`] monomorphized
/// for `B` keys per node, with the per-node compare-and-count unrolled
/// (and vectorized for [`SimdKey`] key types on `x86_64`).
///
/// Bit-identical to the runtime navigator at the same `b`: same node
/// sequence, same gap arithmetic, same duplicate/tie semantics (see the
/// module docs). `Searcher` routes `QueryKind::Btree(8)` and
/// `Btree(16)` here automatically for eligible key types;
/// [`Searcher::new_runtime`](crate::Searcher::new_runtime) is the
/// escape hatch that forces the general runtime path.
pub struct WideBtreeNav<'a, T, const B: usize> {
    data: &'a [T],
    shape: BtreeSearchShape,
}

impl<'a, T, const B: usize> Clone for WideBtreeNav<'a, T, B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T, const B: usize> Copy for WideBtreeNav<'a, T, B> {}

impl<'a, T: Ord + 'static, const B: usize> WideBtreeNav<'a, T, B> {
    /// Navigator for `data` in B-tree layout with `B ≥ 1` keys per node
    /// (the compile-time twin of [`crate::nav::BtreeNav::new`]).
    pub fn new(data: &'a [T]) -> Self {
        const { assert!(B >= 1, "B-tree node width must be at least 1") }
        Self {
            data,
            shape: BtreeSearchShape::new(data.len(), B),
        }
    }

    #[inline]
    pub(crate) fn from_shape(data: &'a [T], shape: BtreeSearchShape) -> Self {
        const { assert!(B >= 1, "B-tree node width must be at least 1") }
        debug_assert_eq!(shape.b, B);
        debug_assert_eq!(shape, BtreeSearchShape::new(data.len(), B));
        Self { data, shape }
    }

    /// The node's `B` keys at node index `v`.
    #[inline(always)]
    fn node_keys(&self, v: usize) -> &[T] {
        debug_assert!(v < self.shape.num_nodes);
        let base = v * B;
        // SAFETY: on each of the `levels` node levels v < num_nodes, so
        // the node's B keys end at v*B + B ≤ i ≤ data.len(), and the
        // shape was derived from this very slice's length.
        unsafe { self.data.get_unchecked(base..base + B) }
    }

    /// Start index and length of the overflow node hanging in gap `g`
    /// (same arithmetic as the runtime navigator).
    #[inline]
    fn overflow_node(&self, g: usize) -> (usize, usize) {
        let BtreeSearchShape { i, q, s, .. } = self.shape;
        if g < q {
            (i + g * B, B)
        } else if g == q {
            (i + q * B, s)
        } else {
            (0, 0)
        }
    }
}

impl<'a, T: Ord + 'static, const B: usize> Navigator<T> for WideBtreeNav<'a, T, B> {
    type Cursor = usize;
    type Acc = usize;
    /// The per-level child subtree span `(B+1)^{levels−1−level} − 1`.
    type Round = usize;

    #[inline(always)]
    fn data(&self) -> &[T] {
        self.data
    }
    #[inline(always)]
    fn rounds(&self) -> u32 {
        self.shape.levels
    }
    #[inline(always)]
    fn start(&self) -> (usize, usize) {
        (0, 0)
    }
    #[inline(always)]
    fn first_round(&self) -> usize {
        self.shape.i.saturating_sub(B) / (B + 1)
    }
    #[inline(always)]
    fn next_round(&self, child: usize) -> usize {
        child.saturating_sub(B) / (B + 1)
    }
    #[inline(always)]
    fn node_base(&self, cur: &usize, _acc: &usize) -> usize {
        *cur * B
    }
    #[inline(always)]
    fn node_width(&self) -> usize {
        B
    }

    #[inline(always)]
    fn step_search(
        &self,
        cur: &mut usize,
        acc: &mut usize,
        res: &mut usize,
        key: &T,
        child: usize,
    ) {
        let v = *cur;
        let base = v * B;
        let keys = self.node_keys(v);
        let c = count_lt::<T, B>(keys, key);
        let hit = *res == MISS && c < B && keys[c] == *key;
        *res = if hit { base + c } else { *res };
        *cur = v * (B + 1) + c + 1;
        *acc += c * (child + 1);
    }

    #[inline(always)]
    fn step_search_last(&self, cur: &mut usize, acc: &mut usize, res: &mut usize, key: &T) {
        // The last node level's child subtrees are empty: child = 0.
        self.step_search(cur, acc, res, key, 0);
    }

    #[inline(always)]
    fn step_rank<const UPPER: bool>(
        &self,
        cur: &mut usize,
        acc: &mut usize,
        key: &T,
        child: usize,
    ) {
        let v = *cur;
        let keys = self.node_keys(v);
        let c = if UPPER {
            count_le::<T, B>(keys, key)
        } else {
            count_lt::<T, B>(keys, key)
        };
        *cur = v * (B + 1) + c + 1;
        *acc += c * (child + 1);
    }

    #[inline(always)]
    fn step_rank_last<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T) {
        self.step_rank::<UPPER>(cur, acc, key, 0);
    }

    #[inline(always)]
    fn gap(&self, _cur: &usize, acc: &usize) -> usize {
        *acc
    }

    /// Scan the overflow node hanging in gap `gap` for `key`.
    #[inline]
    fn resolve_miss(&self, gap: usize, key: &T) -> Option<usize> {
        let (start, len) = self.overflow_node(gap);
        self.data[start..start + len]
            .iter()
            .position(|x| *x == *key)
            .map(|off| start + off)
    }

    /// B-tree rank from the fall-off gap (see
    /// [`crate::nav::BtreeNav::rank_of_gap`] — identical arithmetic).
    #[inline]
    fn rank_of_gap<const UPPER: bool>(&self, gap: usize, key: &T) -> usize {
        let BtreeSearchShape { q, s, .. } = self.shape;
        let mut rank = gap + gap.min(q) * B + if gap > q { s } else { 0 };
        let (start, len) = self.overflow_node(gap);
        rank += self.data[start..start + len]
            .iter()
            .take_while(|x| if UPPER { **x <= *key } else { **x < *key })
            .count();
        rank
    }

    #[inline(always)]
    fn prefetch_node(&self, cur: &usize, _acc: &usize) {
        let base = *cur * B;
        prefetch(self.data, base);
        // A node wider than one cache line (e.g. 16 × u64 = 128 bytes)
        // needs its tail line warmed too; the const condition folds
        // away when the node fits in one line.
        if B * core::mem::size_of::<T>() > 64 {
            prefetch(self.data, base + B - 1);
        }
    }
    #[inline(always)]
    fn prefetch_gap(&self, gap: usize) {
        if gap <= self.shape.q {
            prefetch(self.data, self.shape.i + gap * B);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The vector kernels must agree with the portable loop on every
    /// boundary: below all, above all, equal to each stored key, between
    /// neighbors, and around the sign-bit flip.
    #[test]
    fn simd_counts_match_portable() {
        fn check_u64<const B: usize>(node: &[u64]) {
            let mut probes: Vec<u64> = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
            for &k in node {
                probes.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
            }
            for p in probes {
                assert_eq!(
                    count_lt::<u64, B>(node, &p),
                    count_lt_portable::<u64, B>(node, &p),
                    "lt B={B} p={p} node={node:?}"
                );
                assert_eq!(
                    count_le::<u64, B>(node, &p),
                    count_le_portable::<u64, B>(node, &p),
                    "le B={B} p={p} node={node:?}"
                );
            }
        }
        check_u64::<8>(&[3, 3, 7, 9, 100, 1 << 40, 1 << 63, u64::MAX]);
        check_u64::<8>(&[0; 8]);
        check_u64::<16>(&(0..16).map(|x| x * 5).collect::<Vec<_>>());

        let node_i: Vec<i64> = vec![i64::MIN, -55, -1, 0, 1, 2, 1 << 40, i64::MAX];
        for p in [i64::MIN, -56, -55, -2, -1, 0, 1, 3, i64::MAX - 1, i64::MAX] {
            assert_eq!(
                count_lt::<i64, 8>(&node_i, &p),
                count_lt_portable::<i64, 8>(&node_i, &p),
                "i64 lt p={p}"
            );
            assert_eq!(
                count_le::<i64, 8>(&node_i, &p),
                count_le_portable::<i64, 8>(&node_i, &p),
                "i64 le p={p}"
            );
        }

        let node_u: Vec<u32> = vec![0, 1, 9, 9, 1 << 20, 1 << 31, u32::MAX - 1, u32::MAX];
        for p in [0u32, 1, 2, 8, 9, 10, (1 << 31) - 1, 1 << 31, u32::MAX] {
            assert_eq!(
                count_lt::<u32, 8>(&node_u, &p),
                count_lt_portable::<u32, 8>(&node_u, &p),
                "u32 lt p={p}"
            );
            assert_eq!(
                count_le::<u32, 8>(&node_u, &p),
                count_le_portable::<u32, 8>(&node_u, &p),
                "u32 le p={p}"
            );
        }
    }

    /// Non-SimdKey `Ord` types descend through the portable path with
    /// the same semantics (the fallback leg of the dispatch).
    #[test]
    fn portable_fallback_type() {
        #[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
        struct K(u64);
        assert!(!is_simd_key::<K>());
        assert!(is_simd_key::<u64>());
        let node: Vec<K> = (0..8u64).map(|x| K(2 * x)).collect();
        assert_eq!(count_lt::<K, 8>(&node, &K(7)), 4);
        assert_eq!(count_le::<K, 8>(&node, &K(8)), 5);
    }
}
