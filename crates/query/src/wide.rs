//! Const-width B-tree descent kernels: [`WideBtreeNav`] and the sealed
//! [`SimdKey`] trait.
//!
//! The runtime [`BtreeNav`](crate::nav::BtreeNav) compare-counts each
//! node with a loop whose trip count (`shape.b`) is only known at run
//! time, so the compiler can neither unroll it nor vectorize it — every
//! level pays a loop-carried dependency on top of its cache miss. This
//! module monomorphizes the same descent for a compile-time node width
//! `B` (the [`Searcher`](crate::Searcher) dispatch builds it at
//! [`WIDE_B`] = 8 only): the per-node rank is a fully unrolled,
//! branchless sum of `B` comparisons, and for the [`SimdKey`] key types
//! (`u64`, `i64`) on `x86_64` it is a compare → mask → popcount
//! sequence over vectors. The arm is picked at run time, once per
//! [`Searcher`](crate::Searcher), in the default build — no
//! `-C target-cpu=native` needed: the AVX-512 kernel when
//! `is_x86_feature_detected!("avx512f")` holds (one unsigned or signed
//! compare into a mask register per 8-key node, no sign-bias xor), else
//! the AVX2 kernel when `avx2` does. Everywhere else, including non-x86
//! architectures, the portable unrolled loop runs, with identical
//! results.
//!
//! [`WideBtreeNav`] implements the full [`Navigator`] surface — rank
//! steps, `UPPER` tie-breaking, the landing, prefetch hooks — with
//! arithmetic **bit-identical** to the runtime navigator at the same
//! `b` (`tests/navigator_equivalence.rs`
//! and `tests/query_differential.rs` pin node traces and results
//! against each other), so every engine (scalar, software-
//! pipelined window, parallel chunks, range counts, trace replay)
//! inherits the wide kernel with no new driver code.
//!
//! # Quickstart
//!
//! Nothing needs to opt in: [`Searcher::new`](crate::Searcher::new)
//! with [`QueryKind::Btree(8)`](crate::QueryKind::Btree) on a
//! [`SimdKey`] key type routes every entry point through the wide
//! kernel automatically. To drive the navigator directly:
//!
//! ```
//! use ist_core::{permute_in_place, Algorithm, Layout};
//! use ist_query::nav::{land_with, WideBtreeNav};
//!
//! let mut v: Vec<u64> = (0..1000).map(|x| 3 * x).collect();
//! permute_in_place(&mut v, Layout::Btree { b: 8 }, Algorithm::CycleLeader).unwrap();
//! let nav = WideBtreeNav::<u64, 8>::new(&v);
//! // Ties left: 100 keys below 300, landing on 300 itself.
//! let (rank, slot) = land_with::<_, _, false>(&nav, &300, |_| {});
//! assert_eq!((rank, slot.map(|p| v[p])), (100, Some(300)));
//! // Ties right: 101 keys at or below 300, landing on its successor.
//! let (rank, slot) = land_with::<_, _, true>(&nav, &300, |_| {});
//! assert_eq!((rank, slot.map(|p| v[p])), (101, Some(303)));
//! ```

use crate::nav::{prefetch, BtreeSearchShape, Navigator};
use core::any::TypeId;

/// The one node width [`Searcher::new`](crate::Searcher::new) serves
/// with a [`WideBtreeNav`]: `QueryKind::Btree(WIDE_B)` on a [`SimdKey`]
/// key type. One 8-key node of 64-bit keys is one cache line, one
/// AVX-512 compare or two AVX2 compares. Every other width descends
/// through the runtime [`BtreeNav`](crate::nav::BtreeNav).
pub(crate) const WIDE_B: usize = 8;

/// Node-kernel ids for [`WideBtreeNav`]'s `KERNEL` parameter.
pub(crate) mod kernel {
    /// The unrolled loop.
    pub const PORTABLE: u8 = 0;
    /// 4 × 64-bit `vpcmpgtq` per 256-bit vector, `u64` / `i64` keys.
    pub const AVX2: u8 = 1;
    /// 8 × 64-bit `vpcmpuq` / `vpcmpq` into a mask register,
    /// `u64` / `i64` keys.
    pub const AVX512: u8 = 2;
}

mod sealed {
    /// Seals [`super::SimdKey`]: the vector kernels transmute key slices
    /// to concrete machine types, so the set of implementors is a
    /// closed, audited list.
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for i64 {}
}

/// Key types with an explicit SIMD compare-and-count kernel.
///
/// **Contract**: an implementor must be a plain fixed-width integer
/// whose `Ord` is exactly the machine comparison the vector unit
/// performs (the AVX2 kernel lowers unsigned compares to signed ones by
/// a sign-bit flip). The trait is sealed — `u64` and `i64` are the
/// implementors — because the kernels reinterpret `&[T]` as the
/// concrete machine type after a `TypeId` equality check; a foreign
/// impl with a different layout or a divergent `Ord` would make that
/// unsound. Every other `Ord` type silently takes the portable
/// unrolled path and gets identical results.
pub trait SimdKey: sealed::Sealed + Copy + Ord + 'static {}

impl SimdKey for u64 {}
impl SimdKey for i64 {}

/// `true` iff `T` is one of the [`SimdKey`] implementors — the check
/// the [`Searcher`](crate::Searcher) width dispatch uses. The `TypeId`
/// comparisons const-fold per monomorphization, so this is free at run
/// time.
#[inline(always)]
pub(crate) fn is_simd_key<T: 'static>() -> bool {
    let t = TypeId::of::<T>();
    t == TypeId::of::<u64>() || t == TypeId::of::<i64>()
}

// ---------------------------------------------------------------------
// Per-node compare-and-count kernels.
//
// Two boundaries, matching the two descent flavors:
//   #{ k ∈ node : k <  key }   (search, rank)
//   #{ k ∈ node : k <= key }   (rank with UPPER)
// Node keys are sorted ascending, so either count is the partition
// point the runtime navigator's scalar loop computes.
// ---------------------------------------------------------------------

/// #{ k ∈ node : k < key } (`k <= key` with `UPPER`) for a `B`-key
/// node: the portable unrolled loop, for every key type.
#[inline(always)]
fn count_portable<T: Ord, const B: usize, const UPPER: bool>(node: &[T], key: &T) -> usize {
    debug_assert_eq!(node.len(), B);
    let mut c = 0usize;
    // Trip count is the const `B`: LLVM fully unrolls this into B
    // branchless compare/add chains.
    for k in &node[..B] {
        c += usize::from(if UPPER { *k <= *key } else { *k < *key });
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! compare → mask → popcount kernels. All loads are unaligned
    //! (`loadu`): `ist-dynamic`'s run storage is 64-byte aligned, but
    //! the navigator also serves arbitrary caller slices.
    #![allow(unsafe_op_in_unsafe_fn)]
    use core::arch::x86_64::*;

    pub(super) const SIGN64: u64 = 1 << 63;

    /// The 64-bit kernel, 4 keys per 256-bit `vpcmpgtq`: counts
    /// `node[j] > key` (when `gt_node` is true) or `key > node[j]`
    /// (false) under the signed compare of `x ^ bias` — `bias = 1 << 63`
    /// turns that into unsigned order (for `u64`), `bias = 0` leaves it
    /// signed (for `i64`). `gt_node` and `bias` are constants at every
    /// call site, so both fold away once this inlines — which it does
    /// only into code compiled with AVX2 enabled (see
    /// [`super::with_avx2`]).
    ///
    /// # Safety
    /// The CPU must support AVX2, and `node` must be valid for `B` reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn count_cmp64_avx2<const B: usize>(
        node: *const u64,
        key: u64,
        gt_node: bool,
        bias: u64,
    ) -> usize {
        const { assert!(B.is_multiple_of(4) && B > 0) }
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

    /// The 64-bit AVX-512 kernel, 8 keys per compare: counts
    /// `node[j] < key` (`node[j] <= key` with `UPPER`) as one mask
    /// register and a popcount per 512-bit vector. The compare itself
    /// is unsigned for `u64` and signed for `i64` (`SIGNED`), so no
    /// sign-bias xor is needed. Inlines only into code compiled with
    /// AVX-512 enabled (see [`super::with_avx512`]).
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `node` must be valid for `B`
    /// reads.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn count_cmp64_avx512<
        const B: usize,
        const SIGNED: bool,
        const UPPER: bool,
    >(
        node: *const u64,
        key: u64,
    ) -> usize {
        const { assert!(B.is_multiple_of(8) && B > 0) }
        let kv = _mm512_set1_epi64(key as i64);
        let mut c = 0usize;
        let mut j = 0;
        while j < B {
            let v = _mm512_loadu_si512(node.add(j).cast());
            let m = match (SIGNED, UPPER) {
                (false, false) => _mm512_cmplt_epu64_mask(v, kv),
                (false, true) => _mm512_cmple_epu64_mask(v, kv),
                (true, false) => _mm512_cmplt_epi64_mask(v, kv),
                (true, true) => _mm512_cmple_epi64_mask(v, kv),
            };
            c += m.count_ones() as usize;
            j += 8;
        }
        c
    }
}

/// `true` iff this CPU runs the AVX2 node kernel for `T`: `T` is `u64`
/// or `i64` and `is_x86_feature_detected!("avx2")` holds. Always
/// `false` off `x86_64`. [`Searcher::new`](crate::Searcher::new) asks
/// once per searcher; the feature probe is a cached load.
pub(crate) fn avx2_kernel<T: 'static>() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let t = TypeId::of::<T>();
        (t == TypeId::of::<u64>() || t == TypeId::of::<i64>())
            && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` iff this CPU runs the AVX-512 node kernel for `T`: `T` is
/// `u64` or `i64` and `is_x86_feature_detected!("avx512f")` holds.
/// Always `false` off `x86_64`. Asked once per searcher, like
/// [`avx2_kernel`].
pub(crate) fn avx512_kernel<T: 'static>() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let t = TypeId::of::<T>();
        (t == TypeId::of::<u64>() || t == TypeId::of::<i64>())
            && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Run `f` inside a function compiled with AVX2 enabled. `f` inlines
/// here, and so does everything it calls with `#[inline(always)]` — the
/// scalar descents and the window loops — so the AVX2 node kernel,
/// which LLVM only inlines into AVX2 code, becomes straight-line code
/// in the descent instead of one call per node. `dispatch_nav!` wraps
/// the AVX2 shapes' bodies in this.
///
/// # Safety
/// The CPU must support AVX2 (off `x86_64` this is never called: no
/// AVX2 shape is built there).
#[inline]
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
pub(crate) unsafe fn with_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// [`with_avx2`] for the AVX-512 kernel: `f` runs inside a function
/// compiled with AVX-512F (which implies AVX2) enabled.
///
/// # Safety
/// The CPU must support AVX-512F (off `x86_64` this is never called:
/// no AVX-512 shape is built there).
#[inline]
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx512f"))]
pub(crate) unsafe fn with_avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// [`count_portable`]'s count on the AVX2 kernel when `T` is `u64` or
/// `i64`; any other `T` takes the portable loop.
///
/// # Safety
/// The CPU must support AVX2.
#[inline(always)]
unsafe fn count_avx2<T: Ord + 'static, const B: usize, const UPPER: bool>(
    node: &[T],
    key: &T,
) -> usize {
    debug_assert_eq!(node.len(), B);
    #[cfg(target_arch = "x86_64")]
    {
        let t = TypeId::of::<T>();
        if t == TypeId::of::<u64>() || t == TypeId::of::<i64>() {
            // `pcmpgtq` is a signed compare: `u64` needs the sign-bit
            // flip, `i64` none.
            let bias = if t == TypeId::of::<u64>() {
                x86::SIGN64
            } else {
                0
            };
            // SAFETY: TypeId proves `T` is a 64-bit integer, so reading
            // the node and the key as `u64` reinterprets their bits;
            // `node` holds B elements; AVX2 is this fn's contract.
            return unsafe {
                let node = node.as_ptr().cast::<u64>();
                let key = *(key as *const T).cast::<u64>();
                if UPPER {
                    B - x86::count_cmp64_avx2::<B>(node, key, true, bias)
                } else {
                    x86::count_cmp64_avx2::<B>(node, key, false, bias)
                }
            };
        }
    }
    count_portable::<T, B, UPPER>(node, key)
}

/// [`count_portable`]'s count on the AVX-512 kernel when `T` is `u64`
/// or `i64`; any other `T` takes the portable loop.
///
/// # Safety
/// The CPU must support AVX-512F.
#[inline(always)]
unsafe fn count_avx512<T: Ord + 'static, const B: usize, const UPPER: bool>(
    node: &[T],
    key: &T,
) -> usize {
    debug_assert_eq!(node.len(), B);
    #[cfg(target_arch = "x86_64")]
    {
        let t = TypeId::of::<T>();
        if t == TypeId::of::<u64>() || t == TypeId::of::<i64>() {
            // SAFETY: TypeId proves `T` is a 64-bit integer, so reading
            // the node and the key as `u64` reinterprets their bits, and
            // the compare's signedness follows `T`; `node` holds B
            // elements; AVX-512F is this fn's contract.
            return unsafe {
                let node = node.as_ptr().cast::<u64>();
                let key = *(key as *const T).cast::<u64>();
                if t == TypeId::of::<u64>() {
                    x86::count_cmp64_avx512::<B, false, UPPER>(node, key)
                } else {
                    x86::count_cmp64_avx512::<B, true, UPPER>(node, key)
                }
            };
        }
    }
    count_portable::<T, B, UPPER>(node, key)
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
/// module docs). `Searcher` routes `QueryKind::Btree(8)` here
/// automatically for eligible key types;
/// [`Searcher::new_runtime`](crate::Searcher::new_runtime) is the
/// escape hatch that forces the general runtime path.
///
/// `KERNEL` names the node kernel: the default, `0`, is the portable
/// one; `1` and `2` count `u64` / `i64` nodes with the AVX2 and
/// AVX-512 kernels. Only this crate builds those, and only
/// after checking the CPU; [`WideBtreeNav::new`] builds the portable
/// variant.
pub struct WideBtreeNav<'a, T, const B: usize, const KERNEL: u8 = { kernel::PORTABLE }> {
    data: &'a [T],
    shape: BtreeSearchShape,
}

impl<'a, T, const B: usize, const KERNEL: u8> Clone for WideBtreeNav<'a, T, B, KERNEL> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T, const B: usize, const KERNEL: u8> Copy for WideBtreeNav<'a, T, B, KERNEL> {}

impl<'a, T: Ord + 'static, const B: usize> WideBtreeNav<'a, T, B> {
    /// Navigator for `data` in B-tree layout with `B ≥ 1` keys per node
    /// (the compile-time twin of [`crate::nav::BtreeNav::new`]).
    pub fn new(data: &'a [T]) -> Self {
        Self::from_shape(data, BtreeSearchShape::new(data.len(), B))
    }

    #[inline]
    pub(crate) fn from_shape(data: &'a [T], shape: BtreeSearchShape) -> Self {
        // SAFETY: the portable kernel needs no CPU feature.
        unsafe { Self::with_kernel(data, shape) }
    }
}

impl<'a, T: Ord + 'static, const B: usize, const KERNEL: u8> WideBtreeNav<'a, T, B, KERNEL> {
    /// The navigator on node kernel `KERNEL`.
    ///
    /// # Safety
    /// The CPU must support the kernel's instructions: AVX2 for
    /// [`kernel::AVX2`], AVX-512F for [`kernel::AVX512`].
    #[inline]
    pub(crate) unsafe fn with_kernel(data: &'a [T], shape: BtreeSearchShape) -> Self {
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

    /// #{ k ∈ `keys` : k < key } (`k <= key` with `UPPER`) over one
    /// full `B`-key node.
    #[inline(always)]
    fn count<const UPPER: bool>(&self, keys: &[T], key: &T) -> usize {
        match KERNEL {
            // SAFETY: a navigator on either SIMD kernel is only built by
            // `with_kernel`, whose caller checked the CPU.
            kernel::AVX512 => unsafe { count_avx512::<T, B, UPPER>(keys, key) },
            // SAFETY: as above.
            kernel::AVX2 => unsafe { count_avx2::<T, B, UPPER>(keys, key) },
            _ => count_portable::<T, B, UPPER>(keys, key),
        }
    }
}

impl<'a, T: Ord + 'static, const B: usize, const KERNEL: u8> Navigator<T>
    for WideBtreeNav<'a, T, B, KERNEL>
{
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
    fn step_rank<const UPPER: bool>(
        &self,
        cur: &mut usize,
        acc: &mut usize,
        key: &T,
        child: usize,
    ) {
        let v = *cur;
        let c = self.count::<UPPER>(self.node_keys(v), key);
        *cur = v * (B + 1) + c + 1;
        *acc += c * (child + 1);
    }

    #[inline(always)]
    fn step_rank_last<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T) {
        // The last node level's child subtrees are empty: child = 0.
        self.step_rank::<UPPER>(cur, acc, key, 0);
    }

    #[inline(always)]
    fn gap(&self, _cur: &usize, acc: &usize) -> usize {
        *acc
    }

    /// One count of the overflow node hanging in the gap — the node
    /// kernel when the node is full, a scan of the partial last one
    /// otherwise — resolved by the shape's landing arithmetic with the
    /// const `B`, so the full-part walk's divisions are multiplies
    /// (same landing as the runtime navigator's).
    #[inline(always)]
    fn land<const UPPER: bool>(
        &self,
        _cur: &usize,
        acc: &usize,
        key: &T,
    ) -> (usize, Option<usize>) {
        let node = self.shape.overflow_node(B, *acc);
        let keys = &self.data[node.clone()];
        let c = if keys.len() == B {
            self.count::<UPPER>(keys, key)
        } else {
            keys.iter()
                .take_while(|x| if UPPER { **x <= *key } else { **x < *key })
                .count()
        };
        self.shape.land(B, *acc, node, c)
    }

    #[inline(always)]
    fn prefetch_node(&self, cur: &usize, _acc: &usize) {
        prefetch(self.data, *cur * B);
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

    /// Each kernel must agree with a plain count on every boundary:
    /// below all, above all, equal to each stored key, between
    /// neighbors, and around the sign-bit flip. The portable loop is
    /// always checked, and the AVX2 kernel too whenever this CPU has
    /// AVX2, whichever arm `Searcher::new` would pick here.
    #[test]
    fn simd_counts_match_portable() {
        fn check<T: SimdKey + core::fmt::Debug, const B: usize>(node: &[T], probes: &[T]) {
            let mut all = probes.to_vec();
            all.extend_from_slice(node);
            for p in &all {
                let lt = node.iter().filter(|k| *k < p).count();
                let le = node.iter().filter(|k| *k <= p).count();
                let at = format!("B={B} p={p:?} node={node:?}");
                assert_eq!(
                    count_portable::<T, B, false>(node, p),
                    lt,
                    "portable lt {at}"
                );
                assert_eq!(
                    count_portable::<T, B, true>(node, p),
                    le,
                    "portable le {at}"
                );
                if avx2_detected() {
                    // SAFETY: AVX2 presence just checked.
                    let (a_lt, a_le) = unsafe {
                        (
                            count_avx2::<T, B, false>(node, p),
                            count_avx2::<T, B, true>(node, p),
                        )
                    };
                    assert_eq!(a_lt, lt, "avx2 lt {at}");
                    assert_eq!(a_le, le, "avx2 le {at}");
                }
            }
        }
        for node in &nodes_u64() {
            check::<u64, 8>(node, &around(node));
            // The same bits as `i64`: the sign-bit flip must not apply.
            let node_i: Vec<i64> = node.iter().map(|&k| k as i64).collect();
            let probes_i: Vec<i64> = around(node).iter().map(|&k| k as i64).collect();
            check::<i64, 8>(&node_i, &probes_i);
        }
        let node16: Vec<u64> = (0..16).map(|x| x * 5).collect();
        check::<u64, 16>(&node16, &around(&node16));
        check::<i64, 16>(
            &(-8..8).map(|x| x * 5).collect::<Vec<i64>>(),
            &[i64::MIN, -41, -40, -1, 0, 1, 35, 36, i64::MAX],
        );

        let node_i: Vec<i64> = vec![i64::MIN, -55, -1, 0, 1, 2, 1 << 40, i64::MAX];
        let probes_i = [i64::MIN, -56, -55, -2, -1, 0, 1, 3, i64::MAX - 1, i64::MAX];
        check::<i64, 8>(&node_i, &probes_i);
    }

    /// Probes around every key of `keys`, plus both ends and both
    /// sides of the sign bit.
    fn around(keys: &[u64]) -> Vec<u64> {
        let mut p = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        for &k in keys {
            p.extend([k.saturating_sub(1), k.saturating_add(1)]);
        }
        p
    }

    /// 8-key `u64` nodes: duplicates and extremes, all equal, and
    /// keys straddling the sign bit.
    fn nodes_u64() -> [Vec<u64>; 3] {
        [
            vec![3, 3, 7, 9, 100, 1 << 40, 1 << 63, u64::MAX],
            vec![0; 8],
            vec![
                (1 << 63) - 2,
                (1 << 63) - 1,
                1 << 63,
                (1 << 63) + 1,
                5,
                6,
                7,
                8,
            ],
        ]
    }

    /// `is_x86_feature_detected!("avx2")`, or `false` off `x86_64`.
    fn avx2_detected() -> bool {
        avx2_kernel::<u64>()
    }

    /// `is_x86_feature_detected!("avx512f")`, or `false` off `x86_64`.
    fn avx512_detected() -> bool {
        avx512_kernel::<u64>()
    }

    /// The AVX-512 kernel agrees with a plain count — and so with the
    /// portable loop — on the boundaries [`simd_counts_match_portable`]
    /// checks, for `u64` (unsigned compare) and the same bits as `i64`
    /// (signed compare), at widths 8 and 16.
    #[test]
    fn avx512_counts_match_portable() {
        if !avx512_detected() {
            println!("avx512_counts_match_portable: skipped, this CPU lacks AVX-512F");
            return;
        }
        fn check<T: SimdKey + core::fmt::Debug, const B: usize>(node: &[T], probes: &[T]) {
            for p in probes.iter().chain(node) {
                let lt = node.iter().filter(|k| *k < p).count();
                let le = node.iter().filter(|k| *k <= p).count();
                let at = format!("B={B} p={p:?} node={node:?}");
                assert_eq!(
                    count_portable::<T, B, false>(node, p),
                    lt,
                    "portable lt {at}"
                );
                assert_eq!(
                    count_portable::<T, B, true>(node, p),
                    le,
                    "portable le {at}"
                );
                // SAFETY: AVX-512F presence checked above.
                let (a_lt, a_le) = unsafe {
                    (
                        count_avx512::<T, B, false>(node, p),
                        count_avx512::<T, B, true>(node, p),
                    )
                };
                assert_eq!(a_lt, lt, "avx512 lt {at}");
                assert_eq!(a_le, le, "avx512 le {at}");
            }
        }
        let as_i64 = |v: &[u64]| v.iter().map(|&k| k as i64).collect::<Vec<i64>>();
        for node in &nodes_u64() {
            check::<u64, 8>(node, &around(node));
            check::<i64, 8>(&as_i64(node), &as_i64(&around(node)));
        }
        // 16 keys straddling the sign bit (counts need no sorted node).
        let node16: Vec<u64> = (0..16).map(|x| (1 << 63) - 40 + x * 5).collect();
        check::<u64, 16>(&node16, &around(&node16));
        check::<i64, 16>(&as_i64(&node16), &as_i64(&around(&node16)));
        let node_i: Vec<i64> = vec![i64::MIN, -55, -1, 0, 1, 2, 1 << 40, i64::MAX];
        let probes_i = [i64::MIN, -56, -55, -2, -1, 0, 1, 3, i64::MAX - 1, i64::MAX];
        check::<i64, 8>(&node_i, &probes_i);
    }

    /// A navigator's node traces and landings (rank and slot) for one
    /// probe, in both flavors.
    type Answers = (
        Vec<usize>,
        (usize, Option<usize>),
        Vec<usize>,
        (usize, Option<usize>),
    );

    fn answers<T: Ord, N: crate::nav::Navigator<T>>(nav: &N, key: &T) -> Answers {
        use crate::nav::land_with;
        let (mut tl, mut tu) = (Vec::new(), Vec::new());
        let l = land_with::<T, _, false>(nav, key, |p| tl.push(p));
        let u = land_with::<T, _, true>(nav, key, |p| tu.push(p));
        (tl, l, tu, u)
    }

    /// `(sorted keys, probes)` over ragged B-tree sizes: ascending with
    /// every fifth key a duplicate of the one before, centred on the
    /// sign bit so `u64` keys cross it; probes hit every key and both
    /// of its neighbours.
    fn nav_cases<const B: usize>() -> Vec<(Vec<u64>, Vec<u64>)> {
        let sizes = [
            1,
            B - 1,
            B,
            B + 1,
            2 * B + 3,
            B * (B + 2),
            B * (B + 2) + 1,
            1000,
            4099,
        ];
        sizes
            .into_iter()
            .map(|n| {
                let base = (1u64 << 63) - 3 * n as u64 / 2;
                let sorted: Vec<u64> = (0..n as u64)
                    .map(|x| base + 3 * x - if x % 5 == 1 { 3 } else { 0 })
                    .collect();
                let mut probes = vec![0, 1, u64::MAX];
                for &k in &sorted {
                    probes.extend([k - 1, k, k + 1]);
                }
                (sorted, probes)
            })
            .collect()
    }

    /// The same keys shifted into `i64`, crossing zero.
    fn shift(k: &u64) -> i64 {
        (k ^ (1 << 63)) as i64
    }

    /// The portable and (on an AVX2 CPU) the AVX2 `WideBtreeNav`
    /// descend exactly like the runtime `BtreeNav`: identical node
    /// traces and landings of both flavors, at widths 8 and 16, over
    /// ragged sizes with duplicates and keys on both sides of the sign
    /// bit. An AVX2 host never picks the portable 64-bit arm in
    /// `Searcher::new`; this is where it runs.
    #[test]
    fn avx2_and_portable_navs_match_runtime() {
        use crate::nav::BtreeNav;
        use ist_core::{permute_in_place, Algorithm, Layout};

        if !avx2_detected() {
            println!("avx2_and_portable_navs_match_runtime: AVX2 leg skipped, this CPU lacks AVX2");
        }
        fn check<T: SimdKey + Send + core::fmt::Debug, const B: usize>(sorted: &[T], probes: &[T]) {
            let mut data = sorted.to_vec();
            permute_in_place(&mut data, Layout::Btree { b: B }, Algorithm::CycleLeader).unwrap();
            let runtime = BtreeNav::new(&data, B);
            let portable = WideBtreeNav::<T, B>::new(&data);
            let shape = BtreeSearchShape::new(data.len(), B);
            let avx2 = avx2_detected().then(|| {
                // SAFETY: built only when the CPU has AVX2.
                unsafe { WideBtreeNav::<T, B, { kernel::AVX2 }>::with_kernel(&data, shape) }
            });
            for p in probes {
                let want = answers(&runtime, p);
                let n = data.len();
                assert_eq!(answers(&portable, p), want, "portable B={B} n={n} p={p:?}");
                if let Some(avx2) = &avx2 {
                    assert_eq!(answers(avx2, p), want, "avx2 B={B} n={n} p={p:?}");
                }
            }
        }
        fn sweep<const B: usize>() {
            for (sorted, probes) in nav_cases::<B>() {
                check::<u64, B>(&sorted, &probes);
                let sorted_i: Vec<i64> = sorted.iter().map(shift).collect();
                let probes_i: Vec<i64> = probes.iter().map(shift).collect();
                check::<i64, B>(&sorted_i, &probes_i);
            }
        }
        sweep::<8>();
        sweep::<16>();
    }

    /// The AVX-512 `WideBtreeNav` descends exactly like the runtime
    /// `BtreeNav`: identical node traces and landings of both flavors,
    /// on the cases of
    /// [`avx2_and_portable_navs_match_runtime`]. `Searcher::new` picks
    /// this navigator on an AVX-512 host, so it is also what the
    /// root suites run there.
    #[test]
    fn avx512_nav_matches_runtime() {
        use crate::nav::BtreeNav;
        use ist_core::{permute_in_place, Algorithm, Layout};

        if !avx512_detected() {
            println!("avx512_nav_matches_runtime: skipped, this CPU lacks AVX-512F");
            return;
        }
        fn check<T: SimdKey + Send + core::fmt::Debug, const B: usize>(sorted: &[T], probes: &[T]) {
            let mut data = sorted.to_vec();
            permute_in_place(&mut data, Layout::Btree { b: B }, Algorithm::CycleLeader).unwrap();
            let runtime = BtreeNav::new(&data, B);
            let shape = BtreeSearchShape::new(data.len(), B);
            let avx512 = {
                // SAFETY: only called once the test found AVX-512F.
                unsafe { WideBtreeNav::<T, B, { kernel::AVX512 }>::with_kernel(&data, shape) }
            };
            for p in probes {
                let n = data.len();
                assert_eq!(
                    answers(&avx512, p),
                    answers(&runtime, p),
                    "avx512 B={B} n={n} p={p:?}"
                );
            }
        }
        fn sweep<const B: usize>() {
            for (sorted, probes) in nav_cases::<B>() {
                check::<u64, B>(&sorted, &probes);
                let sorted_i: Vec<i64> = sorted.iter().map(shift).collect();
                let probes_i: Vec<i64> = probes.iter().map(shift).collect();
                check::<i64, B>(&sorted_i, &probes_i);
            }
        }
        sweep::<8>();
        sweep::<16>();
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
        assert_eq!(count_portable::<K, 8, false>(&node, &K(7)), 4);
        assert_eq!(count_portable::<K, 8, true>(&node, &K(8)), 5);
    }
}
