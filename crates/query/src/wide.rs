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
//! compare → mask → popcount sequence over vectors (SSE2 for `u32`;
//! AVX-512 or AVX2 for `u64`/`i64`). The arm is picked at run time,
//! once per [`Searcher`](crate::Searcher), in the default build — no
//! `-C target-cpu=native` needed: `u64`/`i64` keys take the AVX-512
//! kernel when `is_x86_feature_detected!("avx512f")` holds (one
//! unsigned or signed compare into a mask register per 8-key node, no
//! sign-bias xor), else the AVX2 kernel when `avx2` does. Everywhere
//! else, including non-x86 architectures, the portable unrolled loop
//! runs, with identical results.
//!
//! [`WideBtreeNav`] implements the full [`Navigator`] surface — rank
//! steps, `UPPER` tie-breaking, gap resolution, lower-bound slots,
//! prefetch hooks — with arithmetic **bit-identical** to the
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

use crate::nav::{btree_full_pos, prefetch, BtreeSearchShape, Navigator};
use core::any::TypeId;

/// Node-kernel ids for [`WideBtreeNav`]'s `KERNEL` parameter.
pub(crate) mod kernel {
    /// The unrolled loop (SSE2 for `u32` keys on `x86_64`).
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

    pub(super) const SIGN64: u64 = 1 << 63;
    const SIGN32: i32 = i32::MIN;

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

/// #{ k ∈ node : k < key } for a `B`-key node: the SSE2 kernel for
/// `u32` on `x86_64`, the portable unrolled loop for everything else.
/// The `TypeId` check const-folds, so each monomorphization contains
/// exactly one path.
#[inline(always)]
fn count_lt<T: Ord + 'static, const B: usize>(node: &[T], key: &T) -> usize {
    debug_assert_eq!(node.len(), B);
    #[cfg(target_arch = "x86_64")]
    if TypeId::of::<T>() == TypeId::of::<u32>() {
        // SAFETY: TypeId equality proves `T` is `u32`, so the pointer
        // reinterpretations are identity casts; `node` holds B elements
        // (debug-asserted, and by the caller's shape arithmetic).
        return unsafe {
            x86::count_lt_u32::<B>(node.as_ptr().cast(), *(key as *const T).cast::<u32>())
        };
    }
    count_lt_portable::<T, B>(node, key)
}

/// #{ k ∈ node : k <= key } — the `UPPER` twin of [`count_lt`].
#[inline(always)]
fn count_le<T: Ord + 'static, const B: usize>(node: &[T], key: &T) -> usize {
    debug_assert_eq!(node.len(), B);
    #[cfg(target_arch = "x86_64")]
    if TypeId::of::<T>() == TypeId::of::<u32>() {
        // SAFETY: as in `count_lt` — TypeId proves `T` is `u32`.
        return unsafe {
            x86::count_le_u32::<B>(node.as_ptr().cast(), *(key as *const T).cast::<u32>())
        };
    }
    count_le_portable::<T, B>(node, key)
}

/// [`count_lt`] (or [`count_le`] with `UPPER`) on the AVX2 kernel when
/// `T` is `u64` or `i64`; any other `T` takes [`count_lt`]'s path.
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
    if UPPER {
        count_le::<T, B>(node, key)
    } else {
        count_lt::<T, B>(node, key)
    }
}

/// [`count_lt`] (or [`count_le`] with `UPPER`) on the AVX-512 kernel
/// when `T` is `u64` or `i64`; any other `T` takes [`count_lt`]'s
/// path.
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
    if UPPER {
        count_le::<T, B>(node, key)
    } else {
        count_lt::<T, B>(node, key)
    }
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
            _ if UPPER => count_le::<T, B>(keys, key),
            _ => count_lt::<T, B>(keys, key),
        }
    }

    /// The overflow node in gap `g` and its `count`: the node kernel
    /// when the node is full, a scan of the partial last one otherwise.
    /// The node is sorted, so the count is also where `key` would sit.
    #[inline(always)]
    fn count_gap<const UPPER: bool>(&self, g: usize, key: &T) -> (usize, &[T], usize) {
        let (start, len) = self.overflow_node(g);
        let keys = &self.data[start..start + len];
        let c = if len == B {
            self.count::<UPPER>(keys, key)
        } else {
            keys.iter()
                .take_while(|x| if UPPER { **x <= *key } else { **x < *key })
                .count()
        };
        (start, keys, c)
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

    /// The first key `≥ key` of the overflow node hanging in the gap
    /// (the sorted node's count of smaller keys), else the gap's
    /// full-part successor by the level walk of
    /// [`ist_layout::btree_pos`] — whose divisions by
    /// the const `B + 1` are multiplies (same slots as the runtime
    /// navigator's).
    #[inline(always)]
    fn lower_bound_slot(&self, _cur: &usize, acc: &usize, key: &T) -> Option<usize> {
        let g = *acc;
        let (start, keys, c) = self.count_gap::<false>(g, key);
        if c < keys.len() {
            Some(start + c)
        } else if g < self.shape.i {
            Some(btree_full_pos(B, self.first_round(), g))
        } else {
            None
        }
    }

    /// B-tree rank from the fall-off gap (see
    /// [`crate::nav::BtreeNav::rank_of_gap`] — identical arithmetic).
    #[inline]
    fn rank_of_gap<const UPPER: bool>(&self, gap: usize, key: &T) -> usize {
        let BtreeSearchShape { q, s, .. } = self.shape;
        let rank = gap + gap.min(q) * B + if gap > q { s } else { 0 };
        rank + self.count_gap::<UPPER>(gap, key).2
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
                assert_eq!(count_lt_portable::<T, B>(node, p), lt, "portable lt {at}");
                assert_eq!(count_le_portable::<T, B>(node, p), le, "portable le {at}");
                assert_eq!(count_lt::<T, B>(node, p), lt, "lt {at}");
                assert_eq!(count_le::<T, B>(node, p), le, "le {at}");
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

        let node_u: Vec<u32> = vec![0, 1, 9, 9, 1 << 20, 1 << 31, u32::MAX - 1, u32::MAX];
        let probes_u = [0u32, 1, 2, 8, 9, 10, (1 << 31) - 1, 1 << 31, u32::MAX];
        check::<u32, 8>(&node_u, &probes_u);
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
    /// (signed compare), at both wired widths.
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
                assert_eq!(count_lt_portable::<T, B>(node, p), lt, "portable lt {at}");
                assert_eq!(count_le_portable::<T, B>(node, p), le, "portable le {at}");
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

    /// A navigator's node traces and answers for one probe: search,
    /// rank and `UPPER` rank.
    type Answers = (
        Vec<usize>,
        Option<usize>,
        Vec<usize>,
        usize,
        Vec<usize>,
        usize,
    );

    fn answers<T: Ord, N: crate::nav::Navigator<T>>(nav: &N, key: &T) -> Answers {
        use crate::nav::{rank_with, search_with};
        let (mut ts, mut tr, mut tu) = (Vec::new(), Vec::new(), Vec::new());
        let s = search_with(nav, key, |p| ts.push(p));
        let r = rank_with::<T, _, false>(nav, key, |p| tr.push(p));
        let u = rank_with::<T, _, true>(nav, key, |p| tu.push(p));
        (ts, s, tr, r, tu, u)
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
    /// traces and answers for search, rank and `UPPER` rank, at both
    /// wired widths, over ragged sizes with duplicates and keys on both
    /// sides of the sign bit. An AVX2 host never picks the portable
    /// 64-bit arm in `Searcher::new`; this is where it runs.
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
    /// `BtreeNav`: identical node traces and answers for search, rank,
    /// `UPPER` rank and lower bound, on the cases of
    /// [`avx2_and_portable_navs_match_runtime`]. `Searcher::new` picks
    /// this navigator on an AVX-512 host, so it is also what the
    /// root suites run there.
    #[test]
    fn avx512_nav_matches_runtime() {
        use crate::nav::{lower_bound_with, BtreeNav};
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
                assert_eq!(
                    lower_bound_with(&avx512, p, |_| {}),
                    lower_bound_with(&runtime, p, |_| {}),
                    "avx512 lower bound B={B} n={n} p={p:?}"
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
        assert_eq!(count_lt::<K, 8>(&node, &K(7)), 4);
        assert_eq!(count_le::<K, 8>(&node, &K(8)), 5);
    }
}
