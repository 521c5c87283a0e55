//! [`AlignedVec`]: cache-line-aligned run storage, and the scatter that
//! builds a layout directly inside it.
//!
//! The layouts' promise — "one node = one memory transfer" — is
//! arithmetic fiction unless node base addresses actually coincide with
//! cache-line boundaries: a `Vec<u64>` is only 8-byte aligned, so an
//! 8-key B-tree node straddles two lines in 7 of 8 placements. This
//! module gives the serving facades a buffer type whose allocation is
//! **64-byte aligned** (the x86/aarch64 line size).
//!
//! Construction never copies twice: `AlignedVec::scatter_from_vec`
//! applies the (data-oblivious) layout permutation *during* the move
//! from the caller's `Vec` into the aligned destination — one parallel
//! pass, `dst[pos(r)] = src[r]` — instead of permuting in place and
//! then relocating. [`AlignedVec::from_vec`] is the zero-copy adoption
//! path for un-permuted ([`QueryKind::Sorted`](ist_query::QueryKind))
//! runs, which stay in the caller's allocation (and therefore carry
//! only the allocator's natural alignment — the 64-byte guarantee
//! applies to the tree-layout kinds, which always scatter).

use core::mem::{align_of, size_of};
use core::ptr::NonNull;
use ist_core::{Error, Layout};
use ist_layout::{bst_pos, complete::BtreeCompleteShape, veb_pos, CompleteShape};

/// Cache-line alignment every raw-backed allocation gets at minimum.
pub const CACHE_LINE: usize = 64;

/// Alignment of every raw-backed allocation.
fn raw_align<T>() -> usize {
    CACHE_LINE.max(align_of::<T>())
}

/// How an [`AlignedVec`]'s buffer was obtained — governs deallocation.
enum Backing {
    /// `std::alloc` allocation of `len` elements at `raw_align` bytes.
    Raw,
    /// Adopted from a `Vec` with the given capacity (zero-copy both
    /// ways); freed by reconstructing the `Vec`.
    Vec { cap: usize },
}

/// A contiguous owned buffer of `T` whose raw allocations are at least
/// [`CACHE_LINE`]-aligned.
///
/// Behaves like a fixed-length `Vec<T>` (derefs to a slice); it has no
/// growth API because run storage is immutable after construction.
pub struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
    backing: Backing,
}

// SAFETY: AlignedVec owns its elements exactly like Vec<T> does; the
// raw pointer is not shared.
unsafe impl<T: Send> Send for AlignedVec<T> {}
// SAFETY: shared access only hands out `&T` (Deref), so `Sync` lifts
// directly from `T: Sync`, as for Vec<T>.
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

impl<T> AlignedVec<T> {
    /// Zero-copy adoption of a `Vec`'s buffer (used for un-permuted
    /// sorted runs, where no element needs to move). Carries the `Vec`
    /// allocator's natural alignment only.
    pub fn from_vec(v: Vec<T>) -> Self {
        let mut v = core::mem::ManuallyDrop::new(v);
        let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
        Self {
            // SAFETY: Vec's pointer is non-null (dangling for cap 0,
            // still non-null).
            ptr: unsafe { NonNull::new_unchecked(ptr) },
            len,
            backing: Backing::Vec { cap },
        }
    }

    /// An uninitialized raw-backed buffer for `n` elements, 64-byte
    /// aligned. Returned with `len == 0`; the caller initializes all
    /// `n` slots and then calls `assume_len(n)`.
    fn with_uninit(n: usize) -> Self {
        debug_assert!(size_of::<T>() != 0, "ZSTs take the from_vec path");
        let layout = core::alloc::Layout::from_size_align(n * size_of::<T>(), raw_align::<T>())
            .expect("run too large");
        // SAFETY: size > 0 (n > 0 checked by callers, T is not a ZST).
        let raw = unsafe { std::alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            std::alloc::handle_alloc_error(layout)
        };
        Self {
            ptr,
            len: 0,
            backing: Backing::Raw,
        }
    }

    /// Declare the first `n` slots initialized.
    ///
    /// # Safety
    /// All `n` elements must have been written.
    unsafe fn assume_len(&mut self, n: usize) {
        self.len = n;
    }

    /// Allocate an aligned raw-backed buffer for `n` elements and let
    /// `fill` initialize it through its raw **byte** view — the
    /// zero-copy load path for fixed-width keys: the persistence layer
    /// streams a run file's key section straight into the aligned
    /// allocation, no staging `Vec` in between.
    ///
    /// If `fill` errors, the allocation is freed and the error is
    /// returned.
    ///
    /// # Safety
    /// `T` must be plain old data: every bit pattern of
    /// `size_of::<T>()` bytes must be a valid `T` (the integer key
    /// types), and `T` must not have a destructor that could observe a
    /// partially-filled buffer. `fill` must either fully initialize the
    /// byte view or return `Err`.
    pub(crate) unsafe fn from_pod_bytes_with<E>(
        n: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Self, E> {
        debug_assert!(size_of::<T>() != 0, "ZSTs take the from_vec path");
        if n == 0 {
            return Ok(Self::from_vec(Vec::new()));
        }
        let mut buf = Self::with_uninit(n);
        // SAFETY: `with_uninit(n)` allocated `n * size_of::<T>()`
        // writable bytes at `ptr`.
        let bytes = unsafe {
            core::slice::from_raw_parts_mut(buf.ptr.as_ptr().cast::<u8>(), n * size_of::<T>())
        };
        match fill(bytes) {
            Ok(()) => {
                // SAFETY: `fill` initialized every byte, and by the
                // caller's POD contract those bytes are `n` valid `T`s.
                unsafe { buf.assume_len(n) };
                Ok(buf)
            }
            Err(e) => {
                // `buf.len` is still 0, but the allocation holds `n`
                // elements — its Drop would dealloc with the wrong
                // layout. Free manually with the true capacity.
                let ptr = buf.ptr;
                core::mem::forget(buf);
                // SAFETY: same layout as the allocation; no elements
                // are dropped (POD contract).
                unsafe { dealloc_raw::<T>(ptr, n) };
                Err(e)
            }
        }
    }
}

impl<T: Send> AlignedVec<T> {
    /// Move `src` into a fresh aligned buffer, applying the permutation
    /// `dst[pos.pos(r)] = src[r]` during the move — the single-pass
    /// build behind [`crate::StaticMap::build_presorted`], once per
    /// array. Parallelized over element ranges (the layout maps are
    /// pure index arithmetic, so disjoint source ranges write disjoint
    /// destination slots).
    pub(crate) fn scatter_from_vec(mut src: Vec<T>, pos: &LayoutPos) -> Self {
        let n = src.len();
        if n == 0 || size_of::<T>() == 0 {
            // Nothing moves (or nothing has an address): adopt as-is —
            // any permutation of an empty/ZST run is itself.
            return Self::from_vec(src);
        }
        debug_assert_eq!(n, pos.len());
        let mut dst = Self::with_uninit(n);
        let src_ptr = SendPtr(src.as_mut_ptr());
        let dst_ptr = SendPtr(dst.ptr.as_ptr());
        // SAFETY: zero is always a valid length. Ownership of the
        // elements transfers to `dst` now; if a write below panicked
        // (it cannot — the maps are pure arithmetic and the moves are
        // bitwise), both vectors would report length 0 and the
        // elements would leak rather than double-drop.
        unsafe { src.set_len(0) };
        // Sequential below this grain: thread spawn + shape math beat
        // the memory traffic on small runs.
        const GRAIN: usize = 1 << 14;
        let scatter_range = |lo: usize, hi: usize| {
            let (s, d) = (src_ptr, dst_ptr);
            for r in lo..hi {
                // SAFETY: r < n on the source side; pos() is a bijection
                // of 0..n, so every destination index is in bounds and
                // written exactly once.
                unsafe { d.0.add(pos.pos(r)).write(s.0.add(r).read()) }
            }
        };
        if n <= 2 * GRAIN {
            scatter_range(0, n);
        } else {
            rayon::scope(|sc| {
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + GRAIN).min(n);
                    let f = &scatter_range;
                    sc.spawn(move |_| f(lo, hi));
                    lo = hi;
                }
            });
        }
        // SAFETY: every slot 0..n written exactly once above.
        unsafe { dst.assume_len(n) };
        dst
    }
}

/// A raw pointer that crosses `rayon::scope` task boundaries; safety
/// rests on the scatter ranges being disjoint. (`Clone`/`Copy` are
/// manual: the derive would demand `T: Copy`, but a pointer is Copy
/// regardless of its pointee.)
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only dereferenced inside the scatter tasks,
// which write provably disjoint index ranges; `T: Send` because
// elements move across the task boundary.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same argument — no `&T` is ever shared, tasks copy through
// disjoint raw offsets.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Free a raw-backed allocation of `cap` elements without touching the
/// elements.
///
/// # Safety
/// `ptr` must be a live `AlignedVec::with_uninit` allocation of
/// exactly this element count, and its elements must already be moved
/// out or trivially droppable.
unsafe fn dealloc_raw<T>(ptr: NonNull<T>, cap: usize) {
    let layout = core::alloc::Layout::from_size_align(cap * size_of::<T>(), raw_align::<T>())
        .expect("layout was valid at alloc time");
    // SAFETY: same layout as the allocation (with_uninit never over-
    // allocates: cap elements at `raw_align`).
    unsafe { std::alloc::dealloc(ptr.as_ptr().cast(), layout) }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        match self.backing {
            // SAFETY: round-trip of the adopted Vec.
            Backing::Vec { cap } => unsafe {
                drop(Vec::from_raw_parts(self.ptr.as_ptr(), self.len, cap));
            },
            // SAFETY: the first `len` slots are initialized, and
            // raw-backed buffers are allocated with cap == len (the
            // scatter fills every slot before assume_len).
            Backing::Raw => unsafe {
                core::ptr::drop_in_place(core::ptr::slice_from_raw_parts_mut(
                    self.ptr.as_ptr(),
                    self.len,
                ));
                dealloc_raw::<T>(self.ptr, self.len);
            },
        }
    }
}

impl<T> core::ops::Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: len initialized elements at ptr.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> core::ops::DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: len initialized elements at ptr, uniquely owned.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(&**self, f)
    }
}

/// The sorted-rank → layout-position map of one tree layout, shared by
/// the key and value scatters of a [`crate::StaticMap`] build so the
/// shape arithmetic is computed once.
pub(crate) enum LayoutPos {
    Bst(CompleteShape),
    Veb(CompleteShape),
    Btree(BtreeCompleteShape),
}

impl LayoutPos {
    /// Position map for `n ≥ 1` elements in `layout`.
    pub(crate) fn new(layout: Layout, n: usize) -> Result<Self, Error> {
        debug_assert!(n >= 1);
        match layout {
            Layout::Bst => Ok(Self::Bst(CompleteShape::new(n))),
            Layout::Veb => Ok(Self::Veb(CompleteShape::new(n))),
            Layout::Btree { b: 0 } => Err(Error::ZeroNodeCapacity),
            Layout::Btree { b } => Ok(Self::Btree(BtreeCompleteShape::new(n, b))),
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Bst(s) | Self::Veb(s) => s.len(),
            Self::Btree(s) => s.len(),
        }
    }

    /// Layout position of sorted rank `r` — the same maps
    /// [`Searcher::position_of_rank`](ist_query::Searcher::position_of_rank)
    /// inverts, so `scatter(sorted)[pos(r)] == sorted[r]`.
    #[inline]
    fn pos(&self, r: usize) -> usize {
        match self {
            Self::Bst(s) => s.pos(r, bst_pos),
            Self::Veb(s) => s.pos(r, veb_pos),
            Self::Btree(s) => s.pos(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_core::{permute_in_place, Algorithm};

    /// The scatter must land every element exactly where the in-place
    /// construction algorithms put it — same maps, different mechanics.
    #[test]
    fn scatter_matches_in_place_construction() {
        let layouts = [
            Layout::Bst,
            Layout::Veb,
            Layout::Btree { b: 1 },
            Layout::Btree { b: 3 },
            Layout::Btree { b: 8 },
            Layout::Btree { b: 16 },
        ];
        for n in [1usize, 2, 7, 8, 63, 64, 100, 1023, 4097, (1 << 16) + 11] {
            let sorted: Vec<u64> = (0..n as u64).collect();
            for layout in layouts {
                let mut expect = sorted.clone();
                permute_in_place(&mut expect, layout, Algorithm::CycleLeader).unwrap();
                let pos = LayoutPos::new(layout, n).unwrap();
                let got = AlignedVec::scatter_from_vec(sorted.clone(), &pos);
                assert_eq!(&*got, &expect[..], "n={n} layout={layout:?}");
                assert_eq!(got.as_ptr() as usize % CACHE_LINE, 0);
            }
        }
    }

    #[test]
    fn zero_width_and_empty_runs() {
        assert!(matches!(
            LayoutPos::new(Layout::Btree { b: 0 }, 5),
            Err(Error::ZeroNodeCapacity)
        ));
        let pos = LayoutPos::new(Layout::Bst, 1).unwrap();
        let v = AlignedVec::scatter_from_vec(vec![7u64], &pos);
        assert_eq!(&*v, &[7]);
        // ZST elements scatter to themselves.
        let z = AlignedVec::scatter_from_vec(
            vec![(), (), ()],
            &LayoutPos::new(Layout::Bst, 3).unwrap(),
        );
        assert_eq!(z.len(), 3);
    }

    #[test]
    fn vec_adoption_is_zero_copy() {
        let v: Vec<u64> = (0..100).collect();
        let p = v.as_ptr();
        let a = AlignedVec::from_vec(v);
        assert_eq!(a.as_ptr(), p, "adoption must not move the buffer");
        assert_eq!(a.len(), 100);
    }

    /// Drop must run element destructors exactly once in both backings.
    #[test]
    fn drops_elements_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] u64);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let pos = LayoutPos::new(Layout::Veb, 50).unwrap();
        let scattered = AlignedVec::scatter_from_vec((0..50).map(D).collect(), &pos);
        let adopted = AlignedVec::from_vec((0..30).map(D).collect());
        assert_eq!(DROPS.load(Ordering::Relaxed), 0);
        drop(scattered);
        assert_eq!(DROPS.load(Ordering::Relaxed), 50);
        drop(adopted);
        assert_eq!(DROPS.load(Ordering::Relaxed), 80);
    }
}
