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
//! pass — instead of permuting in place and then relocating. The slots
//! come from the layout's streaming walk in `ist_layout::walk`
//! ([`BtreeWalk`] for B-tree and BST, [`VebWalk`]), which carries the
//! shape from one key to the next instead of evaluating the closed-form
//! position map per key; its pieces write disjoint slots and are the
//! parallel tasks. [`AlignedVec::from_vec`] is the zero-copy adoption
//! path for un-permuted ([`QueryKind::Sorted`](ist_query::QueryKind))
//! runs, which stay in the caller's allocation (and therefore carry
//! only the allocator's natural alignment — the 64-byte guarantee
//! applies to the tree-layout kinds, which always scatter).
//!
//! A run reloaded from its file is already in layout order, so it needs
//! no scatter: `AlignedVec::try_from_fn` decodes each element into its
//! slot of a fresh aligned buffer, whatever the run's kind and element
//! types.

use core::mem::{align_of, size_of};
use core::ops::Range;
use core::ptr::NonNull;
use ist_core::{Error, Layout};
use ist_layout::{BtreeWalk, VebWalk};

/// Cache-line alignment every raw-backed allocation gets at minimum.
pub const CACHE_LINE: usize = 64;

/// Alignment of every raw-backed allocation.
fn raw_align<T>() -> usize {
    CACHE_LINE.max(align_of::<T>())
}

/// How an [`AlignedVec`]'s buffer was obtained — governs deallocation.
enum Backing {
    /// `std::alloc` allocation of `cap` elements at `raw_align` bytes,
    /// the first `len` of them initialized.
    Raw { cap: usize },
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
    /// aligned. Returned with `len == 0`; the caller raises `len` over
    /// the slots it initializes.
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
            backing: Backing::Raw { cap: n },
        }
    }

    /// Declare the first `n` slots initialized.
    ///
    /// # Safety
    /// All `n` elements must have been written.
    unsafe fn assume_len(&mut self, n: usize) {
        self.len = n;
    }

    /// A fresh 64-byte-aligned buffer of `n` elements, the `i`-th
    /// produced by `next(i)` in index order — the load path for run
    /// files, which decode each element straight into its final slot.
    ///
    /// If `next` fails (or panics), the elements already written are
    /// dropped, the allocation is freed and the error is returned.
    pub(crate) fn try_from_fn<E>(
        n: usize,
        mut next: impl FnMut(usize) -> Result<T, E>,
    ) -> Result<Self, E> {
        if n == 0 || size_of::<T>() == 0 {
            return (0..n)
                .map(next)
                .collect::<Result<_, _>>()
                .map(Self::from_vec);
        }
        let mut buf = Self::with_uninit(n);
        for i in 0..n {
            let x = next(i)?;
            // SAFETY: `with_uninit(n)` allocated `n` slots and `i < n`;
            // bumping `len` right after the write keeps the buffer's
            // Drop (on a later error or panic) to the written prefix.
            unsafe { buf.ptr.as_ptr().add(i).write(x) };
            buf.len = i + 1;
        }
        Ok(buf)
    }
}

impl<T: Send> AlignedVec<T> {
    /// Move `src` into a fresh aligned buffer, putting every element in
    /// its layout slot during the move — the single-pass build behind
    /// [`crate::StaticMap::build_presorted`], once per array. The
    /// layout's walk streams each rank's slot without a per-element
    /// position map and cuts the permutation into pieces that write
    /// disjoint slots, so the pieces run in parallel.
    pub(crate) fn scatter_from_vec(mut src: Vec<T>, walk: &LayoutWalk) -> Self {
        let n = src.len();
        if n == 0 || size_of::<T>() == 0 {
            // Nothing moves (or nothing has an address): adopt as-is —
            // any permutation of an empty/ZST run is itself.
            return Self::from_vec(src);
        }
        let mut dst = Self::with_uninit(n);
        let src_ptr = SendPtr(src.as_mut_ptr());
        let dst_ptr = SendPtr(dst.ptr.as_ptr());
        // SAFETY: zero is always a valid length. Ownership of the
        // elements transfers to `dst` now; if a write below panicked
        // (it cannot — the walks are pure arithmetic and the moves are
        // bitwise), both vectors would report length 0 and the
        // elements would leak rather than double-drop.
        unsafe { src.set_len(0) };
        // Sequential below this grain: thread hand-off beats the memory
        // traffic on small runs.
        const GRAIN: usize = 1 << 14;
        let scatter_piece = |piece: Range<usize>| {
            let (s, d) = (src_ptr, dst_ptr);
            // SAFETY: the walk pairs each rank of 0..n with one slot of
            // 0..n, and pieces cover disjoint ranks and slots, so every
            // read and write is in bounds and every slot is written
            // exactly once.
            walk.walk(piece, |r, p| unsafe { d.0.add(p).write(s.0.add(r).read()) });
        };
        let pieces = walk.pieces(GRAIN);
        // The SAFETY argument below needs the walk to cover exactly 0..n.
        assert_eq!(
            pieces.last().map(|p| p.end),
            Some(n),
            "walk is for another length"
        );
        if pieces.len() <= 2 {
            pieces.into_iter().for_each(scatter_piece);
        } else {
            rayon::scope(|sc| {
                for piece in pieces {
                    let f = &scatter_piece;
                    sc.spawn(move |_| f(piece));
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

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        match self.backing {
            // SAFETY: round-trip of the adopted Vec.
            Backing::Vec { cap } => unsafe {
                drop(Vec::from_raw_parts(self.ptr.as_ptr(), self.len, cap));
            },
            // SAFETY: the first `len` slots are initialized, and the
            // allocation is `with_uninit`'s: `cap` elements at
            // `raw_align`.
            Backing::Raw { cap } => unsafe {
                core::ptr::drop_in_place(core::ptr::slice_from_raw_parts_mut(
                    self.ptr.as_ptr(),
                    self.len,
                ));
                let layout =
                    core::alloc::Layout::from_size_align(cap * size_of::<T>(), raw_align::<T>())
                        .expect("layout was valid at alloc time");
                std::alloc::dealloc(self.ptr.as_ptr().cast(), layout);
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

/// The streaming scatter of one tree layout, shared by the key and
/// value scatters of a [`crate::StaticMap`] build so the shape
/// arithmetic is done once. BST is the B-tree layout with one key per
/// node.
pub(crate) enum LayoutWalk {
    Btree(BtreeWalk),
    Veb(VebWalk),
}

impl LayoutWalk {
    /// Walk for `n ≥ 1` elements in `layout`.
    pub(crate) fn new(layout: Layout, n: usize) -> Result<Self, Error> {
        debug_assert!(n >= 1);
        match layout {
            Layout::Bst => Ok(Self::Btree(BtreeWalk::new(n, 1))),
            Layout::Veb => Ok(Self::Veb(VebWalk::new(n))),
            Layout::Btree { b: 0 } => Err(Error::ZeroNodeCapacity),
            Layout::Btree { b } => Ok(Self::Btree(BtreeWalk::new(n, b))),
        }
    }

    fn pieces(&self, grain: usize) -> Vec<Range<usize>> {
        match self {
            Self::Btree(w) => w.pieces(grain),
            Self::Veb(w) => w.pieces(grain),
        }
    }

    /// `f(rank, slot)` for every element of `piece` — the layout's
    /// closed-form rank → slot map, walked piece by piece, so
    /// `scatter(sorted)[slot] == sorted[rank]`.
    #[inline]
    fn walk(&self, piece: Range<usize>, f: impl FnMut(usize, usize)) {
        match self {
            Self::Btree(w) => w.walk(piece, f),
            Self::Veb(w) => w.walk(piece, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_core::{permute_in_place, Algorithm};

    /// The scatter must land every element exactly where the in-place
    /// construction algorithms put it — same maps, different mechanics.
    /// The large sizes put the parallel pieces' seams inside each part
    /// of the layouts: the B-tree's group prefix (`3 · 2^17 + 5`, `10^6`
    /// at `b = 3`), its partial node (`73 615` at `b = 8`) and full tail
    /// (`10^6`, `9^6 − 1` and `9^6` at `b = 8`, whose full part is
    /// `9^6 − 1`), and the bottom trees of the vEB top-level split
    /// (`2^18 ± 1`).
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
        for n in [
            1usize,
            2,
            7,
            8,
            63,
            64,
            100,
            1023,
            4097,
            (1 << 16) + 11,
            73_615, // a seam inside b = 8's partial node (ranks 16 380..16 387)
            3 * (1 << 17) + 5,
            (1 << 18) - 1,
            (1 << 18) + 1,
            531_440, // 9^6 − 1
            531_441, // 9^6
            1_000_000,
        ] {
            let sorted: Vec<u64> = (0..n as u64).collect();
            for layout in layouts {
                let mut expect = sorted.clone();
                permute_in_place(&mut expect, layout, Algorithm::CycleLeader).unwrap();
                let walk = LayoutWalk::new(layout, n).unwrap();
                let got = AlignedVec::scatter_from_vec(sorted.clone(), &walk);
                assert_eq!(&*got, &expect[..], "n={n} layout={layout:?}");
                assert_eq!(got.as_ptr() as usize % CACHE_LINE, 0);
            }
        }
    }

    #[test]
    fn zero_width_and_empty_runs() {
        assert!(matches!(
            LayoutWalk::new(Layout::Btree { b: 0 }, 5),
            Err(Error::ZeroNodeCapacity)
        ));
        let walk = LayoutWalk::new(Layout::Bst, 1).unwrap();
        let v = AlignedVec::scatter_from_vec(vec![7u64], &walk);
        assert_eq!(&*v, &[7]);
        // ZST elements scatter to themselves.
        let z = AlignedVec::scatter_from_vec(
            vec![(), (), ()],
            &LayoutWalk::new(Layout::Bst, 3).unwrap(),
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

    /// A fill that stops early — by error or by panic — drops exactly the
    /// elements it wrote; a full one is aligned and in index order.
    #[test]
    fn a_failed_fill_drops_exactly_what_it_wrote() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(usize);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let failed = AlignedVec::try_from_fn(50, |i| if i < 7 { Ok(D(i)) } else { Err(i) });
        assert_eq!(failed.err(), Some(7));
        assert_eq!(DROPS.load(Ordering::Relaxed), 7);
        let panicked = std::panic::catch_unwind(|| {
            AlignedVec::try_from_fn(50, |i| match i {
                5 => panic!("decoder panicked"),
                _ => Ok::<_, ()>(D(i)),
            })
        });
        assert!(panicked.is_err());
        assert_eq!(DROPS.load(Ordering::Relaxed), 12);
        let full = AlignedVec::try_from_fn(50, |i| Ok::<_, ()>(D(i))).unwrap();
        assert_eq!(full.as_ptr() as usize % CACHE_LINE, 0);
        assert!(full.iter().enumerate().all(|(i, d)| d.0 == i));
        drop(full);
        assert_eq!(DROPS.load(Ordering::Relaxed), 62);
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
        let walk = LayoutWalk::new(Layout::Veb, 50).unwrap();
        let scattered = AlignedVec::scatter_from_vec((0..50).map(D).collect(), &walk);
        let adopted = AlignedVec::from_vec((0..30).map(D).collect());
        assert_eq!(DROPS.load(Ordering::Relaxed), 0);
        drop(scattered);
        assert_eq!(DROPS.load(Ordering::Relaxed), 50);
        drop(adopted);
        assert_eq!(DROPS.load(Ordering::Relaxed), 80);
    }
}
