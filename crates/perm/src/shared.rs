//! A shared mutable slice view for provably disjoint parallel writes.
//!
//! The involution and cycle-leader algorithms perform *structured* in-place
//! parallel mutation: every memory location is written by exactly one task,
//! but the partition of locations among tasks is index-arithmetic (scattered
//! swaps), not contiguous splits, so `split_at_mut` cannot express it.
//! [`SharedSlice`] is the minimal unsafe escape hatch: a `Send + Sync`
//! wrapper around a raw pointer with unchecked element access. All uses in
//! this workspace document their disjointness argument at the call site.

use std::marker::PhantomData;

/// What moving one element costs a parallel permutation primitive, in
/// nanoseconds, as the floor rule ([`rayon::min_task_len`]) needs it.
/// The four primitives that move elements size their work with it: the
/// two equidistant gathers (per element of the gathered array), the
/// region swap (per swapped pair) and the layout scatter (per element).
///
/// Probe: each primitive in a one-thread pool on `u64`s, medians of
/// nine runs at 2^16, 2^20 and 2^24 elements, two runs, on the 2-vCPU
/// reference box (release build). The plain gather (`r = l`, whose
/// anti-diagonal cycles miss the cache) read 1.5–7.9 ns per element,
/// the region swap 1.8–2.2 ns per pair, and the scatter's B-tree, BST
/// and vEB walks 1.0–4.7 ns per element. The chunked gathers, whose
/// units move as block swaps, read 0.2–1.6. The estimate sits at the
/// low end of the element-at-a-time moves: a low cost asks for longer
/// tasks, and a primitive does not know which layout it serves.
pub const MOVE_COST_NS: u64 = 2;

/// A raw view over `&mut [T]` that can be captured by value in parallel
/// closures.
///
/// # Safety contract
///
/// Constructing a `SharedSlice` is safe; *using* it is not. Callers of
/// [`SharedSlice::swap`] / [`SharedSlice::write`] / [`SharedSlice::read`]
/// must guarantee:
///
/// 1. every index is in bounds, and
/// 2. no two concurrent tasks access the same index when at least one
///    access is a write (the usual data-race freedom requirement).
///
/// The lifetime parameter ties the view to the original borrow so the
/// underlying buffer cannot move or be freed while views exist.
#[derive(Clone, Copy)]
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: `SharedSlice` hands out raw access only through `unsafe` methods
// whose contract (disjointness of concurrent accesses) makes cross-thread
// use sound. `T: Send` is required because elements are moved between
// threads by swaps; `Sync` is not required of `T` because no `&T` is ever
// shared across threads — reads produce copies (hence `T: Copy` bounds on
// the accessors that read).
unsafe impl<'a, T: Send> Send for SharedSlice<'a, T> {}
// SAFETY: same argument as Send above — all shared access goes through
// the unsafe accessors and their disjointness contract.
unsafe impl<'a, T: Send> Sync for SharedSlice<'a, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Swap elements `i` and `j`.
    ///
    /// # Safety
    /// `i` and `j` must be in bounds and no concurrent task may access
    /// either index.
    #[inline]
    pub unsafe fn swap(&self, i: usize, j: usize) {
        debug_assert!(i < self.len && j < self.len);
        if i != j {
            // SAFETY: caller guarantees `i`/`j` in bounds (so the adds
            // stay inside the allocation) and exclusive access to both
            // slots; `i != j` rules out overlapping arguments.
            unsafe { std::ptr::swap(self.ptr.add(i), self.ptr.add(j)) };
        }
    }

    /// Read element `i` (requires `T: Copy`).
    ///
    /// # Safety
    /// `i` must be in bounds and no concurrent task may write index `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        // SAFETY: caller guarantees `i` in bounds and no concurrent
        // writer, so the slot holds a valid `T` we may copy out.
        unsafe { *self.ptr.add(i) }
    }

    /// Write `v` to element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and no concurrent task may access index `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        // SAFETY: caller guarantees `i` in bounds and exclusive access
        // to the slot for the duration of this store.
        unsafe { *self.ptr.add(i) = v };
    }

    /// Swap the disjoint ranges `[i, i+len)` and `[j, j+len)`.
    ///
    /// # Safety
    /// Both ranges must be in bounds, must not overlap each other, and no
    /// concurrent task may access any index in either range.
    #[inline]
    pub unsafe fn swap_range(&self, i: usize, j: usize, len: usize) {
        debug_assert!(i + len <= self.len && j + len <= self.len);
        debug_assert!(i + len <= j || j + len <= i, "ranges overlap");
        // SAFETY: caller guarantees both ranges in bounds, disjoint
        // from each other (the `swap_nonoverlapping` contract), and
        // untouched by concurrent tasks.
        unsafe { std::ptr::swap_nonoverlapping(self.ptr.add(i), self.ptr.add(j), len) };
    }

    /// Reborrow a contiguous sub-range as a mutable slice.
    ///
    /// # Safety
    /// The range must be in bounds and no concurrent task may access any
    /// index in it for the lifetime of the returned slice.
    #[inline]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start + len <= self.len);
        // SAFETY: caller guarantees the range in bounds and exclusively
        // ours for `'a`, so materializing it as `&'a mut [T]` aliases
        // nothing.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut v = vec![1u32, 2, 3, 4];
        let s = SharedSlice::new(&mut v);
        // SAFETY: single-threaded, all indices < 4, ranges disjoint.
        unsafe {
            s.swap(0, 3);
            assert_eq!(s.read(0), 4);
            s.write(1, 99);
            let sub = s.slice_mut(2, 2);
            sub[0] = 7;
        }
        assert_eq!(v, vec![4, 99, 7, 1]);
    }

    #[test]
    fn parallel_disjoint_swaps() {
        // Each rayon task touches a disjoint pair -> sound.
        use rayon::prelude::*;
        let n = 1 << 12;
        let mut v: Vec<u64> = (0..n).collect();
        let s = SharedSlice::new(&mut v);
        // SAFETY: task `i` touches exactly the pair (i, n-1-i), and
        // i < n/2 keeps the pairs disjoint across tasks and in bounds.
        (0..n as usize / 2).into_par_iter().for_each(|i| unsafe {
            s.swap(i, n as usize - 1 - i);
        });
        assert!(v.iter().rev().copied().eq(0..n));
    }
}
