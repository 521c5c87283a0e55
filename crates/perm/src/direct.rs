//! One-pass permutation of a small region through a fixed stack scratch.
//!
//! The constructions decompose every permutation into the primitives
//! the paper analyzes, and recurse until those are tiny: a cycle-leader
//! BST level ends in one three-element gather per leaf and one chunked
//! gather per internal node of its recursion. On a region of a few
//! hundred elements that decomposition costs more than the moves
//! themselves. The paper's GPU implementation stops earlier, permuting
//! each small subtree in one thread block's shared memory; this module
//! is the RAM analogue. [`permute_direct`] copies a region that fits
//! [`SCRATCH_BYTES`] into a stack buffer once, every element straight
//! to its final slot, and copies the buffer back.
//!
//! The kernel is safe to call with any plan. The plan runs while the
//! region is untouched and the scratch holds only bitwise copies, so a
//! plan that panics leaves the region as it was. The copy back runs only
//! after the kernel has checked that the plan filled every slot once
//! and took every element once; between that check and the copy no
//! other code runs. It makes no heap allocation.

use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr;

/// Bytes of stack scratch one direct permutation may use: 256 `u64`s,
/// so a perfect vEB subtree of `2^8 − 1` keys or 128 BST leaf runs. A
/// direct permutation holds twice this on its stack: the scratch, and
/// one byte per element for its check.
///
/// Sweep: cycle-leader `permute_in_place` and `permute_in_place_seq` of
/// 2^20 − 1 `u64`s per layout (bst, B-tree with `b = 8`, vEB), 2 vCPUs,
/// builds at 512 B, 1, 2, 4 and 8 KiB run in turn five times, each run
/// a median of nine. Best run per budget, parallel bst: 5.1 / 4.9 / 4.2
/// / 3.8 / 4.2 ms, sequential bst: 8.1 / 7.6 / 7.3 / 7.7 / 6.7 ms. The
/// B-tree and vEB rows did not move beyond the box's noise (vEB's
/// direct subtrees at 2^20 have 31 keys at every budget). Below 2 KiB
/// the parallel bst row is slower; above it no row is reliably faster,
/// so the budget is the smallest of the fast ones.
pub const SCRATCH_BYTES: usize = 2048;

/// The scratch: cache-line aligned, so any element whose alignment is at
/// most 64 bytes can live in it.
#[repr(C, align(64))]
struct Scratch(MaybeUninit<[u8; SCRATCH_BYTES]>);

/// Whether `len` elements of `T` fit the scratch of [`permute_direct`]:
/// at most [`SCRATCH_BYTES`] bytes, and an alignment the scratch has.
/// Every length of a zero-sized `T` fits.
///
/// # Examples
/// ```
/// use ist_perm::fits_scratch;
/// assert!(fits_scratch::<u64>(256));
/// assert!(!fits_scratch::<u64>(257));
/// assert!(!fits_scratch::<[u8; 4096]>(1));
/// assert!(fits_scratch::<()>(usize::MAX));
/// ```
#[inline]
pub fn fits_scratch<T>(len: usize) -> bool {
    align_of::<T>() <= align_of::<Scratch>()
        && len
            .checked_mul(size_of::<T>())
            .is_some_and(|bytes| bytes <= SCRATCH_BYTES)
}

/// The plan's handle on a [`permute_direct`]: it fills the result's
/// slots in order, each from the region element it names.
pub struct Picker<'a, T> {
    /// First element of the region.
    src: *const T,
    /// First slot of the scratch.
    dst: *mut T,
    /// Region length.
    len: usize,
    /// Slots filled so far: the next to fill is `dst[filled]`.
    filled: usize,
    /// `taken[i] == 1` once element `i` has been picked; its first `len`
    /// bytes are initialized. A byte, not a bit, per element: setting
    /// one is a plain store, where a bit costs a read-modify-write chain
    /// that made a one-element-at-a-time plan about four times slower
    /// (4.9 against 1.0 ns an element at 255 `u64`s).
    taken: *mut u8,
    _marker: PhantomData<&'a mut [T]>,
}

impl<T> Picker<'_, T> {
    /// Fill the next `count` slots of the result with elements
    /// `from..from + count` of the region.
    ///
    /// # Panics
    /// If fewer than `count` slots are left to fill, or `from + count`
    /// exceeds the region's length.
    #[inline]
    pub fn pick(&mut self, from: usize, count: usize) {
        self.pick_runs(from, 0, count, 1);
    }

    /// Fill the next `runs · run_len` slots with `runs` runs of `run_len`
    /// elements, the first at `from`, each next `stride` elements after
    /// the last: [`Picker::pick`]`(from + i · stride, run_len)` for each run
    /// `i`, with one bounds check for all of them.
    ///
    /// # Panics
    /// If fewer than `runs · run_len` slots are left to fill, or the last
    /// run ends past the region.
    #[inline]
    pub fn pick_runs(&mut self, from: usize, stride: usize, run_len: usize, runs: usize) {
        if runs == 0 {
            return;
        }
        let last = (runs - 1)
            .checked_mul(stride)
            .and_then(|offset| offset.checked_add(from));
        let total = runs.checked_mul(run_len);
        assert!(
            last.zip(total).is_some_and(|(last, total)| {
                total <= self.len - self.filled && last <= self.len && run_len <= self.len - last
            }),
            "picking {runs} runs of {run_len} from {from} by {stride} overruns a region of {} \
             ({} filled)",
            self.len,
            self.filled
        );
        for run in 0..runs {
            let at = from + run * stride;
            // SAFETY: `at + run_len ≤ from + (runs − 1) · stride +
            // run_len ≤ self.len` and `filled + run_len ≤ self.len`
            // (asserted above for the last run and for all runs' total),
            // so both ranges lie inside the region, the scratch and the
            // initialized prefix of `taken`; the region and the scratch
            // are distinct allocations. The copy is bitwise: the region
            // keeps its elements until `permute_direct` copies the
            // scratch back.
            unsafe {
                let (from_ptr, into) = (self.src.add(at), self.dst.add(self.filled));
                if run_len == 1 {
                    ptr::write(into, ptr::read(from_ptr));
                    *self.taken.add(at) = 1;
                } else {
                    ptr::copy_nonoverlapping(from_ptr, into, run_len);
                    ptr::write_bytes(self.taken.add(at), 1, run_len);
                }
            }
            self.filled += run_len;
        }
    }
}

/// Permute `data` in one pass through a stack scratch: `plan` fills the
/// result's slots in order, each with the element of `data` that belongs
/// there ([`Picker::pick`]), then the scratch is copied back over `data`.
///
/// A zero-sized `T` moves no bytes, so `plan` is not called.
///
/// # Panics
/// If `data` does not [fit the scratch](fits_scratch), if `plan` does
/// not pick each element exactly once, or if `plan` panics. Each leaves
/// `data` as it was.
///
/// # Examples
/// ```
/// use ist_perm::permute_direct;
/// // Odd positions to the front, even ones after, each group in order.
/// let mut v = vec![0, 1, 2, 3, 4, 5, 6];
/// permute_direct(&mut v, |p| {
///     for i in [1, 3, 5, 0, 2, 4, 6] {
///         p.pick(i, 1);
///     }
/// });
/// assert_eq!(v, vec![1, 3, 5, 0, 2, 4, 6]);
/// ```
pub fn permute_direct<T>(data: &mut [T], plan: impl FnOnce(&mut Picker<'_, T>)) {
    let len = data.len();
    assert!(
        fits_scratch::<T>(len),
        "{len} elements of {} bytes do not fit the {SCRATCH_BYTES}-byte scratch",
        size_of::<T>()
    );
    if size_of::<T>() == 0 {
        return;
    }
    let mut scratch = Scratch(MaybeUninit::uninit());
    // One byte per element: `len ≤ SCRATCH_BYTES` as `T` is not
    // zero-sized.
    let mut taken_bytes = [MaybeUninit::<u8>::uninit(); SCRATCH_BYTES];
    let taken = taken_bytes.as_mut_ptr().cast::<u8>();
    // SAFETY: `len ≤ SCRATCH_BYTES`, so the zeroed prefix is in bounds.
    unsafe { ptr::write_bytes(taken, 0, len) };
    let base = data.as_mut_ptr();
    let mut picker = Picker {
        src: base,
        dst: scratch.0.as_mut_ptr().cast::<T>(),
        len,
        filled: 0,
        taken,
        _marker: PhantomData,
    };
    plan(&mut picker);
    // SAFETY: the first `len` bytes of `taken` were zeroed above and
    // only ever set to 1 since.
    let taken = unsafe { std::slice::from_raw_parts(taken, len) };
    // `len` picks filled `len` slots; with every element taken, each
    // was taken exactly once.
    assert!(
        picker.filled == len && taken.iter().all(|&t| t == 1),
        "a direct permutation must pick every element exactly once"
    );
    // SAFETY: the check above proved that the scratch's first `len`
    // slots hold a bitwise copy of each element of `data` exactly once,
    // and `T`'s alignment fits the scratch (`fits_scratch`). Overwriting
    // `data` without dropping moves every element to its slot: none is
    // duplicated or lost. The scratch is a separate stack buffer, so the
    // ranges do not overlap.
    unsafe { ptr::copy_nonoverlapping(picker.dst, base, len) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fits_counts_bytes_and_alignment() {
        assert!(fits_scratch::<u8>(SCRATCH_BYTES));
        assert!(!fits_scratch::<u8>(SCRATCH_BYTES + 1));
        assert!(fits_scratch::<u64>(SCRATCH_BYTES / 8));
        assert!(!fits_scratch::<u64>(SCRATCH_BYTES / 8 + 1));
        assert!(!fits_scratch::<u64>(usize::MAX));

        #[repr(align(128))]
        struct Wide(#[allow(dead_code)] u8);
        assert!(!fits_scratch::<Wide>(1));
    }

    #[test]
    fn block_picks_reverse_runs() {
        // Runs of 3 in reverse order: [0 1 2 | 3 4 5 | 6 7 8] ->
        // [6 7 8 | 3 4 5 | 0 1 2].
        let mut v: Vec<String> = (0..9).map(|i| i.to_string()).collect();
        permute_direct(&mut v, |p| {
            for run in (0..3).rev() {
                p.pick(3 * run, 3);
            }
        });
        let expect: Vec<String> = [6, 7, 8, 3, 4, 5, 0, 1, 2]
            .iter()
            .map(|i| i.to_string())
            .collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn every_length_up_to_the_budget() {
        for n in 0..=SCRATCH_BYTES / 8 {
            let mut v: Vec<u64> = (0..n as u64).collect();
            // Rotate left by one.
            permute_direct(&mut v, |p| {
                for i in 0..n {
                    p.pick((i + 1) % n, 1);
                }
            });
            let mut expect: Vec<u64> = (0..n as u64).collect();
            expect.rotate_left(1.min(n));
            assert_eq!(v, expect, "n={n}");
        }
    }

    /// A plan that takes an element twice, leaves a slot unfilled,
    /// overruns or panics is refused, and the region keeps its elements.
    #[test]
    fn bad_plans_leave_the_region_untouched() {
        type Plan<'p> = &'p dyn Fn(&mut Picker<'_, String>);
        let plans: [Plan<'_>; 6] = [
            &|p| {
                p.pick(0, 1);
                p.pick(0, 1);
                p.pick(2, 2);
            },
            &|p| p.pick(0, 3),
            &|p| p.pick(2, 3),
            &|p| p.pick(0, 5),
            &|p| {
                p.pick(0, 4);
                p.pick(0, 1);
            },
            &|p| {
                p.pick(0, 2);
                panic!("plan failed");
            },
        ];
        for (case, plan) in plans.iter().enumerate() {
            let mut v: Vec<String> = (0..4).map(|i| i.to_string()).collect();
            let result = catch_unwind(AssertUnwindSafe(|| permute_direct(&mut v, plan)));
            assert!(result.is_err(), "plan {case} was accepted");
            assert_eq!(v, ["0", "1", "2", "3"], "plan {case}");
        }
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn too_large_is_refused() {
        let mut v = vec![0u64; SCRATCH_BYTES / 8 + 1];
        permute_direct(&mut v, |_| {});
    }

    #[test]
    fn zero_sized_moves_nothing() {
        let mut v = vec![(); 1 << 20];
        permute_direct(&mut v, |_| unreachable!("no plan for zero-sized elements"));
        assert_eq!(v.len(), 1 << 20);
    }
}
