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
//!
//! [`unshuffle_units`] is the pass for a region too large for the
//! scratch: a `k`-way un-shuffle of scratch-sized units, each moved once
//! along the permutation's cycles through a one-unit buffer, with a
//! stack bitmap of [`UNIT_MAP_BITS`] bits marking the slots filled.
//! `ist_core`'s extended gather runs it on `Ram` after a
//! [`permute_direct`] pass per block, which turns each block into whole
//! units.

use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr;

/// Bytes of stack scratch one direct permutation may use: 1 024 `u64`s,
/// so a perfect vEB subtree of `2^10 − 1` keys, 512 BST leaf runs or 81
/// B-tree leaf runs of 8 keys. A direct permutation holds twice this on
/// its stack: the scratch, and one byte per element for its check —
/// 16 KiB of a worker thread's 2 MiB.
///
/// Sweep: the benchmark of record's `construct` `throughput_kops_s`
/// (cycle-leader `permute_in_place` of 2^20 − 1 and 10^6 `u64`s into
/// bst, B-tree with `b = 8` and vEB, geometric mean; seed 1, 10 s, 2
/// vCPUs), builds at 2, 4, 8 and 16 KiB and at `fda4be5` (2 KiB, an
/// eight-level vEB table, one gather cycle at a time) run in turn four
/// times, alternating the order; thousands of keys a second, per run.
/// `fda4be5` 139 / 193 / 188 / 142, 2 KiB 166 / 240 / 204 / 169,
/// 4 KiB 176 / 229 / 204 / 189, 8 KiB 214 / 236 / 216 / 183, 16 KiB
/// 213 / 236 / 219 / 209 (medians 165, 187, 197, 215, 216). At 8 KiB
/// every height-10 vEB subtree and every 81-run B-tree block is one
/// pass; 16 KiB adds nothing the box can tell apart, so the budget is
/// the smaller.
pub const SCRATCH_BYTES: usize = 8192;

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
/// use ist_perm::{fits_scratch, SCRATCH_BYTES};
/// assert!(fits_scratch::<u64>(SCRATCH_BYTES / 8));
/// assert!(!fits_scratch::<u64>(SCRATCH_BYTES / 8 + 1));
/// assert!(!fits_scratch::<[u8; SCRATCH_BYTES + 64]>(1));
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
    /// Fill the next `order.len()` slots of the result, one each, with
    /// the region elements `order` names, with one compare an element.
    ///
    /// # Panics
    /// If fewer than `order.len()` slots are left to fill, or an index
    /// is past the region.
    #[inline]
    pub fn pick_order(&mut self, order: &[u16]) {
        assert!(
            order.len() <= self.len - self.filled,
            "picking {} elements overruns a region of {} ({} filled)",
            order.len(),
            self.len,
            self.filled
        );
        for (slot, &at) in (self.filled..).zip(order) {
            let at = usize::from(at);
            assert!(
                at < self.len,
                "picking element {at} of a region of {}",
                self.len
            );
            // SAFETY: `at < self.len` (asserted just above) and `slot <
            // filled + order.len() ≤ self.len` (asserted on entry), so
            // both lie inside the region, the scratch and the initialized
            // prefix of `taken`; the copy is bitwise, as in `pick_runs`.
            unsafe {
                ptr::write(self.dst.add(slot), ptr::read(self.src.add(at)));
                *self.taken.add(at) = 1;
            }
        }
        self.filled += order.len();
    }

    /// Fill the next `runs · run_len` slots with `runs` runs of `run_len`
    /// elements, the first at `from`, each next `stride` elements after
    /// the last (run `i` is elements `from + i · stride` up to `from + i ·
    /// stride + run_len`), with one bounds check for all of them.
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
/// there ([`Picker::pick_runs`], [`Picker::pick_order`]), then the
/// scratch is copied back over `data`.
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
/// permute_direct(&mut v, |p| p.pick_order(&[1, 3, 5, 0, 2, 4, 6]));
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
    // was taken exactly once. A byte is only ever 0 or 1, so "all are 1"
    // is an AND over the bytes: a fold with no early exit, which the
    // compiler vectorizes (24–28 ns at 1 023 bytes, against 470–810 for
    // a compare and branch a byte and 90–155 for a `memchr` for 0).
    assert!(
        picker.filled == len && taken.iter().fold(1, |all, &t| all & t) == 1,
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

/// Units one [`unshuffle_units`] call may move: one bit each of its
/// visited map, which takes [`SCRATCH_BYTES`] of stack again (64 Ki).
pub const UNIT_MAP_BITS: usize = 8 * SCRATCH_BYTES;

/// The `k`-way un-shuffle of `data`'s units of `unit` elements, each
/// unit moved once. `data` is `m` groups of `k` units; the first unit of
/// every group goes to the front, order kept, and the other `k − 1` of
/// every group follow it, order kept: unit `i·k` to slot `i`, unit `i·k
/// + j` (`1 ≤ j < k`) to slot `m + i·(k − 1) + j − 1`.
///
/// The permutation's cycles are walked one at a time through a one-unit
/// buffer in the scratch, each unit copied straight into its slot, and a
/// stack bitmap of [`UNIT_MAP_BITS`] bits marks the slots filled. It
/// makes no heap allocation. Every check runs before the first copy into
/// the buffer; from there to a cycle's last write only index arithmetic
/// on the checked bounds and bitwise copies run, so nothing can panic
/// while a unit lives only in the buffer.
///
/// # Panics
/// If `unit` or `k` is zero, a unit does not [fit the
/// scratch](fits_scratch), `data` is not whole groups, or it holds more
/// than [`UNIT_MAP_BITS`] units. Each leaves `data` as it was.
///
/// # Examples
/// ```
/// use ist_perm::unshuffle_units;
/// // Two groups of three two-element units.
/// let mut v = vec![0, 1, 10, 11, 20, 21, 2, 3, 12, 13, 22, 23];
/// unshuffle_units(&mut v, 2, 3);
/// assert_eq!(v, vec![0, 1, 2, 3, 10, 11, 20, 21, 12, 13, 22, 23]);
/// ```
pub fn unshuffle_units<T>(data: &mut [T], unit: usize, k: usize) {
    let len = data.len();
    assert!(
        unit > 0 && k > 0 && fits_scratch::<T>(unit),
        "units of {unit} elements of {} bytes, {k} to a group, do not fit the \
         {SCRATCH_BYTES}-byte scratch",
        size_of::<T>()
    );
    let group = unit.checked_mul(k);
    assert!(
        group.is_some_and(|group| len.is_multiple_of(group)) && len / unit <= UNIT_MAP_BITS,
        "{len} elements are not whole groups of {k} units of {unit}, or more than \
         {UNIT_MAP_BITS} units"
    );
    if size_of::<T>() == 0 || k == 1 {
        return; // nothing moves, or every unit is already in its slot
    }
    let units = len / unit;
    let m = units / k;
    // The unit that belongs in slot `s`. Every value is below `units ≤
    // UNIT_MAP_BITS`, so nothing here overflows.
    let source = |s: usize| {
        if s < m {
            s * k
        } else {
            let t = s - m;
            t / (k - 1) * k + t % (k - 1) + 1
        }
    };
    let mut filled = [0u64; UNIT_MAP_BITS / 64];
    let mut buffer = Scratch(MaybeUninit::uninit());
    let buffer = buffer.0.as_mut_ptr().cast::<T>();
    let base = data.as_mut_ptr();
    for leader in 0..units {
        if (filled[leader / 64] >> (leader % 64)) & 1 == 1 {
            continue;
        }
        let mut hole = leader;
        let mut from = source(hole);
        mark(&mut filled, hole);
        if from == leader {
            continue; // a unit already in its slot
        }
        // SAFETY: every unit index is below `units`, so `index · unit +
        // unit ≤ len`: all copies stay inside `data`, and the buffer holds
        // one unit (`fits_scratch` above, which also checked `T`'s
        // alignment). `from ≠ hole` on every copy, and distinct units are
        // disjoint. The cycle starts by copying the leader into the buffer
        // and then fills each hole from the unit that belongs there, which
        // leaves that unit's slot the next hole; the last hole takes the
        // buffer. So every unit of the cycle is written exactly once, to
        // its slot, and none is duplicated or lost; between the first copy
        // and the last no operation can panic (see above).
        unsafe {
            ptr::copy_nonoverlapping(base.add(leader * unit), buffer, unit);
            while from != leader {
                ptr::copy_nonoverlapping(base.add(from * unit), base.add(hole * unit), unit);
                hole = from;
                from = source(hole);
                mark(&mut filled, hole);
            }
            ptr::copy_nonoverlapping(buffer, base.add(hole * unit), unit);
        }
    }
}

/// Set bit `s` of `map`. `get_mut` rather than an index: a bit past the
/// map, which [`unshuffle_units`]' checks rule out, is left unset
/// instead of panicking in the middle of a cycle.
#[inline]
fn mark(map: &mut [u64], s: usize) {
    if let Some(word) = map.get_mut(s / 64) {
        *word |= 1 << (s % 64);
    }
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
                p.pick_runs(3 * run, 0, 3, 1);
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
            let order: Vec<u16> = (0..n).map(|i| ((i + 1) % n) as u16).collect();
            permute_direct(&mut v, |p| p.pick_order(&order));
            let mut expect: Vec<u64> = (0..n as u64).collect();
            expect.rotate_left(1.min(n));
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn order_picks_each_named_element() {
        let mut v: Vec<String> = (0..7).map(|i| i.to_string()).collect();
        permute_direct(&mut v, |p| {
            p.pick_runs(6, 0, 1, 1);
            p.pick_order(&[3, 1, 5]);
            p.pick_order(&[]);
            p.pick_order(&[0, 2, 4]);
        });
        assert_eq!(v, ["6", "3", "1", "5", "0", "2", "4"]);
    }

    /// A plan that takes an element twice, leaves a slot unfilled,
    /// overruns, names an element past the region or panics is refused,
    /// and the region keeps its elements.
    #[test]
    fn bad_plans_leave_the_region_untouched() {
        type Plan<'p> = &'p dyn Fn(&mut Picker<'_, String>);
        let plans: [Plan<'_>; 10] = [
            &|p| {
                p.pick_runs(0, 0, 1, 1);
                p.pick_runs(0, 0, 1, 1);
                p.pick_runs(2, 0, 2, 1);
            },
            &|p| p.pick_runs(0, 0, 3, 1),
            &|p| p.pick_runs(2, 0, 3, 1),
            &|p| p.pick_runs(0, 0, 5, 1),
            &|p| {
                p.pick_runs(0, 0, 4, 1);
                p.pick_runs(0, 0, 1, 1);
            },
            &|p| {
                p.pick_runs(0, 0, 2, 1);
                panic!("plan failed");
            },
            // `pick_order`: an index past the region, a repeated index,
            // an overrun, and one past the region after good picks.
            &|p| p.pick_order(&[0, 1, 2, 4]),
            &|p| p.pick_order(&[0, 1, 1, 3]),
            &|p| p.pick_order(&[0, 1, 2, 3, 0]),
            &|p| {
                p.pick_runs(0, 0, 2, 1);
                p.pick_order(&[3, 7]);
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

    /// `unshuffle_units` against an out-of-place un-shuffle.
    fn reference_unshuffle<T: Clone>(data: &[T], unit: usize, k: usize) -> Vec<T> {
        let units: Vec<&[T]> = data.chunks(unit).collect();
        let firsts = units.iter().step_by(k);
        let rest = units.chunks(k).flat_map(|group| &group[1..]);
        firsts.chain(rest).flat_map(|u| u.iter().cloned()).collect()
    }

    #[test]
    fn unshuffle_units_matches_the_reference() {
        for (unit, k) in [(1usize, 2usize), (1, 9), (3, 2), (5, 4), (113, 9), (341, 2)] {
            for m in [0usize, 1, 2, 3, 7, 10] {
                let len = m * k * unit;
                let sorted: Vec<String> = (0..len).map(|i| i.to_string()).collect();
                let mut v = sorted.clone();
                unshuffle_units(&mut v, unit, k);
                assert!(
                    v == reference_unshuffle(&sorted, unit, k),
                    "unit={unit} k={k} m={m}"
                );
            }
        }
        // At the map's capacity, and `k = 1` (the identity).
        let len = UNIT_MAP_BITS;
        let mut v: Vec<u32> = (0..len as u32).collect();
        unshuffle_units(&mut v, 1, 16);
        assert!(v == reference_unshuffle(&(0..len as u32).collect::<Vec<_>>(), 1, 16));
        let mut v: Vec<u32> = (0..12).collect();
        unshuffle_units(&mut v, 3, 1);
        assert!(v.iter().copied().eq(0..12));
    }

    /// Arguments the pass cannot take are refused before any element
    /// moves: the region keeps its elements.
    #[test]
    fn unshuffle_units_refuses_before_moving() {
        let cases: [(usize, usize, usize); 6] = [
            (12, 0, 2),                    // no unit
            (12, 3, 0),                    // no group
            (10, 3, 2),                    // not whole groups
            (12, SCRATCH_BYTES, 2),        // a unit past the scratch
            (12, 2, usize::MAX),           // a group that overflows
            (2 * UNIT_MAP_BITS + 2, 1, 2), // one group past the map
        ];
        for (len, unit, k) in cases {
            let mut v: Vec<String> = (0..len).map(|i| i.to_string()).collect();
            let result = catch_unwind(AssertUnwindSafe(|| unshuffle_units(&mut v, unit, k)));
            assert!(result.is_err(), "len={len} unit={unit} k={k} was accepted");
            assert!(
                v.iter().enumerate().all(|(i, s)| *s == i.to_string()),
                "len={len} unit={unit} k={k}"
            );
        }
    }

    #[test]
    fn zero_sized_moves_nothing() {
        let mut v = vec![(); 1 << 20];
        permute_direct(&mut v, |_| unreachable!("no plan for zero-sized elements"));
        assert_eq!(v.len(), 1 << 20);
    }
}
