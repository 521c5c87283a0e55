//! # ist-gather
//!
//! The **equidistant gather** family — the workhorse of the paper's
//! cycle-leader construction algorithms (Chapter 3).
//!
//! Given an array interleaving `r` "gather" elements among `r + 1` blocks
//! of `l` elements each,
//!
//! ```text
//! [ T₁ (l) | t₁ | T₂ (l) | t₂ | … | T_r (l) | t_r | T_{r+1} (l) ]
//! ```
//!
//! the equidistant gather permutes it to
//!
//! ```text
//! [ t₁ … t_r | T₁ (l) | T₂ (l) | … | T_{r+1} (l) ]
//! ```
//!
//! in place. In the vEB construction the `tᵢ` are the root subtree `T₀`'s
//! keys and the `Tⱼ` are bottom subtrees; in the B-tree construction the
//! `tᵢ` are internal keys and the `Tⱼ` leaf runs.
//!
//! Variants provided:
//!
//! * [`equidistant_gather_chunks`] — the two-stage cycle-leader algorithm
//!   (`r ≤ l`, §3.1) on *chunks* of `C` elements treated as units, as the
//!   B-tree algorithm applies it at every level (§3.2): `r` disjoint
//!   anti-diagonal cycles, run in bands of adjacent cycles in lockstep,
//!   then one circular shift per block. Every move swaps a run of whole
//!   chunks as one block, which makes it I/O-efficient for `C ≥ B`.
//! * [`equidistant_gather`] — the same gather on one-element chunks.
//!
//! Each stage decides by the floor rule, as every dispatch site in the
//! workspace does: below two floors of moves
//! ([`rayon::min_task_len`]`(`[`MOVE_COST_NS`]`)` elements each) or in
//! a one-thread pool ([`rayon::current_num_threads`]` == 1`) it runs on
//! the calling thread, and otherwise it deals tasks of at least a floor
//! to the pool, so "sequential" means a one-thread pool here as
//! everywhere else in the workspace.
//!
//! These are `Ram`'s gather primitives. The **extended** equidistant
//! gather (`r > l`, §3.2) is composed from them once, generic over the
//! machine, in `ist_core::algorithms`. On `Ram` that composition runs
//! only above the unit map: an extended gather whose scratch-sized
//! units fit `ist_perm::UNIT_MAP_BITS` (about 7.4 M `u64`s at `b = 8`,
//! 33 M at `b = 1`) is a scratch pass per block and one cycle pass over
//! the units instead. Below it, `Ram`'s constructions call these for the
//! vEB splits only. [`swap_regions_par`], re-exported
//! here, is Figure 6.4's big-block baseline beside the chunked gather.

pub use ist_shuffle::rotate::swap_regions_par;

use ist_perm::{SharedSlice, MOVE_COST_NS};
use rayon::prelude::*;

/// Expected array length for gather parameters `r` (gather elements) and
/// `l` (block size): `r + (r + 1) · l`.
///
/// # Examples
/// ```
/// use ist_gather::gather_len;
/// assert_eq!(gather_len(3, 3), 15);
/// assert_eq!(gather_len(0, 5), 5);
/// ```
#[inline]
pub fn gather_len(r: usize, l: usize) -> usize {
    r + (r + 1) * l
}

/// Original slot of gather element `t_c` (`c` is 1-indexed).
///
/// # Examples
/// ```
/// use ist_gather::t0_slot;
/// assert_eq!(t0_slot(1, 3), 3); // first gather element follows T₁
/// assert_eq!(t0_slot(2, 3), 7);
/// ```
#[inline]
pub fn t0_slot(c: usize, l: usize) -> usize {
    (c - 1) * (l + 1) + l
}

/// Slot of position `m` on gather cycle `c` (1-indexed): `m = 0` is the
/// gather element `t_c`; `m ≥ 1` is `T_m[c−m+1]`. The cycle rotates the
/// value at position `m` to position `m + 1 (mod c+1)`.
///
/// Exposed so instrumented replays (the PEM simulator) can trace the
/// exact cycle structure the production gather executes.
///
/// # Examples
/// ```
/// use ist_gather::{cycle_slot, t0_slot};
/// assert_eq!(cycle_slot(0, 2, 3), t0_slot(2, 3));
/// assert_eq!(cycle_slot(1, 2, 3), 1); // T₁[2]
/// assert_eq!(cycle_slot(2, 2, 3), 4); // T₂[1]
/// ```
#[inline]
pub fn cycle_slot(m: usize, c: usize, l: usize) -> usize {
    if m == 0 {
        t0_slot(c, l)
    } else {
        (m - 1) * (l + 1) + (c - m)
    }
}

/// One-element units in one band of a parallel stage 1: a band is
/// `BAND.div_ceil(chunk)` cycles of `chunk`-element units, so 64 cycles
/// of single elements and one cycle from 64-element chunks up, where a
/// chunk is already a run of adjacent elements. One band of all `r`
/// cycles is fastest, and the calling thread runs that; the pool needs
/// bands to deal out, and bands of 64 are as fast as bands of 128 while
/// leaving 16 of them at `r = 1023`.
///
/// Sweep: the stage 1 of a 2^20 − 1 vEB build's top gather (`r = l =
/// 1023`, `u64`), one thread, medians of nine, three runs: one cycle at
/// a time 2.29–2.71 ms; bands of 16 / 32 / 64 / 128 cycles 0.89–0.91 /
/// 0.75–0.79 / 0.68–0.71 / 0.70–0.72 ms; all 1 023 cycles as one band
/// 0.48–0.50 ms.
const BAND: usize = 64;

/// Stage 1 on cycles `first..=last` (1-indexed), in lockstep, on units
/// of `chunk` elements. Cycle `c` rotates the units `[t_c, T₁[c],
/// T₂[c−1], …, T_c[1]]` forward by one, which moves `t_c` to front unit
/// `c − 1` and every touched `Tⱼ` unit into `Tⱼ`'s destination block
/// (rotated; fixed by stage 2). It does so in `c` swaps down the cycle
/// ([`cycle_slot`] `m` with `m − 1`, for `m = c, …, 1`): for `m ≥ 2`
/// those are units `(m − 1)·l + c − 1` and `(m − 2)·l + c − 1`, so at
/// step `m` the band's cycles that reach it (`c ≥ m`) swap two runs of
/// adjacent units `l` apart, where one cycle alone would touch one unit
/// of a new line at every step. The last step swaps each front unit
/// with its `t_c`. Each cycle keeps its own order of steps and distinct
/// cycles touch disjoint units, so the lockstep moves what the cycles
/// one at a time would. Every swap is one [`swap_regions_par`], which
/// fans a run of at least two floors out to the pool.
#[inline]
fn run_band<T: Send>(data: &mut [T], first: usize, last: usize, l: usize, chunk: usize) {
    for m in (2..=last).rev() {
        let from = first.max(m);
        let at = ((m - 1) * l + from - 1) * chunk;
        // `last + 1 − from ≤ r ≤ l` units: the two runs do not overlap.
        swap_regions_par(data, at - l * chunk, at, (last + 1 - from) * chunk);
    }
    for c in first..=last {
        swap_regions_par(data, (c - 1) * chunk, t0_slot(c, l) * chunk, chunk);
    }
}

/// Equidistant gather treating each `chunk` consecutive elements as one
/// unit (cycle-leader, two stages).
///
/// Requires `r ≤ l`, `l ≥ 1`, `chunk ≥ 1`, and `data.len() ==
/// gather_len(r, l) · chunk`.
///
/// Stage 1 runs its `r` cycles as one band on the calling thread below
/// two floors of moves (`2 ·` [`rayon::min_task_len`]`(`[`MOVE_COST_NS`]`)`
/// elements), in a one-thread pool, or when one chunk alone is two
/// floors. Then each run swap fans out by itself: the top of the B-tree
/// and BST recursions is bound by big-block swap throughput (Figure
/// 6.4), not by cycle-level parallelism, and with `r = 1` this is the
/// BST construction's only parallel path on a machine that runs its
/// gathers (on `Ram`, that is above the unit map only: see the crate
/// documentation). Otherwise bands of adjacent
/// cycles run concurrently (they are unit-disjoint), band `i` in one
/// task with the band as far from the end, in tasks of at least a floor
/// of moves. Stage 2 decides by its own moves the same way.
///
/// # Examples
/// ```
/// use ist_gather::equidistant_gather_chunks;
/// // r = 1, l = 1, chunk = 2: [T1 (2 elems) | t1 (2) | T2 (2)]
/// let mut v = vec![10, 11, 0, 1, 20, 21];
/// equidistant_gather_chunks(&mut v, 1, 1, 2);
/// assert_eq!(v, vec![0, 1, 10, 11, 20, 21]);
/// ```
pub fn equidistant_gather_chunks<T: Send>(data: &mut [T], r: usize, l: usize, chunk: usize) {
    check_params(data.len(), r, l, chunk);
    let (n, floor) = (data.len(), rayon::min_task_len(MOVE_COST_NS));
    if n < 2 * floor || chunk >= 2 * floor || rayon::current_num_threads() == 1 {
        run_band(data, 1, r, l, chunk);
    } else {
        let band = BAND.div_ceil(chunk);
        let shared = SharedSlice::new(data);
        par_pairs(r.div_ceil(band), stage_one_moves(r, chunk), |u| {
            let first = u * band + 1;
            // SAFETY: each band runs cycles of its own, and distinct
            // cycles touch disjoint unit sets (gather unit t_c and the
            // anti-diagonal {row + col = c - 1} of the conceptual
            // matrix), so concurrent tasks never alias.
            let whole = unsafe { shared.slice_mut(0, n) };
            run_band(whole, first, (first + band - 1).min(r), l, chunk);
        });
    }
    fix_blocks(data, r, l, chunk);
}

/// Equidistant gather (cycle-leader, two stages): the chunked gather on
/// one-element chunks.
///
/// Requires `r ≤ l`, `l ≥ 1`, and `data.len() == gather_len(r, l)`.
///
/// # Examples
/// ```
/// use ist_gather::equidistant_gather;
/// // r = 2, l = 2: [T1a T1b t1 T2a T2b t2 T3a T3b]
/// let mut v = vec![10, 11, 0, 20, 21, 1, 30, 31];
/// equidistant_gather(&mut v, 2, 2);
/// assert_eq!(v, vec![0, 1, 10, 11, 20, 21, 30, 31]);
/// ```
pub fn equidistant_gather<T: Send>(data: &mut [T], r: usize, l: usize) {
    equidistant_gather_chunks(data, r, l, 1);
}

/// Elements stage 1 moves: cycle `c` moves `c + 1` units of `chunk`
/// elements.
fn stage_one_moves(r: usize, chunk: usize) -> usize {
    r * (r + 3) / 2 * chunk
}

/// Pairs of units a parallel task of [`par_pairs`] takes: at least a
/// floor of moves ([`rayon::min_task_len`]) when `units` units move
/// `moves` elements.
fn pairs_per_task(units: usize, moves: usize) -> usize {
    let pair_moves = (moves / units.div_ceil(2).max(1)).max(1);
    rayon::min_task_len(MOVE_COST_NS).div_ceil(pair_moves)
}

/// Run `f(u)` for every unit `u` of `0..units` on the pool, dealt in
/// pairs `{u, units − 1 − u}`, at least a floor of moves a task. A
/// gather's bands of cycles grow in cost by the same step one to the
/// next, so every pair costs about the same and a task of the first
/// pairs moves as much as one of the last; `moves` is all the units'
/// elements moved.
fn par_pairs(units: usize, moves: usize, f: impl Fn(usize) + Sync) {
    (0..units.div_ceil(2))
        .into_par_iter()
        .with_min_len(pairs_per_task(units, moves))
        .for_each(|u| {
            f(u);
            let twin = units - 1 - u;
            if twin != u {
                f(twin);
            }
        });
}

/// Stage 2, on units of `chunk` elements: block `j0` (0-indexed, `l`
/// units from unit `r + j0·l`) is rotated left by `r − j0`; rotate it
/// back. With `r ≤ l`, amounts of `0` and `l` are whole turns, so only
/// the blocks `r + 1 − l ≤ j0 < r` move — none when `l = 1`, as in every
/// gather of the BST construction. Below two floors of moving elements,
/// or in a one-thread pool, the calling thread rotates them; otherwise
/// the blocks are dealt to the pool in tasks of at least a floor. Within
/// one block the standard rotation stays: it is 1 / 2.6 of the work of
/// three parallel reversal passes (see `ist_shuffle::rotate`).
fn fix_blocks<T: Send>(data: &mut [T], r: usize, l: usize, chunk: usize) {
    let first = (r + 1).saturating_sub(l);
    let (block, floor) = (l * chunk, rayon::min_task_len(MOVE_COST_NS));
    let moving = &mut data[(r + first * l) * chunk..(r + r * l) * chunk];
    let fix = |(i, block): (usize, &mut [T])| block.rotate_right((r - first - i) * chunk);
    if moving.len() < 2 * floor || rayon::current_num_threads() == 1 {
        moving.chunks_mut(block).enumerate().for_each(fix);
    } else {
        moving
            .par_chunks_mut(block)
            .with_min_len(floor.div_ceil(block))
            .enumerate()
            .for_each(fix);
    }
}

/// Panics unless `n` elements are a gather of `r ≤ l` units among blocks
/// of `l ≥ 1` units, each unit `chunk ≥ 1` elements. The length is
/// computed without overflow: a wrapped product could equal `n` and pass
/// a gather whose units lie past the slice. No division: the check runs
/// once per gather, and the constructions issue one gather per subtree,
/// down to three elements.
fn check_params(n: usize, r: usize, l: usize, chunk: usize) {
    assert!(
        l >= 1 && chunk >= 1,
        "block size l and chunk must be positive"
    );
    assert!(
        r <= l,
        "equidistant gather requires r <= l (got r={r}, l={l})"
    );
    let len = r
        .checked_add(1)
        .and_then(|blocks| blocks.checked_mul(l))
        .and_then(|units| units.checked_add(r))
        .and_then(|units| units.checked_mul(chunk));
    assert!(
        len == Some(n),
        "data length {n} != (r + (r+1)l)·chunk for r={r}, l={l}, chunk={chunk}"
    );
}

/// Out-of-place reference implementation used by tests and oracles.
// LINT-ALLOW(test-only-pub): test reference for `tests/properties.rs`'s `gather_matches_reference`
pub fn reference_gather<T: Clone>(data: &[T], r: usize, l: usize) -> Vec<T> {
    check_params(data.len(), r, l, 1);
    let mut out = Vec::with_capacity(data.len());
    for c in 1..=r {
        out.push(data[t0_slot(c, l)].clone());
    }
    for j in 0..=r {
        let base = j * (l + 1);
        for i in 0..l {
            out.push(data[base + i].clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` in a pool of `threads` threads: one takes every
    /// primitive's calling-thread body, four its parallel body from two
    /// floors of moves on.
    fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// Reference: gather on the chunk-index sequence, expanded back.
    fn reference_chunked<T: Clone>(data: &[T], r: usize, l: usize, chunk: usize) -> Vec<T> {
        let units = data.len() / chunk;
        let ids: Vec<usize> = (0..units).collect();
        let permuted = reference_gather(&ids, r, l);
        let mut out = Vec::with_capacity(data.len());
        for u in permuted {
            out.extend_from_slice(&data[u * chunk..(u + 1) * chunk]);
        }
        out
    }

    /// The gather of `r` units among blocks of `l`, each unit `chunk`
    /// elements, against the reference in a one- and a four-thread pool.
    fn check(r: usize, l: usize, chunk: usize) {
        let n = gather_len(r, l) * chunk;
        let orig: Vec<u32> = (0..n as u32).collect();
        let expect = reference_chunked(&orig, r, l, chunk);
        for threads in [1, 4] {
            let mut got = orig.clone();
            in_pool(threads, || equidistant_gather_chunks(&mut got, r, l, chunk));
            assert!(got == expect, "threads={threads} r={r} l={l} chunk={chunk}");
        }
    }

    #[test]
    fn all_small_shapes() {
        for l in 1..=12usize {
            for r in 0..=l {
                check(r, l, 1);
            }
        }
    }

    #[test]
    fn veb_shapes() {
        // Even-height trees: r = l = 2^x - 1.
        for x in 1..=6u32 {
            let rl = (1usize << x) - 1;
            check(rl, rl, 1);
        }
    }

    #[test]
    fn rectangular_shapes() {
        check(1, 100, 1);
        check(7, 19, 1);
        check(63, 64, 1);
    }

    /// The fewest elements a gather hands to the pool: two floors of
    /// moves.
    fn par_floor() -> usize {
        2 * rayon::min_task_len(MOVE_COST_NS)
    }

    /// Whether `units` units of a stage 1 that moves `moves` elements
    /// make at least two parallel tasks of [`par_pairs`].
    fn splits(units: usize, moves: usize) -> bool {
        units.div_ceil(2) >= 2 * pairs_per_task(units, moves)
    }

    /// Stage 1's bands across unit sizes: chunks of 1, 2, 63, 64 and 65
    /// elements (bands of 64, 32, 2, 1 and 1 cycles), and `r` of 0, 1,
    /// one band of single elements less one, one band, one band and one,
    /// and three bands and five, each square, with longer blocks, and
    /// with blocks so long that the gather takes its parallel body in a
    /// four-thread pool.
    #[test]
    fn band_edges() {
        for chunk in [1, 2, BAND - 1, BAND, BAND + 1] {
            for r in [0, 1, BAND - 1, BAND, BAND + 1, 3 * BAND + 5] {
                let parallel = par_floor().div_ceil((r + 1) * chunk).max(r);
                for l in [r.max(1), r + 3, 2 * r + 1, parallel] {
                    check(r, l, chunk);
                }
            }
        }
    }

    /// A square shape above the parallel floor whose last band is
    /// partial and whose bands make at least two tasks, so each task
    /// holds whole bands dealt in pairs: band `i` beside the band as far
    /// from the end.
    #[test]
    fn banded_parallel_matches_reference() {
        let r = (1..)
            .filter(|r| r % BAND != 0)
            .find(|&r| splits(r.div_ceil(BAND), stage_one_moves(r, 1)))
            .unwrap();
        assert!(gather_len(r, r) >= par_floor());
        check(r, r, 1);
        check(r, r + 1, 1);
    }

    /// The smallest square shape (`r = l`) of `chunk`-element units
    /// whose bands make two parallel tasks, above [`par_floor`], so its
    /// stage 2 may go parallel too.
    fn split_shape(chunk: usize) -> usize {
        let band = BAND.div_ceil(chunk);
        let r = (1..)
            .find(|&r: &usize| splits(r.div_ceil(band), stage_one_moves(r, chunk)))
            .unwrap();
        assert!(gather_len(r, r) * chunk >= par_floor());
        r
    }

    #[test]
    fn large_parallel_matches_reference() {
        let r = split_shape(1);
        let l = r;
        let n = gather_len(r, l);
        let orig: Vec<u64> = (0..n as u64).rev().collect();
        let expect = reference_gather(&orig, r, l);
        for threads in [1, 4] {
            let mut got = orig.clone();
            in_pool(threads, || equidistant_gather(&mut got, r, l));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    /// Small shapes across unit sizes, and on the shapes of at most 15
    /// units a chunk of two floors, whose every run swap fans out in a
    /// four-thread pool: the large-chunk path.
    #[test]
    fn chunked_matches_reference() {
        for (r, l) in [(0usize, 1usize), (1, 1), (2, 2), (3, 3), (3, 5), (7, 7)] {
            for chunk in [1usize, 2, 3, 16, BAND - 1, BAND, BAND + 1] {
                check(r, l, chunk);
            }
            if gather_len(r, l) <= 15 {
                check(r, l, par_floor());
            }
        }
    }

    #[test]
    fn many_small_chunks_parallel_path() {
        let chunk = 8;
        let r = split_shape(chunk);
        check(r, r, chunk);
    }

    #[test]
    fn swap_halves_roundtrip() {
        // Halves at the floor: the swap fans out in a pool of more than
        // one thread.
        let half = par_floor();
        let orig: Vec<u32> = (0..2 * half as u32).collect();
        let mut v = orig.clone();
        swap_regions_par(&mut v, 0, half, half);
        assert_eq!(&v[..half], &orig[half..]);
        swap_regions_par(&mut v, 0, half, half);
        assert_eq!(v, orig);
    }

    #[test]
    fn gather_is_value_preserving() {
        let r = 10;
        let l = 15;
        let n = gather_len(r, l);
        let mut v: Vec<usize> = (0..n).map(|i| i * 7 % 23).collect();
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        equidistant_gather(&mut v, r, l);
        v.sort_unstable();
        assert_eq!(v, sorted_before);
    }

    #[test]
    #[should_panic(expected = "r <= l")]
    fn rejects_r_greater_than_l() {
        let mut v = vec![0u8; gather_len(3, 2)];
        equidistant_gather(&mut v, 3, 2);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn rejects_bad_length() {
        let mut v = vec![0u8; 10];
        equidistant_gather(&mut v, 2, 2);
    }

    /// A chunk whose `gather_len · chunk` wraps to the slice's length:
    /// `3 · chunk` is `2^64 + 2` on a 64-bit target. The guard rejects it
    /// in a one- and a two-thread pool, in every build; unchecked, a
    /// release build passed it and wrote past the slice.
    #[test]
    fn rejects_a_length_that_wraps() {
        let chunk = usize::MAX / 3 + 1;
        for threads in [1, 2] {
            let panicked = std::panic::catch_unwind(|| {
                in_pool(threads, || {
                    equidistant_gather_chunks(&mut [1u64, 2], 1, 1, chunk)
                })
            });
            let payload = panicked.expect_err("a wrapped length passed the guard");
            let message = payload.downcast_ref::<String>().unwrap();
            assert!(
                message.starts_with("data length 2 != "),
                "threads={threads}: {message}"
            );
        }
    }
}
