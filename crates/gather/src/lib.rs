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
//! * [`equidistant_gather`] — the two-stage cycle-leader algorithm
//!   (`r ≤ l`): `r` disjoint anti-diagonal cycles, run in bands of
//!   adjacent cycles in lockstep, then one circular shift per block
//!   (§3.1),
//! * [`equidistant_gather_chunks`] — the same operation on *chunks* of
//!   `C` elements treated as units (used at every level of the B-tree
//!   algorithm; I/O-efficient because every move is a `C`-element swap).
//!
//! Each decides by the floor rule, as every dispatch site in the
//! workspace does: below two floors of moves
//! ([`rayon::min_task_len`]`(`[`MOVE_COST_NS`]`)` elements each) or in
//! a one-thread pool ([`rayon::current_num_threads`]` == 1`) it runs on
//! the calling thread, and otherwise it deals tasks of at least a floor
//! to the pool, so "sequential" means a one-thread pool here as
//! everywhere else in the workspace.
//!
//! These are `Ram`'s gather primitives. The **extended** equidistant
//! gather (`r > l`, §3.2) is composed from them once, generic over the
//! machine, in `ist_core::algorithms`. [`swap_regions_par`], re-exported
//! here, is Figure 6.4's big-block baseline beside the chunked gather.

pub mod chunked;

pub use chunked::equidistant_gather_chunks;
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

/// Cycles in one band of a parallel stage 1. One band of all `r`
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

/// Stage 1 on cycles `first..=last` (1-indexed), in lockstep. Cycle `c`
/// rotates the slots `[t_c, T₁[c], T₂[c−1], …, T_c[1]]` forward by one,
/// which moves `t_c` to front slot `c − 1` and every touched `Tⱼ`
/// element into `Tⱼ`'s destination block (rotated; fixed by stage 2).
/// It does so in `c` swaps down the cycle ([`cycle_slot`] `m` with
/// `m − 1`, for `m = c, …, 1`): for `m ≥ 2` those are slots
/// `(m − 1)·l + c − 1` and `(m − 2)·l + c − 1`, so at step `m` the
/// band's cycles that reach it (`c ≥ m`) swap two runs of adjacent
/// slots `l` apart, where one cycle alone would touch one element of a
/// new line at every step. The last step swaps each front slot with its
/// `t_c`. Each cycle keeps its own order of steps and distinct cycles
/// touch disjoint slots, so the lockstep moves what the cycles one at a
/// time would.
#[inline]
fn run_band<T>(data: &mut [T], first: usize, last: usize, l: usize) {
    for m in (2..=last).rev() {
        let from = first.max(m);
        let (at, len) = ((m - 1) * l + from - 1, last + 1 - from);
        // `len ≤ r ≤ l`: the two runs do not overlap.
        let (below, above) = data.split_at_mut(at);
        below[at - l..at - l + len].swap_with_slice(&mut above[..len]);
    }
    for c in first..=last {
        data.swap(c - 1, t0_slot(c, l));
    }
}

/// Equidistant gather (cycle-leader, two stages).
///
/// Requires `r ≤ l`, `l ≥ 1`, and `data.len() == gather_len(r, l)`.
///
/// Below two floors of moves (`2 ·` [`rayon::min_task_len`]`(`
/// [`MOVE_COST_NS`]`)` elements), or in a one-thread pool, it runs on
/// the calling thread, its `r` cycles as one band. Otherwise the cycles
/// run concurrently in bands of adjacent cycles (they are
/// slot-disjoint), then the block fix-ups run concurrently, each stage
/// in tasks of at least a floor of moves.
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
    check_params(data.len(), r, l, 1);
    let n = data.len();
    if n < 2 * rayon::min_task_len(MOVE_COST_NS) || rayon::current_num_threads() == 1 {
        run_band(data, 1, r, l);
        return fix_blocks(data, r, l, 1);
    }
    let shared = SharedSlice::new(data);
    par_pairs(r.div_ceil(BAND), stage_one_moves(r, 1), |band| {
        let first = band * BAND + 1;
        // SAFETY: each band runs cycles of its own, and distinct cycles
        // touch disjoint slot sets (gather slot t_c and the
        // anti-diagonal {row + col = c - 1} of the conceptual matrix),
        // so concurrent tasks never alias.
        let whole = unsafe { shared.slice_mut(0, n) };
        run_band(whole, first, (first + BAND - 1).min(r), l);
    });
    fix_blocks_par(data, r, l, 1);
}

/// Elements stage 1 moves: cycle `c` moves `c + 1` units of `chunk`
/// elements.
pub(crate) fn stage_one_moves(r: usize, chunk: usize) -> usize {
    r * (r + 3) / 2 * chunk
}

/// Pairs of units a parallel task of [`par_pairs`] takes: at least a
/// floor of moves ([`rayon::min_task_len`]) when `units` units move
/// `moves` elements.
pub(crate) fn pairs_per_task(units: usize, moves: usize) -> usize {
    let pair_moves = (moves / units.div_ceil(2).max(1)).max(1);
    rayon::min_task_len(MOVE_COST_NS).div_ceil(pair_moves)
}

/// Run `f(u)` for every unit `u` of `0..units` on the pool, dealt in
/// pairs `{u, units − 1 − u}`, at least a floor of moves a task. A
/// gather's units (cycles, or bands of them) grow in cost by the same
/// step one to the next, so every pair costs about the same and a task
/// of the first pairs moves as much as one of the last; `moves` is all
/// the units' elements moved.
pub(crate) fn par_pairs(units: usize, moves: usize, f: impl Fn(usize) + Sync) {
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

/// Stage 2 on the calling thread, on units of `chunk` elements: block
/// `j0` (0-indexed, `l` units from unit `r + j0·l`) is rotated left by
/// `r − j0`; rotate it back. With `r ≤ l`, amounts of `0` and `l` are
/// whole turns, so only the blocks `r + 1 − l ≤ j0 < r` move — none when
/// `l = 1`, as in every gather of the BST construction.
#[inline]
fn fix_blocks<T>(data: &mut [T], r: usize, l: usize, chunk: usize) {
    for j0 in (r + 1).saturating_sub(l)..r {
        let start = (r + j0 * l) * chunk;
        data[start..start + l * chunk].rotate_right((r - j0) * chunk);
    }
}

/// [`fix_blocks`] with the moving blocks dealt to the pool, in tasks of
/// at least a floor of moves. Within one block the standard rotation
/// stays: it is 1 / 2.6 of the work of three parallel reversal passes
/// (see `ist_shuffle::rotate`).
fn fix_blocks_par<T: Send>(data: &mut [T], r: usize, l: usize, chunk: usize) {
    let first = (r + 1).saturating_sub(l);
    let block = l * chunk;
    data[(r + first * l) * chunk..(r + r * l) * chunk]
        .par_chunks_mut(block)
        .with_min_len(rayon::min_task_len(MOVE_COST_NS).div_ceil(block))
        .enumerate()
        .for_each(|(i, block)| block.rotate_right((r - first - i) * chunk));
}

/// Panics unless `n` elements are a gather of `r ≤ l` units among blocks
/// of `l ≥ 1` units, each unit `chunk ≥ 1` elements. No division: the
/// check runs once per gather, and the constructions issue one gather
/// per subtree, down to three elements.
pub(crate) fn check_params(n: usize, r: usize, l: usize, chunk: usize) {
    assert!(
        l >= 1 && chunk >= 1,
        "block size l and chunk must be positive"
    );
    assert!(
        r <= l,
        "equidistant gather requires r <= l (got r={r}, l={l})"
    );
    assert_eq!(
        n,
        gather_len(r, l) * chunk,
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
pub(crate) mod tests {
    use super::*;

    /// Run `f` in a pool of `threads` threads: one takes every
    /// primitive's calling-thread body, four its parallel body from two
    /// floors of moves on.
    pub(crate) fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    fn check(r: usize, l: usize) {
        let n = gather_len(r, l);
        let orig: Vec<usize> = (0..n).collect();
        let expect = reference_gather(&orig, r, l);
        for threads in [1, 4] {
            let mut got = orig.clone();
            in_pool(threads, || equidistant_gather(&mut got, r, l));
            assert_eq!(got, expect, "threads={threads} r={r} l={l}");
        }
    }

    #[test]
    fn all_small_shapes() {
        for l in 1..=12usize {
            for r in 0..=l {
                check(r, l);
            }
        }
    }

    #[test]
    fn veb_shapes() {
        // Even-height trees: r = l = 2^x - 1.
        for x in 1..=6u32 {
            let rl = (1usize << x) - 1;
            check(rl, rl);
        }
    }

    #[test]
    fn rectangular_shapes() {
        check(1, 100);
        check(7, 19);
        check(63, 64);
    }

    /// The fewest elements a gather hands to the pool: two floors of
    /// moves.
    pub(crate) fn par_floor() -> usize {
        2 * rayon::min_task_len(MOVE_COST_NS)
    }

    /// Whether `units` units of a stage 1 that moves `moves` elements
    /// make at least two parallel tasks of [`par_pairs`].
    fn splits(units: usize, moves: usize) -> bool {
        units.div_ceil(2) >= 2 * pairs_per_task(units, moves)
    }

    /// The smallest square shape (`r = l`) of `chunk`-element units
    /// whose stage-1 cycles make two parallel tasks — above
    /// [`par_floor`], so its stage 2 is parallel too.
    pub(crate) fn split_shape(chunk: usize) -> usize {
        let r = (1..)
            .find(|&r| splits(r, stage_one_moves(r, chunk)))
            .unwrap();
        assert!(gather_len(r, r) * chunk >= par_floor());
        r
    }

    /// Stage 1's bands: `r` of 0, 1, one band less one, one band, one
    /// band and one, and three bands and five, each square, with longer
    /// blocks, and with blocks so long that the gather takes its
    /// parallel body in a four-thread pool, against the reference in a
    /// one- and a four-thread pool.
    #[test]
    fn band_edges() {
        for r in [0, 1, BAND - 1, BAND, BAND + 1, 3 * BAND + 5] {
            let parallel = par_floor().div_ceil(r + 1);
            for l in [r.max(1), r + 3, 2 * r + 1, parallel] {
                check(r, l);
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
        check(r, r);
        check(r, r + 1);
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
}
