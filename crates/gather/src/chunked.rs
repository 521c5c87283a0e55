//! Equidistant gather on **chunks**: each logical unit is a run of `C`
//! contiguous elements.
//!
//! The B-tree cycle-leader algorithm applies the gather at every recursion
//! level while "treating each chunk of C elements as a single unit"
//! (§3.2). Because chunks are contiguous, every move is a `C`-element
//! block swap — the access pattern that makes the algorithm I/O-efficient
//! for `C ≥ B` (§4.3). The same primitive underlies Figure 6.4, which
//! compares the throughput of one chunked gather against the simplest
//! possible big-block move, swapping the array's halves with
//! [`swap_regions_par`].

use crate::{check_params, cycle_slot, fix_blocks, fix_blocks_par, par_pairs, stage_one_moves};
use ist_perm::{SharedSlice, MOVE_COST_NS};
use ist_shuffle::rotate::{swap_fans_out, swap_regions_par};

/// Equidistant gather treating each `chunk` consecutive elements as one
/// unit.
///
/// Requires `data.len() == gather_len(r, l) * chunk`, `r ≤ l`, `l ≥ 1`,
/// `chunk ≥ 1`. With `chunk = 1` this is exactly
/// [`crate::equidistant_gather`].
///
/// When one `C`-element swap would itself fan out
/// ([`swap_fans_out`]`(chunk)`), the cycles run one after another with
/// each swap internally parallel — mirroring the paper's observation
/// that this stage is bound by big-block swap throughput (Figure 6.4),
/// not by cycle-level parallelism. This is the only parallel path of
/// the BST construction's gathers, which have `r = 1`. Otherwise, below
/// two floors of moves (`2 ·` [`rayon::min_task_len`]`(`
/// [`MOVE_COST_NS`]`)` elements) or in a one-thread pool, it runs on the
/// calling thread, and above them the cycles of many small chunks run
/// concurrently, cycle `c` in one task with cycle `r + 1 − c` so that
/// every task moves about as many chunks. Either parallel path then
/// runs the stage-2 block rotations concurrently; every task holds at
/// least a floor of moves. (A chunk is already a run of adjacent
/// elements, a line or more in the B-tree construction, so the plain
/// gather's bands of cycles would buy nothing here.)
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
    let n = data.len();
    if swap_fans_out(chunk) {
        // Few, large chunks (the top of the B-tree recursion): parallelize
        // inside each block move.
        for c in 1..=r {
            run_cycle_chunks_par(data, c, l, chunk);
        }
    } else if n < 2 * rayon::min_task_len(MOVE_COST_NS) || rayon::current_num_threads() == 1 {
        // Stage 1: the r disjoint cycles, on chunk units.
        for c in 1..=r {
            run_cycle_chunks(data, c, l, chunk);
        }
        // Stage 2: fix each block's rotation (block = l chunks).
        return fix_blocks(data, r, l, chunk);
    } else {
        // Many small chunks: parallelize across the disjoint cycles,
        // cycle `c` beside cycle `r + 1 − c`, so that every task moves
        // about the same number of chunks.
        let shared = SharedSlice::new(data);
        par_pairs(r, stage_one_moves(r, chunk), |u| {
            // SAFETY: distinct cycles touch disjoint chunk sets (the
            // gather chunk t_c plus the anti-diagonal row+col = c-1),
            // so concurrent tasks never alias.
            let whole = unsafe { shared.slice_mut(0, n) };
            run_cycle_chunks(whole, u + 1, l, chunk);
        });
    }
    fix_blocks_par(data, r, l, chunk);
}

#[inline]
fn run_cycle_chunks<T>(data: &mut [T], c: usize, l: usize, chunk: usize) {
    for m in (1..=c).rev() {
        let a = cycle_slot(m, c, l) * chunk;
        let b = cycle_slot(m - 1, c, l) * chunk;
        // SAFETY: distinct chunk indices map to disjoint element ranges.
        unsafe {
            std::ptr::swap_nonoverlapping(
                data.as_mut_ptr().add(a),
                data.as_mut_ptr().add(b),
                chunk,
            );
        }
    }
}

#[inline]
fn run_cycle_chunks_par<T: Send>(data: &mut [T], c: usize, l: usize, chunk: usize) {
    for m in (1..=c).rev() {
        let a = cycle_slot(m, c, l) * chunk;
        let b = cycle_slot(m - 1, c, l) * chunk;
        swap_regions_par(data, a, b, chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{in_pool, par_floor, split_shape};
    use crate::{gather_len, reference_gather};

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

    #[test]
    fn chunked_matches_reference() {
        for (r, l) in [(0usize, 1usize), (1, 1), (2, 2), (3, 5), (7, 7)] {
            for chunk in [1usize, 2, 3, 16] {
                let n = gather_len(r, l) * chunk;
                let orig: Vec<usize> = (0..n).collect();
                let expect = reference_chunked(&orig, r, l, chunk);
                for threads in [1, 4] {
                    let mut got = orig.clone();
                    in_pool(threads, || equidistant_gather_chunks(&mut got, r, l, chunk));
                    assert_eq!(got, expect, "threads={threads} r={r} l={l} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn chunk_one_matches_plain_gather() {
        let (r, l) = (5usize, 9usize);
        let n = gather_len(r, l);
        let mut a: Vec<usize> = (0..n).collect();
        let mut b = a.clone();
        crate::equidistant_gather(&mut a, r, l);
        equidistant_gather_chunks(&mut b, r, l, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn big_chunks_parallel_path() {
        let (r, l) = (3usize, 3usize);
        // One chunk swap fans out: the large-chunk parallel path.
        let chunk = par_floor();
        let n = gather_len(r, l) * chunk;
        let orig: Vec<u32> = (0..n as u32).collect();
        let expect = reference_chunked(&orig, r, l, chunk);
        for threads in [1, 4] {
            let mut got = orig.clone();
            in_pool(threads, || equidistant_gather_chunks(&mut got, r, l, chunk));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn many_small_chunks_parallel_path() {
        let chunk = 8;
        let r = split_shape(chunk);
        let l = r;
        let n = gather_len(r, l) * chunk;
        let orig: Vec<u64> = (0..n as u64).collect();
        let expect = reference_chunked(&orig, r, l, chunk);
        for threads in [1, 4] {
            let mut got = orig.clone();
            in_pool(threads, || equidistant_gather_chunks(&mut got, r, l, chunk));
            assert_eq!(got, expect, "threads={threads}");
        }
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
}
