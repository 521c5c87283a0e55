//! I/O-optimized equidistant gather via row shifts + matrix transpose
//! (§4.2, Figure 4.1).
//!
//! For the square case `r = l`, view the first `r(r+1)` elements as an
//! `r × (r+1)` row-major grid: row `j` holds `T_{j+1}`'s `r` elements
//! followed by the gather element `t_{j+1}`; the trailing `r` elements of
//! the array (row `r`, i.e. `T_{r+1}`) never move during stage 1. The
//! stage-1 cycles are the **anti-diagonals** of the leading `r × r`
//! submatrix (plus one gather element each). Rotating row `j` right by `j`
//! aligns each anti-diagonal into a column; transposing then makes every
//! cycle a contiguous row, so the cycle rotations become streaming
//! `memmove`s. Undoing the transform and fixing the block rotations
//! completes the gather.
//!
//! In the PEM model this brings stage 1 from `O(N/P)` to `O(N/(PB))` I/Os
//! (Proposition 15); on real hardware it trades strided traffic for two
//! extra sequential passes. Recorded once (`u64` keys, one core): 794 µs
//! against the cycle gather's 82 µs at `r = 255` and 15.4 ms against
//! 1.71 ms at `r = 1023`, so no backend calls it; its Proposition-15 I/O
//! claim has not been measured on `pem-sim`.

use crate::check_params;

/// Equidistant gather for the square case `r = l`, using the transpose
/// optimization. Produces exactly the same permutation as
/// [`crate::equidistant_gather`]`(data, r, r)`.
///
/// # Examples
/// ```
/// use ist_gather::{equidistant_gather, equidistant_gather_transposed, gather_len};
/// let r = 31;
/// let n = gather_len(r, r);
/// let mut a: Vec<u32> = (0..n as u32).collect();
/// let mut b = a.clone();
/// equidistant_gather(&mut a, r, r);
/// equidistant_gather_transposed(&mut b, r);
/// assert_eq!(a, b);
/// ```
pub fn equidistant_gather_transposed<T>(data: &mut [T], r: usize) {
    check_params(data.len(), r, r);
    if r <= 1 {
        // r = 0: nothing; r = 1: a single 2-cycle, do it directly.
        if r == 1 {
            crate::equidistant_gather(data, 1, 1);
        }
        return;
    }
    let stride = r + 1;

    // (1) Rotate row j right by j (within its first r columns).
    for j in 1..r {
        let base = j * stride;
        data[base..base + r].rotate_right(j % r);
    }

    // (2) Transpose the r×r submatrix (columns 0..r of rows 0..r).
    transpose_square(data, r, stride);

    // (3) Each cycle c is now: gather slot t_c followed by the contiguous
    // run row (c-1), columns 0..c. Rotate forward by one.
    for c in 1..=r {
        let t0 = (c - 1) * stride + r;
        let base = (c - 1) * stride;
        // Value at t0 -> base; base+m -> base+m+1; base+c-1 -> t0.
        for m in (1..c).rev() {
            data.swap(base + m, base + m - 1);
        }
        data.swap(base, t0);
        // After the walk: original t0 value sits at base, originals
        // shifted right by one, and the last run element went to t0.
    }

    // (4) Undo the transpose and (5) the row shifts.
    transpose_square(data, r, stride);
    for j in 1..r {
        let base = j * stride;
        data[base..base + r].rotate_left(j % r);
    }

    // (6) Stage 2: fix each block's rotation, exactly as the plain
    // gather does (block j rotated right by (r+1-j) mod r).
    for (j0, block) in data[r..].chunks_exact_mut(r).enumerate() {
        let amount = (r - j0) % r; // (r + 1 - (j0+1)) % l with l = r
        if amount != 0 {
            block.rotate_right(amount);
        }
    }
}

/// In-place transpose of the `r × r` submatrix embedded with row `stride`.
fn transpose_square<T>(data: &mut [T], r: usize, stride: usize) {
    for j in 0..r {
        for i in 0..j {
            data.swap(j * stride + i, i * stride + j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{equidistant_gather, gather_len, reference_gather};

    #[test]
    fn matches_plain_gather_all_small() {
        for r in 1..=20usize {
            let n = gather_len(r, r);
            let orig: Vec<usize> = (0..n).collect();
            let expect = reference_gather(&orig, r, r);
            let mut got = orig.clone();
            equidistant_gather_transposed(&mut got, r);
            assert_eq!(got, expect, "r={r}");
        }
    }

    #[test]
    fn veb_sizes() {
        for x in 1..=7u32 {
            let r = (1usize << x) - 1;
            let n = gather_len(r, r);
            let mut a: Vec<u64> = (0..n as u64).collect();
            let mut b = a.clone();
            equidistant_gather(&mut a, r, r);
            equidistant_gather_transposed(&mut b, r);
            assert_eq!(a, b, "x={x}");
        }
    }

    #[test]
    fn transpose_is_involution() {
        let r = 9usize;
        let stride = r + 1;
        let n = gather_len(r, r);
        let orig: Vec<usize> = (0..n).collect();
        let mut v = orig.clone();
        transpose_square(&mut v, r, stride);
        assert_ne!(v, orig);
        transpose_square(&mut v, r, stride);
        assert_eq!(v, orig);
    }
}
