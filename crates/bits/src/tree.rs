//! Perfect/complete tree geometry helpers.
//!
//! Conventions used across the workspace:
//!
//! * A **perfect BST** on `d` *levels* has `N = 2^d − 1` vertices.
//! * A **perfect B-tree** with branching `k = B + 1` and `h + 1` node levels
//!   holds `N = (B+1)^{h+1} − 1` elements (each node holds `B` keys).
//! * A **complete** tree fills every level except possibly the last, which
//!   is filled left to right (always the case for sorted input).

/// Floor of `log2(n)`; panics on `n = 0`.
///
/// # Examples
/// ```
/// use ist_bits::ilog2_floor;
/// assert_eq!(ilog2_floor(1), 0);
/// assert_eq!(ilog2_floor(15), 3);
/// assert_eq!(ilog2_floor(16), 4);
/// ```
#[inline]
pub fn ilog2_floor(n: u64) -> u32 {
    assert!(n > 0, "log of zero");
    63 - n.leading_zeros()
}

/// Floor of `log_k(n)`; panics on `n = 0` or `k < 2`.
///
/// # Examples
/// ```
/// use ist_bits::ilog;
/// assert_eq!(ilog(3, 1), 0);
/// assert_eq!(ilog(3, 26), 2);
/// assert_eq!(ilog(3, 27), 3);
/// ```
#[inline]
pub fn ilog(k: u64, n: u64) -> u32 {
    assert!(k >= 2, "base must be at least 2");
    assert!(n > 0, "log of zero");
    let mut p = 1u64;
    let mut e = 0u32;
    // Loop rather than float math: exact for all u64.
    while let Some(next) = p.checked_mul(k) {
        if next > n {
            break;
        }
        p = next;
        e += 1;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilog_agrees_with_ilog2() {
        for n in 1..100_000u64 {
            assert_eq!(ilog(2, n), ilog2_floor(n));
        }
    }

    #[test]
    fn ilog_exact_boundaries() {
        for k in [2u64, 3, 5, 10] {
            for e in 1..8u32 {
                let p = k.pow(e);
                assert_eq!(ilog(k, p), e);
                assert_eq!(ilog(k, p - 1), e - 1);
                assert_eq!(ilog(k, p + 1), e);
            }
        }
    }
}
