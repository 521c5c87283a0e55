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

/// `true` iff `n = 2^d − 1` for some `d ≥ 1`.
///
/// # Examples
/// ```
/// use ist_bits::is_perfect_bst_size;
/// assert!(is_perfect_bst_size(1));
/// assert!(is_perfect_bst_size(15));
/// assert!(!is_perfect_bst_size(16));
/// assert!(!is_perfect_bst_size(0));
/// ```
#[inline]
pub fn is_perfect_bst_size(n: u64) -> bool {
    n > 0 && (n & (n + 1)) == 0
}

/// `true` iff `n = k^m − 1` for some `m ≥ 1`.
///
/// # Examples
/// ```
/// use ist_bits::is_perfect_btree_size;
/// assert!(is_perfect_btree_size(3, 26));
/// assert!(is_perfect_btree_size(3, 2));
/// assert!(!is_perfect_btree_size(3, 27));
/// ```
#[inline]
pub fn is_perfect_btree_size(k: u64, n: u64) -> bool {
    if n == 0 {
        return false;
    }
    let m = ilog(k, n + 1);
    k.pow(m) == n + 1
}

/// Node levels of the perfect B-tree part of a complete B-tree holding `n`
/// elements with branching `k = B + 1`: the largest `m` with `k^m − 1 ≤ n`.
///
/// # Examples
/// ```
/// use ist_bits::perfect_btree_height;
/// assert_eq!(perfect_btree_height(3, 26), 3);
/// assert_eq!(perfect_btree_height(3, 27), 3);
/// assert_eq!(perfect_btree_height(3, 80), 4); // 3^4 - 1 = 80
/// ```
#[inline]
pub fn perfect_btree_height(k: u64, n: u64) -> u32 {
    assert!(n > 0);
    ilog(k, n + 1)
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
    fn perfect_sizes_roundtrip() {
        for d in 1..20u32 {
            let n = (1u64 << d) - 1;
            assert!(is_perfect_bst_size(n));
            assert!(!is_perfect_bst_size(n + 1));
        }
        for k in [2u64, 3, 9, 33] {
            for m in 1..6u32 {
                let n = k.pow(m) - 1;
                assert!(is_perfect_btree_size(k, n));
                assert_eq!(perfect_btree_height(k, n), m);
            }
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

    #[test]
    fn btree_height_of_complete_sizes() {
        // All sizes between two perfect sizes share the lower height.
        let k = 4u64;
        for m in 1..5u32 {
            let lo = k.pow(m) - 1;
            let hi = k.pow(m + 1) - 1;
            for n in [lo, lo + 1, (lo + hi) / 2, hi - 1] {
                assert_eq!(perfect_btree_height(k, n), m, "n={n}");
            }
        }
    }
}
