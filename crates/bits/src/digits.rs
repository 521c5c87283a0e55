//! Base-`k` digit arithmetic and digit reversal.
//!
//! The central operation is [`rev_k`]`(k, b, i)`: reverse the `b` least
//! significant base-`k` digits of `i`, leaving any higher-order digits
//! untouched. For `k = 2` this is the classic bit-reversal used by the
//! Fich–Munro–Poblete BST permutation; for general `k` it implements the
//! `Ξ₁` involutions of Yang et al. for the k-way perfect shuffle on
//! `N = k^d` elements.
//!
//! `rev_k(k, b, ·)` restricted to integers whose higher digits are fixed is
//! an involution: applying it twice yields the identity. That property is
//! what makes the involution-based construction algorithms parallel and
//! in-place (each application is a set of disjoint swaps).

/// Reverse the `b` least significant **bits** of `i`, leaving higher bits
/// unchanged. Uses the hardware `reverse_bits` path (constant time), the
/// analogue of the GPU bit-reversal primitive discussed in the paper.
///
/// # Panics
/// Panics (debug) if `b > 64`.
///
/// # Examples
/// ```
/// use ist_bits::rev2;
/// assert_eq!(rev2(4, 0b0011), 0b1100);
/// assert_eq!(rev2(3, 0b110), 0b011);
/// // Higher bits are preserved:
/// assert_eq!(rev2(2, 0b10110), 0b10101);
/// assert_eq!(rev2(0, 42), 42);
/// ```
#[inline]
pub fn rev2(b: u32, i: u64) -> u64 {
    debug_assert!(b <= 64);
    if b == 0 {
        return i;
    }
    let mask = if b == 64 { u64::MAX } else { (1u64 << b) - 1 };
    let low = i & mask;
    let rev = low.reverse_bits() >> (64 - b);
    (i & !mask) | rev
}

/// Reverse the `b` least significant base-`k` digits of `i`, leaving any
/// higher-order digits unchanged.
///
/// For `k = 2` this delegates to the hardware path [`rev2`].
///
/// # Panics
/// Panics if `k < 2`.
///
/// # Examples
/// ```
/// use ist_bits::rev_k;
/// // 123 in base 10, reverse low 3 digits -> 321
/// assert_eq!(rev_k(10, 3, 123), 321);
/// // Higher digits preserved: 5123 -> 5321
/// assert_eq!(rev_k(10, 3, 5123), 5321);
/// // Leading zeros within the window count: 120 -> 021 = 21
/// assert_eq!(rev_k(10, 3, 120), 21);
/// assert_eq!(rev_k(2, 4, 0b0011), 0b1100);
/// ```
#[inline]
pub fn rev_k(k: u64, b: u32, i: u64) -> u64 {
    assert!(k >= 2, "base must be at least 2");
    if k == 2 {
        return rev2(b, i);
    }
    if b == 0 {
        return i;
    }
    let window = k.checked_pow(b).expect("k^b overflows u64");
    let high = i / window;
    let mut low = i % window;
    let mut rev = 0u64;
    for _ in 0..b {
        rev = rev * k + low % k;
        low /= k;
    }
    high * window + rev
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reverse the `b` low base-`k` digits of `i` through an explicit
    /// digit vector.
    fn reference_rev(k: u64, b: u32, i: u64) -> u64 {
        let window = k.pow(b);
        let mut digits: Vec<u64> = Vec::new();
        let mut low = i % window;
        for _ in 0..b {
            digits.push(low % k);
            low /= k;
        }
        i / window * window + digits.iter().fold(0, |acc, &d| acc * k + d)
    }

    #[test]
    fn rev2_matches_digit_reference() {
        for b in 0..=16u32 {
            for i in 0..(1u64 << 12) {
                assert_eq!(rev2(b, i), reference_rev(2, b, i), "b={b} i={i}");
            }
        }
    }

    #[test]
    fn rev2_is_involution() {
        for b in 0..=20u32 {
            for i in [0u64, 1, 2, 3, 255, 1023, 4095, 99999, u32::MAX as u64] {
                assert_eq!(rev2(b, rev2(b, i)), i);
            }
        }
    }

    #[test]
    fn rev2_full_width() {
        assert_eq!(rev2(64, 1), 1u64 << 63);
        assert_eq!(rev2(64, u64::MAX), u64::MAX);
    }

    #[test]
    fn rev_k_is_involution() {
        for k in [2u64, 3, 4, 5, 9, 10, 17] {
            for b in 0..=6u32 {
                let window = k.pow(b);
                for i in 0..window.min(5000) {
                    assert_eq!(rev_k(k, b, rev_k(k, b, i)), i, "k={k} b={b} i={i}");
                }
            }
        }
    }

    #[test]
    fn rev_k_preserves_high_digits() {
        assert_eq!(rev_k(10, 2, 98_76), 98_67);
        assert_eq!(rev_k(3, 2, 27 + 5), 27 + rev_k(3, 2, 5));
    }

    #[test]
    fn rev_k_base2_delegates() {
        for b in 0..=10u32 {
            for i in 0..1024u64 {
                assert_eq!(rev_k(2, b, i), rev2(b, i));
            }
        }
    }

    #[test]
    fn rev_k_against_digit_reference() {
        for k in [3u64, 5, 10] {
            for b in 1..=4u32 {
                for i in 0..(3 * k.pow(b)).min(3000) {
                    assert_eq!(rev_k(k, b, i), reference_rev(k, b, i), "k={k} b={b} i={i}");
                }
            }
        }
    }
}
