//! Modular arithmetic: gcd, extended Euclid, and modular inverse.
//!
//! The `J_r` involutions of Yang et al. (used for the k-way perfect shuffle
//! on any `N` divisible by `k`, and hence for the B-tree leaf interleaving)
//! are defined as
//!
//! ```text
//! J_r(i) = g · ( r · (i/g)⁻¹  mod (N−1)/g ),   g = gcd(i, N−1)
//! ```
//!
//! which requires computing modular inverses. The extended Euclidean
//! algorithm costs `O(log N)` — exactly the term that makes the
//! involution-based B-tree construction `O(N log N)` work in the paper
//! (Proposition 2). `ist_shuffle::j_involution` fuses the gcd and the
//! inverse into one Euclid pass; the separate steps here are the
//! reference it is tested against.

/// Greatest common divisor (binary-free Euclid; `gcd(0, b) = b`).
///
/// # Examples
/// ```
/// use ist_bits::gcd;
/// assert_eq!(gcd(12, 18), 6);
/// assert_eq!(gcd(0, 7), 7);
/// assert_eq!(gcd(7, 0), 7);
/// assert_eq!(gcd(13, 27), 1);
/// ```
#[inline]
// LINT-ALLOW(test-only-pub): test reference for `j_involution` (ist-shuffle) and `tests/properties.rs`
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Extended Euclidean algorithm.
///
/// Returns `(g, x, y)` with `a·x + b·y = g = gcd(a, b)` (over signed
/// integers).
///
/// # Examples
/// ```
/// use ist_bits::extended_gcd;
/// let (g, x, y) = extended_gcd(240, 46);
/// assert_eq!(g, 2);
/// assert_eq!(240 * x + 46 * y, 2);
/// ```
pub fn extended_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        return (a, 1, 0);
    }
    let (mut old_r, mut r) = (a, b);
    let (mut old_s, mut s) = (1i128, 0i128);
    let (mut old_t, mut t) = (0i128, 1i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
        (old_t, t) = (t, old_t - q * t);
    }
    (old_r, old_s, old_t)
}

/// Modular inverse of `a` modulo `m`, if it exists (`gcd(a, m) = 1`).
///
/// # Examples
/// ```
/// use ist_bits::mod_inverse;
/// assert_eq!(mod_inverse(3, 7), Some(5)); // 3·5 = 15 ≡ 1 (mod 7)
/// assert_eq!(mod_inverse(2, 4), None);    // not coprime
/// assert_eq!(mod_inverse(1, 1), Some(0)); // degenerate modulus
/// ```
// LINT-ALLOW(test-only-pub): test reference for `j_involution` (ist-shuffle) and `tests/properties.rs`
pub fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    if m == 0 {
        return None;
    }
    if m == 1 {
        return Some(0);
    }
    let (g, x, _) = extended_gcd((a % m) as i128, m as i128);
    if g != 1 {
        return None;
    }
    Some((x.rem_euclid(m as i128)) as u64)
}

/// `(a * b) mod m` without overflow for any `u64` operands.
///
/// # Examples
/// ```
/// use ist_bits::mod_mul;
/// assert_eq!(mod_mul(u64::MAX, u64::MAX, 1_000_000_007), {
///     ((u64::MAX as u128 * u64::MAX as u128) % 1_000_000_007u128) as u64
/// });
/// ```
#[inline]
// LINT-ALLOW(test-only-pub): test reference for `j_involution` (ist-shuffle) and `tests/properties.rs`
pub fn mod_mul(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(48, 36), 12);
        assert_eq!(gcd(1, 1), 1);
        assert_eq!(gcd(17, 17), 17);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn extended_gcd_identity_holds() {
        for a in 0..60i128 {
            for b in 0..60i128 {
                let (g, x, y) = extended_gcd(a, b);
                assert_eq!(a * x + b * y, g, "a={a} b={b}");
                if a > 0 || b > 0 {
                    assert_eq!(g as u64, gcd(a as u64, b as u64));
                }
            }
        }
    }

    #[test]
    fn mod_inverse_is_inverse() {
        for m in 2..120u64 {
            for a in 1..m {
                match mod_inverse(a, m) {
                    Some(inv) => {
                        assert_eq!(gcd(a, m), 1);
                        assert_eq!(mod_mul(a, inv, m), 1, "a={a} m={m}");
                        assert!(inv < m);
                    }
                    None => assert_ne!(gcd(a, m), 1, "a={a} m={m}"),
                }
            }
        }
    }

    #[test]
    fn mod_inverse_large() {
        let m = (1u64 << 61) - 1; // Mersenne prime
        for a in [2u64, 3, 12345, 1 << 40] {
            let inv = mod_inverse(a, m).unwrap();
            assert_eq!(mod_mul(a, inv, m), 1);
        }
    }

    #[test]
    fn mod_mul_no_overflow() {
        assert_eq!(mod_mul(u64::MAX, 2, u64::MAX), 0);
        assert_eq!(mod_mul(u64::MAX - 1, u64::MAX - 1, u64::MAX), 1);
    }
}
