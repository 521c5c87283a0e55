//! The involutions behind k-way perfect shuffles and un-shuffles (Yang
//! et al.).
//!
//! **Deck convention.** The input of a k-way shuffle is the concatenation
//! of `k` decks of `m = N/k` elements each; the output interleaves them:
//! the element at position `i = l·m + j` (deck `l`, offset `j`) moves to
//! position `σ(i) = j·k + l`. The *un*-shuffle is `σ⁻¹` (it gathers the
//! residue-`l` positions into contiguous deck `l`).
//!
//! Two factorizations into involutions are used, depending on `N`:
//!
//! * `N = k^d` (**Ξ₁**): `σ = rev_k(d) ∘ rev_k(d−1)` — both factors are
//!   digit reversals, applied as two rounds of disjoint swaps.
//! * `N = k·m` for any `m` (**Ξ₂**): `σ = J_k ∘ J_1` where
//!   `J_r(i) = g · (r · (i/g)⁻¹ mod (N−1)/g)`, `g = gcd(i, N−1)`, with `0`
//!   and `N−1` fixed. Both `J_1` and `J_k` are involutions because
//!   `gcd(k, N−1) = 1` whenever `k | N`.
//!
//! The implicit B-tree construction uses the `(B+1)`-way un-shuffle (Ξ₁ on
//! a padded power size) to pull internal elements to the front, then the
//! `B`-way shuffle (Ξ₂) to regroup leaf elements into their nodes. Both run
//! as `Machine::involution_round`s in `ist_core::algorithms`; this module
//! supplies the `J` map they evaluate per element (`rev_k` is in
//! `ist-bits`).

/// The Yang et al. `J_r` involution on `[0, n)` where `nm1 = n − 1`.
///
/// `J_r(i) = g · (r · (i/g)⁻¹ mod nm1/g)` with `g = gcd(i, nm1)`; indices
/// `0` and `nm1` are fixed points. `J_r` is an involution whenever
/// `gcd(r, nm1) = 1`.
///
/// # Examples
/// ```
/// use ist_shuffle::j_involution;
/// let n = 10u64; // k = 2, nm1 = 9
/// for i in 0..n {
///     let j = j_involution(2, n - 1, i);
///     assert_eq!(j_involution(2, n - 1, j), i); // involution
/// }
/// // J_2(J_1(i)) = 2i mod 9 on the interior:
/// for i in 1..n - 1 {
///     assert_eq!(j_involution(2, n - 1, j_involution(1, n - 1, i)), (2 * i) % 9);
/// }
/// ```
#[inline]
pub fn j_involution(r: u64, nm1: u64, i: u64) -> u64 {
    if i == 0 || i == nm1 {
        return i;
    }
    // One extended-Euclid pass over (i, nm1) that tracks only i's
    // coefficient: it ends with g = gcd(i, nm1) and x·i ≡ g (mod nm1),
    // i.e. x ≡ (i/g)⁻¹ (mod nm1/g). Every |x| on the way is at most
    // nm1/g, so i64 holds for any array length.
    let (mut g, mut rem) = (i, nm1);
    let (mut x, mut next_x) = (1i64, 0i64);
    while rem != 0 {
        let q = g / rem;
        (g, rem) = (rem, g - q * rem);
        (x, next_x) = (next_x, x - q as i64 * next_x);
    }
    let m = nm1 / g;
    let inv = x.rem_euclid(m as i64) as u64;
    g * ((r % m) * inv % m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn j_involutions_compose_to_shuffle_map() {
        // J_k(J_1(i)) = k*i mod (n-1) on the interior.
        for (k, n) in [(2u64, 16u64), (3, 27), (4, 20), (7, 49)] {
            let nm1 = n - 1;
            for i in 1..nm1 {
                let s = j_involution(k, nm1, j_involution(1, nm1, i));
                assert_eq!(s, k * i % nm1, "k={k} n={n} i={i}");
            }
            assert_eq!(j_involution(1, nm1, 0), 0);
            assert_eq!(j_involution(k, nm1, nm1), nm1);
        }
    }

    /// The single Euclid pass returns what `gcd` followed by
    /// `mod_inverse` does, for every index of small domains and for
    /// domains near the top of the `i64` range.
    #[test]
    fn j_involution_matches_gcd_then_mod_inverse() {
        use ist_bits::{gcd, mod_inverse, mod_mul};
        let two_pass = |r: u64, nm1: u64, i: u64| {
            if i == 0 || i == nm1 {
                return i;
            }
            let g = gcd(i, nm1);
            let m = nm1 / g;
            g * mod_mul(r % m, mod_inverse(i / g, m).unwrap(), m)
        };
        for nm1 in 1..300u64 {
            for r in [1u64, 2, 3, 9] {
                for i in 0..=nm1 {
                    assert_eq!(
                        j_involution(r, nm1, i),
                        two_pass(r, nm1, i),
                        "r={r} nm1={nm1} i={i}"
                    );
                }
            }
        }
        for nm1 in [(1u64 << 61) - 1, (1 << 62) + 6, i64::MAX as u64] {
            for i in [1u64, 2, 12_345, 1 << 40, nm1 / 3, nm1 / 2, nm1 - 1] {
                assert_eq!(
                    j_involution(1, nm1, i),
                    two_pass(1, nm1, i),
                    "nm1={nm1} i={i}"
                );
            }
        }
    }
}
