//! k-way perfect shuffles and un-shuffles via involutions (Yang et al.).
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
//! `B`-way shuffle (Ξ₂) to regroup leaf elements into their nodes.

use ist_bits::rev_k;
use ist_perm::{apply_involution, apply_involution_par};

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

fn check_pow(n: usize, k: usize) -> u32 {
    assert!(k >= 2, "k must be at least 2");
    let d = ist_bits::ilog(k as u64, n as u64);
    assert_eq!(
        (k as u64).pow(d),
        n as u64,
        "shuffle_pow requires len = k^d (len = {n}, k = {k})"
    );
    d
}

/// k-way perfect shuffle for `N = k^d` via digit-reversal involutions (Ξ₁).
///
/// Interleaves `k` concatenated decks: `A[l·m + j] → position j·k + l`.
///
/// # Panics
/// Panics unless `data.len()` is a power of `k`.
///
/// # Examples
/// ```
/// use ist_shuffle::shuffle_pow;
/// let mut v = vec![0, 1, 2, 3, 4, 5, 6, 7]; // two decks [0..4), [4..8)
/// shuffle_pow(&mut v, 2);
/// assert_eq!(v, vec![0, 4, 1, 5, 2, 6, 3, 7]);
/// ```
pub fn shuffle_pow<T>(data: &mut [T], k: usize) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let d = check_pow(n, k);
    let kk = k as u64;
    apply_involution(data, |i| rev_k(kk, d - 1, i as u64) as usize);
    apply_involution(data, |i| rev_k(kk, d, i as u64) as usize);
}

/// Parallel version of [`shuffle_pow`].
pub fn shuffle_pow_par<T: Send>(data: &mut [T], k: usize) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let d = check_pow(n, k);
    let kk = k as u64;
    apply_involution_par(data, |i| rev_k(kk, d - 1, i as u64) as usize);
    apply_involution_par(data, |i| rev_k(kk, d, i as u64) as usize);
}

/// k-way perfect **un**-shuffle for `N = k^d` (inverse of [`shuffle_pow`]):
/// gathers residue classes mod `k` into contiguous decks.
///
/// # Examples
/// ```
/// use ist_shuffle::unshuffle_pow;
/// let mut v = vec![0, 4, 1, 5, 2, 6, 3, 7];
/// unshuffle_pow(&mut v, 2);
/// assert_eq!(v, vec![0, 1, 2, 3, 4, 5, 6, 7]);
/// ```
pub fn unshuffle_pow<T>(data: &mut [T], k: usize) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let d = check_pow(n, k);
    let kk = k as u64;
    apply_involution(data, |i| rev_k(kk, d, i as u64) as usize);
    apply_involution(data, |i| rev_k(kk, d - 1, i as u64) as usize);
}

/// Parallel version of [`unshuffle_pow`].
pub fn unshuffle_pow_par<T: Send>(data: &mut [T], k: usize) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let d = check_pow(n, k);
    let kk = k as u64;
    apply_involution_par(data, |i| rev_k(kk, d, i as u64) as usize);
    apply_involution_par(data, |i| rev_k(kk, d - 1, i as u64) as usize);
}

fn check_mod(n: usize, k: usize) {
    assert!(k >= 1, "k must be positive");
    assert_eq!(
        n % k,
        0,
        "shuffle_mod requires k | len (len = {n}, k = {k})"
    );
}

/// k-way perfect shuffle for any `N` divisible by `k`, via the `J`
/// involutions (Ξ₂). Semantics identical to [`shuffle_pow`].
///
/// # Examples
/// ```
/// use ist_shuffle::shuffle_mod;
/// let mut v = vec![0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]; // 3 decks of 4
/// shuffle_mod(&mut v, 3);
/// assert_eq!(v, vec![0, 10, 20, 1, 11, 21, 2, 12, 22, 3, 13, 23]);
/// ```
pub fn shuffle_mod<T>(data: &mut [T], k: usize) {
    let n = data.len();
    if n <= 1 || k == 1 {
        return;
    }
    check_mod(n, k);
    let nm1 = (n - 1) as u64;
    let kk = k as u64;
    apply_involution(data, |i| j_involution(1, nm1, i as u64) as usize);
    apply_involution(data, |i| j_involution(kk, nm1, i as u64) as usize);
}

/// Parallel version of [`shuffle_mod`].
pub fn shuffle_mod_par<T: Send>(data: &mut [T], k: usize) {
    let n = data.len();
    if n <= 1 || k == 1 {
        return;
    }
    check_mod(n, k);
    let nm1 = (n - 1) as u64;
    let kk = k as u64;
    apply_involution_par(data, |i| j_involution(1, nm1, i as u64) as usize);
    apply_involution_par(data, |i| j_involution(kk, nm1, i as u64) as usize);
}

/// k-way perfect **un**-shuffle for any `N` divisible by `k` (inverse of
/// [`shuffle_mod`]).
///
/// # Examples
/// ```
/// use ist_shuffle::unshuffle_mod;
/// let mut v = vec![0, 10, 20, 1, 11, 21, 2, 12, 22, 3, 13, 23];
/// unshuffle_mod(&mut v, 3);
/// assert_eq!(v, vec![0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]);
/// ```
pub fn unshuffle_mod<T>(data: &mut [T], k: usize) {
    let n = data.len();
    if n <= 1 || k == 1 {
        return;
    }
    check_mod(n, k);
    let nm1 = (n - 1) as u64;
    let kk = k as u64;
    apply_involution(data, |i| j_involution(kk, nm1, i as u64) as usize);
    apply_involution(data, |i| j_involution(1, nm1, i as u64) as usize);
}

/// Parallel version of [`unshuffle_mod`].
pub fn unshuffle_mod_par<T: Send>(data: &mut [T], k: usize) {
    let n = data.len();
    if n <= 1 || k == 1 {
        return;
    }
    check_mod(n, k);
    let nm1 = (n - 1) as u64;
    let kk = k as u64;
    apply_involution_par(data, |i| j_involution(kk, nm1, i as u64) as usize);
    apply_involution_par(data, |i| j_involution(1, nm1, i as u64) as usize);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Out-of-place reference shuffle used as the oracle.
    fn reference_shuffle<T: Clone>(data: &[T], k: usize) -> Vec<T> {
        let n = data.len();
        let m = n / k;
        let mut out = data.to_vec();
        for l in 0..k {
            for j in 0..m {
                out[j * k + l] = data[l * m + j].clone();
            }
        }
        out
    }

    #[test]
    fn pow_matches_reference() {
        for k in [2usize, 3, 4, 5] {
            for d in 1..=5u32 {
                let n = k.pow(d);
                let orig: Vec<usize> = (0..n).collect();
                let mut v = orig.clone();
                shuffle_pow(&mut v, k);
                assert_eq!(v, reference_shuffle(&orig, k), "k={k} d={d}");
                unshuffle_pow(&mut v, k);
                assert_eq!(v, orig, "k={k} d={d} roundtrip");
            }
        }
    }

    #[test]
    fn mod_matches_reference() {
        for k in [2usize, 3, 5, 8, 9] {
            for m in [1usize, 2, 3, 7, 16, 33, 100] {
                let n = k * m;
                let orig: Vec<usize> = (0..n).collect();
                let mut v = orig.clone();
                shuffle_mod(&mut v, k);
                assert_eq!(v, reference_shuffle(&orig, k), "k={k} m={m}");
                unshuffle_mod(&mut v, k);
                assert_eq!(v, orig, "k={k} m={m} roundtrip");
            }
        }
    }

    #[test]
    fn pow_and_mod_agree_on_power_sizes() {
        for k in [2usize, 3, 4] {
            for d in 1..=4u32 {
                let n = k.pow(d);
                let mut a: Vec<usize> = (0..n).collect();
                let mut b = a.clone();
                shuffle_pow(&mut a, k);
                shuffle_mod(&mut b, k);
                assert_eq!(a, b, "k={k} d={d}");
            }
        }
    }

    #[test]
    fn par_matches_seq() {
        let k = 3usize;
        let n = k.pow(9); // 19683
        let mut a: Vec<u64> = (0..n as u64).collect();
        let mut b = a.clone();
        shuffle_pow(&mut a, k);
        shuffle_pow_par(&mut b, k);
        assert_eq!(a, b);
        unshuffle_pow_par(&mut b, k);
        assert!(b.iter().copied().eq(0..n as u64));

        let n = k * 6821;
        let mut a: Vec<u64> = (0..n as u64).collect();
        let mut b = a.clone();
        unshuffle_mod(&mut a, k);
        unshuffle_mod_par(&mut b, k);
        assert_eq!(a, b);
        shuffle_mod_par(&mut b, k);
        assert!(b.iter().copied().eq(0..n as u64));
    }

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

    #[test]
    fn unshuffle_gathers_residue_classes() {
        // After un-shuffle, positions that were ≡ l (mod k) form deck l.
        let k = 4usize;
        let n = 4 * 25;
        let orig: Vec<usize> = (0..n).collect();
        let mut v = orig.clone();
        unshuffle_mod(&mut v, k);
        let m = n / k;
        for l in 0..k {
            for j in 0..m {
                assert_eq!(v[l * m + j], j * k + l);
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        let mut v: Vec<u8> = vec![];
        shuffle_mod(&mut v, 3);
        let mut v = vec![42];
        shuffle_mod(&mut v, 1);
        assert_eq!(v, vec![42]);
        let mut v = vec![1, 2, 3];
        shuffle_mod(&mut v, 3); // k = n: identity
        assert_eq!(v, vec![1, 2, 3]);
    }
}
