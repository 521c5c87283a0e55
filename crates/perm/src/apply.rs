//! Out-of-place reference application and permutation validation.
//!
//! These are the oracles the in-place algorithms are tested against: the
//! paper's observation that any permutation is trivially `O(N/P)` *with*
//! a second buffer (`A[i] → B[π(i)]`) is exactly [`apply_out_of_place`].

/// Apply `pi` out of place: returns `out` with `out[pi(i)] = data[i]`.
///
/// `pi` must be a permutation of `[0, data.len())`; duplicate targets
/// panic.
///
/// # Examples
/// ```
/// use ist_perm::apply_out_of_place;
/// let data = vec!['a', 'b', 'c'];
/// let out = apply_out_of_place(&data, |i| (i + 1) % 3);
/// assert_eq!(out, vec!['c', 'a', 'b']);
/// ```
pub fn apply_out_of_place<T: Clone, F>(data: &[T], pi: F) -> Vec<T>
where
    F: Fn(usize) -> usize,
{
    let n = data.len();
    let mut out: Vec<Option<T>> = vec![None; n];
    for (i, v) in data.iter().enumerate() {
        let j = pi(i);
        assert!(j < n, "pi({i}) = {j} out of bounds");
        assert!(out[j].is_none(), "pi not injective at target {j}");
        out[j] = Some(v.clone());
    }
    out.into_iter()
        .map(|o| o.expect("pi not surjective"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_then_inverse_is_identity() {
        let n = 64usize;
        let pi = |i: usize| (i * 5 + 3) % n;
        let data: Vec<usize> = (0..n).collect();
        let permuted = apply_out_of_place(&data, pi);
        // 5 · 13 ≡ 1 (mod 64), so i ↦ 13·(i − 3) inverts pi.
        let back = apply_out_of_place(&permuted, |i| (i + n - 3) * 13 % n);
        assert_eq!(back, data);
        assert_eq!(permuted[pi(7)], 7);
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn apply_rejects_collisions() {
        apply_out_of_place(&[1, 2], |_| 0);
    }
}
