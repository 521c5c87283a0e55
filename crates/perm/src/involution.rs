//! Applying an involution in place.
//!
//! An involution `f` on `[0, n)` satisfies `f(f(i)) = i`, so it decomposes
//! into fixed points and disjoint transpositions `{i, f(i)}`. Applying it
//! to an array means performing those swaps — each unordered pair exactly
//! once. We process pair `{i, f(i)}` at its smaller endpoint, which makes
//! the swap set trivially disjoint and hence safe to execute in parallel
//! (this is the CREW PRAM `O(1)`-depth, `O(N)`-work primitive the paper's
//! involution algorithms are built on). This module is the sequential
//! round; `ist_machine::Ram` runs the same rule across threads over a
//! [`crate::SharedSlice`].

/// Apply involution `f` restricted to indices in `[lo, hi)`.
///
/// `f` must map `[lo, hi)` into itself and satisfy `f(f(i)) = i`;
/// violations are caught by debug assertions and will otherwise scramble
/// data rather than cause UB. Pairs are swapped at their smaller endpoint.
///
/// # Examples
/// ```
/// use ist_perm::apply_involution_range;
/// let mut v = vec![0, 1, 2, 3, 4, 5, 6, 7];
/// apply_involution_range(&mut v, 0, 8, |i| 7 - i); // reversal is an involution
/// assert_eq!(v, vec![7, 6, 5, 4, 3, 2, 1, 0]);
/// ```
pub fn apply_involution_range<T, F>(data: &mut [T], lo: usize, hi: usize, f: F)
where
    F: Fn(usize) -> usize,
{
    assert!(hi <= data.len() && lo <= hi);
    for i in lo..hi {
        let j = f(i);
        debug_assert!(
            (lo..hi).contains(&j) || i == j,
            "involution escapes range: f({i}) = {j} not in [{lo}, {hi})"
        );
        debug_assert_eq!(f(j), i, "not an involution at {i}");
        if i < j {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution_twice_is_identity() {
        let n = 4097usize;
        let orig: Vec<u64> = (0..n as u64).collect();
        let mut v = orig.clone();
        // XOR-with-mask style involution with fixed points at the tail.
        let f = move |i: usize| if i ^ 5 < n { i ^ 5 } else { i };
        apply_involution_range(&mut v, 0, n, f);
        assert_ne!(v, orig);
        apply_involution_range(&mut v, 0, n, f);
        assert_eq!(v, orig);
    }

    #[test]
    fn range_restricted() {
        let mut v: Vec<u32> = (0..10).collect();
        // Reverse only the middle [2, 8).
        apply_involution_range(&mut v, 2, 8, |i| 2 + 7 - i);
        assert_eq!(v, vec![0, 1, 7, 6, 5, 4, 3, 2, 8, 9]);
    }

    #[test]
    fn identity_involution_is_noop() {
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        apply_involution_range(&mut v, 0, 100, |i| i);
        assert_eq!(v, orig);
    }
}
