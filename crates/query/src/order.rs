//! Order-statistic neighbors: successor and predecessor queries,
//! built entirely on the rank descent.
//!
//! Both are rank queries in disguise, so they inherit the rank descent
//! without any new per-layout code:
//!
//! * `successor(k)` — the first stored key **strictly greater** than
//!   `k` — is the element of sorted rank
//!   [`Searcher::land`]`::<true>(k).rank` (the count of keys `≤ k`): the
//!   slot of the `UPPER = true` landing, read off the descent's own
//!   registers.
//! * `predecessor(k)` — the last stored key **strictly smaller** than
//!   `k` — is the element of sorted rank [`Searcher::rank`]`(k) − 1`,
//!   one below the landing, so no descent register names it: it is
//!   resolved by the closed-form position maps
//!   ([`Searcher::position_of_rank`]).
//!
//! Either neighbor therefore costs exactly one descent (plus `O(1)`
//! position arithmetic for the predecessor), and duplicates of `k`
//! itself are skipped as a unit (see the duplicate-key contract in the
//! [crate docs](crate#duplicate-keys)). For the "first key `≥ k`"
//! variant use [`Searcher::lower_bound`].

use crate::Searcher;

impl<'a, T: Ord + Sync + 'static> Searcher<'a, T> {
    /// Layout position of the smallest stored key **strictly greater**
    /// than `key`, or `None` if no stored key exceeds it.
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = vec![10, 20, 20, 30];
    /// permute_in_place(&mut v, Layout::Bst, Algorithm::CycleLeader).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Bst);
    /// assert_eq!(s.successor(&20).map(|p| v[p]), Some(30)); // skips both 20s
    /// assert_eq!(s.successor(&5).map(|p| v[p]), Some(10));
    /// assert_eq!(s.successor(&30), None);
    /// ```
    pub fn successor(&self, key: &T) -> Option<usize> {
        self.land::<true>(key).slot
    }

    /// Layout position of the largest stored key **strictly smaller**
    /// than `key`, or `None` if no stored key is below it.
    ///
    /// # Examples
    /// ```
    /// use ist_core::{permute_in_place, Algorithm, Layout};
    /// use ist_query::Searcher;
    /// let mut v: Vec<u64> = vec![10, 20, 20, 30];
    /// permute_in_place(&mut v, Layout::Veb, Algorithm::CycleLeader).unwrap();
    /// let s = Searcher::for_layout(&v, Layout::Veb);
    /// assert_eq!(s.predecessor(&20).map(|p| v[p]), Some(10)); // skips both 20s
    /// assert_eq!(s.predecessor(&10), None);
    /// assert_eq!(s.predecessor(&99).map(|p| v[p]), Some(30));
    /// ```
    pub fn predecessor(&self, key: &T) -> Option<usize> {
        match self.rank(key) {
            0 => None,
            r => self.position_of_rank(r - 1),
        }
    }
}
