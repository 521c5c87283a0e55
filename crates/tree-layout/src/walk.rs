//! Streaming scatters: every key of a sorted array paired with its
//! layout slot, one contiguous piece of the permutation at a time, with
//! O(1) amortized work per key and no division inside the loop.
//!
//! The closed-form map ([`CompleteShape::pos`] with [`crate::btree_pos`]
//! or [`crate::veb_pos`]) answers one rank at a time and re-derives the
//! whole shape on every call. A build moves *every*
//! key, in order, so it can carry the shape along instead:
//!
//! * [`BtreeWalk`] (also BST, which is the B-tree layout with `b = 1`)
//!   passes over sorted ranks once. Each level of the full part fills
//!   its slots left to right in sorted order, so a key only needs to know
//!   its level — the number of trailing zero base-`(b + 1)` digits of
//!   its 1-indexed full rank — and takes the next slot of that level.
//! * [`VebWalk`] recurses over the vEB split in slot order and finishes
//!   subtrees of at most five levels from [`veb_order`]'s tables.
//!
//! A walk is cut into independent [`pieces`](BtreeWalk::pieces), each
//! of which [`walk`](BtreeWalk::walk) seeds on its own, so a caller can
//! run the pieces in parallel: pieces partition the keys and the slots.
//! `f(rank, slot)` is called exactly once per key of the piece.
//! [`crate::complete`]'s maps stay the reference the walks are tested
//! against.

use core::ops::Range;

use crate::complete::CompleteShape;
use crate::veb::{veb_order, veb_split};

/// Most node levels a `usize`-indexed B-tree can have (`b = 1`).
const MAX_LEVELS: usize = usize::BITS as usize;

/// Cut points `0 = c₀ < c₁ < … = n` at about every `grain` keys,
/// each moved to the next point `align` accepts.
fn cuts(n: usize, grain: usize, align: impl Fn(usize) -> usize) -> Vec<Range<usize>> {
    let grain = grain.max(1);
    let mut pieces = Vec::with_capacity(n / grain + 1);
    let mut lo = 0;
    while lo < n {
        let hi = align(lo.saturating_add(grain)).min(n);
        pieces.push(lo..hi);
        lo = hi;
    }
    pieces
}

/// Streaming scatter of the complete B-tree layout
/// (`[perfect B-tree | overflow keys]`, see
/// [`CompleteShape`]) over sorted ranks.
///
/// In sorted order the keys come as `q` groups of `b + 1` — `b`
/// overflow keys, which move as one block to the overflow suffix, and
/// one separator of the full part — then the partial overflow node of
/// `s` keys, then the rest of the full part. Pieces are rank ranges;
/// inside the group prefix they start on a group boundary.
///
/// # Examples
/// ```
/// use ist_layout::{btree_pos, BtreeWalk, CompleteShape};
/// let (n, b) = (30, 2);
/// let shape = CompleteShape::new(n, b);
/// let walk = BtreeWalk::new(n, b);
/// let mut seen = 0;
/// for piece in walk.pieces(4) {
///     walk.walk(piece, |rank, slot| {
///         assert_eq!(slot, shape.pos(rank, |m, r| btree_pos(b, m, r)));
///         seen += 1;
///     });
/// }
/// assert_eq!(seen, n);
/// ```
#[derive(Debug, Clone)]
pub struct BtreeWalk {
    n: usize,
    b: usize,
    /// Node levels of the full part.
    m: usize,
    /// Keys in the full part, `(b + 1)^m − 1`.
    full: usize,
    /// Overflow keys, `n − full`.
    overflow: usize,
    /// Full overflow nodes `q = ⌊overflow / b⌋`: the groups of the
    /// prefix, whose separators are the first `q` full keys.
    groups: usize,
    /// End of the group prefix, `q · (b + 1)`.
    prefix_end: usize,
    /// When `b + 1 = 2^g` with `g = 2^h` (`b ∈ {1, 3, 15, 255}`), `h`:
    /// a count's trailing zero base-`(b + 1)` digits are its trailing
    /// zero bits `>> h`, so no odometer is needed.
    tz_shift: Option<u32>,
}

impl BtreeWalk {
    /// Walk for `n ≥ 1` keys, `b ≥ 1` keys per node.
    pub fn new(n: usize, b: usize) -> Self {
        let shape = CompleteShape::new(n, b);
        let k = b.saturating_add(1);
        let m = shape.full_node_levels() as usize;
        let g = k.trailing_zeros();
        let tz_shift = (k.is_power_of_two() && g.is_power_of_two()).then(|| g.trailing_zeros());
        Self {
            n,
            b,
            m,
            full: shape.full_count(),
            overflow: shape.overflow(),
            groups: shape.full_overflow_nodes(),
            prefix_end: shape.full_overflow_nodes() * k,
            tz_shift,
        }
    }

    /// Rank ranges of about `grain` keys that partition `0..n`; every
    /// cut inside the group prefix lies on a group boundary.
    pub fn pieces(&self, grain: usize) -> Vec<Range<usize>> {
        let k = self.b.saturating_add(1);
        cuts(self.n, grain, |c| {
            if c < self.prefix_end {
                c.next_multiple_of(k)
            } else {
                c
            }
        })
    }

    /// Call `f(rank, slot)` for every rank of `ranks`, a piece from
    /// [`BtreeWalk::pieces`] (or any range whose ends inside the group
    /// prefix are group boundaries).
    pub fn walk(&self, ranks: Range<usize>, f: impl FnMut(usize, usize)) {
        debug_assert!(ranks.end <= self.n);
        if self.tz_shift.is_some() {
            self.walk_with::<true>(ranks, f);
        } else {
            self.walk_with::<false>(ranks, f);
        }
    }

    fn walk_with<const TZ: bool>(&self, ranks: Range<usize>, mut f: impl FnMut(usize, usize)) {
        let Range { start: lo, end: hi } = ranks;
        let (b, k) = (self.b, self.b.saturating_add(1));
        let aligned = |r: usize| r >= self.prefix_end || r.is_multiple_of(k);
        debug_assert!(
            aligned(lo) && aligned(hi),
            "piece {lo}..{hi} splits a group"
        );
        // Full keys below `lo`.
        let placed = if lo <= self.prefix_end {
            lo / k
        } else {
            lo.saturating_sub(self.overflow).max(self.groups)
        };
        let mut levels = Levels::seed(self, placed);
        let mut r = lo;
        // Group prefix: `b` overflow keys in one block, then a separator.
        let prefix_end = hi.min(self.prefix_end);
        let mut over = self.full + placed * b;
        while r < prefix_end {
            // The first key on its own: for `b = 1` that is the block.
            f(r, over);
            for c in 1..b {
                f(r + c, over + c);
            }
            f(r + b, levels.next::<TZ>(self));
            r += k;
            over += b;
        }
        // Partial overflow node: the ranks up to `overflow + q` sit right
        // after the `q · b` keys of the full overflow nodes.
        while r < hi.min(self.overflow + self.groups) {
            f(r, self.full + r - self.groups);
            r += 1;
        }
        // The rest of the full part comes in groups too: `b` leaves,
        // then a key of a higher level. Finish the group `lo` cut, walk
        // whole groups, then the keys of the group `hi` cuts.
        while r < hi && levels.phase != 0 {
            f(r, levels.next::<TZ>(self));
            r += 1;
        }
        // `hi - r`, not `r + k`: the fan-out saturates at `usize::MAX`.
        while hi - r >= k {
            let leaf = levels.leaves(b);
            f(r, leaf);
            for c in 1..b {
                f(r + c, leaf + c);
            }
            f(r + b, levels.next::<TZ>(self));
            r += k;
        }
        while r < hi {
            f(r, levels.next::<TZ>(self));
            r += 1;
        }
    }
}

/// Where the next full-part key of a [`BtreeWalk`] goes. With `x` the
/// 1-indexed full rank of that key, it is a leaf unless `b + 1` divides
/// `x`, and then its level is 1 + the trailing zero base-`(b + 1)`
/// digits of `x / (b + 1)`.
struct Levels {
    /// `(x − 1) mod (b + 1)`: leaf keys since the last separator.
    phase: usize,
    /// Next free leaf slot.
    leaf: usize,
    /// `⌊(x − 1) / (b + 1)⌋` in base `b + 1`: `digits[t]` is digit
    /// `t − 1`, so a carry out of `digits[t]` moves a key above level `t`.
    digits: [usize; MAX_LEVELS],
    /// The same count as one number, for the trailing-zeros shortcut.
    upper: usize,
    /// `next[t]`: next free slot of level `t ≥ 1`.
    next: [usize; MAX_LEVELS],
}

impl Levels {
    /// State after `placed` full keys: one division per level.
    fn seed(walk: &BtreeWalk, placed: usize) -> Self {
        let k = walk.b.saturating_add(1);
        let mut levels = Self {
            phase: 0,
            leaf: 0,
            digits: [0; MAX_LEVELS],
            upper: placed / k,
            next: [0; MAX_LEVELS],
        };
        // Level `t` (counted up from the leaves) starts at slot
        // `k^(m − 1 − t) − 1`.
        let mut width = 1usize;
        for next in levels.next[..walk.m].iter_mut().rev() {
            *next = width - 1;
            width *= k;
        }
        // `y` = ⌊placed / k^t⌋ counts the placed keys with ≥ t trailing
        // zero digits; those with exactly t sit on level t.
        let mut y = placed;
        for t in 0..walk.m {
            let above = y / k;
            levels.digits[t] = y - above * k;
            levels.next[t] += y - above;
            y = above;
        }
        (levels.phase, levels.leaf) = (levels.digits[0], levels.next[0]);
        levels
    }

    /// First slot of the next `run` full keys, which must all be leaves
    /// (`run ≤ b − phase`); advances past them.
    #[inline(always)]
    fn leaves(&mut self, run: usize) -> usize {
        self.phase += run;
        self.leaf += run;
        self.leaf - run
    }

    /// Slot of the next full key; advances past it.
    #[inline(always)]
    fn next<const TZ: bool>(&mut self, walk: &BtreeWalk) -> usize {
        if self.phase < walk.b {
            self.phase += 1;
            self.leaf += 1;
            return self.leaf - 1;
        }
        self.phase = 0;
        let t = if TZ {
            self.upper += 1;
            let shift = walk.tz_shift.expect("TZ walks have a shift");
            1 + (self.upper.trailing_zeros() >> shift) as usize
        } else {
            let mut t = 1;
            loop {
                self.digits[t] += 1;
                if self.digits[t] <= walk.b {
                    break t;
                }
                self.digits[t] = 0;
                t += 1;
            }
        };
        self.next[t] += 1;
        self.next[t] - 1
    }
}

/// Subtrees of at most this many levels are finished from a table
/// ([`veb_order`]).
const VEB_TABLE_DEPTH: u32 = 5;

/// Streaming scatter of the complete vEB layout
/// (`[vEB layout of the full part | overflow leaves]`, see
/// [`CompleteShape`] at `b = 1`) in slot order.
///
/// A subtree is `(first rank, stride, depth, first slot)`: its in-order
/// keys are the full ranks `first + j · stride`. Its top tree recurses
/// with stride `stride · (l + 1)`, `l` being the keys of one bottom
/// tree, and each bottom tree on `l` consecutive in-order keys. Pieces
/// are slot ranges: the overflow suffix, and the bottom trees of the
/// top-level split, the first piece also holding the top tree.
///
/// # Examples
/// ```
/// use ist_layout::{veb_pos, CompleteShape, VebWalk};
/// let n = 1000;
/// let shape = CompleteShape::new(n, 1);
/// let walk = VebWalk::new(n);
/// let mut seen = 0;
/// for piece in walk.pieces(64) {
///     walk.walk(piece, |rank, slot| {
///         assert_eq!(slot, shape.pos(rank, veb_pos));
///         seen += 1;
///     });
/// }
/// assert_eq!(seen, n);
/// ```
#[derive(Debug, Clone)]
pub struct VebWalk {
    n: usize,
    /// Levels of the full part.
    d: u32,
    /// Keys in the full part, `2^d − 1`.
    full: usize,
    /// Overflow leaves, `n − full`.
    overflow: usize,
}

impl VebWalk {
    /// Walk for `n ≥ 1` keys.
    pub fn new(n: usize) -> Self {
        let shape = CompleteShape::new(n, 1);
        Self {
            n,
            d: shape.full_node_levels(),
            full: shape.full_count(),
            overflow: shape.overflow(),
        }
    }

    /// The top-level split as `(top keys, bottom keys)`, when the full
    /// part is too deep for one table.
    fn split(&self) -> Option<(usize, usize)> {
        (self.d > VEB_TABLE_DEPTH).then(|| {
            let (t, b) = veb_split(self.d);
            ((1 << t) - 1, (1 << b) - 1)
        })
    }

    /// Slot ranges of about `grain` keys that partition `0..n`; every
    /// cut inside the full part lies on a bottom tree boundary of the
    /// top-level split.
    pub fn pieces(&self, grain: usize) -> Vec<Range<usize>> {
        let (top, bottom) = self.split().unwrap_or((self.full, 1));
        cuts(self.n, grain, |c| {
            if c <= top {
                top.min(self.n)
            } else if c < self.full {
                top + (c - top).next_multiple_of(bottom)
            } else {
                c
            }
        })
    }

    /// Call `f(rank, slot)` for every slot of `slots`, a piece from
    /// [`VebWalk::pieces`].
    pub fn walk(&self, slots: Range<usize>, mut f: impl FnMut(usize, usize)) {
        let Range { start: lo, end: hi } = slots;
        debug_assert!(hi <= self.n);
        // Full rank → sorted rank: the overflow leaves take the even
        // ranks below `2L`.
        let overflow = self.overflow;
        let mut emit = |full_rank: usize, slot: usize| {
            let rank = if full_rank < overflow {
                2 * full_rank + 1
            } else {
                full_rank + overflow
            };
            f(rank, slot);
        };
        let full_hi = hi.min(self.full);
        if lo < full_hi {
            match self.split() {
                None => {
                    debug_assert!(lo == 0 && full_hi == self.full, "piece splits a table");
                    self.subtree(0, 1, self.d, 0, &mut emit);
                }
                Some((top, bottom)) => {
                    debug_assert!(lo == 0 || (lo >= top && (lo - top) % bottom == 0));
                    let mut slot = lo;
                    if slot == 0 {
                        self.subtree(bottom, bottom + 1, veb_split(self.d).0, 0, &mut emit);
                        slot = top;
                    }
                    // Bottom tree `i` holds in-order keys `i·(l+1)..` and
                    // starts at slot `top + i·l`.
                    let mut first = (slot - top) / bottom * (bottom + 1);
                    let depth = veb_split(self.d).1;
                    while slot < full_hi {
                        self.subtree(first, 1, depth, slot, &mut emit);
                        slot += bottom;
                        first += bottom + 1;
                    }
                    debug_assert_eq!(slot, full_hi, "piece splits a bottom tree");
                }
            }
        }
        // Overflow leaf `j` is sorted rank `2j` and sits at `full + j`.
        for slot in lo.max(self.full)..hi {
            f(2 * (slot - self.full), slot);
        }
    }

    /// Emit the `depth`-level subtree whose in-order keys are the full
    /// ranks `first + j · stride`, laid out from `slot`.
    fn subtree(
        &self,
        first: usize,
        stride: usize,
        depth: u32,
        slot: usize,
        emit: &mut impl FnMut(usize, usize),
    ) {
        if depth <= VEB_TABLE_DEPTH {
            let order = veb_order(depth).expect("the walk's tables are veb_order's");
            for (i, &j) in order.iter().enumerate() {
                emit(first + usize::from(j) * stride, slot + i);
            }
            return;
        }
        let (t, b) = veb_split(depth);
        let (top, bottom) = ((1usize << t) - 1, (1usize << b) - 1);
        self.subtree(
            first + bottom * stride,
            stride * (bottom + 1),
            t,
            slot,
            emit,
        );
        let mut first = first;
        let mut slot = slot + top;
        for _ in 0..=top {
            self.subtree(first, stride, b, slot, emit);
            first += (bottom + 1) * stride;
            slot += bottom;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bst::bst_pos;
    use crate::btree::btree_pos;
    use crate::veb::veb_pos;

    /// Walk `pieces` in order with `walk` and check that they partition
    /// `0..n`, that every rank and every slot is visited once, and that
    /// each `(rank, slot)` is `expect[rank]`.
    fn check(
        expect: &[usize],
        pieces: Vec<Range<usize>>,
        walk: impl Fn(Range<usize>, &mut dyn FnMut(usize, usize)),
        what: &str,
    ) {
        let n = expect.len();
        let (mut rank_seen, mut slot_seen) = (vec![false; n], vec![false; n]);
        let mut next = 0;
        for piece in pieces {
            assert_eq!(piece.start, next, "{what}: pieces are not contiguous");
            assert!(piece.start < piece.end, "{what}: empty piece");
            next = piece.end;
            walk(piece, &mut |rank, slot| {
                assert!(!rank_seen[rank], "{what}: rank {rank} twice");
                assert!(!slot_seen[slot], "{what}: slot {slot} twice");
                (rank_seen[rank], slot_seen[slot]) = (true, true);
                assert_eq!(slot, expect[rank], "{what}: rank {rank}");
            });
        }
        assert_eq!(next, n, "{what}: pieces do not cover 0..n");
        assert!(rank_seen.iter().all(|&s| s), "{what}: a rank was skipped");
    }

    /// Grains that cut a walk of `n` keys into one piece, into every
    /// piece boundary the walk allows, and into pieces of a few keys.
    fn grains(n: usize) -> [usize; 3] {
        [n, 1, 13]
    }

    #[test]
    fn btree_walk_matches_closed_form() {
        for b in [1usize, 2, 3, 7, 8, 16] {
            for n in 1..=2000usize {
                let shape = CompleteShape::new(n, b);
                let expect: Vec<usize> = (0..n)
                    .map(|r| shape.pos(r, |m, f| btree_pos(b, m, f)))
                    .collect();
                let walk = BtreeWalk::new(n, b);
                for grain in grains(n) {
                    let what = format!("b={b} n={n} grain={grain}");
                    check(&expect, walk.pieces(grain), |p, f| walk.walk(p, f), &what);
                }
            }
        }
    }

    #[test]
    fn veb_walk_matches_closed_form() {
        for n in 1..=2000usize {
            let shape = CompleteShape::new(n, 1);
            let expect: Vec<usize> = (0..n).map(|r| shape.pos(r, veb_pos)).collect();
            let walk = VebWalk::new(n);
            for grain in grains(n) {
                let what = format!("n={n} grain={grain}");
                check(&expect, walk.pieces(grain), |p, f| walk.walk(p, f), &what);
            }
        }
    }

    /// BST builds run the B-tree walk with `b = 1`: the two perfect
    /// maps agree on the complete format.
    #[test]
    fn bst_is_the_btree_layout_with_one_key_per_node() {
        for n in 1..=5000usize {
            let shape = CompleteShape::new(n, 1);
            for r in 0..n {
                let btree = shape.pos(r, |m, f| btree_pos(1, m, f));
                assert_eq!(shape.pos(r, bst_pos), btree, "n={n} r={r}");
            }
        }
    }
}
