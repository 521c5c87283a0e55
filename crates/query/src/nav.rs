//! The layout-navigation abstraction: one descent semantics, every
//! execution engine.
//!
//! A query against an implicit layout is a *descent*: a fixed number of
//! rounds, each reading one node (one key for the binary layouts, `B`
//! keys for the B-tree), comparing, and moving to a child computed by
//! pure index arithmetic. The arithmetic is the only thing that differs
//! between layouts — so it lives **here, once**, behind the
//! [`Navigator`] trait, and every execution strategy is a thin driver
//! over it. Every layout's step is O(1): BST and B-tree children are
//! closed forms of the node index, and a vEB child follows from a saved
//! ancestor position through [`ist_layout::veb_levels`]' per-depth table
//! (the O(log log N) [`veb_pos`] map is not on any descent path; debug
//! builds assert each step against it). The drivers:
//!
//! * the scalar engine ([`search_with`] / [`rank_with`]) — one descent
//!   at a time, early exit on equality;
//! * the software-pipelined windowed engine (`crate::batch`) — a window
//!   of descents advanced level-synchronously, branchless, with the
//!   navigator supplying the prefetch targets;
//! * the GPU cost model (`ist-gpu-sim`) — warps of lanes stepping the
//!   same navigators and charging coalesced transactions.
//!
//! Because all three run the *same* `step` arithmetic, they visit the
//! same node sequences by construction; `tests/navigator_equivalence.rs`
//! pins this bit-for-bit via the [`Searcher`](crate::Searcher) trace
//! methods and `ist_gpu_sim::lane_node_trace`.
//!
//! ## The descent contract
//!
//! A navigator is built for one specific array (it borrows the data, so
//! the shape can never disagree with the slice it navigates). Per
//! descent:
//!
//! 1. [`Navigator::start`] yields the root registers. A descent keeps
//!    exactly two: a **cursor** (the node position) and an
//!    **accumulator** (the running in-order gap, or the undecided
//!    length for the sorted baseline). They are separate associated
//!    types so the windowed engine can store them
//!    structure-of-arrays — the layout the hand-tuned pre-navigator
//!    kernels used, and measurably faster than an array of state
//!    structs.
//! 2. [`Navigator::first_round`] gives the first round's constant
//!    (e.g. the per-level half-subtree size), advanced by
//!    [`Navigator::next_round`]; round constants are shared by every
//!    descent at the same level, which is what makes level-synchronous
//!    windows cheap.
//! 3. Each round, while [`Navigator::is_live`], the engine may read
//!    [`Navigator::node_base`] / [`Navigator::node_width`] (the
//!    addresses about to be touched), then calls one `step_*` method:
//!    branchless compare-and-advance. Search steps additionally latch a
//!    first equality hit into a result register (`*res` stays [`MISS`]
//!    until then). The **last** round uses the `step_*_last` variants:
//!    the descent falls off the perfect part, so the accumulator
//!    becomes the landing gap and no child is computed.
//! 4. After the rounds, [`Navigator::gap`] names the in-order gap the
//!    descent fell into; [`Navigator::resolve_miss`] probes the
//!    overflow suffix and [`Navigator::rank_of_gap`] converts the gap
//!    into a rank.
//!
//! Rank descents come in two flavors selected by a const generic:
//! `UPPER = false` counts keys strictly below the probe (ties descend
//! left), `UPPER = true` counts keys `≤` the probe (ties descend
//! right). Successor/predecessor queries are rank queries in disguise
//! (`crate::order`).

use ist_layout::{veb_levels, veb_pos, CompleteShape, VebCursor, VebLevel};

pub use crate::wide::{SimdKey, WideBtreeNav};

/// Sentinel for "no equality hit latched yet" in a search descent's
/// result register (never a valid layout index: indices are
/// `< data.len()`).
pub const MISS: usize = usize::MAX;

/// Issue a best-effort prefetch of `data[index]` into the first-level
/// data cache.
///
/// **Contract**: purely a performance hint — never a semantic
/// dependency. Out-of-bounds indices are dropped (never dereferenced),
/// and on architectures without a wired-up hint instruction the call
/// compiles to nothing; results must be identical either way (the
/// forced-serial and cross-arch CI legs run with whatever this lowers
/// to). Wired instructions: `prefetcht0` on `x86_64`, `prfm pldl1keep`
/// on `aarch64`.
#[inline(always)]
pub(crate) fn prefetch<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if index < data.len() {
            // SAFETY: the pointer is in bounds (checked) and prefetching
            // any address is side-effect free.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    data.as_ptr().add(index) as *const i8,
                );
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if index < data.len() {
            // SAFETY: the pointer is in bounds (checked); PRFM is
            // side-effect free (the stable-toolchain spelling of the
            // unstable `core::arch::aarch64::_prefetch` intrinsic).
            unsafe {
                core::arch::asm!(
                    "prfm pldl1keep, [{ptr}]",
                    ptr = in(reg) data.as_ptr().add(index),
                    options(readonly, nostack, preserves_flags),
                );
            }
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (data, index);
    }
}

/// Shape data for BST/vEB descents over a complete binary tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BinaryShape {
    /// Depth of the full (perfect) part in levels.
    pub(crate) d: u32,
    /// Keys in the full part: `2^d − 1`.
    pub(crate) i: usize,
    /// Overflow leaves stored sorted in the array suffix.
    pub(crate) l: usize,
}

impl BinaryShape {
    pub(crate) fn new(n: usize) -> Self {
        if n == 0 {
            return Self { d: 0, i: 0, l: 0 };
        }
        let s = CompleteShape::new(n);
        Self {
            d: s.full_levels(),
            i: s.full_count(),
            l: s.overflow(),
        }
    }
}

/// Shape data for B-tree descents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BtreeSearchShape {
    /// Keys per node.
    pub(crate) b: usize,
    /// Keys in the full part.
    pub(crate) i: usize,
    /// Nodes in the full part.
    pub(crate) num_nodes: usize,
    /// Node levels in the full part (`num_nodes = ((b+1)^levels − 1)/b`).
    pub(crate) levels: u32,
    /// Full overflow leaf nodes.
    pub(crate) q: usize,
    /// Keys in the final partial overflow node.
    pub(crate) s: usize,
}

impl BtreeSearchShape {
    pub(crate) fn new(n: usize, b: usize) -> Self {
        if n == 0 {
            return Self {
                b,
                i: 0,
                num_nodes: 0,
                levels: 0,
                q: 0,
                s: 0,
            };
        }
        let s = ist_layout::complete::BtreeCompleteShape::new(n, b);
        Self {
            b,
            i: s.full_count(),
            num_nodes: s.full_count() / b,
            levels: s.full_node_levels(),
            q: s.full_overflow_nodes(),
            s: s.partial_node_len(),
        }
    }
}

/// One layout's descent arithmetic: shape state plus branchless
/// compare-and-advance steps over a two-register descent state. See the
/// [module docs](self) for the engine/navigator contract.
///
/// Implementations borrow the array they navigate, so every address a
/// step dereferences is in bounds by construction (the shape is derived
/// from `data.len()` in the constructor and nowhere else).
pub trait Navigator<T: Ord>: Copy {
    /// The node-cursor register (e.g. the level-order node index).
    type Cursor: Copy;
    /// The accumulator register (the running in-order gap, or the
    /// sorted baseline's undecided length).
    type Acc: Copy;
    /// Per-round constant (identical for all descents at one level).
    type Round: Copy;

    /// The array this navigator descends.
    fn data(&self) -> &[T];
    /// Number of rounds every descent takes before falling off the
    /// perfect part (live lanes; see [`Navigator::is_live`]).
    fn rounds(&self) -> u32;
    /// Root registers of a fresh descent.
    fn start(&self) -> (Self::Cursor, Self::Acc);
    /// Round constant for the first level.
    fn first_round(&self) -> Self::Round;
    /// Round constant for the next level.
    fn next_round(&self, ctx: Self::Round) -> Self::Round;

    /// `false` once a descent has drained before `rounds()` is up (only
    /// the sorted baseline does; tree descents run the full count).
    #[inline(always)]
    fn is_live(&self, _cur: &Self::Cursor, _acc: &Self::Acc) -> bool {
        true
    }
    /// First array index the next `step` will read.
    fn node_base(&self, cur: &Self::Cursor, acc: &Self::Acc) -> usize;
    /// Contiguous keys read per step (1, or `B` for the B-tree).
    #[inline(always)]
    fn node_width(&self) -> usize {
        1
    }

    /// **Search** step: compare `key` against the current node, latch a
    /// first equality hit into `*res` (left at [`MISS`] otherwise), and
    /// branchlessly advance to the child. Ties descend toward smaller
    /// positions, exactly like the pre-navigator per-layout kernels.
    ///
    /// Engines call this for every round **except the last** (see
    /// [`Navigator::step_search_last`]), so implementations may assume
    /// a child node exists.
    fn step_search(
        &self,
        cur: &mut Self::Cursor,
        acc: &mut Self::Acc,
        res: &mut usize,
        key: &T,
        ctx: Self::Round,
    );

    /// Final-round **search** step: same compare-and-latch, but the
    /// descent falls off the perfect part, so the accumulator becomes
    /// the landing gap and no child is computed.
    fn step_search_last(
        &self,
        cur: &mut Self::Cursor,
        acc: &mut Self::Acc,
        res: &mut usize,
        key: &T,
    );

    /// **Rank** step: advance without an equality latch. With
    /// `UPPER = false` ties descend left (the final gap counts keys
    /// `< key`); with `UPPER = true` ties descend right (keys `≤ key`).
    /// Like [`Navigator::step_search`], never the last round.
    fn step_rank<const UPPER: bool>(
        &self,
        cur: &mut Self::Cursor,
        acc: &mut Self::Acc,
        key: &T,
        ctx: Self::Round,
    );

    /// Final-round **rank** step (see [`Navigator::step_search_last`]).
    fn step_rank_last<const UPPER: bool>(
        &self,
        cur: &mut Self::Cursor,
        acc: &mut Self::Acc,
        key: &T,
    );

    /// The in-order gap a finished descent fell into.
    fn gap(&self, cur: &Self::Cursor, acc: &Self::Acc) -> usize;
    /// Probe the overflow suffix hanging in `gap` for `key` (search
    /// resolution after a descent with no latched hit).
    fn resolve_miss(&self, gap: usize, key: &T) -> Option<usize>;
    /// Convert a finished rank descent's gap into the rank (`< key`
    /// count, or `≤ key` with `UPPER`).
    fn rank_of_gap<const UPPER: bool>(&self, gap: usize, key: &T) -> usize;

    /// Prefetch the node the registers will read next (windowed engine:
    /// issued right after `step`, long before the lane is re-touched).
    fn prefetch_node(&self, cur: &Self::Cursor, acc: &Self::Acc);
    /// Prefetch the overflow-probe target for a finished descent.
    fn prefetch_gap(&self, gap: usize);
    /// Scalar-loop prefetch hint issued *before* the compare (the BST
    /// grandchild prefetch of Khuong & Morin); no-op elsewhere.
    #[inline(always)]
    fn prefetch_hint(&self, _cur: &Self::Cursor) {}
}

// ---------------------------------------------------------------------
// Shared complete-binary-tree resolution helpers (BST and vEB fall off
// into the same `[perfect | overflow leaves]` suffix format).
// ---------------------------------------------------------------------

#[inline]
fn probe_overflow<T: Ord>(data: &[T], i: usize, l: usize, g: usize, key: &T) -> Option<usize> {
    if g < l && data[i + g] == *key {
        Some(i + g)
    } else {
        None
    }
}

/// Complete-binary-tree rank from the fall-off gap: `g` full elements
/// are on the counted side; add the overflow leaves below gap `g` and
/// the gap-`g` leaf if it too is on the counted side (`< key`, or
/// `≤ key` for `UPPER`).
#[inline]
fn binary_rank_from_gap<T: Ord, const UPPER: bool>(
    data: &[T],
    i: usize,
    l: usize,
    g: usize,
    key: &T,
) -> usize {
    let mut rank = g + g.min(l);
    if g < l && counted::<T, UPPER>(&data[i + g], key) {
        rank += 1;
    }
    rank
}

/// Is `stored` on the counted side of the rank boundary?
#[inline(always)]
fn counted<T: Ord, const UPPER: bool>(stored: &T, key: &T) -> bool {
    if UPPER {
        *stored <= *key
    } else {
        *stored < *key
    }
}

// ---------------------------------------------------------------------
// BST: level-order descent, v → 2v+1 / 2v+2.
// ---------------------------------------------------------------------

/// Navigator for the level-order BST layout (optionally issuing the
/// scalar grandchild-prefetch hint). Cursor: node index `v`;
/// accumulator: full-rank of the subtree's leftmost gap.
pub struct BstNav<'a, T> {
    data: &'a [T],
    shape: BinaryShape,
    prefetch: bool,
}

impl<'a, T> Clone for BstNav<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for BstNav<'a, T> {}

impl<'a, T: Ord> BstNav<'a, T> {
    /// Navigator for `data` in BST layout (`[perfect | overflow]`).
    pub fn new(data: &'a [T]) -> Self {
        Self::from_shape(data, BinaryShape::new(data.len()), false)
    }

    #[inline]
    pub(crate) fn from_shape(data: &'a [T], shape: BinaryShape, prefetch: bool) -> Self {
        debug_assert_eq!(shape, BinaryShape::new(data.len()));
        Self {
            data,
            shape,
            prefetch,
        }
    }
}

impl<'a, T: Ord> Navigator<T> for BstNav<'a, T> {
    type Cursor = usize;
    type Acc = usize;
    /// The per-level half-subtree size `2^{d−1−level} − 1`.
    type Round = usize;

    #[inline(always)]
    fn data(&self) -> &[T] {
        self.data
    }
    #[inline(always)]
    fn rounds(&self) -> u32 {
        self.shape.d
    }
    #[inline(always)]
    fn start(&self) -> (usize, usize) {
        (0, 0)
    }
    #[inline(always)]
    fn first_round(&self) -> usize {
        self.shape.i >> 1
    }
    #[inline(always)]
    fn next_round(&self, half: usize) -> usize {
        half >> 1
    }
    #[inline(always)]
    fn node_base(&self, cur: &usize, _acc: &usize) -> usize {
        *cur
    }

    #[inline(always)]
    fn step_search(&self, cur: &mut usize, acc: &mut usize, res: &mut usize, key: &T, half: usize) {
        let v = *cur;
        debug_assert!(v < self.shape.i);
        // SAFETY: on each of the `d` full levels a node index is at most
        // 2^{level+1} − 2 ≤ 2^d − 2 < i ≤ data.len(), and the shape was
        // derived from this very slice's length.
        let node = unsafe { self.data.get_unchecked(v) };
        let hit = (*res == MISS) & (*key == *node);
        *res = if hit { v } else { *res };
        let gt = usize::from(*key > *node);
        *cur = 2 * v + 1 + gt;
        *acc += (half + 1) * gt;
    }

    #[inline(always)]
    fn step_search_last(&self, cur: &mut usize, acc: &mut usize, res: &mut usize, key: &T) {
        // The last level's subtrees are single nodes: half = 0.
        self.step_search(cur, acc, res, key, 0);
    }

    #[inline(always)]
    fn step_rank<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T, half: usize) {
        let v = *cur;
        debug_assert!(v < self.shape.i);
        // SAFETY: as in `step_search`.
        let node = unsafe { self.data.get_unchecked(v) };
        let gt = usize::from(counted::<T, UPPER>(node, key));
        *cur = 2 * v + 1 + gt;
        *acc += (half + 1) * gt;
    }

    #[inline(always)]
    fn step_rank_last<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T) {
        self.step_rank::<UPPER>(cur, acc, key, 0);
    }

    #[inline(always)]
    fn gap(&self, _cur: &usize, acc: &usize) -> usize {
        *acc
    }
    #[inline]
    fn resolve_miss(&self, gap: usize, key: &T) -> Option<usize> {
        probe_overflow(self.data, self.shape.i, self.shape.l, gap, key)
    }
    #[inline]
    fn rank_of_gap<const UPPER: bool>(&self, gap: usize, key: &T) -> usize {
        binary_rank_from_gap::<T, UPPER>(self.data, self.shape.i, self.shape.l, gap, key)
    }
    #[inline(always)]
    fn prefetch_node(&self, cur: &usize, _acc: &usize) {
        prefetch(self.data, *cur);
    }
    #[inline(always)]
    fn prefetch_gap(&self, gap: usize) {
        prefetch(self.data, self.shape.i + gap);
    }
    #[inline(always)]
    fn prefetch_hint(&self, cur: &usize) {
        if self.prefetch {
            // Grandchildren region: by the time the two comparisons at
            // `v` resolve, the line is (ideally) resident.
            prefetch(self.data, 4 * *cur + 3);
        }
    }
}

// ---------------------------------------------------------------------
// vEB: descent by index within the depth; the layout index follows
// through the per-depth table (one lookup, mask and multiply-add per
// step).
// ---------------------------------------------------------------------

/// Navigator for the van Emde Boas layout. Cursor: the layout index of
/// the current node plus the saved ancestor positions the
/// [descent table](ist_layout::veb_levels) derives the next one from;
/// accumulator: the node's index within its depth (from 0, left to
/// right — the path's turns as bits), which ends as the landing gap.
pub struct VebNav<'a, T> {
    data: &'a [T],
    shape: BinaryShape,
    /// The descent table for `shape.d` levels.
    levels: &'static [VebLevel],
}

impl<'a, T> Clone for VebNav<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for VebNav<'a, T> {}

impl<'a, T: Ord> VebNav<'a, T> {
    /// Navigator for `data` in vEB layout (`[perfect | overflow]`).
    pub fn new(data: &'a [T]) -> Self {
        Self::from_shape(data, BinaryShape::new(data.len()))
    }

    #[inline]
    pub(crate) fn from_shape(data: &'a [T], shape: BinaryShape) -> Self {
        debug_assert_eq!(shape, BinaryShape::new(data.len()));
        Self {
            data,
            shape,
            levels: veb_levels(shape.d),
        }
    }

    /// Move to the left or right child, at depth `k`.
    #[inline(always)]
    fn advance(&self, cur: &mut VebCursor, acc: &mut usize, left: bool, k: u32) {
        cur.descend(&self.levels[k as usize], *acc, left);
        *acc = 2 * *acc + usize::from(!left);
        debug_assert_eq!(
            cur.pos(),
            // In-order rank of node `acc` of depth `k`.
            veb_pos(self.shape.d, ((2 * *acc + 1) << (self.shape.d - 1 - k)) - 1)
        );
    }
}

impl<'a, T: Ord> Navigator<T> for VebNav<'a, T> {
    type Cursor = VebCursor;
    type Acc = usize;
    /// The depth `k ≥ 1` the round's step moves onto (the leaf round
    /// has no step — see [`Navigator::step_search_last`]).
    type Round = u32;

    #[inline(always)]
    fn data(&self) -> &[T] {
        self.data
    }
    #[inline(always)]
    fn rounds(&self) -> u32 {
        self.shape.d
    }
    #[inline(always)]
    fn start(&self) -> (VebCursor, usize) {
        (VebCursor::ROOT, 0)
    }
    #[inline(always)]
    fn first_round(&self) -> u32 {
        1
    }
    #[inline(always)]
    fn next_round(&self, k: u32) -> u32 {
        k + 1
    }
    #[inline(always)]
    fn node_base(&self, cur: &VebCursor, _acc: &usize) -> usize {
        cur.pos()
    }

    #[inline(always)]
    fn step_search(&self, cur: &mut VebCursor, acc: &mut usize, res: &mut usize, key: &T, k: u32) {
        let pos = cur.pos();
        debug_assert!(pos < self.shape.i);
        // SAFETY: the descent table maps the nodes of the d full levels
        // to layout positions 0..i (checked against veb_pos per step in
        // debug builds and exhaustively in ist-layout's tests), the
        // engines step at most d rounds from the root, and the shape was
        // derived from this very slice's length.
        let node = unsafe { self.data.get_unchecked(pos) };
        let hit = (*res == MISS) & (*key == *node);
        *res = if hit { pos } else { *res };
        self.advance(cur, acc, *key < *node, k);
    }

    #[inline(always)]
    fn step_search_last(&self, cur: &mut VebCursor, acc: &mut usize, res: &mut usize, key: &T) {
        let pos = cur.pos();
        debug_assert!(pos < self.shape.i);
        // SAFETY: as in `step_search`.
        let node = unsafe { self.data.get_unchecked(pos) };
        let hit = (*res == MISS) & (*key == *node);
        *res = if hit { pos } else { *res };
        // Fell off leaf `acc`: gap 2·acc left of it, 2·acc + 1 right.
        // No child, so no position to derive.
        *acc = 2 * *acc + usize::from(*key >= *node);
    }

    #[inline(always)]
    fn step_rank<const UPPER: bool>(&self, cur: &mut VebCursor, acc: &mut usize, key: &T, k: u32) {
        let pos = cur.pos();
        debug_assert!(pos < self.shape.i);
        // SAFETY: as in `step_search`.
        let node = unsafe { self.data.get_unchecked(pos) };
        self.advance(cur, acc, !counted::<T, UPPER>(node, key), k);
    }

    #[inline(always)]
    fn step_rank_last<const UPPER: bool>(&self, cur: &mut VebCursor, acc: &mut usize, key: &T) {
        let pos = cur.pos();
        debug_assert!(pos < self.shape.i);
        // SAFETY: as in `step_search`.
        let node = unsafe { self.data.get_unchecked(pos) };
        *acc = 2 * *acc + usize::from(counted::<T, UPPER>(node, key));
    }

    #[inline(always)]
    fn gap(&self, _cur: &VebCursor, acc: &usize) -> usize {
        *acc
    }
    #[inline]
    fn resolve_miss(&self, gap: usize, key: &T) -> Option<usize> {
        probe_overflow(self.data, self.shape.i, self.shape.l, gap, key)
    }
    #[inline]
    fn rank_of_gap<const UPPER: bool>(&self, gap: usize, key: &T) -> usize {
        binary_rank_from_gap::<T, UPPER>(self.data, self.shape.i, self.shape.l, gap, key)
    }
    #[inline(always)]
    fn prefetch_node(&self, cur: &VebCursor, _acc: &usize) {
        prefetch(self.data, cur.pos());
    }
    #[inline(always)]
    fn prefetch_gap(&self, gap: usize) {
        prefetch(self.data, self.shape.i + gap);
    }
}

// ---------------------------------------------------------------------
// B-tree: (B+1)-ary descent, one B-key node per level.
// ---------------------------------------------------------------------

/// Navigator for the level-order B-tree layout. Cursor: node index;
/// accumulator: full-rank of the subtree's leftmost gap.
pub struct BtreeNav<'a, T> {
    data: &'a [T],
    shape: BtreeSearchShape,
}

impl<'a, T> Clone for BtreeNav<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for BtreeNav<'a, T> {}

impl<'a, T: Ord> BtreeNav<'a, T> {
    /// Navigator for `data` in B-tree layout with `b ≥ 1` keys per node.
    pub fn new(data: &'a [T], b: usize) -> Self {
        Self {
            data,
            shape: BtreeSearchShape::new(data.len(), b),
        }
    }

    #[inline]
    pub(crate) fn from_shape(data: &'a [T], shape: BtreeSearchShape) -> Self {
        debug_assert_eq!(shape, BtreeSearchShape::new(data.len(), shape.b));
        Self { data, shape }
    }

    /// The node's `B` keys at node index `v`.
    #[inline(always)]
    fn node_keys(&self, v: usize) -> &[T] {
        debug_assert!(v < self.shape.num_nodes);
        let base = v * self.shape.b;
        // SAFETY: on each of the `levels` node levels v < num_nodes, so
        // the node's b keys end at v*b + b ≤ i ≤ data.len(), and the
        // shape was derived from this very slice's length.
        unsafe { self.data.get_unchecked(base..base + self.shape.b) }
    }

    /// Start index and length of the overflow node hanging in gap `g`.
    #[inline]
    fn overflow_node(&self, g: usize) -> (usize, usize) {
        let BtreeSearchShape { b, i, q, s, .. } = self.shape;
        if g < q {
            (i + g * b, b)
        } else if g == q {
            (i + q * b, s)
        } else {
            (0, 0)
        }
    }
}

impl<'a, T: Ord> Navigator<T> for BtreeNav<'a, T> {
    type Cursor = usize;
    type Acc = usize;
    /// The per-level child subtree span `(B+1)^{levels−1−level} − 1`.
    type Round = usize;

    #[inline(always)]
    fn data(&self) -> &[T] {
        self.data
    }
    #[inline(always)]
    fn rounds(&self) -> u32 {
        self.shape.levels
    }
    #[inline(always)]
    fn start(&self) -> (usize, usize) {
        (0, 0)
    }
    #[inline(always)]
    fn first_round(&self) -> usize {
        self.shape.i.saturating_sub(self.shape.b) / (self.shape.b + 1)
    }
    #[inline(always)]
    fn next_round(&self, child: usize) -> usize {
        child.saturating_sub(self.shape.b) / (self.shape.b + 1)
    }
    #[inline(always)]
    fn node_base(&self, cur: &usize, _acc: &usize) -> usize {
        *cur * self.shape.b
    }
    #[inline(always)]
    fn node_width(&self) -> usize {
        self.shape.b
    }

    #[inline(always)]
    fn step_search(
        &self,
        cur: &mut usize,
        acc: &mut usize,
        res: &mut usize,
        key: &T,
        child: usize,
    ) {
        let v = *cur;
        let base = v * self.shape.b;
        let keys = self.node_keys(v);
        // c = number of node keys < key (whole-node branchless scan; B is
        // small enough that the node is one or two cache lines).
        let mut c = 0usize;
        for kk in keys {
            c += usize::from(*key > *kk);
        }
        let hit = *res == MISS && c < self.shape.b && keys[c] == *key;
        *res = if hit { base + c } else { *res };
        *cur = v * (self.shape.b + 1) + c + 1;
        *acc += c * (child + 1);
    }

    #[inline(always)]
    fn step_search_last(&self, cur: &mut usize, acc: &mut usize, res: &mut usize, key: &T) {
        // The last node level's child subtrees are empty: child = 0.
        self.step_search(cur, acc, res, key, 0);
    }

    #[inline(always)]
    fn step_rank<const UPPER: bool>(
        &self,
        cur: &mut usize,
        acc: &mut usize,
        key: &T,
        child: usize,
    ) {
        let v = *cur;
        let keys = self.node_keys(v);
        let mut c = 0usize;
        for kk in keys {
            c += usize::from(counted::<T, UPPER>(kk, key));
        }
        *cur = v * (self.shape.b + 1) + c + 1;
        *acc += c * (child + 1);
    }

    #[inline(always)]
    fn step_rank_last<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T) {
        self.step_rank::<UPPER>(cur, acc, key, 0);
    }

    #[inline(always)]
    fn gap(&self, _cur: &usize, acc: &usize) -> usize {
        *acc
    }

    /// Scan the overflow node hanging in gap `gap` for `key`.
    #[inline]
    fn resolve_miss(&self, gap: usize, key: &T) -> Option<usize> {
        let (start, len) = self.overflow_node(gap);
        self.data[start..start + len]
            .iter()
            .position(|x| *x == *key)
            .map(|off| start + off)
    }

    /// B-tree rank from the fall-off gap: `gap` full elements counted,
    /// plus the overflow keys in gaps before `gap`, plus the
    /// within-gap prefix still on the counted side.
    #[inline]
    fn rank_of_gap<const UPPER: bool>(&self, gap: usize, key: &T) -> usize {
        let BtreeSearchShape { b, q, s, .. } = self.shape;
        let mut rank = gap + gap.min(q) * b + if gap > q { s } else { 0 };
        let (start, len) = self.overflow_node(gap);
        rank += self.data[start..start + len]
            .iter()
            .take_while(|x| counted::<T, UPPER>(x, key))
            .count();
        rank
    }

    #[inline(always)]
    fn prefetch_node(&self, cur: &usize, _acc: &usize) {
        prefetch(self.data, *cur * self.shape.b);
    }
    #[inline(always)]
    fn prefetch_gap(&self, gap: usize) {
        if gap <= self.shape.q {
            prefetch(self.data, self.shape.i + gap * self.shape.b);
        }
    }
}

// ---------------------------------------------------------------------
// Sorted baseline: deterministic partition-point probes on the
// un-permuted array.
// ---------------------------------------------------------------------

/// Navigator for the un-permuted sorted array (the binary-search
/// baseline). Cursor: `lo`, the count of keys known on the counted
/// side; accumulator: the undecided length. A "search" descent is a
/// rank descent plus a verify probe at the partition point, so hits
/// resolve to the **leftmost** matching index.
pub struct SortedNav<'a, T> {
    data: &'a [T],
}

impl<'a, T> Clone for SortedNav<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for SortedNav<'a, T> {}

impl<'a, T: Ord> SortedNav<'a, T> {
    /// Navigator over sorted (un-permuted) `data`.
    pub fn new(data: &'a [T]) -> Self {
        Self { data }
    }
}

impl<'a, T: Ord> Navigator<T> for SortedNav<'a, T> {
    type Cursor = usize;
    type Acc = usize;
    type Round = ();

    #[inline(always)]
    fn data(&self) -> &[T] {
        self.data
    }
    /// `len` at least halves per round, so `⌊log2 n⌋ + 1` rounds drain
    /// every descent; drained descents (`len == 0`) stop being live.
    #[inline(always)]
    fn rounds(&self) -> u32 {
        usize::BITS - self.data.len().leading_zeros()
    }
    #[inline(always)]
    fn start(&self) -> (usize, usize) {
        (0, self.data.len())
    }
    #[inline(always)]
    fn first_round(&self) {}
    #[inline(always)]
    fn next_round(&self, (): ()) {}
    #[inline(always)]
    fn is_live(&self, _cur: &usize, acc: &usize) -> bool {
        *acc > 0
    }
    #[inline(always)]
    fn node_base(&self, cur: &usize, acc: &usize) -> usize {
        *cur + *acc / 2
    }

    /// Never latches a hit: equality is resolved by the verify probe in
    /// [`Navigator::resolve_miss`], pinning the leftmost-match contract
    /// and keeping the probe sequence identical to the rank descent.
    #[inline(always)]
    fn step_search(&self, cur: &mut usize, acc: &mut usize, _res: &mut usize, key: &T, (): ()) {
        self.step_rank::<false>(cur, acc, key, ());
    }

    #[inline(always)]
    fn step_search_last(&self, cur: &mut usize, acc: &mut usize, res: &mut usize, key: &T) {
        // Every partition-point round is the same; the "last" round is
        // just the one that drains the final undecided element.
        self.step_search(cur, acc, res, key, ());
    }

    #[inline(always)]
    fn step_rank<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T, (): ()) {
        let len = *acc;
        let half = len / 2;
        let idx = *cur + half;
        debug_assert!(idx < self.data.len());
        // SAFETY: the partition-point loop keeps lo + len ≤ data.len()
        // and probes lo + len/2 < lo + len (engines only step live
        // descents, i.e. len > 0).
        let node = unsafe { self.data.get_unchecked(idx) };
        let take = counted::<T, UPPER>(node, key);
        *cur = if take { idx + 1 } else { *cur };
        *acc = if take { len - half - 1 } else { half };
    }

    #[inline(always)]
    fn step_rank_last<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T) {
        self.step_rank::<UPPER>(cur, acc, key, ());
    }

    #[inline(always)]
    fn gap(&self, cur: &usize, _acc: &usize) -> usize {
        *cur
    }
    #[inline]
    fn resolve_miss(&self, gap: usize, key: &T) -> Option<usize> {
        if gap < self.data.len() && self.data[gap] == *key {
            Some(gap)
        } else {
            None
        }
    }
    #[inline(always)]
    fn rank_of_gap<const UPPER: bool>(&self, gap: usize, _key: &T) -> usize {
        gap
    }
    #[inline(always)]
    fn prefetch_node(&self, cur: &usize, acc: &usize) {
        if *acc > 0 {
            prefetch(self.data, *cur + *acc / 2);
        }
    }
    #[inline(always)]
    fn prefetch_gap(&self, gap: usize) {
        prefetch(self.data, gap);
    }
}

// ---------------------------------------------------------------------
// The scalar engine: one descent at a time, run to completion.
// ---------------------------------------------------------------------

/// Scalar search over any navigator: early exit on equality, overflow
/// probe on falling off. `tap` observes the base address of every node
/// read (a no-op closure compiles away); the equivalence suite uses it
/// to pin execution paths together.
#[inline(always)]
pub fn search_with<T: Ord, N: Navigator<T>>(
    nav: &N,
    key: &T,
    mut tap: impl FnMut(usize),
) -> Option<usize> {
    let (mut cur, mut acc) = nav.start();
    let mut ctx = nav.first_round();
    let mut res = MISS;
    let rounds = nav.rounds();
    for _ in 1..rounds {
        if !nav.is_live(&cur, &acc) {
            break;
        }
        tap(nav.node_base(&cur, &acc));
        nav.prefetch_hint(&cur);
        nav.step_search(&mut cur, &mut acc, &mut res, key, ctx);
        if res != MISS {
            return Some(res);
        }
        ctx = nav.next_round(ctx);
    }
    if rounds > 0 && nav.is_live(&cur, &acc) {
        tap(nav.node_base(&cur, &acc));
        nav.step_search_last(&mut cur, &mut acc, &mut res, key);
        if res != MISS {
            return Some(res);
        }
    }
    nav.resolve_miss(nav.gap(&cur, &acc), key)
}

/// Scalar rank over any navigator (strictly-smaller count, or `≤` with
/// `UPPER`). `tap` as in [`search_with`].
#[inline(always)]
pub fn rank_with<T: Ord, N: Navigator<T>, const UPPER: bool>(
    nav: &N,
    key: &T,
    mut tap: impl FnMut(usize),
) -> usize {
    let (mut cur, mut acc) = nav.start();
    let mut ctx = nav.first_round();
    let rounds = nav.rounds();
    for _ in 1..rounds {
        if !nav.is_live(&cur, &acc) {
            break;
        }
        tap(nav.node_base(&cur, &acc));
        nav.step_rank::<UPPER>(&mut cur, &mut acc, key, ctx);
        ctx = nav.next_round(ctx);
    }
    if rounds > 0 && nav.is_live(&cur, &acc) {
        tap(nav.node_base(&cur, &acc));
        nav.step_rank_last::<UPPER>(&mut cur, &mut acc, key);
    }
    nav.rank_of_gap::<UPPER>(nav.gap(&cur, &acc), key)
}
