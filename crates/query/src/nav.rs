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
//! * the scalar engine ([`land_with`]) — one descent at a time;
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
//!    addresses about to be touched), then calls
//!    [`Navigator::step_rank`]: branchless compare-and-advance, nothing
//!    else. There is no equality test and no early exit on any path:
//!    a search *is* a rank descent. The **last** round uses
//!    [`Navigator::step_rank_last`]: the descent falls off the perfect
//!    part, so the accumulator becomes the landing gap and no child is
//!    computed.
//! 4. After the rounds, [`Navigator::land`] resolves the registers
//!    once, into the descent's **landing**: the rank (the keys on the
//!    counted side) and the layout slot of the element of that sorted
//!    rank — the first uncounted key. Both come from the same
//!    registers and the same scan of the landing gap's overflow keys:
//!    the slot is the overflow key in the gap if one is uncounted, else
//!    the gap's full-part successor — by a closed form of the gap (BST,
//!    B-tree) or from a candidate register the steps keep (vEB). A
//!    search is the `UPPER = false` slot plus one verify probe
//!    ([`Landing::hit`](crate::Landing::hit)), so it returns the
//!    **leftmost** copy of a duplicated key on every layout; a
//!    successor is the `UPPER = true` slot. A caller that reads only the rank inlines the landing and
//!    the slot arithmetic folds away.
//!
//! Rank descents come in two flavors selected by a const generic:
//! `UPPER = false` counts keys strictly below the probe (ties descend
//! left), `UPPER = true` counts keys `≤` the probe (ties descend
//! right). Searches and lower bounds run `UPPER = false`, successors
//! `UPPER = true` (`crate::order`).

use core::hint::select_unpredictable;
use ist_layout::{bst_pos, veb_levels, veb_pos, CompleteShape, VebCursor, VebLevel};

pub use crate::wide::{SimdKey, WideBtreeNav};

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

    /// The slots of the overflow node hanging in gap `g` (empty past
    /// the last one). `b` is `self.b`; the const-width navigator passes
    /// its constant so the multiplies fold.
    #[inline(always)]
    pub(crate) fn overflow_node(&self, b: usize, g: usize) -> core::ops::Range<usize> {
        let start = self.i + g.min(self.q) * b;
        if g < self.q {
            start..start + b
        } else if g == self.q {
            start..start + self.s
        } else {
            0..0
        }
    }

    /// The landing of a descent that fell into gap `g` and counted `c`
    /// keys of the gap's overflow node `node`: `g` full elements, the
    /// overflow keys of the gaps before `g` and those `c` are counted;
    /// the slot is the node's first uncounted key, else the gap's
    /// full-part successor by the level walk of [`btree_full_pos`].
    #[inline(always)]
    pub(crate) fn land(
        &self,
        b: usize,
        g: usize,
        node: core::ops::Range<usize>,
        c: usize,
    ) -> (usize, Option<usize>) {
        let rank = g + g.min(self.q) * b + if g > self.q { self.s } else { 0 } + c;
        let slot = if c < node.len() {
            Some(node.start + c)
        } else if g < self.i {
            Some(btree_full_pos(b, self.i.saturating_sub(b) / (b + 1), g))
        } else {
            None
        };
        (rank, slot)
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

    /// **Rank** step: compare `key` against the current node and
    /// branchlessly advance to the child. With `UPPER = false` ties
    /// descend left (the final gap counts keys `< key`); with
    /// `UPPER = true` ties descend right (keys `≤ key`).
    ///
    /// Engines call this for every round **except the last** (see
    /// [`Navigator::step_rank_last`]), so implementations may assume a
    /// child node exists.
    fn step_rank<const UPPER: bool>(
        &self,
        cur: &mut Self::Cursor,
        acc: &mut Self::Acc,
        key: &T,
        ctx: Self::Round,
    );

    /// Final-round **rank** step: the same compare, but the descent
    /// falls off the perfect part, so the accumulator becomes the
    /// landing gap and no child is computed.
    fn step_rank_last<const UPPER: bool>(
        &self,
        cur: &mut Self::Cursor,
        acc: &mut Self::Acc,
        key: &T,
    );

    /// The in-order gap a finished descent fell into.
    fn gap(&self, cur: &Self::Cursor, acc: &Self::Acc) -> usize;
    /// The **landing** of a finished rank descent for `key`: its rank
    /// (the stored keys `< key`, or `≤ key` with `UPPER`) and the
    /// layout slot of the element of that sorted rank — the first key
    /// on the uncounted side, so the leftmost copy of a duplicate for
    /// `UPPER = false` — or `None` when every stored key is counted.
    /// Reads at most the landing gap's overflow keys, once — which
    /// [`Navigator::prefetch_gap`] warmed — and nothing else the
    /// descent did not already touch.
    fn land<const UPPER: bool>(
        &self,
        cur: &Self::Cursor,
        acc: &Self::Acc,
        key: &T,
    ) -> (usize, Option<usize>);

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

/// Complete-binary-tree landing from the fall-off gap `g`: `g` full
/// elements are on the counted side, plus the overflow leaves below
/// gap `g`, plus the gap-`g` leaf if it is counted too. The slot is
/// that leaf when it is not counted (it precedes full element `g` in
/// sorted order), else full element `g` at `full_pos()`, else nothing
/// (`g == i`: every full key is counted).
#[inline(always)]
fn binary_land<T: Ord, const UPPER: bool>(
    data: &[T],
    BinaryShape { i, l, .. }: BinaryShape,
    g: usize,
    key: &T,
    full_pos: impl FnOnce() -> usize,
) -> (usize, Option<usize>) {
    let leaf_counted = g < l && counted::<T, UPPER>(&data[i + g], key);
    let rank = g + g.min(l) + usize::from(leaf_counted);
    let slot = if g < l && !leaf_counted {
        Some(i + g)
    } else if g < i {
        Some(full_pos())
    } else {
        None
    };
    (rank, slot)
}

/// Layout slot of in-order element `g` of the perfect B-tree with `b`
/// keys per node whose root's child subtrees hold `span` keys each
/// (`(b+1)^{levels−1} − 1`, the first round constant — also the number
/// of keys above the leaf level). This is [`ist_layout::btree_pos`]
/// with that prefix carried down one division per level instead of
/// recomputed by `pow`: a leaf key, `b` of every `b + 1` elements,
/// takes no loop turn, and with a const `b` the divisions are
/// multiplies.
#[inline(always)]
fn btree_full_pos(b: usize, span: usize, g: usize) -> usize {
    let k = b + 1;
    let (mut g, mut internal) = (g, span);
    // Every k-th element is internal: it sits in the perfect tree of
    // those elements, one level shorter, laid out in the prefix. Each
    // turn divides `g + 1` by `k ≥ 2`; the bound makes the loop
    // provably finite, so a landing whose slot is unused drops it.
    for _ in 0..usize::BITS {
        if !(g + 1).is_multiple_of(k) {
            break;
        }
        g = (g + 1) / k - 1;
        internal = internal.saturating_sub(b) / k;
    }
    internal + g / k * b + g % k
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
    fn step_rank<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T, half: usize) {
        let v = *cur;
        debug_assert!(v < self.shape.i);
        // SAFETY: on each of the `d` full levels a node index is at most
        // 2^{level+1} − 2 ≤ 2^d − 2 < i ≤ data.len(), and the shape was
        // derived from this very slice's length.
        let node = unsafe { self.data.get_unchecked(v) };
        let gt = usize::from(counted::<T, UPPER>(node, key));
        *cur = 2 * v + 1 + gt;
        *acc += (half + 1) * gt;
    }

    #[inline(always)]
    fn step_rank_last<const UPPER: bool>(&self, cur: &mut usize, acc: &mut usize, key: &T) {
        // The last level's subtrees are single nodes: half = 0.
        self.step_rank::<UPPER>(cur, acc, key, 0);
    }

    #[inline(always)]
    fn gap(&self, _cur: &usize, acc: &usize) -> usize {
        *acc
    }
    /// The full-part successor of gap `g` is in-order element `g`,
    /// placed by the closed-form [`bst_pos`] (a trailing-zero count and
    /// two shifts).
    #[inline(always)]
    fn land<const UPPER: bool>(
        &self,
        _cur: &usize,
        acc: &usize,
        key: &T,
    ) -> (usize, Option<usize>) {
        let d = self.shape.d;
        binary_land::<T, UPPER>(self.data, self.shape, *acc, key, || bst_pos(d, *acc))
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

/// Navigator for the van Emde Boas layout. Cursor: a [`VebDescent`] —
/// the current node's layout index, the saved ancestor positions the
/// [descent table](ist_layout::veb_levels) derives the next one from,
/// and the full-part successor candidate; accumulator: the node's
/// index within its depth (from 0, left to right — the path's turns
/// as bits), which ends as the landing gap.
pub struct VebNav<'a, T> {
    data: &'a [T],
    shape: BinaryShape,
    /// The descent table for `shape.d` levels.
    levels: &'static [VebLevel],
}

/// A vEB descent's cursor register: where the descent stands, plus the
/// layout position of the last node it turned left at. That node is
/// the smallest full-part key `≥` the probe seen so far, so when the
/// descent falls off it is the landing gap's full-part successor —
/// kept by one conditional move per step, because the closed-form
/// [`veb_pos`] costs `O(log log N)` table-free recursion per call.
#[derive(Debug, Clone, Copy)]
pub struct VebDescent {
    at: VebCursor,
    succ: usize,
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

    /// The current node (at a depth `< d`) and whether `key` sends the
    /// descent left of it; a left turn makes the node the successor
    /// candidate.
    #[inline(always)]
    fn turn<const UPPER: bool>(&self, cur: &mut VebDescent, key: &T) -> bool {
        let pos = cur.at.pos();
        debug_assert!(pos < self.shape.i);
        // SAFETY: the descent table maps the nodes of the d full levels
        // to layout positions 0..i (checked against veb_pos per step in
        // debug builds and exhaustively in ist-layout's tests), the
        // engines step at most d rounds from the root, and the shape was
        // derived from this very slice's length.
        let node = unsafe { self.data.get_unchecked(pos) };
        let left = !counted::<T, UPPER>(node, key);
        cur.succ = select_unpredictable(left, pos, cur.succ);
        left
    }
}

impl<'a, T: Ord> Navigator<T> for VebNav<'a, T> {
    type Cursor = VebDescent;
    type Acc = usize;
    /// The depth `k ≥ 1` the round's step moves onto (the leaf round
    /// has no step — see [`Navigator::step_rank_last`]).
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
    fn start(&self) -> (VebDescent, usize) {
        // `succ` is only read when some step turned left (see
        // `land`), so its start value is never observed.
        let at = VebCursor::ROOT;
        (VebDescent { at, succ: 0 }, 0)
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
    fn node_base(&self, cur: &VebDescent, _acc: &usize) -> usize {
        cur.at.pos()
    }

    #[inline(always)]
    fn step_rank<const UPPER: bool>(&self, cur: &mut VebDescent, acc: &mut usize, key: &T, k: u32) {
        let left = self.turn::<UPPER>(cur, key);
        cur.at.descend(&self.levels[k as usize], *acc, left);
        *acc = 2 * *acc + usize::from(!left);
        debug_assert_eq!(
            cur.at.pos(),
            // In-order rank of node `acc` of depth `k`.
            veb_pos(self.shape.d, ((2 * *acc + 1) << (self.shape.d - 1 - k)) - 1)
        );
    }

    #[inline(always)]
    fn step_rank_last<const UPPER: bool>(&self, cur: &mut VebDescent, acc: &mut usize, key: &T) {
        // Fell off leaf `acc`: gap 2·acc left of it, 2·acc + 1 right.
        // No child, so no position to derive.
        let left = self.turn::<UPPER>(cur, key);
        *acc = 2 * *acc + usize::from(!left);
    }

    #[inline(always)]
    fn gap(&self, _cur: &VebDescent, acc: &usize) -> usize {
        *acc
    }
    /// Gap `g < i` means some step turned left, at in-order element
    /// `g`: the candidate register holds its position.
    #[inline(always)]
    fn land<const UPPER: bool>(
        &self,
        cur: &VebDescent,
        acc: &usize,
        key: &T,
    ) -> (usize, Option<usize>) {
        binary_land::<T, UPPER>(self.data, self.shape, *acc, key, || cur.succ)
    }
    #[inline(always)]
    fn prefetch_node(&self, cur: &VebDescent, _acc: &usize) {
        prefetch(self.data, cur.at.pos());
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
        // The last node level's child subtrees are empty: child = 0.
        self.step_rank::<UPPER>(cur, acc, key, 0);
    }

    #[inline(always)]
    fn gap(&self, _cur: &usize, acc: &usize) -> usize {
        *acc
    }

    /// One scan of the overflow node hanging in the gap, resolved by the
    /// landing arithmetic the const-width navigator shares.
    #[inline(always)]
    fn land<const UPPER: bool>(
        &self,
        _cur: &usize,
        acc: &usize,
        key: &T,
    ) -> (usize, Option<usize>) {
        let node = self.shape.overflow_node(self.shape.b, *acc);
        let c = self.data[node.clone()]
            .iter()
            .take_while(|x| counted::<T, UPPER>(x, key))
            .count();
        self.shape.land(self.shape.b, *acc, node, c)
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
/// side; accumulator: the undecided length. The partition point the
/// descent ends at is both the rank and the lower-bound slot.
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
        // Every partition-point round is the same; the "last" round is
        // just the one that drains the final undecided element.
        self.step_rank::<UPPER>(cur, acc, key, ());
    }

    #[inline(always)]
    fn gap(&self, cur: &usize, _acc: &usize) -> usize {
        *cur
    }
    #[inline(always)]
    fn land<const UPPER: bool>(
        &self,
        cur: &usize,
        _acc: &usize,
        _key: &T,
    ) -> (usize, Option<usize>) {
        (*cur, (*cur < self.data.len()).then_some(*cur))
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

/// One full rank descent (ties left, or right with `UPPER`), returning
/// the final registers. `tap` observes the base address of every node
/// read (a no-op closure compiles away); the equivalence suite uses it
/// to pin execution paths together.
#[inline(always)]
fn descend<T: Ord, N: Navigator<T>, const UPPER: bool>(
    nav: &N,
    key: &T,
    mut tap: impl FnMut(usize),
) -> (N::Cursor, N::Acc) {
    let (mut cur, mut acc) = nav.start();
    let mut ctx = nav.first_round();
    let rounds = nav.rounds();
    for _ in 1..rounds {
        if !nav.is_live(&cur, &acc) {
            break;
        }
        tap(nav.node_base(&cur, &acc));
        nav.prefetch_hint(&cur);
        nav.step_rank::<UPPER>(&mut cur, &mut acc, key, ctx);
        ctx = nav.next_round(ctx);
    }
    if rounds > 0 && nav.is_live(&cur, &acc) {
        tap(nav.node_base(&cur, &acc));
        nav.step_rank_last::<UPPER>(&mut cur, &mut acc, key);
    }
    (cur, acc)
}

/// Scalar landing over any navigator: one rank descent (ties left, or
/// right with `UPPER`) and its [`Navigator::land`] — the rank and the
/// slot of the element of that sorted rank. `tap` observes the base
/// address of every node read (a no-op closure compiles away); the
/// equivalence suite uses it to pin execution paths together.
#[inline(always)]
pub fn land_with<T: Ord, N: Navigator<T>, const UPPER: bool>(
    nav: &N,
    key: &T,
    tap: impl FnMut(usize),
) -> (usize, Option<usize>) {
    let (cur, acc) = descend::<T, N, UPPER>(nav, key, tap);
    nav.land::<UPPER>(&cur, &acc, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every navigator's landing, in both flavors, is the sorted-array
    /// oracle's rank plus the slot the independent closed form
    /// ([`Searcher::position_of_rank`](crate::Searcher::position_of_rank))
    /// gives that rank — over perfect and ragged sizes of every layout,
    /// keys with duplicates, and probes on, between and beyond them.
    #[test]
    fn landing_is_the_oracle_rank_at_its_closed_form_slot() {
        use crate::wide::{avx2_kernel, avx512_kernel, kernel};
        use crate::{QueryKind, Searcher};
        use ist_core::{permute_in_place, Algorithm, Layout};

        fn check<N: Navigator<u64>>(nav: &N, sorted: &[u64], kind: QueryKind, what: &str) {
            let closed = Searcher::new_runtime(nav.data(), kind);
            let mut probes = vec![0, u64::MAX];
            for &k in sorted {
                probes.extend([k - 1, k, k + 1]);
            }
            for p in &probes {
                let n = sorted.len();
                let lo = sorted.partition_point(|x| x < p);
                let hi = sorted.partition_point(|x| x <= p);
                let want = (lo, closed.position_of_rank(lo));
                let got = land_with::<u64, N, false>(nav, p, |_| {});
                assert_eq!(got, want, "{what} n={n} p={p}");
                let want = (hi, closed.position_of_rank(hi));
                let got = land_with::<u64, N, true>(nav, p, |_| {});
                assert_eq!(got, want, "{what} n={n} p={p} UPPER");
            }
        }
        /// The const-width navigators on every node kernel this CPU has.
        fn wide<const B: usize>(data: &[u64], sorted: &[u64]) {
            let kind = QueryKind::Btree(B);
            check(&WideBtreeNav::<u64, B>::new(data), sorted, kind, "wide");
            let shape = BtreeSearchShape::new(data.len(), B);
            if avx2_kernel::<u64>() {
                let nav = {
                    // SAFETY: the CPU has AVX2, just checked.
                    unsafe { WideBtreeNav::<u64, B, { kernel::AVX2 }>::with_kernel(data, shape) }
                };
                check(&nav, sorted, kind, "wide avx2");
            }
            if avx512_kernel::<u64>() {
                let nav = {
                    // SAFETY: the CPU has AVX-512F, just checked.
                    unsafe { WideBtreeNav::<u64, B, { kernel::AVX512 }>::with_kernel(data, shape) }
                };
                check(&nav, sorted, kind, "wide avx512");
            }
        }
        let permuted = |sorted: &[u64], layout| {
            let mut data = sorted.to_vec();
            permute_in_place(&mut data, layout, Algorithm::CycleLeader).unwrap();
            data
        };
        // Perfect trees for every binary and B-tree shape checked
        // ((b+1)^h − 1), and ragged sizes between them.
        let sizes = [
            0, 1, 2, 3, 7, 10, 15, 26, 31, 63, 80, 100, 255, 288, 700, 728, 1023, 4912,
        ];
        for n in sizes {
            // Every fourth key repeats the one before.
            let sorted: Vec<u64> = (0..n as u64)
                .map(|x| 3 * x + 5 - if x % 4 == 3 { 3 } else { 0 })
                .collect();
            check(
                &SortedNav::new(&sorted),
                &sorted,
                QueryKind::Sorted,
                "sorted",
            );
            let bst = permuted(&sorted, Layout::Bst);
            check(&BstNav::new(&bst), &sorted, QueryKind::Bst, "bst");
            let prefetching = BstNav::from_shape(&bst, BinaryShape::new(n), true);
            check(
                &prefetching,
                &sorted,
                QueryKind::BstPrefetch,
                "bst-prefetch",
            );
            let veb = permuted(&sorted, Layout::Veb);
            check(&VebNav::new(&veb), &sorted, QueryKind::Veb, "veb");
            for b in [1, 2, 3, 8, 16] {
                let data = permuted(&sorted, Layout::Btree { b });
                check(
                    &BtreeNav::new(&data, b),
                    &sorted,
                    QueryKind::Btree(b),
                    "btree",
                );
                match b {
                    8 => wide::<8>(&data, &sorted),
                    16 => wide::<16>(&data, &sorted),
                    _ => {}
                }
            }
        }
    }

    /// The carried-prefix walk names the same slot as the closed form
    /// for every in-order element of perfect B-trees of one to several
    /// node levels.
    #[test]
    fn btree_full_pos_matches_btree_pos() {
        for b in [1usize, 2, 3, 8, 16] {
            let k = b + 1;
            let mut h = 1u32;
            while k.pow(h) - 1 <= 1 << 16 {
                let span = k.pow(h - 1) - 1;
                for g in 0..k.pow(h) - 1 {
                    assert_eq!(
                        btree_full_pos(b, span, g),
                        ist_layout::btree_pos(b, h, g),
                        "b={b} h={h} g={g}"
                    );
                }
                h += 1;
            }
        }
    }
}
