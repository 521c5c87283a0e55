//! The six construction algorithms, written **once**, generic over
//! [`Machine`].
//!
//! Every algorithm below is expressed in the primitives the paper
//! analyzes — involution swap rounds (Chapter 2), equidistant gathers
//! (Chapter 3), circular shifts, and recursive subtree tasks — so the
//! same control flow drives:
//!
//! * the production [`Ram`] backend (what
//!   [`crate::permute_in_place`] uses),
//! * the PEM I/O counter (`ist-pem-sim`'s `TrackedArray`), and
//! * the SIMT cost model (`ist-gpu-sim`'s `Gpu`).
//!
//! Earlier revisions carried three hand-synchronized copies of these
//! algorithms (production + two instrumented replays); the simulators'
//! claim to measure "the real algorithms" now holds by construction.
//! Backend outputs are bit-identical — `tests/machine_equivalence.rs`
//! asserts every (layout, algorithm, backend) combination against
//! [`crate::reference_permutation`], for perfect and non-perfect sizes.
//!
//! All indices are global to the machine's array; recursive algorithms
//! carry explicit region offsets (`lo`) so cost backends observe true
//! addresses.

use ist_bits::{rev2, rev_k};
use ist_layout::{veb_order, veb_split, CompleteShape};
use ist_machine::{GatherMode, IndexArith, Machine, Ram, Region};
use ist_perm::{
    fits_scratch, permute_direct, unshuffle_units, MOVE_COST_NS, SCRATCH_BYTES, UNIT_MAP_BITS,
};
use ist_shuffle::j_involution;
use rayon::prelude::*;

use crate::{Algorithm, Error, Layout};

/// Permute the machine's sorted array in place into `layout` using
/// `algorithm`. Handles arbitrary sizes (non-perfect trees use the
/// Chapter-5 `[perfect | overflow]` extension) on **every** backend.
///
/// This is the single entry point behind [`crate::permute_in_place`],
/// `ist-pem-sim`'s kernels and `ist-gpu-sim`'s kernels. BST and vEB are
/// trees of one key per node: their shape is the B-tree's at `b = 1`.
pub fn construct<M: Machine>(m: &mut M, layout: Layout, algorithm: Algorithm) -> Result<(), Error> {
    let b = match layout {
        Layout::Btree { b: 0 } => return Err(Error::ZeroNodeCapacity),
        Layout::Btree { b } => b,
        Layout::Bst | Layout::Veb => 1,
    };
    let n = m.len();
    if n <= 1 {
        return Ok(());
    }
    let shape = CompleteShape::new(n, b);
    strip_overflow(m, shape);
    let levels = shape.full_node_levels();
    match (layout, algorithm) {
        (Layout::Bst, Algorithm::Involution) => involution_bst(m, levels),
        (Layout::Btree { .. }, Algorithm::Involution) => involution_btree(m, b, levels),
        (Layout::Bst | Layout::Btree { .. }, Algorithm::CycleLeader) => {
            cycle_leader_btree(m, b, levels)
        }
        (Layout::Veb, Algorithm::Involution) => involution_veb(m, 0, levels),
        (Layout::Veb, Algorithm::CycleLeader) => cycle_leader_veb(m, 0, levels),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shared permutation rounds (the Ξ₁ / Ξ₂ factorizations of Yang et al.)
// ---------------------------------------------------------------------

/// One padded `k`-way un-shuffle of `[lo, lo + k^digits − 1)` via the
/// digit-reversal involutions Ξ₁ (`rev_k(digits)` then `rev_k(digits−1)`
/// on 1-indexed padded positions). Internal keys land in the prefix.
fn padded_unshuffle_pow<M: Machine>(m: &mut M, lo: usize, k: usize, digits: u32) {
    let n_cur = k.pow(digits) - 1;
    let kk = k as u64;
    m.involution_round(
        lo,
        lo + n_cur,
        IndexArith::RevK { k: kk, m: digits },
        move |s| lo + (rev_k(kk, digits, (s - lo + 1) as u64) - 1) as usize,
    );
    m.involution_round(
        lo,
        lo + n_cur,
        IndexArith::RevK {
            k: kk,
            m: digits - 1,
        },
        move |s| lo + (rev_k(kk, digits - 1, (s - lo + 1) as u64) - 1) as usize,
    );
}

/// One padded `k`-way un-shuffle of `[lo, lo + len)` via the `J`
/// involutions Ξ₂ (`J_k` then `J_1` on 1-indexed padded positions,
/// modulus `len`); works for any padded size `len + 1` divisible by `k`.
fn padded_unshuffle_mod<M: Machine>(m: &mut M, lo: usize, len: usize, k: usize) {
    let nm1 = len as u64; // padded size K = len + 1, modulus K − 1 = len
    let kk = k as u64;
    m.involution_round(lo, lo + len, IndexArith::Jmap { len }, move |s| {
        lo + (j_involution(kk, nm1, (s - lo + 1) as u64) - 1) as usize
    });
    m.involution_round(lo, lo + len, IndexArith::Jmap { len }, move |s| {
        lo + (j_involution(1, nm1, (s - lo + 1) as u64) - 1) as usize
    });
}

/// `k`-way perfect shuffle of `[lo, hi)` via Ξ₂ (`J_1` then `J_k` on
/// 0-indexed positions, modulus `hi − lo − 1`).
fn shuffle_mod_rounds<M: Machine>(m: &mut M, lo: usize, hi: usize, k: usize) {
    let len = hi - lo;
    if len <= 1 || k <= 1 {
        return;
    }
    debug_assert_eq!(len % k, 0);
    let nm1 = (len - 1) as u64;
    let kk = k as u64;
    m.involution_round(lo, hi, IndexArith::Jmap { len }, move |s| {
        lo + j_involution(1, nm1, (s - lo) as u64) as usize
    });
    m.involution_round(lo, hi, IndexArith::Jmap { len }, move |s| {
        lo + j_involution(kk, nm1, (s - lo) as u64) as usize
    });
}

// ---------------------------------------------------------------------
// Chapter 2: involution-based constructions
// ---------------------------------------------------------------------

/// Involution-based BST construction (§2.1, after Fich et al.): exactly
/// two rounds of disjoint swaps over `[0, 2^d − 1)`.
pub fn involution_bst<M: Machine>(m: &mut M, d: u32) {
    let n = (1usize << d) - 1;
    m.involution_round(0, n, IndexArith::Rev2 { d }, move |s| {
        (rev2(d, (s + 1) as u64) - 1) as usize
    });
    m.involution_round(0, n, IndexArith::Rev2 { d }, move |s| {
        let p = (s + 1) as u64;
        (rev2(p.ilog2(), p) - 1) as usize
    });
}

/// Involution-based B-tree construction (§2.2, after Yang et al.):
/// per level, a padded `(B+1)`-way un-shuffle pulls internal keys to the
/// front, a `B`-way shuffle regroups the leaf lists into leaf nodes, and
/// the loop recurses on the internal prefix. `levels` is the node height
/// `m` with `(b+1)^m − 1` total keys.
pub fn involution_btree<M: Machine>(m: &mut M, b: usize, levels: u32) {
    let k = b.saturating_add(1);
    let mut mm = levels;
    while mm >= 2 {
        let n_cur = k.pow(mm) - 1;
        padded_unshuffle_pow(m, 0, k, mm);
        let r = k.pow(mm - 1) - 1;
        if b >= 2 {
            shuffle_mod_rounds(m, r, n_cur, b);
        }
        mm -= 1;
    }
}

/// Involution-based vEB construction (§2.3) of the `2^d − 1` element
/// region at `lo`: one B-tree level step with `B = 2^⌊d/2⌋ − 1` separates
/// the top subtree from the bottom subtrees, then all subtrees recurse.
/// A subtree the machine runs [block-locally](Machine::block_local) is
/// finished on a [`Ram`] over its elements.
pub fn involution_veb<M: Machine>(m: &mut M, lo: usize, d: u32) {
    if d <= 1 {
        return;
    }
    let n_cur = (1usize << d) - 1;
    if let Some(region) = m.block_local(lo, n_cur) {
        return involution_veb(&mut Ram::new(region), 0, d);
    }
    let (t, bb) = veb_split(d);
    let k = 1usize << bb;
    let r = (1usize << t) - 1;
    let l = k - 1;
    // Separate top keys (every k-th) to the front. The padded size 2^d is
    // a power of k iff bb | d: use Ξ₁ (digit reversals) when it is, Ξ₂
    // (J maps) otherwise.
    if d.is_multiple_of(bb) {
        padded_unshuffle_pow(m, lo, k, d / bb);
    } else {
        padded_unshuffle_mod(m, lo, n_cur, k);
    }
    // Interleave the l leaf-slot lists into bottom subtrees of l
    // consecutive keys each.
    if l >= 2 {
        shuffle_mod_rounds(m, lo + r, lo + n_cur, l);
    }
    // Recurse on the top subtree and every bottom subtree.
    m.run_tasks(veb_subtrees(lo, t, bb), |mm, reg| {
        involution_veb(mm, reg.lo, reg.tag)
    });
}

// ---------------------------------------------------------------------
// Chapter 3: cycle-leader constructions
// ---------------------------------------------------------------------

/// Cycle-leader vEB construction (§3.1) of the `2^d − 1` element region
/// at `lo`: one equidistant gather separates the top subtree from the
/// bottom subtrees (odd heights gather two halves and join them with one
/// circular shift), then all subtrees recurse. A subtree of at most
/// [`ist_layout::VEB_ORDER_DEPTH`] levels that the machine finishes
/// [directly](Machine::direct) fills its slots in order from
/// [`veb_order`] instead, and one the machine runs
/// [block-locally](Machine::block_local) is finished on a [`Ram`] over
/// its elements.
pub fn cycle_leader_veb<M: Machine>(m: &mut M, lo: usize, d: u32) {
    if d <= 1 {
        return;
    }
    let n_cur = (1usize << d) - 1;
    if let Some(region) = m.block_local(lo, n_cur) {
        return cycle_leader_veb(&mut Ram::new(region), 0, d);
    }
    if let Some(order) = veb_order(d).filter(|_| fits_scratch::<M::Elem>(n_cur)) {
        if let Some(region) = m.direct(lo, n_cur) {
            // The vEB slots in order, each filled with its key.
            return permute_direct(region, |p| p.pick_order(order));
        }
    }
    let (t, bb) = veb_split(d);
    let r = (1usize << t) - 1;
    let l = (1usize << bb) - 1;
    if t == bb {
        // Even number of levels: r = l, gather directly.
        m.gather(lo, r, l, GatherMode::Standalone);
    } else {
        // Odd: r = 2l + 1. Gather each half (a perfect tree of d − 1
        // levels with square shape l × l) — the halves are disjoint, so
        // they run as parallel tasks — then one circular shift joins the
        // two gathered tops around the median.
        let half = (n_cur - 1) / 2;
        m.run_tasks(
            [
                Region::new(lo, half, ()),
                Region::new(lo + half + 1, half, ()),
            ]
            .into_iter(),
            move |mm, reg| mm.gather(reg.lo, l, l, GatherMode::Standalone),
        );
        // Region [lo+l, lo+l+half+1) = [rest_left | median | top_right];
        // shift the last l + 1 elements (median + right top) to its front.
        m.rotate_right(lo + l, lo + l + half + 1, l + 1);
    }
    m.run_tasks(veb_subtrees(lo, t, bb), |mm, reg| {
        cycle_leader_veb(mm, reg.lo, reg.tag)
    });
}

/// The recursive tasks of one vEB split of a `2^(t+bb) − 1` element
/// region at `lo`: the top subtree of height `t`, then its `2^t` bottom
/// subtrees of height `bb`, each tagged with its height.
fn veb_subtrees(lo: usize, t: u32, bb: u32) -> impl Iterator<Item = Region<u32>> + Clone {
    let r = (1usize << t) - 1;
    let l = (1usize << bb) - 1;
    std::iter::once(Region::new(lo, r, t))
        .chain((0..=r).map(move |q| Region::new(lo + r + q * l, l, bb)))
}

/// Cycle-leader B-tree construction (§3.2): per level, the extended
/// equidistant gather hoists all internal keys to the front, then the
/// internal prefix recurses (iteratively). With `b = 1` this is the BST
/// construction of §3.3. On a machine that finishes regions
/// [directly](Machine::direct), every level whose units fit the unit map
/// — up to about 7.4 M `u64`s at `b = 8` and 33 M at `b = 1` — is one
/// scratch pass per block and one cycle pass (`extended_gather`).
pub fn cycle_leader_btree<M: Machine>(m: &mut M, b: usize, levels: u32) {
    let k = b.saturating_add(1);
    let mut mm = levels;
    while mm >= 2 {
        extended_gather(m, 0, b, k.pow(mm - 1), true);
        mm -= 1;
    }
}

/// The extended equidistant gather (`r > l`, §3.2) on `runs` leaf runs of
/// `b` keys separated by single internal keys (`runs·(b+1) − 1` elements
/// at `lo`): the internal keys move to the front, order kept. With `c`
/// the largest power of `b + 1` below `runs`, the region is `a = runs / c`
/// blocks of `c` runs (`a = b + 1`, the paper's partitions, on a level of
/// a perfect tree) plus a remainder of fewer than `c` runs: all gather
/// recursively as one task fan-out, one chunked gather hoists the blocks'
/// internal keys, one circular shift joins the remainder's. Work
/// `O(runs·b·log_{b+1} runs)`, depth `O(log_{b+1} runs)` gather-and-shift
/// rounds (Props. 9–10; the remainder chain's shifts shrink
/// geometrically). `representative` marks the recursion path that carries
/// the per-depth fixed costs on launch-charging backends (the paper's §6
/// per-depth kernel batching): the first block, never shallower than any
/// other part.
///
/// A machine that finishes regions [directly](Machine::direct) (`Ram`)
/// gets no recursion while the region's units fit the unit map
/// ([`gather_direct`]): a region that fits the scratch is one stable
/// partition through it, and a larger one is a scratch pass per block of
/// `r` runs, one cycle pass over `r`-element units and one short
/// rotation. With `r` the runs whose `r·(b+1)` elements fill the scratch,
/// that holds up to [`UNIT_MAP_BITS`]` / (b+1)` blocks: about 7.4 M
/// `u64`s at `b = 8`, 33 M at `b = 1` and 66 K at `b = 1 023` (`r = 1`).
fn extended_gather<M: Machine>(m: &mut M, lo: usize, b: usize, runs: usize, representative: bool) {
    let k = b.saturating_add(1);
    if runs < 2 {
        return;
    }
    let len = runs * k - 1;
    let r = runs_per_block::<M::Elem>(k);
    if fits_scratch::<M::Elem>(len) || (r > 0 && (runs - 1) / r * k <= UNIT_MAP_BITS) {
        if let Some(region) = m.direct(lo, len) {
            return gather_direct(region, b, r);
        }
    }
    let mode = GatherMode::Batched { representative };
    if runs <= k {
        return m.gather(lo, runs - 1, b, mode);
    }
    let mut c = k;
    while c * k < runs {
        c *= k;
    }
    let (a, rest) = (runs / c, runs % c);
    let part_len = c * k;
    // Block 0 has C·k − 1 elements (standard pattern); every later part
    // starts with an internal element followed by a standard pattern —
    // the regions below skip it.
    let blocks =
        (0..a).map(|p| Region::new(lo + p * part_len, part_len - 1, representative && p == 0));
    let remainder = (rest > 0).then(|| Region::new(lo + a * part_len, rest * k - 1, false));
    m.run_tasks(blocks.chain(remainder), |mm, reg| {
        extended_gather(mm, reg.lo, b, (reg.len + 1) / k, reg.tag)
    });
    // Hoist: from offset C−1 the blocks read, in chunk units,
    // [L₀ (b) | I₁ | L₁ (b) | … | I_{a−1} | L_{a−1} (b)] — the exact
    // gather pattern with r = a − 1, l = b.
    m.gather_chunks(lo + c - 1, a - 1, b, c, mode);
    if rest > 0 {
        // [internal (aC−1) | leaves (aCb) | internal (rest) | leaves]:
        // shift the remainder's internal keys in front of the leaves.
        let leaves = lo + a * c - 1;
        m.rotate_right(leaves, leaves + a * c * b + rest, rest);
    }
}

/// The most runs of `k` elements (`b` keys and the internal key after
/// them) that fit the scratch at once, or 0 when not one run fits.
fn runs_per_block<T>(k: usize) -> usize {
    let r = SCRATCH_BYTES / size_of::<T>().max(1) / k;
    if fits_scratch::<T>(r * k) {
        r
    } else {
        0
    }
}

/// The extended gather of `region`, `runs` runs of `b` keys each
/// followed by an internal key but the last, on a machine that finishes
/// it directly; `r` is [`runs_per_block`]. A region that fits the
/// scratch is one stable partition. A larger one, read as `B` blocks of
/// `r` runs and a leftover of `g ≤ r` runs, takes three passes:
///
/// 1. one scratch pass per block partitions it into its `r` internal
///    keys and then its `r·b` leaf keys — `k = b + 1` units of `r`
///    elements — and the leftover into its `g − 1` internal keys and its
///    leaves. The blocks are dealt to the pool by the floor rule
///    ([`rayon::min_task_len`] at [`MOVE_COST_NS`] an element);
/// 2. one cycle pass over the blocks' units ([`unshuffle_units`], on the
///    calling thread) moves each unit once, to its slot: the blocks'
///    internal units to the front, their leaf units after them;
/// 3. one rotation moves the leftover's `g − 1 < r` internal keys in
///    front of the blocks' leaves.
fn gather_direct<T: Send>(region: &mut [T], b: usize, r: usize) {
    if fits_scratch::<T>(region.len()) {
        return partition_runs(region, b);
    }
    let block = r * (b + 1);
    let floor = rayon::min_task_len(MOVE_COST_NS);
    if region.len() >= 2 * floor && rayon::current_num_threads() > 1 {
        region
            .par_chunks_mut(block)
            .with_min_len(floor.div_ceil(block))
            .enumerate()
            .for_each(|(_, chunk)| partition_runs(chunk, b));
    } else {
        for chunk in region.chunks_mut(block) {
            partition_runs(chunk, b);
        }
    }
    let blocks = region.len() / block;
    unshuffle_units(&mut region[..blocks * block], r, b + 1);
    // [internal (B·r) | leaves (B·r·b) | internal (g − 1) | leaves (g·b)]
    let left = (region.len() - blocks * block) / (b + 1);
    region[blocks * r..blocks * block + left].rotate_right(left);
}

/// A stable partition through the scratch of `region`, runs of `b` keys
/// each followed by an internal key, the last possibly without: the
/// internal keys, then the runs.
fn partition_runs<T>(region: &mut [T], b: usize) {
    let (len, k) = (region.len(), b + 1);
    permute_direct(region, |p| {
        p.pick_runs(b, k, 1, len / k);
        p.pick_runs(0, k, b, len.div_ceil(k));
    });
}

// ---------------------------------------------------------------------
// Chapter 5: non-perfect (complete) tree extensions
// ---------------------------------------------------------------------

/// Move the `L` overflow leaves of the complete tree `shape` to the
/// array suffix, leaving the full-level elements sorted in the prefix; a
/// no-op on a perfect shape. In sorted order the array starts with
/// `q = ⌊L/B⌋` full overflow leaf nodes of `b` keys, each followed by one
/// full-level key, then the `s = L mod B` keys of a partial node (for a
/// binary tree, `b = 1`: `L` leaves at the even positions, each followed
/// by its parent). That is the extended gather's pattern with `q` runs,
/// so the pre-pass is one extended gather, a shift of at most `b` keys
/// and one circular shift of the rest. Work `O(L log_{b+1} L + N)`; on
/// `Ram`, whose extended gather is three passes while its units fit the
/// unit map (about 7.4 M `u64` keys at `b = 8`, 33 M at `b = 1`), `O(N)`.
pub fn strip_overflow<M: Machine>(m: &mut M, shape: CompleteShape) {
    let n = m.len();
    debug_assert_eq!(n, shape.full_count() + shape.overflow());
    if shape.is_perfect() {
        return;
    }
    let (b, l) = (shape.b(), shape.overflow());
    let (q, s) = (shape.full_overflow_nodes(), shape.partial_node_len());
    extended_gather(m, 0, b, q, true);
    // [full (q−1) | leaves (qb) | full (1) | partial (s) | full (rest)]
    let front = q.saturating_sub(1);
    if q > 0 && s > 0 {
        let last = front + q * b;
        m.rotate_right(last, last + 1 + s, s);
    }
    // [full (q−1) | overflow (L) | full (rest)] -> [full | overflow].
    m.rotate_right(front, n, n - front - l);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::reference_permutation;

    /// Ξ₁ and Ξ₂ must implement the same permutation on power sizes.
    #[test]
    fn padded_unshuffle_variants_agree() {
        let k = 4usize;
        let digits = 5u32;
        let n = k.pow(digits) - 1;
        let mut a: Vec<u32> = (0..n as u32).collect();
        let mut b = a.clone();
        padded_unshuffle_pow(&mut Ram::new(&mut a), 0, k, digits);
        padded_unshuffle_mod(&mut Ram::new(&mut b), 0, n, k);
        assert_eq!(a, b);
        // And internal keys (every k-th, 1-indexed) land sorted in front.
        for (idx, &v) in a[..k.pow(digits - 1) - 1].iter().enumerate() {
            assert_eq!(v as usize, (idx + 1) * k - 1);
        }
    }

    /// The machine rounds reproduce an out-of-place k-way shuffle: deck
    /// `l`'s element `j` lands at `j·k + l`.
    #[test]
    fn shuffle_rounds_match_reference_shuffle() {
        for (k, m) in [(2usize, 1usize), (3, 41), (5, 16), (8, 33), (9, 100)] {
            let n = k * m;
            let pad = 5usize;
            let mut via_machine: Vec<u32> = (0..(pad + n) as u32).collect();
            shuffle_mod_rounds(&mut Ram::new(&mut via_machine), pad, pad + n, k);
            let mut expect = via_machine.clone();
            for l in 0..k {
                for j in 0..m {
                    expect[pad + j * k + l] = (pad + l * m + j) as u32;
                }
            }
            for (i, e) in expect.iter_mut().enumerate().take(pad) {
                *e = i as u32;
            }
            assert_eq!(via_machine, expect, "k={k} m={m}");
        }
    }

    /// `construct` on a Ram matches the oracle for a sweep of
    /// perfect and non-perfect sizes (the cross-backend sweep lives in
    /// `tests/machine_equivalence.rs`).
    #[test]
    fn construct_matches_oracle() {
        for n in [1usize, 2, 3, 7, 10, 26, 63, 100, 255, 729, 1000] {
            let sorted: Vec<u64> = (0..n as u64).collect();
            for layout in [
                Layout::Bst,
                Layout::Veb,
                Layout::Btree { b: 2 },
                Layout::Btree { b: 8 },
            ] {
                let expect = reference_permutation(&sorted, layout);
                for algorithm in Algorithm::ALL {
                    let mut got = sorted.clone();
                    construct(&mut Ram::new(&mut got), layout, algorithm).unwrap();
                    assert_eq!(got, expect, "n={n} {layout:?} {algorithm:?}");
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Chapter 5: the overflow strip, against a stable partition.
    // -----------------------------------------------------------------

    /// Reference: stable partition into [full elements | overflow leaves].
    fn reference_btree(n: usize, b: usize) -> Vec<usize> {
        let shape = CompleteShape::new(n, b);
        let mut out: Vec<usize> = (0..n).filter(|&i| !shape.is_overflow(i)).collect();
        out.extend((0..n).filter(|&i| shape.is_overflow(i)));
        out
    }

    /// Strip `0..n` in a one-thread and in a four-thread pool; both must
    /// equal the stable partition `expect`. (`assert!`, not `assert_eq!`:
    /// a failure at N ≈ 10^6 should print the case, not two arrays.)
    fn check(expect: &[usize], case: &str, strip: impl Fn(&mut [usize]) + Sync) {
        for threads in [1, 4] {
            let mut a: Vec<usize> = (0..expect.len()).collect();
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| strip(&mut a));
            assert!(a == expect, "{case} threads={threads}");
        }
    }

    /// The strip of `n` keys, `b` per node (`b = 1`: BST and vEB).
    fn check_btree(n: usize, b: usize) {
        let shape = CompleteShape::new(n, b);
        check(&reference_btree(n, b), &format!("btree n={n} b={b}"), |a| {
            strip_overflow(&mut Ram::new(a), shape)
        });
    }

    /// The smallest `n` whose complete `(b+1)`-ary tree has `q` full
    /// overflow leaf nodes and a partial one of `s` keys.
    fn btree_len(b: usize, q: usize, s: usize) -> usize {
        let (k, l) = (b + 1, q * b + s);
        let mut leaf_nodes = k; // nodes of the first level that can overflow
        while l >= leaf_nodes * b {
            leaf_nodes *= k;
        }
        let n = leaf_nodes - 1 + l;
        let shape = CompleteShape::new(n, b);
        assert_eq!(
            (shape.full_overflow_nodes(), shape.partial_node_len()),
            (q, s),
            "n={n} b={b}"
        );
        n
    }

    #[test]
    fn strip_binary_all_sizes() {
        for n in 1..700usize {
            check_btree(n, 1);
        }
    }

    #[test]
    fn strip_btree_all_sizes() {
        for b in [1usize, 2, 3, 8] {
            let k = b + 1;
            for n in 1..(k.pow(3) + k.pow(2)).max(400) {
                check_btree(n, b);
            }
        }
    }

    /// Run counts chosen by their base-`(b+1)` digits — the extended
    /// gather splits on the leading digit and recurses on the rest —
    /// crossed with the partial-node lengths that do and do not need the
    /// extra shift.
    #[test]
    fn strip_btree_run_counts_by_digit_pattern() {
        for b in [1usize, 2, 3, 8] {
            let k = b + 1;
            let mut qs = Vec::new();
            for j in 1..=5u32 {
                let p = k.pow(j);
                // 10…0 − 1, 10…0, 10…01, a0…0 (two values of a), b0…01,
                // and a second non-zero digit in the middle.
                let mid = p + k.pow(j / 2);
                qs.extend([p - 1, p, p + 1, 2.min(b) * p, b * p, b * p + 1, mid]);
            }
            qs.sort_unstable();
            qs.dedup();
            // Debug-build time: 9^5 runs of 8 keys is 0.5 M elements; the
            // multiples of 9^5 are left to `strip_million_keys`.
            qs.retain(|q| q * k <= 600_000);
            let mut partials = vec![0, 1.min(b - 1), b - 1];
            partials.dedup();
            for &q in &qs {
                for &s in &partials {
                    check_btree(btree_len(b, q, s), b);
                }
            }
        }
    }

    /// One overflow leaf, and a last level one key short of full.
    #[test]
    fn strip_extreme_overflow_counts() {
        for d in 1..=12u32 {
            check_btree(1 << d, 1);
            check_btree((1 << (d + 1)) - 2, 1);
        }
        for b in [1usize, 2, 3, 8] {
            let k = b + 1;
            for levels in 1..=4u32 {
                check_btree(k.pow(levels), b);
                check_btree(k.pow(levels + 1) - 2, b);
            }
        }
    }

    /// Large enough that the `Ram` in `check`'s four-thread pool leaves
    /// its calling-thread grains: spawned task groups and parallel
    /// gathers.
    #[test]
    fn strip_million_keys() {
        check_btree(1_000_000, 1);
        check_btree(1_000_000, 8);
        check_btree(btree_len(8, 2 * 9usize.pow(5) + 9, 1), 8);
    }

    #[test]
    fn strip_keeps_prefix_and_suffix_sorted() {
        let n = 12345usize;
        let shape = CompleteShape::new(n, 1);
        let mut v: Vec<usize> = (0..n).collect();
        strip_overflow(&mut Ram::new(&mut v), shape);
        let i = shape.full_count();
        assert!(v[..i].windows(2).all(|w| w[0] < w[1]));
        assert!(v[i..].windows(2).all(|w| w[0] < w[1]));
    }
}
