//! # ist-core
//!
//! Parallel in-place construction of implicit search tree layouts — the
//! primary contribution of *Beyond Binary Search: Parallel In-Place
//! Construction of Implicit Search Tree Layouts* (Berney, 2018).
//!
//! Given an array sorted in ascending order, the algorithms here permute
//! it **in place** into one of three implicit layouts so that subsequent
//! searches are more cache-efficient than binary search:
//!
//! | Layout | Description | Query I/Os |
//! |---|---|---|
//! | [`Layout::Bst`] | level order of a complete binary search tree | `O(log(N/B))` |
//! | [`Layout::Btree`] | level order of a complete `(B+1)`-ary search tree | `Θ(log_B N)` |
//! | [`Layout::Veb`] | recursive van Emde Boas order (cache-oblivious) | `Θ(log_B N)` |
//!
//! Two algorithm families are implemented for every layout:
//!
//! * [`Algorithm::Involution`] — every constituent permutation is applied
//!   as a product of two involutions (digit reversals or modular-inverse
//!   `J` maps), i.e. two parallel rounds of disjoint swaps (Chapter 2);
//! * [`Algorithm::CycleLeader`] — the equidistant-gather based algorithms
//!   with explicitly enumerated disjoint cycles and better locality
//!   (Chapter 3).
//!
//! Arbitrary (non-perfect) sizes are handled per Chapter 5: the non-full
//! leaf level is first moved, in place, to the array's suffix; the
//! remaining elements form a perfect tree. The resulting format is
//! `[perfect layout | sorted overflow leaves]` (see
//! [`ist_layout::complete`]), which `ist-query` searches natively. One
//! [`algorithms::strip_overflow`] does it for every layout and both
//! families, from the tree's [`ist_layout::CompleteShape`] — BST and vEB
//! are the B-tree with one key per node — in cycle-leader primitives
//! only: one extended gather over the overflow runs, then circular
//! shifts.
//!
//! **Documented deviation from the paper:** for the vEB layout the paper
//! re-interleaves overflow leaves into the recursive bottom subtrees so
//! that the final array is a pure vEB layout of the complete tree. We
//! instead keep the `[perfect | overflow]` format for all three layouts.
//! This preserves in-placeness, the cycle-leader family's work/depth
//! bounds, and query correctness, at the cost of one extra cache line
//! touched per query that ends in the suffix (README, "Array format for
//! arbitrary sizes").
//!
//! Every algorithm is implemented **once**, in [`algorithms`], generic
//! over the [`Machine`] execution substrate: [`permute_in_place`] runs it
//! on the [`Ram`] backend, while `ist-pem-sim` and `ist-gpu-sim` run the
//! identical control flow on cost-model backends (PEM block I/Os and GPU
//! launches/transactions respectively). Use [`construct`] directly to
//! drive a custom backend.
//!
//! The `Ram` backend has no sequential mode: [`permute_in_place`] splits
//! work by the ambient rayon pool's thread count, and the `P = 1`
//! baseline, [`permute_in_place_seq`], is the same call in a one-thread
//! pool — on the calling thread, with no heap allocation.
//!
//! ## Quick start
//!
//! ```
//! use ist_core::{permute_in_place, Algorithm, Layout};
//!
//! let mut data: Vec<u64> = (0..(1 << 16) - 1).collect(); // sorted
//! permute_in_place(&mut data, Layout::Veb, Algorithm::CycleLeader).unwrap();
//! // `data` is now the vEB layout of the original sorted array.
//! ```

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod oracle;

pub use algorithms::construct;
pub use ist_machine::{GatherMode, IndexArith, Machine, Ram, Region};
pub use oracle::reference_permutation;

/// Target memory layout for [`permute_in_place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Level-order complete binary search tree.
    Bst,
    /// Level-order complete multiway tree with `B` keys per node.
    Btree {
        /// Keys per node; the paper uses the cache-line size in keys
        /// (`B = 8` for 64-byte lines and 64-bit keys on the CPU,
        /// `B = 32` on the GPU).
        b: usize,
    },
    /// van Emde Boas (recursive, cache-oblivious) order.
    Veb,
}

/// Construction algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Product-of-involutions algorithms (Chapter 2): simple, trivially
    /// parallel rounds of disjoint swaps; poorer locality.
    Involution,
    /// Cycle-leader / equidistant-gather algorithms (Chapter 3): better
    /// spatial locality (I/O-efficient per Chapter 4).
    CycleLeader,
}

impl Algorithm {
    /// Both families, for exhaustive sweeps.
    pub const ALL: [Algorithm; 2] = [Algorithm::Involution, Algorithm::CycleLeader];

    /// Stable lowercase name used in CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Involution => "involution",
            Algorithm::CycleLeader => "cycle_leader",
        }
    }
}

/// Errors reported by the construction entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// `Layout::Btree { b: 0 }` was requested.
    ZeroNodeCapacity,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ZeroNodeCapacity => write!(f, "B-tree node capacity B must be at least 1"),
        }
    }
}

impl std::error::Error for Error {}

/// Permute sorted `data` in place into `layout`, **in parallel** (rayon)
/// on the ambient pool: in a one-thread pool it runs on the calling
/// thread and allocates nothing.
///
/// Handles arbitrary input sizes; non-perfect trees use the Chapter-5
/// extension (perfect prefix + sorted overflow suffix). The permutation
/// uses `O(P log N)` extra space (recursion stacks), never a second
/// buffer.
///
/// # Examples
/// ```
/// use ist_core::{permute_in_place, Algorithm, Layout};
/// let mut v: Vec<u32> = (0..1000).collect();
/// permute_in_place(&mut v, Layout::Btree { b: 8 }, Algorithm::CycleLeader).unwrap();
/// ```
pub fn permute_in_place<T: Send>(
    data: &mut [T],
    layout: Layout,
    algorithm: Algorithm,
) -> Result<(), Error> {
    construct(&mut Ram::new(data), layout, algorithm)
}

/// [`permute_in_place`] in a one-thread pool: the `P = 1` baseline of
/// the evaluation, on the same code path as every other `P`.
///
/// # Examples
/// ```
/// use ist_core::{permute_in_place_seq, Algorithm, Layout};
/// let mut v: Vec<u32> = (0..127).collect();
/// permute_in_place_seq(&mut v, Layout::Bst, Algorithm::Involution).unwrap();
/// assert_eq!(v[0], 63); // root is the median
/// ```
pub fn permute_in_place_seq<T: Send>(
    data: &mut [T],
    layout: Layout,
    algorithm: Algorithm,
) -> Result<(), Error> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building a pool starts no thread")
        .install(|| permute_in_place(data, layout, algorithm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oracle::reference_permutation;

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    /// Every algorithm at `n` keys, in a one-thread pool
    /// (`permute_in_place_seq`) and in a four-thread pool, whatever the
    /// host's core count.
    fn check(n: usize, layout: Layout) {
        let orig: Vec<u64> = (0..n as u64).collect();
        let expect = reference_permutation(&orig, layout);
        for algo in Algorithm::ALL {
            let mut seq = orig.clone();
            permute_in_place_seq(&mut seq, layout, algo).unwrap();
            assert_eq!(seq, expect, "seq n={n} layout={layout:?} algo={algo:?}");
            let mut par = orig.clone();
            pool(4).install(|| permute_in_place(&mut par, layout, algo).unwrap());
            assert_eq!(par, expect, "par n={n} layout={layout:?} algo={algo:?}");
        }
    }

    #[test]
    fn perfect_bst_sizes() {
        for d in 1..=15u32 {
            check((1 << d) - 1, Layout::Bst);
        }
    }

    /// Both parities of `d` up to 16: odd heights gather two halves and
    /// join them with one shift, even heights gather once.
    #[test]
    fn perfect_veb_sizes() {
        for d in 1..=16u32 {
            check((1 << d) - 1, Layout::Veb);
        }
    }

    #[test]
    fn perfect_btree_sizes() {
        for b in [1usize, 2, 3, 7, 8] {
            for m in 1..=4u32 {
                let n = (b + 1).pow(m) - 1;
                if n <= 1 << 15 {
                    check(n, Layout::Btree { b });
                }
            }
        }
    }

    #[test]
    fn nonperfect_sizes() {
        for n in [2usize, 4, 5, 6, 10, 100, 1000, 4095, 4096, 5000] {
            check(n, Layout::Bst);
            check(n, Layout::Veb);
            check(n, Layout::Btree { b: 3 });
            check(n, Layout::Btree { b: 8 });
        }
    }

    #[test]
    fn tiny_inputs() {
        for n in 0..=3usize {
            check(n, Layout::Bst);
            check(n, Layout::Veb);
            check(n, Layout::Btree { b: 2 });
        }
    }

    #[test]
    fn rejects_zero_b() {
        let mut v = vec![1u8, 2, 3];
        assert_eq!(
            permute_in_place(&mut v, Layout::Btree { b: 0 }, Algorithm::Involution),
            Err(Error::ZeroNodeCapacity)
        );
    }

    /// Sizes on both sides of `Ram::run_tasks`' fan-out floor, two
    /// floors at `RAM_ELEM_COST_NS` (50 000 elements; `dispatch_budget`
    /// pins that it hands off only from there, and never in a one-thread
    /// pool). No fan-out covers more than `n` elements, so up to the
    /// floor every task recurses directly; at the ragged 100 000 every
    /// layout deals its top fan-outs (strip and perfect part, vEB's
    /// 2^16 − 1 included) to `check`'s four-thread pool and recurses
    /// directly below them.
    #[test]
    fn sizes_around_the_fan_out_floor() {
        assert_eq!(
            2 * rayon::min_task_len(ist_machine::RAM_ELEM_COST_NS),
            50_000
        );
        for n in [49_999usize, 50_000, 50_001, 100_000] {
            check(n, Layout::Bst);
            check(n, Layout::Veb);
            check(n, Layout::Btree { b: 8 });
        }
    }

    #[test]
    fn large_parallel_all_layouts() {
        let n = (1 << 18) - 1;
        check(n, Layout::Bst);
        check(n, Layout::Veb);
        check(n, Layout::Btree { b: 8 });
    }
}
