//! # ist-machine
//!
//! The **machine abstraction** behind the construction algorithms: each of
//! the paper's six constructions (involution × cycle-leader for BST /
//! B-tree / vEB) is written **once** in `ist-core`, generic over the
//! [`Machine`] trait defined here, and instantiated per execution
//! substrate:
//!
//! * [`Ram`] (this crate) — plain `&mut [T]` plus threads: the production
//!   path. Monomorphization folds the abstraction away, so the generated
//!   code is the direct implementation. It has one mode: the ambient
//!   pool's thread count decides what runs in parallel, so the
//!   sequential (`P = 1`) baseline is the same `Ram` in a one-thread pool.
//! * `TrackedArray` in `ist-pem-sim` — charges Parallel External Memory
//!   block I/Os per primitive through per-processor LRU caches.
//! * `Gpu` in `ist-gpu-sim` — charges kernel launches, memory
//!   transactions, and per-lane compute per primitive (the paper's
//!   Figure 6.8 cost model).
//!
//! The trait's altitude is deliberate: the primitives are the units the
//! paper *analyzes* — involution swap rounds, equidistant gathers
//! (plain and chunked), circular shifts, and recursive subtree tasks — so
//! a cost-model backend can price each one the way the corresponding
//! analysis chapter does, while the Ram backend lowers each to the obvious
//! loops. Every backend executes the *same* index arithmetic, so permuted
//! output is bit-identical across backends (asserted by the workspace's
//! equivalence tests).
//!
//! Two hooks let a backend stop the recursion early, each answered by
//! one backend only. [`Machine::direct`] is `Ram`'s: it hands over the
//! elements of a subproblem, and the algorithm finishes it with the
//! `ist_perm` kernel that fits it instead of the primitives. A region
//! that fits `ist_perm::permute_direct`'s 8 KiB stack scratch, where the
//! primitives' per-call costs outweigh their moves, is one scratch pass.
//! An extended gather whose scratch-sized units fit
//! `ist_perm::UNIT_MAP_BITS` is one scratch pass per block and one
//! cycle pass over the units (`ist_perm::unshuffle_units`), where the
//! recursion would move every element once per gather level and again
//! in its rotations. [`Machine::block_local`]
//! is the GPU model's: the paper's GPU implementation permutes a small
//! subtree in one thread block's shared memory, so the model prices such
//! a region as one launch and the algorithm finishes it on a `Ram`. The
//! PEM backend declines both: its counts are the paper's model of the
//! primitives, so it must see every one.

use ist_gather::{equidistant_gather_chunks, gather_len};
use ist_perm::{apply_involution_range, SharedSlice};
use ist_shuffle::rotate_right;
use rayon::prelude::*;
use std::marker::PhantomData;

/// The index arithmetic evaluated per element of an involution round.
///
/// Pure metadata, which each backend reads its own way: the GPU backend
/// prices the per-lane compute with it (hardware bit reversal vs
/// software digit loops vs extended-Euclid `J` maps — the paper's
/// `T_REV` parameters), [`Ram`] sizes a round's parallel floor with its
/// measured cost ([`IndexArith::ram_cost_ns`]), and the PEM backend
/// ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexArith {
    /// Binary digit reversal over `d` bits (`T_REV₂`).
    Rev2 {
        /// Number of reversed bits.
        d: u32,
    },
    /// Base-`k` digit reversal over `m` digits.
    RevK {
        /// Digit base.
        k: u64,
        /// Number of reversed digits.
        m: u32,
    },
    /// Modular-inverse `J` involution over a domain of `len` positions
    /// (extended-Euclid arithmetic per evaluation).
    Jmap {
        /// Domain size of the involution.
        len: usize,
    },
}

impl IndexArith {
    /// What one element of a [`Ram::involution_round`] with this
    /// arithmetic costs, in nanoseconds, as the floor rule
    /// ([`rayon::min_task_len`]) needs it: the index arithmetic plus one
    /// move.
    ///
    /// Probe: `Ram::involution_round` in a one-thread pool on `u64`s,
    /// medians of nine runs at 2^16, 2^20 and 2^24 elements, two runs,
    /// on the 2-vCPU reference box. The BST's binary digit reversals read
    /// 6–35 ns per element (11–26 at 2^20), the B-tree's base-9
    /// reversals 17–65 ns and the `J` rounds 94–195 ns. Each estimate
    /// sits near the low end of its variant — a low cost asks for longer
    /// tasks — so a `J` round, about nine times a binary reversal's
    /// work, hands off from a ninth of its length.
    pub const fn ram_cost_ns(self) -> u64 {
        match self {
            Self::Rev2 { .. } => 10,
            Self::RevK { .. } => 17,
            Self::Jmap { .. } => 94,
        }
    }
}

/// How a gather participates in kernel-launch accounting.
///
/// The paper's GPU implementation batches all equidistant gathers at one
/// recursion depth of the extended gather into a single kernel round
/// (§6.0.3); per-launch backends charge fixed costs only for the
/// representative of such a batch. Backends without launch overhead
/// ignore this entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherMode {
    /// A stand-alone gather: fixed costs are charged unconditionally.
    Standalone,
    /// One gather of a depth-level batch; `representative` marks the
    /// single member that carries the batch's fixed costs.
    Batched {
        /// Whether this member carries the batch's fixed costs.
        representative: bool,
    },
}

/// A recursive subtree task: a region of the array plus an
/// algorithm-specific tag (typically the subtree height).
///
/// Tasks passed to [`Machine::run_tasks`] in one call MUST cover pairwise
/// disjoint regions — that is what lets the Ram backend run them
/// concurrently (debug builds verify it).
#[derive(Debug, Clone)]
pub struct Region<K> {
    /// First index of the region.
    pub lo: usize,
    /// Region length in elements.
    pub len: usize,
    /// Algorithm-specific payload.
    pub tag: K,
}

impl<K> Region<K> {
    /// Convenience constructor.
    pub fn new(lo: usize, len: usize, tag: K) -> Self {
        Self { lo, len, tag }
    }
}

/// An execution substrate for the construction algorithms.
///
/// All indices are **global** (relative to the machine's full array);
/// recursive algorithms carry their region offsets explicitly, which is
/// what lets cost backends observe true addresses (cache blocks, memory
/// transaction segments) rather than region-relative ones.
pub trait Machine {
    /// Element type held by the machine's array.
    type Elem: Send;

    /// Total number of elements.
    fn len(&self) -> usize;

    /// `true` iff the array is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Apply the involution `f` on `[lo, hi)` as one round of disjoint
    /// swaps: each unordered pair `{i, f(i)}` with `i < f(i)` is swapped
    /// exactly once. `f` must map `[lo, hi)` into itself and satisfy
    /// `f(f(i)) = i`; `arith` describes its per-evaluation cost.
    fn involution_round<F>(&mut self, lo: usize, hi: usize, arith: IndexArith, f: F)
    where
        F: Fn(usize) -> usize + Sync;

    /// Equidistant gather (two-stage cycle-leader, `r ≤ l`) of the region
    /// `[lo, lo + r + (r+1)·l)`: by default the chunked gather on
    /// one-element chunks. Only the GPU model prices it apart, because
    /// Figure 6.8 charges a stand-alone gather's cycle walk differently
    /// from a chunked one.
    fn gather(&mut self, lo: usize, r: usize, l: usize, mode: GatherMode) {
        self.gather_chunks(lo, r, l, 1, mode);
    }

    /// Chunked equidistant gather of `[lo, lo + (r + (r+1)·l)·chunk)`,
    /// treating each `chunk` consecutive elements as one unit.
    fn gather_chunks(&mut self, lo: usize, r: usize, l: usize, chunk: usize, mode: GatherMode);

    /// Circular shift of `[lo, hi)` right by `amount` positions.
    fn rotate_right(&mut self, lo: usize, hi: usize, amount: usize);

    /// Execute `f` once per task of one fan-out. Tasks cover pairwise
    /// disjoint regions and may therefore run concurrently; sequential
    /// backends run them in order, which recursion-sensitive cost models
    /// (GPU launches) rely on. The regions come as an iterator a backend
    /// may walk more than once, so one that runs them in order builds no
    /// task list and allocates nothing.
    fn run_tasks<K, I, F>(&mut self, tasks: I, f: F)
    where
        K: Send + Sync,
        I: Iterator<Item = Region<K>> + Clone,
        F: Fn(&mut Self, &Region<K>) + Sync;

    /// The elements of `[lo, lo + len)`, when the backend runs that
    /// subtree as one block-local unit: the algorithm then finishes it on
    /// a [`Ram`] over the returned elements, whose moves the backend does
    /// not see. `None` (the default) keeps the decomposition.
    ///
    /// Only the GPU model says yes, to a subtree of at most its
    /// `BLOCK_LOCAL` keys, and charges it as one launch that permutes
    /// the subtree in shared memory (the paper's block-local kernel).
    fn block_local(&mut self, _lo: usize, _len: usize) -> Option<&mut [Self::Elem]> {
        None
    }

    /// The elements of `[lo, lo + len)`, when the backend wants that
    /// subproblem finished directly by `ist_perm`'s kernels instead of
    /// through the primitives. `None` (the default) keeps the
    /// decomposition.
    ///
    /// The algorithm asks only for a region a kernel fits, and finishes
    /// it in that kernel: one pass through [`ist_perm::permute_direct`]'s
    /// stack scratch for a region that [fits it](ist_perm::fits_scratch),
    /// or, for an extended gather of at most [`ist_perm::UNIT_MAP_BITS`]
    /// scratch-sized units, one scratch pass per block and one
    /// [`ist_perm::unshuffle_units`] cycle pass.
    ///
    /// Only [`Ram`] says yes, to every region. The cost backends keep the
    /// default: they exist to price the paper's primitives, so the PEM
    /// I/O counts, the GPU transaction counts and a recorded primitive
    /// sequence stay those of the full decomposition.
    fn direct(&mut self, _lo: usize, _len: usize) -> Option<&mut [Self::Elem]> {
        None
    }
}

/// What one element of a [`Ram::run_tasks`] region costs its task, in
/// nanoseconds, as the floor rule ([`rayon::min_task_len`]) needs it.
///
/// A fan-out task permutes its whole subtree, every level below it
/// included, and the benchmark of record's sequential cycle-leader
/// constructions (`core.permute_seq_ms.*`, 2^20 keys, 2 vCPUs) read
/// about 8 (B-tree), 13 (vEB) and 9 (BST) ns per element, medians of
/// three traced runs.
///
/// The estimate sits near the low end — a low cost asks for longer
/// tasks, and the layout is not known here. (An involution round sizes
/// its floor with its own arithmetic's cost,
/// [`IndexArith::ram_cost_ns`].)
pub const RAM_ELEM_COST_NS: u64 = 10;

/// The production backend: the caller's array in RAM, lowered to direct
/// loops or rayon-style fork-join execution.
///
/// A `Ram` has no mode of its own. Each primitive and each fan-out
/// decides by the floor rule ([`rayon::min_task_len`]), as every other
/// dispatch site in the workspace does: from the size of its work
/// first — below two floors the check costs one compare — and the
/// ambient pool second ([`rayon::current_num_threads`]` > 1`). In a
/// one-thread pool (`ThreadPool::install(1)` or `IST_PARALLEL=1`) every
/// primitive runs on the calling thread and no fan-out builds a task
/// list. A plain gather is the chunked one on one-element chunks (the
/// trait's default).
///
/// Internally a `Ram` is a raw view (pointer + length) over the borrowed
/// slice so that disjoint recursive tasks can hold simultaneous views —
/// the same discipline as [`ist_perm::SharedSlice`], with the disjointness
/// obligations discharged by the `Machine` contract ([`Region`]s of one
/// `run_tasks` call never overlap; debug builds assert it).
pub struct Ram<'a, T> {
    base: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a `Ram` view is handed across threads only by `run_tasks`,
// whose tasks touch disjoint regions; elements themselves move between
// threads, hence `T: Send`.
unsafe impl<'a, T: Send> Send for Ram<'a, T> {}

impl<'a, T: Send> Ram<'a, T> {
    /// Machine over `data`.
    pub fn new(data: &'a mut [T]) -> Self {
        Self {
            base: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// An aliasing view used to hand disjoint tasks to worker threads.
    fn view(&self) -> Self {
        Self {
            base: self.base,
            len: self.len,
            _marker: PhantomData,
        }
    }

    /// Reborrow `[lo, lo+len)` as a mutable slice.
    ///
    /// The bounds check is unconditional (it runs once per primitive, not
    /// per element): the algorithm entry points derive region sizes from
    /// caller-supplied tree heights, and a mismatch against the actual
    /// array length must panic — never hand out an oversized raw slice —
    /// in release builds too.
    ///
    /// # Safety
    /// No concurrent task may access any of the region's elements for
    /// the returned borrow's lifetime.
    unsafe fn region(&self, lo: usize, len: usize) -> &'a mut [T] {
        assert!(
            lo.checked_add(len).is_some_and(|hi| hi <= self.len),
            "region [{lo}, {lo}+{len}) out of bounds for length {}",
            self.len
        );
        // SAFETY: the assert above proves the range in bounds, and the
        // caller guarantees no concurrent access to it, so the reborrow
        // aliases nothing for its lifetime.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(lo), len) }
    }
}

impl<'a, T: Send> Machine for Ram<'a, T> {
    type Elem = T;

    fn len(&self) -> usize {
        self.len
    }

    fn involution_round<F>(&mut self, lo: usize, hi: usize, arith: IndexArith, f: F)
    where
        F: Fn(usize) -> usize + Sync,
    {
        debug_assert!(lo <= hi && hi <= self.len);
        let n = hi - lo;
        // SAFETY: this machine holds the unique borrow of `[lo, hi)` here
        // (run_tasks hands out disjoint regions), so reborrowing it as a
        // slice is sound.
        let region = unsafe { self.region(lo, n) };
        let floor = rayon::min_task_len(arith.ram_cost_ns());
        if n >= 2 * floor && rayon::current_num_threads() > 1 {
            let shared = SharedSlice::new(region);
            (0..n).into_par_iter().with_min_len(floor).for_each(|off| {
                let i = lo + off;
                let j = f(i);
                debug_assert!(
                    (lo..hi).contains(&j),
                    "involution escapes range: f({i}) = {j}"
                );
                debug_assert_eq!(f(j), i, "not an involution at {i}");
                if i < j {
                    // SAFETY: pair {i, j} with i < j is processed only
                    // by the iteration owning index i; pairs of an
                    // involution are disjoint, so no two tasks touch
                    // the same element.
                    unsafe { shared.swap(i - lo, j - lo) };
                }
            });
        } else if lo == 0 {
            // Global indices coincide with region-local ones: skip the
            // per-element offset translation.
            apply_involution_range(region, 0, n, f);
        } else {
            apply_involution_range(region, 0, n, |off| f(lo + off) - lo);
        }
    }

    fn gather_chunks(&mut self, lo: usize, r: usize, l: usize, chunk: usize, _mode: GatherMode) {
        // SAFETY: unique access to the region per the Machine contract.
        // A length that wraps is still checked against the array here,
        // and the gather's own guard rejects the mismatch.
        let region = unsafe { self.region(lo, gather_len(r, l) * chunk) };
        equidistant_gather_chunks(region, r, l, chunk);
    }

    fn rotate_right(&mut self, lo: usize, hi: usize, amount: usize) {
        debug_assert!(lo <= hi && hi <= self.len);
        // SAFETY: unique access to the region per the Machine contract.
        let region = unsafe { self.region(lo, hi - lo) };
        // Always on the calling thread: a rotation by parallel reversals
        // is 2.6 × the work (see `ist_shuffle::rotate`) — it made the
        // parallel B-tree construction 1.4 × its sequential twin — and a
        // second core adds no bandwidth to a streaming move on the 2-vCPU
        // reference box: a Gries–Mills block-swap rotation of the B-tree
        // strip's 941 431-element shift took 0.71 ms on one thread and no
        // less on two, against 0.75 ms here. The extended gather calls
        // this on a `Ram` only where its units do not fit the unit map
        // (`Machine::direct`).
        rotate_right(region, amount);
    }

    /// Only at least two floors' worth of work in a pool of more than
    /// one thread is dealt out; otherwise the tasks run in order on the
    /// calling thread and no task list is built, so a construction in a
    /// one-thread pool makes no heap allocation at all. An involution
    /// round asks the same of its elements, at its arithmetic's cost
    /// ([`IndexArith::ram_cost_ns`]).
    fn run_tasks<K, I, F>(&mut self, tasks: I, f: F)
    where
        K: Send + Sync,
        I: Iterator<Item = Region<K>> + Clone,
        F: Fn(&mut Self, &Region<K>) + Sync,
    {
        let total: usize = tasks.clone().map(|t| t.len).sum();
        let floor = rayon::min_task_len(RAM_ELEM_COST_NS);
        if total < 2 * floor || rayon::current_num_threads() == 1 {
            for task in tasks {
                f(self, &task);
            }
            return;
        }
        let tasks: Vec<Region<K>> = tasks.collect();
        debug_assert!(regions_disjoint(&tasks), "run_tasks regions overlap");
        // Deal the tasks into contiguous groups of at least `floor`
        // total elements and offer each group to the pool: a level of
        // many tiny subtrees (the vEB recursions produce hundreds of
        // l-element bottoms) still spreads across threads without
        // paying a hand-off per region.
        let mut groups: Vec<Vec<(Self, &Region<K>)>> = Vec::new();
        let mut group: Vec<(Self, &Region<K>)> = Vec::new();
        let mut grouped = 0usize;
        for task in &tasks {
            group.push((self.view(), task));
            grouped += task.len;
            if grouped >= floor {
                grouped = 0;
                groups.push(std::mem::take(&mut group));
            }
        }
        // The largest group stays on the calling thread, beside the
        // remainder: a fan-out as uneven as the B-tree strip's
        // `[531 440 | 50 327]` would otherwise hand its big block to the
        // one free worker and leave the caller idle after the small one,
        // with the big block's own fan-outs finding no worker to take.
        let elements = |group: &[(Self, &Region<K>)]| -> usize {
            group.iter().map(|(_, task)| task.len).sum()
        };
        let largest = (0..groups.len()).max_by_key(|&i| elements(&groups[i]));
        let mine = largest.map(|i| groups.remove(i));
        rayon::scope(|s| {
            let f = &f;
            for batch in groups {
                s.spawn(move |_| {
                    for (mut view, task) in batch {
                        f(&mut view, task);
                    }
                });
            }
            for (mut view, task) in mine.into_iter().flatten().chain(group) {
                f(&mut view, task);
            }
        });
    }

    /// Every region the algorithm asks for: a kernel's passes cost less
    /// than the gathers, shifts and task calls the recursion would spend
    /// on the same region. The algorithm asks only where a kernel fits,
    /// so an element too large for the scratch keeps the primitives and
    /// the stack never grows with `T`.
    fn direct(&mut self, lo: usize, len: usize) -> Option<&mut [T]> {
        // SAFETY: unique access to the region per the Machine contract.
        Some(unsafe { self.region(lo, len) })
    }
}

/// `true` iff no two regions overlap (used by debug assertions).
pub fn regions_disjoint<K>(tasks: &[Region<K>]) -> bool {
    let mut spans: Vec<(usize, usize)> = tasks.iter().map(|t| (t.lo, t.lo + t.len)).collect();
    spans.sort_unstable();
    spans.windows(2).all(|w| w[0].1 <= w[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    /// Run `f` in a pool of `threads` threads: one takes every
    /// primitive's calling-thread body, four its parallel body from two
    /// floors on.
    fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn involution_round_one_and_four_threads_agree() {
        // The last size is the round's floor: two tasks of
        // `min_task_len(ram_cost_ns())` elements.
        for arith in [IndexArith::Rev2 { d: 1 }, IndexArith::Jmap { len: 1 }] {
            let floor = rayon::min_task_len(arith.ram_cost_ns());
            for n in [0usize, 5, 100, 2 * floor] {
                let mut expect = mk(n);
                expect.reverse();
                for threads in [1, 4] {
                    let mut v = mk(n);
                    let f = move |i: usize| n - 1 - i; // reversal
                    in_pool(threads, || {
                        Ram::new(&mut v).involution_round(0, n, arith, f)
                    });
                    assert_eq!(v, expect, "{arith:?} threads={threads} n={n}");
                }
            }
        }
    }

    /// `direct` hands out the region asked for, whether or not it fits
    /// the scratch, and refuses one past the array.
    #[test]
    fn direct_hands_out_the_region_asked_for() {
        let fit = ist_perm::SCRATCH_BYTES / size_of::<u64>();
        let mut v = mk(fit + 8);
        let mut ram = Ram::new(&mut v);
        assert_eq!(ram.direct(8, fit).map(|r| (r[0], r.len())), Some((8, fit)));
        assert_eq!(ram.direct(0, fit + 1).map(|r| r.len()), Some(fit + 1));
        let mut big = vec![[0u8; ist_perm::SCRATCH_BYTES + 64]; 2];
        assert!(Ram::new(&mut big).direct(0, 1).is_some());
        let mut unit = vec![(); 1 << 20];
        assert!(Ram::new(&mut unit).direct(0, 1 << 20).is_some());
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ram.direct(9, fit).is_some()
        }));
        assert!(past.is_err(), "a region past the array was handed out");
    }

    #[test]
    fn involution_round_respects_offsets() {
        let n = 10usize;
        let mut v = mk(n);
        // Reverse only [2, 8) using global indices.
        Ram::new(&mut v).involution_round(2, 8, IndexArith::Rev2 { d: 1 }, |i| 2 + 7 - i);
        assert_eq!(v, vec![0, 1, 7, 6, 5, 4, 3, 2, 8, 9]);
    }

    /// A small gather and the smallest square one at the parallel floor
    /// (two floors of moves), each in a one- and a four-thread pool.
    #[test]
    fn gather_matches_reference() {
        let par_floor = 2 * rayon::min_task_len(ist_perm::MOVE_COST_NS);
        let big = (1..).find(|&l| gather_len(l, l) >= par_floor).unwrap();
        for (r, l) in [(3usize, 5usize), (big, big)] {
            let pad = 4usize;
            let n = pad + gather_len(r, l);
            let expect = ist_gather::reference_gather(&mk(n)[pad..], r, l);
            for threads in [1, 4] {
                let mut v = mk(n);
                in_pool(threads, || {
                    Ram::new(&mut v).gather(pad, r, l, GatherMode::Standalone)
                });
                assert_eq!(&v[pad..], &expect[..], "threads={threads} r={r} l={l}");
                assert!(v[..pad].iter().copied().eq(0..pad as u64), "pad disturbed");
            }
        }
    }

    #[test]
    fn rotate_right_matches_std() {
        let n = 1000usize;
        let mut v = mk(n);
        Ram::new(&mut v).rotate_right(100, 900, 37);
        let mut expect = mk(n);
        expect[100..900].rotate_right(37);
        assert_eq!(v, expect);
    }

    #[test]
    fn run_tasks_executes_disjoint_regions() {
        let fit = ist_perm::SCRATCH_BYTES / size_of::<u64>();
        let n = 4 * fit;
        let mut v = vec![0u64; n];
        let tasks = (0..4).map(|q| Region::new(q * fit, fit, q as u64 + 1));
        Ram::new(&mut v).run_tasks(tasks, |m, reg| {
            for x in m.direct(reg.lo, reg.len).unwrap() {
                *x = reg.tag;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / fit) as u64 + 1, "i={i}");
        }
    }

    #[test]
    fn disjointness_checker() {
        let a = vec![
            Region::new(0, 3, ()),
            Region::new(3, 4, ()),
            Region::new(10, 2, ()),
        ];
        assert!(regions_disjoint(&a));
        let b = vec![Region::new(0, 4, ()), Region::new(3, 4, ())];
        assert!(!regions_disjoint(&b));
    }
}
