//! [`Machine`] implementation for [`TrackedArray`]: the PEM cost backend.
//!
//! Each primitive partitions its work over the `P` virtual processors
//! exactly as the PRAM/PEM analyses assume — involution rounds split the
//! index range into `P` contiguous chunks; gather cycles and block
//! fix-ups are dealt out in contiguous groups (a plain gather is the
//! chunked one on one-element chunks, the trait's default, which makes
//! the same accesses); recursive subtree tasks
//! run in task order (the PEM model charges `Q` as the max over
//! processors of *block transfers*, which the per-access LRU accounting
//! in [`TrackedArray`] captures; scheduling order does not matter).
//!
//! The construction control flow itself lives in `ist_core::algorithms`;
//! this file only decides *how each primitive is priced and dealt out*,
//! which is what makes the recorded I/Os a measurement of the real
//! algorithms rather than of a hand-maintained replica. It keeps the
//! defaults of [`Machine::direct`] and [`Machine::block_local`]: no
//! subproblem skips its primitives, so the I/Os are those of the full
//! decomposition.

use crate::TrackedArray;
use ist_gather::cycle_slot;
use ist_machine::{GatherMode, IndexArith, Machine, Region};

impl Machine for TrackedArray {
    type Elem = u64;

    fn len(&self) -> usize {
        TrackedArray::len(self)
    }

    /// One involution round, the index range split into `P` contiguous
    /// per-processor chunks.
    fn involution_round<F>(&mut self, lo: usize, hi: usize, _arith: IndexArith, f: F)
    where
        F: Fn(usize) -> usize + Sync,
    {
        let p = self.procs();
        let len = hi - lo;
        for proc in 0..p {
            let a = lo + len * proc / p;
            let b = lo + len * (proc + 1) / p;
            self.set_proc(proc);
            for i in a..b {
                let j = f(i);
                debug_assert!((lo..hi).contains(&j));
                if i < j {
                    self.swap(i, j);
                }
            }
        }
    }

    /// Cycle-leader equidistant gather on chunks of `chunk` elements,
    /// with cycles and block fix-ups dealt across processors in
    /// contiguous groups (the practical `O(B)`-cycles-per-processor
    /// scheme of §4.2): every move is a streaming `chunk`-element block
    /// swap. `GatherMode` is launch-batching metadata; the PEM model has
    /// no launch cost.
    fn gather_chunks(&mut self, lo: usize, r: usize, l: usize, chunk: usize, _mode: GatherMode) {
        if r == 0 {
            return;
        }
        let p = self.procs();
        for proc in 0..p {
            let a = 1 + r * proc / p;
            let b = 1 + r * (proc + 1) / p;
            self.set_proc(proc);
            for c in a..b {
                for m in (1..=c).rev() {
                    let x = lo + cycle_slot(m, c, l) * chunk;
                    let y = lo + cycle_slot(m - 1, c, l) * chunk;
                    self.swap_range(x, y, chunk);
                }
            }
        }
        for proc in 0..p {
            let a = (r + 1) * proc / p;
            let b = (r + 1) * (proc + 1) / p;
            self.set_proc(proc);
            for j0 in a..b {
                let amount = ((r - j0) % l) * chunk;
                let start = lo + (r + j0 * l) * chunk;
                TrackedArray::rotate_right(self, start, start + l * chunk, amount);
            }
        }
    }

    fn rotate_right(&mut self, lo: usize, hi: usize, amount: usize) {
        TrackedArray::rotate_right(self, lo, hi, amount);
    }

    /// Recursive subtree tasks run in order on the simulated machine;
    /// involution/gather rounds inside them re-deal their own work over
    /// all `P` processors, matching the analyses' static partitioning.
    fn run_tasks<K, I, F>(&mut self, tasks: I, f: F)
    where
        K: Send + Sync,
        I: Iterator<Item = Region<K>> + Clone,
        F: Fn(&mut Self, &Region<K>) + Sync,
    {
        for task in tasks {
            f(self, &task);
        }
    }
}
