//! [`Machine`] implementation for [`Gpu`]: the SIMT cost backend
//! (Figure 6.8's launch / transaction / compute model).
//!
//! * Involution rounds become full-array **swap kernels**: one launch,
//!   per-lane compute priced from the round's [`IndexArith`] (hardware
//!   bit reversal vs software digit loops vs extended-Euclid `J` maps),
//!   and per-warp coalescing of the scattered swap addresses.
//! * Stand-alone gathers (the vEB recursion) become a cycle-walk kernel
//!   (scattered) plus a block-rotation kernel (coalesced); batched
//!   gathers (the extended gather's per-depth rounds, §6.0.3) charge
//!   coalesced streams with fixed costs on the batch representative only.
//!   This is the one backend that prices [`Machine::gather`] apart from
//!   [`Machine::gather_chunks`].
//! * [`Machine::block_local`] answers for subtrees of at most
//!   [`crate::kernels::BLOCK_LOCAL`] keys: each is one **block-local**
//!   launch in "shared memory", a coalesced streaming pass plus local
//!   compute, and the generic algorithm then finishes the region on a
//!   `Ram` (smaller than every `Ram` floor, so it runs on the calling
//!   thread, and free to finish its own small subtrees through
//!   [`Machine::direct`]: the launch is priced as a whole either way).
//! * [`Machine::direct`] keeps its default, `None`: outside block-local
//!   launches every primitive is priced.
//!
//! The construction control flow lives in `ist_core::algorithms`; the
//! kernels really permute the simulated global memory, so the cost
//! accounting rides on genuine executions of the same algorithms.

use crate::kernels::BLOCK_LOCAL;
use crate::Gpu;
use ist_gather::gather_len;
use ist_machine::{GatherMode, IndexArith, Machine, Region};

/// Per-lane ALU charge for one evaluation of the round's index map.
fn arith_cost(gpu: &Gpu, arith: IndexArith) -> f64 {
    let hw = gpu.config().hardware_bit_reversal;
    match arith {
        // Hardware bit reversal is O(1) (the paper's T_REV₂ = O(1) case);
        // software pays per bit.
        IndexArith::Rev2 { d } => {
            if hw {
                2.0
            } else {
                2.0 * d as f64
            }
        }
        IndexArith::RevK { k, m } => {
            if k == 2 {
                if hw {
                    2.0
                } else {
                    2.0 * m as f64
                }
            } else {
                3.0 * m as f64 // software digit loop
            }
        }
        // Extended Euclid of word-size operands, ≈ 1.5 ops per bit.
        IndexArith::Jmap { len } => 1.5 * (64 - (len as u64).leading_zeros()) as f64,
    }
}

impl Machine for Gpu {
    type Elem = u64;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn involution_round<F>(&mut self, lo: usize, hi: usize, arith: IndexArith, f: F)
    where
        F: Fn(usize) -> usize + Sync,
    {
        let comp = arith_cost(self, arith);
        self.swap_kernel(hi - lo, comp, move |t| {
            let i = lo + t;
            let j = f(i);
            debug_assert!((lo..hi).contains(&j));
            (i < j).then_some((i, j))
        });
    }

    fn gather(&mut self, lo: usize, r: usize, l: usize, mode: GatherMode) {
        if r == 0 {
            return;
        }
        let lw = self.config().line_words as u64;
        match mode {
            GatherMode::Standalone => {
                // Stage 1: one launch; each thread walks its cycle
                // sequentially. Cycle c makes c swaps at stride ~(l+1):
                // scattered -> ~2 transactions per swap; total swaps =
                // r(r+1)/2.
                self.charge_launch();
                self.charge_compute((r * (r + 1) / 2) as f64 * 4.0);
                self.charge_transactions((r * (r + 1)) as u64);
                // Stage 2: one launch; every block rotated via three
                // coalesced reversal passes over the (r+1)·l tail.
                self.charge_launch();
                let words = ((r + 1) * l) as u64;
                self.charge_transactions(6 * words.div_ceil(lw));
            }
            GatherMode::Batched { representative } => {
                // Batched across all gathers at this recursion depth: one
                // launch per stage, charged once per batch; data movement
                // (4 coalesced passes) charged for every member.
                if representative {
                    self.charge_launch();
                    self.charge_launch();
                }
                let n_cur = gather_len(r, l) as u64;
                self.charge_transactions((2 * n_cur).div_ceil(lw) * 4);
            }
        }
        // Perform the permutation with the production code path (no extra
        // charge; accounted above).
        let region = &mut self.data[lo..lo + gather_len(r, l)];
        ist_gather::equidistant_gather(region, r, l);
    }

    fn gather_chunks(&mut self, lo: usize, r: usize, l: usize, chunk: usize, mode: GatherMode) {
        if r == 0 {
            return;
        }
        // The stage-1 cycle rotation has a closed-form destination per
        // chunk, so it is a single coalesced kernel; stage 2 (block
        // rotations) is another.
        let representative = !matches!(
            mode,
            GatherMode::Batched {
                representative: false
            }
        );
        if representative {
            self.charge_launch();
            self.charge_launch();
        }
        // Stage 1 moves ~r(r+1)/2 chunks of `chunk` words (each moved
        // word read once + written once); stage 2 rewrites the (r+1)·l
        // block chunks the same way. Coalesced.
        let lw = self.config().line_words as u64;
        let moved = (r * (r + 1) / 2 * chunk) as u64;
        self.charge_transactions(2 * moved.div_ceil(lw));
        self.charge_transactions(2 * (((r + 1) * l * chunk) as u64).div_ceil(lw));
        let region = &mut self.data[lo..lo + gather_len(r, l) * chunk];
        ist_gather::equidistant_gather_chunks(region, r, l, chunk);
    }

    fn rotate_right(&mut self, lo: usize, hi: usize, amount: usize) {
        self.rotate_kernel(lo, hi, amount);
    }

    /// Recursion tasks execute in order; each subtree above the
    /// block-local threshold pays for its own kernels, which is exactly
    /// why "the recursion associated with vEB construction makes it
    /// perform poorly on the GPU".
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

    /// A subtree of at most [`BLOCK_LOCAL`] keys is one block-local
    /// launch: a coalesced streaming pass plus local compute; the
    /// permutation itself runs in "shared memory" (no further global
    /// transactions).
    fn block_local(&mut self, lo: usize, len: usize) -> Option<&mut [u64]> {
        if len > BLOCK_LOCAL {
            return None;
        }
        self.charge_launch();
        let lw = self.config().line_words as u64;
        let segments = (len as u64).div_ceil(lw);
        let n = len as f64;
        self.charge_compute(n * (n.log2().max(1.0)));
        // Transactions: 2 streaming passes (read + write the region once).
        for _ in 0..2 {
            self.charge_warp_stream(segments);
        }
        Some(&mut self.data[lo..lo + len])
    }
}
