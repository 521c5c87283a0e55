//! # ist-gpu-sim
//!
//! A SIMT (GPU) execution and cost model — the substrate substitution for
//! the paper's GPU platform (an NVIDIA Tesla K40 programmed in CUDA),
//! which we do not have. The README's "One algorithm, N machines"
//! section gives the substitution argument.
//!
//! The model charges the three costs that drive the paper's GPU findings
//! (Figures 6.8–6.9):
//!
//! 1. **Kernel launches** — fixed overhead per launch. Recursive
//!    algorithms (the vEB constructions, implemented with per-subtree
//!    launches as in the paper) pay this per recursion task, which is
//!    exactly why "the recursion associated with vEB construction makes
//!    it perform poorly on the GPU".
//! 2. **Memory transactions** — global memory moves in 128-byte segments
//!    (16 keys); a warp of 32 lanes accessing scattered addresses costs
//!    up to 32 transactions, while coalesced access costs 2–4. The
//!    cycle-leader B-tree algorithm's chunked moves coalesce perfectly,
//!    making it the fastest, as in the paper.
//! 3. **Compute** — per-lane ALU operations. The K40 has a **hardware
//!    bit-reversal instruction** (`T_REV₂ = O(1)`), so the BST involution
//!    algorithm is cheap on the GPU (unlike the CPU); the B-tree
//!    involutions pay `O(log N)` extended-Euclid arithmetic per element,
//!    which is why they "perform poorly".
//!
//! The [`Gpu`] device implements the `ist-machine` `Machine` trait, so
//! [`kernels::permute`] drives the **same** generic construction
//! algorithms as the production path (`ist_core::algorithms`) — not a
//! hand-maintained replica. The kernels really permute the simulated
//! global memory, and tests verify the result against `ist-core`'s
//! oracle — the cost accounting rides on genuine executions of the same
//! algorithms.

pub mod kernels;
mod machine;
pub mod query;

pub use kernels::GpuAlgorithm;
pub use query::{lane_node_trace, per_query_cost};

/// Cost-model parameters (defaults approximate a K40-class device,
/// normalized so one 128-byte transaction costs 1 unit).
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Lanes per warp.
    pub warp: usize,
    /// Words (keys) per 128-byte memory transaction segment.
    pub line_words: usize,
    /// Cost units per kernel launch.
    pub launch_overhead: f64,
    /// Cost units per memory transaction.
    pub transaction_cost: f64,
    /// Cost units per abstract per-lane ALU operation.
    pub compute_cost: f64,
    /// Whether the device reverses bits in one instruction (the K40
    /// does: the paper's `T_REV₂ = O(1)` case).
    pub hardware_bit_reversal: bool,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            warp: 32,
            line_words: 16,
            // A K40 kernel launch is ~7.5 µs; one 128-byte transaction at
            // ~200 GB/s streaming bandwidth is ~0.6 ns. Normalizing the
            // transaction to 1 unit puts the launch at ~12k units.
            launch_overhead: 12_000.0,
            transaction_cost: 1.0,
            compute_cost: 0.02,
            hardware_bit_reversal: true,
        }
    }
}

/// Accumulated execution costs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuCost {
    /// Number of kernel launches.
    pub launches: u64,
    /// Number of 128-byte memory transactions.
    pub transactions: u64,
    /// Abstract ALU operations across all lanes.
    pub compute: f64,
}

impl GpuCost {
    /// Total model time in cost units under `cfg`.
    pub fn time(&self, cfg: &GpuConfig) -> f64 {
        self.launches as f64 * cfg.launch_overhead
            + self.transactions as f64 * cfg.transaction_cost
            + self.compute * cfg.compute_cost
    }
}

/// The simulated device: global memory plus cost counters.
pub struct Gpu {
    /// Global memory (the array being permuted / queried).
    pub data: Vec<u64>,
    cfg: GpuConfig,
    cost: GpuCost,
    /// Scratch for per-warp coalescing: segment ids seen this slot.
    seen: Vec<usize>,
}

impl Gpu {
    /// A device holding `data` in global memory.
    pub fn new(data: Vec<u64>, cfg: GpuConfig) -> Self {
        Self {
            data,
            cfg,
            cost: GpuCost::default(),
            seen: Vec::with_capacity(64),
        }
    }

    /// Device holding the sorted keys `0..n`.
    pub fn from_sorted(n: usize, cfg: GpuConfig) -> Self {
        Self::new((0..n as u64).collect(), cfg)
    }

    /// Costs accumulated so far.
    pub fn cost(&self) -> GpuCost {
        self.cost
    }

    /// Model time accumulated so far.
    pub fn time(&self) -> f64 {
        self.cost.time(&self.cfg)
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    pub(crate) fn charge_launch(&mut self) {
        self.cost.launches += 1;
    }

    pub(crate) fn charge_compute(&mut self, ops: f64) {
        self.cost.compute += ops;
    }

    pub(crate) fn charge_transactions(&mut self, t: u64) {
        self.cost.transactions += t;
    }

    /// Charge one coalesced streaming pass over `words` words (read +
    /// write).
    pub(crate) fn charge_warp_stream(&mut self, segments: u64) {
        self.cost.transactions += 2 * segments;
    }

    /// Charge the transactions for one access slot of one warp: the
    /// number of distinct 128-byte segments among the lanes' addresses.
    pub(crate) fn charge_warp_access(&mut self, addrs: impl Iterator<Item = usize>) {
        self.seen.clear();
        for a in addrs {
            let seg = a / self.cfg.line_words;
            if !self.seen.contains(&seg) {
                self.seen.push(seg);
            }
        }
        self.cost.transactions += self.seen.len() as u64;
    }

    /// Execute one kernel of `threads` lanes where lane `t` performs the
    /// swap `pair_of(t)` (or nothing) and `compute` ALU ops. Swap
    /// addresses are coalesced per warp and per access slot (all lanes'
    /// first addresses together, then all second addresses).
    pub(crate) fn swap_kernel<F>(&mut self, threads: usize, compute: f64, pair_of: F)
    where
        F: Fn(usize) -> Option<(usize, usize)>,
    {
        self.charge_launch();
        self.charge_compute(compute * threads as f64);
        let warp = self.cfg.warp;
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(warp);
        let mut base = 0;
        while base < threads {
            let hi = (base + warp).min(threads);
            pairs.clear();
            pairs.extend((base..hi).filter_map(&pair_of));
            self.charge_warp_access(pairs.iter().map(|p| p.0));
            self.charge_warp_access(pairs.iter().map(|p| p.1));
            for &(i, j) in &pairs {
                self.data.swap(i, j);
            }
            base = hi;
        }
    }

    /// Execute one kernel that rotates `[lo, hi)` right by `amount`
    /// (three coalesced reversal passes).
    pub(crate) fn rotate_kernel(&mut self, lo: usize, hi: usize, amount: usize) {
        let len = hi - lo;
        if len == 0 {
            return;
        }
        let amount = amount % len;
        if amount == 0 {
            return;
        }
        self.charge_launch();
        let lw = self.cfg.line_words as u64;
        // Three reversals, each streaming the region once (read+write).
        self.cost.transactions += 3 * 2 * (len as u64).div_ceil(lw);
        self.data[lo..hi].rotate_right(amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_vs_scattered_transactions() {
        let cfg = GpuConfig::default();
        let mut gpu = Gpu::from_sorted(1 << 12, cfg);
        // Coalesced: lanes i and i+2048 -> 2+2 segments per warp of 32.
        gpu.swap_kernel(1024, 0.0, |t| Some((t, t + 2048)));
        let coalesced = gpu.cost().transactions;
        let mut gpu = Gpu::from_sorted(1 << 12, cfg);
        // Scattered: pseudo-random partner for each lane.
        gpu.swap_kernel(1024, 0.0, |t| {
            let j = 2048 + (t * 2654435761) % 2048;
            Some((t, j))
        });
        let scattered = gpu.cost().transactions;
        assert!(
            scattered > 4 * coalesced,
            "scattered={scattered} coalesced={coalesced}"
        );
    }

    #[test]
    fn rotate_kernel_is_correct() {
        let mut gpu = Gpu::from_sorted(100, GpuConfig::default());
        gpu.rotate_kernel(10, 90, 7);
        let mut expect: Vec<u64> = (10..90).collect();
        expect.rotate_right(7);
        assert_eq!(&gpu.data[10..90], &expect[..]);
    }

    #[test]
    fn time_combines_components() {
        let cfg = GpuConfig::default();
        let mut gpu = Gpu::from_sorted(64, cfg);
        gpu.charge_launch();
        gpu.charge_compute(100.0);
        let t = gpu.time();
        assert!((t - (cfg.launch_overhead + 100.0 * cfg.compute_cost)).abs() < 1e-9);
    }
}
