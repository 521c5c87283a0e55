//! # ist-pem-sim
//!
//! A **Parallel External Memory (PEM)** cost simulator, used to validate
//! the I/O-complexity bounds of Table 1.1 empirically.
//!
//! The PEM model (Arge et al.): `P` processors, each with a private
//! internal memory of `M` words, share an external memory; data moves in
//! blocks of `B` words; the parallel I/O complexity `Q(N, P)` is the
//! maximum number of block transfers performed by any one processor.
//!
//! The paper *analyzes* its algorithms in this model; the authors'
//! machines obviously cannot report PEM I/Os, and neither can ours — so
//! this crate is the substrate substitution: a fully-associative LRU
//! cache per (virtual) processor behind a [`TrackedArray`] that
//! implements the `ist-machine` `Machine` trait. The kernels in
//! [`kernels`] drive the **same** generic construction algorithms as the
//! production path (`ist_core::algorithms`) on this backend — not a
//! hand-maintained replica — so the traces measure the real algorithms
//! by construction, and the permuted output is bit-identical.
//!
//! ```
//! use ist_pem_sim::{kernels, PemConfig, TrackedArray};
//!
//! let cfg = PemConfig { m: 256, b: 16, p: 1 };
//! let mut arr = TrackedArray::from_sorted((1 << 12) - 1, cfg); // perfect tree size
//! kernels::cycle_leader_veb(&mut arr);
//! let io_cl = arr.stats().max_per_proc();
//!
//! let mut arr = TrackedArray::from_sorted((1 << 12) - 1, cfg);
//! kernels::involution_veb(&mut arr);
//! let io_inv = arr.stats().max_per_proc();
//! // The cycle-leader algorithm is the I/O-efficient one (§4).
//! assert!(io_cl < io_inv);
//! ```

#![forbid(unsafe_code)]

pub mod kernels;
mod lru;
mod machine;

pub use lru::LruCache;

/// PEM machine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PemConfig {
    /// Internal memory per processor, in words.
    pub m: usize,
    /// Block (cache line) size, in words.
    pub b: usize,
    /// Number of processors.
    pub p: usize,
}

impl PemConfig {
    /// Blocks that fit in one processor's internal memory.
    pub fn blocks(&self) -> usize {
        assert!(self.b >= 1 && self.m >= self.b && self.p >= 1);
        self.m / self.b
    }
}

/// Per-processor I/O counters produced by a tracked run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoStats {
    per_proc: Vec<u64>,
}

impl IoStats {
    /// Parallel I/O complexity `Q`: the maximum over processors.
    pub fn max_per_proc(&self) -> u64 {
        self.per_proc.iter().copied().max().unwrap_or(0)
    }

    /// Total block transfers across all processors.
    pub fn total(&self) -> u64 {
        self.per_proc.iter().sum()
    }

    /// Individual counters.
    pub fn per_proc(&self) -> &[u64] {
        &self.per_proc
    }
}

/// An array of `u64` keys whose accesses are routed through per-processor
/// LRU caches, counting block transfers.
///
/// Instrumented kernels switch the *active processor* with
/// [`TrackedArray::set_proc`] at work-partition boundaries; each access is
/// charged to the active processor's cache.
pub struct TrackedArray {
    data: Vec<u64>,
    caches: Vec<LruCache>,
    ios: Vec<u64>,
    cur: usize,
    b: usize,
    p: usize,
}

impl TrackedArray {
    /// A tracked array holding `0..n` (sorted keys).
    pub fn from_sorted(n: usize, cfg: PemConfig) -> Self {
        Self::new((0..n as u64).collect(), cfg)
    }

    /// Wrap explicit data.
    pub fn new(data: Vec<u64>, cfg: PemConfig) -> Self {
        let blocks = cfg.blocks();
        Self {
            data,
            caches: (0..cfg.p).map(|_| LruCache::new(blocks)).collect(),
            ios: vec![0; cfg.p],
            cur: 0,
            b: cfg.b,
            p: cfg.p,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of virtual processors.
    pub fn procs(&self) -> usize {
        self.p
    }

    /// Switch the active processor (no cost; models the static work
    /// partition of the PRAM/PEM algorithms).
    #[inline]
    pub fn set_proc(&mut self, p: usize) {
        debug_assert!(p < self.p);
        self.cur = p;
    }

    #[inline]
    fn touch(&mut self, index: usize) {
        let block = index / self.b;
        if !self.caches[self.cur].access(block) {
            self.ios[self.cur] += 1;
        }
    }

    /// Read element `i` (charging its block).
    #[inline]
    pub fn read(&mut self, i: usize) -> u64 {
        self.touch(i);
        self.data[i]
    }

    /// Write element `i` (charging its block).
    #[inline]
    pub fn write(&mut self, i: usize, v: u64) {
        self.touch(i);
        self.data[i] = v;
    }

    /// Swap elements `i` and `j` (charging both blocks).
    #[inline]
    pub fn swap(&mut self, i: usize, j: usize) {
        self.touch(i);
        self.touch(j);
        self.data.swap(i, j);
    }

    /// Swap the disjoint ranges `[i, i+len)` and `[j, j+len)` with
    /// streaming accesses.
    pub fn swap_range(&mut self, i: usize, j: usize, len: usize) {
        for off in 0..len {
            self.swap(i + off, j + off);
        }
    }

    /// Rotate `[lo, hi)` right by `amount` via the three-reversal
    /// identity (the blocked, I/O-friendly rotation of §4.2).
    pub fn rotate_right(&mut self, lo: usize, hi: usize, amount: usize) {
        let len = hi - lo;
        if len == 0 {
            return;
        }
        let amount = amount % len;
        if amount == 0 {
            return;
        }
        self.reverse(lo, hi);
        self.reverse(lo, lo + amount);
        self.reverse(lo + amount, hi);
    }

    /// Reverse `[lo, hi)`.
    pub fn reverse(&mut self, lo: usize, hi: usize) {
        let (mut a, mut b) = (lo, hi);
        while a + 1 < b {
            b -= 1;
            self.swap(a, b);
            a += 1;
        }
    }

    /// Snapshot of the data (no I/O charged; test oracle use).
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// The I/O counters accumulated so far.
    pub fn stats(&self) -> IoStats {
        IoStats {
            per_proc: self.ios.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(m: usize, b: usize, p: usize) -> PemConfig {
        PemConfig { m, b, p }
    }

    #[test]
    fn sequential_scan_costs_n_over_b() {
        let n = 4096usize;
        let mut arr = TrackedArray::from_sorted(n, cfg(256, 16, 1));
        for i in 0..n {
            arr.read(i);
        }
        assert_eq!(arr.stats().total(), (n / 16) as u64);
    }

    #[test]
    fn repeated_access_hits_cache() {
        let mut arr = TrackedArray::from_sorted(1024, cfg(256, 16, 1));
        for _ in 0..100 {
            arr.read(5);
        }
        assert_eq!(arr.stats().total(), 1);
    }

    #[test]
    fn thrash_when_working_set_exceeds_m() {
        // Two interleaved streams M apart with a cache of 2 blocks force
        // an eviction storm... capacity 2 blocks, 3 streams -> every
        // access in round-robin order misses.
        let mut arr = TrackedArray::from_sorted(3 * 64, cfg(32, 16, 1));
        for round in 0..10 {
            for s in 0..3 {
                arr.read(s * 64 + round);
            }
        }
        // 3 streams, 2-block cache, LRU: all 30 accesses miss except
        // within-block reuse (each block is touched 10 times in rounds
        // 0..10 but evicted in between; block changes every 16 rounds).
        assert_eq!(arr.stats().total(), 30);
    }

    #[test]
    fn per_proc_accounting() {
        let mut arr = TrackedArray::from_sorted(1024, cfg(64, 16, 4));
        for p in 0..4 {
            arr.set_proc(p);
            for i in 0..256 {
                arr.read(p * 256 + i);
            }
        }
        let stats = arr.stats();
        assert_eq!(stats.per_proc().len(), 4);
        for p in 0..4 {
            assert_eq!(stats.per_proc()[p], 16);
        }
        assert_eq!(stats.max_per_proc(), 16);
    }

    #[test]
    fn rotation_is_correct_and_blocked() {
        let n = 512usize;
        let mut arr = TrackedArray::from_sorted(n, cfg(64, 16, 1));
        arr.rotate_right(0, n, 100);
        let mut expect: Vec<u64> = (0..n as u64).collect();
        expect.rotate_right(100);
        assert_eq!(arr.data(), &expect[..]);
        // Three reversals -> about 3 * 2 * N/(2B) = 3N/B block loads
        // (each reversal streams from both ends).
        let io = arr.stats().total();
        assert!(io <= (3 * n / 16 + 8) as u64, "io = {io}");
    }
}
