//! GPU query cost simulation (Figure 6.9).
//!
//! The paper assigns one thread per query and lets threads run
//! independently; memory throughput is the bottleneck. We simulate warps
//! of 32 queries in lockstep over the *real* permuted array: at every
//! descent step the active lanes' addresses are coalesced into 128-byte
//! segments and charged as transactions. A sample of queries is
//! simulated and the per-query cost extrapolated.
//!
//! The descent arithmetic itself is **not** re-implemented here: each
//! lane steps an `ist_query::nav::Navigator` — the same single source
//! of truth the CPU's scalar and pipelined engines run — and this
//! module only generates addresses from the navigator's node window and
//! prices them (mirroring how the construction-side `Gpu` machine
//! backend shares `ist_core::algorithms`). The kernel is named by the
//! CPU's own [`QueryKind`]: `Sorted` is the binary-search baseline, and
//! `Bst` and `BstPrefetch` drive the same BST lane. A lane steps the
//! CPU's search, the `UPPER = false` rank descent. As in the paper, a layout
//! lane (BST, B-tree, vEB) retires as soon as the node it just read
//! holds its key; otherwise it retires when it falls off the perfect
//! part (the lower-bound resolution is omitted: one extra access at
//! most). The binary-search baseline drains its full descent.
//! `tests/navigator_equivalence.rs` pins lane traces, which follow the
//! full rank path with no early exit, against the scalar and pipelined
//! CPU engines via [`lane_node_trace`].

use crate::{Gpu, GpuCost};
use ist_query::nav::{BstNav, BtreeNav, Navigator, SortedNav, VebNav};
use ist_query::QueryKind;

/// Per-lane search state: the next address(es) to read, or done.
trait LaneSearch {
    /// Addresses this lane reads this step (empty = lane retired).
    fn addrs(&self, out: &mut Vec<usize>);
    /// Advance one descent step after reading.
    fn step(&mut self);
    fn done(&self) -> bool;
}

/// One warp lane driving a navigator's search descent — the rank
/// descent, run until it falls off (the lower-bound resolution is
/// omitted) or, with `hits` set, until the node it read holds the key.
struct Lane<'a, N: Navigator<u64>> {
    nav: N,
    key: u64,
    cur: N::Cursor,
    acc: N::Acc,
    ctx: N::Round,
    round: u32,
    done: bool,
    /// The array whose node windows are checked for the key on each
    /// step; `None` runs the full descent.
    hits: Option<&'a [u64]>,
}

impl<'a, N: Navigator<u64>> Lane<'a, N> {
    fn new(nav: N, key: u64, hits: Option<&'a [u64]>) -> Self {
        let (cur, acc) = nav.start();
        let done = nav.rounds() == 0 || !nav.is_live(&cur, &acc);
        Self {
            ctx: nav.first_round(),
            cur,
            acc,
            nav,
            key,
            round: 0,
            done,
            hits,
        }
    }
}

impl<N: Navigator<u64>> LaneSearch for Lane<'_, N> {
    fn addrs(&self, out: &mut Vec<usize>) {
        if self.done {
            return;
        }
        // The node's key window: contribute every 16th word (distinct
        // 128-byte segments within a multi-key node; single-key nodes
        // contribute their one address).
        let base = self.nav.node_base(&self.cur, &self.acc);
        let mut a = base;
        while a < base + self.nav.node_width() {
            out.push(a);
            a += 16;
        }
    }

    fn step(&mut self) {
        if self.done {
            return;
        }
        if let Some(data) = self.hits {
            let base = self.nav.node_base(&self.cur, &self.acc);
            if data[base..base + self.nav.node_width()].contains(&self.key) {
                self.done = true;
                return;
            }
        }
        let last = self.round + 1 >= self.nav.rounds();
        if last {
            self.nav
                .step_rank_last::<false>(&mut self.cur, &mut self.acc, &self.key);
        } else {
            self.nav
                .step_rank::<false>(&mut self.cur, &mut self.acc, &self.key, self.ctx);
            self.ctx = self.nav.next_round(self.ctx);
        }
        self.round += 1;
        self.done = last || !self.nav.is_live(&self.cur, &self.acc);
    }

    fn done(&self) -> bool {
        self.done
    }
}

/// A lane for `key`; with `retire_on_hit`, a layout lane stops at the
/// first node holding the key (binary search never does). Both BST
/// kinds run one lane: a prefetch is not a read, so it leaves the node
/// sequence as it is.
fn make_lane<'a>(
    kind: QueryKind,
    key: u64,
    data: &'a [u64],
    retire_on_hit: bool,
) -> Box<dyn LaneSearch + 'a> {
    let hits = retire_on_hit.then_some(data);
    match kind {
        QueryKind::Sorted => Box::new(Lane::new(SortedNav::new(data), key, None)),
        QueryKind::Bst | QueryKind::BstPrefetch => {
            Box::new(Lane::new(BstNav::new(data), key, hits))
        }
        QueryKind::Btree(b) => Box::new(Lane::new(BtreeNav::new(data, b), key, hits)),
        QueryKind::Veb => Box::new(Lane::new(VebNav::new(data), key, hits)),
    }
}

/// Simulate `sample_keys` queries warp-by-warp over the device array and
/// return the **average model cost per query** (transactions + compute;
/// the per-kernel launch cost amortizes over millions of queries and is
/// charged once per batch by the caller).
pub fn per_query_cost(gpu: &Gpu, kind: QueryKind, sample_keys: &[u64]) -> f64 {
    assert!(!sample_keys.is_empty());
    let data = &gpu.data;
    let cfg = *gpu.config();
    let mut cost = GpuCost::default();
    let mut addrs: Vec<usize> = Vec::with_capacity(cfg.warp * 4);
    let mut seen: Vec<usize> = Vec::with_capacity(cfg.warp * 4);
    for warp_keys in sample_keys.chunks(cfg.warp) {
        let mut lanes: Vec<Box<dyn LaneSearch + '_>> = warp_keys
            .iter()
            .map(|&key| make_lane(kind, key, data, true))
            .collect();
        loop {
            addrs.clear();
            for lane in &lanes {
                lane.addrs(&mut addrs);
            }
            if addrs.is_empty() {
                break;
            }
            seen.clear();
            for &a in &addrs {
                let seg = a / cfg.line_words;
                if !seen.contains(&seg) {
                    seen.push(seg);
                }
            }
            cost.transactions += seen.len() as u64;
            cost.compute += lanes.iter().filter(|l| !l.done()).count() as f64 * 4.0;
            for lane in &mut lanes {
                lane.step();
            }
        }
    }
    cost.time(&cfg) / sample_keys.len() as f64
}

/// The node-address sequence one query's lane touches (base address per
/// descent step), produced by the exact lane machinery
/// [`per_query_cost`] prices, run through the full rank path (no
/// retirement on a hit) — the gpu-sim leg of the navigator-equivalence
/// suite.
// LINT-ALLOW(test-only-pub): the gpu-sim leg of `tests/navigator_equivalence.rs`
pub fn lane_node_trace(data: &[u64], kind: QueryKind, key: u64) -> Vec<usize> {
    let mut lane = make_lane(kind, key, data, false);
    let mut trace = Vec::new();
    let mut addrs = Vec::new();
    while !lane.done() {
        addrs.clear();
        lane.addrs(&mut addrs);
        if let Some(&base) = addrs.first() {
            trace.push(base);
        }
        lane.step();
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuConfig;
    use ist_core::{permute_in_place_seq, Algorithm, Layout};

    fn keys(n: usize, count: usize) -> Vec<u64> {
        // Deterministic pseudo-random keys in range.
        let mut x = 0x9e3779b97f4a7c15u64;
        (0..count)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n as u64
            })
            .collect()
    }

    /// `figures`' query sample: `count` keys uniform in `0..2n` over the
    /// keys `0..n`, so about half of them miss.
    fn uniform_sample(n: usize, count: usize, seed: u64) -> Vec<u64> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| rng.gen_range(0..2 * n as u64)).collect()
    }

    #[test]
    fn btree_queries_cost_less_than_binary_search() {
        // Figure 6.9's driver: the B-tree layout touches ~log_B N lines
        // per query; binary search ~log2 N.
        let n = (1 << 20) - 1;
        let b = 31usize; // (b+1)^4 = 2^20
        let q = keys(n, 4096);

        let sorted = Gpu::from_sorted(n, GpuConfig::default());
        let c_bin = per_query_cost(&sorted, QueryKind::Sorted, &q);

        let mut data: Vec<u64> = (0..n as u64).collect();
        permute_in_place_seq(&mut data, Layout::Btree { b }, Algorithm::CycleLeader).unwrap();
        let gpu = Gpu::new(data, GpuConfig::default());
        let c_btree = per_query_cost(&gpu, QueryKind::Btree(b), &q);

        assert!(
            c_btree * 2.0 < c_bin,
            "btree={c_btree:.2} binary={c_bin:.2}"
        );
    }

    #[test]
    fn bst_layout_beats_sorted_binary_search() {
        // The BST layout shares top levels across queries -> the hot top
        // of the tree coalesces within a warp.
        let n = (1 << 18) - 1;
        let q = keys(n, 4096);
        let sorted = Gpu::from_sorted(n, GpuConfig::default());
        let c_bin = per_query_cost(&sorted, QueryKind::Sorted, &q);
        let mut data: Vec<u64> = (0..n as u64).collect();
        permute_in_place_seq(&mut data, Layout::Bst, Algorithm::Involution).unwrap();
        let gpu = Gpu::new(data, GpuConfig::default());
        let c_bst = per_query_cost(&gpu, QueryKind::Bst, &q);
        assert!(c_bst < c_bin, "bst={c_bst:.2} binary={c_bin:.2}");
    }

    #[test]
    fn all_kinds_terminate_and_are_positive() {
        let n = 1000usize;
        let q = keys(n, 256);
        for (kind, layout) in [
            (QueryKind::Sorted, None),
            (QueryKind::Bst, Some(Layout::Bst)),
            (QueryKind::Btree(8), Some(Layout::Btree { b: 8 })),
            (QueryKind::Veb, Some(Layout::Veb)),
        ] {
            let mut data: Vec<u64> = (0..n as u64).collect();
            if let Some(l) = layout {
                permute_in_place_seq(&mut data, l, Algorithm::CycleLeader).unwrap();
            }
            let gpu = Gpu::new(data, GpuConfig::default());
            let c = per_query_cost(&gpu, kind, &q);
            assert!(c > 0.0, "{kind:?}");
        }
    }

    /// Figure 6.9's per-query model costs at n = 2^20 − 1 (B-tree b = 31),
    /// with the layout lanes retiring on a hit as the paper's do: the
    /// figure's own sample and layouts, pinned to three decimals.
    #[test]
    fn figure_6_9_per_query_costs() {
        use crate::kernels::{permute, GpuAlgorithm};

        let n = (1usize << 20) - 1;
        let sample = uniform_sample(n, 4096, 7);
        let cost = |algo: Option<GpuAlgorithm>, kind| {
            let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
            if let Some(algo) = algo {
                permute(&mut gpu, algo);
            }
            per_query_cost(&gpu, kind, &sample)
        };
        let b = 31;
        let got = [
            cost(Some(GpuAlgorithm::InvolutionBst), QueryKind::Bst),
            cost(
                Some(GpuAlgorithm::CycleLeaderBtree { b }),
                QueryKind::Btree(b),
            ),
            cost(Some(GpuAlgorithm::CycleLeaderVeb), QueryKind::Veb),
            cost(None, QueryKind::Sorted),
        ]
        .map(|c| format!("{c:.3}"));
        assert_eq!(got, ["7.630", "3.308", "8.801", "10.158"]);
    }

    /// A hit does not retire a lane: a search lane for the key stored
    /// at the root runs the full-depth rank path, one node per level.
    #[test]
    fn root_key_search_lane_traces_full_rank_path() {
        let n = 255usize;
        let mut data: Vec<u64> = (0..n as u64).collect();
        permute_in_place_seq(&mut data, Layout::Bst, Algorithm::CycleLeader).unwrap();
        // The root of the BST layout sits at index 0 and holds the median.
        let root_key = data[0];
        let trace = lane_node_trace(&data, QueryKind::Bst, root_key);
        // Ties descend left: the root, then its left child, then the
        // rightmost path of that subtree down to the leaf level.
        let mut want = vec![0usize, 1];
        while want.len() < 8 {
            want.push(2 * want.last().unwrap() + 2);
        }
        assert_eq!(trace, want);
        let cpu = ist_query::Searcher::new(&data, QueryKind::Bst);
        assert_eq!(trace, cpu.trace_rank(&root_key));
    }
}
