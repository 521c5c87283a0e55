//! Navigator equivalence: the scalar engine, the software-pipelined
//! batched engine, and the gpu-sim lane model must visit **bit-identical
//! node sequences** for every (layout, n, key).
//!
//! All three execution paths step the same `ist_query::nav::Navigator`
//! per layout — this suite is what makes that claim checkable instead
//! of aspirational. Contracts pinned here:
//!
//! * **rank descents** never exit early, so scalar and pipelined
//!   address traces are *equal*;
//! * **search descents** are rank descents on every path — the scalar
//!   engine, the pipelined window and the gpu lane all run the
//!   `UPPER = false` steps to the bottom and only then resolve a
//!   lower-bound slot — so one rank trace per path covers searches too,
//!   and the gpu lane trace (the full rank path, no retirement on a
//!   hit) *equals* the scalar trace;
//! * results agree between the scalar and batch engines regardless
//!   (also enforced, more broadly, by `tests/query_differential.rs`).

use implicit_search_trees::gpu_sim::lane_node_trace;
use implicit_search_trees::{permute_in_place, Algorithm, Layout, QueryKind, Searcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (kind, construction layout) pairs; the gpu-sim lane model takes the
/// same kind. The BST prefetch variant shares the BST node sequence by
/// construction (the hint is a prefetch, not a read), so the gpu model
/// runs one BST lane for both.
fn kinds() -> Vec<(QueryKind, Option<Layout>)> {
    vec![
        (QueryKind::Sorted, None),
        (QueryKind::Bst, Some(Layout::Bst)),
        (QueryKind::BstPrefetch, Some(Layout::Bst)),
        (QueryKind::Btree(1), Some(Layout::Btree { b: 1 })),
        (QueryKind::Btree(3), Some(Layout::Btree { b: 3 })),
        (QueryKind::Btree(8), Some(Layout::Btree { b: 8 })),
        (QueryKind::Btree(16), Some(Layout::Btree { b: 16 })),
        (QueryKind::Veb, Some(Layout::Veb)),
    ]
}

/// Perfect sizes, their neighbors, B-tree node boundaries, and tiny
/// degenerate trees.
fn sizes() -> Vec<usize> {
    vec![
        1, 2, 3, 4, 7, 8, 15, 16, 26, 27, 30, 63, 80, 100, 127, 128, 511, 624, 625, 1000,
    ]
}

fn layout_data(n: usize, layout: Option<Layout>) -> Vec<u64> {
    // Keys 3x+2 so that probes hit stored keys, gaps, and out-of-range
    // values on both sides.
    let mut data: Vec<u64> = (0..n as u64).map(|x| 3 * x + 2).collect();
    if let Some(l) = layout {
        permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
    }
    data
}

fn probes(n: usize) -> Vec<u64> {
    (0..=(3 * n as u64 + 4)).collect()
}

/// Scalar == pipelined == gpu lane, for every key of `keys` (one rank
/// trace per path: a search descends exactly its rank path).
fn assert_paths_agree(kind: QueryKind, data: &[u64], keys: &[u64]) {
    let n = data.len();
    let s = Searcher::new(data, kind);
    let piped = s.trace_rank_pipelined(keys);
    for (i, key) in keys.iter().enumerate() {
        let tag = format!("{kind:?} n={n} key={key}");
        let scalar = s.trace_rank(key);
        assert_eq!(
            scalar, piped[i],
            "{tag}: scalar and pipelined traces differ"
        );
        let gpu = lane_node_trace(data, kind, *key);
        assert_eq!(gpu, scalar, "{tag}: gpu lane trace differs");
    }
}

/// Every probe key, every size, every layout.
#[test]
fn all_paths_visit_identical_node_sequences() {
    for (kind, layout) in kinds() {
        for n in sizes() {
            assert_paths_agree(kind, &layout_data(n, layout), &probes(n));
        }
    }
}

/// Sizes with 17 and 20 full levels — six recursion levels of the vEB
/// layout, against at most five in [`sizes`] — one perfect, two with
/// overflow leaves.
const DEEP_SIZES: [usize; 3] = [(1 << 17) - 1, (1 << 17) + 5, (1 << 20) + 3];

/// A few hundred seeded probes over the key range of [`layout_data`]
/// (hits and gaps alike) plus both out-of-range sides.
fn sampled_probes(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let top = 3 * n as u64 + 4;
    let mut keys: Vec<u64> = (0..300).map(|_| rng.gen_range(0..top + 1)).collect();
    keys.extend([0, 1, 2, 3, top - 3, top - 2, top - 1, top]);
    keys
}

#[test]
fn deep_trees_visit_identical_node_sequences() {
    for (kind, layout) in kinds() {
        for n in DEEP_SIZES {
            let keys = sampled_probes(n, n as u64);
            assert_paths_agree(kind, &layout_data(n, layout), &keys);
        }
    }
}

/// Duplicate runs on a deep vEB tree: `rank` counts keys below the
/// probe, the `UPPER` landing's rank keys at or below it, and the pipelined rank
/// engine agrees with the scalar one.
#[test]
fn deep_veb_ranks_with_duplicate_keys() {
    let n = DEEP_SIZES[1];
    let sorted: Vec<u64> = (0..n as u64).map(|x| 3 * (x / 5) + 2).collect();
    let mut data = sorted.clone();
    permute_in_place(&mut data, Layout::Veb, Algorithm::CycleLeader).unwrap();
    let s = Searcher::new(&data, QueryKind::Veb);
    let keys = sampled_probes(n / 5, 7);
    for key in &keys {
        assert_eq!(
            s.rank(key),
            sorted.partition_point(|x| x < key),
            "key={key}"
        );
        assert_eq!(
            s.land::<true>(key).rank,
            sorted.partition_point(|x| x <= key),
            "key={key}"
        );
    }
    assert_eq!(
        s.batch_rank(&keys),
        keys.iter().map(|k| s.rank(k)).collect::<Vec<_>>()
    );
}

/// The const-width wide kernel visits the **same node sequence** as the
/// runtime navigator at the same `b` — not just the same results. The
/// compiled width 8 is on u64 keys, so `Searcher::new` routes through
/// `WideBtreeNav` (pinned by `is_wide`) while `new_runtime` steps the
/// general `BtreeNav` over the identical buffer; the scalar and the
/// pipelined traces must agree exactly, at perfect and non-perfect
/// sizes.
#[test]
fn wide_kernel_traces_equal_runtime_traces() {
    for b in [8usize] {
        let kind = QueryKind::Btree(b);
        let layout = Layout::Btree { b };
        for n in sizes() {
            let data = layout_data(n, Some(layout));
            let wide = Searcher::new(&data, kind);
            let runtime = Searcher::new_runtime(&data, kind);
            assert!(wide.is_wide(), "b={b} n={n}");
            assert!(!runtime.is_wide(), "b={b} n={n}");
            let keys = probes(n);
            assert_eq!(
                wide.trace_rank_pipelined(&keys),
                runtime.trace_rank_pipelined(&keys),
                "b={b} n={n} pipelined rank traces"
            );
            for key in &keys {
                assert_eq!(
                    wide.trace_rank(key),
                    runtime.trace_rank(key),
                    "b={b} n={n} key={key} rank trace"
                );
            }
        }
    }
}

/// The pipelined trace always runs the full round count (a hit does
/// not stop a descent), and scalar and pipelined traces agree — i.e.
/// the engines really share one probe structure.
#[test]
fn pipelined_full_depth_and_misses_share_structure() {
    for (kind, layout) in kinds() {
        let n = 511usize;
        let data = layout_data(n, layout);
        let s = Searcher::new(&data, kind);
        let keys = probes(n);
        let piped = s.trace_rank_pipelined(&keys);
        for (i, key) in keys.iter().enumerate() {
            // No descent exits early, so the scalar trace must be the
            // whole pipelined trace (checked here on misses).
            if !s.contains(key) {
                assert_eq!(
                    s.trace_rank(key),
                    piped[i],
                    "{kind:?} miss key={key} truncated"
                );
            }
        }
        // All pipelined traces of one layout have the same depth: the
        // window is level-synchronous.
        let depth = piped[0].len();
        if !matches!(kind, QueryKind::Sorted) {
            for (i, t) in piped.iter().enumerate() {
                assert_eq!(t.len(), depth, "{kind:?} query {i} depth");
            }
        }
    }
}

/// Where a batch is cut into windows and chunks is an engine detail,
/// not a semantics one: results equal the scalar loop at every batch
/// length around the window (32) and the parallel grain (128) — spot-
/// checked here; the differential suite covers results more broadly.
#[test]
fn window_width_never_changes_results() {
    for (kind, layout) in kinds() {
        for n in [26usize, 100, 625] {
            let data = layout_data(n, layout);
            let s = Searcher::new(&data, kind);
            let keys: Vec<u64> = probes(n).into_iter().cycle().take(1000).collect();
            for len in [0usize, 1, 31, 32, 33, 127, 128, 129, 1000] {
                let keys = &keys[..len];
                assert_eq!(
                    s.batch_search(keys),
                    keys.iter().map(|k| s.search(k)).collect::<Vec<_>>(),
                    "{kind:?} n={n} len={len}"
                );
                assert_eq!(
                    s.batch_rank(keys),
                    keys.iter().map(|k| s.rank(k)).collect::<Vec<_>>(),
                    "{kind:?} n={n} len={len} rank"
                );
            }
        }
    }
}
