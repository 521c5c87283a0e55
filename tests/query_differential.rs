//! Differential query sweep: every `Searcher` operation — point, batch,
//! and range — checked against the sorted-array oracle, for all five
//! `QueryKind`s, over adversarial tree shapes and key multisets
//! (duplicates included).
//!
//! Two layers of checking:
//!
//! 1. **Oracle**: results must match what a plain sorted `Vec` answers
//!    (`partition_point` for ranks, membership for search, rank
//!    differences for range counts).
//! 2. **Batch identity**: every `batch_*` entry point (pipelined
//!    within parallel chunks; single-thread pipelined under the
//!    forced-serial CI job) must be **bit-identical** to a scalar loop
//!    of the point operation — same `Option<usize>` positions, not
//!    just the same keys found.
//!
//! Sizes cover the adversarial shapes: 0, 1, perfect binary trees
//! `2^d − 1` and their neighbors, and B-tree node boundaries
//! `((b+1)^m − 1) ± {0, 1, b}` for every exercised `b`.

use implicit_search_trees::{permute_in_place, Algorithm, Layout, QueryKind, Searcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Includes both compiled wide-kernel widths (8, 16): `Searcher::new`
/// on `u64` keys routes those through `WideBtreeNav`, so every sweep
/// below exercises the SIMD kernels against the oracle.
const BTREE_BS: [usize; 5] = [1, 2, 3, 8, 16];

fn kinds() -> Vec<(QueryKind, Option<Layout>)> {
    let mut v = vec![
        (QueryKind::Sorted, None),
        (QueryKind::Bst, Some(Layout::Bst)),
        (QueryKind::BstPrefetch, Some(Layout::Bst)),
        (QueryKind::Veb, Some(Layout::Veb)),
    ];
    for b in BTREE_BS {
        v.push((QueryKind::Btree(b), Some(Layout::Btree { b })));
    }
    v
}

/// 0, 1, perfect binary sizes ± 1, and B-tree node boundaries ± {1, b}
/// for the exercised branching factors.
fn adversarial_sizes() -> Vec<usize> {
    let mut sizes = vec![0usize, 1, 2, 3];
    for d in [2u32, 3, 6, 7, 10] {
        let perfect = (1usize << d) - 1;
        sizes.extend([perfect - 1, perfect, perfect + 1]);
    }
    for b in BTREE_BS {
        let k = b + 1;
        for m in 1..=3u32 {
            let perfect = k.pow(m) - 1;
            if perfect > 2500 {
                break;
            }
            sizes.extend([
                perfect.saturating_sub(1),
                perfect,
                perfect + 1,
                perfect + b,
                perfect + b + 1,
            ]);
        }
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes.retain(|&n| n <= 3000);
    sizes
}

/// Key multisets for a given size: distinct strided keys, heavy
/// duplication, all-equal, and seeded-PRNG draws from a small universe
/// (guaranteeing collisions).
fn key_sets(n: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let mut sets = Vec::new();
    sets.push((0..n as u64).map(|x| 3 * x + 5).collect());
    sets.push((0..n as u64).map(|x| x / 3).collect()); // runs of 3
    sets.push(vec![42u64; n]); // all equal
    if n > 0 {
        let universe = (n as u64 / 2).max(1);
        let mut random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..universe * 3)).collect();
        random.sort_unstable();
        sets.push(random);
    }
    sets
}

/// Probes covering every stored key, its neighbors, the extremes, and
/// seeded random values.
fn probes(sorted: &[u64], rng: &mut StdRng) -> Vec<u64> {
    let mut probes = vec![0u64, 1, u64::MAX / 2];
    for &k in sorted.iter().take(200) {
        probes.extend([k.saturating_sub(1), k, k + 1]);
    }
    if let (Some(&lo), Some(&hi)) = (sorted.first(), sorted.last()) {
        probes.extend([lo.saturating_sub(2), hi + 2]);
        for _ in 0..100 {
            probes.push(rng.gen_range(lo.saturating_sub(3)..hi + 4));
        }
    }
    probes
}

/// Check every operation of one (kind, key multiset) combination
/// against the oracle and between the scalar and batch engines.
fn check_all_ops(sorted: &[u64], kind: QueryKind, layout: Option<Layout>, rng: &mut StdRng) {
    let mut data = sorted.to_vec();
    if let Some(l) = layout {
        if !data.is_empty() {
            permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
        }
    }
    let s = Searcher::new(&data, kind);
    let n = sorted.len();
    let probes = probes(sorted, rng);
    let tag = |p: u64| format!("n={n} {kind:?} probe={p}");

    // --- point ops vs oracle ---
    for &p in &probes {
        let oracle_rank = sorted.partition_point(|x| *x < p);
        let oracle_has = sorted.binary_search(&p).is_ok();

        let hit = s.search(&p);
        assert_eq!(hit.is_some(), oracle_has, "search {}", tag(p));
        if let Some(pos) = hit {
            assert_eq!(data[pos], p, "search position {}", tag(p));
        }
        assert_eq!(s.contains(&p), oracle_has, "contains {}", tag(p));

        // rank = count strictly smaller (duplicates not self-counting).
        assert_eq!(s.rank(&p), oracle_rank, "rank {}", tag(p));

        // The upper landing's rank = count <= probe, so the gap is the multiplicity.
        let oracle_upper = sorted.partition_point(|x| *x <= p);
        assert_eq!(
            s.land::<true>(&p).rank,
            oracle_upper,
            "upper rank {}",
            tag(p)
        );

        // lower_bound = slot of the sorted-order-first key >= probe.
        let lb = s.lower_bound(&p);
        assert_eq!(
            lb.map(|pos| data[pos]),
            sorted.get(oracle_rank).copied(),
            "lower_bound value {}",
            tag(p)
        );

        // successor/predecessor skip duplicates of the probe entirely.
        assert_eq!(
            s.successor(&p).map(|pos| data[pos]),
            sorted.get(oracle_upper).copied(),
            "successor {}",
            tag(p)
        );
        assert_eq!(
            s.predecessor(&p).map(|pos| data[pos]),
            oracle_rank.checked_sub(1).map(|r| sorted[r]),
            "predecessor {}",
            tag(p)
        );
    }

    // --- batch calls: bit-identity with the scalar loop ---
    assert_eq!(
        s.batch_search(&probes),
        probes.iter().map(|p| s.search(p)).collect::<Vec<_>>(),
        "batch_search n={n} {kind:?}"
    );
    assert_eq!(
        s.batch_rank(&probes),
        probes.iter().map(|p| s.rank(p)).collect::<Vec<_>>(),
        "batch_rank n={n} {kind:?}"
    );
    assert_eq!(
        s.batch_count(&probes),
        probes.iter().filter(|p| s.contains(p)).count(),
        "batch_count n={n} {kind:?}"
    );

    // --- range ops: oracle + batch identity (inverted ranges included) ---
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for w in probes.windows(2) {
        ranges.push((w[0], w[1]));
    }
    for &p in probes.iter().take(40) {
        ranges.push((p, p)); // empty
        ranges.push((p + 3, p)); // inverted
    }
    for &(lo, hi) in &ranges {
        let expect = sorted
            .partition_point(|x| *x < hi)
            .saturating_sub(sorted.partition_point(|x| *x < lo));
        assert_eq!(
            s.range_count(&lo, &hi),
            expect,
            "range_count [{lo},{hi}) n={n} {kind:?}"
        );
    }
    assert_eq!(
        s.batch_range_count(&ranges),
        ranges
            .iter()
            .map(|(lo, hi)| s.range_count(lo, hi))
            .collect::<Vec<_>>(),
        "batch_range_count n={n} {kind:?}"
    );
}

#[test]
fn differential_sweep_small_sizes() {
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    for n in adversarial_sizes() {
        if n > 130 {
            continue;
        }
        for keys in key_sets(n, &mut rng) {
            for (kind, layout) in kinds() {
                check_all_ops(&keys, kind, layout, &mut rng);
            }
        }
    }
}

#[test]
fn differential_sweep_large_sizes() {
    let mut rng = StdRng::seed_from_u64(0xd1ff + 1);
    for n in adversarial_sizes() {
        if n <= 130 {
            continue;
        }
        for keys in key_sets(n, &mut rng) {
            for (kind, layout) in kinds() {
                check_all_ops(&keys, kind, layout, &mut rng);
            }
        }
    }
}

/// Randomized sizes (not just the adversarial grid), PRNG key multisets
/// with heavy duplication, all kinds.
#[test]
fn differential_random_sizes() {
    let mut rng = StdRng::seed_from_u64(0x5eed5);
    for _case in 0..12 {
        let n = rng.gen_range(1usize..2000);
        for keys in key_sets(n, &mut rng) {
            for (kind, layout) in kinds() {
                check_all_ops(&keys, kind, layout, &mut rng);
            }
        }
    }
}

/// Batches that straddle the pipeline window and the parallel chunking
/// grain must stay bit-identical to scalar (off-by-one window drain
/// bugs live here).
#[test]
fn differential_batch_length_boundaries() {
    let mut rng = StdRng::seed_from_u64(0xba7c4);
    let n = 1023usize; // perfect
    let sorted: Vec<u64> = (0..n as u64).map(|x| 2 * x).collect();
    for (kind, layout) in kinds() {
        let mut data = sorted.clone();
        if let Some(l) = layout {
            permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
        }
        let s = Searcher::new(&data, kind);
        for batch_len in [
            0usize, 1, 2, 15, 16, 17, 31, 32, 33, 63, 65, 127, 128, 129, 1000,
        ] {
            let keys: Vec<u64> = (0..batch_len)
                .map(|_| rng.gen_range(0..2 * n as u64 + 2))
                .collect();
            assert_eq!(
                s.batch_search(&keys),
                keys.iter().map(|k| s.search(k)).collect::<Vec<_>>(),
                "{kind:?} batch_len={batch_len}"
            );
            assert_eq!(
                s.batch_rank(&keys),
                keys.iter().map(|k| s.rank(k)).collect::<Vec<_>>(),
                "{kind:?} batch_len={batch_len}"
            );
            assert_eq!(
                s.batch_count(&keys),
                keys.iter().filter(|k| s.contains(k)).count(),
                "{kind:?} batch_len={batch_len}"
            );
        }
    }
}

/// Reversed-bound contract: `range_count(lo, hi)` with `lo > hi`
/// describes an empty interval and yields 0 on every facade, every
/// layout, scalar and batched — never a panic (debug profile included, where
/// an unchecked `rank(hi) - rank(lo)` would overflow-panic instead).
#[test]
fn reversed_range_bounds_yield_zero() {
    use implicit_search_trees::StaticMap;
    let n = 500usize;
    let sorted: Vec<u64> = (0..n as u64).map(|x| 2 * x + 1).collect();
    // Extremes, interior points, off-by-one around stored keys.
    let bounds: Vec<(u64, u64)> = vec![
        (u64::MAX, 0),
        (u64::MAX, u64::MAX - 1),
        (1, 0),
        (2, 1),
        (500, 499),
        (999, 3),
        (1000, 999),
        (42, 42), // empty, not reversed
    ];
    for (kind, layout) in kinds() {
        let mut data = sorted.clone();
        if let Some(l) = layout {
            permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
        }
        let s = Searcher::new(&data, kind);
        for &(lo, hi) in &bounds {
            assert_eq!(s.range_count(&lo, &hi), 0, "{kind:?} [{lo},{hi})");
        }
        assert_eq!(
            s.batch_range_count(&bounds),
            vec![0; bounds.len()],
            "{kind:?}"
        );
        // The owning facade shares the contract, key-only and with
        // payloads.
        let index = StaticMap::build_for_kind(sorted.clone(), vec![(); n], kind).unwrap();
        let map = StaticMap::build_for_kind(sorted.clone(), sorted.clone(), kind).unwrap();
        for &(lo, hi) in &bounds {
            assert_eq!(index.range_count(&lo, &hi), 0, "{kind:?} [{lo},{hi})");
            assert_eq!(map.range_count(&lo, &hi), 0, "{kind:?} [{lo},{hi})");
        }
        assert_eq!(index.batch_range_count(&bounds), vec![0; bounds.len()]);
        assert_eq!(map.batch_range_count(&bounds), vec![0; bounds.len()]);
    }
}

/// The const-width wide kernel must be **bit-identical** to the runtime
/// `BtreeNav` at the same `b` — same `Option<usize>` positions out of
/// every scalar and batch op, across non-perfect sizes, heavy duplication, and
/// batch boundaries. `Searcher::new` is the wide route (pinned by
/// `is_wide`), `Searcher::new_runtime` forces the general path over the
/// very same layout buffer.
#[test]
fn wide_kernel_bit_identical_to_runtime() {
    let mut rng = StdRng::seed_from_u64(0x51de);
    for b in [8usize, 16] {
        let kind = QueryKind::Btree(b);
        let layout = Layout::Btree { b };
        // Perfect node counts ± 1, sizes straddling the overflow node,
        // and arbitrary non-perfect sizes.
        let perfect = (b + 1) * (b + 1) - 1;
        for n in [
            1,
            b - 1,
            b,
            b + 1,
            perfect - 1,
            perfect,
            perfect + 1,
            perfect + b,
            1000,
            2047,
        ] {
            for sorted in key_sets(n, &mut rng) {
                let mut data = sorted.clone();
                permute_in_place(&mut data, layout, Algorithm::CycleLeader).unwrap();
                let wide = Searcher::new(&data, kind);
                let runtime = Searcher::new_runtime(&data, kind);
                assert!(wide.is_wide(), "b={b}: u64 keys must take the wide kernel");
                assert!(!runtime.is_wide(), "new_runtime must stay general");
                let probes = probes(&sorted, &mut rng);
                for p in &probes {
                    let t = format!("b={b} n={n} probe={p}");
                    assert_eq!(wide.search(p), runtime.search(p), "search {t}");
                    assert_eq!(wide.rank(p), runtime.rank(p), "rank {t}");
                    assert_eq!(
                        wide.land::<true>(p).rank,
                        runtime.land::<true>(p).rank,
                        "upper rank {t}"
                    );
                    assert_eq!(
                        wide.lower_bound(p),
                        runtime.lower_bound(p),
                        "lower_bound {t}"
                    );
                    assert_eq!(wide.successor(p), runtime.successor(p), "successor {t}");
                    assert_eq!(
                        wide.predecessor(p),
                        runtime.predecessor(p),
                        "predecessor {t}"
                    );
                }
                // Batch calls, including lengths around the pipeline
                // window drain.
                for len in [1usize, 15, 16, 17, 63, 65, probes.len()] {
                    let chunk = &probes[..len.min(probes.len())];
                    let t = format!("b={b} n={n} len={len}");
                    assert_eq!(
                        wide.batch_search(chunk),
                        runtime.batch_search(chunk),
                        "batch_search {t}"
                    );
                    assert_eq!(
                        wide.batch_rank(chunk),
                        runtime.batch_rank(chunk),
                        "batch_rank {t}"
                    );
                }
                let ranges: Vec<(u64, u64)> = probes.windows(2).map(|w| (w[0], w[1])).collect();
                assert_eq!(
                    wide.batch_range_count(&ranges),
                    runtime.batch_range_count(&ranges),
                    "batch_range_count b={b} n={n}"
                );
            }
        }
    }
    // Non-SimdKey key types never take the wide route, even at a
    // compiled width.
    let data: Vec<(u64, u64)> = (0..100).map(|x| (x, x)).collect();
    let mut tree = data.clone();
    permute_in_place(&mut tree, Layout::Btree { b: 8 }, Algorithm::CycleLeader).unwrap();
    assert!(!Searcher::new(&tree, QueryKind::Btree(8)).is_wide());
    // Non-compiled widths stay runtime for SIMD keys too.
    let mut seven: Vec<u64> = (0..100).collect();
    permute_in_place(&mut seven, Layout::Btree { b: 7 }, Algorithm::CycleLeader).unwrap();
    assert!(!Searcher::new(&seven, QueryKind::Btree(7)).is_wide());
}

/// Duplicate-key contract, spelled out on a hand-checkable multiset.
#[test]
fn duplicate_key_contract() {
    // sorted: [3, 3, 3, 7, 7, 9]
    let sorted = vec![3u64, 3, 3, 7, 7, 9];
    for (kind, layout) in kinds() {
        let mut data = sorted.clone();
        if let Some(l) = layout {
            permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
        }
        let s = Searcher::new(&data, kind);
        // rank = strictly smaller.
        assert_eq!(s.rank(&3), 0, "{kind:?}");
        assert_eq!(s.rank(&4), 3, "{kind:?}");
        assert_eq!(s.rank(&7), 3, "{kind:?}");
        assert_eq!(s.rank(&8), 5, "{kind:?}");
        assert_eq!(s.rank(&10), 6, "{kind:?}");
        // search returns *some* matching slot.
        for k in [3u64, 7, 9] {
            let pos = s.search(&k).unwrap();
            assert_eq!(data[pos], k, "{kind:?}");
        }
        assert!(!s.contains(&5), "{kind:?}");
        // lower_bound lands on a slot holding the first key >= probe.
        assert_eq!(s.lower_bound(&0).map(|p| data[p]), Some(3), "{kind:?}");
        assert_eq!(s.lower_bound(&7).map(|p| data[p]), Some(7), "{kind:?}");
        assert_eq!(s.lower_bound(&8).map(|p| data[p]), Some(9), "{kind:?}");
        assert_eq!(s.lower_bound(&10), None, "{kind:?}");
        // range_count counts with multiplicity.
        assert_eq!(s.range_count(&3, &8), 5, "{kind:?}");
        assert_eq!(s.range_count(&3, &4), 3, "{kind:?}");
        assert_eq!(s.range_count(&4, &7), 0, "{kind:?}");
    }
}

/// A search is the rank descent's lower bound, verified: on every
/// layout, scalar and batched, `search(k)` is the slot of the leftmost
/// copy of `k` in sorted order — exactly `lower_bound(k)` when that
/// slot holds `k` — over the duplicate-heavy multisets of [`key_sets`].
/// The slot is checked against the closed-form position map of the
/// key's rank, which names one copy, not just an equal key.
#[test]
fn search_is_the_lower_bound_slot_when_present() {
    let mut rng = StdRng::seed_from_u64(0x10b5);
    for n in adversarial_sizes() {
        for sorted in key_sets(n, &mut rng) {
            for (kind, layout) in kinds() {
                let mut data = sorted.clone();
                if let Some(l) = layout {
                    if !data.is_empty() {
                        permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
                    }
                }
                let s = Searcher::new(&data, kind);
                let probes = probes(&sorted, &mut rng);
                let want: Vec<Option<usize>> = probes
                    .iter()
                    .map(|&p| {
                        let slot = s.position_of_rank(s.rank(&p));
                        assert_eq!(
                            s.lower_bound(&p),
                            slot,
                            "lower_bound n={n} {kind:?} probe={p}"
                        );
                        slot.filter(|&pos| data[pos] == p)
                    })
                    .collect();
                for (p, w) in probes.iter().zip(&want) {
                    assert_eq!(s.search(p), *w, "search n={n} {kind:?} probe={p}");
                }
                assert_eq!(s.batch_search(&probes), want, "batch_search n={n} {kind:?}");
            }
        }
    }
}
