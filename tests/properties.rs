//! Property-based tests over the core invariants.
//!
//! Each property is checked over a deterministic stream of randomized
//! inputs (sizes, branching factors, probes) drawn from the workspace's
//! seeded PRNG — the offline stand-in for a proptest harness. On failure
//! the assert message carries the generating parameters, which together
//! with the fixed seeds makes every counterexample reproducible.

use implicit_search_trees::bits::{gcd, mod_inverse, mod_mul, rev_k};
use implicit_search_trees::gather::{equidistant_gather, gather_len, reference_gather};
use implicit_search_trees::layout::complete::BtreeCompleteShape;
use implicit_search_trees::shuffle::j_involution;
use implicit_search_trees::{
    permute_in_place, permute_in_place_seq, reference_permutation, Algorithm, IndexArith, Layout,
    Machine, QueryKind, Ram, Searcher, StaticMap,
};
use ist_core::algorithms::strip_overflow_btree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

/// rev_k is an involution and preserves high digits.
#[test]
fn rev_k_involution() {
    let mut rng = StdRng::seed_from_u64(0xbeef);
    for case in 0..CASES {
        let k = rng.gen_range(2u64..12);
        let b = rng.gen_range(0u64..6) as u32;
        let window = k.pow(b);
        let i = rng.gen_range(0..window * 50);
        let r = rev_k(k, b, i);
        assert_eq!(rev_k(k, b, r), i, "case {case}: k={k} b={b} i={i}");
        assert_eq!(r / window, i / window, "case {case}: k={k} b={b} i={i}");
    }
}

/// Modular inverses invert.
#[test]
fn modular_inverse() {
    let mut rng = StdRng::seed_from_u64(0xcafe);
    for case in 0..CASES {
        let m = rng.gen_range(2u64..1_000_000);
        let a = rng.gen_range(1u64..1_000_000) % m;
        if a == 0 {
            continue;
        }
        match mod_inverse(a, m) {
            Some(inv) => assert_eq!(mod_mul(a, inv, m), 1, "case {case}: a={a} m={m}"),
            None => assert_ne!(gcd(a, m), 1, "case {case}: a={a} m={m}"),
        }
    }
}

/// The k-way shuffle as the constructions run it — Ξ₂, two `J` involution
/// rounds on a `Ram` (`J_1` then `J_k`) — interleaves the decks, and the
/// same rounds in reverse order (the un-shuffle) restore the input, for
/// arbitrary (k, m).
#[test]
fn shuffle_roundtrip_and_semantics() {
    fn j_round(v: &mut [u32], r: usize) {
        let n = v.len();
        let nm1 = (n - 1) as u64;
        Ram::seq(v).involution_round(0, n, IndexArith::Jmap { len: n }, move |s| {
            j_involution(r as u64, nm1, s as u64) as usize
        });
    }
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for case in 0..CASES {
        let k = rng.gen_range(1usize..9);
        let m = rng.gen_range(1usize..200);
        let n = k * m;
        let orig: Vec<u32> = (0..n as u32).collect();
        let mut v = orig.clone();
        j_round(&mut v, 1);
        j_round(&mut v, k);
        for l in 0..k {
            for j in 0..m {
                assert_eq!(
                    v[j * k + l] as usize,
                    l * m + j,
                    "case {case}: k={k} m={m} deck={l} offset={j}"
                );
            }
        }
        j_round(&mut v, k);
        j_round(&mut v, 1);
        assert_eq!(v, orig, "case {case}: k={k} m={m} roundtrip");
    }
}

/// The extended gather behind the complete-B-tree overflow strip is a
/// stable partition: on a sorted array with `q` full overflow runs of
/// `b` keys (each followed by one full-level key) and a partial run of
/// `s`, the full-level keys come out in order ahead of the overflow keys,
/// also in order.
#[test]
fn extended_gather_is_stable_partition() {
    let mut rng = StdRng::seed_from_u64(0xace);
    for case in 0..CASES {
        let b = rng.gen_range(1usize..6);
        let m = rng.gen_range(1usize..6) as u32;
        let k = b + 1;
        let full = k.pow(m) - 1;
        let overflow = rng.gen_range(0..k.pow(m) * b);
        let n = full + overflow;
        let shape = BtreeCompleteShape::new(n, b);
        let (q, s) = (overflow / b, overflow % b);
        assert_eq!(
            (shape.full_overflow_nodes(), shape.partial_node_len()),
            (q, s),
            "case {case}: b={b} m={m} overflow={overflow}"
        );
        let is_overflow = |i: usize| if i < q * k { i % k != b } else { i < q * k + s };
        let mut expect: Vec<usize> = (0..n).filter(|&i| !is_overflow(i)).collect();
        expect.extend((0..n).filter(|&i| is_overflow(i)));
        let mut got: Vec<usize> = (0..n).collect();
        strip_overflow_btree(&mut Ram::with_mode(&mut got, case % 2 == 1), shape);
        assert_eq!(got, expect, "case {case}: b={b} m={m} overflow={overflow}");
    }
}

/// Equidistant gather matches its out-of-place reference for arbitrary
/// r <= l.
#[test]
fn gather_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xd00d);
    for case in 0..CASES {
        let l = rng.gen_range(1usize..40);
        let r = rng.gen_range(0usize..41).min(l);
        let n = gather_len(r, l);
        let orig: Vec<u32> = (0..n as u32).rev().collect();
        let expect = reference_gather(&orig, r, l);
        let mut got = orig;
        equidistant_gather(&mut got, r, l);
        assert_eq!(got, expect, "case {case}: r={r} l={l}");
    }
}

fn random_layout(rng: &mut StdRng, b: usize) -> Layout {
    match rng.gen_range(0usize..3) {
        0 => Layout::Bst,
        1 => Layout::Btree { b },
        _ => Layout::Veb,
    }
}

/// Every construction output is a permutation of the input that matches
/// the closed-form oracle, for arbitrary sizes.
#[test]
fn construction_is_correct_permutation() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..3000);
        let b = rng.gen_range(1usize..10);
        let layout = random_layout(&mut rng, b);
        let algo = Algorithm::ALL[rng.gen_range(0usize..2)];
        let sorted: Vec<u64> = (0..n as u64).collect();
        let mut got = sorted.clone();
        permute_in_place_seq(&mut got, layout, algo).unwrap();
        let expect = reference_permutation(&sorted, layout);
        assert_eq!(got, expect, "case {case}: n={n} {layout:?} {algo:?}");
        // Permutation check: sorting recovers the input.
        let mut back = got;
        back.sort_unstable();
        assert_eq!(back, sorted, "case {case}: n={n} {layout:?} {algo:?}");
    }
}

/// Searches over any permuted layout agree with binary search over the
/// original sorted data, for hits and misses.
#[test]
fn search_agrees_with_sorted_baseline() {
    let mut rng = StdRng::seed_from_u64(0xbead);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..2000);
        let b = rng.gen_range(1usize..12);
        let layout = random_layout(&mut rng, b);
        let sorted: Vec<u64> = (0..n as u64).map(|x| 3 * x).collect();
        let mut data = sorted.clone();
        permute_in_place(&mut data, layout, Algorithm::CycleLeader).unwrap();
        let s = Searcher::for_layout(&data, layout);
        for _ in 0..50 {
            let probe = rng.gen_range(0u64..6000);
            assert_eq!(
                s.contains(&probe),
                sorted.binary_search(&probe).is_ok(),
                "case {case}: n={n} {layout:?} probe={probe}"
            );
        }
    }
}

/// The found index always points at the key in the permuted array.
#[test]
fn found_indices_point_at_keys() {
    let mut rng = StdRng::seed_from_u64(0xf00d);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..1500);
        let key_idx = rng.gen_range(0usize..n.max(1));
        let sorted: Vec<u64> = (0..n as u64).map(|x| 5 * x + 1).collect();
        let key = sorted[key_idx];
        for layout in [Layout::Bst, Layout::Btree { b: 4 }, Layout::Veb] {
            let mut data = sorted.clone();
            permute_in_place_seq(&mut data, layout, Algorithm::Involution).unwrap();
            let s = Searcher::for_layout(&data, layout);
            let pos = s
                .search(&key)
                .unwrap_or_else(|| panic!("case {case}: present key lost, n={n} {layout:?}"));
            assert_eq!(data[pos], key, "case {case}: n={n} {layout:?}");
        }
    }
}

fn query_kinds(b: usize) -> Vec<(QueryKind, Option<Layout>)> {
    vec![
        (QueryKind::Sorted, None),
        (QueryKind::Bst, Some(Layout::Bst)),
        (QueryKind::BstPrefetch, Some(Layout::Bst)),
        (QueryKind::Btree(b), Some(Layout::Btree { b })),
        (QueryKind::Veb, Some(Layout::Veb)),
    ]
}

/// `Searcher::rank` equals the sorted array's partition point for every
/// layout, over randomized (including decidedly non-perfect) sizes and
/// probes on, between, below, and above the stored keys.
#[test]
fn rank_matches_sorted_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0a11);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..4000);
        let b = rng.gen_range(1usize..12);
        let stride = rng.gen_range(1u64..6);
        let offset = rng.gen_range(0u64..10);
        let sorted: Vec<u64> = (0..n as u64).map(|x| offset + stride * x).collect();
        for (kind, layout) in query_kinds(b) {
            let mut data = sorted.clone();
            if let Some(l) = layout {
                permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
            }
            let s = Searcher::new(&data, kind);
            for _ in 0..40 {
                let probe = rng.gen_range(0..offset + stride * (n as u64 + 2));
                let expect = sorted.partition_point(|x| *x < probe);
                assert_eq!(
                    s.rank(&probe),
                    expect,
                    "case {case}: n={n} {kind:?} probe={probe}"
                );
            }
        }
    }
}

/// `Searcher::lower_bound` returns the layout position of the successor
/// key (sorted-array oracle), or `None` past the maximum.
#[test]
fn lower_bound_matches_sorted_oracle() {
    let mut rng = StdRng::seed_from_u64(0x10b0);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..4000);
        let b = rng.gen_range(1usize..12);
        let sorted: Vec<u64> = (0..n as u64).map(|x| 4 * x + 2).collect();
        for (kind, layout) in query_kinds(b) {
            let mut data = sorted.clone();
            if let Some(l) = layout {
                permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
            }
            let s = Searcher::new(&data, kind);
            for _ in 0..40 {
                let probe = rng.gen_range(0..4 * (n as u64 + 2));
                let expect = sorted.get(sorted.partition_point(|x| *x < probe)).copied();
                assert_eq!(
                    s.lower_bound(&probe).map(|p| data[p]),
                    expect,
                    "case {case}: n={n} {kind:?} probe={probe}"
                );
            }
        }
    }
}

/// `batch_count` and a scalar `contains` loop agree with a scalar count
/// over the sorted baseline, over randomized non-perfect sizes.
#[test]
fn batch_count_matches_sorted_oracle() {
    let mut rng = StdRng::seed_from_u64(0xba7c);
    for case in 0..24 {
        let n = rng.gen_range(1usize..20_000);
        let b = rng.gen_range(1usize..12);
        let layout = random_layout(&mut rng, b);
        let sorted: Vec<u64> = (0..n as u64).map(|x| 2 * x).collect();
        let queries: Vec<u64> = (0..rng.gen_range(1usize..3000))
            .map(|_| rng.gen_range(0..2 * n as u64 + 4))
            .collect();
        let expect = queries
            .iter()
            .filter(|q| sorted.binary_search(q).is_ok())
            .count();
        let mut data = sorted.clone();
        permute_in_place(&mut data, layout, Algorithm::CycleLeader).unwrap();
        let s = Searcher::for_layout(&data, layout);
        assert_eq!(
            queries.iter().filter(|q| s.contains(q)).count(),
            expect,
            "case {case}: n={n} {layout:?} scalar loop"
        );
        assert_eq!(
            s.batch_count(&queries),
            expect,
            "case {case}: n={n} {layout:?} batch"
        );
    }
}

/// Batch lengths straddling the pipeline window (32) and the parallel
/// chunk floor (128): empty, partial window, exact window, one chunk,
/// several chunks.
const BATCH_LENS: [usize; 9] = [0, 1, 31, 32, 33, 127, 128, 129, 1000];

/// The batch engine is bit-identical to the scalar per-key loop, for
/// randomized sizes, key multisets (duplicates included), and batch
/// lengths — a random one per case plus every length around the window
/// and the parallel grain. (The forced-serial CI job runs this same
/// test on the single-thread pipelined path.)
#[test]
fn batched_tiers_match_scalar_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x9199);
    for case in 0..24 {
        let n = rng.gen_range(1usize..5000);
        let b = rng.gen_range(1usize..12);
        let dup = rng.gen_range(1u64..4); // 1 = distinct, >1 = duplicated
        let sorted: Vec<u64> = (0..n as u64).map(|x| x / dup).collect();
        let queries: Vec<u64> = (0..2000)
            .map(|_| rng.gen_range(0..n as u64 / dup + 3))
            .collect();
        let random_len = rng.gen_range(0usize..2000);
        for (kind, layout) in query_kinds(b) {
            let mut data = sorted.clone();
            if let Some(l) = layout {
                permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
            }
            let s = Searcher::new(&data, kind);
            for len in BATCH_LENS.into_iter().chain([random_len]) {
                let queries = &queries[..len];
                let tag = format!("case {case}: n={n} {kind:?} q={len}");
                assert_eq!(
                    s.batch_search(queries),
                    queries.iter().map(|q| s.search(q)).collect::<Vec<_>>(),
                    "{tag} search"
                );
                assert_eq!(
                    s.batch_rank(queries),
                    queries.iter().map(|q| s.rank(q)).collect::<Vec<_>>(),
                    "{tag} rank"
                );
            }
        }
    }
}

/// `range_count` and `batch_range_count` equal the sorted oracle's rank
/// difference for arbitrary (including inverted) endpoints.
#[test]
fn range_count_matches_sorted_oracle() {
    let mut rng = StdRng::seed_from_u64(0x4a4e);
    for case in 0..24 {
        let n = rng.gen_range(1usize..4000);
        let b = rng.gen_range(1usize..12);
        let layout = random_layout(&mut rng, b);
        let sorted: Vec<u64> = (0..n as u64).map(|x| 2 * x + 1).collect();
        let mut data = sorted.clone();
        permute_in_place(&mut data, layout, Algorithm::CycleLeader).unwrap();
        let s = Searcher::for_layout(&data, layout);
        let ranges: Vec<(u64, u64)> = (0..rng.gen_range(1usize..500))
            .map(|_| {
                (
                    rng.gen_range(0..2 * n as u64 + 4),
                    rng.gen_range(0..2 * n as u64 + 4),
                )
            })
            .collect();
        for &(lo, hi) in &ranges {
            let expect = sorted
                .partition_point(|x| *x < hi)
                .saturating_sub(sorted.partition_point(|x| *x < lo));
            assert_eq!(
                s.range_count(&lo, &hi),
                expect,
                "case {case}: n={n} {layout:?} [{lo},{hi})"
            );
        }
        assert_eq!(
            s.batch_range_count(&ranges),
            ranges
                .iter()
                .map(|(lo, hi)| s.range_count(lo, hi))
                .collect::<Vec<_>>(),
            "case {case}: n={n} {layout:?}"
        );
    }
}

/// A key-only `StaticMap<K, ()>` answers every query like a
/// sorted-vector oracle, for random unsorted duplicated inputs and
/// every layout.
#[test]
fn static_index_matches_sorted_oracle() {
    let mut rng = StdRng::seed_from_u64(0xfacade);
    for case in 0..16 {
        let n = rng.gen_range(0usize..3000);
        let b = rng.gen_range(1usize..12);
        let layout = random_layout(&mut rng, b);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..(n as u64 + 2))).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let index = StaticMap::build(keys, vec![(); n], layout).unwrap();
        assert_eq!(index.len(), n, "case {case}");
        for _ in 0..60 {
            let p = rng.gen_range(0..n as u64 + 4);
            let expect_rank = sorted.partition_point(|x| *x < p);
            assert_eq!(
                index.rank(&p),
                expect_rank,
                "case {case}: n={n} {layout:?} probe={p}"
            );
            assert_eq!(
                index.contains_key(&p),
                sorted.binary_search(&p).is_ok(),
                "case {case}: n={n} {layout:?} probe={p}"
            );
            assert_eq!(
                index.lower_bound(&p).map(|(k, _)| *k),
                sorted.get(expect_rank).copied(),
                "case {case}: n={n} {layout:?} probe={p}"
            );
        }
    }
}
