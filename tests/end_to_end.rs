//! End-to-end integration tests spanning construction, layout maps, and
//! queries across crates.

use implicit_search_trees::{
    permute_in_place, permute_in_place_seq, reference_permutation, Algorithm, Layout, QueryKind,
    Searcher, StaticMap,
};

fn layouts() -> Vec<Layout> {
    vec![
        Layout::Bst,
        Layout::Btree { b: 1 },
        Layout::Btree { b: 2 },
        Layout::Btree { b: 8 },
        Layout::Veb,
    ]
}

#[test]
fn construction_matches_oracle_for_many_sizes() {
    let sizes = [
        1usize, 2, 3, 4, 7, 8, 15, 16, 26, 27, 63, 80, 100, 255, 256, 257, 728, 729, 1000, 4095,
        10_000,
    ];
    for &n in &sizes {
        let sorted: Vec<u64> = (0..n as u64).collect();
        for layout in layouts() {
            let expect = reference_permutation(&sorted, layout);
            for algo in Algorithm::ALL {
                let mut seq = sorted.clone();
                permute_in_place_seq(&mut seq, layout, algo).unwrap();
                assert_eq!(seq, expect, "seq n={n} {layout:?} {algo:?}");
                let mut par = sorted.clone();
                permute_in_place(&mut par, layout, algo).unwrap();
                assert_eq!(par, expect, "par n={n} {layout:?} {algo:?}");
            }
        }
    }
}

#[test]
fn every_key_findable_after_every_construction() {
    for n in [1usize, 5, 63, 100, 511, 1000, 4096] {
        let sorted: Vec<u64> = (0..n as u64).map(|x| 10 * x + 3).collect();
        for layout in layouts() {
            for algo in Algorithm::ALL {
                let mut data = sorted.clone();
                permute_in_place(&mut data, layout, algo).unwrap();
                let s = Searcher::for_layout(&data, layout);
                for &key in &sorted {
                    let hit = s.search(&key);
                    assert_eq!(
                        hit.map(|p| data[p]),
                        Some(key),
                        "n={n} {layout:?} {algo:?} key={key}"
                    );
                    assert!(!s.contains(&(key + 1)), "phantom hit n={n} {layout:?}");
                }
            }
        }
    }
}

#[test]
fn search_agrees_with_binary_search_on_original() {
    let n = 4321usize;
    let sorted: Vec<u64> = (0..n as u64).map(|x| x * x % 65_521).collect();
    let mut uniq = sorted.clone();
    uniq.sort_unstable();
    uniq.dedup();
    for layout in layouts() {
        let mut data = uniq.clone();
        permute_in_place(&mut data, layout, Algorithm::CycleLeader).unwrap();
        let s = Searcher::for_layout(&data, layout);
        for probe in 0..70_000u64 {
            let expect = uniq.binary_search(&probe).is_ok();
            assert_eq!(s.contains(&probe), expect, "{layout:?} probe={probe}");
        }
    }
}

#[test]
fn prefetch_variant_agrees_with_plain_bst() {
    let n = 9999usize;
    let mut data: Vec<u64> = (0..n as u64).map(|x| 2 * x).collect();
    permute_in_place(&mut data, Layout::Bst, Algorithm::Involution).unwrap();
    let plain = Searcher::new(&data, QueryKind::Bst);
    let pf = Searcher::new(&data, QueryKind::BstPrefetch);
    for key in 0..2 * n as u64 {
        assert_eq!(plain.search(&key), pf.search(&key), "key={key}");
    }
}

#[test]
fn works_with_non_copy_ordered_types() {
    // The construction is generic over T: the involution/cycle moves
    // never clone. Strings exercise a non-Copy payload.
    let n = 1000usize;
    let sorted: Vec<String> = (0..n).map(|i| format!("{i:06}")).collect();
    let mut data = sorted.clone();
    permute_in_place(&mut data, Layout::Veb, Algorithm::CycleLeader).unwrap();
    let expect = reference_permutation(&sorted, Layout::Veb);
    assert_eq!(data, expect);
    let s = Searcher::for_layout(&data, Layout::Veb);
    assert!(s.contains(&"000123".to_string()));
    assert!(!s.contains(&"999999".to_string()));
}

#[test]
fn algorithms_agree_with_each_other_large() {
    let n = (1usize << 20) - 1;
    let sorted: Vec<u64> = (0..n as u64).collect();
    for layout in [Layout::Bst, Layout::Btree { b: 8 }, Layout::Veb] {
        let mut a = sorted.clone();
        let mut b = sorted.clone();
        permute_in_place(&mut a, layout, Algorithm::Involution).unwrap();
        permute_in_place(&mut b, layout, Algorithm::CycleLeader).unwrap();
        assert_eq!(a, b, "{layout:?}");
    }
}

/// The key-only facade, `StaticMap<K, ()>`: unsorted duplicated input
/// in, the whole query API out, for every layout — including the
/// batched engine and range queries, cross-checked against both the
/// scalar loop and a sorted-vector oracle.
#[test]
fn static_index_end_to_end() {
    let n = 4321usize;
    let raw: Vec<u64> = (0..n as u64).map(|x| x * x % 9973).collect(); // unsorted, duplicates
    let mut sorted = raw.clone();
    sorted.sort_unstable();
    let queries: Vec<u64> = (0..10_000u64).collect();
    let expect_count = queries
        .iter()
        .filter(|q| sorted.binary_search(q).is_ok())
        .count();
    for layout in layouts() {
        let index = StaticMap::build(raw.clone(), vec![(); n], layout).unwrap();
        let s = index.searcher();
        assert_eq!(index.len(), n, "{layout:?}");
        assert_eq!(index.layout(), Some(layout), "{layout:?}");

        // The stored data is a permutation of the sorted input.
        let mut back = index.keys().to_vec();
        back.sort_unstable();
        assert_eq!(back, sorted, "{layout:?}");

        // Batched engine vs scalar vs oracle.
        assert_eq!(s.batch_count(&queries), expect_count, "{layout:?}");
        let found = s.batch_search(&queries);
        assert_eq!(
            found,
            queries.iter().map(|q| s.search(q)).collect::<Vec<_>>(),
            "{layout:?}"
        );
        for (q, hit) in queries.iter().zip(&found) {
            if let Some(pos) = hit {
                assert_eq!(index.keys().get(*pos), Some(q), "{layout:?} q={q}");
            }
        }

        // Ranks and range counts vs oracle.
        for probe in (0..10_000u64).step_by(619) {
            assert_eq!(
                index.rank(&probe),
                sorted.partition_point(|x| *x < probe),
                "{layout:?} probe={probe}"
            );
            assert_eq!(
                index.range_count(&probe, &(probe + 1000)),
                sorted.partition_point(|x| *x < probe + 1000)
                    - sorted.partition_point(|x| *x < probe),
                "{layout:?} probe={probe}"
            );
        }
    }
}

/// Round-trip through the facade: an index built via the explicit
/// (sorted, Searcher) path answers identically to a key-only
/// `StaticMap`.
#[test]
fn static_index_agrees_with_manual_pipeline() {
    let n = 2000usize;
    let sorted: Vec<u64> = (0..n as u64).map(|x| 7 * x).collect();
    for layout in layouts() {
        let index = StaticMap::build(sorted.clone(), vec![(); n], layout).unwrap();
        let mut manual = sorted.clone();
        permute_in_place(&mut manual, layout, Algorithm::CycleLeader).unwrap();
        assert_eq!(index.keys(), &manual[..], "{layout:?}");
        let s = Searcher::for_layout(&manual, layout);
        for probe in (0..14_000u64).step_by(391) {
            assert_eq!(index.contains_key(&probe), s.contains(&probe), "{layout:?}");
            assert_eq!(index.rank(&probe), s.rank(&probe), "{layout:?}");
        }
    }
}

#[test]
fn thread_count_does_not_change_result() {
    let n = 123_456usize;
    let sorted: Vec<u64> = (0..n as u64).collect();
    let reference = {
        let mut v = sorted.clone();
        permute_in_place_seq(&mut v, Layout::Veb, Algorithm::CycleLeader).unwrap();
        v
    };
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(|| {
            let mut v = sorted.clone();
            permute_in_place(&mut v, Layout::Veb, Algorithm::CycleLeader).unwrap();
            v
        });
        assert_eq!(got, reference, "threads={threads}");
    }
}
