//! `StaticMap` differential suite: every lookup checked against a
//! `std::collections::BTreeMap` oracle, across layouts, adversarial
//! sizes (empty/singleton/perfect±1/node boundaries), and duplicated
//! key multisets.
//!
//! Duplicate-key contract: the map stores every (key, value) pair; a
//! lookup resolves to **some** slot holding a matching key, so the
//! returned value must be one of the values inserted under that key
//! (`oracle: BTreeMap<K, Vec<V>>`). `batch_get` must be bit-identical
//! to per-key `get` (same slot, hence the same `&V`, not merely an
//! equal one).

use implicit_search_trees::{QueryKind, StaticMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const BTREE_BS: [usize; 3] = [1, 3, 8];

fn kinds() -> Vec<QueryKind> {
    let mut v = vec![
        QueryKind::Sorted,
        QueryKind::Bst,
        QueryKind::BstPrefetch,
        QueryKind::Veb,
    ];
    for b in BTREE_BS {
        v.push(QueryKind::Btree(b));
    }
    v
}

/// Empty, singleton, perfect binary sizes ± 1, and B-tree node
/// boundaries for the exercised branching factors.
fn adversarial_sizes() -> Vec<usize> {
    let mut sizes = vec![0usize, 1, 2, 3];
    for d in [2u32, 3, 6, 7, 9] {
        let perfect = (1usize << d) - 1;
        sizes.extend([perfect - 1, perfect, perfect + 1]);
    }
    for b in BTREE_BS {
        let k = b + 1;
        for m in 1..=3u32 {
            let perfect = k.pow(m) - 1;
            if perfect > 1500 {
                break;
            }
            sizes.extend([perfect, perfect + 1, perfect + b]);
        }
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Keys with duplicates (step 3, each key twice for odd sizes), values
/// tagged with the insertion index so distinct pairs stay
/// distinguishable even under equal keys.
fn keyset(n: usize, rng: &mut StdRng) -> Vec<u64> {
    (0..n)
        .map(|_| 3 * rng.gen_range(0..(n as u64).max(1) / 2 + 1))
        .collect()
}

fn oracle(keys: &[u64], values: &[(u64, usize)]) -> BTreeMap<u64, Vec<(u64, usize)>> {
    let mut m: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
    for (k, v) in keys.iter().zip(values) {
        m.entry(*k).or_default().push(*v);
    }
    m
}

#[test]
fn get_and_batch_get_match_btreemap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for n in adversarial_sizes() {
        let keys = keyset(n, &mut rng);
        let values: Vec<(u64, usize)> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let oracle = oracle(&keys, &values);
        let probes: Vec<u64> = (0..(3 * n as u64 / 2 + 5)).collect();
        for kind in kinds() {
            let map = StaticMap::build_for_kind(keys.clone(), values.clone(), kind).unwrap();
            assert_eq!(map.len(), n, "{kind:?} n={n}");
            let batch = map.batch_get(&probes);
            for (i, probe) in probes.iter().enumerate() {
                let got = map.get(probe);
                match oracle.get(probe) {
                    None => assert!(got.is_none(), "{kind:?} n={n} probe={probe}"),
                    Some(copies) => {
                        let v = got.unwrap_or_else(|| {
                            panic!("{kind:?} n={n} probe={probe}: stored key not found")
                        });
                        // Some matching slot: the value must be one of
                        // the copies inserted under this key.
                        assert_eq!(
                            v.0, *probe,
                            "{kind:?} n={n} probe={probe}: wrong key's value"
                        );
                        assert!(
                            copies.contains(v),
                            "{kind:?} n={n} probe={probe}: value {v:?} not among {copies:?}"
                        );
                    }
                }
                // batch_get is bit-identical to per-key get: the same
                // slot, hence the same reference target.
                match (got, batch[i]) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert!(
                            std::ptr::eq(a, b),
                            "{kind:?} n={n} probe={probe}: slot differs"
                        )
                    }
                    (a, b) => panic!("{kind:?} n={n} probe={probe}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

#[test]
fn order_queries_match_btreemap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for n in [0usize, 1, 2, 7, 26, 100, 511, 1000] {
        let keys = keyset(n, &mut rng);
        let values: Vec<(u64, usize)> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let oracle = oracle(&keys, &values);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let probes: Vec<u64> = (0..(3 * n as u64 / 2 + 5)).collect();
        for kind in kinds() {
            let map = StaticMap::build_for_kind(keys.clone(), values.clone(), kind).unwrap();
            for probe in &probes {
                let tag = format!("{kind:?} n={n} probe={probe}");
                assert_eq!(map.contains_key(probe), oracle.contains_key(probe), "{tag}");
                assert_eq!(
                    map.rank(probe),
                    sorted.partition_point(|x| x < probe),
                    "{tag}"
                );
                // lower_bound / successor / predecessor against the
                // BTreeMap's range views; values must belong to the key.
                let lb = oracle.range(probe..).next().map(|(k, _)| *k);
                assert_eq!(map.lower_bound(probe).map(|(k, _)| *k), lb, "{tag}");
                let succ = oracle.range(probe + 1..).next().map(|(k, _)| *k);
                assert_eq!(map.successor(probe).map(|(k, _)| *k), succ, "{tag}");
                let pred = oracle.range(..probe).next_back().map(|(k, _)| *k);
                assert_eq!(map.predecessor(probe).map(|(k, _)| *k), pred, "{tag}");
                for (k, v) in [map.lower_bound(probe), map.successor(probe)]
                    .into_iter()
                    .flatten()
                {
                    assert!(oracle[k].contains(v), "{tag}: entry value/key mismatch");
                }
            }
            // Range counts with multiplicity, batched through the rank
            // pipeline.
            let ranges: Vec<(u64, u64)> = probes
                .iter()
                .zip(probes.iter().rev())
                .map(|(a, b)| (*a, *b))
                .chain(probes.windows(2).map(|w| (w[0], w[1])))
                .collect();
            let expect: Vec<usize> = ranges
                .iter()
                .map(|(lo, hi)| {
                    sorted.partition_point(|x| x < hi)
                        - sorted
                            .partition_point(|x| x < hi)
                            .min(sorted.partition_point(|x| x < lo))
                })
                .collect();
            assert_eq!(map.batch_range_count(&ranges), expect, "{kind:?} n={n}");
        }
    }
}

/// Layout-order views stay parallel, and `values()` really is the
/// buffer `batch_get` serves from (zero-copy).
#[test]
fn parallel_views_and_zero_copy() {
    let keys: Vec<u64> = vec![9, 1, 5, 5, 7, 3, 1];
    let values: Vec<String> = keys.iter().map(|k| format!("v{k}")).collect();
    for kind in kinds() {
        let map = StaticMap::build_for_kind(keys.clone(), values.clone(), kind).unwrap();
        assert_eq!(map.keys().len(), map.values().len());
        for (k, v) in map.keys().iter().zip(map.values()) {
            assert_eq!(*v, format!("v{k}"), "{kind:?}");
        }
        let got = map.get(&5).unwrap();
        let base = map.values().as_ptr() as usize;
        let p = got as *const String as usize;
        assert!(
            (p - base) / std::mem::size_of::<String>() < map.len(),
            "{kind:?}: get() must serve from the values() buffer"
        );
    }
}
