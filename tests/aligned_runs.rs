//! Run-storage alignment contract: every tree-layout `StaticIndex` /
//! `StaticMap` buffer starts on a cache-line boundary, so the "one node
//! = one memory transfer" arithmetic of the layouts is physically true,
//! not just true modulo where the allocator happened to put the `Vec`.

use implicit_search_trees::{Algorithm, Layout, QueryKind, StaticIndex, StaticMap};

const LINE: usize = 64;

fn tree_kinds() -> Vec<QueryKind> {
    vec![
        QueryKind::Bst,
        QueryKind::BstPrefetch,
        QueryKind::Btree(3),
        QueryKind::Btree(8),
        QueryKind::Btree(16),
        QueryKind::Veb,
    ]
}

#[test]
fn tree_layout_runs_are_cache_line_aligned() {
    for kind in tree_kinds() {
        for n in [1usize, 7, 100, 1 << 12] {
            let keys: Vec<u64> = (0..n as u64).rev().collect();
            let index = StaticIndex::build_for_kind(keys, kind).unwrap();
            assert!(index.buffer_alignment() >= LINE, "{kind:?} n={n}");
            assert_eq!(
                index.as_slice().as_ptr() as usize % LINE,
                0,
                "{kind:?} n={n}: key buffer not line-aligned"
            );

            let keys: Vec<u64> = (0..n as u64).collect();
            let vals: Vec<u32> = (0..n as u32).collect();
            let map = StaticMap::build_presorted(keys, vals, kind, Algorithm::CycleLeader).unwrap();
            assert_eq!(
                map.keys().as_ptr() as usize % LINE,
                0,
                "{kind:?} n={n}: map key buffer not line-aligned"
            );
            assert_eq!(
                map.values().as_ptr() as usize % LINE,
                0,
                "{kind:?} n={n}: map value buffer not line-aligned"
            );
        }
    }
}

/// The sorted baseline adopts the caller's `Vec` zero-copy, so it only
/// promises the type's natural alignment — pinned here so a future
/// "just always scatter" change (which would cost the seal path its
/// zero-copy build) trips a test instead of sliding in silently.
#[test]
fn sorted_runs_reuse_the_callers_buffer() {
    let keys: Vec<u64> = (0..1000).collect();
    let p = keys.as_ptr();
    let index = StaticIndex::build_presorted(keys, QueryKind::Sorted).unwrap();
    assert_eq!(
        index.as_slice().as_ptr(),
        p,
        "Sorted build must not relocate the key buffer"
    );
    assert_eq!(index.buffer_alignment(), core::mem::align_of::<u64>());
}

/// The default build path (`StaticIndex::build` with a width-8 B-tree
/// layout on `u64` keys) must land on the wide SIMD kernel — the
/// "default construction prefers the wide btree" half of the width
/// dispatch, checked end to end through the facade.
#[test]
fn default_build_routes_to_wide_kernel() {
    for (b, wide) in [(7usize, false), (8, true), (15, false), (16, true)] {
        let idx = StaticIndex::build((0..1000u64).collect(), Layout::Btree { b }).unwrap();
        assert_eq!(idx.searcher().is_wide(), wide, "u64 b={b}");
    }
    // Non-SimdKey keys stay on the runtime navigator at every width.
    let idx = StaticIndex::build(
        (0..1000u64).map(|x| (x, x)).collect::<Vec<_>>(),
        Layout::Btree { b: 8 },
    )
    .unwrap();
    assert!(!idx.searcher().is_wide(), "(u64,u64) b=8");
}
