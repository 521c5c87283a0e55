//! The direct cases of the cycle-leader constructions.
//!
//! `Ram` finishes every subproblem whose elements fit
//! `ist_perm::permute_direct`'s stack scratch in one pass
//! (`Machine::direct`): an extended gather's region as one stable
//! partition, a small vEB subtree as one scatter to its slots. A larger
//! extended gather whose scratch-sized units fit the unit map
//! (`ist_perm::UNIT_MAP_BITS`) is one scratch pass per block of `r`
//! runs, one cycle pass over the units (`ist_perm::unshuffle_units`)
//! and one rotation of the leftover block's internal keys. These tests
//! pin that the result is the layout whatever side of either budget a
//! subproblem falls on, whatever the element type: a non-`Copy` element
//! is moved, never duplicated or dropped, an element too large for the
//! scratch takes the primitives, and a zero-sized one moves nothing.
//! Each case runs in a one-thread pool and a four-thread pool and is
//! checked against `reference_permutation`.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use implicit_search_trees::layout::CompleteShape;
use implicit_search_trees::perm::{fits_scratch, SCRATCH_BYTES, UNIT_MAP_BITS};
use implicit_search_trees::{permute_in_place, reference_permutation, Algorithm, Layout};

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Every layout the cycle-leader family builds, with the B-tree node
/// capacities whose extended gathers the boundary cases below cover.
const LAYOUTS: [Layout; 6] = [
    Layout::Bst,
    Layout::Veb,
    Layout::Btree { b: 1 },
    Layout::Btree { b: 2 },
    Layout::Btree { b: 8 },
    Layout::Btree { b: 16 },
];

/// Cycle-leader construction of `sorted` into `layout`, in a one- and a
/// four-thread pool, equals the reference permutation.
fn check<T: Clone + PartialEq + std::fmt::Debug + Send>(sorted: &[T], layout: Layout) {
    let expect = reference_permutation(sorted, layout);
    for threads in [1, 4] {
        let mut v = sorted.to_vec();
        in_pool(threads, || {
            permute_in_place(&mut v, layout, Algorithm::CycleLeader).unwrap()
        });
        assert!(
            v == expect,
            "{layout:?} n={} threads={threads}",
            sorted.len()
        );
    }
}

fn keys(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// The most runs an extended gather of `b`-key runs may have for its
/// `runs·(b+1) − 1` elements of `u64` to fit the scratch.
fn runs_that_fit(b: usize) -> usize {
    let fit = (1..)
        .take_while(|&q| fits_scratch::<u64>(q * (b + 1) - 1))
        .last();
    let runs = fit.unwrap();
    assert!(!fits_scratch::<u64>((runs + 1) * (b + 1) - 1));
    runs
}

/// The Chapter-5 pre-pass is one extended gather over the full
/// overflow nodes: sizes whose gather region is the largest that fits
/// the scratch and the smallest that does not, with and without a
/// partial node, for `b ∈ {1, 2, 8, 16}`; for `b = 1` the binary
/// layouts too. Then perfect trees from one level to one past the
/// first whose top level does not fit.
#[test]
fn extended_gather_regions_on_both_sides_of_the_budget() {
    for b in [1usize, 2, 8, 16] {
        let fit = runs_that_fit(b);
        let k = b + 1;
        // Enough full levels that the overflow level can hold fit + 1
        // full nodes and a partial one.
        let levels = (1..).find(|&m| k.pow(m) > fit + 2).unwrap();
        let full = k.pow(levels) - 1;
        let partials: &[usize] = if b == 1 { &[0] } else { &[0, b - 1] };
        for q in [fit, fit + 1] {
            for &s in partials {
                let n = full + q * b + s;
                let shape = CompleteShape::new(n, b);
                assert_eq!(
                    (shape.full_overflow_nodes(), shape.partial_node_len()),
                    (q, s),
                    "b={b} n={n}"
                );
                check(&keys(n), Layout::Btree { b });
                if b == 1 {
                    assert_eq!(CompleteShape::new(n, 1).overflow(), q);
                    check(&keys(n), Layout::Bst);
                    check(&keys(n), Layout::Veb);
                }
            }
        }
        // Perfect trees whose level regions straddle the budget: up to
        // one level past the first whose top level does not fit.
        let top = (1..).find(|&m| !fits_scratch::<u64>(k.pow(m) - 1)).unwrap();
        for levels in 1..=top + 1 {
            check(&keys(k.pow(levels) - 1), Layout::Btree { b });
        }
    }
}

/// The most elements of `T` that fit the scratch.
fn scratch_len<T>() -> usize {
    (0..).take_while(|&n| fits_scratch::<T>(n)).last().unwrap()
}

/// The smallest `n` whose complete tree of `b` keys a node has `q` full
/// overflow leaf nodes and a partial one of `s` keys: its Chapter-5
/// strip is one extended gather of `q` runs.
fn strip_len(b: usize, q: usize, s: usize) -> usize {
    let k = b + 1;
    let leaf_nodes = (0..).map(|m| k.pow(m)).find(|&nodes| nodes * b > q * b + s);
    let n = leaf_nodes.unwrap() - 1 + q * b + s;
    let shape = CompleteShape::new(n, b);
    assert_eq!(
        (shape.full_overflow_nodes(), shape.partial_node_len()),
        (q, s),
        "b={b} n={n}"
    );
    n
}

/// Tree sizes whose extended gathers fall on every side of the unit
/// pass's bounds, for `b ∈ {1, 2, 8}` and `b = cap − 1`, with `cap` the
/// elements that fit the scratch (`b = 1 023` for `u64`), each with and
/// without a partial node. `r = cap / (b + 1)` runs fill a block. The
/// strip's gather takes `r` runs, which fit the scratch; one and two
/// full blocks with a leftover of 0, 1 and `r − 1` internal keys; and,
/// where the region stays small (`r = 1` at the largest `b`: about
/// 66 K elements), the most runs whose units fit the unit map and one
/// more, which the recursion takes. For `b = 1`, perfect trees of
/// `2^9 − 1` to `2^15 − 1` keys add levels of 1, 3, 7, 15 and 31 blocks,
/// each with a leftover of `r − 1` internal keys.
fn unit_pass_cases(cap: usize) -> Vec<(usize, usize)> {
    let mut cases = Vec::new();
    for b in [1, 2, 8, cap - 1] {
        let k = b + 1;
        let r = cap / k;
        let mut runs = vec![r];
        for blocks in [1, 2] {
            runs.extend([0, 1, r - 1].map(|left| blocks * r + left + 1));
        }
        // `(most − 1) / r` blocks: the unit map's capacity.
        let most = (UNIT_MAP_BITS / k + 1) * r;
        assert!((most - 1) / r * k <= UNIT_MAP_BITS && most / r * k > UNIT_MAP_BITS);
        if most * k < 1 << 17 {
            runs.extend([most, most + 1]);
        }
        runs.sort_unstable();
        runs.dedup();
        for q in runs {
            cases.push((b, strip_len(b, q, 0)));
            if b > 1 {
                cases.push((b, strip_len(b, q, b - 1)));
            }
        }
    }
    cases.extend((9..=15).map(|d| (1, (1 << d) - 1)));
    cases
}

/// The layouts a case of `b` keys a node builds: for `b = 1` the binary
/// layouts too, whose strip is the same gather.
fn layouts_of(b: usize) -> Vec<Layout> {
    let mut layouts = vec![Layout::Btree { b }];
    if b == 1 {
        layouts.extend([Layout::Bst, Layout::Veb]);
    }
    layouts
}

#[test]
fn unit_pass_bounds_u64() {
    let cap = scratch_len::<u64>();
    assert_eq!(cap - 1, 1023, "the largest node capacity is near 1 000");
    for (b, n) in unit_pass_cases(cap) {
        for layout in layouts_of(b) {
            check(&keys(n), layout);
        }
    }
}

#[test]
fn unit_pass_bounds_strings() {
    for (b, n) in unit_pass_cases(scratch_len::<String>()) {
        let sorted: Vec<String> = (0..n).map(|i| format!("{i:08}")).collect();
        for layout in layouts_of(b) {
            check(&sorted, layout);
        }
    }
}

/// An element with the scratch's own alignment, one cache line.
#[derive(Clone, Debug, PartialEq)]
#[repr(align(64))]
struct Line(u64);

#[test]
fn unit_pass_bounds_cache_line_aligned() {
    assert_eq!(size_of::<Line>(), 64);
    for (b, n) in unit_pass_cases(scratch_len::<Line>()) {
        let sorted: Vec<Line> = (0..n as u64).map(Line).collect();
        for layout in layouts_of(b) {
            check(&sorted, layout);
        }
    }
}

#[test]
fn unit_pass_bounds_drop_counted() {
    for (b, n) in unit_pass_cases(scratch_len::<Counted>()) {
        for layout in layouts_of(b) {
            check_counted(n, layout);
        }
    }
}

/// A zero-sized element fits the scratch at every length, so every
/// gather is one scratch pass that moves nothing.
#[test]
fn unit_pass_bounds_zero_sized() {
    for (b, n) in unit_pass_cases(scratch_len::<u64>()) {
        for layout in layouts_of(b) {
            check_units(n, layout);
        }
    }
}

/// At sizes where a `u64` gather takes the unit pass — one block of
/// runs, with and without a leftover — an element too large for the
/// scratch keeps the primitives.
#[test]
fn unit_pass_sizes_of_an_element_too_large_for_the_scratch() {
    let r = scratch_len::<u64>() / 9;
    for q in [r + 1, 2 * r] {
        let n = strip_len(8, q, 7);
        check(&pages(n), Layout::Btree { b: 8 });
    }
}

/// vEB subtrees of `2^d − 1` keys on both sides of the budget, perfect
/// and ragged, for every cycle-leader layout.
#[test]
fn veb_heights_on_both_sides_of_the_budget() {
    let fit = (1..)
        .take_while(|&d| fits_scratch::<u64>((1 << d) - 1))
        .last();
    let d = fit.unwrap();
    assert!(!fits_scratch::<u64>((1 << (d + 1)) - 1));
    for layout in LAYOUTS {
        for height in [d - 1, d, d + 1, d + 2] {
            let perfect = (1usize << height) - 1;
            check(&keys(perfect), layout);
            check(&keys(perfect + 1), layout);
            check(&keys(perfect + perfect / 3), layout);
        }
    }
}

/// Every size up to a thousand, and two sizes whose top fan-outs reach
/// the four-thread pool's floor, so direct leaves run inside helper
/// tasks.
#[test]
fn all_small_sizes_and_two_parallel_ones() {
    for layout in LAYOUTS {
        for n in (0..=1000).chain([(1 << 17) - 1, 150_000]) {
            check(&keys(n), layout);
        }
    }
}

static COUNTED_DROPS: AtomicUsize = AtomicUsize::new(0);

/// A non-`Copy` element that owns heap memory and counts its drops: a
/// duplicated element would be freed twice, a lost one leaked and
/// uncounted.
#[derive(Debug, PartialEq)]
struct Counted {
    key: u64,
    heap: Box<u64>,
}

impl Counted {
    fn new(key: u64) -> Self {
        Self {
            key,
            heap: Box::new(key),
        }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        assert_eq!(*self.heap, self.key, "element corrupted");
        COUNTED_DROPS.fetch_add(1, SeqCst);
    }
}

/// Cycle-leader construction of `n` drop-counted elements into
/// `layout`, in a one- and a four-thread pool: the keys land as
/// `reference_permutation` puts them, and every element is dropped
/// exactly once — none during construction.
fn check_counted(n: usize, layout: Layout) {
    let expect = reference_permutation(&keys(n), layout);
    for threads in [1, 4] {
        let before = COUNTED_DROPS.load(SeqCst);
        let mut v: Vec<Counted> = (0..n as u64).map(Counted::new).collect();
        in_pool(threads, || {
            permute_in_place(&mut v, layout, Algorithm::CycleLeader).unwrap()
        });
        assert_eq!(
            COUNTED_DROPS.load(SeqCst),
            before,
            "{layout:?} n={n}: dropped during construction"
        );
        assert!(
            v.iter().map(|c| c.key).eq(expect.iter().copied()),
            "{layout:?} n={n} threads={threads}"
        );
        drop(v);
        assert_eq!(COUNTED_DROPS.load(SeqCst), before + n, "{layout:?} n={n}");
    }
}

/// Every element is dropped exactly once — none during construction —
/// at sizes on both sides of the 16-byte element's budget.
#[test]
fn non_copy_elements_are_moved_never_dropped() {
    let fit = (1..).take_while(|&n| fits_scratch::<Counted>(n)).last();
    let fit = fit.unwrap();
    for layout in LAYOUTS {
        for n in [fit - 1, fit, fit + 1, 2 * fit + 1, 4 * fit, 10_000] {
            check_counted(n, layout);
        }
    }
}

#[test]
fn strings() {
    let fit = (1..).take_while(|&n| fits_scratch::<String>(n)).last();
    let fit = fit.unwrap();
    for layout in LAYOUTS {
        for n in [fit, fit + 1, 3 * fit, 5000] {
            let sorted: Vec<String> = (0..n).map(|i| format!("{i:08}")).collect();
            check(&sorted, layout);
        }
    }
}

/// An element larger than the whole scratch, so every subproblem takes
/// the primitives whatever the budget.
#[derive(Clone, Debug, PartialEq)]
struct Page([u8; PAGE]);

const PAGE: usize = SCRATCH_BYTES + 64;

/// `n` pages, each marked with its key at both ends.
fn pages(n: usize) -> Vec<Page> {
    (0..n as u64)
        .map(|i| {
            let mut page = [0u8; PAGE];
            page[..8].copy_from_slice(&i.to_be_bytes());
            page[PAGE - 8..].copy_from_slice(&i.to_le_bytes());
            Page(page)
        })
        .collect()
}

#[test]
fn an_element_too_large_for_the_scratch_takes_the_primitives() {
    assert!(!fits_scratch::<Page>(1));
    for layout in LAYOUTS {
        for n in [63, 100, 300] {
            check(&pages(n), layout);
        }
    }
}

static UNIT_DROPS: AtomicUsize = AtomicUsize::new(0);

/// A zero-sized element with a drop count.
struct Unit;

impl Drop for Unit {
    fn drop(&mut self) {
        UNIT_DROPS.fetch_add(1, SeqCst);
    }
}

/// Cycle-leader construction of `n` zero-sized elements into `layout`,
/// in a one- and a four-thread pool, keeps them all and drops none.
fn check_units(n: usize, layout: Layout) {
    check(&vec![(); n], layout);
    for threads in [1, 4] {
        let before = UNIT_DROPS.load(SeqCst);
        let mut v: Vec<Unit> = (0..n).map(|_| Unit).collect();
        in_pool(threads, || {
            permute_in_place(&mut v, layout, Algorithm::CycleLeader).unwrap()
        });
        assert_eq!(v.len(), n);
        assert_eq!(UNIT_DROPS.load(SeqCst), before, "{layout:?} n={n}");
        drop(v);
        assert_eq!(UNIT_DROPS.load(SeqCst), before + n, "{layout:?} n={n}");
    }
}

#[test]
fn zero_sized_elements() {
    assert!(fits_scratch::<Unit>(usize::MAX));
    for layout in LAYOUTS {
        for n in [0usize, 1, 255, 256, 100_000] {
            check_units(n, layout);
        }
    }
}
