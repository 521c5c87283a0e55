//! Allocation-count regression tests: the rebuild hot path allocates
//! once per array, in-place construction allocates nothing that grows
//! with the array, and scalar reads allocate nothing.
//!
//! `StaticMap::build_presorted` is the only construction work on
//! `DynamicMap`'s writer path (seals and tier merges both funnel into
//! it), so an accidental intermediate copy there — e.g. permuting into
//! a scratch `Vec` and then relocating into the aligned buffer — would
//! tax every compaction. The build must allocate exactly **one**
//! payload-sized buffer per array (keys, values): the aligned
//! destination the layout scatter writes into directly.
//!
//! A scalar read (`get`, `rank`, `lower_bound`, …) on a `DynamicMap`,
//! a `Frozen` or a `ShardedMap` is a buffer probe plus one descent per
//! run over state the structure already holds; staging anything on
//! the heap per call (a run list, a key vector) would tax every read.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`. Counts are per thread, so the
//! tests (and the harness) never show up in each other's.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

/// Counts the allocations each armed thread makes.
struct CountingAlloc;

thread_local! {
    /// `Some((min_size, count))` while this thread is counting its own
    /// allocations of at least `min_size` bytes; `None` = disarmed. The
    /// size gate lets the rebuild test filter out incidental small
    /// allocations (thread-spawn packets from the parallel scatter) and
    /// isolate payload-sized buffers.
    static COUNTING: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Count this thread's allocations of at least `min_size` bytes made
/// inside `f`.
fn count_allocs<R>(min_size: usize, f: impl FnOnce() -> R) -> (R, usize) {
    COUNTING.set(Some((min_size, 0)));
    let out = f();
    let (_, count) = COUNTING.replace(None).expect("armed above");
    (out, count)
}

// SAFETY: pure pass-through to `System` plus a counter — allocation
// behavior (size, alignment, validity of returned pointers) is exactly
// the system allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` under the caller's layout
    // contract, unchanged.
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        // `try_with`: allocations during thread teardown find the cell
        // gone. The cell has no destructor, so touching it never
        // allocates.
        let _ = COUNTING.try_with(|c| {
            if let Some((min_size, count)) = c.get() {
                if layout.size() >= min_size {
                    c.set(Some((min_size, count + 1)));
                }
            }
        });
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: delegates to `System.dealloc` under the caller's
    // pointer/layout contract, unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: same pointer and layout the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn rebuild_hot_path_allocates_once_per_array() {
    use implicit_search_trees::{Algorithm, QueryKind, StaticMap};

    let n = 1usize << 16;
    let payload = n * size_of::<u64>();
    let keys: Vec<u64> = (0..n as u64).collect();
    let vals: Vec<u64> = (0..n as u64).map(|x| x * 7).collect();

    for kind in [
        QueryKind::Bst,
        QueryKind::Btree(8),
        QueryKind::Btree(16),
        QueryKind::Veb,
    ] {
        let (k, v) = (keys.clone(), vals.clone()); // cloned while disarmed
        let (map, big_allocs) = count_allocs(payload, || {
            StaticMap::build_presorted(k, v, kind, Algorithm::CycleLeader)
        });
        let map = map.unwrap();
        assert_eq!(
            big_allocs, 2,
            "{kind:?}: rebuild must allocate exactly the 2 aligned destination buffers"
        );
        assert_eq!(map.len(), n);

        // Key-only: the zero-sized payload side allocates nothing, so
        // only the key buffer is new.
        let k = keys.clone();
        let (index, big_allocs) = count_allocs(payload, || {
            StaticMap::build_presorted(k, vec![(); n], kind, Algorithm::CycleLeader)
        });
        assert_eq!(
            big_allocs, 1,
            "{kind:?}: a key-only rebuild must allocate exactly the key buffer"
        );
        assert_eq!(index.unwrap().len(), n);
    }

    // The sorted (zero-copy adoption) path allocates nothing at all.
    let (k, v) = (keys.clone(), vals.clone());
    let (map, big_allocs) = count_allocs(payload, || {
        StaticMap::build_presorted(k, v, QueryKind::Sorted, Algorithm::CycleLeader)
    });
    assert_eq!(
        big_allocs, 0,
        "Sorted: zero-copy adoption must not allocate"
    );
    assert_eq!(map.unwrap().len(), n);
    let k = keys.clone();
    let (index, big_allocs) = count_allocs(payload, || {
        StaticMap::build_presorted(k, vec![(); n], QueryKind::Sorted, Algorithm::CycleLeader)
    });
    assert_eq!(
        big_allocs, 0,
        "Sorted key-only: zero-copy adoption must not allocate"
    );
    assert_eq!(index.unwrap().len(), n);
}

/// In-place means in place: constructing a layout — Chapter 5's
/// pre-pass included, so the size is ragged for every layout — makes no
/// allocation that grows with the array. A parallel construction's only
/// heap use on the calling thread is the task lists of the fan-outs it
/// deals to the pool (`O(√N)` regions for vEB, `B + 1` for the extended
/// gather) and their groups, far below a sixteenth of the payload; a
/// sequential one makes none at all
/// (`in_place_construction_seq_allocates_nothing`).
#[test]
fn in_place_construction_allocates_nothing_payload_sized() {
    use implicit_search_trees::{permute_in_place, Algorithm, Layout};

    let n = 100_000usize;
    let payload = n * size_of::<u64>();
    for layout in [Layout::Bst, Layout::Btree { b: 8 }, Layout::Veb] {
        for algorithm in Algorithm::ALL {
            let mut keys: Vec<u64> = (0..n as u64).collect();
            let (result, big_allocs) = count_allocs(payload / 16, || {
                permute_in_place(&mut keys, layout, algorithm)
            });
            result.unwrap();
            assert_eq!(big_allocs, 0, "{layout:?} {algorithm:?}");
        }
    }
}

/// A sequential construction recurses without task lists (a fan-out
/// builds one only where the machine deals it out to other threads), so
/// it makes no heap allocation of any size, for every layout and
/// algorithm, at a perfect size and at two ragged ones. At 10^6 keys
/// every extended gather — the strip's and each B-tree and BST level's —
/// is the unit pass, whose block pass, unit buffer and unit map all live
/// on the stack.
#[test]
fn in_place_construction_seq_allocates_nothing() {
    use implicit_search_trees::{permute_in_place_seq, Algorithm, Layout};

    for n in [(1usize << 16) - 1, 100_000, 1_000_000] {
        for layout in [Layout::Bst, Layout::Btree { b: 8 }, Layout::Veb] {
            for algorithm in Algorithm::ALL {
                let mut keys: Vec<u64> = (0..n as u64).collect();
                let (result, allocs) =
                    count_allocs(1, || permute_in_place_seq(&mut keys, layout, algorithm));
                result.unwrap();
                assert_eq!(allocs, 0, "n={n} {layout:?} {algorithm:?}");
            }
        }
    }
}

/// Below two floors of fan-out work (`Ram::run_tasks` at
/// `RAM_ELEM_COST_NS`: 50 000 elements) a construction deals no task
/// list even in a pool of more than one thread: every fan-out recurses
/// on the calling thread, which allocates nothing.
#[test]
fn in_place_construction_below_the_fan_out_floor_allocates_nothing() {
    use implicit_search_trees::{permute_in_place, Algorithm, Layout};

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    for n in [(1usize << 15) - 1, 40_000] {
        for layout in [Layout::Bst, Layout::Btree { b: 8 }, Layout::Veb] {
            let mut keys: Vec<u64> = (0..n as u64).collect();
            let (result, allocs) = pool.install(|| {
                count_allocs(1, || {
                    permute_in_place(&mut keys, layout, Algorithm::CycleLeader)
                })
            });
            result.unwrap();
            assert_eq!(allocs, 0, "n={n} {layout:?}");
        }
    }
}

/// Run the whole scalar read battery over `probes` and return how many
/// allocations of any size (threshold: 1 byte) it made.
macro_rules! allocs_in_scalar_reads {
    ($m:expr, $probes:expr) => {{
        let m = &$m;
        let (sink, allocs) = count_allocs(1, || {
            let mut sink = usize::from(m.is_empty()) + m.len();
            for k in $probes {
                sink += usize::from(m.get(&k).is_some())
                    + usize::from(m.contains_key(&k))
                    + m.rank(&k)
                    + m.range_count(&k, &(k + 7))
                    + usize::from(m.lower_bound(&k).is_some())
                    + usize::from(m.successor(&k).is_some())
                    + usize::from(m.predecessor(&k).is_some());
            }
            sink
        });
        std::hint::black_box(sink);
        allocs
    }};
}

#[test]
fn scalar_reads_allocate_nothing() {
    use implicit_search_trees::{DynamicMap, QueryKind, ShardedMap};

    // Compaction drained after every write and seven seals at cap 8
    // (binary 111: one run in each of tiers 0, 1 and 2 — six from the
    // inserts, the seventh from the first four tombstones), a
    // part-filled buffer, and tombstones so the order queries walk past
    // dead versions.
    let mut m: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 8);
    for k in 0..52u64 {
        m.insert(3 * k, k);
        m.quiesce();
    }
    for k in (0..52u64).step_by(5) {
        m.remove(&(3 * k));
        m.quiesce();
    }
    assert!(m.run_count() >= 3, "{} runs", m.run_count());
    assert!(m.buffered_versions() > 0);
    assert_eq!(
        allocs_in_scalar_reads!(m, 0..160u64),
        0,
        "DynamicMap scalar reads must not allocate"
    );

    let snap = m.snapshot();
    assert_eq!(
        allocs_in_scalar_reads!(snap, 0..160u64),
        0,
        "Frozen scalar reads must not allocate"
    );

    let mut sharded: ShardedMap<u64, u64> =
        ShardedMap::with_splits_config(vec![45], QueryKind::Veb, 8);
    for k in 0..60u64 {
        sharded.insert(3 * k % 91, k);
        sharded.quiesce();
    }
    assert_eq!(sharded.shard_count(), 2);
    assert_eq!(
        allocs_in_scalar_reads!(sharded, 0..100u64),
        0,
        "ShardedMap scalar reads must not allocate"
    );
}

/// A vEB descent steers by a per-depth table that is a compile-time
/// constant, so building the navigator — which `Searcher` does per point
/// query — and building a `Searcher` itself, from the slice alone,
/// allocate nothing either. The tree is deep enough (12 levels) for the
/// descent to use five of its saved-position slots.
#[test]
fn veb_scalar_descents_allocate_nothing() {
    use implicit_search_trees::{permute_in_place, Algorithm, Layout, QueryKind, Searcher};

    let mut v: Vec<u64> = (0..5000u64).map(|x| 3 * x).collect();
    permute_in_place(&mut v, Layout::Veb, Algorithm::CycleLeader).unwrap();
    let s = Searcher::new(&v, QueryKind::Veb);
    let (hits, allocs) = count_allocs(1, || {
        let mut hits = 0usize;
        for k in 0..15_010u64 {
            hits += usize::from(s.search(&k).is_some())
                + usize::from(Searcher::new(&v, QueryKind::Veb).search(&k).is_some())
                + (s.land::<true>(&k).rank - s.rank(&k));
        }
        hits
    });
    assert_eq!(hits, 3 * 5000);
    assert_eq!(
        allocs, 0,
        "vEB get / rank / Searcher::new must not allocate"
    );
}

/// A batch below the dispatch floor (`rayon::min_task_len`) runs on the
/// calling thread, and deciding so costs no allocation. A `StaticMap`
/// batch allocates exactly its result vector. A `Frozen` batch also
/// stages its run cascade on the heap — a pending list, a probe list
/// and the slice each run's landings are written into, all three
/// reused by every run — which is not dispatch: it must allocate
/// exactly that, whatever the run count, as it does under a one-thread
/// pool, where nothing can be dispatched at all.
///
/// The first call into the parallel runtime pays its one-time
/// initialisation (resolving the thread count, starting the pool), so
/// every counted region follows an uncounted warm-up call: the test
/// then passes alone as well as after the others.
#[test]
fn sub_floor_batch_reads_allocate_nothing_for_dispatch() {
    use implicit_search_trees::{Algorithm, QueryKind, StaticMap};

    // Longer than the 128-query chunk the engine once split at.
    let probes: Vec<u64> = (0..160u64).collect();

    let keys: Vec<u64> = (0..5000u64).map(|x| 3 * x).collect();
    let map =
        StaticMap::build_presorted(keys.clone(), keys, QueryKind::Veb, Algorithm::CycleLeader)
            .unwrap();
    let hits = || map.batch_get(&probes).iter().flatten().count();
    hits();
    let (hits, allocs) = count_allocs(1, hits);
    assert_eq!(hits, 54);
    assert_eq!(allocs, 1, "StaticMap::batch_get: the result vector only");

    // Six seals at cap 8: binary 110, one run in each of tiers 1 and 2;
    // fifteen: binary 1111, one in each of tiers 0 to 3. Most probes
    // miss everywhere, so every run is consulted.
    for (inserts, runs, stored) in [(52u64, 2, 52), (124, 4, 54)] {
        let m = map_of_runs(inserts, runs);
        let snap = m.snapshot();
        let hits = || snap.batch_get(&probes).iter().flatten().count();
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let (serial_hits, serial_allocs) = one_thread.install(|| {
            hits();
            count_allocs(1, hits)
        });
        hits();
        let (hits, allocs) = count_allocs(1, hits);
        assert_eq!((hits, serial_hits), (stored, stored), "{runs} runs");
        assert_eq!(
            allocs, 4,
            "Frozen::batch_get over {runs} runs: result, pending, probe and landing slice"
        );
        assert_eq!(
            allocs, serial_allocs,
            "Frozen::batch_get: dispatching a sub-floor batch must cost no allocation"
        );
    }
}

/// A `DynamicMap` over `3k → k` for `k < inserts` at buffer cap 8,
/// compaction drained after every write, holding exactly `runs` runs.
fn map_of_runs(inserts: u64, runs: usize) -> implicit_search_trees::DynamicMap<u64, u64> {
    use implicit_search_trees::{DynamicMap, QueryKind};
    let mut m: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 8);
    for k in 0..inserts {
        m.insert(3 * k, k);
        m.quiesce();
    }
    assert_eq!(m.run_count(), runs, "{inserts} inserts");
    m
}

/// `DynamicMap::apply` resolves a delta's run weights with one landing
/// sweep per run, each adding into one weight vector, over references
/// to the delta's keys: no per-run vector and no key clone, so a
/// sub-floor delta allocates as much on a map of 4 runs as on one of
/// 2. Both maps hold 4 buffered entries, and the delta (a tombstone
/// for a run key, two fresh keys) leaves the buffer below its cap, so
/// neither call seals.
#[test]
fn apply_allocates_the_same_whatever_the_run_count() {
    let delta = || vec![(0u64, None), (1000, Some(1)), (1001, Some(2))];
    let allocs: Vec<usize> = [(52u64, 2), (124, 4)]
        .into_iter()
        .map(|(inserts, runs)| {
            let mut m = map_of_runs(inserts, runs);
            m.batch_get(&[0u64]); // the runtime's one-time initialisation, uncounted
            assert_eq!(m.buffered_versions(), 4, "{runs} runs");
            let d = delta();
            let (live, allocs) = count_allocs(1, || m.apply(d));
            assert_eq!(live, 1, "{runs} runs: only key 0 was live");
            assert_eq!(m.buffered_versions(), 7, "{runs} runs: no seal");
            assert_eq!(m.run_count(), runs);
            allocs
        })
        .collect();
    assert_eq!(allocs[0], allocs[1], "apply on 2 runs vs 4 runs");
}

/// `Frozen::batch_range_count` keeps one running weight per pair: the
/// buffer's share, then each run's `prefix[rank(hi)] − prefix[rank(lo)]`
/// added inside that run's pair window. So it stages nothing per
/// endpoint — no list of both endpoints, no accumulator of 2n ranks —
/// and makes no allocation as large as 2n words: the one per-pair
/// accumulator and the result are n words each.
#[test]
fn frozen_batch_range_count_stages_nothing_per_endpoint() {
    let pairs = 4096usize;
    let ranges: Vec<(u64, u64)> = (0..pairs as u64)
        .map(|i| {
            let lo = (i * 37) % 400;
            let hi = lo + i % 50;
            if i % 7 == 0 {
                (hi, lo) // reversed: counts 0
            } else {
                (lo, hi)
            }
        })
        .collect();
    let payload = 16 * pairs;
    for (inserts, runs) in [(52u64, 2), (124, 4)] {
        let m = map_of_runs(inserts, runs);
        let snap = m.snapshot();
        let count = || snap.batch_range_count(&ranges);
        let want: Vec<usize> = ranges
            .iter()
            .map(|(lo, hi)| snap.range_count(lo, hi))
            .collect();
        assert_eq!(count(), want, "{runs} runs");
        let (got, allocs) = count_allocs(payload, count);
        assert_eq!(got, want, "{runs} runs");
        assert_eq!(
            allocs, 0,
            "Frozen::batch_range_count over {runs} runs: an allocation of 2n words or more"
        );
    }
}

/// `StaticMap::batch_get` allocates once per call, and only its
/// answers: every chunk writes its payload references straight into
/// the result vector. Collecting them from a position vector instead
/// would allocate that vector first — twice the answers' size, since an
/// `Option<usize>` is two words — and reuse or copy it.
#[test]
fn static_batch_get_allocates_only_its_answers() {
    use implicit_search_trees::{QueryKind, StaticMap};

    // Below the dispatch floor, so the whole call runs on this thread.
    let probes: Vec<u64> = (0..160u64).collect();
    let keys: Vec<u64> = (0..5000u64).map(|x| 3 * x).collect();
    let answers = probes.len() * size_of::<Option<&u64>>();
    for kind in [
        QueryKind::Sorted,
        QueryKind::Bst,
        QueryKind::Btree(8),
        QueryKind::Veb,
    ] {
        let map = StaticMap::build_for_kind(keys.clone(), keys.clone(), kind).unwrap();
        let get = || map.batch_get(&probes).iter().flatten().count();
        get(); // the runtime's one-time initialisation, uncounted
        let (hits, allocs) = count_allocs(1, get);
        assert_eq!(hits, 54, "{kind:?}");
        assert_eq!(allocs, 1, "{kind:?}: one allocation per call");
        let (_, larger) = count_allocs(answers + 1, get);
        assert_eq!(larger, 0, "{kind:?}: nothing larger than the answers");
    }
}
