//! The dispatch budget of a serving tick, pinned by `ist-parallel`'s own
//! counters: **a tick never leaves its thread.**
//!
//! The regression this guards sat in the tree for thirteen PRs: every
//! batched operation of a tick dispatched per shard (and again per
//! resident run) with no size floor, so a tick of a few hundred keys per
//! shard paid dozens of thread hand-offs and the server ran 3 × slower
//! than the same binary under `IST_PARALLEL=1`. Nothing inside the
//! process could say so. Now `rayon::pool_stats()` can, and this test
//! reads it around every phase of 200 ticks of the `durable_ticks` shape
//! (1 024 operations: 40 % insert, 10 % remove, then a snapshot and
//! 30 / 12 / 8 % `batch_get` / `batch_rank` / `batch_range_count`):
//!
//! * the read half of every tick hands off nothing;
//! * a write half that seals nothing hands off nothing either (a seal
//!   may start a merge, and a merge long enough to pay for it may
//!   legitimately hand off slices — that is what the pool is for);
//! * one 65 536-key `batch_get` still hands off, when there is a second
//!   thread to hand to — the floor did not simply turn parallelism off;
//! * the process never starts more than `configured − 1` workers, and
//!   under `IST_PARALLEL=1` none, with a default pool reporting 1.
//!
//! The exception is a write to a *persistent* shard: it blocks on its
//! WAL's fsync, which the floor rule's CPU cost cannot see, so it goes
//! to the pool whatever its length and the shards' syncs overlap.
//!
//! The construction primitives follow the same rule: each of the two
//! gathers, the region swap, `Ram`'s involution round, `Ram`'s subtree
//! fan-out, the block pass of `Ram`'s extended gather and the layout
//! scatter hands off nothing just below two floors of its work (`rayon::min_task_len` at its documented
//! per-element cost), and hands off at four floors, in a two-thread
//! pool. An involution round's cost is its index arithmetic's
//! (`IndexArith::ram_cost_ns`), so a `J` round spreads at a length a
//! binary reversal round keeps. A subtree fan-out (`Ram::run_tasks`)
//! keeps its largest group of tasks on the calling thread and offers
//! the rest.
//!
//! Lives in its own integration-test binary because the counters are
//! process-wide: its tests take one lock, so nothing else dispatches
//! beside the one that reads them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use implicit_search_trees::gather::{
    equidistant_gather, equidistant_gather_chunks, gather_len, swap_regions_par,
};
use implicit_search_trees::machine::RAM_ELEM_COST_NS;
use implicit_search_trees::perm::MOVE_COST_NS;
use implicit_search_trees::{
    permute_in_place, Algorithm, IndexArith, Layout, Machine, MemVfs, QueryKind, Ram, Region,
    ShardedMap, StaticMap, StoreConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Held by every test of this binary: the counters are process-wide.
static COUNTERS: Mutex<()> = Mutex::new(());

const PRELOAD: usize = 1 << 20;
const TICKS: usize = 200;
const TICK_OPS: usize = 1024;
/// Two ticks' writes per shard: some write halves seal, some seal
/// nothing, so both kinds are exercised.
const BUFFER_CAP: usize = 512;

#[derive(Default)]
struct TickOps {
    inserts: Vec<(u64, u64)>,
    removes: Vec<u64>,
    gets: Vec<u64>,
    ranks: Vec<u64>,
    ranges: Vec<(u64, u64)>,
}

fn tick_ops(rng: &mut StdRng, tick: u64) -> TickOps {
    let mut ops = TickOps::default();
    for _ in 0..TICK_OPS {
        let key = rng.gen_range(0..2 * PRELOAD as u64);
        match rng.gen_range(0..100u32) {
            0..=39 => ops.inserts.push((key, tick)),
            40..=49 => ops.removes.push(key),
            50..=79 => ops.gets.push(key),
            80..=91 => ops.ranks.push(key),
            _ => ops.ranges.push((key, key + rng.gen_range(0..4096u64))),
        }
    }
    ops
}

fn handed_off() -> u64 {
    rayon::pool_stats().handed_off
}

#[test]
fn a_serving_tick_never_leaves_its_thread() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let configured = rayon::current_num_threads() as u64;
    let serial = std::env::var("IST_PARALLEL").is_ok_and(|v| v.trim() == "1");
    if serial {
        assert_eq!(configured, 1);
        let pool = rayon::ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(
            pool.current_num_threads(),
            1,
            "default pool under IST_PARALLEL=1"
        );
    }

    let mut rng = StdRng::seed_from_u64(0xD15_9A7C);
    let keys: Vec<u64> = (0..PRELOAD as u64)
        .map(|i| 2 * i + rng.gen_range(0..2u64))
        .collect();
    let values = keys.clone();
    let mut map: ShardedMap<u64, u64> =
        ShardedMap::build_for_kind(keys, values, QueryKind::Veb, BUFFER_CAP, 2).unwrap();
    assert_eq!(map.shard_count(), 2);

    let (mut quiet_write_halves, mut sealing_write_halves) = (0, 0);
    for tick in 0..TICKS as u64 {
        let ops = tick_ops(&mut rng, tick);

        // Write half. Background merges are drained before it starts
        // (below), so a call that leaves no sealed run and no merge in
        // flight behind sealed nothing.
        assert!(map.sealed_runs() == 0 && !map.compaction_in_flight());
        let before = handed_off();
        map.batch_insert(ops.inserts);
        map.batch_remove(&ops.removes);
        let after = handed_off();
        if map.sealed_runs() == 0 && !map.compaction_in_flight() {
            quiet_write_halves += 1;
            assert_eq!(
                after - before,
                0,
                "tick {tick}: a write half that sealed nothing handed off"
            );
        } else {
            sealing_write_halves += 1;
            // Outside every measured phase: no merge worker may still
            // be dispatching when the read half is measured.
            map.quiesce();
        }

        // Read half.
        let before = handed_off();
        let snap = map.snapshot();
        let got = snap.batch_get(&ops.gets);
        let ranks = snap.batch_rank(&ops.ranks);
        let counts = snap.batch_range_count(&ops.ranges);
        assert_eq!(
            handed_off() - before,
            0,
            "tick {tick}: the read half handed off"
        );
        assert_eq!(got.len(), ops.gets.len());
        assert_eq!(ranks.len(), ops.ranks.len());
        assert_eq!(counts.len(), ops.ranges.len());
    }
    assert!(
        quiet_write_halves >= TICKS / 8 && sealing_write_halves >= TICKS / 8,
        "both kinds of write half must occur: {quiet_write_halves} quiet, \
         {sealing_write_halves} sealing"
    );

    // A batch long enough to pay for it still spreads.
    let probes: Vec<u64> = (0..1u64 << 16)
        .map(|_| rng.gen_range(0..2 * PRELOAD as u64))
        .collect();
    let before = handed_off();
    let got = map.batch_get(&probes);
    let spread = handed_off() - before;
    for (probe, value) in probes.iter().zip(&got) {
        assert_eq!(*value, map.get(probe), "batch_get({probe})");
    }
    if configured > 1 {
        assert!(spread >= 1, "a 65 536-key batch_get stayed on one thread");
    } else {
        assert_eq!(spread, 0);
    }

    let stats = rayon::pool_stats();
    assert!(
        stats.workers_started < configured,
        "{} workers for {configured} configured threads",
        stats.workers_started
    );
    if serial {
        assert_eq!((stats.workers_started, stats.handed_off), (0, 0));
    }
}

#[test]
fn a_persistent_tick_writes_its_shards_concurrently() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let configured = rayon::current_num_threads() as u64;
    // A small map over the same key space as the ticks, so a tick's
    // writes split between the two shards.
    let keys: Vec<u64> = (0..4096u64).map(|i| i * 512).collect();
    let mut map: ShardedMap<u64, u64> =
        ShardedMap::build_for_kind(keys.clone(), keys, QueryKind::Veb, BUFFER_CAP, 2).unwrap();
    let vfs = MemVfs::new();
    map.persist_to("db", StoreConfig::with_vfs(Arc::new(vfs)))
        .unwrap();
    let ops = tick_ops(&mut StdRng::seed_from_u64(0xD15_9A7D), 0);
    for shard in 0..2 {
        assert!(
            ops.inserts.iter().any(|(k, _)| map.shard_of(k) == shard),
            "shard {shard} gets no write"
        );
    }

    let before = handed_off();
    map.batch_insert(ops.inserts);
    let moved = handed_off() - before;
    assert!(map.store_error().is_none());
    if configured > 1 {
        assert!(
            moved >= 1,
            "the persistent shards' writes stayed on one thread"
        );
    } else {
        assert_eq!(moved, 0);
    }
}

/// Hand-offs `f` makes in a two-thread pool.
fn handoffs_in_two_threads(f: impl FnOnce() + Send) -> u64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let before = handed_off();
    pool.install(f);
    handed_off() - before
}

/// `handoffs(n)` — the hand-offs a primitive makes on `n` elements of
/// work in a two-thread pool — is 0 just below two floors and, when the
/// process has a second thread, at least 1 at four floors.
fn hands_off_from_two_floors(name: &str, floor: usize, handoffs: impl Fn(usize) -> u64) {
    let below = 2 * floor - 1;
    assert_eq!(
        handoffs(below),
        0,
        "{name} handed off just below two floors ({below} elements)"
    );
    let at_four = handoffs(4 * floor);
    if rayon::current_num_threads() > 1 {
        assert!(at_four >= 1, "{name} stayed on one thread at four floors");
    } else {
        assert_eq!(at_four, 0);
    }
}

/// The largest square gather (`r = l`) of at most `n` elements in
/// `chunk`-element units.
fn square(n: usize, chunk: usize) -> usize {
    (1..)
        .take_while(|&l| gather_len(l, l) * chunk <= n)
        .last()
        .unwrap()
}

#[test]
fn construction_primitives_hand_off_only_from_their_floor() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let moves = rayon::min_task_len(MOVE_COST_NS);
    hands_off_from_two_floors("equidistant_gather", moves, |n| {
        let l = square(n, 1);
        let mut v: Vec<u64> = (0..gather_len(l, l) as u64).collect();
        handoffs_in_two_threads(|| equidistant_gather(&mut v, l, l))
    });
    hands_off_from_two_floors("equidistant_gather_chunks, 8-element chunks", moves, |n| {
        let l = square(n, 8);
        let mut v: Vec<u64> = (0..(gather_len(l, l) * 8) as u64).collect();
        handoffs_in_two_threads(|| equidistant_gather_chunks(&mut v, l, l, 8))
    });
    // The shape of the BST construction's gathers where the machine does
    // not finish them directly, r = l = 1: its only parallel path is a
    // chunk swap that fans out, and its work is the chunk.
    hands_off_from_two_floors("equidistant_gather_chunks, r = 1", moves, |chunk| {
        let mut v: Vec<u64> = (0..3 * chunk as u64).collect();
        handoffs_in_two_threads(|| equidistant_gather_chunks(&mut v, 1, 1, chunk))
    });
    hands_off_from_two_floors("swap_regions_par", moves, |len| {
        let mut v: Vec<u64> = (0..2 * len as u64).collect();
        handoffs_in_two_threads(|| swap_regions_par(&mut v, 0, len, len))
    });
    // A round's floor is its arithmetic's cost: a `J` round hands off
    // at a length where a binary digit reversal round does not. (`Ram`
    // reads only the variant, so one `Jmap` stands for every length.)
    let round = |arith: IndexArith, n: usize| {
        let mut v: Vec<u64> = (0..n as u64).collect();
        handoffs_in_two_threads(|| Ram::new(&mut v).involution_round(0, n, arith, |i| n - 1 - i))
    };
    let (rev2, jmap) = (IndexArith::Rev2 { d: 1 }, IndexArith::Jmap { len: 1 });
    let floor = |arith: IndexArith| rayon::min_task_len(arith.ram_cost_ns());
    for arith in [rev2, jmap] {
        hands_off_from_two_floors(
            &format!("Ram::involution_round, {arith:?}"),
            floor(arith),
            |n| round(arith, n),
        );
    }
    let jmap_spreads = 4 * floor(jmap);
    assert!(jmap_spreads < 2 * floor(rev2));
    assert_eq!(round(rev2, jmap_spreads), 0, "a Rev2 round handed off");
    if rayon::current_num_threads() > 1 {
        assert!(
            round(jmap, jmap_spreads) >= 1,
            "a Jmap round stayed on one thread"
        );
    }
    // A subtree fan-out of eight equal regions, whose tasks do nothing:
    // its work is the regions' elements at `RAM_ELEM_COST_NS`.
    hands_off_from_two_floors(
        "Ram::run_tasks",
        rayon::min_task_len(RAM_ELEM_COST_NS),
        |n| {
            let mut v = vec![0u8; n];
            let regions = (0..8).map(|q| Region::new(q * n / 8, (q + 1) * n / 8 - q * n / 8, ()));
            handoffs_in_two_threads(|| Ram::new(&mut v).run_tasks(regions, |_, _| {}))
        },
    );
    // A cycle-leader BST build of `n` keys: on `Ram` every extended
    // gather — the strip's, at most `n` elements, and each level's — is
    // the unit pass, whose only parallel part deals its blocks by the
    // moves of the gathered region.
    hands_off_from_two_floors("the extended gather's block pass", moves, |n| {
        let mut v: Vec<u64> = (0..n as u64).collect();
        handoffs_in_two_threads(|| {
            permute_in_place(&mut v, Layout::Bst, Algorithm::CycleLeader).unwrap()
        })
    });
    // Key-only, so the value side (`()`) moves nothing.
    hands_off_from_two_floors("the layout scatter", moves, |n| {
        let keys: Vec<u64> = (0..n as u64).collect();
        let values = vec![(); n];
        handoffs_in_two_threads(|| {
            StaticMap::build_for_kind(keys, values, QueryKind::Veb).unwrap();
        })
    });
}

/// `Ram::run_tasks` keeps its largest group of tasks on the calling
/// thread: in a two-thread pool, a `[big, small]` fan-out (the shape of
/// the B-tree strip's top level) runs the big task here and offers the
/// small one to the pool, so the caller does not sit idle while the one
/// worker works through the big one alone.
#[test]
fn a_fan_out_keeps_its_largest_task_on_the_calling_thread() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let floor = rayon::min_task_len(RAM_ELEM_COST_NS);
    let (big, small) = (8 * floor, floor);
    let mut v = vec![0u64; big + small];
    let caller = std::thread::current().id();
    // With a worker to hand to, the small task does not finish before
    // the big one has started: a big task handed off cannot be taken
    // back by a caller done with a quick small one, so it runs where it
    // was dealt. (Bounded, in case it was dealt nowhere.)
    let wait_for_big = rayon::current_num_threads() > 1;
    let big_started = AtomicBool::new(false);
    let ran_on = Mutex::new(Vec::new());
    let moved = handoffs_in_two_threads(|| {
        let tasks = [Region::new(0, big, "big"), Region::new(big, small, "small")].into_iter();
        Ram::new(&mut v).run_tasks(tasks, |_, task| {
            if task.tag == "big" {
                big_started.store(true, Ordering::SeqCst);
            } else if wait_for_big {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !big_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            let here = std::thread::current().id();
            ran_on.lock().unwrap().push((task.tag, here));
        });
    });
    let ran_on = ran_on.into_inner().unwrap();
    assert_eq!(ran_on.len(), 2);
    assert!(
        ran_on.contains(&("big", caller)),
        "the big task left the calling thread: {ran_on:?}"
    );
    if rayon::current_num_threads() > 1 {
        assert_eq!(moved, 1, "the small task was not offered to the pool");
    } else {
        assert_eq!(moved, 0);
    }
}
