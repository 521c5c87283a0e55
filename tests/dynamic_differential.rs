//! Op-sequence differential fuzz: seeded-PRNG insert / delete / query
//! sequences driven through [`DynamicMap`] and a `BTreeMap` oracle in
//! lockstep, with the **entire observable state** compared after every
//! single operation.
//!
//! What the generator stresses:
//!
//! * duplicate and re-inserted keys — a small key universe guarantees
//!   overwrites, deletes of absent keys, tombstones shadowing live
//!   versions in deeper runs, and re-inserts over tombstones;
//! * adversarial buffer/tier boundaries — buffer capacities 1, 3, and 8
//!   make merges constant and tier shapes degenerate;
//! * every query: `get`, `rank`, `lower_bound`, `successor`,
//!   `predecessor`, `range_count` (reversed bounds included), and
//!   `batch_get` at window-straddling batch lengths;
//! * snapshot coherence — a [`DynamicMap::snapshot`] taken mid-sequence
//!   must answer exactly like the live map at that instant.
//!
//! On divergence the test panics with the **seed, the configuration,
//! and the minimal op prefix that first diverges** (state is checked
//! after every op, so the first failing index is minimal); re-running
//! that seed replays it exactly.
//!
//! CI runs 3 fixed seeds; `IST_FUZZ_LONG=1` widens the sweep to 30
//! seeds with longer sequences.

use implicit_search_trees::{CrashModel, DynamicMap, FsyncPolicy, MemVfs, QueryKind, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::{Arc, Mutex, PoisonError};

/// Key universe: small, so collisions, overwrites and re-inserts are
/// the common case rather than the rare one.
const UNIVERSE: u64 = 40;

#[derive(Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    BatchInsert(Vec<(u64, u64)>),
    BatchRemove(Vec<u64>),
    Get(u64),
    Rank(u64),
    LowerBound(u64),
    Successor(u64),
    Predecessor(u64),
    RangeCount(u64, u64),
    BatchGet(Vec<u64>),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Insert(k, v) => write!(f, "insert({k}, {v})"),
            Op::Remove(k) => write!(f, "remove({k})"),
            Op::BatchInsert(pairs) => write!(f, "batch_insert({pairs:?})"),
            Op::BatchRemove(keys) => write!(f, "batch_remove({keys:?})"),
            Op::Get(k) => write!(f, "get({k})"),
            Op::Rank(k) => write!(f, "rank({k})"),
            Op::LowerBound(k) => write!(f, "lower_bound({k})"),
            Op::Successor(k) => write!(f, "successor({k})"),
            Op::Predecessor(k) => write!(f, "predecessor({k})"),
            Op::RangeCount(lo, hi) => write!(f, "range_count({lo}, {hi})"),
            Op::BatchGet(keys) => write!(f, "batch_get(len={})", keys.len()),
        }
    }
}

/// How the generator routes mutations: per-key scalar ops, or bulk
/// deltas through `batch_insert` / `batch_remove` (with intra-batch
/// duplicate keys, so last-pair-wins dedup is stressed too).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ingest {
    PerKey,
    Bulk,
}

fn gen_op(rng: &mut StdRng, op_index: usize, ingest: Ingest) -> Op {
    let key = rng.gen_range(0..UNIVERSE);
    match rng.gen_range(0..100u32) {
        // Mutation-heavy mix: versions must pile up across runs.
        0..=29 if ingest == Ingest::Bulk => {
            // Empty, singleton, and duplicate-heavy batches included.
            let len = rng.gen_range(0..8usize);
            Op::BatchInsert(
                (0..len)
                    .map(|j| {
                        let k = rng.gen_range(0..UNIVERSE);
                        (k, (op_index as u64) << 8 | j as u64)
                    })
                    .collect(),
            )
        }
        0..=29 => Op::Insert(key, op_index as u64),
        30..=49 if ingest == Ingest::Bulk => {
            let len = rng.gen_range(0..8usize);
            Op::BatchRemove((0..len).map(|_| rng.gen_range(0..UNIVERSE)).collect())
        }
        30..=49 => Op::Remove(key),
        50..=59 => Op::Get(key),
        60..=69 => Op::Rank(key),
        70..=74 => Op::LowerBound(key),
        75..=79 => Op::Successor(key),
        80..=84 => Op::Predecessor(key),
        85..=89 => {
            // Half the ranges reversed or empty on purpose.
            let other = rng.gen_range(0..UNIVERSE + 3);
            Op::RangeCount(key, other)
        }
        _ => {
            // Batch lengths straddling the pipeline window (32) and the
            // empty/singleton corners.
            let len = *[0usize, 1, 2, 31, 32, 33, 40, 64, 65]
                .get(rng.gen_range(0..9usize))
                .unwrap();
            Op::BatchGet((0..len).map(|_| rng.gen_range(0..UNIVERSE + 2)).collect())
        }
    }
}

// --- oracle-side query helpers ---

fn oracle_rank(oracle: &BTreeMap<u64, u64>, key: u64) -> usize {
    oracle.range(..key).count()
}

fn oracle_range_count(oracle: &BTreeMap<u64, u64>, lo: u64, hi: u64) -> usize {
    if lo >= hi {
        0
    } else {
        oracle.range(lo..hi).count()
    }
}

fn oracle_lower_bound(oracle: &BTreeMap<u64, u64>, key: u64) -> Option<(u64, u64)> {
    oracle.range(key..).next().map(|(k, v)| (*k, *v))
}

fn oracle_successor(oracle: &BTreeMap<u64, u64>, key: u64) -> Option<(u64, u64)> {
    oracle
        .range((Excluded(key), Unbounded))
        .next()
        .map(|(k, v)| (*k, *v))
}

fn oracle_predecessor(oracle: &BTreeMap<u64, u64>, key: u64) -> Option<(u64, u64)> {
    oracle.range(..key).next_back().map(|(k, v)| (*k, *v))
}

/// Compare the complete observable state of `map` (or a snapshot of
/// it) against the oracle: every universe key, every query, reversed
/// ranges, batched tiers.
fn check_full_state(map: &DynamicMap<u64, u64>, oracle: &BTreeMap<u64, u64>) -> Result<(), String> {
    let fail = |what: String| -> Result<(), String> { Err(what) };
    if map.len() != oracle.len() {
        return fail(format!("len: map={} oracle={}", map.len(), oracle.len()));
    }
    if map.is_empty() != oracle.is_empty() {
        return fail("is_empty disagrees".to_string());
    }
    let probes: Vec<u64> = (0..UNIVERSE + 2).chain([u64::MAX]).collect();
    for &k in &probes {
        if map.get(&k) != oracle.get(&k) {
            return fail(format!(
                "get({k}): map={:?} oracle={:?}",
                map.get(&k),
                oracle.get(&k)
            ));
        }
        if map.contains_key(&k) != oracle.contains_key(&k) {
            return fail(format!("contains_key({k}) disagrees"));
        }
        if map.rank(&k) != oracle_rank(oracle, k) {
            return fail(format!(
                "rank({k}): map={} oracle={}",
                map.rank(&k),
                oracle_rank(oracle, k)
            ));
        }
        let lb = map.lower_bound(&k).map(|(a, b)| (*a, *b));
        if lb != oracle_lower_bound(oracle, k) {
            return fail(format!(
                "lower_bound({k}): map={lb:?} oracle={:?}",
                oracle_lower_bound(oracle, k)
            ));
        }
        let succ = map.successor(&k).map(|(a, b)| (*a, *b));
        if succ != oracle_successor(oracle, k) {
            return fail(format!(
                "successor({k}): map={succ:?} oracle={:?}",
                oracle_successor(oracle, k)
            ));
        }
        let pred = map.predecessor(&k).map(|(a, b)| (*a, *b));
        if pred != oracle_predecessor(oracle, k) {
            return fail(format!(
                "predecessor({k}): map={pred:?} oracle={:?}",
                oracle_predecessor(oracle, k)
            ));
        }
    }
    // Batched tiers answer exactly like the scalar loop / oracle.
    let batch = map.batch_get(&probes);
    for (i, &k) in probes.iter().enumerate() {
        if batch[i] != oracle.get(&k) {
            return fail(format!("batch_get[{k}] disagrees with oracle get"));
        }
    }
    let ranks = map.batch_rank(&probes);
    for (i, &k) in probes.iter().enumerate() {
        if ranks[i] != oracle_rank(oracle, k) {
            return fail(format!("batch_rank[{k}] disagrees with oracle rank"));
        }
    }
    // Range pairs, reversed and empty included.
    let pairs: Vec<(u64, u64)> = (0..8)
        .flat_map(|i| {
            let lo = 5 * i;
            [(lo, lo + 7), (lo + 7, lo), (lo, lo), (0, u64::MAX)]
        })
        .collect();
    let counts = map.batch_range_count(&pairs);
    for (i, &(lo, hi)) in pairs.iter().enumerate() {
        let expect = oracle_range_count(oracle, lo, hi);
        if map.range_count(&lo, &hi) != expect {
            return fail(format!("range_count({lo},{hi}) != {expect}"));
        }
        if counts[i] != expect {
            return fail(format!("batch_range_count({lo},{hi}) != {expect}"));
        }
    }
    Ok(())
}

/// Apply one op to both sides; compare the op's own observable result.
fn apply_op(
    map: &mut DynamicMap<u64, u64>,
    oracle: &mut BTreeMap<u64, u64>,
    op: &Op,
) -> Result<(), String> {
    match op {
        Op::Insert(k, v) => {
            let replaced = map.insert(*k, *v);
            let expect = oracle.insert(*k, *v).is_some();
            if replaced != expect {
                return Err(format!("insert returned {replaced}, oracle {expect}"));
            }
        }
        Op::Remove(k) => {
            let removed = map.remove(k);
            let expect = oracle.remove(k).is_some();
            if removed != expect {
                return Err(format!("remove returned {removed}, oracle {expect}"));
            }
        }
        Op::BatchInsert(pairs) => {
            // The return counts *distinct* batch keys live before the
            // batch; applying the pairs in order gives last-pair-wins.
            let distinct: BTreeSet<u64> = pairs.iter().map(|(k, _)| *k).collect();
            let expect = distinct.iter().filter(|k| oracle.contains_key(k)).count();
            let got = map.batch_insert(pairs.clone());
            for &(k, v) in pairs {
                oracle.insert(k, v);
            }
            if got != expect {
                return Err(format!("batch_insert returned {got}, oracle {expect}"));
            }
        }
        Op::BatchRemove(keys) => {
            let distinct: BTreeSet<u64> = keys.iter().copied().collect();
            let expect = distinct.iter().filter(|k| oracle.contains_key(k)).count();
            let got = map.batch_remove(keys);
            for k in keys {
                oracle.remove(k);
            }
            if got != expect {
                return Err(format!("batch_remove returned {got}, oracle {expect}"));
            }
        }
        Op::Get(k) => {
            if map.get(k) != oracle.get(k) {
                return Err(format!(
                    "get: map={:?} oracle={:?}",
                    map.get(k),
                    oracle.get(k)
                ));
            }
        }
        Op::Rank(k) => {
            if map.rank(k) != oracle_rank(oracle, *k) {
                return Err(format!(
                    "rank: map={} oracle={}",
                    map.rank(k),
                    oracle_rank(oracle, *k)
                ));
            }
        }
        Op::LowerBound(k) => {
            let got = map.lower_bound(k).map(|(a, b)| (*a, *b));
            if got != oracle_lower_bound(oracle, *k) {
                return Err(format!(
                    "lower_bound: map={got:?} oracle={:?}",
                    oracle_lower_bound(oracle, *k)
                ));
            }
        }
        Op::Successor(k) => {
            let got = map.successor(k).map(|(a, b)| (*a, *b));
            if got != oracle_successor(oracle, *k) {
                return Err(format!(
                    "successor: map={got:?} oracle={:?}",
                    oracle_successor(oracle, *k)
                ));
            }
        }
        Op::Predecessor(k) => {
            let got = map.predecessor(k).map(|(a, b)| (*a, *b));
            if got != oracle_predecessor(oracle, *k) {
                return Err(format!(
                    "predecessor: map={got:?} oracle={:?}",
                    oracle_predecessor(oracle, *k)
                ));
            }
        }
        Op::RangeCount(lo, hi) => {
            let got = map.range_count(lo, hi);
            let expect = oracle_range_count(oracle, *lo, *hi);
            if got != expect {
                return Err(format!("range_count: map={got} oracle={expect}"));
            }
        }
        Op::BatchGet(keys) => {
            let got = map.batch_get(keys);
            for (i, k) in keys.iter().enumerate() {
                if got[i] != oracle.get(k) {
                    return Err(format!("batch_get[{k}] disagrees"));
                }
            }
        }
    }
    Ok(())
}

/// When the harness drains compaction work.
#[derive(Clone, Copy, Debug)]
enum Drain {
    /// `quiesce()` after every op: each merge installs before the next
    /// op, so tier shapes follow the op sequence alone.
    EveryOp,
    /// Never: merges overlap the op sequence and install wherever
    /// scheduling lands them.
    FreeRunning,
}

const DRAINS: [Drain; 2] = [Drain::EveryOp, Drain::FreeRunning];

impl Drain {
    fn after_op(self, map: &mut DynamicMap<u64, u64>) {
        if let Drain::EveryOp = self {
            map.quiesce();
        }
    }
}

/// Apply `op` to `map`, then drain the compaction it started.
fn settled<R>(
    map: &mut DynamicMap<u64, u64>,
    op: impl FnOnce(&mut DynamicMap<u64, u64>) -> R,
) -> R {
    let out = op(map);
    map.quiesce();
    out
}

/// Run one seeded sequence against one configuration; panic with the
/// seed and the minimal diverging prefix on failure.
///
/// Under [`Drain::FreeRunning`] merges overlap the op sequence (install
/// timing depends on scheduling), so the suite doubles as a proof that
/// mid-flight compactions never perturb an answer; the op sequence
/// itself is still seed-deterministic for replay.
fn run_sequence(seed: u64, kind: QueryKind, buffer_cap: usize, num_ops: usize, mode: Drain) {
    run_sequence_with(seed, kind, buffer_cap, num_ops, mode, Ingest::PerKey);
}

/// The full-matrix variant: an ingest route on top of the base
/// harness.
fn run_sequence_with(
    seed: u64,
    kind: QueryKind,
    buffer_cap: usize,
    num_ops: usize,
    mode: Drain,
    ingest: Ingest,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(kind, buffer_cap);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ops: Vec<Op> = Vec::with_capacity(num_ops);
    for i in 0..num_ops {
        let op = gen_op(&mut rng, i, ingest);
        ops.push(op.clone());
        let result = apply_op(&mut map, &mut oracle, &op)
            .and_then(|()| {
                mode.after_op(&mut map);
                check_full_state(&map, &oracle)
            })
            .and_then(|()| {
                if i % 32 == 7 {
                    // Snapshot coherence: a snapshot taken now answers
                    // exactly like the live map.
                    let snap = map.snapshot();
                    if snap.len() != oracle.len() {
                        return Err("snapshot len diverges from live state".into());
                    }
                    for k in 0..UNIVERSE {
                        if snap.get(&k) != oracle.get(&k) {
                            return Err(format!("snapshot get({k}) diverges"));
                        }
                    }
                }
                Ok(())
            });
        if let Err(why) = result {
            let prefix: Vec<String> = ops.iter().map(|o| format!("  {o}")).collect();
            panic!(
                "dynamic_differential diverged\n\
                 seed        = {seed:#x}\n\
                 config      = kind={kind:?} buffer_cap={buffer_cap} mode={mode:?} \
                 ingest={ingest:?}\n\
                 failure     = {why}\n\
                 minimal op prefix that first diverges ({} ops, last one diverges):\n{}",
                ops.len(),
                prefix.join("\n")
            );
        }
    }
    // Draining all deferred compaction work must not change anything
    // observable.
    map.quiesce();
    assert_eq!(map.sealed_runs(), 0);
    assert!(!map.compaction_in_flight());
    check_full_state(&map, &oracle)
        .unwrap_or_else(|why| panic!("state diverged after quiesce (seed={seed:#x}): {why}"));
}

fn kinds() -> [QueryKind; 4] {
    [
        QueryKind::Sorted,
        QueryKind::BstPrefetch,
        QueryKind::Btree(2),
        QueryKind::Veb,
    ]
}

/// Buffer capacities that keep merges constant and tier shapes
/// adversarial (cap 1 flushes every write; 3 and 8 exercise uneven
/// binomial-counter states).
const CAPS: [usize; 3] = [1, 3, 8];

/// The CI seeds (fixed: failures must reproduce byte-for-byte).
const CI_SEEDS: [u64; 3] = [0xA11CE, 0xB0B5EED, 0xC0FFEE];

#[test]
fn differential_fixed_seeds() {
    for &seed in &CI_SEEDS {
        for kind in kinds() {
            for &cap in &CAPS {
                run_sequence(seed, kind, cap, 250, Drain::EveryOp);
            }
        }
    }
}

/// The same harness with merges on the background worker: installs land
/// at scheduling-dependent points between ops, and the full observable
/// state must still match the oracle after every single op.
#[test]
fn differential_fixed_seeds_background_compaction() {
    for &seed in &CI_SEEDS {
        for kind in kinds() {
            for &cap in &[1usize, 8] {
                run_sequence(seed, kind, cap, 250, Drain::FreeRunning);
            }
        }
    }
}

/// Bulk vs per-key ingest, drained after every op and free-running —
/// full observable state vs the oracle after every op, snapshots
/// included (free-running, those land mid-merge).
#[test]
fn differential_ingest_and_mode_matrix() {
    for seed in 0xD0_11C7..0xD0_11C7 + 3u64 {
        for ingest in [Ingest::PerKey, Ingest::Bulk] {
            for mode in DRAINS {
                run_sequence_with(seed, QueryKind::Veb, 3, 200, mode, ingest);
            }
        }
    }
}

/// Bulk ingest through adversarial buffer capacities and query kinds
/// (cap 1 seals on every non-empty batch; cap 8 exercises the
/// buffer/batch linear merge repeatedly).
#[test]
fn differential_bulk_ingest_fixed_seeds() {
    for &seed in &CI_SEEDS {
        for kind in [QueryKind::Veb, QueryKind::Btree(2)] {
            for &cap in &CAPS {
                run_sequence_with(seed, kind, cap, 200, Drain::EveryOp, Ingest::Bulk);
            }
        }
    }
}

/// Serializes the tests in this binary whose work crosses a dispatch
/// floor, so the `rayon::pool_stats()` deltas one of them takes count
/// its own tasks only.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Tasks the process's dispatch sites have offered to the pool so far,
/// handed off or kept for want of a worker (`IST_PARALLEL=1` keeps all).
fn tasks_offered() -> u64 {
    let stats = rayon::pool_stats();
    stats.handed_off + stats.ran_inline
}

/// The sliced parallel merge must be **bit-identical** to the
/// sequential merge — same tier shapes, same answers. Runs here are
/// large enough that every merge actually splits into slices: each
/// round seals at least one 16 384-version run, above the two slices'
/// worth (2 × `rayon::min_task_len` at 40 ns a version, 12 500
/// versions) a merge needs, and the test asserts that every round
/// offered tasks to the pool; the fuzz sequences above stay below the
/// slicing threshold. Writes go in batches of at most 4 000 keys, below
/// the batched descent's own floor, so the merge is the only dispatch
/// site they reach. The merge takes the ambient thread count, so each
/// map's writes, and the `quiesce()` after each that drains the merge
/// the write started, are driven under a pool of its size.
#[test]
fn parallel_merge_bit_identical_to_serial() {
    let _serial_dispatch = DISPATCH.lock().unwrap_or_else(PoisonError::into_inner);
    const SPACE: u64 = 1 << 16;
    let pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    };
    let (pool1, pool4) = (pool(1), pool(4));
    let mk = || -> DynamicMap<u64, u64> { DynamicMap::with_config(QueryKind::Veb, 16_384) };
    let mut serial = mk();
    let mut parallel = mk();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0x511_CE5);
    for round in 0..4u64 {
        let offered = tasks_offered();
        let pairs: Vec<(u64, u64)> = (0..24_000u64)
            .map(|i| (rng.gen_range(0..SPACE), round * 100_000 + i))
            .collect();
        for batch in pairs.chunks(4_000) {
            let s = pool1.install(|| settled(&mut serial, |m| m.batch_insert(batch.to_vec())));
            let p = pool4.install(|| settled(&mut parallel, |m| m.batch_insert(batch.to_vec())));
            assert_eq!(s, p, "round {round} insert counts");
        }
        oracle.extend(pairs);
        let removes: Vec<u64> = (0..6_400).map(|_| rng.gen_range(0..SPACE)).collect();
        for batch in removes.chunks(3_200) {
            assert_eq!(
                pool1.install(|| settled(&mut serial, |m| m.batch_remove(batch))),
                pool4.install(|| settled(&mut parallel, |m| m.batch_remove(batch))),
                "round {round} remove counts"
            );
        }
        for k in &removes {
            oracle.remove(k);
        }
        assert!(tasks_offered() > offered, "round {round}: no merge sliced");
        // Tier shapes (run sizes per tier) must match exactly: the
        // sliced merge may not change what gets merged or its result.
        assert_eq!(
            serial.tier_versions(),
            parallel.tier_versions(),
            "round {round} tier shapes"
        );
    }
    assert_eq!(serial.len(), oracle.len());
    assert_eq!(parallel.len(), oracle.len());
    let probes: Vec<u64> = (0..SPACE).collect();
    let serial_get = serial.batch_get(&probes);
    assert_eq!(serial_get, parallel.batch_get(&probes));
    assert_eq!(serial.batch_rank(&probes), parallel.batch_rank(&probes));
    for (i, &k) in probes.iter().enumerate() {
        assert_eq!(serial_get[i], oracle.get(&k), "get({k}) vs oracle");
    }
}

/// Extended sweep: 30 seeds, longer sequences, drained and free-running,
/// plus an ingest sweep. `IST_FUZZ_LONG=1` turns it on (a
/// dedicated CI job runs it in release).
#[test]
fn differential_long_sweep() {
    if std::env::var_os("IST_FUZZ_LONG").is_none() {
        eprintln!("IST_FUZZ_LONG not set; skipping the 30-seed sweep");
        return;
    }
    for seed in 0..30u64 {
        for kind in kinds() {
            for &cap in &CAPS {
                for mode in DRAINS {
                    run_sequence(0x10_0000 + seed, kind, cap, 400, mode);
                }
            }
        }
    }
    for seed in 0..6u64 {
        for ingest in [Ingest::PerKey, Ingest::Bulk] {
            for mode in DRAINS {
                run_sequence_with(0x40_0000 + seed, QueryKind::Veb, 3, 400, mode, ingest);
            }
        }
    }
    // Persistent kill-and-restart sweep: kinds × caps × drains × fsync.
    for seed in 0..8u64 {
        for kind in [QueryKind::Veb, QueryKind::Btree(2)] {
            for &cap in &CAPS {
                for mode in DRAINS {
                    for fsync in [FsyncPolicy::Always, FsyncPolicy::Never] {
                        run_persistent_sequence(
                            0x70_0000 + seed,
                            kind,
                            cap,
                            300,
                            mode,
                            Ingest::Bulk,
                            fsync,
                        );
                    }
                }
            }
        }
    }
}

/// The persistent variant of the harness: the map lives on a [`MemVfs`]
/// store and is **killed and reopened at random points** mid-sequence
/// (power-cycle with `CrashModel::DropUnsynced` — everything that was
/// not fsynced vanishes, the strictest loss model). Under
/// [`FsyncPolicy::Always`] every applied op is durable at the op
/// boundary, so the recovered map must equal the oracle *exactly*; for
/// `FsyncPolicy::Never` the harness calls `flush()` before the kill, at
/// which point the same exactness holds. The sequence then continues on
/// the reopened map, so recovery composes with further mutation,
/// sealing, and compaction — full observable state checked after every
/// op, exactly like the volatile harness.
fn run_persistent_sequence(
    seed: u64,
    kind: QueryKind,
    buffer_cap: usize,
    num_ops: usize,
    mode: Drain,
    ingest: Ingest,
    fsync: FsyncPolicy,
) {
    let vfs = Arc::new(MemVfs::new());
    let cfg = StoreConfig::with_vfs(vfs.clone()).fsync(fsync);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(kind, buffer_cap);
    map.persist_to("db", cfg.clone()).expect("persist_to");
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut restarts = 0usize;
    let ctx = |i: usize, restarts: usize| {
        format!(
            "persistent differential (seed={seed:#x} kind={kind:?} cap={buffer_cap} \
             mode={mode:?} fsync={fsync:?} ingest={ingest:?}, op {i}, {restarts} restarts)"
        )
    };
    for i in 0..num_ops {
        let op = gen_op(&mut rng, i, ingest);
        apply_op(&mut map, &mut oracle, &op)
            .and_then(|()| {
                mode.after_op(&mut map);
                check_full_state(&map, &oracle)
            })
            .unwrap_or_else(|why| panic!("{}: {why} after {op}", ctx(i, restarts)));
        assert!(
            map.store_error().is_none(),
            "{}: store poisoned: {:?}",
            ctx(i, restarts),
            map.store_error()
        );
        // Kill-and-restart at random (seed-reproducible) points.
        if rng.gen_range(0..32u32) == 0 {
            if !matches!(fsync, FsyncPolicy::Always) {
                // Acked-but-unsynced records would (correctly) vanish
                // under DropUnsynced; flush makes the check exact.
                map.flush().expect("flush before restart");
            }
            drop(map);
            vfs.power_cycle(CrashModel::DropUnsynced);
            map = DynamicMap::open_with("db", cfg.clone())
                .unwrap_or_else(|e| panic!("{}: reopen failed: {e}", ctx(i, restarts)));
            restarts += 1;
            check_full_state(&map, &oracle)
                .unwrap_or_else(|why| panic!("{}: diverged after reopen: {why}", ctx(i, restarts)));
        }
    }
    // Draining deferred compactions goes through the durable install
    // path here; one final kill/reopen pins the quiesced state too.
    map.quiesce();
    check_full_state(&map, &oracle)
        .unwrap_or_else(|why| panic!("{}: diverged after quiesce: {why}", ctx(num_ops, restarts)));
    if !matches!(fsync, FsyncPolicy::Always) {
        map.flush().expect("final flush");
    }
    drop(map);
    vfs.power_cycle(CrashModel::DropUnsynced);
    let reopened = DynamicMap::<u64, u64>::open_with("db", cfg).expect("final reopen");
    check_full_state(&reopened, &oracle)
        .unwrap_or_else(|why| panic!("{}: final reopen diverged: {why}", ctx(num_ops, restarts)));
}

/// Kill-and-restart differential, drained and free-running, with the
/// always-fsync policy: every op is durable the moment it returns, so
/// the reopened map must equal the oracle exactly at every kill point.
#[test]
fn differential_persistent_restarts() {
    for &seed in &CI_SEEDS {
        for mode in DRAINS {
            run_persistent_sequence(
                seed,
                QueryKind::Veb,
                3,
                160,
                mode,
                Ingest::PerKey,
                FsyncPolicy::Always,
            );
        }
    }
}

/// The persistent matrix rides `FsyncPolicy::Never` (flush before
/// each kill), bulk ingest, and further query kinds — recovery must
/// compose with all of them.
#[test]
fn differential_persistent_fsync_matrix() {
    let cases = [
        (QueryKind::Veb, Ingest::Bulk, FsyncPolicy::Never),
        (QueryKind::Btree(2), Ingest::PerKey, FsyncPolicy::Never),
        (QueryKind::Sorted, Ingest::Bulk, FsyncPolicy::Always),
    ];
    for (c, (kind, ingest, fsync)) in cases.into_iter().enumerate() {
        for mode in DRAINS {
            run_persistent_sequence(
                0xD15C + c as u64,
                kind,
                if c == 0 { 1 } else { 4 },
                140,
                mode,
                ingest,
                fsync,
            );
        }
    }
}

/// Compaction outputs below the size crossover stay sorted; from it on
/// they take the map's layout (`LAYOUT_CROSSOVER_VERSIONS` in
/// `crates/dynamic/src/dynamic/run.rs`, 2^18 versions). Here a
/// bulk-loaded vEB run sits just above the crossover, and bulk writes
/// (overwrites, removes and fresh keys) seal a run that compacts into a
/// sorted tier run on top of it, then a second run that folds both into
/// the bulk run: merges of sorted and vEB sources, with outputs on both
/// sides of the crossover. Every fourth batch is checked against the
/// oracle on a key sample, and a third of the key space once the fold
/// has landed.
#[test]
fn differential_straddles_the_layout_crossover() {
    let _serial_dispatch = DISPATCH.lock().unwrap_or_else(PoisonError::into_inner);
    const CROSSOVER: usize = 1 << 18;
    let n = CROSSOVER + 1000;
    // Two buffers hold the bulk run, so it lands on tier 1: the first
    // seal compacts into tier 0 (half the crossover: sorted), and the
    // second folds tiers 0 and 1 into tier 2 (past it: vEB).
    let cap = n / 2;
    // Even keys, so writes hit bulk keys and fresh odd keys alike.
    let keys: Vec<u64> = (0..n as u64).map(|k| 2 * k).collect();
    let mut oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k)).collect();
    let mut map = DynamicMap::build_presorted(keys.clone(), keys, QueryKind::Veb, cap).unwrap();
    assert_eq!(map.tier_versions(), vec![vec![], vec![n]]);
    let space = 2 * n as u64 + 2;
    let mut rng = StdRng::seed_from_u64(0xC2055);
    let check = |map: &DynamicMap<u64, u64>, oracle: &BTreeMap<u64, u64>, probes: &[u64]| {
        let live: Vec<u64> = oracle.keys().copied().collect();
        assert_eq!(map.len(), oracle.len(), "len");
        let got = map.batch_get(probes);
        let ranks = map.batch_rank(probes);
        for (i, k) in probes.iter().enumerate() {
            assert_eq!(got[i], oracle.get(k), "batch_get({k})");
            assert_eq!(ranks[i], live.partition_point(|x| x < k), "batch_rank({k})");
        }
    };
    let mut batches = 0;
    let mut sorted_tier_seen = false;
    while !map.tier_versions()[1].is_empty() {
        batches += 1;
        assert!(batches <= 400, "no compaction reached the bulk run");
        let delta: Vec<u64> = (0..16_384).map(|_| rng.gen_range(0..space)).collect();
        if batches % 4 == 0 {
            settled(&mut map, |m| m.batch_remove(&delta));
            for k in &delta {
                oracle.remove(k);
            }
        } else {
            let pairs: Vec<(u64, u64)> = delta.iter().map(|&k| (k, k + batches)).collect();
            settled(&mut map, |m| m.batch_insert(pairs.clone()));
            oracle.extend(pairs);
        }
        sorted_tier_seen |= map.tier_versions()[0].iter().any(|&v| v < CROSSOVER);
        if batches % 4 == 1 {
            let probes: Vec<u64> = (0..256).map(|_| rng.gen_range(0..space)).collect();
            check(&map, &oracle, &probes);
        }
    }
    assert!(sorted_tier_seen, "no tier run below the crossover formed");
    let folded = map.tier_versions()[2][0];
    assert!(folded >= CROSSOVER, "the fold holds {folded} versions");
    // Every third key: even (bulk) and odd (fresh) keys alike.
    check(&map, &oracle, &(0..space).step_by(3).collect::<Vec<u64>>());
}

/// A bulk-loaded map must behave identically: start from `build` with
/// duplicate keys, then fuzz on top of the pre-populated tiers.
#[test]
fn differential_after_bulk_build() {
    for &seed in &CI_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB01D);
        let n = 120usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..UNIVERSE)).collect();
        let values: Vec<u64> = (0..n as u64).collect();
        let mut map =
            DynamicMap::build_for_kind(keys.clone(), values.clone(), QueryKind::Veb, 4).unwrap();
        // Oracle with the same last-duplicate-wins bulk semantics.
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for (k, v) in keys.into_iter().zip(values) {
            oracle.insert(k, v);
        }
        check_full_state(&map, &oracle).expect("bulk build state");
        for i in 0..150 {
            let op = gen_op(&mut rng, 1000 + i, Ingest::Bulk);
            apply_op(&mut map, &mut oracle, &op)
                .and_then(|()| check_full_state(&map, &oracle))
                .unwrap_or_else(|why| {
                    panic!("bulk-build fuzz diverged (seed={seed:#x}, op {i}): {why}")
                });
        }
    }
}
