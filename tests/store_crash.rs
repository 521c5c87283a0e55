//! Crash and corruption fault injection for the durability layer.
//!
//! The harness drives a deterministic workload against a persistent
//! [`DynamicMap`] on [`MemVfs`] and kills the write stream at every
//! byte offset of the schedule (strided in the default run; byte-exact
//! under `IST_FUZZ_LONG=1`), under both disk models ([`CrashModel`]):
//! `Torn` keeps unsynced bytes, `DropUnsynced` rolls every file back to
//! its last fsync. After each simulated power cycle the directory is
//! reopened and the recovered state must be **exactly** the committed
//! prefix `committed[j]` for some `j` in `[acked, attempted]`:
//!
//! * never less than `acked` — an acknowledged (fsynced) write is never
//!   lost, the core durability promise;
//! * never more than `attempted` — recovery cannot fabricate writes;
//! * never a state outside the committed sequence — no torn mixtures.
//!
//! A second sweep crashes the *recovery itself* at every offset and
//! reopens again: recovery must be idempotent under repeated crashes.
//! Corruption injection (bit flips and truncations over every file of a
//! cleanly-closed store) must yield a typed [`StoreError`] or a valid
//! committed state — never a panic, never an invented state.
//!
//! A last sweep power-cuts a two-shard [`ShardedMap`], whose shards log
//! each tick's sub-deltas concurrently: every shard must recover to a
//! committed prefix of its own record sequence. A closing test counts
//! records: a mixed `apply` logs one per shard it touches.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use implicit_search_trees::store::{shard_dir_name, Manifest};
use implicit_search_trees::{
    CrashModel, DynamicMap, FsyncPolicy, MemVfs, QueryKind, ShardedMap, StoreConfig,
};

/// Small key universe: overwrites, deletes of absent keys, and
/// re-inserts over tombstones are the common case.
const UNIVERSE: u64 = 24;
/// Tiny buffer: the workload crosses many seals and compactions and,
/// with the WAL checkpointed every few dozen buffers' worth of
/// entries, several checkpoints, so the sweep crashes inside every
/// step of the checkpoint protocol.
const CAP: usize = 4;
/// Workload length of the crash sweeps: long enough for the dry run to
/// cross at least three runtime checkpoints (asserted).
const SWEEP_OPS: usize = 600;
/// Keys inserted before `persist_to` — a multiple of `CAP`, so the
/// buffer is empty at persist time and the WAL-record count maps 1:1
/// onto workload ops (asserted in the dry run).
const PREPOP: u64 = 8;

fn long_mode() -> bool {
    std::env::var_os("IST_FUZZ_LONG").is_some()
}

/// One workload step == exactly one WAL record (batches are single
/// records; none are empty).
#[derive(Debug, Clone)]
enum Wop {
    Put(u64, u64),
    Del(u64),
    BatchPut(Vec<(u64, u64)>),
    BatchDel(Vec<u64>),
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Deterministic mixed workload: scalar puts/deletes with periodic
/// multi-key batches (which log one delta record each).
fn workload(n: usize, seed: u64) -> Vec<Wop> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let k = lcg(&mut s) % UNIVERSE;
            match lcg(&mut s) % 10 {
                0..=4 => Wop::Put(k, i as u64),
                5..=7 => Wop::Del(k),
                8 => Wop::BatchPut(
                    (0..3)
                        .map(|j| (lcg(&mut s) % UNIVERSE, ((i as u64) << 8) | j))
                        .collect(),
                ),
                _ => Wop::BatchDel((0..3).map(|_| lcg(&mut s) % UNIVERSE).collect()),
            }
        })
        .collect()
}

/// Apply `op`, then drain the compaction it started: the workload's
/// tier shapes, and so its write schedule, follow the ops alone.
fn apply_map(map: &mut DynamicMap<u64, u64>, op: &Wop) {
    match op {
        Wop::Put(k, v) => {
            map.insert(*k, *v);
        }
        Wop::Del(k) => {
            map.remove(k);
        }
        Wop::BatchPut(pairs) => {
            map.batch_insert(pairs.clone());
        }
        Wop::BatchDel(keys) => {
            map.batch_remove(keys);
        }
    }
    map.quiesce();
}

fn apply_oracle(oracle: &mut BTreeMap<u64, u64>, op: &Wop) {
    match op {
        Wop::Put(k, v) => {
            oracle.insert(*k, *v);
        }
        Wop::Del(k) => {
            oracle.remove(k);
        }
        Wop::BatchPut(pairs) => {
            for (k, v) in pairs {
                oracle.insert(*k, *v);
            }
        }
        Wop::BatchDel(keys) => {
            for k in keys {
                oracle.remove(k);
            }
        }
    }
}

/// `committed[j]` = the exact live state after the prepopulation plus
/// the first `j` workload records.
fn committed_states(ops: &[Wop]) -> Vec<BTreeMap<u64, u64>> {
    let mut oracle: BTreeMap<u64, u64> = (0..PREPOP).map(|k| (k, k)).collect();
    let mut states = Vec::with_capacity(ops.len() + 1);
    states.push(oracle.clone());
    for op in ops {
        apply_oracle(&mut oracle, op);
        states.push(oracle.clone());
    }
    states
}

fn cfg_on(vfs: &MemVfs, fsync: FsyncPolicy) -> StoreConfig {
    StoreConfig::with_vfs(Arc::new(vfs.clone())).fsync(fsync)
}

/// What one workload run observed before the injected crash (if any).
struct Drive {
    /// `persist_to` returned `Ok`: the initial manifest is durable and
    /// every later crash must leave a recoverable directory.
    persist_ok: bool,
    /// Records whose logging was attempted (the op that hit the poison
    /// included) — the recovery upper bound.
    attempted: usize,
    /// Crash-durable records per the engine — the recovery lower bound.
    acked: u64,
}

/// Under `FsyncPolicy::Never`, `drive` flushes the WAL after every
/// this-many ops, so each crash point leaves between 0 and 2 applied
/// records unsynced.
const NEVER_FLUSH_EVERY: usize = 3;

/// Run prepopulation + persist + workload until completion or until the
/// armed write budget kills the store. Never panics: a poisoned sink
/// rejects writes, it does not abort.
fn drive(vfs: &MemVfs, fsync: FsyncPolicy, ops: &[Wop]) -> Drive {
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
    for k in 0..PREPOP {
        apply_map(&mut map, &Wop::Put(k, k));
    }
    if map.persist_to("db", cfg_on(vfs, fsync)).is_err() {
        return Drive {
            persist_ok: false,
            attempted: 0,
            acked: 0,
        };
    }
    assert_eq!(
        map.acked_records(),
        0,
        "buffer must be empty at persist (PREPOP a multiple of CAP), \
         so records map 1:1 onto workload ops"
    );
    for (i, op) in ops.iter().enumerate() {
        apply_map(&mut map, op);
        if fsync == FsyncPolicy::Never && (i + 1) % NEVER_FLUSH_EVERY == 0 {
            // A failed flush poisons the store, caught just below.
            let _ = map.flush();
        }
        if map.store_error().is_some() {
            return Drive {
                persist_ok: true,
                attempted: i + 1,
                acked: map.acked_records(),
            };
        }
    }
    Drive {
        persist_ok: true,
        attempted: ops.len(),
        acked: map.acked_records(),
    }
}

/// Extract the full live state of a recovered map.
fn state_of(map: &DynamicMap<u64, u64>) -> BTreeMap<u64, u64> {
    (0..UNIVERSE + 8)
        .filter_map(|k| map.get(&k).map(|v| (k, *v)))
        .collect()
}

/// Assert `map` is exactly `committed[j]` for some `j` in `[lo, hi]`,
/// including order statistics (which exercise the recovered weight
/// prefixes, not just the key/value sections). Returns `j`.
fn assert_committed_state(
    map: &DynamicMap<u64, u64>,
    committed: &[BTreeMap<u64, u64>],
    lo: usize,
    hi: usize,
    ctx: &str,
) -> usize {
    let got = state_of(map);
    let Some(j) = (lo..=hi).find(|&j| committed[j] == got) else {
        panic!(
            "{ctx}: recovered state matches no committed prefix in [{lo}, {hi}]\n\
             recovered ({} keys) = {got:?}\n\
             committed[{lo}] = {:?}\ncommitted[{hi}] = {:?}",
            got.len(),
            committed[lo],
            committed[hi]
        );
    };
    let oracle = &committed[j];
    assert_eq!(map.len(), oracle.len(), "{ctx}: len at j={j}");
    for k in 0..UNIVERSE + 2 {
        assert_eq!(
            map.rank(&k),
            oracle.range(..k).count(),
            "{ctx}: rank({k}) at j={j}"
        );
        assert_eq!(
            map.successor(&k).map(|(a, b)| (*a, *b)),
            oracle
                .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                .next()
                .map(|(a, b)| (*a, *b)),
            "{ctx}: successor({k}) at j={j}"
        );
    }
    j
}

/// Kill the write stream at byte offset `budget`, power-cycle under
/// `model`, reopen, and check the recovery contract.
fn run_one_crash(
    budget: u64,
    model: CrashModel,
    fsync: FsyncPolicy,
    ops: &[Wop],
    committed: &[BTreeMap<u64, u64>],
) {
    let vfs = MemVfs::new();
    vfs.set_write_budget(Some(budget));
    let d = drive(&vfs, fsync, ops);
    vfs.power_cycle(model);
    let ctx = format!("budget={budget} model={model:?} fsync={fsync:?}");
    match DynamicMap::<u64, u64>::open_with("db", cfg_on(&vfs, fsync)) {
        Ok(mut rec) => {
            assert!(
                d.persist_ok,
                "{ctx}: open succeeded though persist_to never completed"
            );
            assert!(rec.store_error().is_none(), "{ctx}: recovered map poisoned");
            let acked = usize::try_from(d.acked).unwrap();
            assert!(acked <= d.attempted, "{ctx}: acked beyond attempted");
            assert_committed_state(&rec, committed, acked, d.attempted, &ctx);
            // The recovered map must keep working (and keep logging).
            rec.insert(UNIVERSE + 100, 1);
            assert_eq!(
                rec.get(&(UNIVERSE + 100)),
                Some(&1),
                "{ctx}: post-open write"
            );
            assert!(rec.store_error().is_none(), "{ctx}: post-open poison");
        }
        Err(e) => {
            // Only acceptable before the first manifest ever landed: no
            // write was acknowledged yet, so nothing was lost.
            assert!(
                !d.persist_ok,
                "{ctx}: open failed after a durable persist: {e}"
            );
        }
    }
}

fn sweep(model: CrashModel, fsync: FsyncPolicy, seed: u64) {
    let ops = workload(SWEEP_OPS, seed);
    let committed = committed_states(&ops);
    // Dry run (failpoint disarmed) measures the schedule's write volume
    // and validates the record accounting the sweep depends on.
    let dry = MemVfs::new();
    let d = drive(&dry, fsync, &ops);
    assert!(d.persist_ok && d.attempted == ops.len(), "dry run crashed");
    if fsync == FsyncPolicy::Always {
        assert_eq!(
            d.acked,
            ops.len() as u64,
            "with fsync=always every completed record is acked"
        );
    }
    let wal_seq = Manifest::read(&dry, Path::new("db")).unwrap().wal_seq;
    assert!(
        wal_seq >= 4,
        "persist_to plus at least three runtime checkpoints; WAL {wal_seq} is live"
    );
    let total = dry.total_written();
    let stride = if long_mode() {
        1
    } else {
        (total / 1000).max(1)
    };
    let mut budget = 0u64;
    while budget <= total {
        run_one_crash(budget, model, fsync, &ops, &committed);
        budget += stride;
    }
}

#[test]
fn crash_sweep_torn_fsync_always() {
    sweep(CrashModel::Torn, FsyncPolicy::Always, 0xC0A5);
}

#[test]
fn crash_sweep_drop_unsynced_fsync_always() {
    sweep(CrashModel::DropUnsynced, FsyncPolicy::Always, 0xC0A5);
}

/// No fsync on append, an explicit `flush()` every
/// [`NEVER_FLUSH_EVERY`] ops: unacked records may be lost
/// (DropUnsynced) or survive (Torn) — recovery must land inside exactly
/// that window.
#[test]
fn crash_sweep_torn_fsync_never_flush_every_3() {
    sweep(CrashModel::Torn, FsyncPolicy::Never, 0xE7E7);
}

#[test]
fn crash_sweep_drop_unsynced_fsync_never_flush_every_3() {
    sweep(CrashModel::DropUnsynced, FsyncPolicy::Never, 0xE7E7);
}

/// Crash the *recovery* at every byte offset, then recover again: the
/// open path (WAL checkpoint + manifest rotation + cleanup) must be
/// idempotent under repeated crashes, and the doubly-recovered state
/// must satisfy the same `[acked, attempted]` contract as the first.
#[test]
fn recovery_is_idempotent_under_repeated_crashes() {
    let fsync = FsyncPolicy::Always;
    let ops = workload(48, 0xD0B1E);
    let committed = committed_states(&ops);
    // First crash: kill the workload two-thirds through its schedule.
    let dry = MemVfs::new();
    let full = drive(&dry, fsync, &ops);
    assert!(full.persist_ok);
    let first_budget = dry.total_written() * 2 / 3;

    let vfs = MemVfs::new();
    vfs.set_write_budget(Some(first_budget));
    let d = drive(&vfs, fsync, &ops);
    assert!(d.persist_ok, "2/3 budget must outlive persist_to");
    vfs.power_cycle(CrashModel::Torn);
    let wounded = vfs.dump();
    let acked = usize::try_from(d.acked).unwrap();

    // Measure how many bytes a clean recovery writes.
    let before = vfs.total_written();
    drop(DynamicMap::<u64, u64>::open_with("db", cfg_on(&vfs, fsync)).expect("clean recovery"));
    let recovery_bytes = vfs.total_written() - before;

    let stride = if long_mode() {
        1
    } else {
        (recovery_bytes / 300).max(1)
    };
    let mut budget = 0u64;
    while budget <= recovery_bytes {
        vfs.restore(&wounded);
        vfs.set_write_budget(Some(budget));
        let ctx = format!("recovery crash at budget={budget}");
        match DynamicMap::<u64, u64>::open_with("db", cfg_on(&vfs, fsync)) {
            Ok(rec) => {
                // Budget outlived the checkpoint: a complete recovery.
                assert_committed_state(&rec, &committed, acked, d.attempted, &ctx);
            }
            Err(_) => {
                // Recovery died mid-checkpoint; the next attempt must
                // still succeed and land in the same window.
                vfs.power_cycle(CrashModel::Torn);
                let rec = DynamicMap::<u64, u64>::open_with("db", cfg_on(&vfs, fsync))
                    .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
                assert_committed_state(&rec, &committed, acked, d.attempted, &ctx);
            }
        }
        budget += stride;
    }
}

/// A cleanly-flushed store whose every file is then corrupted in place.
fn clean_store(fsync: FsyncPolicy) -> (MemVfs, Vec<BTreeMap<u64, u64>>) {
    let ops = workload(48, 0xF11F);
    let committed = committed_states(&ops);
    let vfs = MemVfs::new();
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
    for k in 0..PREPOP {
        apply_map(&mut map, &Wop::Put(k, k));
    }
    map.persist_to("db", cfg_on(&vfs, fsync)).unwrap();
    for op in &ops {
        apply_map(&mut map, op);
    }
    assert!(map.store_error().is_none());
    map.flush().unwrap();
    (vfs, committed)
}

/// Property shared by both corruptors: open yields a typed error or a
/// valid committed state — never a panic, never an invented state.
fn check_corrupted_open(vfs: &MemVfs, committed: &[BTreeMap<u64, u64>], ctx: &str) {
    if let Ok(rec) = DynamicMap::<u64, u64>::open_with("db", cfg_on(vfs, FsyncPolicy::Always)) {
        // E.g. a flip in the WAL tail that mimics a torn record: the
        // recovered state must still be SOME committed prefix.
        assert_committed_state(&rec, committed, 0, committed.len() - 1, ctx);
    }
}

#[test]
fn bit_flips_yield_typed_errors_or_valid_states() {
    let (vfs, committed) = clean_store(FsyncPolicy::Always);
    let snapshot = vfs.dump();
    // Coprime stride walks every bit position class across files.
    let stride = if long_mode() { 1 } else { 13 };
    for (path, bytes) in &snapshot {
        let mut bit = 0u64;
        while bit < bytes.len() as u64 * 8 {
            vfs.restore(&snapshot);
            assert!(vfs.flip_bit(path, bit), "flip in range");
            check_corrupted_open(
                &vfs,
                &committed,
                &format!("flip bit {bit} of {}", path.display()),
            );
            bit += stride;
        }
    }
}

#[test]
fn truncations_yield_typed_errors_or_valid_states() {
    let (vfs, committed) = clean_store(FsyncPolicy::Always);
    let snapshot = vfs.dump();
    let stride = if long_mode() { 1 } else { 17 };
    for (path, bytes) in &snapshot {
        let len = bytes.len() as u64;
        let mut cuts: Vec<u64> = (0..len).step_by(stride).collect();
        cuts.extend([0, 1, len.saturating_sub(1)]);
        for cut in cuts {
            vfs.restore(&snapshot);
            assert!(vfs.truncate(path, cut), "cut in range");
            check_corrupted_open(
                &vfs,
                &committed,
                &format!("truncate {} to {cut}", path.display()),
            );
        }
    }
}

/// The poison latch: after the store dies, mutations are rejected (not
/// applied, not panicking), reads keep answering from memory, and the
/// error is reported until the map is reopened.
#[test]
fn poisoned_store_rejects_writes_and_keeps_reads() {
    let vfs = MemVfs::new();
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
    map.persist_to("db", cfg_on(&vfs, FsyncPolicy::Always))
        .unwrap();
    for k in 0..6u64 {
        assert!(!map.insert(k, k));
        map.quiesce();
    }
    let len_before = map.len();
    // Kill the disk permanently (budget 0, never power-cycled).
    vfs.set_write_budget(Some(0));
    assert!(!map.insert(100, 1), "rejected write must report no-replace");
    assert!(map.store_error().is_some(), "first failure latches");
    assert_eq!(map.len(), len_before, "rejected write was not applied");
    assert!(!map.remove(&0), "removes rejected too");
    assert_eq!(map.batch_insert(vec![(101, 1), (102, 2)]), 0);
    assert_eq!(map.len(), len_before);
    assert_eq!(map.get(&0), Some(&0), "reads still served from memory");
    assert!(map.flush().is_err(), "flush surfaces the latched error");
    // acked_records stays frozen at the pre-poison watermark.
    assert_eq!(map.acked_records(), 6);
}

// ---------------------------------------------------------------------
// Sharded power cut: two persistent shards written concurrently.
// ---------------------------------------------------------------------

/// Shard 0 owns keys below the split, shard 1 the rest.
const SPLIT: u64 = UNIVERSE / 2;
const SHARDED_TICKS: usize = 120;

/// One tick's writes, each applied to the map as one bulk call.
struct Tick {
    inserts: Vec<(u64, u64)>,
    removes: Vec<u64>,
}

fn sharded_ticks(seed: u64) -> Vec<Tick> {
    let mut s = seed;
    (0..SHARDED_TICKS as u64)
        .map(|t| Tick {
            inserts: (0..8)
                .map(|j| (lcg(&mut s) % UNIVERSE, (t << 8) | j))
                .collect(),
            removes: (0..3).map(|_| lcg(&mut s) % UNIVERSE).collect(),
        })
        .collect()
}

fn shard_of(key: u64) -> usize {
    usize::from(key >= SPLIT)
}

/// One shard's committed states: `states[j]` is the shard after the
/// prepopulation and its first `j` WAL records — one per bulk call
/// that routed at least one key to it.
fn shard_states(shard: usize, ticks: &[Tick]) -> Vec<BTreeMap<u64, u64>> {
    let mut live: BTreeMap<u64, u64> = sharded_prepop()
        .into_iter()
        .filter(|&(k, _)| shard_of(k) == shard)
        .collect();
    let mut states = vec![live.clone()];
    for tick in ticks {
        let mut inserts = tick.inserts.iter().filter(|(k, _)| shard_of(*k) == shard);
        if let Some(first) = inserts.next() {
            live.extend(std::iter::once(first).chain(inserts).copied());
            states.push(live.clone());
        }
        let mut removes = tick.removes.iter().filter(|&&k| shard_of(k) == shard);
        if let Some(first) = removes.next() {
            for k in std::iter::once(first).chain(removes) {
                live.remove(k);
            }
            states.push(live.clone());
        }
    }
    states
}

/// Keys written before `persist_to`: `CAP` per shard, so both shards
/// persist a run.
fn sharded_prepop() -> Vec<(u64, u64)> {
    (0..UNIVERSE).step_by(3).map(|k| (k, k)).collect()
}

/// What a sharded run observed: per shard, the records of the calls
/// that returned with the store healthy (acked, under fsync=always) and
/// the records attempted, the failing call's included.
struct ShardedDrive {
    persist_ok: bool,
    healthy: [usize; 2],
    attempted: [usize; 2],
    acked: u64,
}

fn drive_sharded(vfs: &MemVfs, ticks: &[Tick]) -> ShardedDrive {
    let mut map: ShardedMap<u64, u64> =
        ShardedMap::with_splits_config(vec![SPLIT], QueryKind::Veb, CAP);
    map.batch_insert(sharded_prepop());
    map.quiesce();
    let mut d = ShardedDrive {
        persist_ok: false,
        healthy: [0; 2],
        attempted: [0; 2],
        acked: 0,
    };
    if map
        .persist_to("db", cfg_on(vfs, FsyncPolicy::Always))
        .is_err()
    {
        return d;
    }
    d.persist_ok = true;
    for tick in ticks {
        let inserted: Vec<u64> = tick.inserts.iter().map(|&(k, _)| k).collect();
        for (keys, insert) in [(&inserted, true), (&tick.removes, false)] {
            for (shard, attempted) in d.attempted.iter_mut().enumerate() {
                *attempted += usize::from(keys.iter().any(|&k| shard_of(k) == shard));
            }
            if insert {
                map.batch_insert(tick.inserts.clone());
            } else {
                map.batch_remove(&tick.removes);
            }
            map.quiesce();
            if map.store_error().is_some() {
                d.acked = map.acked_records();
                return d;
            }
            d.healthy = d.attempted;
        }
    }
    d.acked = map.acked_records();
    d
}

/// Power-cut the two-shard map at `budget` bytes under `model`, reopen,
/// and hold every shard to the recovery contract on its own records.
fn run_one_sharded_crash(
    budget: u64,
    model: CrashModel,
    ticks: &[Tick],
    committed: &[Vec<BTreeMap<u64, u64>>; 2],
) {
    let vfs = MemVfs::new();
    vfs.set_write_budget(Some(budget));
    let d = drive_sharded(&vfs, ticks);
    vfs.power_cycle(model);
    let ctx = format!("sharded budget={budget} model={model:?}");
    let rec = match ShardedMap::<u64, u64>::open_with("db", cfg_on(&vfs, FsyncPolicy::Always)) {
        Ok(rec) => rec,
        Err(e) => {
            assert!(
                !d.persist_ok,
                "{ctx}: open failed after a durable persist: {e}"
            );
            return;
        }
    };
    assert!(
        d.persist_ok,
        "{ctx}: open succeeded though persist_to never completed"
    );
    // Per shard, the longest committed prefix the recovered state
    // matches (a remove of absent keys leaves two equal prefixes).
    let mut recovered = [0usize; 2];
    for (shard, prefix) in recovered.iter_mut().enumerate() {
        let got: BTreeMap<u64, u64> = (0..UNIVERSE)
            .filter(|&k| shard_of(k) == shard)
            .filter_map(|k| rec.get(&k).map(|v| (k, *v)))
            .collect();
        let (lo, hi) = (d.healthy[shard], d.attempted[shard]);
        *prefix = (lo..=hi)
            .rev()
            .find(|&j| committed[shard][j] == got)
            .unwrap_or_else(|| {
                panic!(
                    "{ctx}: shard {shard} recovered {got:?}, no committed prefix in [{lo}, {hi}]"
                )
            });
    }
    assert!(
        (recovered[0] + recovered[1]) as u64 >= d.acked,
        "{ctx}: recovered prefixes {recovered:?} hold fewer than the {} acked records",
        d.acked
    );
    let total: usize = (0..2).map(|s| committed[s][recovered[s]].len()).sum();
    assert_eq!(rec.len(), total, "{ctx}: len");
}

fn sharded_sweep(model: CrashModel) {
    let ticks = sharded_ticks(0x5A4D);
    let committed = [shard_states(0, &ticks), shard_states(1, &ticks)];
    let dry = MemVfs::new();
    let d = drive_sharded(&dry, &ticks);
    assert!(d.persist_ok && d.healthy == d.attempted, "dry run crashed");
    assert_eq!(
        d.attempted,
        [committed[0].len() - 1, committed[1].len() - 1]
    );
    assert_eq!(d.acked, (d.attempted[0] + d.attempted[1]) as u64);
    for shard in 0..2 {
        let dir = Path::new("db").join(shard_dir_name(shard));
        let wal_seq = Manifest::read(&dry, &dir).unwrap().wal_seq;
        assert!(wal_seq >= 2, "shard {shard} crossed no runtime checkpoint");
    }
    let total = dry.total_written();
    let stride = if long_mode() {
        (total / 3000).max(1)
    } else {
        (total / 300).max(1)
    };
    let mut budget = 0u64;
    while budget <= total {
        run_one_sharded_crash(budget, model, &ticks, &committed);
        budget += stride;
    }
}

/// Both shards of a tick log concurrently (a persistent shard's
/// sub-delta always goes to the pool); a crash can land between, inside
/// or after either shard's record or checkpoint.
#[test]
fn sharded_power_cut_drop_unsynced() {
    sharded_sweep(CrashModel::DropUnsynced);
}

#[test]
fn sharded_power_cut_torn() {
    sharded_sweep(CrashModel::Torn);
}

/// A mixed delta — inserts, removes, an insert-then-remove of one key —
/// is one WAL record per shard it touches, where the same writes as
/// `batch_insert` then `batch_remove` are two; reopening either store
/// gives the oracle's state.
#[test]
fn mixed_delta_is_one_wal_record_per_shard() {
    let delta: Vec<(u64, Option<u64>)> = vec![
        (1, None),
        (3, Some(30)),
        (SPLIT + 1, Some(130)),
        (SPLIT + 8, Some(200)),
        (SPLIT + 8, None),
        (7, Some(70)),
    ];
    let (inserts, removes) = (vec![(2, 20), (SPLIT + 2, 140)], vec![3, SPLIT + 1]);
    let write_oracle = |oracle: &mut BTreeMap<u64, u64>| {
        for &(k, v) in &delta {
            match v {
                Some(v) => oracle.insert(k, v),
                None => oracle.remove(&k),
            };
        }
        oracle.extend(inserts.iter().copied());
        for k in &removes {
            oracle.remove(k);
        }
    };

    let vfs = MemVfs::new();
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
    for k in 0..PREPOP {
        apply_map(&mut map, &Wop::Put(k, k));
    }
    let mut oracle = state_of(&map);
    map.persist_to("db", cfg_on(&vfs, FsyncPolicy::Always))
        .unwrap();
    map.apply(delta.clone());
    assert_eq!(map.acked_records(), 1, "a mixed delta is one record");
    map.batch_insert(inserts.clone());
    map.batch_remove(&removes);
    assert_eq!(map.acked_records(), 3, "insert then remove is two records");
    write_oracle(&mut oracle);
    drop(map);
    let reopened =
        DynamicMap::<u64, u64>::open_with("db", cfg_on(&vfs, FsyncPolicy::Always)).unwrap();
    assert_eq!(state_of(&reopened), oracle);

    let vfs = MemVfs::new();
    let mut map: ShardedMap<u64, u64> =
        ShardedMap::with_splits_config(vec![SPLIT], QueryKind::Veb, CAP);
    map.batch_insert(sharded_prepop());
    map.quiesce();
    let mut oracle: BTreeMap<u64, u64> = sharded_prepop().into_iter().collect();
    map.persist_to("db", cfg_on(&vfs, FsyncPolicy::Always))
        .unwrap();
    map.apply(delta.clone());
    assert_eq!(map.acked_records(), 2, "one record per shard touched");
    map.batch_insert(inserts.clone());
    map.batch_remove(&removes);
    assert_eq!(
        map.acked_records(),
        6,
        "insert then remove is two per shard"
    );
    write_oracle(&mut oracle);
    drop(map);
    let reopened =
        ShardedMap::<u64, u64>::open_with("db", cfg_on(&vfs, FsyncPolicy::Always)).unwrap();
    let got: BTreeMap<u64, u64> = (0..UNIVERSE + 8)
        .filter_map(|k| reopened.get(&k).map(|v| (k, *v)))
        .collect();
    assert_eq!(got, oracle);
    assert_eq!(reopened.len(), oracle.len());
}
