//! `durable_ticks`: writes beside reads on a persisted `ShardedMap`.
//!
//! One caller, closed loop, in process. A 2-shard vEB map of `2^20`
//! keys with 16-byte values is built and persisted (that is `setup_s`)
//! through a counting wrapper around the real filesystem with the
//! default fsync policy (`Always`). Then ticks of 1024 operations run
//! back to back — half writes (80 % insert, 20 % remove, applied with
//! `batch_insert` / `batch_remove`), then a `snapshot` and the three
//! batch reads (60 / 25 / 15 %) — until the time is up. `dynamic`
//! (seals, compaction, weight sweeps), `shard` (scatter) and `store`
//! (WAL, run files, manifest) do the work; `query` runs over many small
//! runs instead of one large one.
//!
//! A `BTreeMap` oracle checks the write counts of every tick, every
//! answer of every 64th tick, and the map as reopened from disk. An
//! untimed replica on `MemVfs` loses its unsynced bytes in a simulated
//! power cut and must still hold every acknowledged write.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use implicit_search_trees::store::{
    wal_file_name, CrashModel, FsyncPolicy, MemVfs, StdVfs, StoreConfig, Vfs, WalWriter,
};
use implicit_search_trees::{DynamicMap, Frozen, Layout, ShardedFrozen, ShardedMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{finish_trace, repeat_setup, Ctx, Samples};
use crate::counting_vfs::{CountingVfs, IoCounters};
use crate::gen::written_value;
use crate::procfs;
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{mean, median, percentile};

const SHARDS: usize = 2;
const LAYOUT: Layout = Layout::Veb;
/// Every answer of every `CHECK_EVERY`-th tick is checked.
const CHECK_EVERY: u64 = 64;
/// Peak memory is read after this many ticks: a state fixed by the
/// seed. At the end of the run it would depend on how many ticks the
/// box managed in the time.
const RSS_AFTER_TICKS: u64 = 256;
/// Bytes of one key and one value, for the amplification ratios.
const PAIR_BYTES: u64 = 8 + 16;

type Value = Vec<u8>;

struct Sizes {
    preload: usize,
    tick: usize,
    replica: usize,
    replica_ticks: usize,
    reopen_gets: usize,
    reopen_ranks: usize,
    wal_appends: usize,
}

/// The operations of one tick.
#[derive(Default)]
struct TickOps {
    inserts: Vec<(u64, Value)>,
    removes: Vec<u64>,
    gets: Vec<u64>,
    ranks: Vec<u64>,
    ranges: Vec<(u64, u64)>,
}

/// A seeded stream of ticks; two streams with one seed are identical.
struct TickStream {
    rng: StdRng,
    key_space: u64,
    tick: usize,
    /// Write sequence number, stored in every inserted value.
    seq: u64,
}

impl TickStream {
    fn new(seed: u64, preload: usize, tick: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x71C4),
            key_space: 2 * preload as u64,
            tick,
            seq: 0,
        }
    }

    fn next_tick(&mut self) -> TickOps {
        let mut ops = TickOps::default();
        for _ in 0..self.tick {
            let key = self.rng.gen_range(0..self.key_space);
            match self.rng.gen_range(0..100u32) {
                0..=39 => {
                    self.seq += 1;
                    ops.inserts.push((key, written_value(key, self.seq)));
                }
                40..=49 => ops.removes.push(key),
                50..=79 => ops.gets.push(key),
                80..=91 => ops.ranks.push(key),
                _ => ops.ranges.push((key, key + self.rng.gen_range(0..4096u64))),
            }
        }
        ops
    }
}

/// The preloaded pairs: one key of every pair `{2i, 2i+1}`, so uniform
/// keys hit about half the time; values carry sequence number 0.
fn preload_pairs(seed: u64, n: usize) -> (Vec<u64>, Vec<Value>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..n as u64)
        .map(|i| 2 * i + rng.gen_range(0..2u64))
        .collect();
    let values = keys.iter().map(|&k| written_value(k, 0)).collect();
    (keys, values)
}

/// What the map should hold, and the answers that follow from it.
struct Oracle {
    live: BTreeMap<u64, Value>,
}

impl Oracle {
    fn new(keys: &[u64], values: &[Value]) -> Self {
        Self {
            live: keys.iter().copied().zip(values.iter().cloned()).collect(),
        }
    }

    /// Apply a tick's writes; returns what `batch_insert` and
    /// `batch_remove` must report (distinct batch keys live before).
    fn apply(&mut self, ops: &TickOps) -> (usize, usize) {
        let mut seen = std::collections::BTreeSet::new();
        let mut replaced = 0;
        for (key, value) in &ops.inserts {
            let was_live = self.live.insert(*key, value.clone()).is_some();
            if seen.insert(*key) && was_live {
                replaced += 1;
            }
        }
        let removed = ops
            .removes
            .iter()
            .filter(|k| self.live.remove(k).is_some())
            .count();
        (replaced, removed)
    }

    fn sorted_keys(&self) -> Vec<u64> {
        self.live.keys().copied().collect()
    }
}

fn rank_in(sorted: &[u64], key: u64) -> usize {
    sorted.partition_point(|&k| k < key)
}

/// The read calls of a snapshot, whichever map it came from.
trait Reads {
    fn batch_get(&self, keys: &[u64]) -> Vec<Option<&Value>>;
    fn batch_rank(&self, keys: &[u64]) -> Vec<usize>;
    fn batch_range_count(&self, ranges: &[(u64, u64)]) -> Vec<usize>;
}

/// The calls a tick makes, on a sharded or an unsharded map; the span
/// names say which layer a call belongs to.
trait Engine {
    type Snapshot: Reads;
    /// Span names of batch_insert, batch_remove, snapshot, batch_get,
    /// batch_rank and batch_range_count, in that order.
    const SPANS: [&'static str; 6];
    fn batch_insert(&mut self, pairs: Vec<(u64, Value)>) -> usize;
    fn batch_remove(&mut self, keys: &[u64]) -> usize;
    fn snapshot(&self) -> Self::Snapshot;
}

macro_rules! impl_reads {
    ($t:ty) => {
        impl Reads for $t {
            fn batch_get(&self, keys: &[u64]) -> Vec<Option<&Value>> {
                <$t>::batch_get(self, keys)
            }
            fn batch_rank(&self, keys: &[u64]) -> Vec<usize> {
                <$t>::batch_rank(self, keys)
            }
            fn batch_range_count(&self, ranges: &[(u64, u64)]) -> Vec<usize> {
                <$t>::batch_range_count(self, ranges)
            }
        }
    };
}
impl_reads!(ShardedFrozen<u64, Value>);
impl_reads!(Frozen<u64, Value>);

impl Engine for ShardedMap<u64, Value> {
    type Snapshot = ShardedFrozen<u64, Value>;
    const SPANS: [&'static str; 6] = [
        "shard.batch_insert",
        "shard.batch_remove",
        "shard.snapshot",
        "shard.batch_get",
        "shard.batch_rank",
        "shard.batch_range_count",
    ];
    fn batch_insert(&mut self, pairs: Vec<(u64, Value)>) -> usize {
        ShardedMap::batch_insert(self, pairs)
    }
    fn batch_remove(&mut self, keys: &[u64]) -> usize {
        ShardedMap::batch_remove(self, keys)
    }
    fn snapshot(&self) -> Self::Snapshot {
        ShardedMap::snapshot(self)
    }
}

impl Engine for DynamicMap<u64, Value> {
    type Snapshot = Frozen<u64, Value>;
    const SPANS: [&'static str; 6] = [
        "dynamic.batch_insert",
        "dynamic.batch_remove",
        "dynamic.snapshot",
        "dynamic.batch_get",
        "dynamic.batch_rank",
        "dynamic.batch_range_count",
    ];
    fn batch_insert(&mut self, pairs: Vec<(u64, Value)>) -> usize {
        DynamicMap::batch_insert(self, pairs)
    }
    fn batch_remove(&mut self, keys: &[u64]) -> usize {
        DynamicMap::batch_remove(self, keys)
    }
    fn snapshot(&self) -> Self::Snapshot {
        DynamicMap::snapshot(self)
    }
}

/// How long a run of ticks lasts.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Ticks(u64),
}

/// What a run of ticks measured.
#[derive(Default)]
struct TickRun {
    ticks: u64,
    /// User bytes handed to the write calls.
    user_bytes: u64,
    /// Whole-tick times in milliseconds, in order.
    tick_ms: Vec<f64>,
    /// The same for the ticks of a traced run that keep no spans
    /// (every fourth): the reference for the tracing overhead.
    reference_tick_ms: Vec<f64>,
    /// Per-call times under the engine's span names.
    calls: Samples,
}

impl TickRun {
    /// Thousands of operations per second over `tick_ms`, each entry
    /// one tick of `tick` operations.
    fn kops_s(tick_ms: &[f64], tick: usize) -> f64 {
        (tick_ms.len() * tick) as f64 / tick_ms.iter().sum::<f64>()
    }
}

/// Run ticks from `stream` on `engine`. With an oracle, every tick's
/// write counts and every `CHECK_EVERY`-th tick's answers are checked
/// (outside the timed part). `after_tick` sees the engine after each
/// tick, also untimed.
fn run_ticks<E: Engine>(
    engine: &mut E,
    stream: &mut TickStream,
    until: Until,
    tracer: &mut Tracer,
    mut oracle: Option<(&mut Oracle, &mut Outcome)>,
    mut after_tick: impl FnMut(&E),
) -> TickRun {
    let [s_insert, s_remove, s_snapshot, s_get, s_rank, s_range] = E::SPANS;
    let mut run = TickRun::default();
    let traced = tracer.enabled();
    let started = Instant::now();
    loop {
        match until {
            Until::Ticks(n) if run.ticks >= n => break,
            Until::Elapsed(d) if run.ticks >= 8 && started.elapsed() >= d => break,
            _ => {}
        }
        let t = run.ticks;
        let ops = stream.next_tick();
        let expected_counts = oracle.as_mut().map(|(o, _)| o.apply(&ops));
        run.user_bytes += ops.inserts.len() as u64 * PAIR_BYTES + ops.removes.len() as u64 * 8;
        let inserts = ops.inserts.clone();

        let reference = traced && t % 4 == 3;
        tracer.set_enabled(traced && !reference);
        let tick_span = tracer.begin("tick", None, t);
        let tick_start = Instant::now();
        let (replaced, ms) = tracer.timed(s_insert, tick_span, t, || engine.batch_insert(inserts));
        run.calls.push(s_insert, ms);
        let (removed, ms) =
            tracer.timed(s_remove, tick_span, t, || engine.batch_remove(&ops.removes));
        run.calls.push(s_remove, ms);
        let (snapshot, ms) = tracer.timed(s_snapshot, tick_span, t, || engine.snapshot());
        run.calls.push(s_snapshot, ms);
        let (gets, ms) = tracer.timed(s_get, tick_span, t, || snapshot.batch_get(&ops.gets));
        run.calls.push(s_get, ms);
        let (ranks, ms) = tracer.timed(s_rank, tick_span, t, || snapshot.batch_rank(&ops.ranks));
        run.calls.push(s_rank, ms);
        let (ranges, ms) = tracer.timed(s_range, tick_span, t, || {
            snapshot.batch_range_count(&ops.ranges)
        });
        run.calls.push(s_range, ms);
        let tick_ms = tick_start.elapsed().as_secs_f64() * 1e3;
        tracer.end(tick_span);
        if reference {
            run.reference_tick_ms.push(tick_ms);
        } else {
            run.tick_ms.push(tick_ms);
        }
        black_box((&gets, &ranks, &ranges));

        if let (Some((oracle, outcome)), Some(expected)) = (oracle.as_mut(), expected_counts) {
            outcome.check((replaced, removed) == expected);
            if t % CHECK_EVERY == 0 {
                let sorted = oracle.sorted_keys();
                // A missing answer counts as a wrong one.
                let wrong_gets = ops.gets.len().abs_diff(gets.len())
                    + (ops.gets.iter().zip(&gets))
                        .filter(|(k, g)| **g != oracle.live.get(k))
                        .count();
                let wrong_ranks = ops.ranks.len().abs_diff(ranks.len())
                    + (ops.ranks.iter().zip(&ranks))
                        .filter(|(&k, &r)| r != rank_in(&sorted, k))
                        .count();
                let wrong_ranges = ops.ranges.len().abs_diff(ranges.len())
                    + (ops.ranges.iter().zip(&ranges))
                        .filter(|(&(lo, hi), &c)| c != rank_in(&sorted, hi) - rank_in(&sorted, lo))
                        .count();
                outcome.checks(
                    (ops.gets.len() + ops.ranks.len() + ops.ranges.len()) as u64,
                    (wrong_gets + wrong_ranks + wrong_ranges) as u64,
                );
            }
        }
        drop(gets);
        drop(snapshot);
        run.ticks += 1;
        after_tick(engine);
    }
    tracer.set_enabled(traced);
    run
}

/// A built and persisted map, with the counters of its filesystem.
struct Persisted {
    map: ShardedMap<u64, Value>,
    counters: Arc<IoCounters>,
    config: StoreConfig,
}

fn build_sharded(seed: u64, preload: usize) -> ShardedMap<u64, Value> {
    let (keys, values) = preload_pairs(seed, preload);
    ShardedMap::build(keys, values, LAYOUT, SHARDS).expect("valid layout")
}

fn set_up(seed: u64, preload: usize, dir: &Path) -> Result<Persisted, String> {
    let _ = std::fs::remove_dir_all(dir);
    let vfs = CountingVfs::new(Arc::new(StdVfs));
    let counters = vfs.counters();
    let config = StoreConfig::with_vfs(Arc::new(vfs));
    let mut map = build_sharded(seed, preload);
    map.persist_to(dir, config.clone())
        .map_err(|e| format!("persist_to {}: {e}", dir.display()))?;
    Ok(Persisted {
        map,
        counters,
        config,
    })
}

/// Bytes of every file under `dir`.
fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The store directory of a persisted map, as a reopen needs it.
struct Store<'a> {
    dir: &'a Path,
    config: &'a StoreConfig,
    counters: &'a IoCounters,
}

/// Reopen the store `times` times; check the last reopened map against
/// the oracle. Returns `(milliseconds, bytes read)` per open.
fn reopen(
    store: &Store,
    times: usize,
    oracle: &Oracle,
    sizes: &Sizes,
    seed: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Vec<(f64, u64)>, String> {
    let Store {
        dir,
        config,
        counters,
    } = *store;
    let mut opens = Vec::new();
    let mut last = None;
    for i in 0..times {
        drop(last.take());
        let before = counters.snapshot();
        let (map, ms) = tracer.timed("store.open", None, i as u64, || {
            ShardedMap::<u64, Value>::open_with(dir, config.clone())
        });
        let map = map.map_err(|e| format!("reopening {}: {e}", dir.display()))?;
        opens.push((ms, counters.snapshot().since(&before).bytes_read));
        last = Some(map);
    }
    let map = last.expect("at least one reopen");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE4);
    let key_space = 2 * sizes.preload as u64;
    let sorted = oracle.sorted_keys();
    outcome.check(map.len() == oracle.live.len());
    let gets: Vec<u64> = (0..sizes.reopen_gets)
        .map(|_| rng.gen_range(0..key_space))
        .collect();
    let got = map.batch_get(&gets);
    let wrong = gets
        .iter()
        .zip(&got)
        .filter(|(k, g)| **g != oracle.live.get(k))
        .count();
    outcome.checks(gets.len() as u64, wrong as u64);
    let ranks: Vec<u64> = (0..sizes.reopen_ranks)
        .map(|_| rng.gen_range(0..key_space))
        .collect();
    let got = map.batch_rank(&ranks);
    let wrong = ranks
        .iter()
        .zip(&got)
        .filter(|(&k, &r)| r != rank_in(&sorted, k))
        .count();
    outcome.checks(ranks.len() as u64, wrong as u64);
    Ok(opens)
}

/// The durability check: a small replica on `MemVfs` runs ticks, the
/// simulated disk drops every unsynced byte, and the reopened map must
/// hold exactly what was acknowledged (with fsync `Always`, everything
/// applied). Untimed; counted in attempted / failed.
fn durability_check(seed: u64, sizes: &Sizes, outcome: &mut Outcome) {
    let mem = MemVfs::new();
    let config = StoreConfig::with_vfs(Arc::new(mem.clone()));
    let (keys, values) = preload_pairs(seed ^ 0xD00D, sizes.replica);
    let mut oracle = Oracle::new(&keys, &values);
    let mut map = ShardedMap::build(keys, values, LAYOUT, SHARDS).expect("valid layout");
    if map.persist_to("replica", config.clone()).is_err() {
        outcome.check(false);
        return;
    }
    let mut stream = TickStream::new(seed ^ 0xD00D, sizes.replica, sizes.tick.min(256));
    for _ in 0..sizes.replica_ticks {
        let ops = stream.next_tick();
        oracle.apply(&ops);
        map.batch_insert(ops.inserts);
        map.batch_remove(&ops.removes);
    }
    let acknowledged = map.store_error().is_none();
    drop(map);
    mem.power_cycle(CrashModel::DropUnsynced);
    match ShardedMap::<u64, Value>::open_with("replica", config) {
        Ok(recovered) => {
            let keys: Vec<u64> = (0..2 * sizes.replica as u64).collect();
            let got = recovered.batch_get(&keys);
            let wrong = keys
                .iter()
                .zip(&got)
                .filter(|(k, g)| **g != oracle.live.get(k))
                .count();
            outcome.checks(keys.len() as u64, wrong as u64);
            outcome.check(acknowledged && recovered.len() == oracle.live.len());
        }
        Err(_) => outcome.check(false),
    }
}

/// Median microseconds of one `WalWriter::append` of a 4 KiB record on
/// the real filesystem under `policy`.
fn wal_append_us(dir: &Path, policy: FsyncPolicy, appends: usize) -> Result<f64, String> {
    let path = dir.join(wal_file_name(0));
    let mut wal = WalWriter::create(&StdVfs, &path, 0, policy)
        .map_err(|e| format!("creating {}: {e}", path.display()))?;
    let payload = vec![0xA5u8; 4096];
    let mut us = Vec::with_capacity(appends);
    for _ in 0..appends {
        let start = Instant::now();
        wal.append(black_box(&payload))
            .map_err(|e| format!("WAL append: {e}"))?;
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    StdVfs
        .remove_file(&path)
        .map_err(|e| format!("removing {}: {e}", path.display()))?;
    Ok(median(&us))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = if ctx.smoke {
        Sizes {
            preload: 1 << 12,
            tick: 128,
            replica: 1 << 8,
            replica_ticks: 8,
            reopen_gets: 1 << 10,
            reopen_ranks: 1 << 8,
            wal_appends: 16,
        }
    } else {
        Sizes {
            preload: 1 << 20,
            tick: 1024,
            replica: 1 << 14,
            replica_ticks: 64,
            reopen_gets: 1 << 16,
            reopen_ranks: 1 << 12,
            wal_appends: 200,
        }
    };
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "durable_ticks: {SHARDS} shards, vEB, preload {}, ticks of {} ops (50% writes), \
         fsync always, in process, closed loop, 1 caller",
        sizes.preload, sizes.tick
    ));
    let scratch = crate::env::scratch_dir("durable_ticks")?;
    let dir = scratch.join("store");

    let (persisted, setup_s) = repeat_setup(ctx.setup_repeats(), || {
        set_up(ctx.seed, sizes.preload, &dir)
    });
    let Persisted {
        mut map,
        counters,
        config,
    } = persisted?;
    let store = Store {
        dir: &dir,
        config: &config,
        counters: &counters,
    };
    let (keys, values) = preload_pairs(ctx.seed, sizes.preload);
    let mut oracle = Oracle::new(&keys, &values);
    drop((keys, values));
    let mut tracer = Tracer::new(ctx.trace);
    let mut stream = TickStream::new(ctx.seed, sizes.preload, sizes.tick);

    if !ctx.trace {
        let (mut ticks_done, mut rss) = (0u64, None);
        let run = run_ticks(
            &mut map,
            &mut stream,
            Until::Elapsed(ctx.budget(0.85)),
            &mut tracer,
            Some((&mut oracle, &mut outcome)),
            |_| {
                ticks_done += 1;
                if ticks_done == RSS_AFTER_TICKS {
                    rss = procfs::peak_rss_mb(std::process::id());
                }
            },
        );
        outcome.note(format!("{} ticks", run.ticks));
        // A run too short to get that far reports its peak at the end.
        if let Some(rss) = rss {
            outcome.set("peak_rss_mb", rss);
        }
        outcome.set("setup_s", setup_s);
        outcome.set(
            "throughput_kops_s",
            TickRun::kops_s(&run.tick_ms, sizes.tick),
        );
        map.quiesce();
        map.flush().map_err(|e| format!("flush: {e}"))?;
        outcome.check(map.store_error().is_none());
        drop(map);
        reopen(
            &store,
            1,
            &oracle,
            &sizes,
            ctx.seed,
            &mut tracer,
            &mut outcome,
        )?;
        durability_check(ctx.seed, &sizes, &mut outcome);
        let _ = std::fs::remove_dir_all(&scratch);
        return Ok(outcome);
    }

    // Traced run: the persisted map under spans (every fourth tick
    // without, as the overhead reference).
    let io_before = counters.snapshot();
    let mut skew = Vec::new();
    let persisted_run = run_ticks(
        &mut map,
        &mut stream,
        Until::Elapsed(ctx.budget(0.45)),
        &mut tracer,
        Some((&mut oracle, &mut outcome)),
        |m: &ShardedMap<u64, Value>| {
            let lens = m.shard_lens();
            let max = lens.iter().copied().max().unwrap_or(0) as f64;
            skew.push(max / mean(&lens.iter().map(|&l| l as f64).collect::<Vec<_>>()));
        },
    );
    let io = counters.snapshot().since(&io_before);
    // Medians, so that a compaction stall on either side does not pass
    // for tracing overhead.
    outcome.set(
        "trace_overhead_share",
        1.0 - median(&persisted_run.reference_tick_ms) / median(&persisted_run.tick_ms),
    );
    let ticks = persisted_run.ticks;
    outcome.note(format!("traced: {ticks} persisted ticks"));
    for name in ShardedMap::<u64, Value>::SPANS {
        outcome.set(format!("{name}_ms_p50"), persisted_run.calls.median(name));
    }
    outcome.set("shard.tick_ms_p50", median(&persisted_run.tick_ms));
    outcome.set(
        "shard.tick_ms_p99",
        percentile(&persisted_run.tick_ms, 0.99),
    );
    outcome.set("shard.skew_max_over_mean", percentile(&skew, 1.0));
    outcome.set(
        "store.bytes_written_per_user_byte",
        io.bytes_written as f64 / persisted_run.user_bytes as f64,
    );
    outcome.set(
        "store.syncs_per_tick",
        (io.file_syncs + io.dir_syncs) as f64 / ticks as f64,
    );
    outcome.set("store.files_created", io.files_created as f64);

    map.quiesce();
    map.flush().map_err(|e| format!("flush: {e}"))?;
    outcome.check(map.store_error().is_none());
    outcome.set(
        "store.disk_bytes_per_live_byte",
        disk_bytes(&dir) as f64 / (map.len() as u64 * PAIR_BYTES) as f64,
    );
    drop(map);
    let opens = reopen(
        &store,
        5,
        &oracle,
        &sizes,
        ctx.seed,
        &mut tracer,
        &mut outcome,
    )?;
    outcome.set(
        "store.open_ms",
        median(&opens.iter().map(|o| o.0).collect::<Vec<_>>()),
    );
    outcome.set(
        "store.open_bytes_read",
        median(&opens.iter().map(|o| o.1 as f64).collect::<Vec<_>>()),
    );
    drop(oracle);

    // The same tick stream from its start, first on a memory-only
    // sharded map (what the store adds to the write calls), then on one
    // unsharded in-memory DynamicMap (what sharding adds, and the run
    // structure behind the read fan-out).
    let write_ms = |run: &TickRun, spans: [&str; 6]| {
        (run.calls.sum(spans[0]) + run.calls.sum(spans[1])) / run.ticks as f64
    };
    let mut memory_map = build_sharded(ctx.seed, sizes.preload);
    let mut memory_stream = TickStream::new(ctx.seed, sizes.preload, sizes.tick);
    let memory_run = run_ticks(
        &mut memory_map,
        &mut memory_stream,
        Until::Ticks(ticks),
        &mut Tracer::new(false),
        None,
        |_| {},
    );
    drop(memory_map);
    outcome.set(
        "store.write_path_ms_per_tick",
        write_ms(&persisted_run, ShardedMap::<u64, Value>::SPANS)
            - write_ms(&memory_run, ShardedMap::<u64, Value>::SPANS),
    );

    let (keys, values) = preload_pairs(ctx.seed, sizes.preload);
    let mut dynamic = DynamicMap::build(keys, values, LAYOUT).expect("valid layout");
    let mut dynamic_stream = TickStream::new(ctx.seed, sizes.preload, sizes.tick);
    let (mut runs, mut sealed, mut versions_per_key) = (Vec::new(), Vec::new(), Vec::new());
    let dynamic_run = run_ticks(
        &mut dynamic,
        &mut dynamic_stream,
        Until::Ticks(ticks),
        &mut tracer,
        None,
        |m: &DynamicMap<u64, Value>| {
            runs.push(m.run_count() as f64);
            sealed.push(m.sealed_runs() as f64);
            let versions: usize = m.tier_versions().iter().flatten().sum::<usize>()
                + m.sealed_versions().iter().sum::<usize>()
                + m.buffered_versions();
            versions_per_key.push(versions as f64 / m.len().max(1) as f64);
        },
    );
    for name in DynamicMap::<u64, Value>::SPANS {
        outcome.set(format!("{name}_ms_p50"), dynamic_run.calls.median(name));
    }
    outcome.set("dynamic.runs_mean", mean(&runs));
    outcome.set("dynamic.runs_max", percentile(&runs, 1.0));
    outcome.set("dynamic.sealed_runs_max", percentile(&sealed, 1.0));
    outcome.set(
        "dynamic.buffer_element_moves",
        dynamic.buffer_element_moves() as f64,
    );
    outcome.set("dynamic.versions_per_live_key", mean(&versions_per_key));
    drop(dynamic);

    outcome.set(
        "store.wal_append_us.always",
        wal_append_us(&scratch, FsyncPolicy::Always, sizes.wal_appends)?,
    );
    outcome.set(
        "store.wal_append_us.never",
        wal_append_us(&scratch, FsyncPolicy::Never, sizes.wal_appends * 10)?,
    );
    durability_check(ctx.seed, &sizes, &mut outcome);
    finish_trace(&tracer, "durable_ticks", &mut outcome)?;
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(outcome)
}
