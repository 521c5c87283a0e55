//! Op-sequence differential fuzz for the sharded serving layer:
//! seeded-PRNG sequences driven through a [`ShardedMap`], an unsharded
//! [`DynamicMap`] **mirror**, and a `BTreeMap` oracle in lockstep.
//!
//! Two claims are pinned, after every single op:
//!
//! * **oracle exactness** — every scalar and batched query agrees with
//!   the `BTreeMap`;
//! * **bit-identity to the single map** — `batch_get` / `batch_rank` /
//!   `batch_range_count` return exactly what the unsharded
//!   `DynamicMap` returns for the same input batch, element for
//!   element: partition → parallel per-shard descents → scatter must be
//!   invisible.
//!
//! What the generator stresses beyond `dynamic_differential`:
//!
//! * batch calls whose keys straddle every shard boundary (keys are
//!   uniform over the universe, splits sit inside it);
//! * cross-shard ranges, including ranges spanning all shards, reversed
//!   and empty ranges, and ranges with both endpoints on split keys;
//! * split layouts from balanced to pathological (`[1, 58]` leaves a
//!   giant middle shard; a single split makes two); shards emptying out
//!   entirely (deletes), then refilling;
//! * order queries that must walk across empty shards.
//!
//! Every configuration runs twice: drained with `quiesce()` after every
//! op (deterministic tier shapes), and free-running (per-shard merge
//! workers overlapping the op stream). CI runs fixed seeds;
//! `IST_FUZZ_LONG=1` widens the sweep.

use implicit_search_trees::{DynamicMap, QueryKind, Shard, Sharded, ShardedMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};

/// Small universe: collisions, overwrites, and boundary-straddling
/// batches are the common case.
const UNIVERSE: u64 = 60;

#[derive(Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    BatchInsert(Vec<(u64, u64)>),
    BatchRemove(Vec<u64>),
    Apply(Vec<(u64, Option<u64>)>),
    BatchGet(Vec<u64>),
    BatchRank(Vec<u64>),
    BatchRangeCount(Vec<(u64, u64)>),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Insert(k, v) => write!(f, "insert({k}, {v})"),
            Op::Remove(k) => write!(f, "remove({k})"),
            Op::BatchInsert(pairs) => write!(f, "batch_insert({pairs:?})"),
            Op::BatchRemove(keys) => write!(f, "batch_remove({keys:?})"),
            Op::Apply(delta) => write!(f, "apply({delta:?})"),
            Op::BatchGet(keys) => write!(f, "batch_get(len={})", keys.len()),
            Op::BatchRank(keys) => write!(f, "batch_rank(len={})", keys.len()),
            Op::BatchRangeCount(r) => write!(f, "batch_range_count(len={})", r.len()),
        }
    }
}

fn gen_batch_keys(rng: &mut StdRng) -> Vec<u64> {
    // Lengths straddling the pipeline window (32) and the empty /
    // singleton corners; keys straddle every shard boundary.
    let len = *[0usize, 1, 2, 31, 32, 33, 40, 64, 65]
        .get(rng.gen_range(0..9usize))
        .unwrap();
    (0..len).map(|_| rng.gen_range(0..UNIVERSE + 4)).collect()
}

/// Mutation route: scalar per-key ops, bulk deltas (batches span
/// shard boundaries by construction — keys are uniform over the
/// universe, so a batch of length ≥ 2 usually straddles a split), or
/// mixed deltas through one `apply` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ingest {
    PerKey,
    Bulk,
    Mixed,
}

fn gen_op(rng: &mut StdRng, op_index: usize, ingest: Ingest) -> Op {
    let key = rng.gen_range(0..UNIVERSE);
    match rng.gen_range(0..100u32) {
        // Inserts and removes in one delta; over the small universe a
        // delta often writes one key twice, in either order.
        0..=59 if ingest == Ingest::Mixed => {
            let len = rng.gen_range(0..12usize);
            Op::Apply(
                (0..len)
                    .map(|j| {
                        let k = rng.gen_range(0..UNIVERSE);
                        let v = (rng.gen_range(0..5u32) < 3)
                            .then_some((op_index as u64) << 8 | j as u64);
                        (k, v)
                    })
                    .collect(),
            )
        }
        0..=39 if ingest == Ingest::Bulk => {
            let len = rng.gen_range(0..10usize);
            Op::BatchInsert(
                (0..len)
                    .map(|j| {
                        let k = rng.gen_range(0..UNIVERSE);
                        (k, (op_index as u64) << 8 | j as u64)
                    })
                    .collect(),
            )
        }
        0..=39 => Op::Insert(key, op_index as u64),
        40..=59 if ingest == Ingest::Bulk => {
            let len = rng.gen_range(0..10usize);
            Op::BatchRemove((0..len).map(|_| rng.gen_range(0..UNIVERSE)).collect())
        }
        40..=59 => Op::Remove(key),
        60..=74 => Op::BatchGet(gen_batch_keys(rng)),
        75..=84 => Op::BatchRank(gen_batch_keys(rng)),
        _ => {
            let len = rng.gen_range(0..12usize);
            Op::BatchRangeCount(
                (0..len)
                    .map(|_| {
                        (
                            rng.gen_range(0..UNIVERSE + 4),
                            rng.gen_range(0..UNIVERSE + 4),
                        )
                    })
                    .collect(),
            )
        }
    }
}

// --- oracle-side helpers ---

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

/// Every scalar read of `m` vs the oracle. Generic over the shard type
/// because the reads are: the live `ShardedMap` and both snapshot cuts
/// are one `Sharded<K, S>` body, so one checker serves all three.
fn check_scalar_reads<S>(
    who: &str,
    m: &Sharded<u64, S>,
    oracle: &BTreeMap<u64, u64>,
    probes: &[u64],
    pairs: &[(u64, u64)],
) -> Result<(), String>
where
    S: Shard<u64, Value = u64> + Sync,
{
    let fail = |what: String| -> Result<(), String> { Err(format!("{who}: {what}")) };
    if m.len() != oracle.len() {
        return fail(format!("len: got={} oracle={}", m.len(), oracle.len()));
    }
    if m.is_empty() != oracle.is_empty() {
        return fail("is_empty disagrees".to_string());
    }
    for &k in probes {
        if m.get(&k) != oracle.get(&k) {
            return fail(format!(
                "get({k}): got={:?} oracle={:?}",
                m.get(&k),
                oracle.get(&k)
            ));
        }
        if m.contains_key(&k) != oracle.contains_key(&k) {
            return fail(format!("contains_key({k}) disagrees"));
        }
        if m.rank(&k) != oracle_rank(oracle, k) {
            return fail(format!(
                "rank({k}): got={} oracle={}",
                m.rank(&k),
                oracle_rank(oracle, k)
            ));
        }
        let lb = m.lower_bound(&k).map(|(a, b)| (*a, *b));
        let oracle_lb = oracle.range(k..).next().map(|(a, b)| (*a, *b));
        if lb != oracle_lb {
            return fail(format!("lower_bound({k}): got={lb:?} oracle={oracle_lb:?}"));
        }
        let succ = m.successor(&k).map(|(a, b)| (*a, *b));
        let oracle_succ = oracle
            .range((Excluded(k), Unbounded))
            .next()
            .map(|(a, b)| (*a, *b));
        if succ != oracle_succ {
            return fail(format!(
                "successor({k}): got={succ:?} oracle={oracle_succ:?}"
            ));
        }
        let pred = m.predecessor(&k).map(|(a, b)| (*a, *b));
        let oracle_pred = oracle.range(..k).next_back().map(|(a, b)| (*a, *b));
        if pred != oracle_pred {
            return fail(format!(
                "predecessor({k}): got={pred:?} oracle={oracle_pred:?}"
            ));
        }
    }
    for &(lo, hi) in pairs {
        let expect = oracle_range_count(oracle, lo, hi);
        if m.range_count(&lo, &hi) != expect {
            return fail(format!("range_count({lo},{hi}) != {expect}"));
        }
    }
    Ok(())
}

/// Every scalar query vs the oracle, and every batched query vs BOTH
/// the oracle and the unsharded mirror (elementwise bit-identity).
fn check_full_state(
    sharded: &ShardedMap<u64, u64>,
    mirror: &DynamicMap<u64, u64>,
    oracle: &BTreeMap<u64, u64>,
) -> Result<(), String> {
    let fail = |what: String| -> Result<(), String> { Err(what) };
    if sharded.shard_lens().iter().sum::<usize>() != sharded.len() {
        return fail("shard_lens do not sum to len".to_string());
    }
    let probes: Vec<u64> = (0..UNIVERSE + 4).chain([u64::MAX]).collect();
    // Range pairs crossing every boundary, reversed and empty included,
    // plus split-key endpoints.
    let pairs: Vec<(u64, u64)> = (0..10)
        .flat_map(|i| {
            let lo = 6 * i;
            [(lo, lo + 13), (lo + 13, lo), (lo, lo), (0, u64::MAX)]
        })
        .chain(
            sharded
                .splits()
                .iter()
                .map(|&s| (s.saturating_sub(1), s + 1)),
        )
        .collect();
    check_scalar_reads("sharded", sharded, oracle, &probes, &pairs)?;
    // Batched reads: oracle exactness AND bit-identity to the mirror.
    let batch = sharded.batch_get(&probes);
    let mirror_batch = mirror.batch_get(&probes);
    for (i, &k) in probes.iter().enumerate() {
        if batch[i] != oracle.get(&k) {
            return fail(format!("batch_get[{k}] disagrees with oracle"));
        }
        if batch[i] != mirror_batch[i] {
            return fail(format!("batch_get[{k}] not identical to single-map mirror"));
        }
    }
    let ranks = sharded.batch_rank(&probes);
    if ranks != mirror.batch_rank(&probes) {
        return fail("batch_rank not identical to single-map mirror".to_string());
    }
    for (i, &k) in probes.iter().enumerate() {
        if ranks[i] != oracle_rank(oracle, k) {
            return fail(format!("batch_rank[{k}] disagrees with oracle"));
        }
    }
    let counts = sharded.batch_range_count(&pairs);
    if counts != mirror.batch_range_count(&pairs) {
        return fail("batch_range_count not identical to single-map mirror".to_string());
    }
    for (i, &(lo, hi)) in pairs.iter().enumerate() {
        let expect = oracle_range_count(oracle, lo, hi);
        if counts[i] != expect {
            return fail(format!("batch_range_count({lo},{hi}) != {expect}"));
        }
    }
    // The composite snapshot (the writer-side global cut) must answer
    // every query bit-identically to the live sharded map it froze —
    // the scalar reads through the very checker the live map just
    // passed.
    let snap = sharded.snapshot();
    check_scalar_reads("snapshot", &snap, oracle, &probes, &pairs)?;
    if snap.len() != sharded.len() {
        return fail("snapshot: len differs from live map".to_string());
    }
    if snap.batch_get(&probes) != batch {
        return fail("snapshot: batch_get differs from live map".to_string());
    }
    if snap.batch_rank(&probes) != ranks {
        return fail("snapshot: batch_rank differs from live map".to_string());
    }
    if snap.batch_range_count(&pairs) != counts {
        return fail("snapshot: batch_range_count differs from live map".to_string());
    }
    for &k in probes.iter().step_by(7) {
        if snap.successor(&k).map(|(a, b)| (*a, *b)) != sharded.successor(&k).map(|(a, b)| (*a, *b))
        {
            return fail(format!("snapshot: successor({k}) differs from live map"));
        }
        if snap.predecessor(&k).map(|(a, b)| (*a, *b))
            != sharded.predecessor(&k).map(|(a, b)| (*a, *b))
        {
            return fail(format!("snapshot: predecessor({k}) differs from live map"));
        }
    }
    Ok(())
}

/// Apply one op to all three structures; compare the op's own result.
fn apply_op(
    sharded: &mut ShardedMap<u64, u64>,
    mirror: &mut DynamicMap<u64, u64>,
    oracle: &mut BTreeMap<u64, u64>,
    op: &Op,
) -> Result<(), String> {
    match op {
        Op::Insert(k, v) => {
            let got = sharded.insert(*k, *v);
            let mirror_got = mirror.insert(*k, *v);
            let expect = oracle.insert(*k, *v).is_some();
            if got != expect || mirror_got != expect {
                return Err(format!("insert returned {got}, oracle {expect}"));
            }
        }
        Op::Remove(k) => {
            let got = sharded.remove(k);
            let mirror_got = mirror.remove(k);
            let expect = oracle.remove(k).is_some();
            if got != expect || mirror_got != expect {
                return Err(format!("remove returned {got}, oracle {expect}"));
            }
        }
        Op::BatchInsert(pairs) => {
            // Per-shard parallel application must report exactly what
            // the unsharded map reports: distinct keys live before.
            let distinct: BTreeSet<u64> = pairs.iter().map(|(k, _)| *k).collect();
            let expect = distinct.iter().filter(|k| oracle.contains_key(k)).count();
            let got = sharded.batch_insert(pairs.clone());
            let mirror_got = mirror.batch_insert(pairs.clone());
            for &(k, v) in pairs {
                oracle.insert(k, v);
            }
            if got != expect || mirror_got != expect {
                return Err(format!(
                    "batch_insert returned {got} (mirror {mirror_got}), oracle {expect}"
                ));
            }
        }
        Op::BatchRemove(keys) => {
            let distinct: BTreeSet<u64> = keys.iter().copied().collect();
            let expect = distinct.iter().filter(|k| oracle.contains_key(k)).count();
            let got = sharded.batch_remove(keys);
            let mirror_got = mirror.batch_remove(keys);
            for k in keys {
                oracle.remove(k);
            }
            if got != expect || mirror_got != expect {
                return Err(format!(
                    "batch_remove returned {got} (mirror {mirror_got}), oracle {expect}"
                ));
            }
        }
        Op::Apply(delta) => {
            let distinct: BTreeSet<u64> = delta.iter().map(|(k, _)| *k).collect();
            let expect = distinct.iter().filter(|k| oracle.contains_key(k)).count();
            let got = sharded.apply(delta.clone());
            let mirror_got = mirror.apply(delta.clone());
            for &(k, v) in delta {
                match v {
                    Some(v) => oracle.insert(k, v),
                    None => oracle.remove(&k),
                };
            }
            if got != expect || mirror_got != expect {
                return Err(format!(
                    "apply returned {got} (mirror {mirror_got}), oracle {expect}"
                ));
            }
        }
        Op::BatchGet(keys) => {
            let got = sharded.batch_get(keys);
            if got != mirror.batch_get(keys) {
                return Err("batch_get differs from single-map mirror".into());
            }
            for (i, k) in keys.iter().enumerate() {
                if got[i] != oracle.get(k) {
                    return Err(format!("batch_get[{k}] disagrees with oracle"));
                }
            }
        }
        Op::BatchRank(keys) => {
            let got = sharded.batch_rank(keys);
            if got != mirror.batch_rank(keys) {
                return Err("batch_rank differs from single-map mirror".into());
            }
            for (i, k) in keys.iter().enumerate() {
                if got[i] != oracle_rank(oracle, *k) {
                    return Err(format!("batch_rank[{k}] disagrees with oracle"));
                }
            }
        }
        Op::BatchRangeCount(ranges) => {
            let got = sharded.batch_range_count(ranges);
            if got != mirror.batch_range_count(ranges) {
                return Err("batch_range_count differs from single-map mirror".into());
            }
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                if got[i] != oracle_range_count(oracle, lo, hi) {
                    return Err(format!("batch_range_count({lo},{hi}) disagrees"));
                }
            }
        }
    }
    Ok(())
}

/// When the harness drains compaction work.
#[derive(Clone, Copy, Debug)]
enum Drain {
    /// `quiesce()` on both maps after every op: each merge installs
    /// before the next op, so tier shapes follow the op sequence alone.
    EveryOp,
    /// Never: merges overlap the op stream and install wherever
    /// scheduling lands them.
    FreeRunning,
}

const DRAINS: [Drain; 2] = [Drain::EveryOp, Drain::FreeRunning];

fn run_sequence(
    seed: u64,
    splits: &[u64],
    kind: QueryKind,
    buffer_cap: usize,
    num_ops: usize,
    mode: Drain,
) {
    run_sequence_with(
        seed,
        splits,
        kind,
        buffer_cap,
        num_ops,
        mode,
        Ingest::PerKey,
    );
}

/// The full-matrix variant: an ingest route on top of the base
/// harness.
fn run_sequence_with(
    seed: u64,
    splits: &[u64],
    kind: QueryKind,
    buffer_cap: usize,
    num_ops: usize,
    mode: Drain,
    ingest: Ingest,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sharded: ShardedMap<u64, u64> =
        ShardedMap::with_splits_config(splits.to_vec(), kind, buffer_cap);
    let mut mirror: DynamicMap<u64, u64> = DynamicMap::with_config(kind, buffer_cap);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ops: Vec<Op> = Vec::with_capacity(num_ops);
    for i in 0..num_ops {
        let op = gen_op(&mut rng, i, ingest);
        ops.push(op.clone());
        let result = apply_op(&mut sharded, &mut mirror, &mut oracle, &op).and_then(|()| {
            if let Drain::EveryOp = mode {
                sharded.quiesce();
                mirror.quiesce();
            }
            check_full_state(&sharded, &mirror, &oracle)
        });
        if let Err(why) = result {
            let prefix: Vec<String> = ops.iter().map(|o| format!("  {o}")).collect();
            panic!(
                "sharded_differential diverged\n\
                 seed        = {seed:#x}\n\
                 config      = splits={splits:?} kind={kind:?} buffer_cap={buffer_cap} mode={mode:?} \
                 ingest={ingest:?}\n\
                 failure     = {why}\n\
                 minimal op prefix that first diverges ({} ops, last one diverges):\n{}",
                ops.len(),
                prefix.join("\n")
            );
        }
    }
    sharded.quiesce();
    mirror.quiesce();
    assert!(!sharded.compaction_in_flight());
    check_full_state(&sharded, &mirror, &oracle)
        .unwrap_or_else(|why| panic!("state diverged after quiesce (seed={seed:#x}): {why}"));
}

/// Split layouts: balanced, skewed-to-pathological, single boundary.
fn split_sets() -> [Vec<u64>; 3] {
    [vec![15, 30, 45], vec![1, 58], vec![30]]
}

const CI_SEEDS: [u64; 2] = [0x5AADD, 0xD15C0];

#[test]
fn sharded_differential_fixed_seeds() {
    for &seed in &CI_SEEDS {
        for splits in &split_sets() {
            for (kind, cap) in [
                (QueryKind::Veb, 1usize),
                (QueryKind::Veb, 4),
                (QueryKind::BstPrefetch, 4),
                (QueryKind::Sorted, 1),
            ] {
                for mode in DRAINS {
                    run_sequence(seed, splits, kind, cap, 160, mode);
                }
            }
        }
    }
}

/// Bulk-loaded shards (duplicates, equal-count splits) must behave
/// identically under subsequent fuzz.
#[test]
fn sharded_differential_after_bulk_build() {
    for &seed in &CI_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5B1D);
        let n = 150usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..UNIVERSE)).collect();
        let values: Vec<u64> = (0..n as u64).collect();
        let mut sharded =
            ShardedMap::build_for_kind(keys.clone(), values.clone(), QueryKind::Veb, 4, 4).unwrap();
        let mut mirror =
            DynamicMap::build_for_kind(keys.clone(), values.clone(), QueryKind::Veb, 4).unwrap();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for (k, v) in keys.into_iter().zip(values) {
            oracle.insert(k, v);
        }
        check_full_state(&sharded, &mirror, &oracle).expect("bulk build state");
        for i in 0..120 {
            let op = gen_op(&mut rng, 1000 + i, Ingest::Bulk);
            apply_op(&mut sharded, &mut mirror, &mut oracle, &op)
                .and_then(|()| check_full_state(&sharded, &mirror, &oracle))
                .unwrap_or_else(|why| {
                    panic!("bulk-build sharded fuzz diverged (seed={seed:#x}, op {i}): {why}")
                });
        }
    }
}

/// Ingest × drain matrix over the sharded layer: the sharded map must
/// stay bit-identical to the unsharded map and exact vs the oracle —
/// shard-parallel bulk deltas included, with batches straddling every
/// split.
#[test]
fn sharded_differential_ingest_and_mode_matrix() {
    for seed in [0xE0_11C7u64, 0xE0_11C8] {
        for splits in &split_sets() {
            for ingest in [Ingest::PerKey, Ingest::Bulk] {
                for mode in DRAINS {
                    run_sequence_with(seed, splits, QueryKind::Veb, 3, 140, mode, ingest);
                }
            }
        }
    }
}

/// Mixed deltas through one `ShardedMap::apply` call — inserts and
/// removes of the same key in either order, straddling every split —
/// must match the same delta on the unsharded mirror and the oracle.
/// `IST_FUZZ_LONG=1` runs the long sweep's 12 seeds instead of the CI
/// pair.
#[test]
fn sharded_differential_mixed_deltas() {
    let seeds: Vec<u64> = if std::env::var_os("IST_FUZZ_LONG").is_some() {
        (0..12).map(|s| 0x40_0000 + s).collect()
    } else {
        CI_SEEDS.to_vec()
    };
    for seed in seeds {
        for splits in &split_sets() {
            for (kind, cap) in [(QueryKind::Veb, 3usize), (QueryKind::Sorted, 1)] {
                for mode in DRAINS {
                    run_sequence_with(seed, splits, kind, cap, 160, mode, Ingest::Mixed);
                }
            }
        }
    }
}

/// Extended sweep behind `IST_FUZZ_LONG=1` (CI runs it in release in
/// the dedicated fuzz job).
#[test]
fn sharded_differential_long_sweep() {
    if std::env::var_os("IST_FUZZ_LONG").is_none() {
        eprintln!("IST_FUZZ_LONG not set; skipping the sharded long sweep");
        return;
    }
    for seed in 0..12u64 {
        for splits in &split_sets() {
            for mode in DRAINS {
                run_sequence(0x20_0000 + seed, splits, QueryKind::Veb, 3, 300, mode);
                run_sequence(0x30_0000 + seed, splits, QueryKind::Btree(2), 1, 250, mode);
            }
        }
    }
}
