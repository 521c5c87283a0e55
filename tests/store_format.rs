//! Format-level tests for the durability substrate: round-trips across
//! every layout and value shape, total (never-panicking) decoders under
//! byte-level fuzz, checksum rejection of every single-bit flip, and a
//! **pinned golden store** that fails CI the moment any on-disk codec
//! changes without a version bump.
//!
//! The crash/recovery *semantics* live in `tests/store_crash.rs`; this
//! file pins the *bytes*.

use implicit_search_trees::store::{
    crc64, encode_run, parse_wal, run_file_name, wal_file_name, FsyncPolicy, Manifest, MemVfs,
    RunHeader, RunReader, RunSections, ShardsFile, StoreConfig, WalWriter, MANIFEST_NAME,
    RUN_HEADER_LEN,
};
use implicit_search_trees::{DynamicMap, QueryKind, ShardedMap, StoreError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn mem_cfg(vfs: &Arc<MemVfs>) -> StoreConfig {
    StoreConfig::with_vfs(Arc::clone(vfs) as Arc<dyn implicit_search_trees::store::Vfs>)
}

/// Deterministic LCG so fuzz bytes are reproducible without a PRNG
/// crate dependency in this file.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

// ---------------------------------------------------------------------
// Round-trips: every layout × several key/value shapes, through the
// public persist/open API (which exercises run files, WAL, manifest).
// ---------------------------------------------------------------------

/// Drive a deterministic mutation mix on a fresh persistent map, then
/// reopen and compare the full state against a `BTreeMap` oracle.
fn round_trip<K, V>(kind: QueryKind, key_of: impl Fn(u64) -> K, val_of: impl Fn(u64) -> V)
where
    K: Ord + Clone + Send + Sync + std::fmt::Debug + implicit_search_trees::store::Codec + 'static,
    V: Clone
        + Send
        + Sync
        + PartialEq
        + std::fmt::Debug
        + implicit_search_trees::store::Codec
        + 'static,
{
    let vfs = Arc::new(MemVfs::new());
    let mut map: DynamicMap<K, V> = DynamicMap::with_config(kind, 4);
    let mut oracle: BTreeMap<K, V> = BTreeMap::new();
    let put = |map: &mut DynamicMap<K, V>, oracle: &mut BTreeMap<K, V>, i: u64| {
        let (k, v) = (key_of(i % 23), val_of(i));
        map.insert(k.clone(), v.clone());
        map.quiesce();
        oracle.insert(k, v);
    };
    for i in 0..40 {
        put(&mut map, &mut oracle, i);
    }
    for i in 0..6 {
        let k = key_of(i * 3);
        map.remove(&k);
        map.quiesce();
        oracle.remove(&k);
    }
    map.persist_to("db", mem_cfg(&vfs)).expect("persist_to");
    // Post-persist mutations ride the WAL (including a batch record).
    for i in 40..55 {
        put(&mut map, &mut oracle, i);
    }
    let delta: Vec<(K, Option<V>)> = (0..8)
        .map(|i| (key_of(i * 2), (i % 2 == 0).then(|| val_of(100 + i))))
        .collect();
    for (k, slot) in &delta {
        match slot {
            Some(v) => {
                oracle.insert(k.clone(), v.clone());
            }
            None => {
                oracle.remove(k);
            }
        }
    }
    map.batch_insert(
        delta
            .iter()
            .filter_map(|(k, s)| s.clone().map(|v| (k.clone(), v)))
            .collect(),
    );
    map.quiesce();
    map.batch_remove(
        &delta
            .iter()
            .filter(|(_, s)| s.is_none())
            .map(|(k, _)| k.clone())
            .collect::<Vec<_>>(),
    );
    map.quiesce();
    drop(map);
    let reopened = DynamicMap::<K, V>::open_with("db", mem_cfg(&vfs)).expect("open");
    assert_eq!(reopened.len(), oracle.len(), "kind={kind:?}");
    for i in 0..30u64 {
        let k = key_of(i);
        assert_eq!(reopened.get(&k), oracle.get(&k), "kind={kind:?} get({k:?})");
        assert_eq!(
            reopened.rank(&k),
            oracle.range(..k.clone()).count(),
            "kind={kind:?} rank({k:?})"
        );
    }
}

#[test]
fn round_trip_every_layout() {
    for kind in [
        QueryKind::Sorted,
        QueryKind::BstPrefetch,
        QueryKind::Btree(8),
        QueryKind::Veb,
    ] {
        round_trip::<u64, u64>(kind, |i| i, |i| i * 1000);
    }
}

#[test]
fn round_trip_value_shapes() {
    // Pod (zero-copy) key widths other than u64, plus heap-allocated
    // and composite values through the generic codec path.
    round_trip::<u32, Vec<u8>>(
        QueryKind::Veb,
        |i| i as u32,
        |i| vec![i as u8; (i % 5) as usize],
    );
    round_trip::<u64, String>(QueryKind::Btree(8), |i| i, |i| format!("value-{i}"));
    round_trip::<u16, (u64, bool)>(QueryKind::Sorted, |i| i as u16, |i| (i, i % 3 == 0));
    round_trip::<i64, Option<u64>>(
        QueryKind::Veb,
        |i| i as i64 - 11,
        |i| (i % 2 == 0).then_some(i),
    );
}

/// The run size from which a compaction output is built in the map's
/// configured layout; smaller outputs stay sorted. It mirrors
/// `LAYOUT_CROSSOVER_VERSIONS` in `crates/dynamic/src/dynamic/run.rs`,
/// so changing that constant fails the test below until this one
/// follows.
const LAYOUT_CROSSOVER: usize = 1 << 18;

/// Each persisted run records its own layout, and a compaction output's
/// layout follows from its length: a map holding merged runs on both
/// sides of the crossover writes a sorted run file for the one below it
/// and a vEB run file for the one at it.
#[test]
fn run_file_kind_follows_the_run_length() {
    let vfs = Arc::new(MemVfs::new());
    let cap = LAYOUT_CROSSOVER / 2;
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, cap);
    // Three sealing batches of distinct keys: the second merge folds
    // two half-crossover runs into one of exactly the crossover.
    for batch in 0..3u64 {
        let lo = batch * cap as u64;
        map.batch_insert((lo..lo + cap as u64).map(|k| (k, k)).collect());
        map.quiesce();
    }
    assert_eq!(map.tier_versions(), vec![vec![cap], vec![LAYOUT_CROSSOVER]]);
    map.persist_to("db", mem_cfg(&vfs)).expect("persist");
    let db = Path::new("db");
    let manifest = Manifest::read(&*vfs, db).expect("manifest");
    assert_eq!(manifest.kind, QueryKind::Veb);
    let mut kinds = Vec::new();
    for run in manifest.l0.iter().chain(manifest.tiers.iter().flatten()) {
        let reader = RunReader::open(&*vfs, &db.join(run_file_name(run.id))).expect("run file");
        let (n, kind) = (reader.header().n as usize, reader.header().kind);
        let expect = if n < LAYOUT_CROSSOVER {
            QueryKind::Sorted
        } else {
            QueryKind::Veb
        };
        assert_eq!(kind, expect, "run {} holds {n} versions", run.id);
        kinds.push(kind);
    }
    kinds.sort_by_key(|k| k.name());
    assert_eq!(kinds, vec![QueryKind::Sorted, QueryKind::Veb]);
}

// ---------------------------------------------------------------------
// Total decoders: arbitrary bytes must yield Ok or a typed error,
// never a panic, never an absurd allocation.
// ---------------------------------------------------------------------

#[test]
fn decoders_are_total_on_arbitrary_bytes() {
    let mut lcg = Lcg(0x5EED_F00D);
    for round in 0..400 {
        let len = (lcg.next() % 256) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| lcg.next() as u8).collect();
        // Half the rounds, plant a valid magic so the fuzz gets past
        // the first gate and into the field decoders.
        if round % 2 == 0 && bytes.len() >= 8 {
            let magic: &[u8; 8] = match round % 8 {
                0 => b"IST-RUN\0",
                2 => b"IST-MAN\0",
                4 => b"IST-SHD\0",
                _ => b"IST-WAL\0",
            };
            bytes[..8].copy_from_slice(magic);
        }
        let _ = RunHeader::decode(&bytes);
        let _ = Manifest::decode(&bytes);
        let _ = ShardsFile::<u64>::decode(&bytes);
        let _ = parse_wal(&bytes, None);
    }
}

// ---------------------------------------------------------------------
// Checksums: every single-bit flip in every structure is rejected (or,
// for the WAL, at worst demoted to a shorter *prefix* of records —
// never a wrong record).
// ---------------------------------------------------------------------

/// A small but fully populated run file: every section non-empty.
fn sample_run_bytes() -> Vec<u8> {
    let keys: Vec<u8> = (0..5u64).flat_map(|k| (k * 7).to_le_bytes()).collect();
    let values: Vec<u8> = vec![0b0001_0110, 9, 8, 7];
    let weights: Vec<u8> = (0..6i64).flat_map(|w| w.to_le_bytes()).collect();
    encode_run(
        QueryKind::Veb,
        5,
        (3, 17),
        RunSections {
            keys: &keys,
            values: &values,
            weights: &weights,
        },
    )
}

/// Header plus the raw bytes of the keys, values, and weights sections.
type RunContents = (RunHeader, Vec<u8>, Vec<u8>, Vec<u8>);

/// Open + fully read a run file on `vfs`; any checksum or structural
/// problem surfaces as `Err`.
fn read_run_fully(
    vfs: &MemVfs,
    path: &Path,
) -> Result<RunContents, implicit_search_trees::store::StoreError> {
    let mut r = RunReader::open(vfs, path)?;
    let header = *r.header();
    let mut keys = vec![0u8; r.keys_len()];
    r.read_keys_into(&mut keys)?;
    let values = r.read_values()?;
    let mut weights = vec![0u8; r.weights_len()];
    r.read_weights_into(&mut weights)?;
    Ok((header, keys, values, weights))
}

#[test]
fn run_file_rejects_every_bit_flip() {
    let bytes = sample_run_bytes();
    assert!(bytes.len() > RUN_HEADER_LEN);
    let vfs = MemVfs::new();
    let path = PathBuf::from(run_file_name(0));
    vfs.restore(&[(path.clone(), bytes.clone())]);
    read_run_fully(&vfs, &path).expect("pristine file reads");
    for bit in 0..(bytes.len() as u64 * 8) {
        assert!(vfs.flip_bit(&path, bit));
        assert!(
            read_run_fully(&vfs, &path).is_err(),
            "bit flip at {bit} went undetected"
        );
        assert!(vfs.flip_bit(&path, bit)); // restore
    }
}

#[test]
fn run_file_rejects_every_truncation() {
    let bytes = sample_run_bytes();
    let vfs = MemVfs::new();
    let path = PathBuf::from(run_file_name(0));
    for cut in 0..bytes.len() as u64 {
        vfs.restore(&[(path.clone(), bytes.clone())]);
        assert!(vfs.truncate(&path, cut));
        assert!(
            read_run_fully(&vfs, &path).is_err(),
            "truncation to {cut} bytes went undetected"
        );
    }
}

#[test]
fn manifest_and_shards_reject_every_bit_flip() {
    let manifest = {
        let vfs = Arc::new(MemVfs::new());
        let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 2);
        for i in 0..9u64 {
            map.insert(i, i);
            map.quiesce();
        }
        map.persist_to("db", mem_cfg(&vfs)).expect("persist");
        vfs.file_bytes(Path::new("db").join(MANIFEST_NAME).as_path())
            .expect("manifest written")
    };
    Manifest::decode(&manifest).expect("pristine manifest decodes");
    for bit in 0..(manifest.len() as u64 * 8) {
        let mut wounded = manifest.clone();
        wounded[(bit / 8) as usize] ^= 1 << (bit % 8);
        assert!(
            Manifest::decode(&wounded).is_err(),
            "manifest bit flip at {bit} went undetected"
        );
    }
    let shards = ShardsFile {
        splits: vec![10u64, 20, 30],
    }
    .encode();
    ShardsFile::<u64>::decode(&shards).expect("pristine shards file decodes");
    for bit in 0..(shards.len() as u64 * 8) {
        let mut wounded = shards.clone();
        wounded[(bit / 8) as usize] ^= 1 << (bit % 8);
        assert!(
            ShardsFile::<u64>::decode(&wounded).is_err(),
            "shards bit flip at {bit} went undetected"
        );
    }
}

/// The `SHARDS` file is the one place outside input reaches a sharded
/// map's split vector, which routing trusts to be strictly increasing
/// without re-checking it. A file whose checksum is right but whose
/// splits are out of order must fail `open_with` as `Corrupt`.
#[test]
fn unsorted_shards_file_splits_are_corrupt() {
    let vfs = Arc::new(MemVfs::new());
    let mut map: ShardedMap<u64, u64> =
        ShardedMap::with_splits_config(vec![10, 20], QueryKind::Veb, 4);
    map.apply((0..30u64).map(|k| (k, Some(k))).collect());
    map.persist_to("db", mem_cfg(&vfs)).expect("persist");
    drop(map);
    let reopened = ShardedMap::<u64, u64>::open_with("db", mem_cfg(&vfs)).expect("reopen");
    assert_eq!(reopened.len(), 30);
    drop(reopened);

    ShardsFile {
        splits: vec![20u64, 10],
    }
    .write_atomic(&*vfs, Path::new("db"))
    .expect("rewrite SHARDS");
    match ShardedMap::<u64, u64>::open_with("db", mem_cfg(&vfs)) {
        Err(StoreError::Corrupt(_)) => {}
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("unsorted splits opened"),
    }
}

#[test]
fn wal_flips_yield_error_or_record_prefix() {
    let vfs = MemVfs::new();
    let path = PathBuf::from(wal_file_name(1));
    let mut wal = WalWriter::create(&vfs, &path, 1, FsyncPolicy::Always).expect("create");
    let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3 + i as usize]).collect();
    for p in &payloads {
        wal.append(p).expect("append");
    }
    drop(wal);
    let bytes = vfs.file_bytes(&path).expect("wal written");
    let pristine = parse_wal(&bytes, Some(1)).expect("pristine wal parses");
    assert_eq!(pristine.records, payloads);
    for bit in 0..(bytes.len() as u64 * 8) {
        let mut wounded = bytes.clone();
        wounded[(bit / 8) as usize] ^= 1 << (bit % 8);
        // A flip may mimic a torn tail; what parses must then be an
        // exact prefix of the real records — never a wrong record.
        if let Ok(contents) = parse_wal(&wounded, Some(1)) {
            assert!(
                contents.records.len() < payloads.len()
                    && contents.records == payloads[..contents.records.len()],
                "wal bit flip at {bit} produced non-prefix records"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Golden store: byte-for-byte pinned format. `IST_WRITE_GOLDEN=1`
// regenerates `tests/golden/map-v1/` (commit the result deliberately —
// it is a format change); the normal run asserts the current encoder
// still produces those exact bytes AND that the committed files open
// to the expected state.
// ---------------------------------------------------------------------

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/map-v1")
}

/// The deterministic workload behind the golden store: fixed ops, fixed
/// buffer cap, compaction drained after every write, single-threaded
/// merges — every byte of the output is a pure function of the codec.
fn build_golden() -> (Arc<MemVfs>, BTreeMap<u64, u64>) {
    let vfs = Arc::new(MemVfs::new());
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 4);
    let mut oracle = BTreeMap::new();
    for i in 0..33u64 {
        let k = (i * 13) % 29;
        map.insert(k, i);
        map.quiesce();
        oracle.insert(k, i);
    }
    for k in [0u64, 13, 26] {
        map.remove(&k);
        map.quiesce();
        oracle.remove(&k);
    }
    map.persist_to("db", mem_cfg(&vfs)).expect("persist");
    // A WAL tail of three delta records — a one-key insert, a one-key
    // remove and a two-key batch — after the checkpoint's seed.
    map.insert(100, 1);
    map.quiesce();
    oracle.insert(100, 1);
    map.remove(&1);
    map.quiesce();
    oracle.remove(&1);
    map.batch_insert(vec![(101, 2), (102, 3)]);
    map.quiesce();
    oracle.insert(101, 2);
    oracle.insert(102, 3);
    drop(map);
    (vfs, oracle)
}

#[test]
fn golden_store_bytes_and_recovery() {
    let (vfs, oracle) = build_golden();
    let mut produced: Vec<(String, Vec<u8>)> = vfs
        .dump()
        .into_iter()
        .map(|(p, b)| {
            (
                p.file_name()
                    .expect("flat store dir")
                    .to_string_lossy()
                    .into_owned(),
                b,
            )
        })
        .collect();
    produced.sort();
    let dir = golden_dir();
    if std::env::var_os("IST_WRITE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("mkdir golden");
        for entry in std::fs::read_dir(&dir).expect("read golden dir") {
            std::fs::remove_file(entry.expect("entry").path()).expect("clear stale golden");
        }
        for (name, bytes) in &produced {
            std::fs::write(dir.join(name), bytes).expect("write golden file");
        }
        eprintln!(
            "rewrote {} golden files in {}",
            produced.len(),
            dir.display()
        );
        return;
    }
    // 1. The committed bytes still open — on a copy (opening rotates
    //    the WAL and manifest, so never open the golden dir itself).
    let committed = committed_files(&dir);
    let reopened = DynamicMap::<u64, u64>::open_with("db", mem_cfg(&mem_store(&committed)))
        .expect("golden store opens");
    assert_golden_state(&reopened, &oracle, "golden");
    // 2. The current encoder reproduces the committed bytes exactly.
    let produced_names: Vec<&String> = produced.iter().map(|(n, _)| n).collect();
    let committed_names: Vec<&String> = committed.iter().map(|(n, _)| n).collect();
    assert_eq!(
        produced_names, committed_names,
        "golden file set changed — format change? regenerate with IST_WRITE_GOLDEN=1"
    );
    for ((name, new_bytes), (_, old_bytes)) in produced.iter().zip(&committed) {
        assert_eq!(
            crc64(new_bytes),
            crc64(old_bytes),
            "{name}: on-disk bytes changed — format change? bump the \
             version and regenerate with IST_WRITE_GOLDEN=1"
        );
        assert_eq!(new_bytes, old_bytes, "{name}: byte drift");
    }
}

/// Manifest v1 may name several runs in one tier: stores written while
/// a tier could accumulate runs look like that. Such a store must still
/// open, read the tier newest-first, and fold it back to one run the
/// first time a compaction reaches it — on disk as well as in memory.
#[test]
fn v1_manifest_with_a_two_run_tier_opens_and_folds() {
    let vfs = Arc::new(MemVfs::new());
    let dir = Path::new("db");
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, 4);
    let mut oracle = BTreeMap::new();
    // Two seals fold keys 0..8 into tier 1; a third leaves a newer run
    // on tier 0 that overwrites, deletes and extends them, so the
    // order of the two runs decides what a read answers.
    for k in 0..8u64 {
        map.insert(k, 100 + k);
        map.quiesce();
        oracle.insert(k, 100 + k);
    }
    for (k, v) in [(0u64, 200u64), (1, 201), (20, 220)] {
        map.insert(k, v);
        map.quiesce();
        oracle.insert(k, v);
    }
    map.remove(&2);
    map.quiesce();
    oracle.remove(&2);
    assert_eq!(map.tier_versions(), vec![vec![4], vec![8]]);
    map.persist_to(dir, mem_cfg(&vfs)).expect("persist");
    drop(map);

    // Regroup: both runs in tier 1, newer first.
    let mut manifest = Manifest::read(&*vfs, dir).expect("manifest");
    let newer = manifest.tiers[0].pop().expect("tier 0 run");
    manifest.tiers[1].insert(0, newer);
    manifest.write_atomic(&*vfs, dir).expect("rewrite manifest");

    let check = |map: &DynamicMap<u64, u64>, oracle: &BTreeMap<u64, u64>, when: &str| {
        assert_eq!(map.len(), oracle.len(), "{when}: len");
        for k in 0..45u64 {
            assert_eq!(map.get(&k), oracle.get(&k), "{when}: get({k})");
            assert_eq!(map.rank(&k), oracle.range(..k).count(), "{when}: rank({k})");
        }
    };
    let reopen =
        || DynamicMap::<u64, u64>::open_with(dir, mem_cfg(&vfs)).expect("a two-run tier opens");
    let mut map = reopen();
    assert_eq!(map.tier_versions(), vec![vec![], vec![4, 8]]);
    check(&map, &oracle, "reopened");

    // The first seal lands on the empty tier 0 and leaves tier 1 alone;
    // the second finds tiers 0 and 1 occupied and folds both away.
    for k in 30..34u64 {
        map.insert(k, k);
        map.quiesce();
        oracle.insert(k, k);
    }
    assert_eq!(map.tier_versions(), vec![vec![4], vec![4, 8]]);
    check(&map, &oracle, "one seal later");
    for k in 34..38u64 {
        map.insert(k, k);
        map.quiesce();
        oracle.insert(k, k);
    }
    assert!(
        map.tier_versions().iter().all(|tier| tier.len() <= 1),
        "the two-run tier never folded: {:?}",
        map.tier_versions()
    );
    check(&map, &oracle, "folded");
    assert!(map.store_error().is_none(), "{:?}", map.store_error());
    drop(map);
    let map = reopen();
    assert!(map.tier_versions().iter().all(|tier| tier.len() <= 1));
    check(&map, &oracle, "folded and reopened");
}

/// The files of a committed golden store, sorted by name.
fn committed_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("golden dir exists (regenerate with IST_WRITE_GOLDEN=1)")
        .map(|e| {
            let e = e.expect("entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read golden file"),
            )
        })
        .collect();
    files.sort();
    files
}

/// A fresh `MemVfs` holding `files` in `db/`.
fn mem_store(files: &[(String, Vec<u8>)]) -> Arc<MemVfs> {
    let vfs = MemVfs::new();
    vfs.restore(
        &files
            .iter()
            .map(|(n, b)| (Path::new("db").join(n), b.clone()))
            .collect::<Vec<_>>(),
    );
    Arc::new(vfs)
}

fn assert_golden_state(map: &DynamicMap<u64, u64>, oracle: &BTreeMap<u64, u64>, ctx: &str) {
    assert_eq!(map.len(), oracle.len(), "{ctx}: len");
    for k in 0..110u64 {
        assert_eq!(map.get(&k), oracle.get(&k), "{ctx}: get({k})");
        assert_eq!(map.rank(&k), oracle.range(..k).count(), "{ctx}: rank({k})");
    }
}

/// Three stores an earlier engine wrote in the same format must open to
/// the golden oracle, take a write, and reopen with it:
///
/// - `tests/golden/map-v1-sealed/` is the golden store as the engine
///   before checkpoints wrote it, with a run file and a manifest rotation
///   at every seal and every compaction (hence run ids 1 and 3 and WAL
///   2);
/// - `tests/golden/map-v1-veb-tiers/` is the golden store as the engine
///   before size-adaptive runs wrote it: every merged run in the map's
///   vEB layout, where the current engine keeps runs that small sorted;
/// - `tests/golden/map-v1-scalar-wal/` is the golden store as the engine
///   before every write became a delta wrote it: its WAL tail holds the
///   one-key put and delete records, which replay as one-entry deltas.
///
/// All three fixtures installed every compaction before the next write,
/// so their L0 is empty; the L0 refs an engine leaves whenever a merge
/// is in flight are rebuilt by moving the newest run to L0, and that
/// shape must open the same way.
#[test]
fn golden_store_written_per_seal_opens_and_takes_a_write() {
    let (_, golden) = build_golden();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (fixture, wal_seq) in [
        ("map-v1-sealed", 2),
        ("map-v1-veb-tiers", 1),
        ("map-v1-scalar-wal", 1),
    ] {
        for sealed_l0 in [false, true] {
            let ctx = format!("{fixture}, newest run in L0: {sealed_l0}");
            let vfs = mem_store(&committed_files(&root.join(fixture)));
            let db = Path::new("db");
            let mut manifest = Manifest::read(&*vfs, db).expect("earlier engine's manifest");
            assert_eq!((manifest.wal_seq, manifest.l0.len()), (wal_seq, 0), "{ctx}");
            if sealed_l0 {
                let newest = manifest.tiers.iter_mut().find_map(|tier| tier.pop());
                manifest.l0.push(newest.expect("a tier run"));
                manifest.write_atomic(&*vfs, db).expect("rewrite manifest");
            }
            let mut oracle = golden.clone();
            let mut map = DynamicMap::<u64, u64>::open_with(db, mem_cfg(&vfs)).expect("opens");
            assert_golden_state(&map, &oracle, &ctx);
            assert!(!map.insert(105, 5));
            oracle.insert(105, 5);
            assert!(map.store_error().is_none(), "{ctx}");
            drop(map);
            let map = DynamicMap::<u64, u64>::open_with(db, mem_cfg(&vfs)).expect("reopens");
            assert_golden_state(&map, &oracle, &format!("{ctx}, after a write"));
        }
    }
}
