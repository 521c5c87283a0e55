//! Durability for [`DynamicMap`]: run files, write-ahead logging, and
//! crash recovery, built on the `ist-store` primitives.
//!
//! ## Protocol
//!
//! A persistent map owns one directory containing immutable run files
//! (`run-NNNNNN.ist`), exactly one live WAL (`wal-NNNNNN.log`), and the
//! atomically-rotated `MANIFEST` naming both. Two operations write it:
//!
//! * **log** — every mutation is an `apply` (`insert`, `remove` and the
//!   `batch_*` wrappers included), and appends one delta record of its
//!   sorted, deduplicated entries *before* it is applied in memory. The
//!   [`FsyncPolicy`] decides when appended records become *acked*
//!   (crash-proof). Seals and compaction installs write nothing: the
//!   manifest's runs plus the live WAL are the whole state.
//! * **checkpoint** — the only writer of run files and manifests, in
//!   this order: write and sync a run file for every resident run that
//!   has none yet (a run's file is recorded once, in [`Run::file`], so
//!   an unchanged run is never rewritten); create WAL *n+1* seeded with
//!   one always-synced delta of the write buffer; rotate `MANIFEST`
//!   (temp file, fsync, rename, directory fsync); delete the old WAL
//!   and every file the new manifest does not name. Until the rename
//!   lands, the old manifest and the old WAL hold every acked record;
//!   after it, the new manifest, its run files and the seeded WAL do.
//!   What a crash in between leaves behind are orphans, deleted by the
//!   next checkpoint.
//!
//! A checkpoint runs in three places: in [`DynamicMap::persist_to`],
//! where nothing is on disk yet; in [`DynamicMap::open_with`], after the
//! WAL replay and a [`DynamicMap::quiesce`]; and after a logged
//! mutation, once the live WAL holds [`CHECKPOINT_BUFFERS`] ×
//! `buffer_cap` entries.
//!
//! Recovery ([`DynamicMap::open_with`]) loads the manifest's runs and
//! replays the WAL through `apply`, the one mutation path — seals and
//! compactions fire as they did the first time, and the engine is not
//! attached yet, so nothing is re-logged — then quiesces and
//! checkpoints. A WAL holds fewer than `CHECKPOINT_BUFFERS ×
//! buffer_cap` entries before its last record, its seed's included,
//! which bounds the replay.
//!
//! A run file's sequence range (in its header and its manifest
//! [`RunRef`]) is informational; recovery never reads it. `seq_hi` is
//! the last sequence number logged before the checkpoint that first
//! wrote the run — no later mutation is in it — and `seq_lo` the first
//! entry of the WAL that checkpoint retired; a run that absorbed older
//! runs in a merge holds older versions too. `persist_to` writes
//! `(0, 0)`: history before persistence has no sequence numbers.
//!
//! A run file holds a run's arrays in layout order, each key and value
//! in its [`Codec`] encoding. Loading one is a pure decode: each
//! section is read whole and checksum-verified first, and the entry
//! count the header declares is bounded by the section lengths before
//! anything is allocated for it; keys and values are then decoded
//! straight into fresh 64-byte-aligned buffers, for every key and
//! value type.
//!
//! ## Failure latching
//!
//! The engine never panics on storage failure: the first error poisons
//! it — subsequent mutations are rejected (returning the neutral
//! `false`/`0`), [`DynamicMap::store_error`] reports the cause, and the
//! in-memory map stays fully readable. The on-disk state is always a
//! consistent prefix of the acknowledged history.

use crate::sync::{lock, Arc, Mutex};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::alloc::AlignedVec;
use crate::dynamic::{BufEntry, DynamicMap, Prefix, Run};
use crate::map::StaticMap;
use ist_store::{
    read_wal, run_file_name, wal_file_name, Codec, Input, Manifest, RunReader, RunRef, RunSections,
    StoreConfig, StoreError, Vfs, WalWriter, MANIFEST_NAME,
};

/// A persistent map checkpoints after a mutation once its live WAL
/// holds this many buffers' worth of entries (`CHECKPOINT_BUFFERS ×
/// buffer_cap`; a delta record counts its every entry, the checkpoint
/// seed included). This bounds what an open replays: fewer than
/// `CHECKPOINT_BUFFERS × buffer_cap` entries plus the WAL's last record
/// — 16 384 plus one record at the default `buffer_cap` of 256.
///
/// Picked from a `durable_ticks` sweep (2 vCPUs, seed 1, 10 s runs,
/// fsync `Always`, six runs each): median `throughput_kops_s` 545 /
/// 623 / 665 / 729 at 8 / 16 / 32 / 64, against 278 for the store that
/// wrote files at every seal and install. A longer interval lengthens
/// the replay bound above in proportion.
const CHECKPOINT_BUFFERS: u64 = 64;

// ---------------------------------------------------------------------------
// The hook trait dynamic.rs talks to
// ---------------------------------------------------------------------------

/// Object-safe durability hooks. `DynamicMap` stores this as a trait
/// object so its mutation paths stay free of `Codec` bounds — the
/// bounds live only on [`StoreEngine`]'s impl and on the public
/// `persist_to`/`open` constructors.
pub(crate) trait RunSink<K, V>: Send {
    /// Log one delta (sorted, one entry per key) as one WAL record.
    /// `false` rejects the mutation (sink poisoned or the append
    /// failed, poisoning it now).
    fn log(&mut self, delta: &[(K, Option<V>)]) -> bool;
    /// Called after every applied mutation with the map's run set and
    /// buffer: checkpoint once the live WAL holds
    /// [`CHECKPOINT_BUFFERS`] buffers' worth of entries. A failure
    /// poisons the sink.
    fn checkpoint_if_due(
        &mut self,
        l0: &[Arc<Run<K, V>>],
        tiers: &[Vec<Arc<Run<K, V>>>],
        buffer: &[BufEntry<K, V>],
    );
    /// Fsync the WAL, making every appended record durable.
    fn flush(&mut self) -> Result<(), StoreError>;
    /// Display form of the latched error, if poisoned.
    fn error_display(&self) -> Option<String>;
    /// Logged mutations (one WAL record per non-empty `apply`)
    /// guaranteed to survive a crash, counted since this engine was
    /// attached (retired WALs' records included; a checkpoint's seed
    /// record never counts).
    fn acked_records(&self) -> u64;
}

// ---------------------------------------------------------------------------
// WAL record codec
// ---------------------------------------------------------------------------

/// The tag of the one record kind a map writes: a delta.
const REC_DELTA: u8 = 3;

/// A delta record of `len` entries: a logged `apply`, or a checkpoint's
/// seed (the write buffer, encoded in place).
fn encode_record<'a, K: Codec + 'a, V: Codec + 'a>(
    len: usize,
    entries: impl Iterator<Item = (&'a K, &'a Option<V>)>,
) -> Vec<u8> {
    let mut out = vec![REC_DELTA];
    (len as u32).encode_into(&mut out);
    for (key, slot) in entries {
        key.encode_into(&mut out);
        slot.encode_into(&mut out);
    }
    out
}

/// Decode one WAL record as the delta it applies (a legacy one-key
/// record is a one-entry delta). Total over arbitrary bytes: corrupt
/// records are typed errors, never panics or unbounded allocations.
fn decode_record<K: Codec, V: Codec>(bytes: &[u8]) -> Result<Vec<(K, Option<V>)>, StoreError> {
    // The one-key records of stores written before every mutation
    // became a delta; read so those stores still open.
    const REC_PUT: u8 = 1;
    const REC_DEL: u8 = 2;
    let mut input = Input::new(bytes);
    let tag = u8::decode_from(&mut input)?;
    let delta = match tag {
        REC_PUT => vec![(
            K::decode_from(&mut input)?,
            Some(V::decode_from(&mut input)?),
        )],
        REC_DEL => vec![(K::decode_from(&mut input)?, None)],
        REC_DELTA => {
            let count = u32::decode_from(&mut input)? as usize;
            if count > input.remaining() {
                return Err(StoreError::Corrupt(
                    "wal delta count exceeds record size".into(),
                ));
            }
            let mut delta = Vec::with_capacity(count);
            for _ in 0..count {
                let key = K::decode_from(&mut input)?;
                let slot = Option::<V>::decode_from(&mut input)?;
                delta.push((key, slot));
            }
            delta
        }
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown wal record tag {other}"
            )));
        }
    };
    if !input.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in wal record".into()));
    }
    Ok(delta)
}

// ---------------------------------------------------------------------------
// Run file encode/decode
// ---------------------------------------------------------------------------

/// Serialize `run` into a durably-written run file at `path`. The
/// sections hold the arrays in **layout order**, so the write is one
/// sequential pass over memory that is already in its final shape.
fn write_run_file<K, V>(
    vfs: &dyn Vfs,
    path: &Path,
    run: &Run<K, V>,
    seq: (u64, u64),
) -> Result<(), StoreError>
where
    K: Ord + Send + Sync + 'static + Codec,
    V: Send + Codec,
{
    let n = run.map.len();
    let mut keys = Vec::new();
    for key in run.map.keys() {
        key.encode_into(&mut keys);
    }
    // Values: presence bitmap (bit i set = slot i holds a value), then
    // the present values in layout order.
    let mut vals = vec![0u8; n.div_ceil(8)];
    for (i, slot) in run.map.values().iter().enumerate() {
        if slot.is_some() {
            vals[i / 8] |= 1 << (i % 8);
        }
    }
    for value in run.map.values().iter().flatten() {
        value.encode_into(&mut vals);
    }
    // Weights: the rank-indexed prefix, raw little-endian i64s. The
    // common case — a fully compacted run where every version has
    // weight 1 — has the identity prefix `0, 1, …, n`, which is elided
    // entirely (`wts_len == 0`) and resynthesized at load; for a
    // 2^20-key run that is 8 MiB less to write, read, and checksum on
    // the cold-start path.
    let mut wts = Vec::new();
    if let Prefix::Explicit(prefix) = &run.prefix {
        if !prefix.iter().enumerate().all(|(i, &w)| w == i as i64) {
            wts.reserve_exact((n + 1) * 8);
            for w in prefix {
                w.encode_into(&mut wts);
            }
        }
    }
    ist_store::write_run(
        vfs,
        path,
        run.map.kind(),
        n as u64,
        seq,
        RunSections {
            keys: &keys,
            values: &vals,
            weights: &wts,
        },
    )
}

/// Load the run file `r` names in `dir` back into memory: each section
/// is read and checksum-verified whole, then its keys and values are
/// decoded straight into fresh 64-byte-aligned buffers — already in
/// layout order, so nothing is permuted. Total over arbitrary file
/// contents.
fn load_run<K, V>(vfs: &dyn Vfs, dir: &Path, r: RunRef) -> Result<Run<K, V>, StoreError>
where
    K: Ord + Send + Sync + 'static + Codec,
    V: Send + 'static + Codec,
{
    let mut reader = RunReader::open(vfs, &dir.join(run_file_name(r.id)))?;
    let header = *reader.header();
    // Bound `n` by what the sections hold before allocating anything
    // sized by it: every key encodes to at least one byte, and the
    // values section opens with an `⌈n/8⌉`-byte presence bitmap.
    let n = usize::try_from(header.n)
        .ok()
        .filter(|&n| n as u64 <= header.keys_len && n.div_ceil(8) as u64 <= header.vals_len)
        .ok_or_else(|| {
            StoreError::Corrupt(format!(
                "run declares {} entries but its sections hold {} key and {} value bytes",
                header.n, header.keys_len, header.vals_len
            ))
        })?;
    // Keys.
    let bytes = reader.read_keys()?;
    let mut input = Input::new(&bytes);
    let keys = AlignedVec::try_from_fn(n, |_| K::decode_from(&mut input))?;
    if !input.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in keys section".into()));
    }
    drop(bytes);
    // Values.
    let bytes = reader.read_values()?;
    let mut input = Input::new(&bytes);
    let bitmap = input.take(n.div_ceil(8))?;
    let values = AlignedVec::try_from_fn(n, |i| match bitmap[i / 8] & (1 << (i % 8)) {
        0 => Ok(None),
        _ => V::decode_from(&mut input).map(Some),
    })?;
    if !input.is_empty() {
        return Err(StoreError::Corrupt(
            "trailing bytes in values section".into(),
        ));
    }
    drop(bytes);
    // Weights. An empty section is the elided unit-weight encoding:
    // the prefix is the identity `0, 1, …, n`, kept symbolic.
    let prefix = if header.wts_len == 0 {
        Prefix::Unit(n)
    } else {
        let expect_wts = (n as u64 + 1).checked_mul(8);
        if expect_wts != Some(header.wts_len) {
            return Err(StoreError::Corrupt(format!(
                "weights section is {} bytes but a {n}-entry prefix needs {:?}",
                header.wts_len, expect_wts
            )));
        }
        let mut wbytes = vec![0u8; reader.weights_len()];
        reader.read_weights_into(&mut wbytes)?;
        let mut prefix = Vec::with_capacity(n + 1);
        let mut input = Input::new(&wbytes);
        for _ in 0..=n {
            prefix.push(i64::decode_from(&mut input)?);
        }
        if prefix[0] != 0 {
            return Err(StoreError::Corrupt(
                "weight prefix does not start at zero".into(),
            ));
        }
        Prefix::Explicit(prefix)
    };
    Ok(Run {
        map: StaticMap::from_layout_parts(keys, values, header.kind),
        prefix,
        file: r.into(),
    })
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The per-map durability engine: owns the live WAL, remembers the
/// manifest in force, and latches the first error.
struct StoreEngine<K, V> {
    dir: PathBuf,
    cfg: StoreConfig,
    wal: WalWriter,
    /// The manifest in force, as the last checkpoint rotated it. Its
    /// `next_seq` is the sequence number of the live WAL's first entry.
    manifest: Manifest,
    /// Next mutation sequence number: `next_seq - manifest.next_seq` is
    /// how many entries the live WAL holds, its seed's included.
    next_seq: u64,
    /// Whether the live WAL starts with a checkpoint's seed record,
    /// which re-logs the buffer and is never an acknowledged mutation.
    seeded: bool,
    /// Records of retired WALs: every one of them is represented by
    /// the checkpoint that retired its WAL.
    durable_records: u64,
    error: Option<StoreError>,
    _types: PhantomData<fn() -> (K, V)>,
}

impl<K, V> StoreEngine<K, V> {
    /// The engine for `dir` right after [`checkpoint`] installed `wal`
    /// and `manifest` there, the WAL seeded with `seed` buffer entries.
    fn attached(
        dir: PathBuf,
        cfg: StoreConfig,
        (wal, manifest): (WalWriter, Manifest),
        seed: usize,
    ) -> Self {
        Self {
            dir,
            cfg,
            wal,
            next_seq: manifest.next_seq + seed as u64,
            manifest,
            seeded: seed > 0,
            durable_records: 0,
            error: None,
            _types: PhantomData,
        }
    }

    fn poison(&mut self, e: StoreError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }
}

impl<K, V> RunSink<K, V> for StoreEngine<K, V>
where
    K: Ord + Clone + Send + Sync + 'static + Codec,
    V: Clone + Send + Sync + 'static + Codec,
{
    fn log(&mut self, delta: &[(K, Option<V>)]) -> bool {
        if self.error.is_some() {
            return false;
        }
        let payload = encode_record(delta.len(), delta.iter().map(|(k, s)| (k, s)));
        match self.wal.append(&payload) {
            Ok(_durable_now) => {
                self.next_seq += delta.len() as u64;
                true
            }
            Err(e) => {
                self.poison(e);
                false
            }
        }
    }

    fn checkpoint_if_due(
        &mut self,
        l0: &[Arc<Run<K, V>>],
        tiers: &[Vec<Arc<Run<K, V>>>],
        buffer: &[BufEntry<K, V>],
    ) {
        let wal_entries = self.next_seq - self.manifest.next_seq;
        if self.error.is_some() || wal_entries < CHECKPOINT_BUFFERS * self.manifest.buffer_cap {
            return;
        }
        let (prev, next_seq) = (&self.manifest, self.next_seq);
        match checkpoint(&self.dir, &self.cfg, prev, next_seq, l0, tiers, buffer) {
            Ok((wal, manifest)) => {
                // Every record of the retired WAL is now in the new
                // manifest's runs or in the new WAL's seed.
                self.durable_records += self.wal.appended() - u64::from(self.seeded);
                self.wal = wal;
                self.next_seq = manifest.next_seq + buffer.len() as u64;
                self.manifest = manifest;
                self.seeded = !buffer.is_empty();
            }
            Err(e) => self.poison(e),
        }
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        if let Some(e) = &self.error {
            return Err(StoreError::Poisoned {
                reason: e.to_string(),
            });
        }
        match self.wal.sync() {
            Ok(()) => Ok(()),
            Err(e) => {
                let reported = StoreError::Poisoned {
                    reason: e.to_string(),
                };
                self.poison(e);
                Err(reported)
            }
        }
    }

    fn error_display(&self) -> Option<String> {
        self.error.as_ref().map(StoreError::to_string)
    }

    fn acked_records(&self) -> u64 {
        // A seed is synced before its checkpoint completes.
        self.durable_records + self.wal.acked() - u64::from(self.seeded)
    }
}

/// The checkpoint (see the module docs) of a map's run set (`l0`,
/// `tiers`) and write buffer: the one path that writes run files and
/// the manifest. `prev` is the manifest in force — an empty one with
/// `wal_seq` 0 when nothing is on disk yet — and `next_seq` the next
/// unused sequence number, which the seed's entries start at. Returns
/// the new live WAL and the manifest now in force.
fn checkpoint<'m, K, V>(
    dir: &Path,
    cfg: &StoreConfig,
    prev: &Manifest,
    next_seq: u64,
    l0: &'m [Arc<Run<K, V>>],
    tiers: &'m [Vec<Arc<Run<K, V>>>],
    buffer: &[BufEntry<K, V>],
) -> Result<(WalWriter, Manifest), StoreError>
where
    K: Ord + Clone + Send + Sync + 'static + Codec,
    V: Clone + Send + Sync + 'static + Codec,
{
    let vfs = &*cfg.vfs;
    // 1. A run file for every resident run that has none yet.
    let seq_hi = next_seq.saturating_sub(1);
    let seq = (prev.next_seq.min(seq_hi), seq_hi);
    let mut next_run_id = prev.next_run_id;
    let mut written = Vec::new();
    let mut file_of = |run: &'m Arc<Run<K, V>>| -> Result<RunRef, StoreError> {
        if let Some(&r) = run.file.get() {
            return Ok(r);
        }
        let r = RunRef {
            id: next_run_id,
            seq_lo: seq.0,
            seq_hi: seq.1,
        };
        next_run_id += 1;
        write_run_file(vfs, &dir.join(run_file_name(r.id)), run, seq)?;
        written.push((run, r));
        Ok(r)
    };
    let l0_refs = l0.iter().map(&mut file_of).collect::<Result<_, _>>()?;
    let mut tier_refs = Vec::with_capacity(tiers.len());
    for tier in tiers {
        tier_refs.push(tier.iter().map(&mut file_of).collect::<Result<_, _>>()?);
    }
    // 2. WAL n+1, seeded with one synced delta of the buffer: the buffer
    //    may hold acked writes of the WAL this checkpoint retires, and
    //    they must not become volatile again, whatever the policy.
    let wal_seq = prev.wal_seq + 1;
    let mut wal = WalWriter::create(vfs, &dir.join(wal_file_name(wal_seq)), wal_seq, cfg.fsync)?;
    if !buffer.is_empty() {
        let entries = buffer.iter().map(|e| (&e.key, &e.slot));
        if !wal.append(&encode_record(buffer.len(), entries))? {
            wal.sync()?;
        }
    }
    // 3. Rotate the manifest.
    let manifest = Manifest {
        kind: prev.kind,
        buffer_cap: prev.buffer_cap,
        next_run_id,
        wal_seq,
        next_seq,
        l0: l0_refs,
        tiers: tier_refs,
    };
    manifest.write_atomic(vfs, dir)?;
    // 4. Past the rename, the new manifest names every written run, and
    //    the old WAL and every unnamed file can go.
    for (run, r) in written {
        let _ = run.file.set(r);
    }
    cleanup_dir(vfs, dir, &manifest);
    Ok((wal, manifest))
}

/// Delete every file in `dir` the manifest does not name (the retired
/// WAL, run files merged away, crash orphans, a stale `MANIFEST.tmp`).
/// Best-effort: deletion failures leave garbage the next checkpoint
/// retries on.
fn cleanup_dir(vfs: &dyn Vfs, dir: &Path, manifest: &Manifest) {
    let Ok(names) = vfs.list(dir) else { return };
    let live_wal = wal_file_name(manifest.wal_seq);
    for name in names {
        let keep = name == MANIFEST_NAME
            || name == live_wal
            || manifest.all_runs().any(|r| run_file_name(r.id) == name);
        if !keep {
            let _ = vfs.remove_file(&dir.join(&name));
        }
    }
}

// ---------------------------------------------------------------------------
// Public API on DynamicMap
// ---------------------------------------------------------------------------

impl<K, V> DynamicMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static + Codec,
    V: Clone + Send + Sync + 'static + Codec,
{
    /// Make this map persistent in `dir`: every resident run is written
    /// as an immutable run file, the write buffer is snapshotted into a
    /// fresh (fsynced) WAL, and from here on every mutation is logged
    /// to the WAL **before** it is applied. `dir` is created if needed
    /// and taken over: files from a previous map in the same directory
    /// are replaced.
    ///
    /// Pending compaction work is drained first ([`DynamicMap::quiesce`])
    /// so the persisted structure is compact.
    ///
    /// # Panics
    /// Panics if the map is already persistent.
    ///
    /// # Errors
    /// Any filesystem failure; the map is left non-persistent (and
    /// fully usable in memory) in that case.
    pub fn persist_to(
        &mut self,
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
    ) -> Result<(), StoreError> {
        assert!(
            self.store.is_none(),
            "DynamicMap::persist_to: map is already persistent"
        );
        self.quiesce();
        let dir = dir.as_ref().to_path_buf();
        cfg.vfs.create_dir_all(&dir)?;
        let nothing = Manifest {
            kind: self.kind,
            buffer_cap: self.buffer_cap as u64,
            next_run_id: 0,
            wal_seq: 0,
            next_seq: 1,
            l0: Vec::new(),
            tiers: Vec::new(),
        };
        let installed = checkpoint(&dir, &cfg, &nothing, 1, &self.l0, &self.tiers, &self.buffer)?;
        let engine = StoreEngine::<K, V>::attached(dir, cfg, installed, self.buffer.len());
        self.store = Some(Mutex::new(Box::new(engine)));
        Ok(())
    }

    /// Reopen a map persisted in `dir` with the default
    /// [`StoreConfig`] (real filesystem, fsync on every WAL append).
    ///
    /// # Errors
    /// See [`DynamicMap::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreConfig::new())
    }

    /// Reopen a map persisted in `dir`: load the manifest's runs,
    /// replay the WAL, and resume exactly where the previous process
    /// left off (every acknowledged write present; a torn tail record
    /// from a crash mid-append is tolerated and discarded).
    ///
    /// The map's layout and buffer capacity come from the manifest.
    /// The replay compacts in the background and is drained
    /// ([`DynamicMap::quiesce`]) before this returns.
    ///
    /// # Errors
    /// Typed [`StoreError`]s for every failure mode — missing or
    /// corrupt files never panic.
    pub fn open_with(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let vfs = &*cfg.vfs;
        let manifest = Manifest::read(vfs, &dir)?;
        let buffer_cap = usize::try_from(manifest.buffer_cap)
            .map_err(|_| StoreError::Corrupt("buffer_cap exceeds address space".into()))?;
        let mut map = DynamicMap::with_config(manifest.kind, buffer_cap);
        for &r in &manifest.l0 {
            map.l0.push(Arc::new(load_run(vfs, &dir, r)?));
        }
        for tier in &manifest.tiers {
            let mut runs = Vec::with_capacity(tier.len());
            for &r in tier {
                runs.push(Arc::new(load_run(vfs, &dir, r)?));
            }
            map.tiers.push(runs);
        }
        map.refresh_runs();
        // Replay the WAL through `apply`, seals and compactions
        // included: the engine is not attached yet, so nothing is
        // re-logged, and nothing is written before the checkpoint below.
        let contents = read_wal(
            vfs,
            &dir.join(wal_file_name(manifest.wal_seq)),
            Some(manifest.wal_seq),
        )?;
        let mut next_seq = manifest.next_seq;
        for record in &contents.records {
            let delta = decode_record::<K, V>(record)?;
            next_seq += delta.len() as u64;
            map.apply(delta);
        }
        map.quiesce();
        let (l0, tiers) = (&map.l0, &map.tiers);
        let installed = checkpoint(&dir, &cfg, &manifest, next_seq, l0, tiers, &map.buffer)?;
        let engine = StoreEngine::<K, V>::attached(dir, cfg, installed, map.buffer.len());
        map.store = Some(Mutex::new(Box::new(engine)));
        Ok(map)
    }
}

// Durability accessors that need no `Codec` bounds.
impl<K, V> DynamicMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// `true` iff this map logs its mutations to a store directory
    /// (attached via [`DynamicMap::persist_to`] or `open`).
    pub fn is_persistent(&self) -> bool {
        self.store.is_some()
    }

    /// Fsync the WAL: on return, every mutation applied so far is
    /// crash-durable regardless of the configured [fsync
    /// policy](ist_store::FsyncPolicy). A no-op `Ok` on a
    /// non-persistent map.
    ///
    /// # Errors
    /// [`StoreError::Poisoned`] if the engine latched an earlier error
    /// (or the sync itself failed, poisoning it now).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        match self.sink_mut() {
            None => Ok(()),
            Some(sink) => sink.flush(),
        }
    }

    /// The latched storage error, if the durability engine is poisoned.
    /// While poisoned, mutations are rejected (returning the neutral
    /// `false`/`0`) and reads keep serving the in-memory state.
    pub fn store_error(&self) -> Option<StoreError> {
        let engine = self.store.as_ref()?;
        lock(engine)
            .error_display()
            .map(|reason| StoreError::Poisoned { reason })
    }

    /// WAL records guaranteed to survive a crash, counted since the
    /// engine was attached (one per write call: `insert`, `remove`,
    /// `batch_*` and `apply` each log one record, an empty delta none).
    /// Monotone; `0` on a non-persistent map. The crash-injection suite
    /// uses this as the "acknowledged writes" watermark.
    pub fn acked_records(&self) -> u64 {
        self.store.as_ref().map_or(0, |e| lock(e).acked_records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::CACHE_LINE;
    use ist_core::Layout;
    use ist_query::QueryKind;
    use ist_store::MemVfs;
    use std::collections::BTreeMap;

    const CAP: usize = 4;
    /// Entries that make a live WAL due for a checkpoint at `CAP`.
    const BOUND: u64 = CHECKPOINT_BUFFERS * CAP as u64;

    fn db() -> &'static Path {
        Path::new("db")
    }

    fn cfg(vfs: &MemVfs) -> StoreConfig {
        StoreConfig::with_vfs(std::sync::Arc::new(vfs.clone()))
    }

    fn manifest(vfs: &MemVfs) -> Manifest {
        Manifest::read(vfs, db()).expect("manifest")
    }

    /// Entries in the live WAL, its seed's included.
    fn wal_entries(vfs: &MemVfs) -> u64 {
        let entries = |record: &Vec<u8>| decode_record::<u64, u64>(record).expect("record").len();
        wal_records(vfs).iter().map(entries).sum::<usize>() as u64
    }

    /// The live WAL's records, undecoded.
    fn wal_records(vfs: &MemVfs) -> Vec<Vec<u8>> {
        let seq = manifest(vfs).wal_seq;
        let wal = read_wal(vfs, &db().join(wal_file_name(seq)), Some(seq)).expect("live WAL");
        wal.records
    }

    fn run_files(vfs: &MemVfs) -> Vec<(String, Vec<u8>)> {
        let mut names = vfs.list(db()).expect("list");
        names.retain(|name| name.starts_with("run-"));
        names.sort();
        let bytes = |name: &String| vfs.file_bytes(&db().join(name)).expect("run file");
        names
            .iter()
            .map(|name| (name.clone(), bytes(name)))
            .collect()
    }

    fn assert_oracle(map: &DynamicMap<u64, u64>, oracle: &BTreeMap<u64, u64>, ctx: &str) {
        assert_eq!(map.len(), oracle.len(), "{ctx}: len");
        for k in 0..200u64 {
            assert_eq!(map.get(&k), oracle.get(&k), "{ctx}: get({k})");
            assert_eq!(map.rank(&k), oracle.range(..k).count(), "{ctx}: rank({k})");
        }
    }

    /// Every run a reopen loads keeps its keys and values in 64-byte
    /// aligned buffers, for integer and non-integer types alike. The
    /// runs are large enough that the allocator's own alignment would
    /// not pass for a cache line's.
    #[test]
    fn reloaded_runs_are_cache_line_aligned() {
        fn check<K, V>(pairs: impl Fn(usize) -> (K, V))
        where
            K: Ord + Clone + Send + Sync + 'static + Codec + std::fmt::Debug,
            V: Clone + Send + Sync + 'static + Codec + PartialEq + std::fmt::Debug,
        {
            const N: usize = 20_000;
            for layout in [Layout::Btree { b: 8 }, Layout::Veb] {
                let vfs = MemVfs::new();
                let (keys, values) = (0..N).map(&pairs).unzip();
                let mut map = DynamicMap::<K, V>::build(keys, values, layout).unwrap();
                map.persist_to(db(), cfg(&vfs)).unwrap();
                drop(map);
                let map = DynamicMap::<K, V>::open_with(db(), cfg(&vfs)).unwrap();
                let runs: Vec<_> = map.l0.iter().chain(map.tiers.iter().flatten()).collect();
                assert_eq!(runs.iter().map(|r| r.map.len()).sum::<usize>(), N);
                for run in runs {
                    let (k, v) = (run.map.keys().as_ptr(), run.map.values().as_ptr());
                    assert_eq!(k as usize % CACHE_LINE, 0, "{layout:?}: keys");
                    assert_eq!(v as usize % CACHE_LINE, 0, "{layout:?}: values");
                }
                for i in (0..N).step_by(997) {
                    let (k, v) = pairs(i);
                    assert_eq!(map.get(&k), Some(&v), "{layout:?}: get({k:?})");
                }
            }
        }
        check(|i| (i as u64, i as u64 * 3));
        check(|i| (format!("{i:08}"), vec![i as u8; i % 5]));
    }

    /// A header whose entry count its sections cannot hold is corrupt,
    /// and is caught before anything sized by that count is allocated:
    /// `2^40` keys in 64 key bytes, then a bitmap longer than its
    /// values section.
    #[test]
    fn an_entry_count_the_sections_cannot_hold_is_corrupt() {
        let vfs = MemVfs::new();
        vfs.create_dir_all(db()).unwrap();
        let keys = vec![0u8; 1 << 16];
        for (id, n, keys) in [(0, 1u64 << 40, &keys[..64]), (1, 1 << 13, &keys[..])] {
            let sections = RunSections {
                keys,
                values: &[0u8; 16],
                weights: &[],
            };
            let path = db().join(run_file_name(id));
            ist_store::write_run(&vfs, &path, QueryKind::Veb, n, (0, 0), sections).unwrap();
            let r = RunRef {
                id,
                seq_lo: 0,
                seq_hi: 0,
            };
            match load_run::<u64, u64>(&vfs, db(), r) {
                Err(StoreError::Corrupt(m)) if m.contains("declares") => {}
                Err(e) => panic!("n = {n}: rejected by the decoder, not the bound: {e}"),
                Ok(_) => panic!("n = {n}: loaded"),
            }
        }
    }

    /// Every write call logs one delta record: `insert`, `remove`, the
    /// `batch_*` wrappers, `apply`, and a checkpoint's seed of the
    /// write buffer alike.
    #[test]
    fn the_writer_logs_only_delta_records() {
        let vfs = MemVfs::new();
        let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
        map.insert(1, 1);
        map.persist_to(db(), cfg(&vfs)).unwrap();
        map.insert(2, 2);
        map.remove(&1);
        map.remove(&99);
        map.batch_insert(vec![(3, 3), (4, 4)]);
        map.batch_remove(&[3]);
        map.apply(vec![(5, Some(5)), (2, None)]);
        let records = wal_records(&vfs);
        assert_eq!(records.len(), 7, "the seed, then one record per call");
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record[0], REC_DELTA, "record {i}");
        }
        drop(map);
        let map = DynamicMap::<u64, u64>::open_with(db(), cfg(&vfs)).unwrap();
        let oracle = BTreeMap::from([(4, 4), (5, 5)]);
        assert_oracle(&map, &oracle, "reopened");
    }

    /// The WAL holds a delta deduplicated: three writes of one key are
    /// one entry, and the reopened map holds the last of them.
    #[test]
    fn a_delta_that_rewrites_a_key_logs_it_once() {
        let vfs = MemVfs::new();
        let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
        map.persist_to(db(), cfg(&vfs)).unwrap();
        let before = wal_entries(&vfs);
        assert_eq!(map.apply(vec![(7, Some(1)), (7, None), (7, Some(3))]), 0);
        assert_eq!(wal_entries(&vfs), before + 1);
        drop(map);
        let map = DynamicMap::<u64, u64>::open_with(db(), cfg(&vfs)).unwrap();
        let oracle = BTreeMap::from([(7, 3)]);
        assert_oracle(&map, &oracle, "reopened");
    }

    #[test]
    fn a_checkpoint_without_new_runs_writes_only_wal_and_manifest() {
        let vfs = MemVfs::new();
        let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
        for k in 0..12u64 {
            map.insert(k, k);
            map.quiesce();
        }
        map.persist_to(db(), cfg(&vfs)).unwrap();
        let (runs, before) = (run_files(&vfs), manifest(&vfs));
        assert!(!runs.is_empty());
        // Overwrites of one buffered key never seal: the run set stays
        // the one `persist_to` wrote while the WAL fills up.
        for i in 0..BOUND {
            map.insert(100, i);
            map.quiesce();
        }
        let after = manifest(&vfs);
        assert_eq!(after.wal_seq, before.wal_seq + 1, "one checkpoint");
        assert_eq!(
            after.next_run_id, before.next_run_id,
            "no run file id taken"
        );
        assert_eq!(run_files(&vfs), runs, "run files untouched");
        assert_eq!(wal_entries(&vfs), 1, "the new WAL holds the buffer's seed");
        assert_eq!(map.acked_records(), BOUND, "the seed is not acked");
    }

    #[test]
    fn the_live_wal_never_holds_more_than_its_bound() {
        let vfs = MemVfs::new();
        let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
        map.persist_to(db(), cfg(&vfs)).unwrap();
        let mut oracle = BTreeMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..4 * BOUND {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 40;
            match x % 8 {
                0 => {
                    let keys = [k, (k + 7) % 40, (k + 19) % 40];
                    map.batch_remove(&keys);
                    oracle.retain(|k, _| !keys.contains(k));
                }
                1 => {
                    map.batch_insert(vec![(k, i), (k + 1, i)]);
                    oracle.extend([(k, i), (k + 1, i)]);
                }
                2 | 3 => {
                    map.remove(&k);
                    oracle.remove(&k);
                }
                _ => {
                    map.insert(k, i);
                    oracle.insert(k, i);
                }
            }
            map.quiesce();
            let held = wal_entries(&vfs);
            assert!(held < BOUND, "op {i}: the live WAL holds {held} entries");
        }
        assert!(manifest(&vfs).wal_seq >= 4, "three runtime checkpoints");
        drop(map);
        let map = DynamicMap::<u64, u64>::open_with(db(), cfg(&vfs)).unwrap();
        assert_oracle(&map, &oracle, "reopened");
    }

    #[test]
    fn a_replay_across_seals_reopens_in_background_mode() {
        let vfs = MemVfs::new();
        let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Btree(2), CAP);
        map.persist_to(db(), cfg(&vfs)).unwrap();
        let mut oracle = BTreeMap::new();
        for i in 0..BOUND / 2 {
            let k = (i * 37) % 150;
            if i % 5 == 4 {
                map.remove(&k);
                oracle.remove(&k);
            } else {
                map.insert(k, i);
                oracle.insert(k, i);
            }
        }
        assert_eq!(manifest(&vfs).wal_seq, 1, "no checkpoint since persist_to");
        assert!(
            wal_entries(&vfs) >= 8 * CAP as u64,
            "the replay crosses seals"
        );
        drop(map);

        let map = DynamicMap::<u64, u64>::open_with(db(), cfg(&vfs)).unwrap();
        assert!(
            map.sealed_runs() == 0 && !map.compaction_in_flight(),
            "quiesced"
        );
        assert_oracle(&map, &oracle, "reopened");
        assert_eq!(manifest(&vfs).wal_seq, 2, "open checkpointed");
        assert!(
            wal_entries(&vfs) < CAP as u64,
            "only the buffer is left to replay"
        );
        drop(map);
        let map = DynamicMap::<u64, u64>::open_with(db(), cfg(&vfs)).unwrap();
        assert_oracle(&map, &oracle, "reopened twice");
    }

    #[test]
    fn a_checkpoint_beside_a_running_merge_writes_the_sealed_runs() {
        let vfs = MemVfs::new();
        let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
        map.persist_to(db(), cfg(&vfs)).unwrap();
        // Distinct keys: the `BOUND`-th insert both seals the buffer and
        // makes the WAL due. A background merge installs only at the
        // start of a later mutation, so that checkpoint sees the run it
        // just sealed in L0.
        for k in 0..BOUND {
            map.insert(k, k);
        }
        let m = manifest(&vfs);
        assert_eq!(m.wal_seq, 2, "one runtime checkpoint");
        assert!(!m.l0.is_empty(), "the sealed run is named in L0");
        assert_eq!(wal_entries(&vfs), 0, "the buffer was sealed");
        drop(map);
        let map = DynamicMap::<u64, u64>::open_with(db(), cfg(&vfs)).unwrap();
        let oracle: BTreeMap<u64, u64> = (0..BOUND).map(|k| (k, k)).collect();
        assert_oracle(&map, &oracle, "reopened");
    }
}
