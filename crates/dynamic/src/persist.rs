//! Durability for [`DynamicMap`]: run files, write-ahead logging, and
//! crash recovery, built on the `ist-store` primitives.
//!
//! ## Protocol
//!
//! A persistent map owns one directory containing immutable run files
//! (`run-NNNNNN.ist`), exactly one live WAL (`wal-NNNNNN.log`), and the
//! atomically-rotated `MANIFEST` naming both. The engine mirrors the
//! map's run structure as [`RunRef`]s and keeps it consistent through
//! three hooks:
//!
//! * **log** — every mutation appends one WAL record *before* it is
//!   applied in memory (`insert`/`remove` one scalar record each,
//!   `batch_*` one delta record). The [`FsyncPolicy`] decides when
//!   appended records become *acked* (crash-proof).
//! * **seal** — when the buffer seals into an L0 run, the run file is
//!   durably written, a fresh WAL is created, and the manifest is
//!   rotated to name both; the old WAL (whose records are now all
//!   represented by the run) is deleted. A crash anywhere in this
//!   window recovers from the *old* manifest + old WAL; the partially
//!   installed files are ignored orphans.
//! * **install** — a compaction writes its merged run file and rotates
//!   the manifest *before* the consumed run files are deleted.
//!
//! Recovery ([`DynamicMap::open_with`]) loads the manifest's runs,
//! replays the WAL tail through the normal mutation paths (with the
//! engine detached, so nothing is re-logged), then checkpoints: a fresh
//! WAL seeded with one always-fsynced snapshot of the write buffer, a
//! rotated manifest, and deletion of every unreferenced file. Replay
//! can never trigger a seal: a WAL's records are exactly the mutations
//! since the last seal, which by construction never overflowed the
//! buffer, and buffer evolution is deterministic given the runs (whose
//! per-key weight sums compactions preserve).
//!
//! ## Failure latching
//!
//! The engine never panics on storage failure: the first error poisons
//! it — subsequent mutations are rejected (returning the neutral
//! `false`/`0`), [`DynamicMap::store_error`] reports the cause, and the
//! in-memory map stays fully readable. The on-disk state is always a
//! consistent prefix of the acknowledged history.

use crate::sync::{Arc, Mutex};
use std::any::TypeId;
use std::marker::PhantomData;
use std::mem::size_of;
use std::path::{Path, PathBuf};

use crate::alloc::AlignedVec;
use crate::dynamic::{lock, DynamicMap, Plan, Prefix, Run};
use crate::map::StaticMap;
use ist_store::{
    read_wal, run_file_name, wal_file_name, Codec, Input, Manifest, RunReader, RunRef, RunSections,
    StoreConfig, StoreError, Vfs, WalWriter, MANIFEST_NAME,
};

// ---------------------------------------------------------------------------
// The hook trait dynamic.rs talks to
// ---------------------------------------------------------------------------

/// Object-safe durability hooks. `DynamicMap` stores this as a trait
/// object so its mutation paths stay free of `Codec` bounds — the
/// bounds live only on [`StoreEngine`]'s impl and on the public
/// `persist_to`/`open` constructors.
pub(crate) trait RunSink<K, V>: Send {
    /// Log one insert. `false` rejects the mutation (sink poisoned or
    /// the append failed, poisoning it now).
    fn log_put(&mut self, key: &K, value: &V) -> bool;
    /// Log one remove. `false` rejects the mutation.
    fn log_del(&mut self, key: &K) -> bool;
    /// Log one bulk delta (the verbatim, pre-sort batch). `false`
    /// rejects the mutation.
    fn log_delta(&mut self, delta: &[(K, Option<V>)]) -> bool;
    /// The buffer just sealed into `run` (pushed to L0): write the run
    /// file, rotate WAL + manifest.
    fn on_seal(&mut self, run: &Run<K, V>);
    /// A compaction is installing: write the merged run file (if any),
    /// rotate the manifest per `plan`, delete the consumed files.
    fn on_install(&mut self, plan: Plan, merged: Option<&Run<K, V>>);
    /// Fsync the WAL, making every appended record durable.
    fn flush(&mut self) -> Result<(), StoreError>;
    /// Display form of the latched error, if poisoned.
    fn error_display(&self) -> Option<String>;
    /// WAL records guaranteed to survive a crash, counted since this
    /// engine was attached (rotated-away records included).
    fn acked_records(&self) -> u64;
}

// ---------------------------------------------------------------------------
// WAL record codec
// ---------------------------------------------------------------------------

const REC_PUT: u8 = 1;
const REC_DEL: u8 = 2;
const REC_DELTA: u8 = 3;

/// One decoded WAL record.
enum WalRecord<K, V> {
    Put(K, V),
    Del(K),
    Delta(Vec<(K, Option<V>)>),
}

fn encode_put<K: Codec, V: Codec>(key: &K, value: &V) -> Vec<u8> {
    let mut out = vec![REC_PUT];
    key.encode_into(&mut out);
    value.encode_into(&mut out);
    out
}

fn encode_del<K: Codec>(key: &K) -> Vec<u8> {
    let mut out = vec![REC_DEL];
    key.encode_into(&mut out);
    out
}

fn encode_delta<K: Codec, V: Codec>(delta: &[(K, Option<V>)]) -> Vec<u8> {
    let mut out = vec![REC_DELTA];
    (delta.len() as u32).encode_into(&mut out);
    for (key, slot) in delta {
        key.encode_into(&mut out);
        slot.encode_into(&mut out);
    }
    out
}

/// Total over arbitrary bytes: corrupt records are typed errors, never
/// panics or unbounded allocations.
fn decode_record<K: Codec, V: Codec>(bytes: &[u8]) -> Result<WalRecord<K, V>, StoreError> {
    let mut input = Input::new(bytes);
    let tag = u8::decode_from(&mut input)?;
    let record = match tag {
        REC_PUT => WalRecord::Put(K::decode_from(&mut input)?, V::decode_from(&mut input)?),
        REC_DEL => WalRecord::Del(K::decode_from(&mut input)?),
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
            WalRecord::Delta(delta)
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
    Ok(record)
}

// ---------------------------------------------------------------------------
// Run file encode/decode
// ---------------------------------------------------------------------------

/// Byte width of `T` when it is one of the plain-old-data integer key
/// types whose in-memory representation *is* its little-endian on-disk
/// encoding — the zero-copy bulk path. `None` (always, on big-endian
/// targets) routes through the per-element codec.
fn pod_width<T: 'static>() -> Option<usize> {
    if cfg!(target_endian = "big") {
        return None;
    }
    let id = TypeId::of::<T>();
    macro_rules! check {
        ($($t:ty),*) => {
            $(if id == TypeId::of::<$t>() { return Some(size_of::<$t>()); })*
        };
    }
    check!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);
    None
}

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
    // Keys: fixed-width integer keys are written as their raw bytes
    // (identical to their codec bytes, minus any per-element call);
    // everything else goes through `Codec` element by element.
    let mut encoded_keys = Vec::new();
    let key_bytes: &[u8] = if let Some(w) = pod_width::<K>() {
        // SAFETY: `pod_width` only matches integer primitives: no
        // padding, no invalid bit patterns, and `K` *is* that type.
        unsafe { std::slice::from_raw_parts(run.map.keys().as_ptr().cast::<u8>(), n * w) }
    } else {
        for key in run.map.keys() {
            key.encode_into(&mut encoded_keys);
        }
        &encoded_keys
    };
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
            keys: key_bytes,
            values: &vals,
            weights: &wts,
        },
    )
}

/// Load one run file back into memory: a single sequential pass, with
/// fixed-width keys bulk-read straight into a fresh cache-aligned
/// allocation. Total over arbitrary file contents.
fn load_run<K, V>(vfs: &dyn Vfs, path: &Path) -> Result<Run<K, V>, StoreError>
where
    K: Ord + Send + Sync + 'static + Codec,
    V: Send + 'static + Codec,
{
    let mut reader = RunReader::open(vfs, path)?;
    let header = *reader.header();
    let n = usize::try_from(header.n)
        .map_err(|_| StoreError::Corrupt("run entry count exceeds address space".into()))?;
    // Keys.
    let keys: AlignedVec<K> = if let Some(w) = pod_width::<K>() {
        let expect = (n as u64).checked_mul(w as u64);
        if expect != Some(header.keys_len) {
            return Err(StoreError::Corrupt(format!(
                "keys section is {} bytes but {n} keys of width {w} need {:?}",
                header.keys_len, expect
            )));
        }
        // SAFETY: integer keys accept any bit pattern, and
        // `read_keys_into` either fills the whole view or errors.
        unsafe { AlignedVec::from_pod_bytes_with(n, |bytes| reader.read_keys_into(bytes))? }
    } else {
        let bytes = reader.read_keys()?;
        // Every codec element consumes at least one byte, so a
        // successful decode bounds `n` by the section length; the
        // capacity hint is clamped the same way against a lying header.
        let mut keys = Vec::with_capacity(n.min(bytes.len()));
        let mut input = Input::new(&bytes);
        for _ in 0..n {
            keys.push(K::decode_from(&mut input)?);
        }
        if !input.is_empty() {
            return Err(StoreError::Corrupt("trailing bytes in keys section".into()));
        }
        AlignedVec::from_vec(keys)
    };
    // Values.
    let values: Vec<Option<V>> = if let Some(w) = pod_width::<V>() {
        decode_values_streaming(&mut reader, n, w)?
    } else {
        let vbytes = reader.read_values()?;
        let mut input = Input::new(&vbytes);
        let bitmap = input.take(n.div_ceil(8))?;
        let mut values: Vec<Option<V>> = Vec::with_capacity(n);
        for i in 0..n {
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                values.push(Some(V::decode_from(&mut input)?));
            } else {
                values.push(None);
            }
        }
        if !input.is_empty() {
            return Err(StoreError::Corrupt(
                "trailing bytes in values section".into(),
            ));
        }
        values
    };
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
        map: StaticMap::from_layout_parts(keys, AlignedVec::from_vec(values), header.kind),
        prefix,
    })
}

/// Decode a fixed-width value section (presence bitmap, then one
/// `w`-byte slot per present version) chunk-by-chunk as it streams off
/// disk, so the multi-megabyte section is never materialized and each
/// chunk is decoded while cache-hot. A `carry` buffer stitches the
/// element that straddles a chunk boundary. Total: every malformed
/// shape (short bitmap, mid-element end, trailing bytes) is a typed
/// error.
fn decode_values_streaming<V: Codec + 'static>(
    reader: &mut RunReader,
    n: usize,
    w: usize,
) -> Result<Vec<Option<V>>, StoreError> {
    let bm_len = n.div_ceil(8);
    let mut bitmap = vec![0u8; bm_len];
    let mut bm_filled = 0usize;
    let mut values: Vec<Option<V>> = Vec::with_capacity(n);
    let mut carry = [0u8; 16];
    let mut carry_len = 0usize;
    let mut next = 0usize;
    let mut all_present = false;
    debug_assert!(w <= carry.len(), "pod widths are at most 16 bytes");
    debug_assert_eq!(w, std::mem::size_of::<V>(), "pod width is the type's size");
    reader.read_values_with(|mut chunk| {
        if bm_filled < bm_len {
            let take = chunk.len().min(bm_len - bm_filled);
            bitmap[bm_filled..bm_filled + take].copy_from_slice(&chunk[..take]);
            bm_filled += take;
            chunk = &chunk[take..];
            if bm_filled < bm_len {
                // Bitmap spans chunks; no element may decode until it
                // is complete (its bits gate every element below).
                debug_assert!(chunk.is_empty(), "bitmap copy drains the chunk");
                return Ok(());
            }
            // Fully compacted runs have no tombstones: all-ones
            // bitmap, taken by the raw bulk loop below.
            let full = n / 8;
            all_present = bitmap[..full].iter().all(|&b| b == 0xFF)
                && (n.is_multiple_of(8) || bitmap[full] == (1u8 << (n % 8)) - 1);
        }
        if all_present {
            // Finish an element split across the chunk boundary.
            if carry_len > 0 {
                let take = (w - carry_len).min(chunk.len());
                carry[carry_len..carry_len + take].copy_from_slice(&chunk[..take]);
                carry_len += take;
                chunk = &chunk[take..];
                if carry_len < w {
                    return Ok(());
                }
                values.push(Some(V::decode_from(&mut Input::new(&carry[..w]))?));
                carry_len = 0;
                next += 1;
            }
            // Bulk-decode whole elements with no per-element error or
            // presence paths.
            let full = ((chunk.len() / w) * w).min((n - next) * w);
            values.extend(chunk[..full].chunks_exact(w).map(|c| {
                // SAFETY: `pod_width` proved `V` is a fixed-width
                // integer type (any bit pattern valid, size `w`,
                // little-endian encoding matches the host), and each
                // `chunks_exact` chunk is exactly `w` bytes.
                Some(unsafe { std::ptr::read_unaligned(c.as_ptr().cast::<V>()) })
            }));
            next += full / w;
            chunk = &chunk[full..];
            if next >= n {
                if chunk.is_empty() {
                    return Ok(());
                }
                return Err(StoreError::Corrupt(
                    "trailing bytes in values section".into(),
                ));
            }
            carry[..chunk.len()].copy_from_slice(chunk);
            carry_len = chunk.len();
            return Ok(());
        }
        loop {
            // Absent versions consume no payload bytes.
            while next < n && bitmap[next / 8] & (1 << (next % 8)) == 0 {
                values.push(None);
                next += 1;
            }
            if next >= n {
                if chunk.is_empty() {
                    return Ok(());
                }
                return Err(StoreError::Corrupt(
                    "trailing bytes in values section".into(),
                ));
            }
            if carry_len > 0 {
                let take = (w - carry_len).min(chunk.len());
                carry[carry_len..carry_len + take].copy_from_slice(&chunk[..take]);
                carry_len += take;
                chunk = &chunk[take..];
                if carry_len < w {
                    return Ok(());
                }
                values.push(Some(V::decode_from(&mut Input::new(&carry[..w]))?));
                carry_len = 0;
                next += 1;
            } else if chunk.len() >= w {
                values.push(Some(V::decode_from(&mut Input::new(&chunk[..w]))?));
                chunk = &chunk[w..];
                next += 1;
            } else {
                carry[..chunk.len()].copy_from_slice(chunk);
                carry_len = chunk.len();
                return Ok(());
            }
        }
    })?;
    while next < n && bitmap[next / 8] & (1 << (next % 8)) == 0 {
        values.push(None);
        next += 1;
    }
    if bm_filled != bm_len || carry_len != 0 || next != n {
        return Err(StoreError::Corrupt(
            "values section shorter than its bitmap declares".into(),
        ));
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The per-map durability engine: owns the live WAL, mirrors the run
/// structure as manifest [`RunRef`]s, and latches the first error.
struct StoreEngine<K, V> {
    dir: PathBuf,
    cfg: StoreConfig,
    wal: WalWriter,
    /// Mirror of the map's run structure plus the id/seq counters, as
    /// last rotated to disk (`l0`/`tiers` are kept current; the scalar
    /// counters inside are updated at rotation time).
    manifest: Manifest,
    /// Next mutation sequence number (live; `manifest.next_seq` holds
    /// the value as of the last rotation).
    next_seq: u64,
    /// Records acked in WALs already rotated away (every record of a
    /// rotated WAL is represented by a durable run file).
    durable_records: u64,
    error: Option<StoreError>,
    _types: PhantomData<fn() -> (K, V)>,
}

impl<K, V> StoreEngine<K, V> {
    fn poison(&mut self, e: StoreError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn vfs(&self) -> &dyn Vfs {
        &*self.cfg.vfs
    }
}

impl<K, V> StoreEngine<K, V>
where
    K: Ord + Clone + Send + Sync + 'static + Codec,
    V: Clone + Send + Sync + 'static + Codec,
{
    fn log(&mut self, payload: &[u8], ops: u64) -> bool {
        if self.error.is_some() {
            return false;
        }
        match self.wal.append(payload) {
            Ok(_durable_now) => {
                self.next_seq += ops;
                true
            }
            Err(e) => {
                self.poison(e);
                false
            }
        }
    }

    /// The seal protocol: run file → fresh WAL → manifest rotation →
    /// old-WAL deletion. A crash between any two steps recovers cleanly
    /// (see the module docs).
    fn do_seal(&mut self, run: &Run<K, V>) -> Result<(), StoreError> {
        let id = self.manifest.next_run_id;
        let seq = (self.manifest.next_seq, self.next_seq.saturating_sub(1));
        write_run_file(self.vfs(), &self.dir.join(run_file_name(id)), run, seq)?;
        let new_wal_seq = self.manifest.wal_seq + 1;
        let new_wal = WalWriter::create(
            self.vfs(),
            &self.dir.join(wal_file_name(new_wal_seq)),
            new_wal_seq,
            self.cfg.fsync,
        )?;
        let old_wal_path = self.dir.join(wal_file_name(self.manifest.wal_seq));
        let old_appended = self.wal.appended();
        self.manifest.next_run_id = id + 1;
        self.manifest.wal_seq = new_wal_seq;
        self.manifest.next_seq = self.next_seq;
        self.manifest.l0.push(RunRef {
            id,
            seq_lo: seq.0,
            seq_hi: seq.1,
        });
        self.manifest.write_atomic(self.vfs(), &self.dir)?;
        // Point of no return passed: every record of the old WAL is
        // now represented by the (manifest-referenced, fsynced) run
        // file, so all of them count as durable and the log can go.
        self.wal = new_wal;
        self.durable_records += old_appended;
        let _ = self.vfs().remove_file(&old_wal_path);
        Ok(())
    }

    /// The install protocol: merged run file → manifest rotation →
    /// consumed-file deletion (strictly after the rotation).
    fn do_install(&mut self, plan: Plan, merged: Option<&Run<K, V>>) -> Result<(), StoreError> {
        // What the plan consumes, per the mirrored structure.
        let mut consumed: Vec<RunRef> = self.manifest.l0[..plan.consumed_l0].to_vec();
        for tier in &self.manifest.tiers[..plan.full_tiers] {
            consumed.extend_from_slice(tier);
        }
        // Write the merged run file before anything references it.
        let new_ref = match merged {
            Some(run) => {
                let id = self.manifest.next_run_id;
                let seq = (
                    consumed.iter().map(|r| r.seq_lo).min().unwrap_or(0),
                    consumed.iter().map(|r| r.seq_hi).max().unwrap_or(0),
                );
                write_run_file(self.vfs(), &self.dir.join(run_file_name(id)), run, seq)?;
                Some(RunRef {
                    id,
                    seq_lo: seq.0,
                    seq_hi: seq.1,
                })
            }
            None => None,
        };
        // Mirror the structural swap `DynamicMap::install` is about to
        // perform, then rotate.
        self.manifest.l0.drain(..plan.consumed_l0);
        for tier in &mut self.manifest.tiers[..plan.full_tiers] {
            tier.clear();
        }
        if self.manifest.tiers.len() == plan.full_tiers {
            self.manifest.tiers.push(Vec::new());
        }
        if let Some(r) = new_ref {
            self.manifest.next_run_id = r.id + 1;
            self.manifest.tiers[plan.full_tiers].push(r);
        }
        self.manifest.next_seq = self.next_seq;
        self.manifest.write_atomic(self.vfs(), &self.dir)?;
        // Only now are the consumed files unreferenced.
        for r in consumed {
            let _ = self.vfs().remove_file(&self.dir.join(run_file_name(r.id)));
        }
        Ok(())
    }
}

impl<K, V> RunSink<K, V> for StoreEngine<K, V>
where
    K: Ord + Clone + Send + Sync + 'static + Codec,
    V: Clone + Send + Sync + 'static + Codec,
{
    fn log_put(&mut self, key: &K, value: &V) -> bool {
        let payload = encode_put(key, value);
        self.log(&payload, 1)
    }

    fn log_del(&mut self, key: &K) -> bool {
        let payload = encode_del(key);
        self.log(&payload, 1)
    }

    fn log_delta(&mut self, delta: &[(K, Option<V>)]) -> bool {
        let payload = encode_delta(delta);
        self.log(&payload, delta.len() as u64)
    }

    fn on_seal(&mut self, run: &Run<K, V>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.do_seal(run) {
            self.poison(e);
        }
    }

    fn on_install(&mut self, plan: Plan, merged: Option<&Run<K, V>>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.do_install(plan, merged) {
            self.poison(e);
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
        self.durable_records + self.wal.acked()
    }
}

/// Delete every file in `dir` the manifest does not reference (crash
/// orphans, rotated-away WALs, stale `MANIFEST.tmp`). Best-effort:
/// deletion failures leave garbage a later open will retry on.
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
        let vfs = &*cfg.vfs;
        vfs.create_dir_all(&dir)?;
        let mut manifest = Manifest {
            kind: self.kind,
            buffer_cap: self.buffer_cap as u64,
            next_run_id: 0,
            wal_seq: 1,
            next_seq: 1,
            l0: Vec::new(),
            tiers: Vec::new(),
        };
        debug_assert!(self.l0.is_empty(), "quiesce drains all sealed runs");
        for tier in &self.tiers {
            let mut refs = Vec::with_capacity(tier.len());
            for run in tier {
                let id = manifest.next_run_id;
                manifest.next_run_id += 1;
                // Pre-persistence history has no sequence numbers.
                write_run_file(vfs, &dir.join(run_file_name(id)), run, (0, 0))?;
                refs.push(RunRef {
                    id,
                    seq_lo: 0,
                    seq_hi: 0,
                });
            }
            manifest.tiers.push(refs);
        }
        let (wal, next_seq) = checkpoint_wal(vfs, &dir, 1, &cfg, self, 1)?;
        manifest.write_atomic(vfs, &dir)?;
        cleanup_dir(vfs, &dir, &manifest);
        self.store = Some(Mutex::new(Box::new(StoreEngine::<K, V> {
            dir,
            cfg,
            wal,
            manifest,
            next_seq,
            durable_records: 0,
            error: None,
            _types: PhantomData,
        })));
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
    /// replay the WAL tail, and resume exactly where the previous
    /// process left off (every acknowledged write present; a torn tail
    /// record from a crash mid-append is tolerated and discarded).
    ///
    /// The map's layout and buffer capacity come from the manifest;
    /// the compaction mode is process configuration — chain
    /// [`DynamicMap::with_compaction_mode`] to override the default.
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
        for r in &manifest.l0 {
            let run = load_run(vfs, &dir.join(run_file_name(r.id)))?;
            map.l0.push(Arc::new(run));
        }
        for tier in &manifest.tiers {
            let mut runs = Vec::with_capacity(tier.len());
            for r in tier {
                runs.push(Arc::new(load_run(vfs, &dir.join(run_file_name(r.id)))?));
            }
            map.tiers.push(runs);
        }
        map.refresh_runs();
        // Replay the WAL tail through the normal mutation paths (the
        // engine is not attached yet, so nothing is re-logged and the
        // map behaves exactly as it did when these ops first ran).
        // Sealing is suppressed: the WAL's final record can be the one
        // whose pre-crash application triggered the (crash-interrupted)
        // seal, and re-sealing now would create a run the not-yet-
        // attached engine never mirrors. The overflow is re-triggered
        // through the durable seal path right after attach.
        let contents = read_wal(
            vfs,
            &dir.join(wal_file_name(manifest.wal_seq)),
            Some(manifest.wal_seq),
        )?;
        map.seal_suppressed = true;
        let mut next_seq = manifest.next_seq;
        for record in &contents.records {
            match decode_record::<K, V>(record)? {
                WalRecord::Put(k, v) => {
                    map.insert(k, v);
                    next_seq += 1;
                }
                WalRecord::Del(k) => {
                    map.remove(&k);
                    next_seq += 1;
                }
                WalRecord::Delta(delta) => {
                    next_seq += delta.len() as u64;
                    map.apply_batch(delta);
                }
            }
        }
        // Checkpoint: fresh WAL seeded with the recovered buffer, the
        // manifest rotated to it, orphans cleaned.
        let new_wal_seq = manifest.wal_seq + 1;
        let (wal, next_seq) = checkpoint_wal(vfs, &dir, new_wal_seq, &cfg, &map, next_seq)?;
        let mut manifest = manifest;
        manifest.wal_seq = new_wal_seq;
        manifest.next_seq = next_seq;
        manifest.write_atomic(vfs, &dir)?;
        cleanup_dir(vfs, &dir, &manifest);
        map.store = Some(Mutex::new(Box::new(StoreEngine::<K, V> {
            dir,
            cfg,
            wal,
            manifest,
            next_seq,
            durable_records: 0,
            error: None,
            _types: PhantomData,
        })));
        // Engine attached: fire any seal the replay deferred, so the
        // overflow goes through the durable path with the mirror live.
        map.seal_suppressed = false;
        map.maybe_seal();
        Ok(map)
    }
}

/// Create WAL `seq` seeded with one snapshot-delta of the map's write
/// buffer. The seed is **always** fsynced regardless of policy: the
/// buffer may hold writes that were acknowledged in a previous WAL
/// lifetime, and those must not become volatile again. Returns the
/// writer and the post-seed `next_seq`.
fn checkpoint_wal<K, V>(
    vfs: &dyn Vfs,
    dir: &Path,
    seq: u64,
    cfg: &StoreConfig,
    map: &DynamicMap<K, V>,
    next_seq: u64,
) -> Result<(WalWriter, u64), StoreError>
where
    K: Ord + Clone + Send + Sync + 'static + Codec,
    V: Clone + Send + Sync + 'static + Codec,
{
    let mut wal = WalWriter::create(vfs, &dir.join(wal_file_name(seq)), seq, cfg.fsync)?;
    let mut next_seq = next_seq;
    if !map.buffer.is_empty() {
        let delta: Vec<(K, Option<V>)> = map
            .buffer
            .iter()
            .map(|e| (e.key.clone(), e.slot.clone()))
            .collect();
        next_seq += delta.len() as u64;
        wal.append(&encode_delta(&delta))?;
        wal.sync()?;
    }
    Ok((wal, next_seq))
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
    /// engine was attached (one per scalar mutation, one per batch;
    /// includes the checkpoint seed record if any). Monotone; `0` on a
    /// non-persistent map. The crash-injection suite uses this as the
    /// "acknowledged writes" watermark.
    pub fn acked_records(&self) -> u64 {
        self.store.as_ref().map_or(0, |e| lock(e).acked_records())
    }
}
