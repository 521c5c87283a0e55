//! The manifest: one small, atomically-rotated file naming everything
//! that is live in a map directory.
//!
//! A map directory contains immutable run files, exactly one live WAL,
//! and `MANIFEST`. The manifest is the *root of trust*: a run or WAL
//! file not named by the manifest is garbage (a leftover from a crash
//! window) and is deleted by the next checkpoint (every open makes
//! one). Rotation is the classic atomic dance:
//!
//! 1. write `MANIFEST.tmp` in full,
//! 2. fsync it (so `DropUnsynced` crashes cannot surface a torn
//!    manifest through the rename),
//! 3. rename over `MANIFEST` (atomic on POSIX),
//! 4. fsync the directory.
//!
//! A crash strictly before the rename leaves the old manifest — and
//! therefore the old, fully consistent file set — in force.
//!
//! The sharded layer has its own tiny root file ([`ShardsFile`],
//! written with the same dance) naming the split points; each shard is
//! then a full map directory of its own.

use std::path::Path;

use crate::checksum::crc64;
use crate::codec::{decode_kind, decode_seq, encode_kind, encode_seq, Codec, Input};
use crate::error::StoreError;
use crate::vfs::Vfs;
use ist_query::QueryKind;

/// File name of the manifest inside a map directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_TMP_NAME: &str = "MANIFEST.tmp";

/// Leading bytes of a manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"IST-MAN\0";
/// Newest manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u32 = 1;

/// Format v1 has one byte after the layout that named the in-place
/// construction algorithm (0 = involution, 1 = cycle-leader). Runs are
/// built by an out-of-place scatter, so nothing reads it: it is written
/// as this constant, and on decode range-checked and dropped.
const RESERVED_ALGORITHM_TAG: u8 = 1;

/// Reference to one immutable run file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRef {
    /// Run file id (`run-{id}.ist`).
    pub id: u64,
    /// The run file header's `seq_lo` (informational).
    pub seq_lo: u64,
    /// The run file header's `seq_hi` (informational).
    pub seq_hi: u64,
}

impl Codec for RunRef {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.id.encode_into(out);
        self.seq_lo.encode_into(out);
        self.seq_hi.encode_into(out);
    }

    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
        Ok(RunRef {
            id: u64::decode_from(input)?,
            seq_lo: u64::decode_from(input)?,
            seq_hi: u64::decode_from(input)?,
        })
    }
}

/// File name of the run with id `id`.
#[must_use]
pub fn run_file_name(id: u64) -> String {
    format!("run-{id:06}.ist")
}

/// The live state of one map directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Layout the map's large compacted runs are built in (every run
    /// file records the layout of its own run).
    pub kind: QueryKind,
    /// Write-buffer capacity.
    pub buffer_cap: u64,
    /// Next unused run file id.
    pub next_run_id: u64,
    /// Sequence number of the live WAL file.
    pub wal_seq: u64,
    /// Next unused mutation sequence number at the last rotation.
    pub next_seq: u64,
    /// Sealed L0 runs, oldest first.
    pub l0: Vec<RunRef>,
    /// Compacted tiers, shallowest first; newest-first within a tier.
    /// Empty tiers are kept so depth indices round-trip exactly.
    pub tiers: Vec<Vec<RunRef>>,
}

impl Manifest {
    /// Serialize to the on-disk representation.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(MANIFEST_MAGIC);
        MANIFEST_VERSION.encode_into(&mut out);
        encode_kind(self.kind, &mut out);
        RESERVED_ALGORITHM_TAG.encode_into(&mut out);
        self.buffer_cap.encode_into(&mut out);
        self.next_run_id.encode_into(&mut out);
        self.wal_seq.encode_into(&mut out);
        self.next_seq.encode_into(&mut out);
        encode_seq(&self.l0, &mut out);
        (self.tiers.len() as u32).encode_into(&mut out);
        for tier in &self.tiers {
            encode_seq(tier, &mut out);
        }
        crc64(&out).encode_into(&mut out);
        out
    }

    /// Parse the on-disk representation. Total over arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < MANIFEST_MAGIC.len() + 12 {
            return Err(StoreError::Truncated { what: "manifest" });
        }
        if &bytes[..8] != MANIFEST_MAGIC {
            return Err(StoreError::BadMagic { what: "manifest" });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 8);
        let stored_crc = u64::decode_from(&mut Input::new(crc_bytes))?;
        if crc64(body) != stored_crc {
            return Err(StoreError::ChecksumMismatch { what: "manifest" });
        }
        let mut input = Input::new(&body[8..]);
        let version = u32::decode_from(&mut input)?;
        if version != MANIFEST_VERSION {
            return Err(StoreError::UnsupportedVersion {
                what: "manifest",
                found: version,
                supported: MANIFEST_VERSION,
            });
        }
        let kind = decode_kind(&mut input)?;
        let reserved = u8::decode_from(&mut input)?;
        if reserved > RESERVED_ALGORITHM_TAG {
            return Err(StoreError::corrupt(format!(
                "unknown algorithm tag {reserved:#04x}"
            )));
        }
        let buffer_cap = u64::decode_from(&mut input)?;
        let next_run_id = u64::decode_from(&mut input)?;
        let wal_seq = u64::decode_from(&mut input)?;
        let next_seq = u64::decode_from(&mut input)?;
        let l0 = decode_seq::<RunRef>(&mut input)?;
        let tier_count = u32::decode_from(&mut input)? as usize;
        if tier_count > input.remaining() {
            return Err(StoreError::corrupt("implausible tier count"));
        }
        let mut tiers = Vec::with_capacity(tier_count);
        for _ in 0..tier_count {
            tiers.push(decode_seq::<RunRef>(&mut input)?);
        }
        if !input.is_empty() {
            return Err(StoreError::corrupt("trailing bytes after manifest body"));
        }
        if buffer_cap == 0 {
            return Err(StoreError::corrupt("manifest buffer_cap is zero"));
        }
        Ok(Manifest {
            kind,
            buffer_cap,
            next_run_id,
            wal_seq,
            next_seq,
            l0,
            tiers,
        })
    }

    /// Every run the manifest names, in load order (L0 then tiers).
    pub fn all_runs(&self) -> impl Iterator<Item = &RunRef> {
        self.l0.iter().chain(self.tiers.iter().flatten())
    }

    /// Atomically install this manifest as `dir/MANIFEST`.
    pub fn write_atomic(&self, vfs: &dyn Vfs, dir: &Path) -> Result<(), StoreError> {
        write_root_file_atomic(vfs, dir, MANIFEST_NAME, &self.encode())
    }

    /// Read and verify `dir/MANIFEST`.
    pub fn read(vfs: &dyn Vfs, dir: &Path) -> Result<Self, StoreError> {
        Self::decode(&vfs.read(&dir.join(MANIFEST_NAME))?)
    }
}

/// Write `dir/{name}` through the tmp + fsync + rename + dir-fsync
/// dance so the file is replaced atomically or not at all.
pub fn write_root_file_atomic(
    vfs: &dyn Vfs,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> Result<(), StoreError> {
    use std::io::Write as _;
    let tmp = dir.join(MANIFEST_TMP_NAME);
    let mut file = vfs.create(&tmp)?;
    file.write_all(bytes)?;
    file.sync()?;
    drop(file);
    vfs.rename(&tmp, &dir.join(name))?;
    vfs.sync_dir(dir)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Sharded root file
// ---------------------------------------------------------------------------

/// File name of the sharded-map root file.
pub const SHARDS_NAME: &str = "SHARDS";
/// Leading bytes of a shards file.
pub const SHARDS_MAGIC: &[u8; 8] = b"IST-SHD\0";
/// Newest shards-file format version this build reads and writes.
pub const SHARDS_VERSION: u32 = 1;

/// Root file of a sharded map directory: the split points that
/// key-range-partition the shard subdirectories `shard-0000/`,
/// `shard-0001/`, ... (always `splits.len() + 1` shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardsFile<K> {
    /// Split keys, strictly increasing; shard `i` owns keys in
    /// `[splits[i-1], splits[i])`.
    pub splits: Vec<K>,
}

/// Directory name of shard `i` under a sharded map directory.
#[must_use]
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:04}")
}

impl<K: Codec> ShardsFile<K> {
    /// Serialize to the on-disk representation.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(SHARDS_MAGIC);
        SHARDS_VERSION.encode_into(&mut out);
        encode_seq(&self.splits, &mut out);
        crc64(&out).encode_into(&mut out);
        out
    }

    /// Parse the on-disk representation. Total over arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < SHARDS_MAGIC.len() + 12 {
            return Err(StoreError::Truncated {
                what: "shards file",
            });
        }
        if &bytes[..8] != SHARDS_MAGIC {
            return Err(StoreError::BadMagic { what: "shards" });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 8);
        let stored_crc = u64::decode_from(&mut Input::new(crc_bytes))?;
        if crc64(body) != stored_crc {
            return Err(StoreError::ChecksumMismatch {
                what: "shards file",
            });
        }
        let mut input = Input::new(&body[8..]);
        let version = u32::decode_from(&mut input)?;
        if version != SHARDS_VERSION {
            return Err(StoreError::UnsupportedVersion {
                what: "shards",
                found: version,
                supported: SHARDS_VERSION,
            });
        }
        let splits = decode_seq::<K>(&mut input)?;
        if !input.is_empty() {
            return Err(StoreError::corrupt("trailing bytes after shards body"));
        }
        Ok(ShardsFile { splits })
    }

    /// Atomically install this file as `dir/SHARDS`.
    pub fn write_atomic(&self, vfs: &dyn Vfs, dir: &Path) -> Result<(), StoreError> {
        write_root_file_atomic(vfs, dir, SHARDS_NAME, &self.encode())
    }

    /// Read and verify `dir/SHARDS`.
    pub fn read(vfs: &dyn Vfs, dir: &Path) -> Result<Self, StoreError> {
        Self::decode(&vfs.read(&dir.join(SHARDS_NAME))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use std::path::PathBuf;

    fn sample() -> Manifest {
        Manifest {
            kind: QueryKind::Veb,
            buffer_cap: 256,
            next_run_id: 7,
            wal_seq: 3,
            next_seq: 1000,
            l0: vec![RunRef {
                id: 5,
                seq_lo: 900,
                seq_hi: 950,
            }],
            tiers: vec![
                vec![],
                vec![
                    RunRef {
                        id: 6,
                        seq_lo: 500,
                        seq_hi: 899,
                    },
                    RunRef {
                        id: 2,
                        seq_lo: 1,
                        seq_hi: 499,
                    },
                ],
            ],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    /// The reserved v1 byte: both historical tags decode (to the same
    /// manifest), anything else is corrupt even under a valid checksum.
    #[test]
    fn reserved_algorithm_byte_is_range_checked() {
        let with_tag = |tag: u8| {
            let mut bytes = sample().encode();
            let at = MANIFEST_MAGIC.len() + 4 + 5; // magic, version, kind
            assert_eq!(bytes[at], RESERVED_ALGORITHM_TAG);
            bytes[at] = tag;
            let body = bytes.len() - 8;
            let crc = crc64(&bytes[..body]);
            bytes.truncate(body);
            crc.encode_into(&mut bytes);
            Manifest::decode(&bytes)
        };
        assert_eq!(with_tag(0).unwrap(), sample());
        assert_eq!(with_tag(1).unwrap(), sample());
        for tag in [2u8, 0x7f, 0xff] {
            assert!(matches!(with_tag(tag), Err(StoreError::Corrupt(_))));
        }
    }

    #[test]
    fn rotation_replaces_atomically() {
        let vfs = MemVfs::new();
        let dir = PathBuf::from("/db");
        sample().write_atomic(&vfs, &dir).unwrap();
        let mut second = sample();
        second.wal_seq = 4;
        second.write_atomic(&vfs, &dir).unwrap();
        assert_eq!(Manifest::read(&vfs, &dir).unwrap().wal_seq, 4);
        assert!(!vfs.exists(&dir.join("MANIFEST.tmp")));
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut copy = bytes.clone();
                copy[i] ^= 1 << bit;
                assert!(
                    Manifest::decode(&copy).is_err(),
                    "flip at byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn decode_fuzz_never_panics() {
        let mut state = 42u64;
        for len in 0..160 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(2862933555777941757)
                        .wrapping_add(3037000493);
                    (state >> 40) as u8
                })
                .collect();
            let _ = Manifest::decode(&bytes);
            let _ = ShardsFile::<u64>::decode(&bytes);
        }
    }

    #[test]
    fn shards_round_trip() {
        let s = ShardsFile {
            splits: vec![10u64, 20, 30],
        };
        assert_eq!(ShardsFile::<u64>::decode(&s.encode()).unwrap(), s);
    }
}
