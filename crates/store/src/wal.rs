//! Write-ahead log: length-prefixed, checksummed records with a
//! truncated-tail-tolerant reader.
//!
//! ## File format
//!
//! ```text
//! magic "IST-WAL\0" (8) | version u32 | seq u64 | crc64(header) u64
//! then per record:
//! payload_len u32 | crc64(payload) u64 | payload
//! ```
//!
//! The header is fsynced at creation, *before* the manifest is rotated
//! to name the new log — a manifest never points at a file whose
//! header might be torn.
//!
//! ## Tail policy
//!
//! A record that extends past end-of-file is the signature of a crash
//! mid-append: the reader stops there and reports a clean truncated
//! tail. A record whose bytes are fully present but whose checksum
//! fails is *corruption* and surfaces as a typed error — it cannot be
//! a torn append, because appends are strictly sequential.
//!
//! One ambiguity is inherent to length-prefixed logs: a bit flip in
//! the *final* record's length field can make it look like it extends
//! past EOF, i.e. like a torn tail. Media corruption of fsynced bytes
//! is outside the crash contract (the crash sweep distinguishes the
//! two schedules), so this reader resolves the ambiguity in favor of
//! truncation tolerance, like other production logs do.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades acknowledgment durability for append cost:
//! `Always` fsyncs every record, `Never` leaves flushing to the OS
//! until an explicit [`WalWriter::sync`]. A caller that batches its
//! writes gets group commit from `Always` by logging each batch as one
//! record (a map's `apply` does). [`WalWriter::acked`] reports how many
//! records are *guaranteed* after a crash — the crash harness checks
//! recovery against exactly this number.

use std::path::{Path, PathBuf};

use crate::checksum::crc64;
use crate::codec::{Codec, Input};
use crate::error::StoreError;
use crate::vfs::{Vfs, VfsFile};

/// Leading bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"IST-WAL\0";
/// Newest WAL format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;

const HEADER_LEN: usize = 8 + 4 + 8 + 8;
const RECORD_HEADER_LEN: usize = 4 + 8;

/// When the log fsyncs relative to record appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every record: an applied write is a durable write.
    Always,
    /// Never fsync from the hot path; the OS flushes when it pleases.
    /// Only explicit `flush()`/checkpoints guarantee anything.
    Never,
}

impl FsyncPolicy {
    /// Parse a command-line spelling: `always` or `never`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// File name of the WAL with sequence number `seq`.
#[must_use]
pub fn wal_file_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

/// Appender for one WAL file.
pub struct WalWriter {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    seq: u64,
    policy: FsyncPolicy,
    appended: u64,
    acked: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("seq", &self.seq)
            .field("policy", &self.policy)
            .field("appended", &self.appended)
            .field("acked", &self.acked)
            .finish()
    }
}

impl WalWriter {
    /// Create a fresh log at `path` and durably write its header.
    pub fn create(
        vfs: &dyn Vfs,
        path: &Path,
        seq: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, StoreError> {
        let mut file = vfs.create(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(WAL_MAGIC);
        WAL_VERSION.encode_into(&mut header);
        seq.encode_into(&mut header);
        crc64(&header).encode_into(&mut header);
        file.write_all(&header)?;
        // Always durable, regardless of policy: the manifest is about
        // to name this file, so its header must survive any crash.
        file.sync()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            seq,
            policy,
            appended: 0,
            acked: 0,
        })
    }

    /// Sequence number this log was created with.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records appended so far (durable or not).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Records guaranteed to survive a crash (covered by an fsync).
    #[must_use]
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Append one record; fsyncs per the policy. Returns whether this
    /// append is already durable.
    pub fn append(&mut self, payload: &[u8]) -> Result<bool, StoreError> {
        debug_assert!(payload.len() <= u32::MAX as usize, "WAL record too large");
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        (payload.len() as u32).encode_into(&mut frame);
        crc64(payload).encode_into(&mut frame);
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.appended += 1;
        let want_sync = self.policy == FsyncPolicy::Always;
        if want_sync {
            self.sync()?;
        } else {
            self.file.flush()?;
        }
        Ok(want_sync)
    }

    /// Fsync the log, making every appended record durable.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync()?;
        self.acked = self.appended;
        Ok(())
    }
}

/// Parsed contents of a WAL file.
#[derive(Debug)]
pub struct WalContents {
    /// Sequence number from the header.
    pub seq: u64,
    /// Complete, checksum-verified record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether the file ended in a torn (crash-truncated) record.
    pub truncated_tail: bool,
}

/// Read and verify a WAL file, tolerating a torn tail record.
pub fn read_wal(
    vfs: &dyn Vfs,
    path: &Path,
    expect_seq: Option<u64>,
) -> Result<WalContents, StoreError> {
    let bytes = vfs.read(path)?;
    parse_wal(&bytes, expect_seq)
}

/// Parse WAL bytes (see [`read_wal`]). Total over arbitrary input.
pub fn parse_wal(bytes: &[u8], expect_seq: Option<u64>) -> Result<WalContents, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated { what: "wal header" });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(StoreError::BadMagic { what: "wal" });
    }
    let mut input = Input::new(&bytes[8..HEADER_LEN]);
    let version = u32::decode_from(&mut input)?;
    let seq = u64::decode_from(&mut input)?;
    let stored_crc = u64::decode_from(&mut input)?;
    if crc64(&bytes[..HEADER_LEN - 8]) != stored_crc {
        return Err(StoreError::ChecksumMismatch { what: "wal header" });
    }
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedVersion {
            what: "wal",
            found: version,
            supported: WAL_VERSION,
        });
    }
    if let Some(expected) = expect_seq {
        if seq != expected {
            return Err(StoreError::corrupt(format!(
                "wal seq {seq} does not match manifest seq {expected}"
            )));
        }
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut truncated_tail = false;
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER_LEN {
            truncated_tail = true; // crash mid record header
            break;
        }
        let mut rh = Input::new(&bytes[pos..pos + RECORD_HEADER_LEN]);
        let len = u32::decode_from(&mut rh)? as usize;
        let payload_crc = u64::decode_from(&mut rh)?;
        let start = pos + RECORD_HEADER_LEN;
        if bytes.len() - start < len {
            truncated_tail = true; // crash mid payload (see module docs)
            break;
        }
        let payload = &bytes[start..start + len];
        if crc64(payload) != payload_crc {
            return Err(StoreError::ChecksumMismatch { what: "wal record" });
        }
        records.push(payload.to_vec());
        pos = start + len;
    }
    Ok(WalContents {
        seq,
        records,
        truncated_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn path() -> PathBuf {
        PathBuf::from("/wal-000000.log")
    }

    #[test]
    fn append_and_read_back() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::create(&vfs, &path(), 0, FsyncPolicy::Always).unwrap();
        assert!(w.append(b"one").unwrap());
        assert!(w.append(b"two").unwrap());
        assert_eq!(w.acked(), 2);
        let contents = read_wal(&vfs, &path(), Some(0)).unwrap();
        assert_eq!(contents.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(!contents.truncated_tail);
    }

    #[test]
    fn never_acks_only_at_explicit_syncs() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::create(&vfs, &path(), 3, FsyncPolicy::Never).unwrap();
        assert!(!w.append(b"a").unwrap());
        assert!(!w.append(b"b").unwrap());
        assert_eq!(w.acked(), 0);
        w.sync().unwrap();
        assert!(!w.append(b"c").unwrap());
        assert_eq!(w.acked(), 2);
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_offset() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::create(&vfs, &path(), 0, FsyncPolicy::Never).unwrap();
        w.append(b"first record").unwrap();
        w.append(b"second record").unwrap();
        drop(w);
        let full = vfs.read(&path()).unwrap();
        let first_end = HEADER_LEN + RECORD_HEADER_LEN + b"first record".len();
        for cut in HEADER_LEN..full.len() {
            let contents = parse_wal(&full[..cut], Some(0)).unwrap();
            // Only fully-present records are returned; the cut point
            // decides how many that is, and the tail flag fires unless
            // the cut landed exactly on a record boundary.
            let expect = usize::from(cut >= first_end) + usize::from(cut >= full.len());
            assert_eq!(contents.records.len(), expect, "cut at {cut}");
            let clean_boundary = cut == HEADER_LEN || cut == first_end || cut == full.len();
            assert_eq!(contents.truncated_tail, !clean_boundary, "cut at {cut}");
        }
    }

    #[test]
    fn interior_corruption_is_a_typed_error() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::create(&vfs, &path(), 0, FsyncPolicy::Always).unwrap();
        w.append(b"record one").unwrap();
        w.append(b"record two").unwrap();
        drop(w);
        let mut bytes = vfs.read(&path()).unwrap();
        // Flip a payload byte of the first record: complete bytes, bad crc.
        bytes[HEADER_LEN + RECORD_HEADER_LEN] ^= 0x40;
        match parse_wal(&bytes, Some(0)) {
            Err(StoreError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn header_fuzz_never_panics() {
        let mut state = 1u64;
        for len in 0..80 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect();
            let _ = parse_wal(&bytes, None);
        }
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every=8"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
