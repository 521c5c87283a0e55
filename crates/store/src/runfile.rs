//! Immutable run files: one implicit-layout run serialized as a fixed
//! header plus three contiguous sections.
//!
//! ## File format
//!
//! ```text
//! offset 0                                      97
//! +--------------------------------------------+------+--------+---------+
//! | header (fixed 97 bytes, crc-terminated)    | keys | values | weights |
//! +--------------------------------------------+------+--------+---------+
//!
//! header := magic "IST-RUN\0" (8) | version u32 | kind tag u8 |
//!           kind param u32 | n u64 | seq_lo u64 | seq_hi u64 |
//!           keys_len u64 | keys_crc u64 | vals_len u64 | vals_crc u64 |
//!           wts_len u64 | wts_crc u64 | crc64(header[..89]) u64
//! ```
//!
//! The sections hold the run's three parallel arrays **in layout
//! order** (the order the in-memory `AlignedVec`s already use), so a
//! load is one sequential pass with no re-permutation. Keys and values
//! are [`Codec`] encodings, element by element (an integer's is its
//! little-endian bytes); the weight prefix is always a raw
//! little-endian `i64` column. The whole file is produced by a single
//! sequential write, by the checkpoint that first finds the run
//! resident, and never modified afterwards.
//!
//! This module frames and checksums the sections, and hands a caller
//! a section's bytes only once its checksum has been verified; how
//! key/value bytes are produced and consumed is the caller's contract
//! (see the persistence module in `ist-dynamic`, which owns the encode
//! and decode).

use std::path::Path;

use crate::checksum::{crc64, Crc64};
use crate::codec::{decode_kind, encode_kind, Codec, Input};
use crate::error::StoreError;
use crate::vfs::{ReadFile, Vfs};
use ist_query::QueryKind;

/// Leading bytes of every run file.
pub const RUN_MAGIC: &[u8; 8] = b"IST-RUN\0";
/// Newest run-file format version this build reads and writes.
pub const RUN_VERSION: u32 = 1;
/// Exact byte length of the fixed header.
pub const RUN_HEADER_LEN: usize = 8 + 4 + 1 + 4 + 8 * 10;

/// Parsed run-file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHeader {
    /// Layout of the serialized run.
    pub kind: QueryKind,
    /// Number of key/slot pairs.
    pub n: u64,
    /// Start of the run's sequence range: informational, recovery
    /// never reads it.
    pub seq_lo: u64,
    /// End of the run's sequence range: no later mutation is in the
    /// run. Informational, like `seq_lo`.
    pub seq_hi: u64,
    /// Byte length of the keys section.
    pub keys_len: u64,
    /// Checksum of the keys section.
    pub keys_crc: u64,
    /// Byte length of the values section.
    pub vals_len: u64,
    /// Checksum of the values section.
    pub vals_crc: u64,
    /// Byte length of the weight-prefix section.
    pub wts_len: u64,
    /// Checksum of the weight-prefix section.
    pub wts_crc: u64,
}

impl RunHeader {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RUN_HEADER_LEN);
        out.extend_from_slice(RUN_MAGIC);
        RUN_VERSION.encode_into(&mut out);
        encode_kind(self.kind, &mut out);
        self.n.encode_into(&mut out);
        self.seq_lo.encode_into(&mut out);
        self.seq_hi.encode_into(&mut out);
        self.keys_len.encode_into(&mut out);
        self.keys_crc.encode_into(&mut out);
        self.vals_len.encode_into(&mut out);
        self.vals_crc.encode_into(&mut out);
        self.wts_len.encode_into(&mut out);
        self.wts_crc.encode_into(&mut out);
        crc64(&out).encode_into(&mut out);
        debug_assert_eq!(out.len(), RUN_HEADER_LEN);
        out
    }

    /// Parse a fixed-size header block. Total over arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < RUN_HEADER_LEN {
            return Err(StoreError::Truncated { what: "run header" });
        }
        let bytes = &bytes[..RUN_HEADER_LEN];
        if &bytes[..8] != RUN_MAGIC {
            return Err(StoreError::BadMagic { what: "run" });
        }
        let mut input = Input::new(&bytes[8..]);
        let version = u32::decode_from(&mut input)?;
        // Verify the checksum before interpreting any other field.
        let stored_crc = u64::decode_from(&mut Input::new(&bytes[RUN_HEADER_LEN - 8..]))?;
        if crc64(&bytes[..RUN_HEADER_LEN - 8]) != stored_crc {
            return Err(StoreError::ChecksumMismatch { what: "run header" });
        }
        if version != RUN_VERSION {
            return Err(StoreError::UnsupportedVersion {
                what: "run",
                found: version,
                supported: RUN_VERSION,
            });
        }
        let kind = decode_kind(&mut input)?;
        Ok(RunHeader {
            kind,
            n: u64::decode_from(&mut input)?,
            seq_lo: u64::decode_from(&mut input)?,
            seq_hi: u64::decode_from(&mut input)?,
            keys_len: u64::decode_from(&mut input)?,
            keys_crc: u64::decode_from(&mut input)?,
            vals_len: u64::decode_from(&mut input)?,
            vals_crc: u64::decode_from(&mut input)?,
            wts_len: u64::decode_from(&mut input)?,
            wts_crc: u64::decode_from(&mut input)?,
        })
    }
}

/// The three serialized sections of a run, in file order.
#[derive(Debug, Clone, Copy)]
pub struct RunSections<'a> {
    /// Keys in layout order.
    pub keys: &'a [u8],
    /// Tombstone bitmap + present values in layout order.
    pub values: &'a [u8],
    /// Rank-indexed weight prefix (`n + 1` raw LE `i64`s).
    pub weights: &'a [u8],
}

/// Serialize a run into its on-disk representation (header + sections).
#[must_use]
pub fn encode_run(kind: QueryKind, n: u64, seq: (u64, u64), sections: RunSections<'_>) -> Vec<u8> {
    let header = RunHeader {
        kind,
        n,
        seq_lo: seq.0,
        seq_hi: seq.1,
        keys_len: sections.keys.len() as u64,
        keys_crc: crc64(sections.keys),
        vals_len: sections.values.len() as u64,
        vals_crc: crc64(sections.values),
        wts_len: sections.weights.len() as u64,
        wts_crc: crc64(sections.weights),
    };
    let mut out = Vec::with_capacity(
        RUN_HEADER_LEN + sections.keys.len() + sections.values.len() + sections.weights.len(),
    );
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(sections.keys);
    out.extend_from_slice(sections.values);
    out.extend_from_slice(sections.weights);
    out
}

/// Durably write a run file in one sequential write.
pub fn write_run(
    vfs: &dyn Vfs,
    path: &Path,
    kind: QueryKind,
    n: u64,
    seq: (u64, u64),
    sections: RunSections<'_>,
) -> Result<(), StoreError> {
    use std::io::Write as _;
    let bytes = encode_run(kind, n, seq, sections);
    let mut file = vfs.create(path)?;
    file.write_all(&bytes)?;
    file.sync()?;
    Ok(())
}

/// The three sections, in mandatory read order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Keys,
    Values,
    Weights,
    Done,
}

/// Single-pass, checksum-verifying reader for a run file.
///
/// [`RunReader::open`] validates the header and checks that the
/// declared section lengths exactly tile the physical file *before*
/// the caller allocates anything based on them; the sections are then
/// consumed strictly in file order, each verified against its
/// checksum as it streams out.
pub struct RunReader {
    header: RunHeader,
    file: Box<dyn ReadFile>,
    next: Section,
}

impl std::fmt::Debug for RunReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReader")
            .field("header", &self.header)
            .field("next", &self.next)
            .finish()
    }
}

impl RunReader {
    /// Open `path`, verify the header, and validate the section table
    /// against the physical file size.
    pub fn open(vfs: &dyn Vfs, path: &Path) -> Result<Self, StoreError> {
        let mut file = vfs.open_read(path)?;
        let mut header_bytes = [0u8; RUN_HEADER_LEN];
        read_exact_or_truncated(&mut file, &mut header_bytes, "run header")?;
        let header = RunHeader::decode(&header_bytes)?;
        let declared = (RUN_HEADER_LEN as u64)
            .checked_add(header.keys_len)
            .and_then(|x| x.checked_add(header.vals_len))
            .and_then(|x| x.checked_add(header.wts_len))
            .ok_or_else(|| StoreError::corrupt("run section lengths overflow"))?;
        if declared != file.len() {
            return Err(StoreError::corrupt(format!(
                "run sections declare {declared} bytes but file has {}",
                file.len()
            )));
        }
        Ok(RunReader {
            header,
            file,
            next: Section::Keys,
        })
    }

    /// The verified header.
    #[must_use]
    pub fn header(&self) -> &RunHeader {
        &self.header
    }

    fn advance(&mut self, expect: Section) -> (u64, u64) {
        assert_eq!(self.next, expect, "run sections must be read in file order");
        let (len, crc) = match expect {
            Section::Keys => (self.header.keys_len, self.header.keys_crc),
            Section::Values => (self.header.vals_len, self.header.vals_crc),
            Section::Weights => (self.header.wts_len, self.header.wts_crc),
            Section::Done => unreachable!(),
        };
        self.next = match expect {
            Section::Keys => Section::Values,
            Section::Values => Section::Weights,
            Section::Weights | Section::Done => Section::Done,
        };
        (len, crc)
    }

    fn read_verified(
        &mut self,
        expect: Section,
        what: &'static str,
        dst: &mut [u8],
    ) -> Result<(), StoreError> {
        let (len, crc) = self.advance(expect);
        assert_eq!(dst.len() as u64, len, "destination must match section size");
        // Fill in bounded chunks, folding each into the checksum while
        // it is still cache-hot: one pass of memory traffic instead of
        // a read followed by a full re-scan of a multi-megabyte
        // section — on the cold-start path both passes run at memory
        // bandwidth, so fusing them nearly halves the cost.
        const CHUNK: usize = 256 * 1024;
        let mut hasher = Crc64::new();
        let mut filled = 0;
        while filled < dst.len() {
            let end = (filled + CHUNK).min(dst.len());
            read_exact_or_truncated(&mut self.file, &mut dst[filled..end], what)?;
            hasher.update(&dst[filled..end]);
            filled = end;
        }
        if hasher.finalize() != crc {
            return Err(StoreError::ChecksumMismatch { what });
        }
        Ok(())
    }

    /// Byte length of the keys section (for sizing the destination).
    #[must_use]
    pub fn keys_len(&self) -> usize {
        self.header.keys_len as usize
    }

    /// Stream the keys section directly into `dst` (which must be
    /// exactly [`keys_len`](Self::keys_len) bytes) and verify it.
    pub fn read_keys_into(&mut self, dst: &mut [u8]) -> Result<(), StoreError> {
        self.read_verified(Section::Keys, "keys section", dst)
    }

    /// Read and verify the keys section into a fresh buffer.
    pub fn read_keys(&mut self) -> Result<Vec<u8>, StoreError> {
        let mut buf = vec![0u8; self.header.keys_len as usize];
        self.read_keys_into(&mut buf)?;
        Ok(buf)
    }

    /// Read and verify the values section.
    pub fn read_values(&mut self) -> Result<Vec<u8>, StoreError> {
        let mut buf = vec![0u8; self.header.vals_len as usize];
        self.read_verified(Section::Values, "values section", &mut buf)?;
        Ok(buf)
    }

    /// Byte length of the weights section.
    #[must_use]
    pub fn weights_len(&self) -> usize {
        self.header.wts_len as usize
    }

    /// Stream the weight-prefix section into `dst` (exactly
    /// [`weights_len`](Self::weights_len) bytes) and verify it.
    pub fn read_weights_into(&mut self, dst: &mut [u8]) -> Result<(), StoreError> {
        self.read_verified(Section::Weights, "weights section", dst)
    }
}

fn read_exact_or_truncated(
    file: &mut Box<dyn ReadFile>,
    dst: &mut [u8],
    what: &'static str,
) -> Result<(), StoreError> {
    use std::io::Read as _;
    let mut filled = 0;
    while filled < dst.len() {
        match file.read(&mut dst[filled..]) {
            Ok(0) => return Err(StoreError::Truncated { what }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use std::path::PathBuf;

    fn write_sample(vfs: &MemVfs, path: &Path) {
        let keys: Vec<u8> = (0..32).collect();
        let values = vec![0xFFu8; 7];
        let weights = vec![1u8; 40];
        write_run(
            vfs,
            path,
            QueryKind::Btree(8),
            4,
            (10, 20),
            RunSections {
                keys: &keys,
                values: &values,
                weights: &weights,
            },
        )
        .unwrap();
    }

    #[test]
    fn round_trip_sections() {
        let vfs = MemVfs::new();
        let path = PathBuf::from("/run-000000.ist");
        write_sample(&vfs, &path);
        let mut r = RunReader::open(&vfs, &path).unwrap();
        assert_eq!(r.header().kind, QueryKind::Btree(8));
        assert_eq!(r.header().n, 4);
        assert_eq!((r.header().seq_lo, r.header().seq_hi), (10, 20));
        assert_eq!(r.read_keys().unwrap(), (0..32).collect::<Vec<u8>>());
        assert_eq!(r.read_values().unwrap(), vec![0xFF; 7]);
        let mut wts = vec![0u8; r.weights_len()];
        r.read_weights_into(&mut wts).unwrap();
        assert_eq!(wts, vec![1u8; 40]);
    }

    #[test]
    fn every_byte_flip_fails_loudly() {
        let vfs = MemVfs::new();
        let path = PathBuf::from("/run-000000.ist");
        write_sample(&vfs, &path);
        let len = vfs.file_bytes(&path).unwrap().len() as u64;
        for byte in 0..len {
            assert!(vfs.flip_bit(&path, byte * 8 + (byte % 8)));
            let outcome = RunReader::open(&vfs, &path).and_then(|mut r| {
                r.read_keys()?;
                r.read_values()?;
                let mut wts = vec![0u8; r.weights_len()];
                r.read_weights_into(&mut wts)
            });
            assert!(outcome.is_err(), "flip in byte {byte} went undetected");
            assert!(vfs.flip_bit(&path, byte * 8 + (byte % 8))); // restore
        }
    }

    #[test]
    fn every_truncation_fails_loudly() {
        let vfs = MemVfs::new();
        let path = PathBuf::from("/run-000000.ist");
        write_sample(&vfs, &path);
        let full = vfs.file_bytes(&path).unwrap();
        for cut in 0..full.len() {
            assert!(vfs.truncate(&path, cut as u64));
            let outcome = RunReader::open(&vfs, &path).and_then(|mut r| {
                r.read_keys()?;
                r.read_values()?;
                let mut wts = vec![0u8; r.weights_len()];
                r.read_weights_into(&mut wts)
            });
            assert!(outcome.is_err(), "truncation to {cut} went undetected");
            // Restore.
            use std::io::Write as _;
            let mut f = vfs.create(&path).unwrap();
            f.write_all(&full).unwrap();
            f.sync().unwrap();
        }
    }

    #[test]
    fn header_fuzz_never_panics() {
        let mut state = 7u64;
        for len in 0..(RUN_HEADER_LEN + 8) {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 48) as u8
                })
                .collect();
            let _ = RunHeader::decode(&bytes);
        }
    }
}
