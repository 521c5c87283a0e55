//! # ist-store
//!
//! Durability primitives for the implicit-search-tree maps: immutable
//! run files, a write-ahead log, an atomically-rotated manifest, and a
//! fault-injectable virtual filesystem — the storage substrate behind
//! `DynamicMap::open` / `ShardedMap::open` in the higher layers.
//!
//! The design leans on the paper's core property: an implicit search
//! tree layout is a *flat array*, so persistence needs no pointer
//! fixup. A run file is one sequential write of three contiguous
//! sections (keys, value slots, weight prefix — already in layout
//! order), and a load is one sequential pass that decodes each
//! checksum-verified section with [`Codec`]. The durability contract:
//!
//! - **Run files and manifests are always fsynced** before anything
//!   references them; the [`FsyncPolicy`] knob only trades off WAL
//!   append cost.
//! - **The manifest is the root of trust**: rotated via write-temp +
//!   fsync + atomic rename, so a crash leaves either the old or the
//!   new file set fully consistent, never a mix.
//! - **The WAL covers everything the manifest's runs do not**: a
//!   checkpoint writes the resident runs that have no file yet and
//!   rotates the log, so replay after the manifest's runs reconstructs
//!   the pre-crash state. A torn tail record (crash mid-append) is
//!   tolerated; any other corruption is a typed [`StoreError`], never
//!   a panic.
//!
//! ## Quickstart
//!
//! Persist a map, reopen it, and keep writing (using the in-memory
//! [`MemVfs`]; production code uses [`StdVfs`], the default of
//! [`StoreConfig::new`]):
//!
//! ```
//! use implicit_search_trees::{DynamicMap, Layout};
//! use ist_store::{FsyncPolicy, MemVfs, StoreConfig};
//! use std::sync::Arc;
//!
//! let vfs = MemVfs::new();
//! let cfg = StoreConfig::with_vfs(Arc::new(vfs.clone())).fsync(FsyncPolicy::Always);
//!
//! let mut m: DynamicMap<u64, u64> = DynamicMap::new(Layout::Veb);
//! m.insert(1, 10);
//! m.persist_to("db", cfg.clone()).unwrap();
//! m.insert(2, 20); // logged to the WAL before it is applied
//! drop(m);
//!
//! let mut m = DynamicMap::<u64, u64>::open_with("db", cfg).unwrap();
//! assert_eq!(m.get(&1), Some(&10));
//! assert_eq!(m.get(&2), Some(&20));
//! m.remove(&1); // still durable: the reopened map keeps logging
//! ```
//!
//! The crash story is verified exhaustively in `tests/store_crash.rs`
//! by killing the write stream at every byte offset (via
//! [`FailpointFile`]) and corrupting files bit by bit, differentially
//! against a `BTreeMap` oracle.

#![warn(missing_docs)]

mod checksum;
mod codec;
mod error;
mod manifest;
mod runfile;
mod vfs;
mod wal;

pub use checksum::{crc64, Crc64};
pub use codec::{decode_kind, decode_seq, encode_kind, encode_seq, Codec, Input};
pub use error::StoreError;
pub use manifest::{
    run_file_name, shard_dir_name, write_root_file_atomic, Manifest, RunRef, ShardsFile,
    MANIFEST_MAGIC, MANIFEST_NAME, MANIFEST_VERSION, SHARDS_MAGIC, SHARDS_NAME, SHARDS_VERSION,
};
pub use runfile::{
    encode_run, write_run, RunHeader, RunReader, RunSections, RUN_HEADER_LEN, RUN_MAGIC,
    RUN_VERSION,
};
pub use vfs::{CrashModel, FailpointFile, MemVfs, ReadFile, StdVfs, Vfs, VfsFile};
pub use wal::{
    parse_wal, read_wal, wal_file_name, FsyncPolicy, WalContents, WalWriter, WAL_MAGIC, WAL_VERSION,
};

use std::sync::Arc;

/// How a map directory talks to storage: the filesystem backend plus
/// the WAL fsync policy.
///
/// Cloning is cheap (the backend is shared). The default is the real
/// filesystem with per-record fsync — every applied write is durable.
#[derive(Clone)]
pub struct StoreConfig {
    /// WAL fsync policy (run files and manifests always fsync).
    pub fsync: FsyncPolicy,
    /// Filesystem backend.
    pub vfs: Arc<dyn Vfs>,
}

impl StoreConfig {
    /// Real filesystem, fsync on every WAL append.
    #[must_use]
    pub fn new() -> Self {
        Self::with_vfs(Arc::new(StdVfs))
    }

    /// Custom backend (e.g. [`MemVfs`] for tests), fsync on every
    /// WAL append.
    #[must_use]
    pub fn with_vfs(vfs: Arc<dyn Vfs>) -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            vfs,
        }
    }

    /// Replace the WAL fsync policy.
    #[must_use]
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreConfig")
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}
