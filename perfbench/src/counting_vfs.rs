//! A [`Vfs`] wrapper that counts what passes through it.
//!
//! The store layer talks to storage only through `Vfs`, so wrapping the
//! backend measures its write amplification, fsync rate and recovery
//! read volume from outside, without touching `crates/store`.

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use implicit_search_trees::store::{ReadFile, Vfs, VfsFile};

/// One statistic: it publishes no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    fn add(&self, n: u64) {
        // Relaxed: a tally read after the work is done; nothing is
        // published through it.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        // Relaxed: see `add`.
        self.0.load(Ordering::Relaxed)
    }
}

/// Totals since construction.
#[derive(Debug, Default)]
pub struct IoCounters {
    bytes_written: Counter,
    bytes_read: Counter,
    file_syncs: Counter,
    dir_syncs: Counter,
    files_created: Counter,
    files_removed: Counter,
    renames: Counter,
}

/// A copy of the counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub file_syncs: u64,
    pub dir_syncs: u64,
    pub files_created: u64,
    pub files_removed: u64,
    pub renames: u64,
}

impl IoSnapshot {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            file_syncs: self.file_syncs - earlier.file_syncs,
            dir_syncs: self.dir_syncs - earlier.dir_syncs,
            files_created: self.files_created - earlier.files_created,
            files_removed: self.files_removed - earlier.files_removed,
            renames: self.renames - earlier.renames,
        }
    }
}

impl IoCounters {
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_written: self.bytes_written.get(),
            bytes_read: self.bytes_read.get(),
            file_syncs: self.file_syncs.get(),
            dir_syncs: self.dir_syncs.get(),
            files_created: self.files_created.get(),
            files_removed: self.files_removed.get(),
            renames: self.renames.get(),
        }
    }
}

/// Counts every byte, sync and metadata operation on its way to
/// `inner`.
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<IoCounters>,
}

impl CountingVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        Self {
            inner,
            counters: Arc::default(),
        }
    }

    pub fn counters(&self) -> Arc<IoCounters> {
        Arc::clone(&self.counters)
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<IoCounters>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters.bytes_written.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        self.counters.file_syncs.add(1);
        self.inner.sync()
    }
}

struct CountingReadFile {
    inner: Box<dyn ReadFile>,
    counters: Arc<IoCounters>,
}

impl Read for CountingReadFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counters.bytes_read.add(n as u64);
        Ok(n)
    }
}

impl ReadFile for CountingReadFile {
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.create(path)?;
        self.counters.files_created.add(1);
        Ok(Box::new(CountingFile {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn ReadFile>> {
        Ok(Box::new(CountingReadFile {
            inner: self.inner.open_read(path)?,
            counters: Arc::clone(&self.counters),
        }))
    }

    // `read` keeps its default body, which goes through `open_read`
    // and is therefore counted.

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.renames.add(1);
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counters.files_removed.add(1);
        self.inner.remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.counters.dir_syncs.add(1);
        self.inner.sync_dir(dir)
    }
}
