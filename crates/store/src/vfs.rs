//! Virtual filesystem with a production backend and a fault-injecting
//! in-memory backend.
//!
//! All durability code in this workspace talks to storage through the
//! [`Vfs`] trait. [`StdVfs`] maps it onto `std::fs`. [`MemVfs`] is the
//! crash laboratory: it models the sync/unsync state of every byte,
//! can kill the write stream at an exact byte offset
//! ([`FailpointFile`]), simulate a power cycle under two disk models
//! ([`CrashModel`]), and corrupt files in place (bit flips,
//! truncation) — the substrate for the exhaustive crash sweep in
//! `tests/store_crash.rs`.
//!
//! ## MemVfs disk model
//!
//! - Writes append to an in-memory file; bytes written but not yet
//!   synced are *pending*.
//! - [`MemVfs::power_cycle`] with [`CrashModel::Torn`] keeps pending
//!   bytes (the disk happened to persist them); with
//!   [`CrashModel::DropUnsynced`] it discards them (the disk lost
//!   everything after the last fsync). Real crashes land anywhere
//!   between these two extremes, so recovery must tolerate both.
//! - `rename` is modeled as atomic and immediately durable — the
//!   POSIX contract the manifest rotation relies on (it still syncs
//!   the temp file *before* the rename, which `DropUnsynced` would
//!   otherwise punish with an empty manifest).
//! - Once the injected byte budget is exhausted the "process" is dead:
//!   every subsequent operation fails until the next `power_cycle`.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Writable file handle produced by [`Vfs::create`].
pub trait VfsFile: Write + Send {
    /// Durably flush everything written so far (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// Readable file handle with a known size, produced by
/// [`Vfs::open_read`]. The size lets readers validate section tables
/// before allocating.
pub trait ReadFile: Read + Send {
    /// Total file size in bytes.
    fn len(&self) -> u64;

    /// True when the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Filesystem abstraction for the persistence layer.
pub trait Vfs: Send + Sync {
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Open a file for sequential reading.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn ReadFile>>;

    /// Read an entire file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut f = self.open_read(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    /// Whether `path` names an existing file.
    fn exists(&self, path: &Path) -> bool;

    /// Atomically rename `from` to `to`, replacing any existing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// File names (not paths) of the direct children of `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Durably flush directory metadata (new/renamed/removed entries).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// StdVfs
// ---------------------------------------------------------------------------

/// Production backend: `std::fs` with buffered writes and real fsync.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

struct StdFile {
    inner: io::BufWriter<std::fs::File>,
}

impl Write for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for StdFile {
    fn sync(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        self.inner.get_ref().sync_all()
    }
}

struct StdReadFile {
    inner: io::BufReader<std::fs::File>,
    len: u64,
}

impl Read for StdReadFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl ReadFile for StdReadFile {
    fn len(&self) -> u64 {
        self.len
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::File::create(path)?;
        Ok(Box::new(StdFile {
            inner: io::BufWriter::new(file),
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn ReadFile>> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Box::new(StdReadFile {
            inner: io::BufReader::new(file),
            len,
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        path.is_file()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it flushes the
        // entry metadata on POSIX systems; best-effort elsewhere.
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// MemVfs
// ---------------------------------------------------------------------------

/// What the simulated disk does with unsynced bytes at a power cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashModel {
    /// Pending (written-but-unsynced) bytes survive: the torn prefix
    /// of the interrupted write is visible after restart.
    Torn,
    /// Pending bytes are lost: every file rolls back to its last
    /// fsynced length.
    DropUnsynced,
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    data: Vec<u8>,
    synced: usize,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: std::collections::BTreeSet<PathBuf>,
    /// Remaining bytes the "process" may write before the injected
    /// crash; `None` disarms the failpoint.
    budget: Option<u64>,
    /// Set when the budget ran out; every operation fails until the
    /// next power cycle.
    crashed: bool,
    /// Cumulative bytes ever written (across crashes) — lets the crash
    /// sweep measure a schedule's total write volume in a dry run.
    total_written: u64,
}

fn injected() -> io::Error {
    io::Error::other("injected fault: write stream killed at byte budget")
}

fn dead() -> io::Error {
    io::Error::other("injected fault: process is dead until power_cycle")
}

/// In-memory [`Vfs`] with byte-exact fault injection.
#[derive(Debug, Default, Clone)]
pub struct MemVfs {
    state: Arc<Mutex<MemState>>,
}

impl MemVfs {
    /// Fresh empty filesystem with the failpoint disarmed.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, MemState> {
        self.state.lock().expect("MemVfs poisoned")
    }

    /// Arm the failpoint: after `bytes` more written bytes, the write
    /// stream dies mid-write and the process is dead until
    /// [`power_cycle`](Self::power_cycle). `None` disarms.
    // LINT-ALLOW(test-only-pub): store_crash's crash-point sweeps arm the failpoint
    pub fn set_write_budget(&self, bytes: Option<u64>) {
        self.lock().budget = bytes;
    }

    /// Whether the injected crash has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Cumulative bytes written since construction (survives crashes).
    #[must_use]
    pub fn total_written(&self) -> u64 {
        self.lock().total_written
    }

    /// Simulate restart after a crash: settle every file per `model`,
    /// clear the crashed flag, and disarm the failpoint.
    pub fn power_cycle(&self, model: CrashModel) {
        let mut st = self.lock();
        for file in st.files.values_mut() {
            match model {
                CrashModel::Torn => file.synced = file.data.len(),
                CrashModel::DropUnsynced => file.data.truncate(file.synced),
            }
        }
        st.crashed = false;
        st.budget = None;
    }

    /// XOR one bit of an existing file (corruption injection).
    ///
    /// Returns false when the file is missing or too short.
    // LINT-ALLOW(test-only-pub): store_crash and store_format inject bit flips
    pub fn flip_bit(&self, path: &Path, bit: u64) -> bool {
        let mut st = self.lock();
        match st.files.get_mut(path) {
            Some(f) if (bit / 8) < f.data.len() as u64 => {
                f.data[(bit / 8) as usize] ^= 1 << (bit % 8);
                true
            }
            _ => false,
        }
    }

    /// Truncate an existing file to `len` bytes (corruption injection).
    pub fn truncate(&self, path: &Path, len: u64) -> bool {
        let mut st = self.lock();
        match st.files.get_mut(path) {
            Some(f) => {
                f.data.truncate(len as usize);
                f.synced = f.synced.min(len as usize);
                true
            }
            None => false,
        }
    }

    /// Full contents of `path`, if it exists.
    #[must_use]
    // LINT-ALLOW(test-only-pub): store_format reads the bytes it pins
    pub fn file_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|f| f.data.clone())
    }

    /// Snapshot every file (for corruption tests that restore state
    /// between injected faults).
    #[must_use]
    // LINT-ALLOW(test-only-pub): store_crash and store_format snapshot the filesystem
    pub fn dump(&self) -> Vec<(PathBuf, Vec<u8>)> {
        self.lock()
            .files
            .iter()
            .map(|(p, f)| (p.clone(), f.data.clone()))
            .collect()
    }

    /// Replace the entire filesystem with a [`dump`](Self::dump)ed
    /// snapshot (all bytes marked synced) and clear fault state.
    // LINT-ALLOW(test-only-pub): store_crash and store_format roll back between injected faults
    pub fn restore(&self, snapshot: &[(PathBuf, Vec<u8>)]) {
        let mut st = self.lock();
        st.files = snapshot
            .iter()
            .map(|(p, data)| {
                (
                    p.clone(),
                    MemFile {
                        data: data.clone(),
                        synced: data.len(),
                    },
                )
            })
            .collect();
        st.crashed = false;
        st.budget = None;
    }
}

/// Writer handle into a [`MemVfs`] that enforces the byte budget: the
/// write stream dies at an exact byte offset, leaving the torn prefix
/// behind — the primitive the kill-at-every-offset sweep is built on.
pub struct FailpointFile {
    state: Arc<Mutex<MemState>>,
    path: PathBuf,
}

impl Write for FailpointFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.state.lock().expect("MemVfs poisoned");
        if st.crashed {
            return Err(dead());
        }
        let writable = match st.budget {
            Some(b) => (b as usize).min(buf.len()),
            None => buf.len(),
        };
        st.total_written += writable as u64;
        if let Some(b) = st.budget.as_mut() {
            *b -= writable as u64;
        }
        let Some(file) = st.files.get_mut(&self.path) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "file removed while open for writing",
            ));
        };
        file.data.extend_from_slice(&buf[..writable]);
        if writable < buf.len() {
            st.crashed = true;
            return Err(injected());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let st = self.state.lock().expect("MemVfs poisoned");
        if st.crashed {
            return Err(dead());
        }
        Ok(())
    }
}

impl VfsFile for FailpointFile {
    fn sync(&mut self) -> io::Result<()> {
        let mut st = self.state.lock().expect("MemVfs poisoned");
        if st.crashed {
            return Err(dead());
        }
        if let Some(file) = st.files.get_mut(&self.path) {
            file.synced = file.data.len();
        }
        Ok(())
    }
}

struct MemReadFile {
    data: Vec<u8>,
    pos: usize,
}

impl Read for MemReadFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl ReadFile for MemReadFile {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }
}

impl Vfs for MemVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.lock();
        if st.crashed {
            return Err(dead());
        }
        st.files.insert(path.to_path_buf(), MemFile::default());
        Ok(Box::new(FailpointFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn ReadFile>> {
        let st = self.lock();
        if st.crashed {
            return Err(dead());
        }
        match st.files.get(path) {
            Some(f) => Ok(Box::new(MemReadFile {
                data: f.data.clone(),
                pos: 0,
            })),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().files.contains_key(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.crashed {
            return Err(dead());
        }
        match st.files.remove(from) {
            Some(f) => {
                // Atomic and immediately durable (see module docs).
                st.files.insert(to.to_path_buf(), f);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.crashed {
            return Err(dead());
        }
        match st.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = self.lock();
        if st.crashed {
            return Err(dead());
        }
        Ok(st
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.crashed {
            return Err(dead());
        }
        st.dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let st = self.lock();
        if st.crashed {
            return Err(dead());
        }
        // Directory entries are modeled as immediately durable.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_kills_mid_write_and_keeps_torn_prefix() {
        let vfs = MemVfs::new();
        vfs.set_write_budget(Some(5));
        let mut f = vfs.create(Path::new("/x")).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert!(vfs.crashed());
        // Everything fails until restart.
        assert!(vfs.create(Path::new("/y")).is_err());
        vfs.power_cycle(CrashModel::Torn);
        assert_eq!(vfs.read(Path::new("/x")).unwrap(), b"01234");
    }

    #[test]
    fn drop_unsynced_rolls_back_to_last_sync() {
        let vfs = MemVfs::new();
        let mut f = vfs.create(Path::new("/x")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync().unwrap();
        f.write_all(b" pending").unwrap();
        drop(f);
        vfs.power_cycle(CrashModel::DropUnsynced);
        assert_eq!(vfs.read(Path::new("/x")).unwrap(), b"durable");
        vfs.power_cycle(CrashModel::Torn); // no-op: already settled
        assert_eq!(vfs.read(Path::new("/x")).unwrap(), b"durable");
    }

    #[test]
    fn corruptors_flip_and_truncate() {
        let vfs = MemVfs::new();
        let mut f = vfs.create(Path::new("/x")).unwrap();
        f.write_all(&[0u8; 4]).unwrap();
        drop(f);
        assert!(vfs.flip_bit(Path::new("/x"), 9));
        assert_eq!(vfs.read(Path::new("/x")).unwrap(), vec![0, 2, 0, 0]);
        assert!(vfs.truncate(Path::new("/x"), 2));
        assert_eq!(vfs.read(Path::new("/x")).unwrap().len(), 2);
        assert!(!vfs.flip_bit(Path::new("/missing"), 0));
    }

    #[test]
    fn rename_is_atomic_replace() {
        let vfs = MemVfs::new();
        for (name, content) in [("/a", b"aaa"), ("/b", b"bbb")] {
            let mut f = vfs.create(Path::new(name)).unwrap();
            f.write_all(content).unwrap();
            f.sync().unwrap();
        }
        vfs.rename(Path::new("/a"), Path::new("/b")).unwrap();
        assert!(!vfs.exists(Path::new("/a")));
        assert_eq!(vfs.read(Path::new("/b")).unwrap(), b"aaa");
    }
}
