//! Sync-primitive routing point for the worker pool.
//!
//! Everything [`crate::worker`] needs from `std::sync` / `std::thread`
//! for its hand-off, wake-up and completion protocol is imported
//! **only** through this module.
//!
//! `ist-lint`'s `no-spawn-outside-parallel` treats `crates/parallel/`
//! as a threading substrate; [`spawn_worker`] is the crate's one
//! thread-creation site.

pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};
pub(crate) use std::thread::JoinHandle;

/// Start one named pool worker. Fails when the OS refuses the thread,
/// which the pool treats as "no helper available".
pub(crate) fn spawn_worker(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(body)
}
