//! Sync-primitive routing point for the worker pool.
//!
//! Everything [`crate::worker`] needs from `std::sync` / `std::thread`
//! for its hand-off, wake-up and completion protocol is imported
//! **only** through this module, so the crate's unit tests, built with
//! `--cfg ist_loom`, run the very same pool on `ist-loom`'s
//! model-checked shims (see `crates/loom-shim` and the `model` tests in
//! `worker.rs`):
//!
//! ```sh
//! RUSTFLAGS="--cfg ist_loom" cargo test -p ist-parallel --lib
//! ```
//!
//! The gate is `cfg(all(ist_loom, test))`, not `cfg(ist_loom)`:
//! `ist-loom` is a **dev-dependency**, so that the crates that depend
//! on this one (and the frozen benchmark's lockfile) see no new
//! dependency edge. Built as a dependency — even under `--cfg
//! ist_loom`, as `ist-dynamic`'s model suite does — the pool is on
//! `std`. The shim types mirror the `std` signatures (`lock` and `wait`
//! return `LockResult`s, `join` reports panics), so the two builds are
//! the same code.
//!
//! `ist-lint`'s `no-spawn-outside-parallel` treats `crates/parallel/`
//! as a threading substrate; [`spawn_worker`] is the crate's one
//! thread-creation site.

#[cfg(not(all(ist_loom, test)))]
pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(all(ist_loom, test)))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(all(ist_loom, test)))]
pub(crate) use std::thread::JoinHandle;

#[cfg(all(ist_loom, test))]
pub(crate) use ist_loom::sync::{AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
#[cfg(all(ist_loom, test))]
pub(crate) use ist_loom::thread::JoinHandle;

/// Start one named pool worker. Fails when the OS refuses the thread,
/// which the pool treats as "no helper available".
#[cfg(not(all(ist_loom, test)))]
pub(crate) fn spawn_worker(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(body)
}

/// Start one pool worker as a model thread (a plain `std` thread
/// outside a model execution). The shim names its threads itself.
#[cfg(all(ist_loom, test))]
pub(crate) fn spawn_worker(
    _name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    Ok(ist_loom::thread::spawn(body))
}
