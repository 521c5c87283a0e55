//! Sync-primitive routing point for the compaction state machine.
//!
//! Everything `dynamic.rs` needs from `std::sync`/`std::thread` is
//! imported **only** through this module, so one `--cfg ist_loom`
//! swaps the writer/merge-worker protocol onto `ist-loom`'s
//! model-checked shims (see `crates/loom-shim`) without touching the
//! algorithm. The two builds are otherwise identical: the shim types
//! mirror the std signatures (`lock()` still returns a `LockResult`,
//! `spawn` still returns a joinable handle that reports panics), so the
//! production path is bit-for-bit the code the model checker explores.
//!
//! `ist-lint`'s `no-spawn-outside-parallel` recognizes this file as a
//! threading-substrate routing point; everywhere else in the crate,
//! `thread::spawn` is a lint error.

#[cfg(not(ist_loom))]
pub(crate) use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(not(ist_loom))]
pub(crate) use std::sync::{Arc, Mutex, MutexGuard};
#[cfg(not(ist_loom))]
pub(crate) use std::thread::{spawn, yield_now, JoinHandle};

#[cfg(ist_loom)]
pub(crate) use ist_loom::sync::{Arc, AtomicBool, Mutex, MutexGuard, Ordering};
#[cfg(ist_loom)]
pub(crate) use ist_loom::thread::{spawn, yield_now, JoinHandle};

/// Lock that shrugs off poisoning, for the durability engine's mutex
/// (its `&self` readers, [`crate::DynamicMap::store_error`] and
/// [`crate::DynamicMap::acked_records`]). The lock guards no invariant
/// of its own — every mutation reaches the engine through `&mut self`
/// and `Mutex::get_mut`, and the engine latches its own storage errors
/// — so a guard dropped by a panicking reader leaves nothing torn.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
