//! Drop-in stand-ins for the `std::sync` types the compaction path
//! uses. Under a [`crate::model::Model::check`] execution every
//! operation is a scheduling point; outside one they behave exactly
//! like `std` (so code built with `--cfg ist_loom` still works in
//! ordinary tests).
//!
//! All atomic operations are executed `SeqCst` under the model
//! regardless of the ordering requested — the checker verifies the
//! algorithm against the *strongest* memory model, while the ordering
//! arguments remain whatever the production build uses. Poisoning is
//! not modeled: `lock` never returns `Err` (production code here
//! ignores poisoning anyway via `unwrap_or_else(PoisonError::into_inner)`).

use std::sync::atomic::Ordering as StdOrdering;
use std::sync::{Arc as StdArc, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard};

pub use std::sync::atomic::Ordering;

use crate::model::{
    acquire_resource, current_ctx, notify_condvar, release_resource, wait_condvar, yield_point,
    Execution,
};

static NEXT_RESOURCE_ID: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn fresh_resource_id() -> usize {
    // Relaxed: the id is only used as a unique key, never for ordering.
    NEXT_RESOURCE_ID.fetch_add(1, StdOrdering::Relaxed)
}

/// Model-aware `AtomicBool`: every op is a preemption point, executed
/// `SeqCst` under the model.
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub fn new(v: bool) -> Self {
        AtomicBool {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    pub fn load(&self, _order: Ordering) -> bool {
        yield_point();
        self.inner.load(StdOrdering::SeqCst)
    }

    pub fn store(&self, v: bool, _order: Ordering) {
        yield_point();
        self.inner.store(v, StdOrdering::SeqCst);
    }

    pub fn swap(&self, v: bool, _order: Ordering) -> bool {
        yield_point();
        self.inner.swap(v, StdOrdering::SeqCst)
    }

    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<bool, bool> {
        yield_point();
        self.inner
            .compare_exchange(current, new, StdOrdering::SeqCst, StdOrdering::SeqCst)
    }
}

/// Model-aware `AtomicUsize`: every op is a preemption point, executed
/// `SeqCst` under the model.
#[derive(Debug, Default)]
pub struct AtomicUsize {
    inner: std::sync::atomic::AtomicUsize,
}

impl AtomicUsize {
    pub fn new(v: usize) -> Self {
        AtomicUsize {
            inner: std::sync::atomic::AtomicUsize::new(v),
        }
    }

    pub fn load(&self, _order: Ordering) -> usize {
        yield_point();
        self.inner.load(StdOrdering::SeqCst)
    }

    pub fn store(&self, v: usize, _order: Ordering) {
        yield_point();
        self.inner.store(v, StdOrdering::SeqCst);
    }

    pub fn fetch_add(&self, v: usize, _order: Ordering) -> usize {
        yield_point();
        self.inner.fetch_add(v, StdOrdering::SeqCst)
    }

    pub fn fetch_sub(&self, v: usize, _order: Ordering) -> usize {
        yield_point();
        self.inner.fetch_sub(v, StdOrdering::SeqCst)
    }

    pub fn swap(&self, v: usize, _order: Ordering) -> usize {
        yield_point();
        self.inner.swap(v, StdOrdering::SeqCst)
    }

    pub fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<usize, usize> {
        yield_point();
        self.inner
            .compare_exchange(current, new, StdOrdering::SeqCst, StdOrdering::SeqCst)
    }
}

/// Model-aware `Arc`: `clone` is a preemption point. Dropping is
/// deliberately *not* a scheduling point — drops run during unwinding,
/// where the scheduler must never panic or block — but the refcount
/// decrement itself is the real (atomic) one.
pub struct Arc<T: ?Sized> {
    inner: StdArc<T>,
}

impl<T> Arc<T> {
    pub fn new(v: T) -> Self {
        Arc {
            inner: StdArc::new(v),
        }
    }
}

impl<T: Clone> Arc<T> {
    pub fn make_mut(this: &mut Self) -> &mut T {
        StdArc::make_mut(&mut this.inner)
    }
}

impl<T: ?Sized> Arc<T> {
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        StdArc::ptr_eq(&a.inner, &b.inner)
    }

    pub fn get_mut(this: &mut Self) -> Option<&mut T> {
        StdArc::get_mut(&mut this.inner)
    }
}

impl<T: ?Sized> Clone for Arc<T> {
    fn clone(&self) -> Self {
        yield_point();
        Arc {
            inner: StdArc::clone(&self.inner),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for Arc<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> AsRef<T> for Arc<T> {
    fn as_ref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Arc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: Default> Default for Arc<T> {
    fn default() -> Self {
        Arc::new(T::default())
    }
}

/// Model-aware `Mutex`. Under the model, contention is resolved by the
/// scheduler (the inner real mutex is then uncontended by
/// construction); outside the model it *is* a plain `std` mutex.
pub struct Mutex<T: ?Sized> {
    id: usize,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(v: T) -> Self {
        Mutex {
            id: fresh_resource_id(),
            inner: StdMutex::new(v),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match current_ctx() {
            Some(ctx) => {
                yield_point();
                acquire_resource(&ctx, self.id);
                let guard = match self.inner.try_lock() {
                    Ok(g) => g,
                    // A model thread panicked while holding the inner
                    // guard; the model already released ownership.
                    Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => {
                        unreachable!("model grants the lock exclusively")
                    }
                };
                Ok(MutexGuard {
                    inner: Some(guard),
                    mutex: self,
                    model: Some((ctx.exec, self.id)),
                })
            }
            None => {
                let guard = self
                    .inner
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                Ok(MutexGuard {
                    inner: Some(guard),
                    mutex: self,
                    model: None,
                })
            }
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self
            .inner
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner()))
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard for [`Mutex`]; releasing updates model ownership and wakes
/// waiters without itself being a scheduling point (drop-safe).
pub struct MutexGuard<'a, T: ?Sized> {
    /// `None` only while [`Condvar::wait`] has handed the real guard to
    /// the real condvar (outside the model).
    inner: Option<StdMutexGuard<'a, T>>,
    /// The mutex this guards, so [`Condvar::wait`] can re-acquire it.
    mutex: &'a Mutex<T>,
    model: Option<(StdArc<Execution>, usize)>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((exec, id)) = self.model.take() {
            release_resource(&exec, id);
        }
    }
}

/// Model-aware `Condvar`. Under the model `wait` releases the mutex and
/// blocks through the scheduler (atomically: no scheduling point lies
/// between the two), and re-acquires it — possibly blocking again —
/// once a notify has picked the thread; `notify_one` wakes one waiter
/// (every choice of waiter is explored), `notify_all` all of them, and
/// a notify nobody waits for is lost. Spurious wake-ups are not
/// modeled; timeouts are not provided. Outside the model it *is* a
/// plain `std` condvar.
#[derive(Debug)]
pub struct Condvar {
    id: usize,
    inner: std::sync::Condvar,
}

impl Condvar {
    pub fn new() -> Self {
        Condvar {
            id: fresh_resource_id(),
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let mutex = guard.mutex;
        match current_ctx() {
            Some(ctx) => {
                drop(guard);
                wait_condvar(&ctx, self.id);
                mutex.lock()
            }
            None => {
                let std_guard = guard.inner.take().expect("guard holds the lock");
                let std_guard = self
                    .inner
                    .wait(std_guard)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                Ok(MutexGuard {
                    inner: Some(std_guard),
                    mutex,
                    model: None,
                })
            }
        }
    }

    pub fn notify_one(&self) {
        match current_ctx() {
            Some(ctx) => {
                yield_point();
                notify_condvar(&ctx, self.id, false);
            }
            None => self.inner.notify_one(),
        }
    }

    pub fn notify_all(&self) {
        match current_ctx() {
            Some(ctx) => {
                yield_point();
                notify_condvar(&ctx, self.id, true);
            }
            None => self.inner.notify_all(),
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}
