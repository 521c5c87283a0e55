//! Thread-pool facade matching the `rayon::ThreadPoolBuilder` API.
//!
//! A [`ThreadPool`] owns no threads: the process has one set of
//! persistent workers (`worker.rs`), and `install` publishes a pool
//! context (logical thread count + shared helper allowance) that
//! [`current_num_threads`], the iterator splitting, and every
//! `join`/`scope` hand-off decision honor — the workers that run its
//! tasks inherit it, so work running under `install(p)` keeps at most
//! `p − 1` helpers busy and `install(1)` is strictly sequential. That
//! is what the workspace uses pools for (pinning `P` in benchmarks).

use crate::PoolCtx;

/// Builder for a [`ThreadPool`]. Mirrors `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type for [`ThreadPoolBuilder::build`] (infallible here, but the
/// signature matches rayon's).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Fresh builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a pool of exactly `n` threads.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        // The default is the once-resolved configured count, so a
        // default pool under `IST_PARALLEL=1` reports one thread and
        // nothing splits work for helpers the budget can never grant.
        let n = self.num_threads.unwrap_or_else(crate::configured_threads);
        Ok(ThreadPool {
            num_threads: n.max(1),
        })
    }
}

/// A logical thread pool: a thread-count context for closures run under
/// [`ThreadPool::install`].
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count as the ambient
    /// parallelism: splitting targets `num_threads` pieces and at most
    /// `num_threads − 1` helpers are busy at once (helpers inherit the
    /// context).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        // A fresh context per install call; a one-thread context has no
        // allowance, so `install(1)` allocates nothing.
        crate::with_pool_ctx(Some(PoolCtx::new(self.num_threads)), op)
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// The ambient thread count: the installed pool's size inside
/// [`ThreadPool::install`], the configured count (`IST_PARALLEL`, else
/// the hardware parallelism, resolved once per process) otherwise.
pub fn current_num_threads() -> usize {
    crate::effective_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 7);
        // Restored afterwards.
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn default_pool_has_the_configured_count() {
        // Not the hardware count: under `IST_PARALLEL=1` that would cut
        // work into pieces for helpers the budget never grants.
        let pool = ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(pool.current_num_threads(), crate::configured_threads());
        assert_eq!(pool.install(current_num_threads), current_num_threads());
    }

    #[test]
    fn nested_installs_restore() {
        let a = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let b = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        a.install(|| {
            assert_eq!(current_num_threads(), 2);
            b.install(|| assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 2);
        });
    }

    #[test]
    fn helpers_inherit_the_installed_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool.install(|| {
            let (a, b) = crate::join(current_num_threads, current_num_threads);
            assert_eq!(a, 3);
            assert_eq!(b, 3);
        });
    }
}
