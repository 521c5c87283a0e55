//! A rayon-compatible parallelism shim on scoped OS threads.
//!
//! This workspace builds in a fully offline environment, so the real
//! `rayon` crate cannot be fetched. The algorithms only need a narrow
//! slice of its API, reimplemented here with identical semantics:
//!
//! * [`join`] — run two closures, potentially concurrently;
//! * [`scope`] — structured task spawning ([`Scope::spawn`]);
//! * [`prelude`] — `into_par_iter()` over index ranges,
//!   `par_iter()` / `par_chunks_mut()` / `par_chunks_exact_mut()` over slices, with
//!   `with_min_len`, `for_each`, `enumerate`, `filter(..).count()`;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] and
//!   [`current_num_threads`].
//!
//! Concurrency is provided by `std::thread::scope` behind two limits:
//!
//! 1. a **global spawn budget** of `available_parallelism() − 1` live
//!    helper threads (overridable via the `IST_PARALLEL` environment
//!    variable: `IST_PARALLEL=1` forces strictly serial execution,
//!    larger values oversubscribe single-core hosts with real OS
//!    threads), which keeps deeply nested `join`/`scope` recursion —
//!    the shape of every construction algorithm here — from exploding
//!    the thread count; and
//! 2. the **installed pool allowance**: inside
//!    [`ThreadPool::install`]`(p)` at most `p − 1` helpers are live at
//!    once, the pool context is inherited by helper threads, and `p = 1`
//!    runs strictly sequentially — so "speedup vs P" measurements mean
//!    what they say on multi-core hosts.
//!
//! When no helper is available everything runs sequentially on the
//! caller (always, on a single-core host). Results are bit-identical
//! either way; the algorithms only rely on *disjointness* of their
//! parallel tasks, never on scheduling order.

use std::cell::RefCell;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

mod iter;
mod pool;

pub use iter::*;
pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

/// Everything needed for `use rayon::prelude::*` call sites.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

/// Global budget of helper threads that may be live at once.
static SPAWN_BUDGET: AtomicIsize = AtomicIsize::new(-1);

/// What one hand-off costs, in nanoseconds: the time from a dispatch
/// site deciding to give a task to a helper until that helper's
/// completion is visible to the dispatcher again, over and above the
/// task's own work. Measured on the 2-vCPU reference box as a
/// `std::thread::scope` + `spawn` + `join` of an empty closure: 19 µs
/// (median of 10 000).
pub const HANDOFF_COST_NS: u64 = 19_000;

/// A handed-off task must be worth at least this many hand-offs, so
/// dispatch overhead stays below a tenth of the task.
const HANDOFF_AMORTIZATION: u64 = 10;

/// **The floor rule.** The minimum number of items a task must hold to
/// pay for handing it to a helper, given what one item costs the call
/// site (`item_cost_ns`, a documented estimate at that site). Every
/// dispatch site in the workspace that sizes its own tasks derives its
/// threshold from this one function: a batch below
/// `min_task_len(cost)` runs on the calling thread, and a batch is
/// split into at most `len / min_task_len(cost)` tasks.
pub const fn min_task_len(item_cost_ns: u64) -> usize {
    let cost = if item_cost_ns == 0 { 1 } else { item_cost_ns };
    (HANDOFF_AMORTIZATION * HANDOFF_COST_NS).div_ceil(cost) as usize
}

/// The logical thread count named by `IST_PARALLEL`'s value (`var`,
/// `None` when unset) on a host with `hardware` threads: a positive
/// integer (surrounding whitespace ignored) is taken as is; anything
/// else — unset, empty, `0`, not a number — means the hardware count.
pub(crate) fn parse_threads(var: Option<&str>, hardware: usize) -> usize {
    match var.map(|v| v.trim().parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => n,
        _ => hardware.max(1),
    }
}

/// Logical thread count the global budget is derived from: the
/// `IST_PARALLEL` environment variable when set to a positive integer,
/// `available_parallelism()` otherwise. `IST_PARALLEL=1` forces every
/// `join`/`scope`/par-iter in the process onto the calling thread (the
/// degenerate-serial CI job); values above the core count oversubscribe
/// with real OS threads, which is how single-core hosts still exercise
/// the concurrent code paths.
///
/// Resolved **once per process**: this is the only place the crate
/// reads the environment or asks the OS for its parallelism (an
/// affinity-mask and cgroup-file read that costs ≈ 14 µs — as much as
/// creating a thread — and used to be paid on every dispatch).
pub(crate) fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        parse_threads(std::env::var("IST_PARALLEL").ok().as_deref(), hardware)
    })
}

/// The ambient thread-pool context: a logical thread count plus a shared
/// allowance of helper threads for everything running under one
/// [`ThreadPool::install`]. Inherited by helper threads.
#[derive(Clone)]
pub(crate) struct PoolCtx {
    pub(crate) threads: usize,
    allowance: Arc<AtomicIsize>,
}

impl PoolCtx {
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads,
            allowance: Arc::new(AtomicIsize::new(threads as isize - 1)),
        }
    }
}

thread_local! {
    /// Pool context installed by [`ThreadPool::install`] (None outside).
    pub(crate) static POOL_CTX: RefCell<Option<PoolCtx>> = const { RefCell::new(None) };
}

pub(crate) fn current_pool_ctx() -> Option<PoolCtx> {
    POOL_CTX.with(|c| c.borrow().clone())
}

/// Run `f` with `ctx` installed as this thread's pool context (used by
/// helper threads to inherit their spawner's pool).
pub(crate) fn with_pool_ctx<R>(ctx: Option<PoolCtx>, f: impl FnOnce() -> R) -> R {
    let prev = POOL_CTX.with(|c| c.replace(ctx));
    struct Restore(Option<PoolCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            POOL_CTX.with(|c| c.replace(prev));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// RAII token for one reserved helper thread; returns the reservation to
/// the global budget (and the pool allowance, if any) on drop.
pub(crate) struct ThreadToken {
    pool: Option<Arc<AtomicIsize>>,
}

impl Drop for ThreadToken {
    fn drop(&mut self) {
        // Relaxed: the budget counters are pure reservation counts —
        // no data is published through them, so no ordering is needed,
        // only atomicity of the increment.
        SPAWN_BUDGET.fetch_add(1, Ordering::Relaxed);
        if let Some(pool) = &self.pool {
            // Relaxed: same argument as the budget increment above.
            pool.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn try_decrement(counter: &AtomicIsize) -> bool {
    loop {
        // Relaxed: reservation counters guard nothing but themselves
        // (no data is published through them); the CAS only needs the
        // read-modify-write to be atomic.
        let cur = counter.load(Ordering::Relaxed);
        if cur <= 0 {
            return false;
        }
        if counter
            // Relaxed: only atomicity of the decrement is needed — see
            // the load above.
            .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return true;
        }
    }
}

/// Dispatch counters since process start; see [`pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Persistent worker threads started so far.
    pub workers_started: u64,
    /// Tasks given to a helper thread.
    pub handed_off: u64,
    /// Tasks a dispatch site offered to a helper but ran on the calling
    /// thread because none could be reserved.
    pub ran_inline: u64,
}

static HANDED_OFF: AtomicU64 = AtomicU64::new(0);
static RAN_INLINE: AtomicU64 = AtomicU64::new(0);

/// How often this process's dispatch sites (`join`, `Scope::spawn`, the
/// parallel iterators) handed a task to a helper and how often they
/// kept it. Always on: three relaxed counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        workers_started: 0,
        // Relaxed: statistics; they publish nothing.
        handed_off: HANDED_OFF.load(Ordering::Relaxed),
        // Relaxed: as above.
        ran_inline: RAN_INLINE.load(Ordering::Relaxed),
    }
}

/// Try to reserve one helper thread, honoring both the global budget and
/// the installed pool's allowance.
pub(crate) fn try_acquire_thread() -> Option<ThreadToken> {
    let token = try_reserve();
    // Relaxed: statistics; they publish nothing.
    let counter = if token.is_some() {
        &HANDED_OFF
    } else {
        &RAN_INLINE
    };
    // Relaxed: as above.
    counter.fetch_add(1, Ordering::Relaxed);
    token
}

fn try_reserve() -> Option<ThreadToken> {
    // Relaxed: initialize the global budget lazily on first use;
    // racing writers store the same value, so which store wins and in
    // what order it becomes visible is immaterial.
    if SPAWN_BUDGET.load(Ordering::Relaxed) == -1 {
        let budget = configured_threads().saturating_sub(1) as isize;
        // Relaxed: racing initializers compute identical values.
        let _ = SPAWN_BUDGET.compare_exchange(-1, budget, Ordering::Relaxed, Ordering::Relaxed);
    }
    let pool = match current_pool_ctx() {
        Some(ctx) => {
            if !try_decrement(&ctx.allowance) {
                return None;
            }
            Some(ctx.allowance)
        }
        None => None,
    };
    if try_decrement(&SPAWN_BUDGET) {
        Some(ThreadToken { pool })
    } else {
        if let Some(pool) = pool {
            // Relaxed: give the pool allowance back (no global budget
            // available); a bare counter increment publishes no data.
            pool.fetch_add(1, Ordering::Relaxed);
        }
        None
    }
}

/// Run `oper_a` and `oper_b`, potentially in parallel, and return both
/// results. Semantically identical to `rayon::join`.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if let Some(token) = try_acquire_thread() {
        let ctx = current_pool_ctx();
        std::thread::scope(|s| {
            let handle = s.spawn(move || {
                let _token = token;
                with_pool_ctx(ctx, oper_b)
            });
            let ra = oper_a();
            let rb = match handle.join() {
                Ok(rb) => rb,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            (ra, rb)
        })
    } else {
        (oper_a(), oper_b())
    }
}

/// A structured-concurrency scope; tasks spawned on it are joined before
/// [`scope`] returns. Mirrors `rayon::Scope`.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn `body` into the scope. Runs on a helper thread when the
    /// global budget and pool allowance permit, inline otherwise (rayon
    /// makes the same no-guarantee about which thread runs a spawned
    /// task).
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        if let Some(token) = try_acquire_thread() {
            let inner = self.inner;
            let ctx = current_pool_ctx();
            inner.spawn(move || {
                let _token = token;
                let scope = Scope { inner };
                with_pool_ctx(ctx, move || body(&scope));
            });
        } else {
            body(self);
        }
    }
}

/// Create a scope for structured task spawning. Mirrors `rayon::scope`;
/// panics from spawned tasks propagate when the scope closes.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    std::thread::scope(|s| {
        let wrapper = Scope { inner: s };
        f(&wrapper)
    })
}

/// Effective parallelism for splitting decisions on this thread.
pub(crate) fn effective_threads() -> usize {
    current_pool_ctx()
        .map(|ctx| ctx.threads)
        .unwrap_or_else(configured_threads)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_takes_positive_integers_and_nothing_else() {
        assert_eq!(parse_threads(None, 6), 6, "unset");
        assert_eq!(parse_threads(Some(""), 6), 6, "empty");
        assert_eq!(parse_threads(Some("0"), 6), 6, "zero");
        assert_eq!(parse_threads(Some("1"), 6), 1);
        assert_eq!(parse_threads(Some("4"), 6), 4);
        assert_eq!(parse_threads(Some(" 4 "), 6), 4, "whitespace");
        assert_eq!(parse_threads(Some("x"), 6), 6, "not a number");
        assert_eq!(parse_threads(None, 0), 1, "never zero");
    }

    #[test]
    fn min_task_len_scales_inversely_with_item_cost() {
        assert_eq!(
            min_task_len(1) as u64,
            HANDOFF_AMORTIZATION * HANDOFF_COST_NS
        );
        assert_eq!(min_task_len(0), min_task_len(1), "zero cost clamps");
        assert!(min_task_len(100) < min_task_len(10));
        assert!(min_task_len(u64::MAX) >= 1);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn nested_joins_do_not_deadlock() {
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo < 64 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
                a + b
            }
        }
        assert_eq!(sum(0, 10_000), 10_000 * 9_999 / 2);
    }

    #[test]
    fn scope_joins_all_tasks() {
        let mut data = vec![0u32; 8];
        let chunks: Vec<&mut [u32]> = data.chunks_mut(2).collect();
        scope(|s| {
            for (i, chunk) in chunks.into_iter().enumerate() {
                s.spawn(move |_| {
                    for c in chunk.iter_mut() {
                        *c = i as u32 + 1;
                    }
                });
            }
        });
        assert_eq!(data, vec![1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn installed_single_thread_pool_is_strictly_sequential() {
        // Inside install(1) no helper thread may ever run a task: both
        // join arms and every scope spawn stay on the calling thread.
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            let main_id = std::thread::current().id();
            let (a, b) = join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!(a, main_id);
            assert_eq!(b, main_id);
            scope(|s| {
                for _ in 0..16 {
                    s.spawn(move |_| {
                        assert_eq!(std::thread::current().id(), main_id);
                    });
                }
            });
            // Nested joins inherit the pool context through helpers too.
            let (inner, _) = join(
                || {
                    let (x, y) = join(
                        || std::thread::current().id(),
                        || std::thread::current().id(),
                    );
                    (x, y)
                },
                || (),
            );
            assert_eq!(inner.0, main_id);
            assert_eq!(inner.1, main_id);
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn join_propagates_panics() {
        join(|| (), || panic!("boom"));
    }
}
