//! A rayon-compatible parallelism shim on a persistent worker pool.
//!
//! This workspace builds in a fully offline environment, so the real
//! `rayon` crate cannot be fetched. The algorithms only need a narrow
//! slice of its API, reimplemented here with identical semantics:
//!
//! * [`scope`] — structured task spawning ([`Scope::spawn`]), the one
//!   fork;
//! * [`prelude`] — `into_par_iter()` over `Range<usize>`, and
//!   `par_chunks_mut()` over slices, both with `with_min_len`; chunks
//!   are visited through `enumerate().for_each`;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] and
//!   [`current_num_threads`].
//!
//! # Execution
//!
//! Tasks run on **persistent parked workers** (`worker.rs`): started
//! lazily, one at a time, the first time a task is handed off, never
//! more than `configured − 1` of them, and parked on a condition
//! variable between jobs. The configured count is the `IST_PARALLEL`
//! environment variable when it holds a positive integer and
//! `available_parallelism()` otherwise, **resolved once per process**
//! (`configured_threads`). `IST_PARALLEL=1` starts no worker, ever,
//! and runs every `scope` / par-iter strictly on the calling thread;
//! values above the core count oversubscribe with real OS threads,
//! which is how single-core hosts still exercise the concurrent code
//! paths.
//!
//! A task is handed off only while its dispatcher holds a reservation,
//! which honors two limits:
//!
//! 1. the **pool limit** — reservations never exceed started workers,
//!    which keeps deeply nested `scope` recursion (the shape of
//!    every construction algorithm here) from deadlocking or
//!    oversubscribing: without a reservation the task simply runs on
//!    the caller; and
//! 2. the **installed pool allowance** — inside
//!    [`ThreadPool::install`]`(p)` at most `p − 1` helpers are busy at
//!    once, the pool context is inherited by the workers that run its
//!    tasks, and `p = 1` runs strictly sequentially — so "speedup vs P"
//!    measurements mean what they say on multi-core hosts.
//!
//! The caller always runs a share of the work itself, takes back any
//! task of its own that no worker has claimed by the time it is done,
//! and blocks only on tasks that are running. A panic in a task is
//! caught on the worker, carried back and resumed on the dispatching
//! thread — after every other task of that dispatch has finished, also
//! when the dispatcher's own share is what panicked.
//!
//! # What a hand-off costs, and the floor rule
//!
//! Waking a parked worker and hearing back from it is not free (25 µs
//! at the 99th percentile; see [`MIN_TASK_NS`]). Every dispatch site
//! in the workspace — the batch engine, the shard fan-out, the merge,
//! and construction's subtree fan-outs, involution rounds, gathers,
//! region swaps and layout scatter — derives its serial threshold and
//! its task size from [`min_task_len`] — one rule, one constant — so a
//! batch too short to pay for the hand-off never leaves its thread.
//! [`pool_stats`] counts what was handed off and what was kept.
//!
//! Results are bit-identical whatever runs where; the algorithms only
//! rely on *disjointness* of their parallel tasks, never on scheduling
//! order.

use std::cell::RefCell;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

mod iter;
mod pool;
mod sync;
mod worker;

pub use iter::*;
pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};
pub use worker::Scope;

use sync::{AtomicUsize, Ordering};
use worker::Workers;

/// Everything needed for `use rayon::prelude::*` call sites.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelSliceMut};
}

/// The shortest task worth handing to a helper, in nanoseconds of the
/// task's own work — the one constant behind the floor rule
/// ([`min_task_len`]). It is **ten hand-offs**: a hand-off (the time a
/// task handed to a parked worker takes to start running there, plus
/// the time its completion takes to release the dispatcher) costs
/// 25 µs, and a task that long keeps dispatch below a tenth of the work
/// it moves.
///
/// The 25 µs are measured by `cargo run --release -p ist-parallel
/// --example handoff_cost`, 10 000 hand-offs per run. On an otherwise
/// idle 2-vCPU box, four runs, when the example timed a two-closure
/// fork: dispatch → running 1.6–1.9 µs at the median and 15–22 µs at
/// the 99th percentile; done → released 1.4–1.6 and 4.6–6.2 µs. Timing
/// one `scope` + `spawn` per round, on a shared 2-vCPU AVX-512 box, nine
/// runs: the sum read 2.6–12.2 µs at the median and 5.3–20.2 µs at the
/// 99th percentile (the fork, alternated with it: 2.5–11.0 and
/// 7.9–22.0). The **99th percentile** of the sum is what counts: a
/// floor has to hold when the worker's core is busy with something
/// else, and a serving process keeps every core busy. (The
/// `thread::scope` + `spawn` + `join` this pool replaced cost 19 µs at
/// the *median*, on top of a 14 µs `available_parallelism()` call per
/// dispatch.)
///
/// The floors it yields: 5 000 queries or shard operations, 25 000
/// elements of a construction's subtree fan-out or binary-reversal
/// involution round (2 660 of a `J` round), 125 000 element moves of a
/// gather, region swap or layout scatter, and the merge floor in
/// `ist-dynamic`.
///
/// What validates the product is end to end, not the two factors: with
/// the first two floors and the merge floor, ten parent/change pairs of
/// the benchmark of record each had a serve tick (≈ 550 keys per shard
/// per operation) stay on its thread — `serve_read_mostly` 2.55 ×,
/// `serve_ingest_heavy` 2.02 × — while the work above the floor still
/// split: `static_read` (65 536-key batches) 1.09 × and 0.56 × under
/// `IST_PARALLEL=1`, `construct` 1.40 × (CHANGES.md, PR 23).
/// `tests/dispatch_budget.rs` pins both sides, and both sides of each
/// construction primitive's floor.
pub const MIN_TASK_NS: u64 = 250_000;

/// **The floor rule.** The minimum number of items a task must hold to
/// pay for handing it to a helper, given what one item costs the call
/// site (`item_cost_ns`, a documented estimate at that site):
/// [`MIN_TASK_NS`] of work. Every dispatch site in the workspace that
/// sizes its own tasks derives its threshold from this one function: a
/// batch below `min_task_len(cost)` runs on the calling thread, and a
/// batch is split into at most `len / min_task_len(cost)` tasks.
pub const fn min_task_len(item_cost_ns: u64) -> usize {
    let cost = if item_cost_ns == 0 { 1 } else { item_cost_ns };
    MIN_TASK_NS.div_ceil(cost) as usize
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

/// Logical thread count the pool's limit is derived from: the
/// `IST_PARALLEL` environment variable when set to a positive integer,
/// `available_parallelism()` otherwise. `IST_PARALLEL=1` forces every
/// `scope`/par-iter in the process onto the calling thread (the
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

/// The process-wide pool: `configured − 1` workers at most, none of
/// them started until a task is first handed off.
pub(crate) fn global() -> &'static Workers {
    static GLOBAL: OnceLock<Workers> = OnceLock::new();
    GLOBAL.get_or_init(|| Workers::new(configured_threads() - 1))
}

/// The ambient thread-pool context: a logical thread count plus a shared
/// allowance of busy helpers for everything running under one
/// [`ThreadPool::install`]. Inherited by the workers that run its tasks.
#[derive(Clone)]
pub(crate) struct PoolCtx {
    pub(crate) threads: usize,
    /// `None` for a one-thread pool: it never reserves a helper, so it
    /// has no count to share, and installing it allocates nothing.
    pub(crate) allowance: Option<Arc<AtomicUsize>>,
}

impl PoolCtx {
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads,
            allowance: (threads > 1).then(|| Arc::new(AtomicUsize::new(threads - 1))),
        }
    }
}

thread_local! {
    /// Pool context installed by [`ThreadPool::install`] (None outside).
    static POOL_CTX: RefCell<Option<PoolCtx>> = const { RefCell::new(None) };
}

pub(crate) fn current_pool_ctx() -> Option<PoolCtx> {
    POOL_CTX.with(|c| c.borrow().clone())
}

/// Run `f` with `ctx` installed as this thread's pool context:
/// [`ThreadPool::install`] on the caller, and every worker around a
/// task, which is how a task inherits its spawner's pool. The previous
/// context is restored afterwards, also when `f` panics.
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

/// Dispatch counters since process start; see [`pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Persistent worker threads started so far.
    pub workers_started: u64,
    /// Tasks queued for a worker.
    pub handed_off: u64,
    /// Tasks a dispatch site offered to a worker but ran on the calling
    /// thread because none could be reserved.
    pub ran_inline: u64,
}

static HANDED_OFF: AtomicU64 = AtomicU64::new(0);
static RAN_INLINE: AtomicU64 = AtomicU64::new(0);

pub(crate) fn note_handed_off() {
    // Relaxed: a statistic; it publishes nothing.
    HANDED_OFF.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_ran_inline() {
    // Relaxed: a statistic; it publishes nothing.
    RAN_INLINE.fetch_add(1, Ordering::Relaxed);
}

/// How often this process's dispatch sites ([`Scope::spawn`], the
/// parallel iterators) handed a task to a worker, how often they kept
/// one for want of a worker, and how many workers that took. Always on:
/// three relaxed counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        workers_started: global().started() as u64,
        // Relaxed: statistics; they publish nothing.
        handed_off: HANDED_OFF.load(Ordering::Relaxed),
        // Relaxed: as above.
        ran_inline: RAN_INLINE.load(Ordering::Relaxed),
    }
}

/// Create a scope for structured task spawning. Mirrors `rayon::scope`;
/// a panic in the body or in a spawned task is resumed here once every
/// spawned task has finished (the body's if both did).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    global().scope(f)
}

/// Effective parallelism for splitting decisions on this thread.
pub(crate) fn effective_threads() -> usize {
    POOL_CTX
        .with(|c| c.borrow().as_ref().map(|ctx| ctx.threads))
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
        assert_eq!(min_task_len(1) as u64, MIN_TASK_NS);
        assert_eq!(min_task_len(0), min_task_len(1), "zero cost clamps");
        assert!(min_task_len(100) < min_task_len(10));
        assert!(min_task_len(u64::MAX) >= 1);
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
        // Inside install(1) no helper thread may ever run a task: a
        // scope's body and every spawn stay on the calling thread.
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            let main_id = std::thread::current().id();
            let mut b = None;
            let a = scope(|s| {
                s.spawn(|_| b = Some(std::thread::current().id()));
                std::thread::current().id()
            });
            assert_eq!(a, main_id);
            assert_eq!(b, Some(main_id));
            scope(|s| {
                for _ in 0..16 {
                    s.spawn(move |_| {
                        assert_eq!(std::thread::current().id(), main_id);
                    });
                }
            });
            // Nested scopes inherit the pool context through helpers too.
            let inner = scope(|s| {
                s.spawn(|_| ());
                let mut y = None;
                let x = scope(|s| {
                    s.spawn(|_| y = Some(std::thread::current().id()));
                    std::thread::current().id()
                });
                (x, y)
            });
            assert_eq!(inner.0, main_id);
            assert_eq!(inner.1, Some(main_id));
        });
    }
}
