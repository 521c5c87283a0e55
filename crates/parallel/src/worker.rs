//! The pool core: persistent parked workers, the reservation that
//! bounds them, and the type-erased jobs that carry borrowed closures
//! to them.
//!
//! # Protocol
//!
//! A dispatch site ([`Scope::spawn`], [`Workers::for_each_block`])
//! hands a task off in three steps:
//!
//! 1. **Reserve** a worker ([`Workers::reserve`]): one unit of the
//!    installed pool's allowance (if a [`crate::ThreadPool`] is
//!    installed), then one started-but-unreserved worker — or, while
//!    fewer than `limit` exist, a newly started one. No reservation, no
//!    hand-off: the task runs on the caller.
//! 2. **Queue** a [`JobRef`] and wake one parked worker
//!    ([`Workers::push`]).
//! 3. **Wait** ([`Workers::wait`]) — after running its own share, the
//!    owner first takes back every job of its own that no worker has
//!    claimed yet and runs it itself, and only then blocks on the
//!    [`Latch`] the remaining (running) jobs count down.
//!
//! A worker runs a job under the spawner's pool context, catches its
//! panic, returns the reservation, and counts the latch down with the
//! panic payload — in that order.
//!
//! # Why nested dispatch cannot deadlock
//!
//! Reservations never exceed started workers, a reservation is held
//! from before its job is queued until after it has run, and a worker
//! runs one job at a time. So the jobs queued or running on workers
//! never outnumber the workers: whenever a job sits in the queue, some
//! worker is between jobs and will take it. An owner therefore blocks
//! only on jobs that are running, their owners in turn only on running
//! jobs, and the waits form a tree whose leaves run.
//!
//! # Why borrowed closures may cross threads
//!
//! A [`JobRef`] is a raw pointer to a job that borrows from its owner's
//! stack frame (or, for [`Scope::spawn`], from `'scope`). The erasure is
//! sound because **the owner neither returns nor unwinds before the
//! latch has counted the job down**: the owner's own share runs under
//! `catch_unwind`, the wait comes before any `resume_unwind`, and the
//! latch count-down is the job's last access to anything the owner
//! owns.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};

use crate::sync::{spawn_worker, AtomicUsize, Condvar, JoinHandle, Mutex, MutexGuard, Ordering};
use crate::{current_pool_ctx, note_handed_off, note_ran_inline, with_pool_ctx, PoolCtx};

type Payload = Box<dyn Any + Send + 'static>;

/// Lock a pool mutex. No pool critical section runs code that can
/// panic (tasks run outside every lock), so a poisoned mutex still
/// guards consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Decrement `counter` unless it is zero.
fn try_decrement(counter: &AtomicUsize) -> bool {
    // Relaxed: reservation counters guard nothing but themselves — the
    // job a reservation leads to is published through the queue mutex.
    let mut cur = counter.load(Ordering::Relaxed);
    while cur > 0 {
        // Relaxed: only the atomicity of the decrement is needed.
        match counter.compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
    false
}

/// A count of handed-off tasks still to finish, with a slot for the
/// first panic among them. Owned by the dispatching frame.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    pending: usize,
    panic: Option<Payload>,
}

impl Latch {
    fn new() -> Self {
        Latch {
            state: Mutex::new(LatchState {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Count one more task in, before it is queued.
    fn add(&self) {
        lock(&self.state).pending += 1;
    }

    /// Count one task out, recording its panic (the first one wins).
    ///
    /// # Safety
    /// `this` must point to a live latch with a task counted in. The
    /// unlock that ends this call may release the owner, so the caller
    /// must not touch the latch, or anything else the owner owns,
    /// afterwards.
    unsafe fn set(this: *const Latch, panic: Option<Payload>) {
        // SAFETY: live per the contract; the owner cannot observe the
        // count-down, let alone free the latch, before the guard drops.
        let latch = unsafe { &*this };
        let mut state = lock(&latch.state);
        state.pending -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.pending == 0 {
            // Under the lock: once it is released the latch may be gone.
            latch.done.notify_one();
        }
    }

    /// Block until every counted-in task is out; the first panic, if
    /// any.
    fn wait(&self) -> Option<Payload> {
        let mut state = lock(&self.state);
        while state.pending > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.panic.take()
    }
}

/// A type-erased pointer to a job some frame owns, and to the latch
/// that job counts down (which is also how an owner recognises its own
/// jobs in the queue).
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    // SAFETY: called only by `execute`, with `data`.
    run: unsafe fn(*const ()),
    latch: *const Latch,
}

// SAFETY: a `JobRef` is only built by the two dispatch sites below,
// each from a job whose captured state is `Send` (the closures carry
// `Send` bounds; shared ones are `Sync`) and which stays alive until
// its latch is counted down — see "Why borrowed closures may cross
// threads" in the module docs.
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// The job must be live and, if it is a run-once job, not yet run.
    unsafe fn execute(self) {
        // SAFETY: `run` is the function built for `data`'s type.
        unsafe { (self.run)(self.data) }
    }
}

/// Run `task` the way every handed-off job runs: under the spawner's
/// pool context, its panic caught, the reservation returned afterwards.
/// What is left for the caller is to count the latch down with the
/// returned payload.
fn run_task(workers: &Workers, ctx: &Option<PoolCtx>, task: impl FnOnce()) -> Option<Payload> {
    let panic = catch_unwind(AssertUnwindSafe(|| with_pool_ctx(ctx.clone(), task))).err();
    workers.release(ctx);
    panic
}

struct Shared {
    /// Most workers this pool will ever start.
    limit: usize,
    /// Started workers no task has reserved.
    free: AtomicUsize,
    /// Workers started so far (`state.handles.len()`, readable without
    /// the lock).
    started: AtomicUsize,
    state: Mutex<State>,
    /// Parked workers wait here for `state.queue` or `state.shutdown`.
    work: Condvar,
}

struct State {
    queue: VecDeque<JobRef>,
    shutdown: bool,
    handles: Vec<JoinHandle<()>>,
}

/// A pool of at most `limit` persistent workers, started on first need
/// and parked between jobs; shut down and joined on drop. The
/// process-wide pool ([`crate::global`]) is one of these that is never
/// dropped.
pub(crate) struct Workers {
    shared: Arc<Shared>,
}

impl Workers {
    pub(crate) fn new(limit: usize) -> Self {
        Workers {
            shared: Arc::new(Shared {
                limit,
                free: AtomicUsize::new(0),
                started: AtomicUsize::new(0),
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    shutdown: false,
                    handles: Vec::new(),
                }),
                work: Condvar::new(),
            }),
        }
    }

    /// Workers started so far.
    pub(crate) fn started(&self) -> usize {
        // Relaxed: a statistic.
        self.shared.started.load(Ordering::Relaxed)
    }

    /// Reserve a worker for one task of the calling thread: `Some` of
    /// the pool context the task inherits, or `None` — counted as a task
    /// kept — when the task has to run right here.
    fn reserve(&self) -> Option<Option<PoolCtx>> {
        if self.shared.limit > 0 {
            let ctx = current_pool_ctx();
            if self.try_reserve(&ctx) {
                return Some(ctx);
            }
        }
        note_ran_inline();
        None
    }

    /// Reserve a worker for one task spawned under `ctx`, honoring the
    /// installed pool's allowance and this pool's limit.
    fn try_reserve(&self, ctx: &Option<PoolCtx>) -> bool {
        if let Some(ctx) = ctx {
            match &ctx.allowance {
                Some(allowance) if try_decrement(allowance) => {}
                _ => return false,
            }
        }
        if try_decrement(&self.shared.free) || self.start_worker() {
            return true;
        }
        if let Some(allowance) = ctx.as_ref().and_then(|ctx| ctx.allowance.as_ref()) {
            // Relaxed: a reservation count; see `try_decrement`.
            allowance.fetch_add(1, Ordering::Relaxed);
        }
        false
    }

    /// Return a reservation made under `ctx`.
    fn release(&self, ctx: &Option<PoolCtx>) {
        // Relaxed: reservation counts; see `try_decrement`.
        self.shared.free.fetch_add(1, Ordering::Relaxed);
        if let Some(allowance) = ctx.as_ref().and_then(|ctx| ctx.allowance.as_ref()) {
            // Relaxed: as above.
            allowance.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Start one more worker, already reserved for the caller, unless
    /// the pool is at its limit or the OS refuses the thread.
    fn start_worker(&self) -> bool {
        // Relaxed: a hint that saves the lock; re-checked under it.
        if self.shared.started.load(Ordering::Relaxed) >= self.shared.limit {
            return false;
        }
        let mut state = lock(&self.shared.state);
        if state.handles.len() >= self.shared.limit || state.shutdown {
            return false;
        }
        let shared = Arc::clone(&self.shared);
        let name = format!("ist-parallel-{}", state.handles.len());
        match spawn_worker(name, move || worker_loop(&shared)) {
            Ok(handle) => {
                state.handles.push(handle);
                let started = &self.shared.started;
                // Relaxed: a statistic and a hint; see above.
                started.store(state.handles.len(), Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Queue `job` for the worker reserved for it and wake one.
    ///
    /// # Safety
    /// The caller holds a reservation, has counted the job into its
    /// latch, and keeps the job alive until that latch is counted down.
    unsafe fn push(&self, job: JobRef) {
        note_handed_off();
        lock(&self.shared.state).queue.push_back(job);
        self.shared.work.notify_one();
    }

    /// Take back a queued job that counts down `latch`, if no worker
    /// has claimed it yet.
    fn reclaim(&self, latch: *const Latch) -> Option<JobRef> {
        let mut state = lock(&self.shared.state);
        let at = state.queue.iter().position(|job| job.latch == latch)?;
        state.queue.remove(at)
    }

    /// Wait for every job counted into `latch`: run the ones still
    /// queued right here, then block on the ones that are running.
    fn wait(&self, latch: &Latch) -> Option<Payload> {
        while let Some(job) = self.reclaim(latch) {
            // SAFETY: the job was queued by this frame, is still live
            // (this is its owner), and leaving the queue under the lock
            // makes this its only execution.
            unsafe { job.execute() };
        }
        latch.wait()
    }

    /// [`crate::scope`] on this pool.
    pub(crate) fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            workers: self,
            latch: Latch::new(),
            scope: PhantomData,
            env: PhantomData,
        };
        // The frame that owns `scope` (and everything `'env` outlives)
        // does not return or unwind before every spawned task is
        // counted down: the body runs under `catch_unwind`, and its
        // panic is resumed only after the wait. That is what
        // `Scope::spawn` relies on.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        let panic = self.wait(&scope.latch);
        match (result, panic) {
            (Err(panic), _) | (Ok(_), Some(panic)) => resume_unwind(panic),
            (Ok(result), None) => result,
        }
    }

    /// Run `body` over `[0, n)` in blocks of `block` indices that this
    /// thread and up to `tasks − 1` helpers claim from one cursor; with
    /// no helper to be had, as `body(0..n)` whole.
    pub(crate) fn for_each_block<F>(&self, n: usize, block: usize, tasks: usize, body: &F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let Some(ctx) = self.reserve() else {
            body(0..n);
            return;
        };
        let job = BlockJob {
            workers: self,
            ctx,
            latch: Latch::new(),
            cursor: AtomicUsize::new(0),
            n,
            block,
            body,
        };
        for helper in 1..tasks {
            if helper > 1 && !self.try_reserve(&job.ctx) {
                break;
            }
            job.latch.add();
            // SAFETY: reserved and counted in above. `job` lives in
            // this frame, which does not return or unwind before `wait`
            // has seen every queued copy counted down: this thread's
            // share runs under `catch_unwind`, and its panic is resumed
            // only after the wait. The job is shared, not run-once:
            // every copy claims blocks from the same cursor.
            unsafe { self.push(job.as_job_ref()) };
        }
        let mine = catch_unwind(AssertUnwindSafe(|| job.claim_blocks()));
        let panic = self.wait(&job.latch);
        if let Some(panic) = mine.err().or(panic) {
            resume_unwind(panic);
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        let handles = {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            std::mem::take(&mut state.handles)
        };
        self.shared.work.notify_all();
        for handle in handles {
            // A worker only panics if a pool invariant broke; there is
            // nothing to do about it while dropping.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = lock(&shared.state);
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            // SAFETY: a queued job is live until its latch is counted
            // down, which only running it does; popping it under the
            // lock makes this its only execution.
            unsafe { job.execute() };
            state = lock(&shared.state);
        } else if state.shutdown {
            return;
        } else {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A structured-concurrency scope; tasks spawned on it are joined before
/// [`crate::scope`] returns. Mirrors `rayon::Scope`.
pub struct Scope<'scope, 'env: 'scope> {
    workers: &'scope Workers,
    latch: Latch,
    /// Invariance over both lifetimes, as in `std::thread::Scope`:
    /// without it `'scope` could shrink and let a task borrow what the
    /// scope body owns.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn `body` into the scope. Runs on a pool worker when one can
    /// be reserved (the global limit and the installed pool's allowance
    /// permitting), inline otherwise (rayon makes the same no-guarantee
    /// about which thread runs a spawned task).
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let Some(ctx) = self.workers.reserve() else {
            body(self);
            return;
        };
        self.latch.add();
        let job = Box::into_raw(Box::new(SpawnJob {
            scope: self,
            ctx,
            body,
        }));
        // SAFETY: reserved and counted in above. The job owns itself
        // (`run` frees it); what it borrows — this scope, and whatever
        // `body` captured, all of which outlives `'scope` — stays alive
        // until the scope's latch is counted down, because
        // `Workers::scope` waits on that latch before it returns or
        // unwinds, and the thread calling this is either that frame or
        // a task the latch still counts.
        unsafe {
            self.workers.push(JobRef {
                data: job.cast_const().cast(),
                run: SpawnJob::<F>::run,
                latch: &self.latch,
            });
        }
    }
}

/// A [`Scope::spawn`] body, boxed.
struct SpawnJob<'scope, 'env, F> {
    scope: *const Scope<'scope, 'env>,
    ctx: Option<PoolCtx>,
    body: F,
}

impl<'scope, 'env, F> SpawnJob<'scope, 'env, F>
where
    F: FnOnce(&Scope<'scope, 'env>),
{
    /// # Safety
    /// `data` came from `Box::into_raw` of a `SpawnJob` of this type,
    /// has not run, and its scope is live.
    unsafe fn run(data: *const ()) {
        // SAFETY: per the contract; this is the only execution, so the
        // box is reclaimed exactly once.
        let job = unsafe { Box::from_raw(data.cast_mut().cast::<Self>()) };
        let SpawnJob { scope, ctx, body } = *job;
        let panic = {
            // SAFETY: live per the contract; the borrow ends before the
            // latch is counted down.
            let scope = unsafe { &*scope };
            run_task(scope.workers, &ctx, || body(scope))
        };
        // SAFETY: the job was counted in, and nothing of the scope's is
        // touched after this.
        unsafe { Latch::set(&raw const (*scope).latch, panic) };
    }
}

/// The shared job of a [`Workers::for_each_block`], on the dispatching
/// frame: every queued copy, and the owner, claim blocks of the same
/// index space.
struct BlockJob<'a, F> {
    workers: &'a Workers,
    ctx: Option<PoolCtx>,
    latch: Latch,
    cursor: AtomicUsize,
    n: usize,
    block: usize,
    body: &'a F,
}

impl<F: Fn(Range<usize>) + Sync> BlockJob<'_, F> {
    fn claim_blocks(&self) {
        loop {
            // Relaxed: the cursor only deals out disjoint index ranges;
            // what the blocks write is published by the latch.
            let start = self.cursor.fetch_add(self.block, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            (self.body)(start..(start + self.block).min(self.n));
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: (self as *const Self).cast(),
            run: Self::run,
            latch: &self.latch,
        }
    }

    /// # Safety
    /// `data` is a live `BlockJob` of this type.
    unsafe fn run(data: *const ()) {
        let this: *const Self = data.cast();
        let panic = {
            // SAFETY: live per the contract; the borrow ends before the
            // latch is counted down.
            let this = unsafe { &*this };
            run_task(this.workers, &this.ctx, || this.claim_blocks())
        };
        // SAFETY: this copy was counted in, and nothing of the owner's
        // is touched after this.
        unsafe { Latch::set(&raw const (*this).latch, panic) };
    }
}

/// The pool's hand-off, wake-up and completion protocol under every
/// bounded interleaving (`ist-loom`):
///
/// ```sh
/// RUSTFLAGS="--cfg ist_loom" cargo test -p ist-parallel --lib model
/// ```
///
/// Each model builds its own small pool (dropped, and so shut down and
/// joined, inside the execution — the scheduler must see every thread
/// finish), runs one dispatch pattern on it, and states the preemption
/// bound under which its schedule space is explored **to completion**.
/// The jobs' frames all live on the model's root thread.
#[cfg(all(test, ist_loom))]
mod model {
    use super::*;
    use ist_loom::Model;
    use std::sync::atomic::{AtomicBool as StdAtomicBool, Ordering as StdOrdering};

    /// Run `program` on a fresh pool of at most `limit` workers, then
    /// shut it down. If `program` fails the pool is leaked instead:
    /// dropping it would go through the (by then aborted) scheduler
    /// while unwinding.
    fn with_pool(limit: usize, program: impl FnOnce(&Workers)) {
        let pool = std::mem::ManuallyDrop::new(Workers::new(limit));
        program(&pool);
        drop(std::mem::ManuallyDrop::into_inner(pool));
    }

    /// Explore `program` under every schedule with at most
    /// `preemption_bound` preemptive context switches (CHESS-style;
    /// switches at a blocking step are free), to completion. Two covers
    /// every pairwise race of the protocol's steps — one switch away
    /// from a thread mid-step and one back; three lets a third party in
    /// between. Each model states the bound it affords.
    fn explore(preemption_bound: u32, program: impl Fn()) -> ist_loom::Stats {
        let model = Model {
            preemption_bound: Some(preemption_bound),
            max_executions: 2_000_000,
        };
        let stats = model
            .check(program)
            .unwrap_or_else(|failure| panic!("{failure}"));
        assert!(
            stats.complete,
            "explored only {} schedules",
            stats.executions
        );
        eprintln!(
            "explored {} schedules to completion (preemption bound {preemption_bound})",
            stats.executions
        );
        stats
    }

    /// `(a(), b())` as one scope on `pool`: `b` is spawned, then the
    /// body runs `a` — a two-way fork, the shape every dispatch site
    /// that splits work in two takes.
    fn fork<RA, RB: Send>(
        pool: &Workers,
        a: impl FnOnce() -> RA,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB) {
        let mut rb = None;
        let ra = pool.scope(|s| {
            s.spawn(|_| rb = Some(b()));
            a()
        });
        (
            ra,
            rb.expect("a scope returns after its spawned task has run"),
        )
    }

    /// A queued job is taken by a worker even if its owner never comes
    /// back for it: the push happens between a parked worker's
    /// empty-queue check and its wait in some schedule, and the wake-up
    /// must not be lost. The body blocks until the task has started, so
    /// the owner cannot rescue a stranded job by taking it back; a lost
    /// wake-up is a deadlock. Preemption bound 3.
    #[test]
    fn a_job_pushed_while_a_worker_parks_is_never_stranded() {
        let stats = explore(3, || {
            with_pool(1, |pool| {
                // Start the worker and let it go back to the queue.
                assert_eq!(fork(pool, || 1, || 2), (1, 2));
                let started = (Mutex::new(false), Condvar::new());
                let (a, b) = fork(
                    pool,
                    || {
                        let mut flag = lock(&started.0);
                        while !*flag {
                            flag = started.1.wait(flag).unwrap();
                        }
                        3
                    },
                    || {
                        *lock(&started.0) = true;
                        started.1.notify_one();
                        4
                    },
                );
                assert_eq!((a, b), (3, 4));
                assert_eq!(pool.started(), 1);
            })
        });
        assert!(stats.executions > 100, "{stats:?}");
    }

    /// `scope` and `for_each_block` return only after every task they
    /// handed off has run to its end — whoever ran it. Two workers under
    /// a fork and a two-task scope at preemption bound 2 (bound 3 is
    /// 166 336 schedules and a minute and a half); one worker under
    /// `for_each_block` at bound 3.
    #[test]
    fn dispatch_returns_only_after_every_handed_off_task_ran() {
        explore(2, || {
            with_pool(2, |pool| {
                let done: [StdAtomicBool; 4] = std::array::from_fn(|_| StdAtomicBool::new(false));
                // A scheduling point inside every task: whoever waits for
                // it gets every chance to return before it has finished.
                let finish = |i: usize| {
                    ist_loom::thread::yield_now();
                    done[i].store(true, StdOrdering::SeqCst);
                };
                fork(pool, || finish(0), || finish(1));
                assert!(done[0].load(StdOrdering::SeqCst) && done[1].load(StdOrdering::SeqCst));
                pool.scope(|s| {
                    s.spawn(|_| finish(2));
                    s.spawn(|_| finish(3));
                });
                assert!(done.iter().all(|flag| flag.load(StdOrdering::SeqCst)));
            })
        });
        explore(3, || {
            with_pool(1, |pool| {
                let visits: [StdAtomicBool; 4] = std::array::from_fn(|_| StdAtomicBool::new(false));
                pool.for_each_block(4, 1, 2, &|range: Range<usize>| {
                    for i in range {
                        ist_loom::thread::yield_now();
                        assert!(
                            !visits[i].swap(true, StdOrdering::SeqCst),
                            "{i} visited twice"
                        );
                    }
                });
                assert!(visits.iter().all(|flag| flag.load(StdOrdering::SeqCst)));
            })
        });
    }

    /// A panic inside a handed-off task reaches the owner, payload
    /// intact, in every interleaving — from a fork's spawned task and
    /// from a scope's only task.
    /// Preemption bound 3.
    #[test]
    fn a_task_panic_reaches_the_owner() {
        explore(3, || {
            with_pool(1, |pool| {
                let forked = catch_unwind(AssertUnwindSafe(|| {
                    fork(pool, || (), || std::panic::panic_any(41u32));
                }));
                assert_eq!(forked.unwrap_err().downcast_ref::<u32>(), Some(&41));
                let scoped = catch_unwind(AssertUnwindSafe(|| {
                    pool.scope(|s| s.spawn(|_| std::panic::panic_any(42u32)));
                }));
                assert_eq!(scoped.unwrap_err().downcast_ref::<u32>(), Some(&42));
                // The worker that caught them is still serving.
                assert_eq!(fork(pool, || 1, || 2), (1, 2));
            })
        });
    }

    /// When the owner's own share panics, the panic is resumed only
    /// after its handed-off task has run to the end — on a worker, or
    /// taken back and run by the owner itself. (On a fresh pool with a
    /// worker to spare every task here is handed off.) Preemption bound
    /// 3.
    #[test]
    fn an_owner_panic_still_awaits_its_helpers() {
        explore(3, || {
            with_pool(1, |pool| {
                let done = StdAtomicBool::new(false);
                let helper = || {
                    // A scheduling point inside the task: the owner's
                    // unwind gets every chance to overtake it.
                    ist_loom::thread::yield_now();
                    done.store(true, StdOrdering::SeqCst);
                };

                let forked = catch_unwind(AssertUnwindSafe(|| {
                    fork(pool, || std::panic::panic_any("owner"), helper);
                }));
                assert!(
                    done.swap(false, StdOrdering::SeqCst),
                    "the fork unwound before its handed-off task had run"
                );
                assert_eq!(forked.unwrap_err().downcast_ref::<&str>(), Some(&"owner"));

                let scoped = catch_unwind(AssertUnwindSafe(|| {
                    pool.scope(|s| {
                        s.spawn(|_| helper());
                        std::panic::panic_any("owner");
                    });
                }));
                assert!(
                    done.load(StdOrdering::SeqCst),
                    "scope unwound before its handed-off task had run"
                );
                assert_eq!(scoped.unwrap_err().downcast_ref::<&str>(), Some(&"owner"));
            })
        });
    }
}
