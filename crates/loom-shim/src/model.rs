//! The deterministic scheduler: one runnable thread at a time, a
//! scheduling decision at every shim yield point, DFS over decision
//! prefixes with a preemption bound.
//!
//! Threads are real OS threads coordinated by a token (`active`) under
//! one mutex+condvar, so product code runs unmodified; determinism
//! comes from the single-token discipline, not from fibers. A schedule
//! is the vector of choice indices taken at each decision point;
//! replaying the same vector replays the same execution bit for bit.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc as StdArc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};

/// Private panic payload used to unwind model threads out of their
/// wait loops when an execution is aborted (deadlock or divergence).
pub(crate) struct Abort;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Waiting for a model mutex (by resource id) to be released.
    BlockedOnMutex(usize),
    /// Waiting for another model thread (by tid) to finish.
    BlockedOnJoin(usize),
    /// Waiting on a model condvar (by resource id) for a notify.
    BlockedOnCondvar(usize),
    Finished,
}

pub(crate) struct ExecState {
    status: Vec<Status>,
    active: usize,
    /// model mutex resource id -> owning tid
    owners: HashMap<usize, usize>,
    /// Choice indices to take verbatim before free exploration.
    replay: Vec<usize>,
    /// Choice indices actually taken this execution.
    choices: Vec<usize>,
    /// Size of the choice set at each decision point (for DFS backtrack).
    counts: Vec<usize>,
    preemptions: u32,
    preemption_bound: Option<u32>,
    failure: Option<String>,
    aborted: bool,
    complete: bool,
}

/// One execution's shared scheduler state; every model thread holds an
/// `Arc` to it via TLS.
pub(crate) struct Execution {
    pub(crate) state: StdMutex<ExecState>,
    pub(crate) cv: Condvar,
}

#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: StdArc<Execution>,
    pub(crate) tid: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

pub(crate) fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

pub(crate) fn set_thread_ctx(ctx: Ctx) {
    set_ctx(Some(ctx));
}

pub(crate) fn clear_thread_ctx() {
    set_ctx(None);
}

/// Install (once, process-wide) a panic hook that swallows panics on
/// model threads: the model converts them to join results or
/// [`Failure`]s, so the default all-threads backtrace spew is noise.
/// Non-model panics are forwarded to the previously installed hook.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_model = CTX.with(|c| c.try_borrow().map(|b| b.is_some()).unwrap_or(false));
            if !in_model {
                prev(info);
            }
        }));
    });
}

fn lock_state(exec: &Execution) -> StdMutexGuard<'_, ExecState> {
    exec.state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Block until the token points at `me`. Panics with [`Abort`] if the
/// execution is aborted while waiting. Never called from a `Drop`.
fn wait_for_turn<'a>(
    exec: &'a Execution,
    mut st: StdMutexGuard<'a, ExecState>,
    me: usize,
) -> StdMutexGuard<'a, ExecState> {
    loop {
        if st.aborted {
            drop(st);
            std::panic::panic_any(Abort);
        }
        if st.active == me && st.status[me] == Status::Runnable {
            return st;
        }
        st = exec
            .cv
            .wait(st)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// Record one `n`-way decision — which thread runs next, or which
/// waiter a `notify_one` wakes — and return the branch taken: the
/// replayed index while the replay prefix lasts, branch 0 after it (the
/// DFS in [`Model::check`] bumps it on later executions). `None` aborts
/// the execution: the replayed index does not exist, so the program
/// under test is not deterministic given the schedule.
fn decide(exec: &Execution, st: &mut ExecState, n: usize) -> Option<usize> {
    let pos = st.choices.len();
    let idx = if pos < st.replay.len() {
        let i = st.replay[pos];
        if i >= n {
            st.failure = Some(format!(
                "schedule divergence at step {pos}: replay index {i} but only {n} choice(s) — \
                 the program under test is not deterministic given the schedule"
            ));
            st.aborted = true;
            exec.cv.notify_all();
            return None;
        }
        i
    } else {
        0
    };
    st.counts.push(n);
    st.choices.push(idx);
    Some(idx)
}

/// Record one scheduling decision and hand the token to the chosen
/// thread. `me_runnable` says whether the calling thread is itself a
/// candidate (false when it just blocked or finished).
fn schedule_next(exec: &Execution, st: &mut ExecState, me: usize, me_runnable: bool) {
    let enabled: Vec<usize> = (0..st.status.len())
        .filter(|&t| st.status[t] == Status::Runnable)
        .collect();
    if enabled.is_empty() {
        if st.status.iter().all(|&s| s == Status::Finished) {
            st.complete = true;
        } else {
            let stuck: Vec<String> = st
                .status
                .iter()
                .enumerate()
                .filter(|(_, s)| **s != Status::Finished)
                .map(|(t, s)| format!("thread {t} {s:?}"))
                .collect();
            st.failure = Some(format!("deadlock: {}", stuck.join(", ")));
            st.aborted = true;
        }
        exec.cv.notify_all();
        return;
    }
    // Preemption bound: once the budget is spent, a thread that could
    // keep running must keep running — only blocking yields a switch.
    let out_of_budget = st.preemption_bound.is_some_and(|b| st.preemptions >= b);
    let restricted: Vec<usize> = if me_runnable && out_of_budget {
        vec![me]
    } else {
        enabled
    };
    let Some(idx) = decide(exec, st, restricted.len()) else {
        return;
    };
    let chosen = restricted[idx];
    if me_runnable && chosen != me {
        st.preemptions += 1;
    }
    st.active = chosen;
    exec.cv.notify_all();
}

/// The universal preemption point: every shim operation calls this
/// before acting. Outside a model execution it is a no-op.
pub(crate) fn yield_point() {
    let Some(ctx) = current_ctx() else { return };
    let mut st = lock_state(&ctx.exec);
    if st.aborted {
        drop(st);
        std::panic::panic_any(Abort);
    }
    schedule_next(&ctx.exec, &mut st, ctx.tid, true);
    let _st = wait_for_turn(&ctx.exec, st, ctx.tid);
}

/// Register a newly spawned model thread; returns its tid. Caller
/// (the spawning thread) holds the token, so this is atomic.
pub(crate) fn register_thread(ctx: &Ctx) -> usize {
    let mut st = lock_state(&ctx.exec);
    let tid = st.status.len();
    st.status.push(Status::Runnable);
    tid
}

/// First wait of a freshly spawned model thread, before running its
/// closure.
pub(crate) fn wait_first_turn(exec: &Execution, me: usize) {
    let st = lock_state(exec);
    let _st = wait_for_turn(exec, st, me);
}

/// Mark `me` finished, wake its joiners, and hand the token onward.
/// Safe to call after a caught panic (runs in normal context).
pub(crate) fn finish_thread(exec: &Execution, me: usize) {
    let mut st = lock_state(exec);
    st.status[me] = Status::Finished;
    for t in 0..st.status.len() {
        if st.status[t] == Status::BlockedOnJoin(me) {
            st.status[t] = Status::Runnable;
        }
    }
    if st.aborted {
        exec.cv.notify_all();
        return;
    }
    schedule_next(exec, &mut st, me, false);
}

/// Model-acquire a mutex resource for the calling thread, blocking (in
/// model time) while another thread owns it. Must be preceded by a
/// [`yield_point`].
pub(crate) fn acquire_resource(ctx: &Ctx, id: usize) {
    loop {
        let mut st = lock_state(&ctx.exec);
        if st.aborted {
            drop(st);
            std::panic::panic_any(Abort);
        }
        if let std::collections::hash_map::Entry::Vacant(e) = st.owners.entry(id) {
            e.insert(ctx.tid);
            return;
        }
        st.status[ctx.tid] = Status::BlockedOnMutex(id);
        schedule_next(&ctx.exec, &mut st, ctx.tid, false);
        let _st = wait_for_turn(&ctx.exec, st, ctx.tid);
        // Woken: the lock was released; loop to race for it again.
    }
}

/// Model-release a mutex resource and wake its waiters. Called from
/// guard `Drop` — must never panic and never block, so it only
/// updates state (the next acquisition has its own yield point).
pub(crate) fn release_resource(exec: &Execution, id: usize) {
    let mut st = lock_state(exec);
    st.owners.remove(&id);
    for t in 0..st.status.len() {
        if st.status[t] == Status::BlockedOnMutex(id) {
            st.status[t] = Status::Runnable;
        }
    }
    // No notify: nothing can act on this until a scheduling point,
    // and the releasing thread still holds the token.
}

/// Model-wait on condvar `id`: block (in model time) until a notify
/// picks this thread. The caller has just released the mutex — no
/// scheduling point lies between that release and this registration,
/// so the pair is atomic, as `Condvar::wait` promises — and re-acquires
/// it afterwards. No spurious wake-ups are modeled.
pub(crate) fn wait_condvar(ctx: &Ctx, id: usize) {
    let mut st = lock_state(&ctx.exec);
    if st.aborted {
        drop(st);
        std::panic::panic_any(Abort);
    }
    st.status[ctx.tid] = Status::BlockedOnCondvar(id);
    schedule_next(&ctx.exec, &mut st, ctx.tid, false);
    let _st = wait_for_turn(&ctx.exec, st, ctx.tid);
}

/// Model-notify condvar `id`: make one waiter (`all == false`; which
/// one is a recorded decision, so every choice is explored) or every
/// waiter runnable. A notify with no waiter is lost, as with `std`.
/// Must be preceded by a [`yield_point`].
pub(crate) fn notify_condvar(ctx: &Ctx, id: usize, all: bool) {
    let mut st = lock_state(&ctx.exec);
    let waiters: Vec<usize> = (0..st.status.len())
        .filter(|&t| st.status[t] == Status::BlockedOnCondvar(id))
        .collect();
    if all {
        for t in waiters {
            st.status[t] = Status::Runnable;
        }
    } else if !waiters.is_empty() {
        let Some(idx) = decide(&ctx.exec, &mut st, waiters.len()) else {
            drop(st);
            std::panic::panic_any(Abort);
        };
        st.status[waiters[idx]] = Status::Runnable;
    }
}

/// Model-join: block (in model time) until `target` finishes.
pub(crate) fn join_thread(ctx: &Ctx, target: usize) {
    yield_point();
    loop {
        let mut st = lock_state(&ctx.exec);
        if st.aborted {
            drop(st);
            std::panic::panic_any(Abort);
        }
        if st.status[target] == Status::Finished {
            return;
        }
        st.status[ctx.tid] = Status::BlockedOnJoin(target);
        schedule_next(&ctx.exec, &mut st, ctx.tid, false);
        let _st = wait_for_turn(&ctx.exec, st, ctx.tid);
    }
}

/// A failing interleaving: the exact schedule that produced it (pass
/// to [`Model::replay`] to reproduce deterministically) and the panic
/// or deadlock message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    pub schedule: Vec<usize>,
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule {:?}: {}", self.schedule, self.message)
    }
}

/// Exploration statistics for a passing [`Model::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Number of distinct interleavings executed.
    pub executions: usize,
    /// False when `max_executions` cut exploration short.
    pub complete: bool,
}

/// Bounded-exhaustive model: configure and [`check`](Model::check).
#[derive(Debug, Clone, Copy)]
pub struct Model {
    /// Max context switches away from a still-runnable thread per
    /// execution (CHESS-style). `None` = unbounded (full DFS).
    pub preemption_bound: Option<u32>,
    /// Hard cap on explored interleavings.
    pub max_executions: usize,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            preemption_bound: Some(2),
            max_executions: 50_000,
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Model {
    pub fn new() -> Self {
        Model::default()
    }

    /// Run `f` under every interleaving (up to the bounds), starting
    /// each execution fresh. Returns the first failing schedule, or
    /// exploration stats if every interleaving passes.
    ///
    /// `f` runs as model thread 0 on the calling thread; threads it
    /// creates through [`crate::thread::spawn`] and every
    /// [`crate::sync`] primitive op become scheduling points. Panics
    /// in `f` (assertion failures) and deadlocks become [`Failure`]s;
    /// panics in *spawned* threads surface through `join`, exactly as
    /// with `std`. Put assertions in `f`, after joins.
    pub fn check<F: Fn()>(&self, f: F) -> Result<Stats, Failure> {
        install_quiet_hook();
        let mut prefix: Vec<usize> = Vec::new();
        let mut executions = 0usize;
        loop {
            executions += 1;
            let (choices, counts, failure) = self.run_once(prefix.clone(), &f);
            if let Some(message) = failure {
                return Err(Failure {
                    schedule: choices,
                    message,
                });
            }
            // DFS backtrack: bump the last decision that still has an
            // unexplored sibling, drop everything after it.
            let mut i = choices.len();
            let next = loop {
                if i == 0 {
                    break None;
                }
                i -= 1;
                if choices[i] + 1 < counts[i] {
                    let mut p = choices[..i].to_vec();
                    p.push(choices[i] + 1);
                    break Some(p);
                }
            };
            match next {
                None => {
                    return Ok(Stats {
                        executions,
                        complete: true,
                    })
                }
                Some(p) if executions >= self.max_executions => {
                    let _ = p;
                    return Ok(Stats {
                        executions,
                        complete: false,
                    });
                }
                Some(p) => prefix = p,
            }
        }
    }

    /// Re-run `f` under one exact schedule (as reported in a
    /// [`Failure`]). Returns `Ok(())` if it passes this time, or the
    /// reproduced failure.
    pub fn replay<F: Fn()>(&self, schedule: &[usize], f: F) -> Result<(), Failure> {
        install_quiet_hook();
        let (choices, _counts, failure) = self.run_once(schedule.to_vec(), &f);
        match failure {
            Some(message) => Err(Failure {
                schedule: choices,
                message,
            }),
            None => Ok(()),
        }
    }

    fn run_once<F: Fn()>(
        &self,
        replay: Vec<usize>,
        f: &F,
    ) -> (Vec<usize>, Vec<usize>, Option<String>) {
        let exec = StdArc::new(Execution {
            state: StdMutex::new(ExecState {
                status: vec![Status::Runnable],
                active: 0,
                owners: HashMap::new(),
                replay,
                choices: Vec::new(),
                counts: Vec::new(),
                preemptions: 0,
                preemption_bound: self.preemption_bound,
                failure: None,
                aborted: false,
                complete: false,
            }),
            cv: Condvar::new(),
        });
        set_ctx(Some(Ctx {
            exec: exec.clone(),
            tid: 0,
        }));
        let root = catch_unwind(AssertUnwindSafe(f));
        match root {
            Ok(()) => {
                // Root done; let detached threads run to completion.
                finish_thread(&exec, 0);
                let mut st = lock_state(&exec);
                while !st.complete && !st.aborted {
                    st = exec
                        .cv
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
            Err(payload) => {
                let mut st = lock_state(&exec);
                if !payload.is::<Abort>() && st.failure.is_none() {
                    st.failure = Some(panic_message(payload.as_ref()));
                }
                st.aborted = true;
                exec.cv.notify_all();
            }
        }
        set_ctx(None);
        let st = lock_state(&exec);
        (st.choices.clone(), st.counts.clone(), st.failure.clone())
    }
}
