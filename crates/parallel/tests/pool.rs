//! The worker pool through the public surface: concurrent dispatchers,
//! deep nesting, and panics — in a task, in the dispatcher's own share —
//! that must reach the dispatcher with their payload, after every
//! helper has finished with what it borrowed.
//!
//! The tests take one lock each: with the pool to itself a test can
//! tell whether its task ran on a worker.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn pool_to_myself() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin until `flag` is set; gives up after two seconds (the flag's
/// setter may be a task that only runs after this returns, when nothing
/// was handed off).
fn wait_for(flag: &AtomicBool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !flag.load(Ordering::Acquire) {
        if Instant::now() > deadline {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

fn sum_by_spawns(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 512 {
        (lo..hi).sum()
    } else {
        let mid = lo + (hi - lo) / 2;
        let (mut a, mut b) = (0, 0);
        rayon::scope(|s| {
            s.spawn(|_| a = sum_by_spawns(lo, mid));
            s.spawn(|_| b = sum_by_spawns(mid, hi));
        });
        a + b
    }
}

#[test]
fn concurrent_external_dispatchers_all_complete() {
    let _pool = pool_to_myself();
    let sums: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                s.spawn(move || {
                    let n = 200_000 + 1_000 * t;
                    let by_spawns = sum_by_spawns(0, n);
                    let by_iter = AtomicU64::new(0);
                    (0..n as usize)
                        .into_par_iter()
                        .with_min_len(1024)
                        .for_each(|i| {
                            by_iter.fetch_add(i as u64, Ordering::Relaxed);
                        });
                    assert_eq!(by_spawns, by_iter.into_inner());
                    by_spawns
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, sum) in sums.into_iter().enumerate() {
        let n = 200_000 + 1_000 * t as u64;
        assert_eq!(sum, n * (n - 1) / 2);
    }
}

/// Twelve levels, cycling through `par_chunks_mut`, `scope` and
/// `into_par_iter`, two branches each: 4 096 leaves.
fn nest(depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let mut halves = [0u64; 2];
    match depth % 3 {
        0 => halves
            .par_chunks_mut(1)
            .enumerate()
            .for_each(|(_, half)| half[0] = nest(depth - 1)),
        1 => rayon::scope(|s| {
            for half in halves.iter_mut() {
                s.spawn(move |_| *half = nest(depth - 1));
            }
        }),
        _ => {
            let leaves = AtomicU64::new(0);
            (0..2).into_par_iter().for_each(|_| {
                leaves.fetch_add(nest(depth - 1), Ordering::Relaxed);
            });
            halves = [leaves.into_inner(), 0];
        }
    }
    halves[0] + halves[1]
}

#[test]
fn deep_mixed_nesting_terminates() {
    let _pool = pool_to_myself();
    assert_eq!(nest(12), 1 << 12);
}

/// What a helper borrows from the dispatcher's frame. Dropped when that
/// frame unwinds; notes whether the helper was still using it.
struct Borrowed<'a> {
    value: u64,
    helper_started: &'a AtomicBool,
    helper_done: &'a AtomicBool,
    dropped_under_the_helper: &'a AtomicBool,
}

impl Drop for Borrowed<'_> {
    fn drop(&mut self) {
        if self.helper_started.load(Ordering::Acquire) && !self.helper_done.load(Ordering::Acquire)
        {
            self.dropped_under_the_helper.store(true, Ordering::Release);
        }
    }
}

/// The helper's side of the panic tests: announce the start, hold on
/// until the dispatcher is about to panic (so the unwind really does
/// race the helper), then use the borrowed data once more.
fn helper_body(data: &Borrowed<'_>, dispatcher_panics: &AtomicBool) {
    data.helper_started.store(true, Ordering::Release);
    wait_for(dispatcher_panics);
    let until = Instant::now() + Duration::from_millis(5);
    let mut reads = 0u64;
    while Instant::now() < until {
        reads += std::hint::black_box(data.value);
    }
    assert!(reads > 0);
    data.helper_done.store(true, Ordering::Release);
}

/// Run `dispatch(data, about_to_panic)` — which panics with "owner" once
/// its helper has started — and check the payload and the drop order.
fn owner_panic_awaits_the_helper(dispatch: impl FnOnce(&Borrowed<'_>, &AtomicBool)) {
    let (started, done, early, about_to_panic) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    );
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let data = Borrowed {
            value: 7,
            helper_started: &started,
            helper_done: &done,
            dropped_under_the_helper: &early,
        };
        dispatch(&data, &about_to_panic);
    }))
    .expect_err("the dispatcher's panic must surface");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"owner"));
    assert!(
        !early.load(Ordering::Acquire),
        "the dispatcher unwound while its helper still borrowed its frame"
    );
    if started.load(Ordering::Acquire) {
        assert!(done.load(Ordering::Acquire), "the helper was abandoned");
    }
}

#[test]
fn panic_in_the_scope_body_awaits_spawned_tasks() {
    let _pool = pool_to_myself();
    owner_panic_awaits_the_helper(|data, about_to_panic| {
        rayon::scope(|s| {
            s.spawn(|_| helper_body(data, about_to_panic));
            // Inline (nothing handed off), the task has already run.
            wait_for(data.helper_started);
            about_to_panic.store(true, Ordering::Release);
            std::panic::panic_any("owner");
        });
    });
}

#[test]
fn panic_in_a_spawned_task_reaches_the_scope_owner_after_its_siblings() {
    let _pool = pool_to_myself();
    let siblings = AtomicU64::new(0);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        rayon::scope(|s| {
            for i in 0..8u64 {
                let siblings = &siblings;
                s.spawn(move |_| {
                    if i == 3 {
                        std::panic::panic_any(33u64);
                    }
                    siblings.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }));
    // Handed off, the panic is carried to the scope's end and all seven
    // siblings run; inline, it unwinds through `spawn` then and there.
    let payload = payload.expect_err("the task's panic must surface");
    assert_eq!(payload.downcast_ref::<u64>(), Some(&33));
    let ran = siblings.load(Ordering::Relaxed);
    assert!(ran == 7 || ran == 3, "{ran} siblings ran");
}

/// The thread a spawned task ran on, in a scope whose body does not
/// return before the task has started (so the job cannot be taken back).
fn thread_of_spawned_task() -> ThreadId {
    let started = AtomicBool::new(false);
    let mut id = None;
    rayon::scope(|s| {
        s.spawn(|_| {
            started.store(true, Ordering::Release);
            id = Some(std::thread::current().id());
        });
        wait_for(&started);
    });
    id.expect("the scope ran its task")
}

#[test]
fn the_pool_survives_a_task_panic() {
    let _pool = pool_to_myself();
    let me = std::thread::current().id();
    let parallel = rayon::current_num_threads() > 1;
    assert_eq!(thread_of_spawned_task() != me, parallel);
    for _ in 0..3 {
        let started = AtomicBool::new(false);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            rayon::scope(|s| {
                s.spawn(|_| {
                    started.store(true, Ordering::Release);
                    panic!("task");
                });
                wait_for(&started);
            })
        }));
        assert!(panicked.is_err());
        // The worker that caught it is back in the pool.
        assert_eq!(thread_of_spawned_task() != me, parallel);
    }
    let stats = rayon::pool_stats();
    assert!((stats.workers_started as usize) < rayon::current_num_threads().max(2));
}
