//! # ist-loom — deterministic-interleaving model checker
//!
//! A loom-style checker rebuilt in-tree (offline, no registry), in the
//! same shim spirit as `ist-parallel`/`ist-rand`: [`sync`] and
//! [`thread`] provide drop-in stand-ins for the `std` primitives the
//! `DynamicMap` compaction path and the worker pool use, and [`Model`]
//! runs a closure under **every** thread interleaving
//! (bounded-exhaustive DFS over scheduling decisions, with a
//! CHESS-style preemption bound).
//!
//! ## Quickstart
//!
//! ```
//! use ist_loom::{sync::{Arc, AtomicUsize, Ordering}, thread, Model};
//!
//! let stats = Model::new()
//!     .check(|| {
//!         let c = Arc::new(AtomicUsize::new(0));
//!         let c2 = Arc::clone(&c);
//!         let t = thread::spawn(move || {
//!             c2.fetch_add(1, Ordering::Relaxed);
//!         });
//!         c.fetch_add(1, Ordering::Relaxed);
//!         t.join().unwrap();
//!         assert_eq!(c.load(Ordering::Relaxed), 2);
//!     })
//!     .expect("no interleaving violates the invariant");
//! assert!(stats.complete);
//! ```
//!
//! A failing check returns a [`Failure`] carrying the exact
//! [`Failure::schedule`] (vector of scheduler choices); feed it to
//! [`Model::replay`] to reproduce that interleaving deterministically.
//! The same program and model always explore schedules in the same
//! order, so the *first* failure found is stable too.
//!
//! ## How production code opts in
//!
//! Code under test routes its primitives through a `sync` module that
//! resolves to `std` normally and to these shims under
//! `--cfg ist_loom` (see `ist_dynamic::sync`). The model-check test
//! suite is then compiled and run with
//! `RUSTFLAGS="--cfg ist_loom" cargo test -p ist-dynamic --test model_check`.
//!
//! ## Model semantics (deliberate simplifications)
//!
//! - One thread runs at a time; every shim op is a preemption point.
//! - Atomics execute sequentially consistent regardless of the
//!   ordering argument: invariants are checked against the strongest
//!   memory model. Relaxed-ordering *weakness* is out of scope; what
//!   is in scope is every interleaving of the operations themselves.
//! - `Condvar::wait` releases its mutex and blocks as one step and
//!   re-acquires it after a notify; which waiter `notify_one` wakes is
//!   an explored decision; a notify nobody waits for is lost. Spurious
//!   wake-ups are not modeled (waiters loop on their predicate anyway).
//! - Mutex poisoning is not modeled (`lock` never errors); panics in
//!   spawned threads still surface through `join`, and a panic in the
//!   root closure — or a deadlock — becomes a [`Failure`].
//! - `Arc`/`MutexGuard` drops are visible to other threads at the next
//!   preemption point rather than being preemption points themselves
//!   (drops must never block or panic during unwinding).

#![forbid(unsafe_code)]

pub mod model;
pub mod sync;
pub mod thread;

pub use model::{Failure, Model, Stats};

#[cfg(test)]
mod tests {
    use super::sync::{Arc, AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};
    use super::{thread, Model};

    /// The classic lost update: load + store is not atomic.
    fn racy_counter() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                let v = c.load(Ordering::SeqCst);
                c.store(v + 1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
    }

    #[test]
    fn finds_lost_update() {
        let failure = Model::new().check(racy_counter).unwrap_err();
        assert!(failure.message.contains("lost update"), "{failure}");
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn failing_schedule_is_deterministic_and_replayable() {
        let first = Model::new().check(racy_counter).unwrap_err();
        let second = Model::new().check(racy_counter).unwrap_err();
        assert_eq!(first, second, "exploration order must be stable");
        let replayed = Model::new()
            .replay(&first.schedule, racy_counter)
            .unwrap_err();
        assert_eq!(replayed.message, first.message);
    }

    #[test]
    fn mutex_protected_counter_is_exhaustively_clean() {
        let stats = Model::new()
            .check(|| {
                let c = Arc::new(Mutex::new(0u32));
                let mut handles = Vec::new();
                for _ in 0..2 {
                    let c = Arc::clone(&c);
                    handles.push(thread::spawn(move || {
                        let mut g = c.lock().unwrap();
                        *g += 1;
                    }));
                }
                for h in handles {
                    h.join().unwrap();
                }
                assert_eq!(*c.lock().unwrap(), 2);
            })
            .expect("mutex makes the increment atomic");
        assert!(stats.complete, "small model must be fully explored");
        assert!(stats.executions > 1, "must explore more than one order");
    }

    #[test]
    fn detects_abba_deadlock() {
        // Unbounded: the deadlock needs a preemption between the two
        // acquisitions on each side.
        let model = Model {
            preemption_bound: None,
            max_executions: 50_000,
        };
        let failure = model
            .check(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t = thread::spawn(move || {
                    let _ga = a2.lock().unwrap();
                    let _gb = b2.lock().unwrap();
                });
                {
                    let _gb = b.lock().unwrap();
                    let _ga = a.lock().unwrap();
                }
                t.join().unwrap();
            })
            .unwrap_err();
        assert!(failure.message.contains("deadlock"), "{failure}");
    }

    #[test]
    fn spawned_panic_surfaces_through_join_in_every_interleaving() {
        let stats = Model::new()
            .check(|| {
                let flag = Arc::new(AtomicBool::new(false));
                let f2 = Arc::clone(&flag);
                let t = thread::spawn(move || {
                    f2.store(true, Ordering::SeqCst);
                    panic!("worker blew up");
                });
                let res = t.join();
                assert!(res.is_err(), "panic must surface through join");
                assert!(flag.load(Ordering::SeqCst));
            })
            .expect("join always reports the panic");
        assert!(stats.complete);
    }

    #[test]
    fn mutex_message_passing_holds() {
        // Flag-then-read under SeqCst atomics: no interleaving may see
        // the flag set without the payload.
        let stats = Model::new()
            .check(|| {
                let data = Arc::new(AtomicUsize::new(0));
                let ready = Arc::new(AtomicBool::new(false));
                let (d2, r2) = (Arc::clone(&data), Arc::clone(&ready));
                let t = thread::spawn(move || {
                    d2.store(42, Ordering::SeqCst);
                    r2.store(true, Ordering::SeqCst);
                });
                if ready.load(Ordering::SeqCst) {
                    assert_eq!(data.load(Ordering::SeqCst), 42);
                }
                t.join().unwrap();
            })
            .expect("publication order is respected");
        assert!(stats.complete);
    }

    #[test]
    fn shims_fall_back_to_std_outside_the_model() {
        let c = Arc::new(AtomicUsize::new(0));
        let m = Arc::new(Mutex::new(7u32));
        let (c2, m2) = (Arc::clone(&c), Arc::clone(&m));
        let t = thread::spawn(move || {
            c2.fetch_add(1, Ordering::SeqCst);
            *m2.lock().unwrap() += 1;
        });
        t.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 1);
        assert_eq!(*m.lock().unwrap(), 8);
        thread::yield_now();
    }

    /// Check-then-wait with the check outside the lock: the flag can be
    /// set, and the notify spent, between the consumer's check and its
    /// wait.
    fn lost_wakeup() {
        let ready = Arc::new(AtomicBool::new(false));
        let gate = Arc::new((Mutex::new(()), Condvar::new()));
        let (ready2, gate2) = (Arc::clone(&ready), Arc::clone(&gate));
        let consumer = thread::spawn(move || {
            if !ready2.load(Ordering::SeqCst) {
                let guard = gate2.0.lock().unwrap();
                let _guard = gate2.1.wait(guard).unwrap();
            }
        });
        ready.store(true, Ordering::SeqCst);
        gate.1.notify_one();
        consumer.join().unwrap();
    }

    /// The fix: the flag lives under the mutex the wait releases, and
    /// the waiter re-checks it in a loop.
    fn no_lost_wakeup() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let consumer = thread::spawn(move || {
            let mut ready = gate2.0.lock().unwrap();
            while !*ready {
                ready = gate2.1.wait(ready).unwrap();
            }
        });
        *gate.0.lock().unwrap() = true;
        gate.1.notify_one();
        consumer.join().unwrap();
    }

    #[test]
    fn condvar_lost_wakeup_is_found_and_replayable() {
        let failure = Model::new().check(lost_wakeup).unwrap_err();
        assert!(failure.message.contains("deadlock"), "{failure}");
        assert!(failure.message.contains("BlockedOnCondvar"), "{failure}");
        // (The message names the condvar by a process-wide resource id,
        // so it differs between runs; the schedule does not.)
        let replayed = Model::new()
            .replay(&failure.schedule, lost_wakeup)
            .unwrap_err();
        assert_eq!(replayed.schedule, failure.schedule);
        assert!(replayed.message.contains("BlockedOnCondvar"), "{replayed}");
    }

    #[test]
    fn condvar_flag_under_the_mutex_is_exhaustively_clean() {
        let stats = Model::new()
            .check(no_lost_wakeup)
            .expect("wait releases the mutex atomically");
        assert!(stats.complete);
        assert!(stats.executions > 1);
    }

    #[test]
    fn condvar_wait_reacquires_the_mutex() {
        // The woken waiter must hold the lock again: its increment and
        // the notifier's never interleave.
        let stats = Model::new()
            .check(|| {
                let gate = Arc::new((Mutex::new((false, 0u32)), Condvar::new()));
                let gate2 = Arc::clone(&gate);
                let waiter = thread::spawn(move || {
                    let mut state = gate2.0.lock().unwrap();
                    while !state.0 {
                        state = gate2.1.wait(state).unwrap();
                    }
                    let seen = state.1;
                    state.1 = seen + 1;
                });
                {
                    let mut state = gate.0.lock().unwrap();
                    state.0 = true;
                    gate.1.notify_one();
                    // Still under the lock after the notify.
                    let seen = state.1;
                    state.1 = seen + 10;
                }
                waiter.join().unwrap();
                assert_eq!(gate.0.lock().unwrap().1, 11);
            })
            .expect("the wait re-acquires before returning");
        assert!(stats.complete);
    }

    #[test]
    fn condvar_notify_one_explores_every_waiter_and_notify_all_wakes_all() {
        // Two waiters, one token: whichever `notify_one` picks takes it;
        // the other is only released by the later `notify_all`.
        let first_winner = std::sync::Mutex::new(std::collections::BTreeSet::new());
        let stats = Model::new()
            .check(|| {
                // (token available, shutting down, who took the token)
                let gate = Arc::new((Mutex::new((false, false, None)), Condvar::new()));
                let mut waiters = Vec::new();
                for id in 0..2usize {
                    let gate = Arc::clone(&gate);
                    waiters.push(thread::spawn(move || {
                        let mut state = gate.0.lock().unwrap();
                        loop {
                            if state.0 {
                                state.0 = false;
                                state.2 = Some(id);
                                return;
                            }
                            if state.1 {
                                return;
                            }
                            state = gate.1.wait(state).unwrap();
                        }
                    }));
                }
                gate.0.lock().unwrap().0 = true;
                gate.1.notify_one();
                gate.0.lock().unwrap().1 = true;
                gate.1.notify_all();
                for waiter in waiters {
                    waiter.join().unwrap();
                }
                let winner = gate.0.lock().unwrap().2.expect("someone took the token");
                first_winner.lock().unwrap().insert(winner);
            })
            .expect("no waiter is left behind");
        assert!(stats.complete);
        assert_eq!(
            first_winner.into_inner().unwrap().len(),
            2,
            "both waiters win somewhere"
        );
    }

    #[test]
    fn condvar_falls_back_to_std_outside_the_model() {
        no_lost_wakeup();
        let gate = Arc::new((Mutex::new(0u32), Condvar::default()));
        let gate2 = Arc::clone(&gate);
        let t = thread::spawn(move || {
            *gate2.0.lock().unwrap() = 3;
            gate2.1.notify_all();
        });
        let mut value = gate.0.lock().unwrap();
        while *value == 0 {
            value = gate.1.wait(value).unwrap();
        }
        assert_eq!(*value, 3);
        drop(value);
        t.join().unwrap();
    }

    #[test]
    fn preemption_bound_zero_is_serial() {
        // With no preemptions allowed, each spawned thread runs to
        // completion once scheduled: exactly the schedules where the
        // racy counter happens to be correct... unless a blocking
        // switch exposes it. Bound 0 still finds nothing here.
        let model = Model {
            preemption_bound: Some(0),
            max_executions: 50_000,
        };
        let stats = model.check(racy_counter).expect("no preemption, no race");
        assert!(stats.complete);
    }
}
