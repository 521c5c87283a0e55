//! The pool is persistent: dispatching does not create threads.
//!
//! Its own test binary, with one test, because it counts the process's
//! threads (`/proc/self/task`) and nothing else may start or stop one
//! meanwhile.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering};

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn dispatching_leaves_the_thread_count_within_the_pool_limit() {
    let configured = rayon::current_num_threads();
    let before = process_threads();

    let sum = AtomicU64::new(0);
    for i in 0..10_000u64 {
        let mut b = 0;
        let a = rayon::scope(|s| {
            s.spawn(|_| b = 2 * i);
            i
        });
        sum.fetch_add(a + b, Ordering::Relaxed);
    }
    assert_eq!(sum.load(Ordering::Relaxed), 3 * (10_000 * 9_999 / 2));

    let spawned = AtomicU64::new(0);
    for _ in 0..1_000 {
        rayon::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    spawned.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }
    assert_eq!(spawned.load(Ordering::Relaxed), 8_000);

    let after = process_threads();
    assert!(
        after < before + configured,
        "{before} threads before, {after} after, {configured} configured"
    );
    let stats = rayon::pool_stats();
    assert!((stats.workers_started as usize) < configured, "{stats:?}");
    assert_eq!(
        stats.handed_off + stats.ran_inline,
        10_000 + 8_000,
        "every spawn is either handed off or kept: {stats:?}"
    );
    if configured == 1 {
        assert_eq!((stats.workers_started, stats.handed_off), (0, 0));
        assert_eq!(after, before);
    }
}
