//! Measures the hand-off cost `rayon::MIN_TASK_NS` is ten times of:
//! how long a task handed to a parked worker takes to get there and to
//! be heard back from, over and above its own work.
//!
//! ```sh
//! cargo run --release -p ist-parallel --example handoff_cost
//! ```
//!
//! Each round is one `scope` with one `spawn` — the path every fan-out
//! in the workspace takes. The scope's body spins until the spawned
//! task has started (so the job cannot be taken back), then returns and
//! blocks in the scope; the task stamps its start, spins 20 µs so the
//! caller is parked by then, and stamps its end. **out** is dispatch →
//! worker running; **back** is worker done → `scope` returned; their
//! sum is the hand-off cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn main() {
    let threads = rayon::current_num_threads();
    if threads < 2 {
        println!("configured threads = {threads}: nothing is ever handed off");
        return;
    }
    let rounds = 10_000;
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let (mut out, mut back) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for _ in 0..rounds {
        let (started, ended) = (AtomicU64::new(0), AtomicU64::new(0));
        let dispatched = now();
        rayon::scope(|s| {
            s.spawn(|_| {
                started.store(now(), Ordering::Release);
                let until = Instant::now() + Duration::from_micros(20);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                ended.store(now(), Ordering::Release);
            });
            while started.load(Ordering::Acquire) == 0 {
                std::hint::spin_loop();
            }
        });
        let returned = now();
        out.push(started.load(Ordering::Acquire) - dispatched);
        back.push(returned - ended.load(Ordering::Acquire));
        // Let the worker park again: the cost of waking it is the point.
        std::thread::sleep(Duration::from_micros(50));
    }
    out.sort_unstable();
    back.sort_unstable();
    let stats = rayon::pool_stats();
    println!(
        "threads={threads} rounds={rounds} handed_off={} workers_started={}",
        stats.handed_off, stats.workers_started
    );
    for (name, v) in [("out", &out), ("back", &back)] {
        println!(
            "{name:5} p50={} ns  p90={} ns  p99={} ns",
            v[rounds / 2],
            v[rounds * 9 / 10],
            v[rounds * 99 / 100]
        );
    }
    println!(
        "hand-off (out + back) p50 = {} ns, p99 = {} ns",
        out[rounds / 2] + back[rounds / 2],
        out[rounds * 99 / 100] + back[rounds * 99 / 100]
    );
}
