//! # ist-bench
//!
//! Shared harness for regenerating the paper's evaluation (Chapter 6):
//! workload generation, thread-pool control, wall-clock measurement, CSV
//! emission, and the crossover-point calculation behind the paper's
//! headline result ("permutation pays off after Q ≈ 1% of N queries").
//!
//! The actual figures are produced by the `figures` binary
//! (`cargo run -p ist-bench --release --bin figures -- <fig>`). The
//! repository's own performance is measured by `perfbench/`, not here.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Sorted keys `0, 2, 4, …` (odd values are guaranteed misses).
pub fn sorted_keys(n: usize) -> Vec<u64> {
    (0..n as u64).map(|x| 2 * x).collect()
}

/// `q` uniformly random query keys over the value range of
/// [`sorted_keys`]`(n)` (≈50% hits), deterministic per `seed`.
pub fn uniform_queries(n: usize, q: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..q).map(|_| rng.gen_range(0..2 * n as u64)).collect()
}

/// Wall-clock a closure once (the permutation benchmarks re-create their
/// input per trial, so single-shot timing over multiple trials is done by
/// the caller).
pub fn time_once<F: FnOnce()>(f: F) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Average wall-clock over `trials` runs, each on a fresh input produced
/// by `setup`.
pub fn time_avg<S, F, T>(trials: usize, mut setup: S, mut f: F) -> Duration
where
    S: FnMut() -> T,
    F: FnMut(T),
{
    let mut total = Duration::ZERO;
    for _ in 0..trials {
        let input = setup();
        let start = Instant::now();
        f(input);
        total += start.elapsed();
    }
    total / trials as u32
}

/// Run `f` inside a rayon pool of exactly `p` threads.
///
/// On this container there are two hardware cores, so `p > 2` measures
/// the algorithms' behavior under oversubscription rather than true
/// speedup.
pub fn with_pool<R: Send>(p: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(p)
        .build()
        .expect("pool")
        .install(f)
}

/// Given per-Q combined times for a layout and for the binary-search
/// baseline (same Q grid), return the smallest Q at which the layout's
/// combined time (permute + Q queries) beats the baseline's (0 + Q
/// queries), if any.
pub fn crossover(qs: &[usize], layout_times: &[f64], baseline_times: &[f64]) -> Option<usize> {
    qs.iter()
        .zip(layout_times.iter().zip(baseline_times))
        .find(|(_, (l, b))| l < b)
        .map(|(q, _)| *q)
}

/// Given per-size scores (higher is better) for a layout and for the
/// sorted baseline over the same ascending size grid `ns`, return the
/// smallest size from which the layout wins at that size **and every
/// larger one** in the grid — a single noisy win below the real
/// crossover does not count. `None` when the layout does not win at the
/// largest size.
pub fn size_crossover(ns: &[usize], layout_scores: &[f64], sorted_scores: &[f64]) -> Option<usize> {
    let wins: Vec<bool> = layout_scores
        .iter()
        .zip(sorted_scores)
        .map(|(l, s)| l > s)
        .collect();
    let losses_after = wins.iter().rposition(|&w| !w).map_or(0, |i| i + 1);
    ns.get(losses_after).copied()
}

/// Emit one CSV row to stdout (the `figures` binary's only output
/// channel; redirect to a file to keep it).
pub fn row(fields: &[String]) {
    println!("{}", fields.join(","));
}

/// Convenience: format a `Duration` in seconds with high resolution.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_deterministic_and_in_range() {
        let a = uniform_queries(100, 1000, 7);
        let b = uniform_queries(100, 1000, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| k < 200));
        assert_ne!(a, uniform_queries(100, 1000, 8));
    }

    #[test]
    fn crossover_finds_first_win() {
        let qs = [10usize, 100, 1000];
        assert_eq!(
            crossover(&qs, &[5.0, 4.0, 3.0], &[3.0, 4.5, 4.0]),
            Some(100)
        );
        assert_eq!(
            crossover(&qs, &[5.0, 4.0, 3.0], &[3.0, 3.5, 4.0]),
            Some(1000)
        );
        assert_eq!(crossover(&qs, &[9.0, 9.0, 9.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn size_crossover_needs_every_larger_size() {
        let ns = [1usize, 2, 4, 8];
        // A lone win at 2 is noise: the layout loses again at 4.
        assert_eq!(
            size_crossover(&ns, &[1.0, 3.0, 1.0, 3.0], &[2.0, 2.0, 2.0, 2.0]),
            Some(8)
        );
        assert_eq!(
            size_crossover(&ns, &[3.0, 3.0, 3.0, 3.0], &[2.0, 2.0, 2.0, 2.0]),
            Some(1)
        );
        assert_eq!(
            size_crossover(&ns, &[3.0, 3.0, 3.0, 1.0], &[2.0, 2.0, 2.0, 2.0]),
            None
        );
    }

    #[test]
    fn pool_runs_closure() {
        let x = with_pool(2, rayon::current_num_threads);
        assert_eq!(x, 2);
    }
}
