//! The five workloads and what they share.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats;

pub mod construct;
pub mod durable_ticks;
pub mod serve;
pub mod static_read;

/// How one run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Changes the generated inputs and nothing else.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and report per-layer metrics (end-to-end otherwise).
    pub trace: bool,
    /// Tiny sizes, for the tests.
    pub smoke: bool,
}

impl Ctx {
    /// `share` of the measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// How often this run sets itself up: [`SETUP_REPEATS`] times when
    /// it reports `setup_s` (the median), once when it is traced.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// Run the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "construct" => construct::run(ctx),
        "static_read" => static_read::run(ctx),
        "durable_ticks" => durable_ticks::run(ctx),
        "serve_read_mostly" => serve::run(ctx, "serve_read_mostly", 10),
        "serve_ingest_heavy" => serve::run(ctx, "serve_ingest_heavy", 90),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// How often an untraced run sets itself up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Set up `repeats` times, dropping each result before the next, and
/// return the last result with the median set-up time in seconds. One
/// set-up is a single sample of allocator and page-cache luck; the
/// median of a few is steady enough to carry a bound.
pub fn repeat_setup<T>(repeats: usize, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(set_up());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up ran"),
        stats::median(&times),
    )
}

/// `n` sorted, distinct, seeded keys with random gaps.
pub fn sorted_distinct_keys(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut next = 0u64;
    (0..n)
        .map(|_| {
            next += 1 + rng.gen_range(0..16u64);
            next
        })
        .collect()
}

/// End a traced run: note every span name's self time (its spans minus
/// what their children cover) and write the spans to
/// `<target dir>/bench/trace-<workload>.jsonl`.
pub fn finish_trace(tracer: &Tracer, workload: &str, outcome: &mut Outcome) -> Result<(), String> {
    for (name, ms) in tracer.self_time_ms() {
        outcome.note(format!("self time of {name}: {ms:.1} ms"));
    }
    tracer
        .write_jsonl(&crate::env::trace_path(workload)?)
        .map_err(|e| format!("writing spans: {e}"))
}

/// Timing samples in milliseconds, grouped under the metric they feed.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, ms: f64) {
        self.0.entry(name.into()).or_default().push(ms);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}
