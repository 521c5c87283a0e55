//! `static_read`: batched and scalar reads on a built `StaticMap`.
//!
//! One caller, in process. The maps are built once (that is `setup_s`)
//! and then only read, so `query` — navigators, the pipelined batch
//! engine, prefetching, the wide-node kernels — does all the work and
//! `core` appears only in the set-up time. The large maps (`2^23` keys,
//! 128 MiB of keys and values) are far above the L2 cache and bound by
//! memory misses; the small ones (`2^16`, 1 MiB) fit in L2 and are
//! bound by the descent's own instructions.

use std::hint::black_box;
use std::time::Instant;

use implicit_search_trees::{default_kind_for_layout, Algorithm, Layout, QueryKind, StaticMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{finish_trace, repeat_setup, Ctx, Samples};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::geomean;

const KINDS: [(&str, Option<Layout>); 4] = [
    ("sorted", None),
    ("bst", Some(Layout::Bst)),
    ("btree", Some(Layout::Btree { b: 8 })),
    ("veb", Some(Layout::Veb)),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Get,
    Rank,
    Range,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Rank => "rank",
            Op::Range => "range",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Op::Get => "query.batch_get",
            Op::Rank => "query.batch_rank",
            Op::Range => "query.batch_range_count",
        }
    }
}

/// One slice of a session: 20 batch calls split 12 / 5 / 3 across
/// `batch_get` / `batch_rank` / `batch_range_count` (60 / 25 / 15 %).
const PATTERN: [Op; 20] = {
    use Op::{Get as G, Range as C, Rank as R};
    [G, G, R, G, C, G, G, R, G, G, R, G, C, G, R, G, G, C, G, R]
};

struct Sizes {
    large: usize,
    small: usize,
    /// Queries per batch call.
    batch: usize,
    /// Keys per scalar `get` loop on the large maps.
    scalar: usize,
    /// Descents traced for the node and line counts.
    traced_descents: usize,
}

/// The value stored under `key`; lets a `get` be checked from the key.
fn value_of(key: u64) -> u64 {
    key ^ 0x5555_5555_5555_5555
}

struct Maps {
    /// Keys in sorted order: the oracle's view.
    sorted: Vec<u64>,
    /// One map per requested kind, in `KINDS` order.
    maps: Vec<(&'static str, StaticMap<u64, u64>)>,
}

/// `n` keys, one from every pair `{2i, 2i+1}`, so a uniform query over
/// `[0, 2n)` hits with probability one half; one map per kind.
fn set_up(seed: u64, n: usize, kinds: &[(&'static str, Option<Layout>)]) -> Maps {
    let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
    let sorted: Vec<u64> = (0..n as u64)
        .map(|i| 2 * i + (rng.gen_range(0..2u64)))
        .collect();
    let maps = kinds
        .iter()
        .map(|&(name, layout)| {
            let kind = layout.map_or(QueryKind::Sorted, default_kind_for_layout);
            let values = sorted.iter().map(|&k| value_of(k)).collect();
            let map =
                StaticMap::build_presorted(sorted.clone(), values, kind, Algorithm::CycleLeader)
                    .expect("valid layout");
            (name, map)
        })
        .collect();
    Maps { sorted, maps }
}

/// Answers computed from the sorted keys alone.
struct Oracle<'a>(&'a [u64]);

impl Oracle<'_> {
    fn rank(&self, key: u64) -> usize {
        self.0.partition_point(|&k| k < key)
    }

    fn get(&self, key: u64) -> Option<u64> {
        let r = self.rank(key);
        (self.0.get(r) == Some(&key)).then(|| value_of(key))
    }
}

/// Runs the session pattern over maps and collects per-call times.
struct Session<'a> {
    rng: StdRng,
    batch: usize,
    key_space: u64,
    oracle: Oracle<'a>,
    /// `(kind, op)` pairs whose first batch has been checked.
    checked: Vec<(&'static str, Op)>,
    /// Milliseconds per call under `"{kind}.{op}"` and per slice under
    /// `"{kind}.slice"`, for the slices that ran under spans.
    traced: Samples,
    /// The same for the slices that kept no spans: all of an untraced
    /// session, every other sweep of a traced one.
    untraced: Samples,
}

impl<'a> Session<'a> {
    fn new(seed: u64, sorted: &'a [u64], batch: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            batch,
            key_space: 2 * sorted.len() as u64,
            oracle: Oracle(sorted),
            checked: Vec::new(),
            traced: Samples::default(),
            untraced: Samples::default(),
        }
    }

    fn keys(&mut self) -> Vec<u64> {
        (0..self.batch)
            .map(|_| self.rng.gen_range(0..self.key_space))
            .collect()
    }

    /// One pass over [`PATTERN`] on `map`.
    fn slice(
        &mut self,
        kind: &'static str,
        map: &StaticMap<u64, u64>,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
    ) {
        let spans = tracer.enabled();
        let slice_span = tracer.begin("static_read.slice", None, 0);
        let mut slice_ms = 0.0;
        for (i, op) in PATTERN.into_iter().enumerate() {
            let check = !self.checked.contains(&(kind, op));
            if check {
                self.checked.push((kind, op));
            }
            let keys = self.keys();
            let ms = match op {
                Op::Get => {
                    let (got, ms) = tracer.timed(op.span(), slice_span, i as u64, || {
                        map.batch_get(black_box(&keys))
                    });
                    if check {
                        let ok = got.len() == keys.len()
                            && keys
                                .iter()
                                .zip(&got)
                                .all(|(&k, g)| g.copied() == self.oracle.get(k));
                        outcome.check(ok);
                    }
                    black_box(got.len());
                    ms
                }
                Op::Rank => {
                    let (got, ms) = tracer.timed(op.span(), slice_span, i as u64, || {
                        map.index().batch_rank(black_box(&keys))
                    });
                    if check {
                        let ok = got.len() == keys.len()
                            && keys
                                .iter()
                                .zip(&got)
                                .all(|(&k, &r)| r == self.oracle.rank(k));
                        outcome.check(ok);
                    }
                    black_box(got.len());
                    ms
                }
                Op::Range => {
                    let ranges: Vec<(u64, u64)> = keys
                        .iter()
                        .map(|&lo| (lo, lo + self.rng.gen_range(0..1024u64)))
                        .collect();
                    let (got, ms) = tracer.timed(op.span(), slice_span, i as u64, || {
                        map.batch_range_count(black_box(&ranges))
                    });
                    if check {
                        let ok = got.len() == ranges.len()
                            && ranges.iter().zip(&got).all(|(&(lo, hi), &c)| {
                                c == self.oracle.rank(hi) - self.oracle.rank(lo)
                            });
                        outcome.check(ok);
                    }
                    black_box(got.len());
                    ms
                }
            };
            slice_ms += ms;
            self.samples_mut(spans)
                .push(format!("{kind}.{}", op.name()), ms);
        }
        tracer.end(slice_span);
        self.samples_mut(spans)
            .push(format!("{kind}.slice"), slice_ms);
    }

    fn samples_mut(&mut self, spans: bool) -> &mut Samples {
        if spans {
            &mut self.traced
        } else {
            &mut self.untraced
        }
    }

    /// Slices round-robin over `maps` until `seconds` have passed (at
    /// least four timed slices per map). With spans on, every other
    /// sweep keeps none and is timed into `reference`; with spans off,
    /// every sweep is.
    fn run(
        &mut self,
        maps: &[(&'static str, StaticMap<u64, u64>)],
        seconds: f64,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
    ) {
        let traced = tracer.enabled();
        // One discarded slice per map first: page tables, caches and the
        // thread pool are warm before anything is timed.
        tracer.set_enabled(false);
        for (kind, map) in maps {
            self.slice(kind, map, tracer, outcome);
        }
        self.traced = Samples::default();
        self.untraced = Samples::default();
        let start = Instant::now();
        let mut sweeps = 0;
        while sweeps < 4 || start.elapsed().as_secs_f64() < seconds {
            tracer.set_enabled(traced && sweeps % 2 == 0);
            for (kind, map) in maps {
                self.slice(kind, map, tracer, outcome);
            }
            sweeps += 1;
        }
        tracer.set_enabled(traced);
    }

    /// Queries per second of `kind`: every query of its slices in
    /// `samples` over the time they took.
    fn rate(&self, samples: &Samples, kind: &str) -> f64 {
        let slices = samples.get(&format!("{kind}.slice"));
        (slices.len() * PATTERN.len() * self.batch) as f64 / (slices.iter().sum::<f64>() / 1e3)
    }

    /// Millions of queries per second of one `(kind, op)`.
    fn mqps(&self, kind: &str, op: Op) -> f64 {
        let name = format!("{kind}.{}", op.name());
        (self.traced.get(&name).len() * self.batch) as f64 / (self.traced.sum(&name) * 1e3)
    }
}

/// Millions of scalar `get`s per second: `reps` loops over `n` seeded
/// keys, the best-supported figure being total keys over total time.
fn scalar_get_mqps(
    map: &StaticMap<u64, u64>,
    oracle: &Oracle,
    rng: &mut StdRng,
    n: usize,
    reps: usize,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> f64 {
    let key_space = 2 * map.len() as u64;
    let mut total_ms = 0.0;
    for rep in 0..reps {
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..key_space)).collect();
        let (hits, ms) = tracer.timed("query.get", None, rep as u64, || {
            keys.iter()
                .filter(|k| map.get(black_box(k)).is_some())
                .count()
        });
        total_ms += ms;
        if rep == 0 {
            let expected = keys.iter().filter(|&&k| oracle.get(k).is_some()).count();
            outcome.check(hits == expected);
        }
    }
    (n * reps) as f64 / (total_ms * 1e3)
}

/// Mean nodes visited and mean distinct 64-byte lines touched per rank
/// descent, over `descents` seeded keys. Exact: they depend on the
/// layout, the size and the keys, never on timing.
fn descent_counts(map: &StaticMap<u64, u64>, rng: &mut StdRng, descents: usize) -> (f64, f64) {
    let base = map.keys().as_ptr() as usize;
    let key_space = 2 * map.len() as u64;
    let searcher = map.searcher();
    let (mut nodes, mut lines) = (0usize, 0usize);
    for _ in 0..descents {
        let trace = searcher.trace_rank(&rng.gen_range(0..key_space));
        nodes += trace.len();
        let mut touched: Vec<usize> = trace
            .iter()
            .map(|&p| (base + p * std::mem::size_of::<u64>()) / 64)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        lines += touched.len();
    }
    (
        nodes as f64 / descents as f64,
        lines as f64 / descents as f64,
    )
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = if ctx.smoke {
        Sizes {
            large: 1 << 14,
            small: 1 << 10,
            batch: 1 << 10,
            scalar: 1 << 12,
            traced_descents: 256,
        }
    } else {
        Sizes {
            large: 1 << 23,
            small: 1 << 16,
            batch: 1 << 16,
            scalar: 1 << 18,
            traced_descents: 4096,
        }
    };
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "static_read: N_large={} N_small={} batch={} uniform keys over [0,2N), in process, 1 caller",
        sizes.large, sizes.small, sizes.batch
    ));
    let tree_kinds = &KINDS[1..];

    if !ctx.trace {
        let (large, setup_s) = repeat_setup(ctx.setup_repeats(), || {
            set_up(ctx.seed, sizes.large, tree_kinds)
        });
        let mut session = Session::new(ctx.seed ^ 0xA11CE, &large.sorted, sizes.batch);
        session.run(
            &large.maps,
            ctx.seconds,
            &mut Tracer::new(false),
            &mut outcome,
        );
        let kinds: Vec<&str> = tree_kinds.iter().map(|k| k.0).collect();
        let rates: Vec<f64> = kinds
            .iter()
            .map(|k| session.rate(&session.untraced, k))
            .collect();
        outcome.note(format!(
            "{} slices of {} batch calls per layout",
            session.untraced.get("veb.slice").len(),
            PATTERN.len()
        ));
        outcome.set("setup_s", setup_s);
        outcome.set("throughput_kops_s", geomean(&rates) / 1e3);
        return Ok(outcome);
    }

    let large = set_up(ctx.seed, sizes.large, &KINDS);
    let mut tracer = Tracer::new(true);
    let mut session = Session::new(ctx.seed ^ 0xB0B, &large.sorted, sizes.batch);
    session.run(&large.maps, ctx.seconds * 0.65, &mut tracer, &mut outcome);
    // Median slice against median slice, so that one slow slice on
    // either side does not pass for tracing overhead.
    let slowdown: Vec<f64> = tree_kinds
        .iter()
        .map(|(k, _)| {
            let slice = format!("{k}.slice");
            session.traced.median(&slice) / session.untraced.median(&slice)
        })
        .collect();
    outcome.set("trace_overhead_share", 1.0 - 1.0 / geomean(&slowdown));

    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5CA1A);
    let oracle = Oracle(&large.sorted);
    for (kind, map) in &large.maps {
        for op in [Op::Get, Op::Rank, Op::Range] {
            outcome.set(
                format!("query.{kind}.{}_mqps.large", op.name()),
                session.mqps(kind, op),
            );
        }
        let scalar = scalar_get_mqps(
            map,
            &oracle,
            &mut rng,
            sizes.scalar,
            3,
            &mut tracer,
            &mut outcome,
        );
        outcome.set(format!("query.{kind}.scalar_get_mqps.large"), scalar);
        let (nodes, lines) = descent_counts(map, &mut rng, sizes.traced_descents);
        outcome.set(format!("query.{kind}.nodes_per_descent"), nodes);
        outcome.set(format!("query.{kind}.lines_per_descent"), lines);
        if *kind == "btree" {
            outcome.set(
                "query.btree.wide_active",
                f64::from(u8::from(map.searcher().is_wide())),
            );
        }
    }
    drop(large);

    let small = set_up(ctx.seed, sizes.small, &KINDS);
    let small_batch = sizes.batch.min(sizes.small);
    let mut session = Session::new(ctx.seed ^ 0x5A11, &small.sorted, small_batch);
    session.run(&small.maps, ctx.seconds * 0.1, &mut tracer, &mut outcome);
    let oracle = Oracle(&small.sorted);
    for (kind, map) in &small.maps {
        outcome.set(
            format!("query.{kind}.get_mqps.small"),
            session.mqps(kind, Op::Get),
        );
        let scalar = scalar_get_mqps(
            map,
            &oracle,
            &mut rng,
            small_batch,
            8,
            &mut tracer,
            &mut outcome,
        );
        outcome.set(format!("query.{kind}.scalar_get_mqps.small"), scalar);
    }
    finish_trace(&tracer, "static_read", &mut outcome)?;
    Ok(outcome)
}
