//! `construct`: the paper's contribution, in-place layout construction.
//!
//! One caller, in process. Sorted `u64` keys at a perfect size
//! (`2^20 - 1`) and a ragged one (`1 000 000`, which runs Chapter 5's
//! pre-pass) are permuted into each layout again and again until the
//! time is up. `core` does all the work here; `query`, `shard`, `store`
//! and `serve` do none.

use std::hint::black_box;
use std::time::{Duration, Instant};

use implicit_search_trees::gpu_sim::{kernels as gpu, Gpu, GpuConfig};
use implicit_search_trees::pem_sim::{kernels as pem, PemConfig, TrackedArray};
use implicit_search_trees::{
    default_kind_for_layout, permute_in_place, permute_in_place_seq, reference_permutation,
    Algorithm, Layout, StaticMap,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{finish_trace, repeat_setup, sorted_distinct_keys, Ctx, Samples};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::geomean;

/// B-tree node capacity: one 64-byte line of `u64` keys.
const BTREE_B: usize = 8;
const LAYOUTS: [(&str, Layout); 3] = [
    ("bst", Layout::Bst),
    ("btree", Layout::Btree { b: BTREE_B }),
    ("veb", Layout::Veb),
];
const ALGOS: [Algorithm; 2] = [Algorithm::CycleLeader, Algorithm::Involution];
const SHAPES: [&str; 2] = ["perfect", "ragged"];

/// PEM machine the I/O counts are taken on: 2048-word internal memory,
/// 16-word blocks, one processor (counts are then exact and repeat).
const PEM: PemConfig = PemConfig {
    m: 2048,
    b: 16,
    p: 1,
};

struct Sizes {
    perfect: usize,
    ragged: usize,
    /// Size the cost-model counters are taken at.
    model: usize,
}

struct Inputs {
    /// Sorted keys per shape.
    sorted: [Vec<u64>; 2],
    /// `expected[layout][shape]`: the oracle's permutation.
    expected: Vec<[Vec<u64>; 2]>,
}

fn set_up(seed: u64, sizes: &Sizes) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let sorted = [
        sorted_distinct_keys(sizes.perfect, &mut rng),
        sorted_distinct_keys(sizes.ragged, &mut rng),
    ];
    let expected = LAYOUTS
        .iter()
        .map(|&(_, layout)| {
            [
                reference_permutation(&sorted[0], layout),
                reference_permutation(&sorted[1], layout),
            ]
        })
        .collect();
    Inputs { sorted, expected }
}

/// Seconds per `(layout, shape)` of one round of cycle-leader
/// construction through `permute_in_place`, checked against the oracle
/// when `check` is set.
fn cycle_leader_round(inputs: &Inputs, check: Option<&mut Outcome>) -> [[f64; 2]; 3] {
    let mut times = [[0.0; 2]; 3];
    let mut check = check;
    for (l, &(_, layout)) in LAYOUTS.iter().enumerate() {
        for (shape, sorted) in inputs.sorted.iter().enumerate() {
            let mut data = sorted.clone();
            let start = Instant::now();
            let result = permute_in_place(black_box(&mut data[..]), layout, Algorithm::CycleLeader);
            times[l][shape] = start.elapsed().as_secs_f64();
            black_box(&data);
            if let Some(outcome) = check.as_deref_mut() {
                outcome.check(result.is_ok() && data == inputs.expected[l][shape]);
            }
        }
    }
    times
}

/// Geometric mean over the layouts of keys per second: all the keys a
/// layout's rounds placed over all the time they took. The total, not
/// a median round: on a shared box rounds come in a fast and a slow
/// kind, a median flips between them from run to run, and the total
/// moves only with their mix.
fn keys_per_second(rounds: &[[[f64; 2]; 3]], sizes: &Sizes) -> f64 {
    let per_layout: Vec<f64> = (0..3)
        .map(|l| {
            let seconds: f64 = rounds.iter().map(|r| r[l][0] + r[l][1]).sum();
            (rounds.len() * (sizes.perfect + sizes.ragged)) as f64 / seconds
        })
        .collect();
    geomean(&per_layout)
}

fn run_rounds(
    inputs: &Inputs,
    budget: Duration,
    min_rounds: usize,
    outcome: &mut Outcome,
) -> Vec<[[f64; 2]; 3]> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < budget {
        let check = rounds.is_empty().then_some(&mut *outcome);
        rounds.push(cycle_leader_round(inputs, check));
    }
    rounds
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = if ctx.smoke {
        Sizes {
            perfect: (1 << 12) - 1,
            ragged: 3000,
            model: (1 << 10) - 1,
        }
    } else {
        Sizes {
            perfect: (1 << 20) - 1,
            ragged: 1_000_000,
            model: (1 << 16) - 1,
        }
    };
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "construct: N_perfect={} N_ragged={} btree b={BTREE_B}, in process, 1 caller",
        sizes.perfect, sizes.ragged
    ));
    let (inputs, setup_s) = repeat_setup(ctx.setup_repeats(), || set_up(ctx.seed, &sizes));

    if !ctx.trace {
        let rounds = run_rounds(&inputs, ctx.budget(1.0), 3, &mut outcome);
        outcome.note(format!("{} rounds of 6 constructions", rounds.len()));
        outcome.set("setup_s", setup_s);
        outcome.set("throughput_kops_s", keys_per_second(&rounds, &sizes) / 1e3);
        return Ok(outcome);
    }

    // Traced run: the full matrix under spans, each round followed by
    // a cycle-leader round that keeps none, as the overhead reference.
    let mut tracer = Tracer::new(true);
    let (traced, reference) = traced_matrix(ctx, &inputs, &mut tracer, &mut outcome);
    for name in traced.names() {
        outcome.set(name, traced.median(name));
    }
    // The same quantity as the reference, from the traced rows.
    let traced_rate = geomean(&LAYOUTS.map(|(lname, _)| {
        let ms = |shape| traced.sum(&permute_metric(lname, Algorithm::CycleLeader, shape));
        (reference.len() * (sizes.perfect + sizes.ragged)) as f64 * 1e3 / (ms(0) + ms(1))
    }));
    outcome.set(
        "trace_overhead_share",
        1.0 - traced_rate / keys_per_second(&reference, &sizes),
    );
    cost_model_counters(&sizes, &mut outcome);
    finish_trace(&tracer, "construct", &mut outcome)?;
    Ok(outcome)
}

fn permute_metric(layout: &str, algo: Algorithm, shape: usize) -> String {
    format!("core.permute_ms.{layout}.{}.{}", algo.name(), SHAPES[shape])
}

/// Every row of the matrix, round after round, each call under a span,
/// and after each round one untraced cycle-leader round. Returns the
/// traced samples grouped by the per-layer metric they feed, and the
/// untraced rounds.
fn traced_matrix(
    ctx: &Ctx,
    inputs: &Inputs,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> (Samples, Vec<[[f64; 2]; 3]>) {
    let budget = ctx.budget(1.0);
    let mut reference = Vec::new();
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xC0FFEE);
    let mut samples = Samples::default();
    let mut round = 0u64;
    while round < 2 || start.elapsed() < budget {
        let first = round == 0;
        let round_span = tracer.begin("construct.round", None, round);
        for (l, &(lname, layout)) in LAYOUTS.iter().enumerate() {
            for algo in ALGOS {
                for shape in 0..2 {
                    let mut data = inputs.sorted[shape].clone();
                    let (result, ms) =
                        tracer.timed("core.permute_in_place", round_span, round, || {
                            permute_in_place(black_box(&mut data[..]), layout, algo)
                        });
                    samples.push(permute_metric(lname, algo, shape), ms);
                    if first {
                        outcome.check(result.is_ok() && data == inputs.expected[l][shape]);
                    }
                }
            }
            let mut data = inputs.sorted[0].clone();
            let (result, ms) = tracer.timed("core.permute_in_place_seq", round_span, round, || {
                permute_in_place_seq(black_box(&mut data[..]), layout, Algorithm::CycleLeader)
            });
            samples.push(
                format!("core.permute_seq_ms.{lname}.cycle_leader.perfect"),
                ms,
            );
            if first {
                outcome.check(result.is_ok() && data == inputs.expected[l][0]);
            }

            // The facade's build over already-sorted pairs: what a
            // compaction or a bulk load pays per rebuilt run.
            let keys = inputs.sorted[1].clone();
            let values = keys.clone();
            let (map, ms) = tracer.timed("dynamic.build_presorted", round_span, round, || {
                StaticMap::build_presorted(
                    keys,
                    values,
                    default_kind_for_layout(layout),
                    Algorithm::CycleLeader,
                )
            });
            samples.push(format!("dynamic.build_presorted_ms.{lname}"), ms);
            if first {
                outcome.check(map.is_ok_and(|m| m.keys() == &inputs.expected[l][1][..]));
            }
        }
        let mut keys = inputs.sorted[1].clone();
        keys.shuffle(&mut rng);
        let values = keys.clone();
        let (map, ms) = tracer.timed("dynamic.build", round_span, round, || {
            StaticMap::build(keys, values, Layout::Veb)
        });
        samples.push("dynamic.build_unsorted_ms.veb", ms);
        if first {
            outcome.check(map.is_ok_and(|m| m.keys() == &inputs.expected[2][1][..]));
        }
        tracer.end(round_span);
        reference.push(cycle_leader_round(inputs, None));
        round += 1;
    }
    outcome.note(format!("traced: {round} rounds of the full matrix"));
    (samples, reference)
}

/// The paper's predicted costs beside the measured times: PEM block
/// transfers and GPU memory transactions of the same six algorithms,
/// run on the cost-model backends. Exact; they repeat bit for bit.
fn cost_model_counters(sizes: &Sizes, outcome: &mut Outcome) {
    outcome.note(format!(
        "cost models at N={}: PEM M={} B={} P={}; GPU K40-like defaults, btree b={BTREE_B}",
        sizes.model, PEM.m, PEM.b, PEM.p
    ));
    type PemKernel = fn(&mut TrackedArray);
    let pem_runs: [(&str, &str, PemKernel); 6] = [
        ("bst", "cycle_leader", pem::cycle_leader_bst),
        ("bst", "involution", pem::involution_bst),
        ("btree", "cycle_leader", |a| {
            pem::cycle_leader_btree(a, BTREE_B)
        }),
        ("btree", "involution", |a| pem::involution_btree(a, BTREE_B)),
        ("veb", "cycle_leader", pem::cycle_leader_veb),
        ("veb", "involution", pem::involution_veb),
    ];
    for (layout, algo, kernel) in pem_runs {
        let mut arr = TrackedArray::from_sorted(sizes.model, PEM);
        kernel(&mut arr);
        outcome.set(
            format!("core.pem_ios.{layout}.{algo}"),
            arr.stats().total() as f64,
        );
    }
    let gpu_runs = [
        ("bst", "cycle_leader", gpu::GpuAlgorithm::CycleLeaderBst),
        ("bst", "involution", gpu::GpuAlgorithm::InvolutionBst),
        (
            "btree",
            "cycle_leader",
            gpu::GpuAlgorithm::CycleLeaderBtree { b: BTREE_B },
        ),
        (
            "btree",
            "involution",
            gpu::GpuAlgorithm::InvolutionBtree { b: BTREE_B },
        ),
        ("veb", "cycle_leader", gpu::GpuAlgorithm::CycleLeaderVeb),
        ("veb", "involution", gpu::GpuAlgorithm::InvolutionVeb),
    ];
    for (layout, algo, kernel) in gpu_runs {
        let mut dev = Gpu::from_sorted(sizes.model, GpuConfig::default());
        gpu::permute(&mut dev, kernel);
        outcome.set(
            format!("core.gpu_transactions.{layout}.{algo}"),
            dev.cost().transactions as f64,
        );
    }
}
