//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p ist-bench --release --bin figures -- <which> [--scale S]
//! ```
//!
//! `<which>` ∈ `table1.1 | fig6.1 | fig6.2 | fig6.3 | fig6.4 | fig6.5 |
//! fig6.6 | fig6.7 | fig6.8 | fig6.9 | crossover | all`. Output is CSV on
//! stdout with one header line per figure. `crossover` is not one of the
//! paper's figures: it is the run-size sweep behind `DynamicMap`'s
//! per-run layout choice (`LAYOUT_CROSSOVER_VERSIONS`). `--scale`
//! shifts the maximum problem size by `S` powers of two (default sizes
//! are laptop-scale; the paper used N = 2²⁹ on a 2×10-core Xeon).

use ist_bench::*;
use ist_core::{permute_in_place, permute_in_place_seq, Algorithm, Layout};
use ist_dynamic::StaticMap;
use ist_gather::{equidistant_gather_chunks_par, gather_len, swap_halves_par};
use ist_gpu_sim::{kernels as gk, query as gq, Gpu, GpuConfig};
use ist_pem_sim::{kernels as pk, PemConfig, TrackedArray};
use ist_query::{QueryKind, Searcher};

const GPU_B: usize = 32; // 128-byte lines on the GPU (paper §6.0.3)
const CPU_B: usize = 8; // 64-byte lines, 64-bit keys (paper §6.0.1)

fn algorithms() -> Vec<(&'static str, Layout, Algorithm)> {
    vec![
        ("involution_bst", Layout::Bst, Algorithm::Involution),
        (
            "involution_btree",
            Layout::Btree { b: CPU_B },
            Algorithm::Involution,
        ),
        ("involution_veb", Layout::Veb, Algorithm::Involution),
        ("cycle_leader_bst", Layout::Bst, Algorithm::CycleLeader),
        (
            "cycle_leader_btree",
            Layout::Btree { b: CPU_B },
            Algorithm::CycleLeader,
        ),
        ("cycle_leader_veb", Layout::Veb, Algorithm::CycleLeader),
    ]
}

/// Figures 6.1 / 6.2: permutation time vs N for all six algorithms.
fn fig_permute(parallel: bool, scale: i32) {
    let which = if parallel { "fig6.2" } else { "fig6.1" };
    row(&[
        which.to_string(),
        "n".into(),
        "algorithm".into(),
        "seconds".into(),
    ]);
    for e in 16..=(22 + scale).max(16) as u32 {
        let n = (1usize << e) - 1;
        for (name, layout, algo) in algorithms() {
            let t = time_avg(
                3,
                || sorted_keys(n),
                |mut v| {
                    if parallel {
                        permute_in_place(&mut v, layout, algo).unwrap();
                    } else {
                        permute_in_place_seq(&mut v, layout, algo).unwrap();
                    }
                    std::hint::black_box(&v);
                },
            );
            row(&[
                which.into(),
                n.to_string(),
                name.into(),
                secs(t).to_string(),
            ]);
        }
    }
}

/// Figure 6.3: speedup vs P of the fastest algorithm per layout
/// (BST: involution; B-tree and vEB: cycle-leader, per Figures 6.1/6.2).
fn fig6_3(scale: i32) {
    row(&[
        "fig6.3".into(),
        "layout".into(),
        "p".into(),
        "speedup".into(),
    ]);
    let n = (1usize << (20 + scale).max(16)) - 1;
    let fastest = [
        ("bst", Layout::Bst, Algorithm::Involution),
        ("btree", Layout::Btree { b: CPU_B }, Algorithm::CycleLeader),
        ("veb", Layout::Veb, Algorithm::CycleLeader),
    ];
    for (name, layout, algo) in fastest {
        let t1 = time_avg(
            3,
            || sorted_keys(n),
            |mut v| permute_in_place_seq(&mut v, layout, algo).unwrap(),
        );
        for p in [1usize, 2, 4, 8] {
            let tp = with_pool(p, || {
                time_avg(
                    3,
                    || sorted_keys(n),
                    |mut v| permute_in_place(&mut v, layout, algo).unwrap(),
                )
            });
            row(&[
                "fig6.3".into(),
                name.into(),
                p.to_string(),
                (secs(t1) / secs(tp)).to_string(),
            ]);
        }
    }
}

/// Figure 6.4: throughput (keys/s) of one chunked equidistant gather vs
/// swapping the array halves, as a function of P.
fn fig6_4(scale: i32) {
    row(&[
        "fig6.4".into(),
        "operation".into(),
        "p".into(),
        "throughput_keys_per_s".into(),
    ]);
    let b = CPU_B;
    let chunk = 1usize << (14 + scale).max(10);
    let n_gather = gather_len(b, b) * chunk;
    let n_swap = 1usize << (17 + scale).max(13);
    for p in [1usize, 2, 4, 8] {
        let tg = with_pool(p, || {
            time_avg(
                3,
                || sorted_keys(n_gather),
                |mut v| equidistant_gather_chunks_par(&mut v, b, b, chunk),
            )
        });
        row(&[
            "fig6.4".into(),
            "equidistant_gather_chunks".into(),
            p.to_string(),
            (n_gather as f64 / secs(tg)).to_string(),
        ]);
        let ts = with_pool(p, || {
            time_avg(3, || sorted_keys(n_swap), |mut v| swap_halves_par(&mut v))
        });
        row(&[
            "fig6.4".into(),
            "swap_halves".into(),
            p.to_string(),
            (n_swap as f64 / secs(ts)).to_string(),
        ]);
    }
}

fn query_kinds() -> Vec<(QueryKind, Option<Layout>)> {
    vec![
        (QueryKind::Sorted, None),
        (QueryKind::Bst, Some(Layout::Bst)),
        (QueryKind::BstPrefetch, Some(Layout::Bst)),
        (QueryKind::Btree(CPU_B), Some(Layout::Btree { b: CPU_B })),
        (QueryKind::Veb, Some(Layout::Veb)),
    ]
}

/// Figure 6.5: time to run 10⁶ (scaled: 10⁵) queries vs N per layout.
fn fig6_5(scale: i32) {
    row(&[
        "fig6.5".into(),
        "n".into(),
        "searcher".into(),
        "seconds".into(),
    ]);
    let q = 100_000usize;
    for e in (16..=(24 + scale).max(16) as u32).step_by(2) {
        let n = (1usize << e) - 1;
        let queries = uniform_queries(n, q, 42);
        for (kind, layout) in query_kinds() {
            let mut data = sorted_keys(n);
            if let Some(l) = layout {
                permute_in_place(&mut data, l, Algorithm::CycleLeader).unwrap();
            }
            let s = Searcher::new(&data, kind);
            let t = time_once(|| {
                std::hint::black_box(queries.iter().filter(|k| s.contains(k)).count());
            });
            row(&[
                "fig6.5".into(),
                n.to_string(),
                kind.name().into(),
                secs(t).to_string(),
            ]);
        }
    }
}

/// Figures 6.6 / 6.7: combined permute + Q queries vs Q, and the
/// crossover Q* per layout (sequential / parallel).
fn fig_combined(parallel: bool, scale: i32) {
    let which = if parallel { "fig6.7" } else { "fig6.6" };
    row(&[which.into(), "q".into(), "layout".into(), "seconds".into()]);
    let n = (1usize << (22 + scale).max(16)) - 1; // paper: 2^29
    let qs: Vec<usize> = (0..=14).map(|i| (n / 1000) << i).collect();
    let max_q = *qs.last().unwrap();
    let all_queries = uniform_queries(n, max_q, 99);

    let setups: Vec<(String, Option<(Layout, QueryKind)>)> = vec![
        ("binary_search".into(), None),
        ("bst".into(), Some((Layout::Bst, QueryKind::Bst))),
        (
            "btree".into(),
            Some((Layout::Btree { b: CPU_B }, QueryKind::Btree(CPU_B))),
        ),
        ("veb".into(), Some((Layout::Veb, QueryKind::Veb))),
    ];
    let mut times: Vec<Vec<f64>> = Vec::new();
    for (name, setup) in &setups {
        let mut data = sorted_keys(n);
        let permute_t = match setup {
            None => 0.0,
            Some((layout, _)) => secs(time_once(|| {
                if parallel {
                    permute_in_place(&mut data, *layout, Algorithm::CycleLeader).unwrap();
                } else {
                    permute_in_place_seq(&mut data, *layout, Algorithm::CycleLeader).unwrap();
                }
            })),
        };
        let kind = setup.map(|(_, k)| k).unwrap_or(QueryKind::Sorted);
        let s = Searcher::new(&data, kind);
        let mut series = Vec::new();
        for &q in &qs {
            let batch = &all_queries[..q];
            let t = time_once(|| {
                let c = if parallel {
                    s.batch_count(batch)
                } else {
                    batch.iter().filter(|k| s.contains(k)).count()
                };
                std::hint::black_box(c);
            });
            let combined = permute_t + secs(t);
            series.push(combined);
            row(&[
                which.into(),
                q.to_string(),
                name.clone(),
                combined.to_string(),
            ]);
        }
        times.push(series);
    }
    // Crossovers vs the binary-search baseline (row 0).
    let baseline = times[0].clone();
    for (i, (name, setup)) in setups.iter().enumerate() {
        if setup.is_none() {
            continue;
        }
        let q_star = crossover(&qs, &times[i], &baseline);
        row(&[
            format!("{which}.crossover"),
            name.clone(),
            q_star.map(|q| q.to_string()).unwrap_or("none".into()),
            q_star
                .map(|q| format!("{:.3}%", 100.0 * q as f64 / n as f64))
                .unwrap_or_default(),
        ]);
    }
}

/// The size crossover behind `DynamicMap`'s per-run layout choice:
/// batched `get` and `rank` throughput (Mq/s) against run size n =
/// 2^12 … 2^(22+S) for the sorted baseline and every layout a map can be
/// configured with, built the way a map builds its runs
/// ([`StaticMap::build_presorted`], aligned storage, here with a
/// zero-sized payload) and queried through the same batched engine its
/// reads use.
///
/// Four choices make the numbers honest on a shared box:
/// - several same-size indexes (up to 8, at most 2^22 keys a kind) are
///   queried round-robin, one batch each in turn, so every index
///   competes for cache the way a shard's runs do, instead of one index
///   sitting in L2 for the whole sweep;
/// - every batch is fresh keys, and the `rank` pass draws from a pool
///   disjoint from the `get` pass's, so no pass hits lines another warmed;
/// - the kinds take turns, pass by pass, so a slow spell on the host
///   lands on all of them rather than on one;
/// - each point is the median of seven passes of 2^19 queries.
///
/// Batch sizes are the serving tick's per-shard batch (256) and 65 536.
/// The last rows, `crossover.rule`, apply the rule behind
/// `LAYOUT_CROSSOVER_VERSIONS` to each layout: the smallest n from which
/// the layout beats sorted on the geometric mean of `get` and `rank` at
/// batch 256, at that n and every larger one.
fn size_crossover_sweep(scale: i32) {
    row(&[
        "crossover".into(),
        "n".into(),
        "kind".into(),
        "batch".into(),
        "indexes".into(),
        "get_mqps".into(),
        "rank_mqps".into(),
    ]);
    const QUERIES: usize = 1 << 19;
    const KEYS_PER_KIND: usize = 1 << 22;
    const PASSES: usize = 7;
    const RULE_BATCH: usize = 256;
    let kinds = [
        QueryKind::Sorted,
        QueryKind::BstPrefetch,
        QueryKind::Btree(CPU_B),
        QueryKind::Veb,
    ];
    let sizes: Vec<usize> = (12..=(22 + scale).max(12) as u32)
        .map(|e| 1usize << e)
        .collect();
    // scores[kind][size]: geometric mean of get and rank at RULE_BATCH.
    let mut scores = vec![Vec::with_capacity(sizes.len()); kinds.len()];
    for &n in &sizes {
        let count = (KEYS_PER_KIND / n).clamp(2, 8);
        let pool = uniform_queries(n, 2 * QUERIES, n as u64);
        let (get_pool, rank_pool) = pool.split_at(QUERIES);
        // `build_presorted` ignores its `Algorithm` argument.
        let sets: Vec<Vec<StaticMap<u64, ()>>> = kinds
            .iter()
            .map(|&kind| {
                (0..count)
                    .map(|_| {
                        StaticMap::build_presorted(
                            sorted_keys(n),
                            vec![(); n],
                            kind,
                            Algorithm::CycleLeader,
                        )
                        .unwrap()
                    })
                    .collect()
            })
            .collect();
        for batch in [RULE_BATCH, 65_536] {
            let mut gets = vec![Vec::with_capacity(PASSES); kinds.len()];
            let mut ranks = vec![Vec::with_capacity(PASSES); kinds.len()];
            for _ in 0..PASSES {
                for (k, set) in sets.iter().enumerate() {
                    gets[k].push(pass_mqps(get_pool, batch, |i, keys| {
                        std::hint::black_box(set[i % count].searcher().batch_search(keys));
                    }));
                    ranks[k].push(pass_mqps(rank_pool, batch, |i, keys| {
                        std::hint::black_box(set[i % count].searcher().batch_rank(keys));
                    }));
                }
            }
            for (k, kind) in kinds.iter().enumerate() {
                let (get, rank) = (median(&mut gets[k]), median(&mut ranks[k]));
                if batch == RULE_BATCH {
                    // Geometric mean: neither op dominates by raw scale.
                    scores[k].push((get * rank).sqrt());
                }
                row(&[
                    "crossover".into(),
                    n.to_string(),
                    kind.name().into(),
                    batch.to_string(),
                    count.to_string(),
                    format!("{get:.2}"),
                    format!("{rank:.2}"),
                ]);
            }
        }
    }
    for (k, kind) in kinds.iter().enumerate().skip(1) {
        let n_star = size_crossover(&sizes, &scores[k], &scores[0]);
        row(&[
            "crossover.rule".into(),
            kind.name().into(),
            n_star.map_or("none".into(), |n| n.to_string()),
        ]);
    }
}

/// One timed pass over `pool` in `batch`-key chunks, in Mq/s;
/// `op(i, keys)` answers the `i`-th chunk.
fn pass_mqps(pool: &[u64], batch: usize, op: impl Fn(usize, &[u64])) -> f64 {
    let t = time_once(|| {
        for (i, keys) in pool.chunks(batch).enumerate() {
            op(i, keys);
        }
    });
    pool.len() as f64 / secs(t) / 1e6
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Figure 6.8: GPU (SIMT model) permutation time vs N.
fn fig6_8(scale: i32) {
    row(&[
        "fig6.8".into(),
        "n".into(),
        "algorithm".into(),
        "model_time_units".into(),
    ]);
    for e in (16..=(24 + scale).max(16) as u32).step_by(2) {
        let n = (1usize << e) - 1;
        // B = 31 keeps (B+1)^m power-of-two-aligned with n = 2^e - 1.
        let b = 31usize;
        let algos: Vec<gk::GpuAlgorithm> = vec![
            gk::GpuAlgorithm::InvolutionBst,
            gk::GpuAlgorithm::InvolutionBtree { b },
            gk::GpuAlgorithm::InvolutionVeb,
            gk::GpuAlgorithm::CycleLeaderBst,
            gk::GpuAlgorithm::CycleLeaderBtree { b },
            gk::GpuAlgorithm::CycleLeaderVeb,
        ];
        for algo in algos {
            // B-tree sizes require n = 32^m - 1, i.e. e ≡ 0 (mod 5).
            let is_btree = matches!(
                algo,
                gk::GpuAlgorithm::InvolutionBtree { .. }
                    | gk::GpuAlgorithm::CycleLeaderBtree { .. }
            );
            if is_btree && e % 5 != 0 {
                continue;
            }
            let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
            let t = gk::permute(&mut gpu, algo);
            row(&[
                "fig6.8".into(),
                n.to_string(),
                algo.name().into(),
                t.to_string(),
            ]);
        }
    }
}

/// Figure 6.9: GPU combined permute + Q queries vs Q (N fixed), plus
/// crossovers vs binary search.
fn fig6_9(scale: i32) {
    row(&[
        "fig6.9".into(),
        "q".into(),
        "layout".into(),
        "model_time_units".into(),
    ]);
    // n must be 32^m - 1 for the B-tree construction: e ≡ 0 (mod 5).
    let mut e = (20 + scale).max(15) as u32;
    e -= e % 5;
    let n = (1usize << e) - 1;
    let sample = uniform_queries(n, 4096, 7);
    let qs: Vec<usize> = (0..=14).map(|i| (n / 1000) << i).collect();

    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    // Baseline: binary search on un-permuted data.
    {
        let gpu = Gpu::from_sorted(n, GpuConfig::default());
        let per_q = gq::per_query_cost(&gpu, gq::GpuQueryKind::BinarySearch, &sample);
        let times: Vec<f64> = qs.iter().map(|&q| per_q * q as f64).collect();
        series.push(("binary_search".into(), times));
    }
    let b = 31usize;
    let layouts: Vec<(&str, gk::GpuAlgorithm, gq::GpuQueryKind)> = vec![
        (
            "bst",
            gk::GpuAlgorithm::InvolutionBst,
            gq::GpuQueryKind::Bst,
        ),
        (
            "btree",
            gk::GpuAlgorithm::CycleLeaderBtree { b },
            gq::GpuQueryKind::Btree(b),
        ),
        (
            "veb",
            gk::GpuAlgorithm::CycleLeaderVeb,
            gq::GpuQueryKind::Veb,
        ),
    ];
    for (name, algo, qkind) in layouts {
        let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
        let permute_t = gk::permute(&mut gpu, algo);
        let per_q = gq::per_query_cost(&gpu, qkind, &sample);
        let times: Vec<f64> = qs.iter().map(|&q| permute_t + per_q * q as f64).collect();
        series.push((name.into(), times));
    }
    for (name, times) in &series {
        for (&q, t) in qs.iter().zip(times) {
            row(&["fig6.9".into(), q.to_string(), name.clone(), t.to_string()]);
        }
    }
    let baseline = series[0].1.clone();
    for (name, times) in series.iter().skip(1) {
        let q_star = crossover(&qs, times, &baseline);
        row(&[
            "fig6.9.crossover".into(),
            name.clone(),
            q_star.map(|q| q.to_string()).unwrap_or("none".into()),
            q_star
                .map(|q| format!("{:.3}%", 100.0 * q as f64 / n as f64))
                .unwrap_or_default(),
        ]);
    }
}

/// Table 1.1: empirical PEM I/O counts per algorithm across N, checking
/// the growth rates of the analytic bounds.
fn table1_1(scale: i32) {
    row(&[
        "table1.1".into(),
        "n".into(),
        "algorithm".into(),
        "p".into(),
        "q_ios".into(),
    ]);
    let cfg = |p: usize| PemConfig { m: 2048, b: 16, p };
    for e in [12u32, 14, (16 + scale).max(14) as u32] {
        let n = (1usize << e) - 1;
        for p in [1usize, 4] {
            type PemRun = fn(&mut TrackedArray);
            let runs: Vec<(&str, PemRun)> = vec![
                ("involution_bst", |a: &mut TrackedArray| {
                    pk::involution_bst(a)
                }),
                ("involution_veb", |a: &mut TrackedArray| {
                    pk::involution_veb(a)
                }),
                ("cycle_leader_bst", |a: &mut TrackedArray| {
                    pk::cycle_leader_bst(a)
                }),
                ("cycle_leader_veb", |a: &mut TrackedArray| {
                    pk::cycle_leader_veb(a)
                }),
            ];
            for (name, run) in runs {
                let mut arr = TrackedArray::from_sorted(n, cfg(p));
                run(&mut arr);
                row(&[
                    "table1.1".into(),
                    n.to_string(),
                    name.into(),
                    p.to_string(),
                    arr.stats().max_per_proc().to_string(),
                ]);
            }
        }
        // B-tree algorithms need (B+1)^m - 1 sizes.
        let b = 3usize;
        let m = e / 2;
        let n = 4usize.pow(m) - 1;
        for p in [1usize, 4] {
            let mut arr = TrackedArray::from_sorted(n, cfg(p));
            pk::involution_btree(&mut arr, b);
            row(&[
                "table1.1".into(),
                n.to_string(),
                "involution_btree".into(),
                p.to_string(),
                arr.stats().max_per_proc().to_string(),
            ]);
            let mut arr = TrackedArray::from_sorted(n, cfg(p));
            pk::cycle_leader_btree(&mut arr, b);
            row(&[
                "table1.1".into(),
                n.to_string(),
                "cycle_leader_btree".into(),
                p.to_string(),
                arr.stats().max_per_proc().to_string(),
            ]);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale: i32 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let _ = GPU_B; // GPU benches use b = 31 so sizes align with 2^e - 1
    match which {
        "table1.1" => table1_1(scale),
        "fig6.1" => fig_permute(false, scale),
        "fig6.2" => fig_permute(true, scale),
        "fig6.3" => fig6_3(scale),
        "fig6.4" => fig6_4(scale),
        "fig6.5" => fig6_5(scale),
        "fig6.6" => fig_combined(false, scale),
        "fig6.7" => fig_combined(true, scale),
        "fig6.8" => fig6_8(scale),
        "fig6.9" => fig6_9(scale),
        "crossover" => size_crossover_sweep(scale),
        "all" => {
            table1_1(scale);
            fig_permute(false, scale);
            fig_permute(true, scale);
            fig6_3(scale);
            fig6_4(scale);
            fig6_5(scale);
            fig_combined(false, scale);
            fig_combined(true, scale);
            fig6_8(scale);
            fig6_9(scale);
            size_crossover_sweep(scale);
        }
        other => {
            eprintln!("unknown figure '{other}'; use table1.1 | fig6.1..fig6.9 | crossover | all");
            std::process::exit(2);
        }
    }
}
