//! Criterion micro-benchmarks for the six construction algorithms
//! (the statistical companion to Figures 6.1/6.2; the `figures` binary
//! produces the full sweeps).
//!
//! Every algorithm is timed at a **perfect** size (the construction
//! alone) and at a **ragged** one (Chapter 5's pre-pass first), and the
//! row name says which: `2^18 − 1` is perfect for BST / vEB but ragged
//! for a B-tree with `b = 8`, whose perfect sizes are `9^m − 1`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ist_bench::sorted_keys;
use ist_core::{permute_in_place, permute_in_place_seq, Algorithm, Layout};

const BINARY_PERFECT: usize = (1 << 18) - 1;
const BTREE_PERFECT: usize = 9usize.pow(5) - 1;

fn bench_permute(c: &mut Criterion) {
    let mut group = c.benchmark_group("permute");
    group.sample_size(10);
    // (layout name, layout, perfect size, ragged size)
    let layouts = [
        ("bst", Layout::Bst, BINARY_PERFECT, 250_000),
        (
            "btree",
            Layout::Btree { b: 8 },
            BTREE_PERFECT,
            BINARY_PERFECT,
        ),
        ("veb", Layout::Veb, BINARY_PERFECT, 250_000),
    ];
    for algo in Algorithm::ALL {
        for (lname, layout, perfect, ragged) in layouts {
            for (shape, n) in [("perfect", perfect), ("ragged", ragged)] {
                let row = format!("{}_{lname}/{shape}_{n}", algo.name());
                group.bench_function(BenchmarkId::new("seq", &row), |bch| {
                    bch.iter_batched(
                        || sorted_keys(n),
                        |mut v| permute_in_place_seq(&mut v, layout, algo).unwrap(),
                        criterion::BatchSize::LargeInput,
                    )
                });
                group.bench_function(BenchmarkId::new("par", &row), |bch| {
                    bch.iter_batched(
                        || sorted_keys(n),
                        |mut v| permute_in_place(&mut v, layout, algo).unwrap(),
                        criterion::BatchSize::LargeInput,
                    )
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_permute);
criterion_main!(benches);
