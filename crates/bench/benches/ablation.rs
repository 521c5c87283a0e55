//! Ablation benches for the design choices the `ist-gather`, `ist-bits`
//! and `ist-shuffle` module docs call out:
//!
//! * transpose-optimized gather (§4.2) vs the plain cycle gather,
//! * hardware (`reverse_bits`) vs software bit reversal — the paper's
//!   `T_REV₂` parameter,
//! * blocked (reversal-based) parallel rotation vs `slice::rotate_right`,
//! * equidistant gather vs its naive r-round reference on identical
//!   inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ist_bench::sorted_keys;
use ist_bits::{rev2, rev2_software};
use ist_gather::{equidistant_gather, equidistant_gather_transposed, gather_len};
use ist_shuffle::{rotate_right, rotate_right_par};

fn bench_gather_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_variants");
    group.sample_size(10);
    for x in [8u32, 10] {
        let r = (1usize << x) - 1;
        let n = gather_len(r, r);
        group.bench_function(BenchmarkId::new("cycles", r), |bch| {
            bch.iter_batched(
                || sorted_keys(n),
                |mut v| equidistant_gather(&mut v, r, r),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("transposed", r), |bch| {
            bch.iter_batched(
                || sorted_keys(n),
                |mut v| equidistant_gather_transposed(&mut v, r),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_bit_reversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("t_rev2");
    let xs: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
    group.bench_function("hardware", |bch| {
        bch.iter(|| {
            let mut acc = 0u64;
            for &x in &xs {
                acc ^= rev2(30, std::hint::black_box(x) & 0x3fff_ffff);
            }
            acc
        })
    });
    group.bench_function("software", |bch| {
        bch.iter(|| {
            let mut acc = 0u64;
            for &x in &xs {
                acc ^= rev2_software(30, std::hint::black_box(x) & 0x3fff_ffff);
            }
            acc
        })
    });
    group.finish();
}

fn bench_rotation(c: &mut Criterion) {
    let mut group = c.benchmark_group("rotation");
    group.sample_size(10);
    let n = 1usize << 20;
    group.bench_function("std_rotate", |bch| {
        bch.iter_batched(
            || sorted_keys(n),
            |mut v| rotate_right(&mut v, 123_457),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("reversal_par", |bch| {
        bch.iter_batched(
            || sorted_keys(n),
            |mut v| rotate_right_par(&mut v, 123_457),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gather_variants,
    bench_bit_reversal,
    bench_rotation
);
criterion_main!(benches);
