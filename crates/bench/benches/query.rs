//! Criterion micro-benchmarks for point queries per layout
//! (the statistical companion to Figure 6.5).
//!
//! Set `IST_BENCH_SMOKE=1` to shrink the tree and batch (CI bit-rot
//! guard: the numbers are meaningless, but the code paths all run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use implicit_search_trees::{Algorithm, QueryKind, StaticIndex};
use ist_bench::{sorted_keys, uniform_queries};

fn bench_query(c: &mut Criterion) {
    let smoke = std::env::var_os("IST_BENCH_SMOKE").is_some();
    let mut group = c.benchmark_group("query");
    group.sample_size(if smoke { 3 } else { 20 });
    let n = if smoke { (1 << 14) - 1 } else { (1 << 20) - 1 };
    let queries = uniform_queries(n, if smoke { 1000 } else { 10_000 }, 42);
    let kinds = [
        QueryKind::Sorted,
        QueryKind::Bst,
        QueryKind::BstPrefetch,
        QueryKind::Btree(8),
        QueryKind::Veb,
    ];
    for kind in kinds {
        let index =
            StaticIndex::build_for_kind(sorted_keys(n), kind, Algorithm::CycleLeader).unwrap();
        let name = match kind {
            QueryKind::BstPrefetch => "bst_prefetch",
            k => k.name(),
        };
        group.bench_function(BenchmarkId::new("10k_queries", name), |bch| {
            let s = index.searcher();
            // The scalar loop the paper's figure measures: one descent
            // at a time, run to completion.
            bch.iter(|| std::hint::black_box(queries.iter().filter(|k| s.contains(k)).count()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
