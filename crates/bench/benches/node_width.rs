//! Node-width sweep: runtime-`b` descent vs. the const-width wide
//! kernel, across B-tree widths straddling the compiled ones.
//!
//! Widths 8 and 16 have monomorphized `WideBtreeNav` kernels (SIMD
//! compare-and-count for `u64` keys when the target features are
//! compiled in); 7, 15, and 31 do not, so their "wide" row measures the
//! same runtime navigator the auto-upgrade falls back to — the delta
//! between neighboring widths is the cost of the runtime trip-count
//! loop, isolated from tree-shape effects. The committed
//! `BENCH_node_width.json` in the repository root is this bench with
//! `IST_BENCH_JSON` at full size.
//!
//! Set `IST_BENCH_SMOKE=1` to shrink the tree and batch (CI bit-rot
//! guard).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use implicit_search_trees::{Algorithm, QueryKind, Searcher, StaticIndex};
use ist_bench::{sorted_keys, uniform_queries};

fn bench_node_width(c: &mut Criterion) {
    let smoke = std::env::var_os("IST_BENCH_SMOKE").is_some();
    let mut group = c.benchmark_group("node_width");
    group.sample_size(if smoke { 3 } else { 30 });
    let n = if smoke { (1 << 14) - 1 } else { (1 << 20) - 1 };
    let queries = uniform_queries(n, if smoke { 1000 } else { 10_000 }, 42);
    for b in [7usize, 8, 15, 16, 31] {
        let kind = QueryKind::Btree(b);
        let index =
            StaticIndex::build_for_kind(sorted_keys(n), kind, Algorithm::CycleLeader).unwrap();
        // `searcher()` is the production route: wide kernel when `b` is
        // a compiled width (u64 is SIMD-eligible), runtime otherwise.
        let wide = index.searcher();
        let runtime = Searcher::new_runtime(index.as_slice(), kind);
        debug_assert_eq!(wide.is_wide(), b == 8 || b == 16);
        group.bench_function(BenchmarkId::new("runtime", format!("b{b}")), |bch| {
            bch.iter(|| std::hint::black_box(runtime.batch_search(&queries)))
        });
        group.bench_function(BenchmarkId::new("wide", format!("b{b}")), |bch| {
            bch.iter(|| std::hint::black_box(wide.batch_search(&queries)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_node_width);
criterion_main!(benches);
