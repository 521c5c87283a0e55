//! Cross-backend equivalence: every (layout, algorithm, backend)
//! combination must produce output bit-identical to
//! [`reference_permutation`], for perfect and non-perfect sizes.
//!
//! This is the contract that makes the cost simulators meaningful: the
//! PEM and GPU backends drive the *same* generic construction code as
//! the production `Ram` backend (`ist_core::algorithms`), so if any
//! backend diverged from the oracle — or from the others — the "the
//! simulators measure the real algorithms" claim would be false.

use implicit_search_trees::gpu_sim::{Gpu, GpuConfig};
use implicit_search_trees::pem_sim::{PemConfig, TrackedArray};
use implicit_search_trees::{
    construct, reference_permutation, Algorithm, GatherMode, IndexArith, Layout, Machine, Ram,
    Region, Searcher,
};

/// Perfect sizes for binary layouts (2^d − 1), B-tree-perfect sizes for a
/// couple of B values, decidedly non-perfect sizes, and sizes whose
/// overflow-run count exercises the Chapter-5 pre-pass's digit
/// decomposition: 1056 and 1119 (binary, 33 = 2^5 + 1 and 96 = 2^6 + 2^5
/// overflow leaves), 2046 (binary last level one short of full), 731
/// (b = 4: 26 = 5^2 + 1 full overflow nodes + 3 keys), 1385 (b = 8:
/// 82 = 9^2 + 1 nodes + 1 key), 12 391 (b = 8: 9^3 − 1 nodes + 7 keys).
fn sizes() -> Vec<usize> {
    vec![
        1, 2, 3, 4, 7, 8, 15, 26, 27, 63, 80, 100, 255, 256, 624, 625, 731, 1000, 1056, 1119, 1385,
        2046, 4095, 4096, 5000, 8191, 12_345, 12_391,
    ]
}

fn layouts() -> Vec<Layout> {
    vec![
        Layout::Bst,
        Layout::Veb,
        Layout::Btree { b: 1 },
        Layout::Btree { b: 4 },
        Layout::Btree { b: 8 },
    ]
}

/// Run `f` in a pool of `threads` threads, whatever the host's core
/// count: one is the sequential baseline, four takes the `Ram`'s
/// parallel bodies where the work reaches their floors
/// (`rayon::min_task_len`). The sizes here stay below every floor;
/// `ist-core`'s `large_parallel_all_layouts` and the primitives' own
/// suites run the parallel bodies.
fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

fn check_all_backends(n: usize) {
    let sorted: Vec<u64> = (0..n as u64).collect();
    for layout in layouts() {
        let expect = reference_permutation(&sorted, layout);
        for algorithm in Algorithm::ALL {
            let tag = format!("n={n} {layout:?} {algorithm:?}");

            for threads in [1usize, 4] {
                let mut ram = sorted.clone();
                in_pool(threads, || {
                    construct(&mut Ram::new(&mut ram), layout, algorithm).unwrap()
                });
                assert_eq!(ram, expect, "Ram(threads={threads}) {tag}");
            }

            for p in [1usize, 3] {
                let mut pem = TrackedArray::from_sorted(n, PemConfig { m: 256, b: 16, p });
                construct(&mut pem, layout, algorithm).unwrap();
                assert_eq!(pem.data(), &expect[..], "Pem(p={p}) {tag}");
            }

            let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
            construct(&mut gpu, layout, algorithm).unwrap();
            assert_eq!(gpu.data, expect, "Gpu {tag}");
        }
    }
}

#[test]
fn all_backends_match_oracle_small_and_nonperfect() {
    for n in sizes() {
        if n <= 1024 {
            check_all_backends(n);
        }
    }
}

#[test]
fn all_backends_match_oracle_large() {
    for n in sizes() {
        if n > 1024 {
            check_all_backends(n);
        }
    }
}

/// The GPU block-local path (subtrees under BLOCK_LOCAL keys handled by
/// one launch via a Ram over the region) must cross the
/// threshold without changing the permutation.
#[test]
fn gpu_block_local_threshold_is_seamless() {
    use implicit_search_trees::gpu_sim::kernels::BLOCK_LOCAL;
    for n in [BLOCK_LOCAL - 1, 2 * BLOCK_LOCAL - 1, 4 * BLOCK_LOCAL - 1] {
        let sorted: Vec<u64> = (0..n as u64).collect();
        let expect = reference_permutation(&sorted, Layout::Veb);
        for algorithm in Algorithm::ALL {
            let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
            construct(&mut gpu, Layout::Veb, algorithm).unwrap();
            assert_eq!(gpu.data, expect, "n={n} {algorithm:?}");
        }
    }
}

/// Layouts built by the cost backends are served by the same query
/// engine as production layouts: batched queries over a simulator-built
/// array are bit-identical to the scalar loop over the Ram-built one.
#[test]
fn backend_built_layouts_serve_identical_batched_queries() {
    let n = 2000usize;
    let sorted: Vec<u64> = (0..n as u64).map(|x| 2 * x).collect();
    let queries: Vec<u64> = (0..4 * n as u64).step_by(3).collect();
    for layout in layouts() {
        let mut ram = sorted.clone();
        construct(&mut Ram::new(&mut ram), layout, Algorithm::Involution).unwrap();
        let ram_s = Searcher::for_layout(&ram, layout);
        let expect: Vec<_> = queries.iter().map(|q| ram_s.search(q)).collect();

        let mut pem = TrackedArray::from_sorted(
            n,
            PemConfig {
                m: 256,
                b: 16,
                p: 2,
            },
        );
        construct(&mut pem, layout, Algorithm::Involution).unwrap();
        // PEM stores 0..n; remap the queries onto its key space.
        let pem_data: Vec<u64> = pem.data().to_vec();
        let pem_s = Searcher::for_layout(&pem_data, layout);
        let pem_queries: Vec<u64> = queries.iter().map(|q| q / 2).collect();
        assert_eq!(
            pem_s.batch_search(&pem_queries),
            pem_queries
                .iter()
                .map(|q| pem_s.search(q))
                .collect::<Vec<_>>(),
            "{layout:?} pem"
        );

        let gpu = {
            let mut g = Gpu::from_sorted(n, GpuConfig::default());
            construct(&mut g, layout, Algorithm::Involution).unwrap();
            g.data
        };
        let gpu_scaled: Vec<u64> = gpu.iter().map(|x| 2 * x).collect();
        let gpu_s = Searcher::for_layout(&gpu_scaled, layout);
        assert_eq!(gpu_s.batch_search(&queries), expect, "{layout:?} gpu");
    }
}

/// Cost backends actually charge something on every non-trivial run —
/// a regression guard against silently skipping the accounting when
/// driving the shared algorithms.
#[test]
fn cost_backends_charge_costs() {
    let n = (1usize << 12) - 1;
    for layout in layouts() {
        for algorithm in Algorithm::ALL {
            let mut pem = TrackedArray::from_sorted(
                n,
                PemConfig {
                    m: 256,
                    b: 16,
                    p: 2,
                },
            );
            construct(&mut pem, layout, algorithm).unwrap();
            assert!(
                pem.stats().total() > 0,
                "PEM charged nothing: {layout:?} {algorithm:?}"
            );

            let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
            construct(&mut gpu, layout, algorithm).unwrap();
            let cost = gpu.cost();
            assert!(
                cost.launches > 0 && cost.transactions > 0,
                "GPU charged nothing: {layout:?} {algorithm:?}"
            );
        }
    }
}

/// A `Machine` that forwards every primitive to a [`Ram`]
/// and logs the call (kind and arguments), one line per call, so tests
/// can pin *which* primitives an algorithm issues, not just its output.
struct Recorder<'a> {
    ram: Ram<'a, u64>,
    log: Vec<String>,
}

impl Machine for Recorder<'_> {
    type Elem = u64;

    fn len(&self) -> usize {
        self.ram.len()
    }

    fn involution_round<F>(&mut self, lo: usize, hi: usize, arith: IndexArith, f: F)
    where
        F: Fn(usize) -> usize + Sync,
    {
        self.log.push(format!("involution {lo}..{hi} {arith:?}"));
        self.ram.involution_round(lo, hi, arith, f);
    }

    fn gather(&mut self, lo: usize, r: usize, l: usize, mode: GatherMode) {
        self.log.push(format!("gather {lo} r={r} l={l} {mode:?}"));
        self.ram.gather(lo, r, l, mode);
    }

    fn gather_chunks(&mut self, lo: usize, r: usize, l: usize, chunk: usize, mode: GatherMode) {
        self.log
            .push(format!("gather_chunks {lo} r={r} l={l} c={chunk} {mode:?}"));
        self.ram.gather_chunks(lo, r, l, chunk, mode);
    }

    fn rotate_right(&mut self, lo: usize, hi: usize, amount: usize) {
        self.log.push(format!("rotate {lo}..{hi} by {amount}"));
        self.ram.rotate_right(lo, hi, amount);
    }

    fn run_tasks<K, I, F>(&mut self, tasks: I, f: F)
    where
        K: Send + Sync,
        I: Iterator<Item = Region<K>> + Clone,
        F: Fn(&mut Self, &Region<K>) + Sync,
    {
        let spans: Vec<String> = tasks
            .clone()
            .map(|t| format!("{}+{}", t.lo, t.len))
            .collect();
        self.log.push(format!("tasks {}", spans.join(" ")));
        for task in tasks {
            f(self, &task);
        }
    }
}

fn record(n: usize, layout: Layout, algorithm: Algorithm) -> Vec<String> {
    let sorted: Vec<u64> = (0..n as u64).collect();
    let mut data = sorted.clone();
    let mut rec = Recorder {
        ram: Ram::new(&mut data),
        log: Vec::new(),
    };
    construct(&mut rec, layout, algorithm).unwrap();
    let log = rec.log;
    assert_eq!(
        data,
        reference_permutation(&sorted, layout),
        "Recorder n={n} {layout:?} {algorithm:?}"
    );
    log
}

/// The cycle-leader family is gathers, rotations and subtree tasks at
/// every size: the Chapter-5 pre-pass must not fall back to involution
/// rounds (whose `J` maps cost an extended Euclid per element). The
/// involution family keeps its own rounds, but the pre-pass adds no
/// `Jmap` round to it either — BST involution is digit reversals only.
#[test]
fn cycle_leader_issues_no_involution_rounds() {
    for n in sizes() {
        for layout in layouts() {
            let log = record(n, layout, Algorithm::CycleLeader);
            assert!(
                !log.iter().any(|l| l.starts_with("involution")),
                "n={n} {layout:?}: {log:?}"
            );
        }
        let log = record(n, Layout::Bst, Algorithm::Involution);
        assert!(
            !log.iter().any(|l| l.contains("Jmap")),
            "n={n} Bst involution: {log:?}"
        );
    }
}

/// Perfect sizes whose primitive sequences are pinned by
/// `tests/golden/primitives-perfect.txt`.
const GOLDEN_SHAPES: [(Layout, usize); 4] = [
    (Layout::Bst, 31),
    (Layout::Veb, 31),
    (Layout::Btree { b: 2 }, 80),
    (Layout::Btree { b: 8 }, 728),
];

fn perfect_size_log() -> String {
    let mut out = String::new();
    for (layout, n) in GOLDEN_SHAPES {
        for algorithm in Algorithm::ALL {
            out.push_str(&format!("# {layout:?} {} n={n}\n", algorithm.name()));
            for line in record(n, layout, algorithm) {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

/// At perfect sizes the sequence of primitives — and so every exact
/// PEM / GPU counter derived from it — is the one recorded before the
/// extended gather was generalised to arbitrary run counts (the golden
/// file was written by this test's `perfect_size_log` at that commit).
#[test]
fn perfect_sizes_issue_the_golden_primitive_sequence() {
    let golden = include_str!("golden/primitives-perfect.txt");
    let actual = perfect_size_log();
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}
