//! # implicit-search-trees
//!
//! Parallel **in-place** construction of implicit search tree layouts
//! (level-order BST, level-order B-tree, van Emde Boas) from sorted
//! arrays, plus cache-efficient queries over them — a faithful Rust
//! implementation of *Beyond Binary Search: Parallel In-Place
//! Construction of Implicit Search Tree Layouts* (Berney, 2018).
//!
//! ## Why
//!
//! Binary search over a sorted array is optimal in comparisons but poor
//! in cache behavior: each probe lands half the remaining range away.
//! If the data is static and queried often, permuting it into an
//! implicit tree layout pays for itself quickly — and the permutation
//! here needs **no second buffer** (crucial when the array fills
//! memory) and runs in parallel.
//!
//! ## Quick start
//!
//! [`StaticMap`] owns its entries: it sorts the keys, scatters them into
//! the chosen layout inside cache-line-aligned storage (out of place —
//! see [`permute_in_place`] below for the no-second-buffer path), and
//! serves the whole query API — point lookups, ranks,
//! successors/predecessors, range counts, and batched variants that
//! run on a software-pipelined multi-descent engine. The layout
//! permutation is data-oblivious (position depends only on `n` and the
//! layout), so payloads ride the same permutation as their keys without
//! ever being compared — `V` needs no `Ord`, and `values()` is a
//! zero-copy view parallel to the keys (see [`perm::oblivious`] for the
//! argument).
//!
//! ```
//! use implicit_search_trees::{Layout, StaticMap};
//!
//! let map = StaticMap::build(
//!     vec![30u64, 10, 20],
//!     vec!["thirty", "ten", "twenty"],
//!     Layout::Btree { b: 8 },
//! ).unwrap();
//! assert_eq!(map.get(&20), Some(&"twenty"));
//! assert_eq!(map.batch_get(&[10, 15]), vec![Some(&"ten"), None]);
//! assert_eq!(map.predecessor(&30), Some((&20, &"twenty")));
//! ```
//!
//! A key-only index is the same map with a zero-sized payload,
//! `StaticMap<K, ()>` — the `()` side allocates nothing. Position-level
//! queries go through its [`Searcher`].
//!
//! ```
//! use implicit_search_trees::{Layout, StaticMap};
//!
//! // Any size (non-perfect trees are handled), any order, duplicates ok.
//! let keys: Vec<u64> = (0..100_000u64).map(|x| 3 * x).collect();
//! let index = StaticMap::build(keys, vec![(); 100_000], Layout::Veb).unwrap();
//!
//! assert!(index.contains_key(&299_997));
//! assert!(!index.contains_key(&299_998));
//! assert_eq!(index.rank(&150_000), 50_000);
//! assert_eq!(index.range_count(&0, &30), 10);
//! assert_eq!(index.searcher().batch_count(&[3, 4, 5, 6]), 2); // pipelined batch
//! ```
//!
//! [`DynamicMap`] makes the structure **write-capable**: a logarithmic-
//! method (LSM-style) dynamization that absorbs inserts and deletes in
//! a small sorted buffer and keeps every resident run in a static
//! layout, using the one-pass parallel layout rebuild as the mutation
//! primitive (merges skip the argsort entirely —
//! [`StaticMap::build_presorted`]). The merge itself is **deamortized**:
//! an overflowing buffer is cheaply *sealed* into an L0 run while the
//! k-way merge + rebuild runs on a background worker, installed
//! atomically when done — reads consult sealed runs in the interim, so
//! answers stay exact and a write never waits for an `O(n)` merge
//! ([`DynamicMap::quiesce`] drains pending merges). Reads fan out newest-run-first on the
//! same pipelined engines; [`DynamicMap::snapshot`] is the exact state
//! at the call, a frozen view that a writer thread sends to its
//! readers by value and that never blocks on a merge. See [`dynamic`](ist_dynamic) for the tier,
//! tombstone, and weight design.
//!
//! ```
//! use implicit_search_trees::{DynamicMap, Layout};
//!
//! let mut m: DynamicMap<u64, &str> = DynamicMap::new(Layout::Veb);
//! m.insert(10, "ten");
//! m.insert(20, "twenty");
//! m.insert(10, "TEN"); // overwrite
//! m.remove(&20);
//! assert_eq!(m.get(&10), Some(&"TEN"));
//! assert_eq!(m.len(), 1);
//! assert_eq!(m.batch_get(&[10, 20]), vec![Some(&"TEN"), None]);
//!
//! let snapshot = m.snapshot(); // frozen: later writes are invisible
//! m.insert(30, "thirty");
//! assert_eq!(snapshot.len(), 1);
//! ```
//!
//! [`ShardedMap`] is the scale-out front-end: key-range-partitioned
//! shards, each an independent [`DynamicMap`] (own buffer, own
//! background compactor), behind one exact API. Batched queries
//! partition per shard, drive every shard's pipelined engine in
//! parallel, and scatter results back in input order — bit-identical
//! to a single unsharded map; global `rank`/`range_count` stay exact
//! via the range-partition invariant.
//!
//! ```
//! use implicit_search_trees::{Layout, ShardedMap};
//!
//! let keys: Vec<u64> = (0..40_000u64).collect();
//! let vals = keys.clone();
//! let mut m = ShardedMap::build(keys, vals, Layout::Veb, 4).unwrap();
//! m.insert(7, 700);
//! m.remove(&8);
//! assert_eq!(m.batch_get(&[7, 8, 39_999]), vec![Some(&700), None, Some(&39_999)]);
//! assert_eq!(m.rank(&20_000), 19_999); // exact across shards
//! ```
//!
//! Both [`DynamicMap`] and [`ShardedMap`] can be made **durable**:
//! [`DynamicMap::persist_to`] writes every resident run as an immutable
//! run file (one sequential pass — the flat implicit-layout arrays need
//! no pointer fixup) and from then on logs each mutation to a
//! write-ahead log before applying it; `DynamicMap::open` recovers the
//! exact pre-crash state (manifest → run files → WAL-tail replay). See
//! the [`store`] module for the format, the fsync/atomicity contract,
//! and the fault-injection harness that pins it down.
//!
//! ```
//! use implicit_search_trees::{DynamicMap, Layout};
//! use implicit_search_trees::store::{MemVfs, StoreConfig};
//! use std::sync::Arc;
//!
//! // MemVfs keeps the doctest off the real disk; StoreConfig::new()
//! // is the production (std::fs + fsync-always) configuration.
//! let cfg = StoreConfig::with_vfs(Arc::new(MemVfs::new()));
//! let mut m: DynamicMap<u64, u64> = DynamicMap::new(Layout::Veb);
//! m.insert(1, 100);
//! m.persist_to("db", cfg.clone()).unwrap();
//! m.insert(2, 200); // WAL-logged before it is applied
//! drop(m);
//! let m = DynamicMap::<u64, u64>::open_with("db", cfg).unwrap();
//! assert_eq!(m.batch_get(&[1, 2]), vec![Some(&100), Some(&200)]);
//! ```
//!
//! The facades above build out of place, because their run storage is
//! cache-line aligned. For the paper's **in-place** construction — a
//! buffer you own, no second one, either algorithm family — use
//! [`permute_in_place`] + [`Searcher`] directly:
//!
//! ```
//! use implicit_search_trees::{permute_in_place, Algorithm, Layout, Searcher};
//!
//! let mut data: Vec<u64> = (0..100_000u64).map(|x| 3 * x).collect(); // sorted
//! permute_in_place(&mut data, Layout::Veb, Algorithm::CycleLeader).unwrap();
//!
//! let searcher = Searcher::for_layout(&data, Layout::Veb);
//! assert!(searcher.contains(&299_997));
//! ```
//!
//! ## One algorithm, N machines
//!
//! Each of the six construction algorithms is implemented **once**, in
//! [`ist_core::algorithms`], generic over the [`machine::Machine`] trait.
//! Three backends instantiate it: [`machine::Ram`] (the production path
//! used by [`permute_in_place`]; zero-overhead via monomorphization), the
//! PEM I/O counter in [`pem_sim`], and the SIMT cost model in
//! [`gpu_sim`]. The simulators therefore measure the *real* algorithms
//! by construction — `tests/machine_equivalence.rs` asserts bit-identical
//! output across every (layout, algorithm, backend) combination.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | `core` (re-exported at the root) | the construction algorithms (written once, `Machine`-generic) and public API |
//! | [`StaticMap`] (`ist-dynamic`, re-exported here) | owning sort + permute + full-query-API facade; payloads co-permuted obliviously alongside the keys (`StaticMap<K, ()>` for key-only) |
//! | [`DynamicMap`] (`ist-dynamic`, re-exported here) | log-structured tiers of static runs: write buffer, sealed L0 runs, background compaction, tombstones + weights, snapshot readers |
//! | [`ShardedMap`] (`ist-shard`, re-exported here) | key-range-sharded serving layer: per-shard `DynamicMap`s, parallel scatter/gather batch routing |
//! | [`store`] (`ist-store`, re-exported here) | durability substrate: zero-copy run files, write-ahead log, atomically-rotated manifest, fault-injection VFS |
//! | [`machine`] | the `Machine` execution-substrate trait and the `Ram` backend (no mode of its own: in a one-thread pool it is the sequential baseline) |
//! | [`query`] | the per-layout `Navigator`s (`nav` — the single home of all descent arithmetic) and the layout-agnostic engines: scalar descents, `batch` (software-pipelined multi-descent window, rayon composition), `range` (range counts over rank descents), `order` (successor/predecessor on the rank engine) |
//! | [`layout`] | position maps / index arithmetic per layout |
//! | [`gather`] | `Ram`'s equidistant gathers (plain and chunked, each parallel from two floors of moves in a pool of more than one thread) and Figure 6.4's `swap_regions_par` |
//! | [`shuffle`] | the `J` involution of the k-way shuffle, and rotations |
//! | [`perm`] | the sequential involution round, the one-pass small-region permutation through a stack scratch, the oblivious co-permutation, the out-of-place oracle |
//! | [`bits`] | digit reversal and the modular-arithmetic test reference |
//! | [`pem_sim`] | PEM-model I/O cost backend |
//! | [`gpu_sim`] | SIMT (GPU) execution cost backend |

pub use ist_dynamic::{
    AlignedVec, DynamicMap, Frozen, StaticMap, DEFAULT_BUFFER_CAP, MAX_SEALED_RUNS,
};
pub use ist_shard::{Shard, Sharded, ShardedFrozen, ShardedMap};
pub use ist_store::{CrashModel, FsyncPolicy, MemVfs, StdVfs, StoreConfig, StoreError, Vfs};

pub use ist_core::{
    construct, permute_in_place, permute_in_place_seq, reference_permutation, Algorithm, Error,
    GatherMode, IndexArith, Layout, Machine, Ram, Region,
};
pub use ist_query::{default_kind_for_layout, QueryKind, Searcher, SimdKey};

/// Digit reversal and modular-arithmetic primitives.
pub use ist_bits as bits;
/// The serving facades (`StaticMap` / `DynamicMap`).
pub use ist_dynamic;
/// Equidistant gathers (plain and chunked).
pub use ist_gather as gather;
/// SIMT (GPU) execution cost model.
pub use ist_gpu_sim as gpu_sim;
/// Layout position maps and tree geometry.
pub use ist_layout as layout;
/// Machine abstraction (execution substrates) and the Ram backend.
pub use ist_machine as machine;
/// PEM-model I/O cost simulator.
pub use ist_pem_sim as pem_sim;
/// Permutation primitives (involution rounds, the direct small-region
/// permutation, oblivious co-permutation).
pub use ist_perm as perm;
/// Per-layout searchers.
pub use ist_query as query;
/// Key-range-sharded serving layer (`ShardedMap`).
pub use ist_shard as shard;
/// The shuffle `J` involution and rotations.
pub use ist_shuffle as shuffle;
/// Durability substrate: run files, WAL, manifest, fault-injection VFS.
pub use ist_store as store;
