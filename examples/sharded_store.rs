//! A sharded serving front-end: [`ShardedMap`] fanning one workload
//! over range-partitioned [`DynamicMap`] shards.
//!
//! The single-map `session_store` example shows one write buffer and
//! one background compactor; this one puts a 4-shard router in front:
//!
//! 1. bulk-load a user→balance table, split at equal-count boundaries,
//! 2. churn it with writes that hash across all shards (each shard
//!    seals and compacts independently, in the background),
//!    2b. ingest a bulk delta (`batch_insert` / `batch_remove`): the
//!    router partitions the batch by shard ranges and each shard takes
//!    one sorted sub-batch — shards proceed in parallel, and the
//!    returned live-before counts sum exactly across shards because
//!    the range partition makes per-shard answers disjoint,
//! 3. serve batched reads and global order statistics whose inputs
//!    straddle every shard boundary — answers are bit-identical to an
//!    unsharded map,
//! 4. quiesce and show where the versions settled, per shard.
//!
//! Run with `cargo run --example sharded_store --release`.
//!
//! [`DynamicMap`]: implicit_search_trees::DynamicMap

use implicit_search_trees::{Layout, ShardedMap};

fn main() {
    // --- 1. bulk load, 4 range-partitioned shards ----------------------
    let users: Vec<u64> = (0..400_000u64).map(|u| 5 * u).collect();
    let balances: Vec<u64> = users.iter().map(|u| 1_000 + u % 997).collect();
    let mut store: ShardedMap<u64, u64> =
        ShardedMap::build(users, balances, Layout::Veb, 4).expect("valid layout");
    println!(
        "bulk-loaded {} accounts into {} shards (splits at {:?}), per-shard: {:?}",
        store.len(),
        store.shard_count(),
        store.splits(),
        store.shard_lens()
    );

    // --- 2. churn: writes land on every shard --------------------------
    for i in 0..120_000u64 {
        let user = (i * 2_654_435_761) % 2_400_000; // hashes across all shards
        match i % 6 {
            0..=3 => store.insert(user, 1_000 + i % 997), // deposits / new accounts
            4 => store.insert(5 * (i % 400_000), i),      // updates of loaded accounts
            _ => store.remove(&(5 * (i % 400_000))),      // closures (tombstones)
        };
    }
    println!(
        "after 120k writes: {} live accounts, compaction in flight: {}",
        store.len(),
        store.compaction_in_flight()
    );

    // --- 2b. bulk delta: one partner file, routed across shards --------
    // Interest accrual for users ≡ 2 mod 5 (never bulk-loaded) plus a
    // closure sweep — one call each; the router scatters both by shard
    // range, so every shard ingests its sub-batch with a single sort
    // and one pipelined weight sweep per resident run.
    let accruals: Vec<(u64, u64)> = (0..60_000u64).map(|u| (5 * u + 2, 1_000 + u)).collect();
    let already_live = store.batch_insert(accruals);
    let closed = store.batch_remove(&(0..30_000u64).map(|u| 5 * u).collect::<Vec<_>>());
    println!(
        "bulk delta: 60k accruals ({already_live} were already live), \
         30k closure attempts ({closed} were live) -> {} live accounts",
        store.len()
    );

    // --- 3. batched serving straddling every boundary ------------------
    let probes: Vec<u64> = (0..20_000u64).map(|i| (i * 131) % 2_400_000).collect();
    let hits = store.batch_get(&probes).iter().flatten().count();
    println!("batched lookup: {hits}/{} probes live", probes.len());
    let spans: Vec<(u64, u64)> = store
        .splits()
        .iter()
        .map(|&s| (s.saturating_sub(50_000), s + 50_000)) // each crosses a boundary
        .collect();
    let counts = store.batch_range_count(&spans);
    for ((lo, hi), c) in spans.iter().zip(&counts) {
        println!("  accounts in [{lo}, {hi}): {c}");
    }
    // Global ranks are exact across shards (range-partition invariant).
    let mid = store.splits()[1];
    assert_eq!(
        store.rank(&mid),
        store.shard_lens()[..2].iter().sum::<usize>(),
        "rank at a split key is exactly the mass of the shards below it"
    );

    // --- 4. drain the background workers and inspect -------------------
    store.quiesce();
    assert!(!store.compaction_in_flight());
    println!(
        "after quiesce: {} live accounts, per-shard: {:?}",
        store.len(),
        store.shard_lens()
    );
}
