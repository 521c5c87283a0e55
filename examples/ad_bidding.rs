//! The paper's motivating workload: an ad-bidding engine spending ~10% of
//! its compute on binary searches over **static** sorted arrays (Khuong &
//! Morin's AppNexus observation, cited in the introduction).
//!
//! A bid floor table maps campaign price points to a **payload** — the
//! floor price to enforce and the deal it came from. [`StaticMap`]
//! carries the payloads through the layout permutation obliviously
//! (they are never compared; they are not even `Ord`), so every bid
//! request is one descent plus one payload read. This example measures
//! when rebuilding the **sorted** table in a B-tree layout pays for
//! itself compared to leaving it sorted — the crossover question of
//! Figures 6.6/6.7 — with lookups served on the software-pipelined
//! batched engine.
//!
//! ```text
//! cargo run --release --example ad_bidding
//! ```

use implicit_search_trees::{Algorithm, QueryKind, StaticMap};
use std::time::Instant;

/// What the bidder needs back per price point. Deliberately not `Ord`,
/// not `Eq` — the map never compares payloads.
#[derive(Clone, Copy, Debug)]
struct Floor {
    /// Floor price in micro-dollars CPM.
    floor_micros: u64,
    /// Which programmatic deal set this floor.
    deal_id: u32,
}

fn main() {
    let n = 4_000_000usize;
    let b = 8; // 64-byte cache lines / 8-byte keys
    println!("bid floor table: {n} price points -> floor payloads, B-tree layout with B = {b}\n");

    // Price points in tenths of a cent (synthetic but realistic:
    // clustered around common floor prices; the jitter term makes the
    // raw sequence non-monotonic). The table is sorted once, up front,
    // for both options: the sorted status quo has paid for that sort
    // already, so it is not part of what the layout has to earn back.
    let mut price_points: Vec<u64> = (0..n as u64).map(|i| 100 + i * 3 + (i % 7)).collect();
    price_points.sort_unstable();
    let payloads: Vec<Floor> = price_points
        .iter()
        .map(|&p| Floor {
            floor_micros: p * 997,
            deal_id: (p % 1311) as u32,
        })
        .collect();

    // Bid requests: uniformly random lookups.
    let requests: Vec<u64> = {
        let mut x = 0x2545f4914f6cdd1du64;
        (0..2_000_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                100 + x % (3 * n as u64)
            })
            .collect()
    };

    // Option A: leave the table sorted; binary-search each request as
    // it arrives (the bidder's status-quo loop the paper starts from).
    // (`build_presorted` ignores its `Algorithm` argument.)
    let sorted_map = StaticMap::build_presorted(
        price_points.clone(),
        payloads.clone(),
        QueryKind::Sorted,
        Algorithm::CycleLeader,
    )
    .unwrap();
    let sorted_searcher = sorted_map.searcher();
    let t0 = Instant::now();
    let floors_sorted: Vec<Option<&Floor>> = requests
        .iter()
        .map(|r| Some(&sorted_map.values()[sorted_searcher.search(r)?]))
        .collect();
    let t_binary = t0.elapsed();

    // Option B: lay the sorted table out as a B-tree once, then serve
    // from it. Only the layout step is timed. `StaticMap` scatters keys
    // and payloads **out of place** into fresh cache-line-aligned
    // buffers (the payloads ride the same oblivious position map), so
    // both copies are live while it runs; a bidder with no room for
    // that permutes the key array it owns with `permute_in_place`.
    let t0 = Instant::now();
    let btree_map = StaticMap::build_presorted(
        price_points,
        payloads,
        QueryKind::Btree(b),
        Algorithm::CycleLeader,
    )
    .unwrap();
    let t_layout = t0.elapsed();

    let btree_searcher = btree_map.searcher();
    let t0 = Instant::now();
    let floors_btree: Vec<Option<&Floor>> = requests
        .iter()
        .map(|r| Some(&btree_map.values()[btree_searcher.search(r)?]))
        .collect();
    let t_btree = t0.elapsed();

    // Requests arriving in batches can additionally overlap their
    // memory latency on the software-pipelined multi-descent engine.
    let t0 = Instant::now();
    let floors_batched = btree_map.batch_get(&requests);
    let t_batched = t0.elapsed();
    assert_eq!(floors_batched.len(), requests.len());

    // Same hits, same floors, independent of the layout.
    let mut revenue_floor = 0u64;
    for (a, b) in floors_sorted.iter().zip(&floors_btree) {
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.floor_micros, y.floor_micros);
                assert_eq!(x.deal_id, y.deal_id);
                revenue_floor += x.floor_micros;
            }
            _ => panic!("layouts disagree on a hit"),
        }
    }
    let hits = floors_btree.iter().filter(|f| f.is_some()).count();

    println!(
        "binary search   : {t_binary:>10.3?} for {} requests ({hits} hits)",
        requests.len()
    );
    println!(
        "layout (once)   : {t_layout:>10.3?}  (sorted keys + payloads, one out-of-place scatter each)"
    );
    println!(
        "B-tree lookups  : {t_btree:>10.3?} for {} requests (floor sum: {revenue_floor} µ$)",
        requests.len()
    );
    println!("B-tree batched  : {t_batched:>10.3?} on the pipelined multi-descent engine");

    let per_binary = t_binary.as_secs_f64() / requests.len() as f64;
    let per_btree = t_btree.as_secs_f64() / requests.len() as f64;
    if per_btree < per_binary {
        let crossover = t_layout.as_secs_f64() / (per_binary - per_btree);
        println!(
            "\nthe layout pays for itself after ~{:.0} requests ({:.2}% of N) — \
             the paper reports ~1% of N for in-place construction on its CPU",
            crossover,
            100.0 * crossover / n as f64
        );
    } else {
        println!("\nB-tree queries were not faster on this machine/size; try a larger table");
    }
}
