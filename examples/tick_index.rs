//! A financial tick-store (the paper cites finance as a domain with
//! search-heavy static data): one immutable array of timestamps per
//! trading day, each carrying its trade `(price, size)`, probed by
//! analytics jobs with large *batches* of point-in-time lookups and
//! time-window counts.
//!
//! This example drives the [`StaticMap`] facade end to end: it takes
//! the tick buffers, sorts timestamps **and** payloads together and
//! scatters both into the layout in cache-line-aligned storage (the
//! payloads ride the layout's oblivious permutation and are never
//! compared), and serves
//! batched timestamp→trade lookups on the software-pipelined
//! multi-descent engine, plus window counts via rank descents and
//! as-of lookups via predecessor descents. The tick count is
//! deliberately not a perfect-tree size.
//!
//! ```text
//! cargo run --release --example tick_index
//! ```

use implicit_search_trees::{Layout, StaticMap};
use std::time::Instant;

/// One trade: the payload stored under its timestamp.
#[derive(Clone, Copy)]
struct Trade {
    /// Price in hundredths of a cent.
    price: u32,
    /// Shares.
    size: u32,
}

/// Synthetic trading day: strictly increasing nanosecond timestamps with
/// bursty gaps, each with a trade. The count is deliberately not a
/// perfect-tree size.
fn trading_day(ticks: usize, seed: u64) -> (Vec<u64>, Vec<Trade>) {
    let mut x = seed | 1;
    let mut t = 34_200_000_000_000u64; // 09:30:00 in ns
    let mut times = Vec::with_capacity(ticks);
    let mut trades = Vec::with_capacity(ticks);
    for _ in 0..ticks {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += 1 + x % 50_000; // up to 50 µs between ticks
        times.push(t);
        trades.push(Trade {
            price: 150_000 + (x % 2_000) as u32,
            size: 1 + (x % 900) as u32,
        });
    }
    (times, trades)
}

fn main() {
    let ticks = 3_333_333usize; // decidedly non-perfect
    let (day, trades) = trading_day(ticks, 0xfeed);
    println!("tick store: {ticks} timestamps -> (price, size) (non-perfect tree size)\n");

    // Lookups: a mix of exact tick timestamps (hits) and arbitrary
    // points in time (misses).
    let queries: Vec<u64> = day
        .iter()
        .step_by(7)
        .copied()
        .chain(day.iter().step_by(11).map(|t| t + 1))
        .collect();

    // One-minute windows across the session, counted via two rank
    // descents each — no scan of the window contents.
    let minute = 60_000_000_000u64;
    let windows: Vec<(u64, u64)> = (0..390) // 6.5 trading hours
        .map(|m| {
            let start = 34_200_000_000_000u64 + m * minute;
            (start, start + minute)
        })
        .collect();

    for (label, layout) in [
        ("vEB (cache-oblivious)", Layout::Veb),
        ("B-tree (B = 8)", Layout::Btree { b: 8 }),
    ] {
        let t0 = Instant::now();
        // The trades follow the timestamps through the oblivious
        // permutation without a single comparison.
        let map = StaticMap::build(day.clone(), trades.clone(), layout).unwrap();
        let built = t0.elapsed();

        let t0 = Instant::now();
        let looked_up = map.batch_get(&queries); // pipelined + parallel
        let batch = t0.elapsed();
        let hits = looked_up.iter().filter(|t| t.is_some()).count();
        let volume: u64 = looked_up.iter().flatten().map(|t| t.size as u64).sum();

        let t0 = Instant::now();
        let per_minute = map.batch_range_count(&windows);
        let ranged = t0.elapsed();

        // As-of join primitive: the last trade at or before a point in
        // time is predecessor(t + 1).
        let (ts, last) = map.predecessor(&(day[ticks / 2] + 1)).unwrap();
        assert_eq!(*ts, day[ticks / 2]);

        let expected_hits = day.iter().step_by(7).count();
        assert!(hits >= expected_hits); // +1 queries may also collide with real ticks
        assert_eq!(per_minute.iter().sum::<usize>(), ticks); // windows tile the session
        let busiest = per_minute.iter().max().unwrap();
        println!(
            "{label:<22}: built in {built:>9.3?}, {} lookups in {batch:>9.3?} \
             ({hits} hits, {volume} shares), 390 window counts in {ranged:>9.3?} \
             (busiest minute: {busiest} ticks, as-of price {:.2})",
            queries.len(),
            last.price as f64 / 10_000.0
        );
    }

    println!("\nnon-perfect sizes are stored as [perfect layout | sorted overflow leaves]");
}
