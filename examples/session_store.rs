//! A write-absorbing session store: the [`DynamicMap`] end of the
//! serving story.
//!
//! The static facades answer "serve this fixed key set as fast as the
//! cache allows"; real serving also has to absorb writes — sessions
//! appear, get refreshed, and expire, while reader threads keep
//! answering lookups. This example runs that shape end to end:
//!
//! 1. bulk-load yesterday's sessions into one static run,
//! 2. stream today's logins / refreshes / logouts through the write
//!    buffer — overflows **seal** cheap L0 runs while the k-way merges
//!    run on the background compaction worker, so no write waits for
//!    a rebuild,
//!    2b. ingest a partner batch through the **bulk-delta** API
//!    (`batch_insert` / `batch_remove`): one sort + one pipelined
//!    weight sweep per resident run for the whole batch,
//! 3. serve batched point lookups from the live map the whole time
//!    (sealed-but-uncompacted runs keep answers exact mid-merge),
//! 4. move a [`DynamicMap::snapshot`] into a separate thread that
//!    audits it while the writer keeps mutating.
//!
//! Run with `cargo run --example session_store --release`.

use implicit_search_trees::{DynamicMap, Layout};
use std::thread;

fn main() {
    // --- 1. bulk load: one run, cache-optimal vEB layout ---------------
    let yesterday: Vec<u64> = (0..200_000u64).map(|s| 3 * s).collect();
    let created: Vec<u64> = yesterday
        .iter()
        .map(|s| 1_700_000_000 + s % 86_400)
        .collect();
    let mut store: DynamicMap<u64, u64> =
        DynamicMap::build(yesterday, created, Layout::Veb).expect("valid layout");
    println!(
        "bulk-loaded {} sessions into {} run(s), tiers: {:?}",
        store.len(),
        store.run_count(),
        store.tier_versions()
    );

    // --- 2. absorb a day of writes -------------------------------------
    for s in 0..50_000u64 {
        match s % 5 {
            // new sessions (ids ≡ 1 mod 3: never in the bulk load)
            0..=2 => store.insert(3 * s + 1, 1_700_086_400 + s),
            // refreshes of existing sessions (overwrite)
            3 => store.insert(3 * (s % 200_000), 1_700_086_400 + s),
            // logouts (tombstones until a merge annihilates them)
            _ => store.remove(&(3 * (s % 200_000))),
        };
    }
    println!(
        "after 50k writes: {} live sessions, {} buffered, {} runs \
         ({} sealed awaiting compaction, worker in flight: {}), tiers: {:?}",
        store.len(),
        store.buffered_versions(),
        store.run_count(),
        store.sealed_runs(),
        store.compaction_in_flight(),
        store.tier_versions()
    );

    // --- 2b. bulk-delta ingest: a partner's session dump ---------------
    // One call sorts the batch, resolves every key's run weights with a
    // pipelined sweep per resident run, and merges the result into the
    // buffer linearly — no per-key descent cascades, no per-key O(cap)
    // memmove.
    let partner: Vec<(u64, u64)> = (0..20_000u64)
        .map(|s| (3 * s + 2, 1_700_090_000 + s))
        .collect();
    let already_live = store.batch_insert(partner);
    let expired = store.batch_remove(&(0..5_000u64).map(|s| 3 * s).collect::<Vec<_>>());
    println!(
        "bulk delta: 20k upserts ({already_live} were already live), 5k expiries \
         ({expired} were live), buffer moves so far: {}",
        store.buffer_element_moves()
    );

    // --- 3. batched serving off the live map ---------------------------
    let probes: Vec<u64> = (0..10_000u64).map(|i| i * 31 % 600_000).collect();
    let hits = store.batch_get(&probes).iter().flatten().count();
    println!("batched lookup: {hits}/{} probes live", probes.len());

    // --- 4. snapshot audit on another thread while writes continue -----
    let snap = store.snapshot(); // exactly the state at this call
    let at_snapshot = store.len();
    let audit = thread::spawn(move || {
        // Scan the live id space through order queries — on the frozen
        // view, so the writer can't shear it mid-scan.
        let mut cursor = snap.lower_bound(&0).map(|(k, _)| *k);
        let mut seen = 0u64;
        while let Some(k) = cursor {
            seen += 1;
            cursor = snap.successor(&k).map(|(k, _)| *k);
        }
        (snap.len(), seen)
    });
    for s in 0..5_000u64 {
        store.insert(7 * s + 5, 1_700_172_800 + s); // writer keeps going
    }
    let (snap_len, walked) = audit.join().expect("audit thread");
    assert_eq!(
        snap_len, at_snapshot,
        "the snapshot is the state it was taken at"
    );
    assert_eq!(snap_len as u64, walked, "snapshot order-scan is exact");
    println!("audit thread walked {walked} sessions on its snapshot");
    println!("live map meanwhile advanced to {} sessions", store.len());

    // --- 5. drain the background compactor before shutdown -------------
    store.quiesce();
    println!(
        "after quiesce: 0 sealed runs, tiers: {:?}",
        store.tier_versions()
    );
}
