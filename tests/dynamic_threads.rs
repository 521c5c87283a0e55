//! Concurrency smoke test: one writer thread driving a [`DynamicMap`]
//! through constant merges while reader threads check the snapshots it
//! sends them, by value, over one channel each.
//!
//! The op sequence is chosen so that **every** prefix state is
//! recognizable from the outside:
//!
//! * phase 1 inserts keys `0, 1, …, N−1` in order — after `i` ops the
//!   live set is exactly `{0, …, i−1}`;
//! * phase 2 deletes keys `0, 1, …, N/2−1` in order — after `d`
//!   deletes the live set is exactly `{d, …, N−1}`.
//!
//! After every op the writer sends `(ops applied, map.snapshot())` to
//! each reader, and each reader asserts the snapshot *is* exactly the
//! prefix state after that many ops (shape, boundary membership, rank,
//! and order queries all agree): a snapshot is the exact state at the
//! call, a global cut, not merely some recent prefix. A torn or
//! half-merged state (e.g. a run visible without its buffer, or a
//! tombstone applied twice) cannot satisfy the checks.
//!
//! The writer runs twice: quiesced (`quiesce()` after every op, so each
//! merge installs before the next op — the deterministic baseline) and
//! free-running (seals land immediately while the k-way merges overlap
//! subsequent ops on a worker thread — installs must never tear a
//! snapshot). Readers and writer meet at a barrier once every reader
//! has checked the initial snapshot, so the reads provably overlap the
//! writes. A separate test holds a compaction **mid-flight** with
//! slow-cloning values and checks every query against an oracle while
//! the merge is provably still running.
//!
//! The tests must pass under both CI profiles: release (this crate's
//! tier-1 build) and the debug job (overflow checks + debug_asserts,
//! which also arm the weight-invariant debug assertions inside the
//! merge).

use implicit_search_trees::{CrashModel, DynamicMap, Frozen, MemVfs, QueryKind, StoreConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const N: u64 = 3000;
/// Small enough that the writer merges hundreds of times under load.
const CAP: usize = 64;
const READERS: usize = 3;

/// Value stored under `k` (phase-independent, so readers can verify
/// payload integrity, not just membership).
fn value_of(k: u64) -> u64 {
    k * 10 + 1
}

/// Assert `snap` is a valid prefix state; return its logical epoch
/// (the number of writer ops it reflects).
fn check_prefix_state(snap: &Frozen<u64, u64>) -> u64 {
    let len = snap.len() as u64;
    assert!(len <= N, "more live keys than were ever inserted");
    if len == 0 {
        // Initial state only: phase 2 ends at N/2 live keys, never 0.
        assert_eq!(snap.get(&0), None);
        return 0;
    }
    if let Some(&v) = snap.get(&0) {
        // Phase 1 state {0, …, len−1}.
        assert_eq!(v, value_of(0));
        let last = len - 1;
        assert_eq!(snap.get(&last), Some(&value_of(last)), "len={len}");
        if len < N {
            assert_eq!(snap.get(&len), None, "key {len} must not exist yet");
            assert_eq!(
                snap.successor(&last),
                None,
                "nothing may be live above key {last}"
            );
        }
        assert_eq!(snap.rank(&len), len as usize);
        assert_eq!(snap.range_count(&0, &len), len as usize);
        assert_eq!(snap.lower_bound(&0), Some((&0, &value_of(0))));
        len
    } else {
        // Phase 2 state {d, …, N−1} with d = N − len deletes applied.
        let d = N - len;
        assert!((1..=N / 2).contains(&d), "impossible delete count {d}");
        assert_eq!(snap.get(&d), Some(&value_of(d)), "first live key");
        assert_eq!(snap.get(&(d - 1)), None, "key {} must be deleted", d - 1);
        assert_eq!(snap.rank(&N), len as usize);
        assert_eq!(snap.predecessor(&d), None, "nothing live below {d}");
        assert_eq!(snap.lower_bound(&0), Some((&d, &value_of(d))));
        assert_eq!(snap.successor(&(N - 1)), None);
        N + d
    }
}

#[test]
fn snapshots_stay_prefix_consistent_under_quiesced_merges() {
    run_concurrent_snapshot_load(true);
}

#[test]
fn snapshots_stay_prefix_consistent_under_free_running_merges() {
    run_concurrent_snapshot_load(false);
}

/// Drive the two-phase workload under concurrent readers, with a
/// `quiesce()` after every op when `quiesced`.
fn run_concurrent_snapshot_load(quiesced: bool) {
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, CAP);
    let start = Arc::new(Barrier::new(READERS + 1));

    let mut senders = Vec::new();
    let mut handles = Vec::new();
    for r in 0..READERS {
        let (tx, rx) = mpsc::channel::<(u64, Frozen<u64, u64>)>();
        senders.push(tx);
        let start = Arc::clone(&start);
        handles.push(thread::spawn(move || {
            let mut observed = 0usize;
            // Until the writer hangs up: every snapshot is exactly the
            // state after the ops it was sent with. Every reader checks
            // every snapshot's size; the full battery (its order queries
            // skip up to N/2 dead keys) runs on one reader per snapshot.
            for (ops, snap) in rx {
                if ops % READERS as u64 == r as u64 {
                    assert_eq!(
                        check_prefix_state(&snap),
                        ops,
                        "reader {r}: snapshot is not the state it was taken at"
                    );
                } else {
                    let live = if ops <= N { ops } else { 2 * N - ops };
                    assert_eq!(snap.len() as u64, live, "reader {r}: size at op {ops}");
                }
                observed += 1;
                if observed == 1 {
                    start.wait();
                }
                // Batched reads on a snapshot while the writer merges.
                if observed.is_multiple_of(64) && !snap.is_empty() {
                    let probes: Vec<u64> = (0..48).map(|i| i * (N / 48)).collect();
                    let got = snap.batch_get(&probes);
                    for (i, &k) in probes.iter().enumerate() {
                        assert_eq!(got[i], snap.get(&k), "batch/scalar split on snapshot");
                    }
                }
            }
            observed
        }));
    }

    // Writer: phase 1 inserts, phase 2 deletes; merges happen every CAP
    // ops throughout, while the readers above check the snapshots.
    let writer = thread::spawn(move || {
        let send = |ops: u64, map: &DynamicMap<u64, u64>| {
            for tx in &senders {
                tx.send((ops, map.snapshot())).expect("reader hung up");
            }
        };
        send(0, &map);
        start.wait();
        for k in 0..N {
            map.insert(k, value_of(k));
            if quiesced {
                map.quiesce();
            }
            send(k + 1, &map);
        }
        for k in 0..N / 2 {
            assert!(map.remove(&k), "key {k} was live");
            if quiesced {
                map.quiesce();
            }
            send(N + k + 1, &map);
        }
        map
    });

    let map = writer.join().expect("writer must not panic");
    for handle in handles {
        let observed = handle.join().expect("reader must not panic");
        assert_eq!(observed as u64, N + N / 2 + 1, "reader missed a snapshot");
    }

    // Final state, on the live map and on a fresh snapshot.
    assert_eq!(map.len() as u64, N / 2);
    let snap = map.snapshot();
    assert_eq!(check_prefix_state(&snap), N + N / 2);
    assert_eq!(map.get(&(N / 2 - 1)), None);
    assert_eq!(map.get(&(N / 2)), Some(&value_of(N / 2)));

    // Draining deferred merges changes nothing observable.
    let mut map = map;
    map.quiesce();
    assert_eq!(map.sealed_runs(), 0);
    assert!(!map.compaction_in_flight());
    assert_eq!(map.len() as u64, N / 2);
    assert_eq!(check_prefix_state(&map.snapshot()), N + N / 2);
}

/// Restart under concurrent readers: a **persistent** map is killed
/// (power-cycle dropping everything unsynced) and reopened several
/// times while the writer keeps sending snapshots to reader threads.
///
/// What must hold:
///
/// * every snapshot is exactly the state after the inserts it was sent
///   with — snapshots of the old map stay valid after the map behind
///   them is gone;
/// * under fsync-always the reopened map's first snapshot **equals**
///   the last snapshot of the killed map, so no reader ever observes
///   time moving backwards across a restart;
/// * recovery composes with the write path: sealing and background
///   compaction resume on the reopened map while the same reader
///   threads keep checking its snapshots.
#[test]
fn restart_under_concurrent_readers() {
    const RN: u64 = 900;
    const RCAP: usize = 32;
    let vfs = Arc::new(MemVfs::new());
    let cfg = StoreConfig::with_vfs(vfs.clone());
    let mut map: DynamicMap<u64, u64> = DynamicMap::with_config(QueryKind::Veb, RCAP);
    map.persist_to("db", cfg.clone()).expect("persist_to");

    // Each message: (keys inserted so far, whether the map was just
    // reopened, its snapshot).
    type Msg = (u64, bool, Frozen<u64, u64>);
    let start = Arc::new(Barrier::new(READERS + 1));
    let mut senders = Vec::new();
    let mut handles = Vec::new();
    for r in 0..READERS {
        let (tx, rx) = mpsc::channel::<Msg>();
        senders.push(tx);
        let start = Arc::clone(&start);
        handles.push(thread::spawn(move || {
            let mut last: Option<Frozen<u64, u64>> = None;
            let mut reopens = 0usize;
            let mut observed = 0usize;
            for (len, reopened, snap) in rx {
                // Insert-only workload: the state is {0, …, len−1}.
                assert_eq!(snap.len() as u64, len, "reader {r}: wrong cut");
                if len > 0 {
                    assert_eq!(snap.get(&0), Some(&value_of(0)));
                    assert_eq!(snap.get(&(len - 1)), Some(&value_of(len - 1)));
                    assert_eq!(snap.lower_bound(&0), Some((&0, &value_of(0))));
                }
                assert_eq!(snap.get(&len), None, "key {len} must not exist yet");
                assert_eq!(snap.rank(&len), len as usize);
                if reopened {
                    // The first snapshot after a reopen is the pre-kill
                    // state, key for key.
                    reopens += 1;
                    let before = last.as_ref().expect("a snapshot precedes every kill");
                    assert_eq!(before.len(), snap.len(), "reader {r}: restart lost writes");
                    for k in 0..=len {
                        assert_eq!(before.get(&k), snap.get(&k), "reader {r}: key {k}");
                    }
                }
                last = Some(snap);
                observed += 1;
                if observed == 1 {
                    start.wait();
                }
            }
            (observed, reopens)
        }));
    }
    let send = |len: u64, reopened: bool, map: &DynamicMap<u64, u64>| {
        for tx in &senders {
            tx.send((len, reopened, map.snapshot()))
                .expect("reader hung up");
        }
    };

    send(0, false, &map);
    start.wait();
    for k in 0..RN {
        map.insert(k, value_of(k));
        send(k + 1, false, &map);
        if k == RN / 4 || k == RN / 2 || k == 3 * RN / 4 {
            // Kill-and-restart while the readers above may still be
            // checking the old map's snapshots.
            drop(map);
            vfs.power_cycle(CrashModel::DropUnsynced);
            map = DynamicMap::open_with("db", cfg.clone()).expect("reopen after power cycle");
            assert_eq!(map.len() as u64, k + 1, "fsync-always recovery is exact");
            send(k + 1, true, &map);
        }
    }
    drop(senders);
    for handle in handles {
        let (observed, reopens) = handle.join().expect("reader must not panic");
        assert_eq!(observed as u64, RN + 4, "reader missed a snapshot");
        assert_eq!(reopens, 3, "reader saw every restart");
    }

    map.quiesce();
    assert_eq!(map.len() as u64, RN);
    assert!(
        map.store_error().is_none(),
        "store poisoned during restarts"
    );
    for k in (0..RN).step_by(97) {
        assert_eq!(map.get(&k), Some(&value_of(k)));
    }
    // One final cold open confirms the whole history is on disk.
    drop(map);
    vfs.power_cycle(CrashModel::DropUnsynced);
    let cold = DynamicMap::<u64, u64>::open_with("db", cfg).expect("final open");
    assert_eq!(cold.len() as u64, RN);
    assert_eq!(cold.rank(&RN), RN as usize);
}

/// A payload whose `Clone` sleeps: every clone a compaction streams
/// keeps the merge observably in flight, so the assertions below run
/// against a map whose background worker is provably mid-merge.
#[derive(Debug)]
struct SlowVal {
    n: u64,
    clones: Arc<AtomicUsize>,
}

impl Clone for SlowVal {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        thread::sleep(Duration::from_micros(200));
        Self {
            n: self.n,
            clones: Arc::clone(&self.clones),
        }
    }
}

/// Queries against a live map while a background compaction is
/// mid-flight must be exact and untorn: the sealed-but-uncompacted runs
/// carry the answers until the install.
#[test]
fn queries_stay_exact_while_compaction_is_mid_flight() {
    let clones = Arc::new(AtomicUsize::new(0));
    let cap = 16usize;
    let mut map: DynamicMap<u64, SlowVal> = DynamicMap::with_config(QueryKind::Veb, cap);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut checked_mid_flight = 0usize;

    for k in 0..300u64 {
        let n = k * 7 + 1;
        map.insert(
            k,
            SlowVal {
                n,
                clones: Arc::clone(&clones),
            },
        );
        oracle.insert(k, n);
        if k % 11 == 10 {
            let dead = k / 2;
            map.remove(&dead);
            oracle.remove(&dead);
        }
        if map.compaction_in_flight() {
            checked_mid_flight += 1;
            // Full query battery while the merge worker is running.
            for probe in [0u64, 1, k / 2, k.saturating_sub(1), k, k + 1, 100_000] {
                assert_eq!(
                    map.get(&probe).map(|v| v.n),
                    oracle.get(&probe).copied(),
                    "get({probe}) diverged mid-flight at op {k}"
                );
                assert_eq!(
                    map.rank(&probe),
                    oracle.range(..probe).count(),
                    "rank({probe}) diverged mid-flight at op {k}"
                );
                assert_eq!(
                    map.successor(&probe).map(|(sk, sv)| (*sk, sv.n)),
                    oracle
                        .range((std::ops::Bound::Excluded(probe), std::ops::Bound::Unbounded))
                        .next()
                        .map(|(sk, sv)| (*sk, *sv)),
                    "successor({probe}) diverged mid-flight at op {k}"
                );
            }
            assert_eq!(map.len(), oracle.len(), "len diverged mid-flight at op {k}");
            // A snapshot taken mid-merge is exact and untorn too.
            let snap = map.snapshot();
            assert_eq!(snap.len(), oracle.len());
            let probes: Vec<u64> = (0..=k).step_by(7).collect();
            let got = snap.batch_get(&probes);
            for (i, &p) in probes.iter().enumerate() {
                assert_eq!(
                    got[i].map(|v| v.n),
                    oracle.get(&p).copied(),
                    "snapshot batch_get({p}) diverged mid-flight at op {k}"
                );
            }
        }
    }
    assert!(
        checked_mid_flight > 0,
        "slow clones never held a compaction in flight — the test lost its subject"
    );

    // Quiesce and verify the drained map answers identically.
    map.quiesce();
    assert_eq!(map.sealed_runs(), 0);
    assert!(!map.compaction_in_flight());
    assert_eq!(map.len(), oracle.len());
    for k in 0..301u64 {
        assert_eq!(map.get(&k).map(|v| v.n), oracle.get(&k).copied());
        assert_eq!(map.rank(&k), oracle.range(..k).count());
    }
}
