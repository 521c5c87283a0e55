//! Model-checked interleavings of the `DynamicMap` publication and
//! compaction state machine, driven by `ist-loom`.
//!
//! This suite only exists under `--cfg ist_loom`, which routes every
//! sync primitive in `ist_dynamic::sync` onto the model-checked shims:
//!
//! ```sh
//! RUSTFLAGS="--cfg ist_loom" cargo test -p ist-dynamic --test model_check
//! ```
//!
//! (In a normal build this file compiles to nothing, so plain
//! `cargo test` is unaffected.)
//!
//! Each test runs one scenario under **every** interleaving the
//! bounded-exhaustive scheduler generates — writer vs. reader-drop,
//! writer vs. background merge worker, and injected worker panics —
//! and asserts the invariants that the single-threaded test suite can
//! only check on one lucky schedule.

#![cfg(ist_loom)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ist_dynamic::DynamicMap;
use ist_loom::{thread, Model};
use ist_query::QueryKind;

/// A tiny map whose every structural event is adversarially frequent:
/// two-entry buffer, binomial tier schedule, strictly serial merges
/// (helper threads inside a merge would be invisible to the model
/// scheduler; these runs stay far below the merge's slice floor, so
/// the concurrency surface is exactly the writer, the workers, and the
/// readers the test spawns).
fn tiny_map() -> DynamicMap<u64, u64> {
    DynamicMap::with_config(QueryKind::Veb, 2)
}

/// `map.insert(k, v)`, then drain the compaction it may have started:
/// every merge worker is spawned and joined inside the model, and the
/// tier shapes follow the inserts alone.
fn insert_quiesced(map: &mut DynamicMap<u64, u64>, k: u64, v: u64) {
    map.insert(k, v);
    map.quiesce();
}

/// (a) The departed-reader release race: the last `Reader` dropping on
/// one thread while the writer mutates on another. In every
/// interleaving the snapshot the reader took must be a coherent
/// published prefix, and once the drop has been observed (at the
/// latest: the first mutation after `join`) the published cell must
/// have released its pinned copy of the map.
#[test]
fn reader_drop_vs_mutation_always_releases_published_cell() {
    let stats = Model::new()
        .check(|| {
            let mut map = tiny_map();
            for k in 1..=4u64 {
                insert_quiesced(&mut map, k, k * 10);
            }
            let reader = map.reader();
            // Publish with the reader outstanding: the cell now pins a
            // full snapshot and `published_dirty` is set.
            map.compact_buffer();
            assert_ne!(map.debug_published_size(), (0, 0));

            let dropper = thread::spawn(move || {
                let snap = reader.snapshot();
                // The snapshot is the 4-key publication or a later one
                // (5 keys) — never torn, never stale beyond the writer.
                let n = snap.len();
                assert!(n == 4 || n == 5, "incoherent snapshot: {n} keys");
                for k in 1..=n as u64 {
                    assert_eq!(snap.get(&k), Some(&(k * 10)));
                }
                // `reader` drops here: the strong count falls while the
                // writer may be mid-mutation.
            });
            insert_quiesced(&mut map, 5, 50);
            dropper.join().unwrap();

            // First mutation after the drop is certainly observed: the
            // release must have fired (either now or already during
            // `insert(5)`).
            insert_quiesced(&mut map, 6, 60);
            assert_eq!(map.debug_published_size(), (0, 0));
            for k in 1..=6u64 {
                assert_eq!(map.get(&k), Some(&(k * 10)));
            }
        })
        .expect("no interleaving may leave the published cell pinned");
    assert!(stats.complete, "scenario must be exhaustively explored");
    assert!(stats.executions > 1, "scenario must actually interleave");
}

/// The race from the test above is real: asserting the release
/// *immediately* after the join — without the settling mutation — is
/// too strong, because when `insert(5)` ran before the drop it
/// republished and nothing has looked at the strong count since. The
/// checker must find that schedule, report it stably, and replay it.
/// This is the seeded-failure regression test for the checker itself.
#[test]
fn checker_finds_and_replays_the_stale_cell_schedule() {
    let scenario = || {
        let mut map = tiny_map();
        for k in 1..=4u64 {
            insert_quiesced(&mut map, k, k * 10);
        }
        let reader = map.reader();
        map.compact_buffer();
        let dropper = thread::spawn(move || drop(reader));
        insert_quiesced(&mut map, 5, 50);
        dropper.join().unwrap();
        // Deliberately too strong: no mutation after the join has
        // re-observed the reader count yet.
        assert_eq!(map.debug_published_size(), (0, 0), "cell still pinned");
    };
    let first = Model::new()
        .check(scenario)
        .expect_err("the stale-cell interleaving exists and the checker must find it");
    assert!(first.message.contains("cell still pinned"), "{first}");
    // Deterministic exploration: a second search finds the identical
    // schedule, and replaying it reproduces the identical failure.
    let second = Model::new().check(scenario).expect_err("same search");
    assert_eq!(first, second, "first failing schedule must be stable");
    let replayed = Model::new()
        .replay(&first.schedule, scenario)
        .expect_err("replay must reproduce the failure");
    assert_eq!(replayed.message, first.message);
}

/// (b) Background-merge install racing `quiesce`: sealed runs pile up
/// while a worker merges, `quiesce` joins and installs mid-churn, and
/// a concurrent reader snapshots somewhere in between. Post-conditions
/// in every interleaving: no sealed runs, no in-flight merge, and
/// answers identical to a `BTreeMap` oracle — compaction moves
/// versions, never answers.
#[test]
fn background_install_racing_quiesce_preserves_answers() {
    let model = Model {
        preemption_bound: Some(2),
        max_executions: 4_000,
    };
    let stats = model
        .check(|| {
            let mut map = tiny_map();
            let mut oracle = BTreeMap::new();
            for k in 1..=6u64 {
                map.insert(k, k * 100);
                oracle.insert(k, k * 100);
            }
            map.remove(&3);
            oracle.remove(&3);

            let reader = map.reader();
            let observer = thread::spawn(move || {
                let snap = reader.snapshot();
                // Whatever publication the snapshot caught, values are
                // never torn: a present key has the value written.
                for k in 1..=6u64 {
                    if let Some(v) = snap.get(&k) {
                        assert_eq!(*v, k * 100);
                    }
                }
            });
            map.quiesce();
            assert_eq!(map.sealed_runs(), 0, "quiesce leaves no sealed run");
            assert!(!map.compaction_in_flight(), "quiesce leaves no merge");
            observer.join().unwrap();

            assert_eq!(map.len(), oracle.len());
            for k in 1..=6u64 {
                assert_eq!(map.get(&k), oracle.get(&k), "key {k}");
            }
        })
        .expect("no interleaving may corrupt answers or leave work behind");
    assert!(stats.executions > 1, "scenario must actually interleave");
}

/// (c) An injected worker panic (armed through the `ist_loom`-only
/// `debug_panic_next_compaction` hook) must propagate to the writer at
/// the join point — in every interleaving — and must not poison the
/// map: the sources of the doomed merge are still resident, answers
/// are unchanged, and the next compaction succeeds.
#[test]
fn worker_panic_propagates_to_writer_in_every_interleaving() {
    let stats = Model::new()
        .check(|| {
            let mut map = tiny_map();
            for k in 1..=4u64 {
                map.insert(k, k + 7);
            }
            map.quiesce();
            map.debug_panic_next_compaction();
            map.insert(5, 12);
            // Seals and spawns the doomed worker.
            map.compact_buffer();
            let unwound = catch_unwind(AssertUnwindSafe(|| map.quiesce()))
                .expect_err("the worker panic must reach the writer");
            let msg = unwound
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(msg.contains("injected compaction worker panic"), "{msg}");

            // The map survives its worker: the merge sources were never
            // consumed, so answers are intact and the retried
            // compaction (panic hook disarmed) drains cleanly.
            for k in 1..=5u64 {
                assert_eq!(map.get(&k), Some(&(k + 7)));
            }
            map.quiesce();
            assert_eq!(map.sealed_runs(), 0);
            assert!(!map.compaction_in_flight());
            assert_eq!(map.len(), 5);
        })
        .expect("panic propagation must hold on every schedule");
    assert!(stats.executions >= 1);
}
