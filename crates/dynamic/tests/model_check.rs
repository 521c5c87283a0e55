//! Model-checked interleavings of the `DynamicMap` compaction state
//! machine, driven by `ist-loom`.
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
//! bounded-exhaustive scheduler generates — writer vs. background
//! merge worker, a reader thread holding a snapshot, and injected
//! worker panics — and asserts the invariants that the single-threaded
//! test suite can only check on one lucky schedule.

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
/// reader the test spawns).
fn tiny_map() -> DynamicMap<u64, u64> {
    DynamicMap::with_config(QueryKind::Veb, 2)
}

/// The writer/worker race is real: claiming that a merge is still in
/// flight at the mutation after its seal is deliberately too strong,
/// because a worker that finishes before that mutation's install check
/// gets installed there. That schedule needs the scheduler to preempt
/// the writer for the worker (the default schedule runs the writer
/// until it blocks), so the checker must explore to find it, report it
/// stably, and replay its non-default choices. This is the
/// seeded-failure regression test for the checker itself.
#[test]
fn checker_finds_and_replays_the_prompt_worker_schedule() {
    let scenario = || {
        let mut map = tiny_map();
        map.insert(1, 10);
        map.insert(2, 20); // fills the buffer: seals and spawns the merge
        map.insert(3, 30); // installs the merge iff the worker is done
        let shape = (map.sealed_runs(), map.compaction_in_flight());
        map.quiesce();
        // Deliberately too strong: only a worker still merging when
        // `insert(3)` checks it leaves this shape.
        assert_eq!(shape, (1, true), "merge installed by the next mutation");
    };
    let first = Model::new()
        .check(scenario)
        .expect_err("the prompt-worker interleaving exists and the checker must find it");
    assert!(
        first
            .message
            .contains("merge installed by the next mutation"),
        "{first}"
    );
    assert!(
        first.schedule.iter().any(|&c| c != 0),
        "the failure needs a preemption, not the default schedule: {first}"
    );
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
/// a reader thread checks a snapshot taken before the `quiesce`.
/// Post-conditions in every interleaving: the snapshot is exactly the
/// state it was taken at, no sealed runs or in-flight merge remain,
/// and answers are identical to a `BTreeMap` oracle — compaction moves
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

            let snap = map.snapshot();
            let expected = oracle.clone();
            let observer = thread::spawn(move || {
                // Whatever the worker and the writer do meanwhile, the
                // snapshot answers exactly as of its cut.
                assert_eq!(snap.len(), expected.len());
                for k in 1..=6u64 {
                    assert_eq!(snap.get(&k), expected.get(&k), "snapshot key {k}");
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
    eprintln!("(b) {stats:?}");
    assert!(stats.complete, "scenario must be exhaustively explored");
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
    eprintln!("(c) {stats:?}");
    assert!(stats.complete, "scenario must be exhaustively explored");
}
