//! # ist-dynamic
//!
//! The serving facades over the implicit search tree layouts:
//!
//! * [`StaticMap`] — an immutable map: keys scattered into a
//!   cache-optimal layout in cache-line-aligned storage, payloads
//!   co-permuted obliviously alongside them (`V` never compared), with
//!   the full point/batch/range query API. A key-only index is
//!   `StaticMap<K, ()>`; its zero-sized payload side costs nothing.
//! * [`DynamicMap`] — the write-capable structure this crate exists
//!   for: a logarithmic-method (LSM-style) dynamization that keeps
//!   every resident run in a static layout and makes the one-pass
//!   parallel layout **rebuild** the mutation primitive.
//!
//! Both are re-exported from the root `implicit-search-trees` facade
//! crate; this crate exists so the dynamization can layer on the
//! static facade without a dependency cycle.
//!
//! ## Dynamization in one paragraph
//!
//! A [`DynamicMap`] absorbs writes in a small sorted buffer; when the
//! buffer fills it is **sealed** into an immutable sorted L0 run (a
//! move of the buffer plus a weight prefix sum — the only construction
//! work on the writer's path) and the k-way merge of sealed runs +
//! tiers is **compacted** into one run ([`StaticMap::build_presorted`]:
//! no argsort, one out-of-place scatter per array) on a background
//! worker thread, installed atomically when it finishes; reads consult
//! sealed-but-uncompacted runs in the meantime, so answers stay exact
//! while merges are mid-flight ([`DynamicMap::quiesce`] drains them).
//! Deletes are tombstones annihilated at merge time; per-version
//! integer *weights* make summed ranks exact even when keys are
//! overwritten or re-inserted across runs (see the [`dynamic`](self)
//! module docs).
//! Every read is written once, on [`Frozen`] (a sorted buffer plus a
//! newest-first run list): reads fan out newest-run-first and reuse
//! the software-pipelined batched engine per run. The live map keeps
//! its current state as a `Frozen` and derefs to it; a snapshot
//! ([`DynamicMap::snapshot`]) is a further `Frozen` — the exact state
//! at the call, sent to reader threads by value — that decouples
//! concurrent readers from merges entirely.

pub mod alloc;
pub mod dynamic;
mod map;
pub(crate) mod persist;
pub(crate) mod sync;

pub use alloc::AlignedVec;
pub use dynamic::{DynamicMap, Frozen, DEFAULT_BUFFER_CAP, MAX_SEALED_RUNS};
pub use map::{default_kind_for_layout, StaticMap};
