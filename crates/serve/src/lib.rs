//! # ist-serve
//!
//! A coalescing TCP front-end over [`ist_shard::ShardedMap`]: the
//! serving layer that turns the batched query engine's throughput into
//! network throughput.
//!
//! The insight the server is built around: the engine's software-
//! pipelined batch descents are **3×+ faster per key** than scalar
//! descents, but a network server handling one request at a time can
//! never hand the engine a batch. So the server inverts the usual
//! shape — IO threads do nothing but frame decoding, and one **tick
//! thread** gathers every request in flight across all connections
//! into one *tick*, folds its writes into one bulk delta, executes its
//! reads as three batched calls (get / rank / range_count) against the
//! map right after the tick's writes, and scatters replies back per
//! connection in request order. Under
//! concurrency the batch forms by itself: the deeper the queue, the
//! bigger the tick, the better the per-request cost — the opposite of
//! the per-request-lock server whose overheads are fixed.
//!
//! See `crate::server` for the pipeline and its consistency contract,
//! `crate::proto` for the wire format, and `crate::value` for the
//! stored value type — a byte string held inline up to 22 bytes, so a
//! compaction copies it without an allocation; its on-disk encoding is
//! `Vec<u8>`'s. The serve workloads of `perfbench/` (see its README)
//! measure it.
//!
//! ## Quickstart
//!
//! ```
//! use ist_core::Layout;
//! use ist_serve::{serve, Client, ServeMap, Value};
//!
//! // Build and serve a 4-shard map on an OS-assigned localhost port.
//! let keys: Vec<u64> = (0..1000).collect();
//! let vals: Vec<Value> = keys.iter().map(|k| Value::from(k.to_le_bytes().to_vec())).collect();
//! let map = ServeMap::build(keys, vals, Layout::Veb, 4).unwrap();
//! let handle = serve(map).unwrap();
//!
//! // Any number of clients may connect and pipeline requests.
//! let mut c = Client::connect(handle.addr()).unwrap();
//! assert_eq!(c.get(42).unwrap(), Some(42u64.to_le_bytes().to_vec()));
//! assert_eq!(c.rank(500).unwrap(), 500);
//! c.insert(5000, b"new".to_vec()).unwrap();
//! assert_eq!(c.range_count(0, 10_000).unwrap(), 1001);
//! handle.stop();
//! ```
//!
//! The `serve` binary wraps the same entry point for standalone use:
//! `serve --addr 127.0.0.1:4321 --preload 1000000`.

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod server;
pub mod value;

pub use client::Client;
pub use server::{serve, serve_on, Key, ServeMap, ServerHandle};
pub use value::Value;
