//! # ist-perfbench
//!
//! The one benchmark of the whole stack: five workloads, the
//! end-to-end metrics a user of the system would see, and per-layer
//! metrics that say which layer moved them. `BENCHMARK.json` at the
//! root of the repository names every metric; `README.md` beside this
//! package says why each workload and metric exists.
//!
//! Every layer is measured from outside, by timing calls into the
//! public functions of the crates under `crates/`; nothing there is
//! edited or instrumented.

#![forbid(unsafe_code)]

pub mod compare;
pub mod counting_vfs;
pub mod env;
pub mod gen;
pub mod json;
pub mod ledger;
pub mod procfs;
pub mod report;
pub mod span;
pub mod stats;
pub mod workloads;
