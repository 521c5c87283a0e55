//! # ist-shuffle
//!
//! Index maps for k-way perfect shuffles, and circular shifts — the
//! permutation primitives composed by every layout construction algorithm.
//!
//! The k-way perfect shuffle follows Yang, Ellis, Mamakani and Ruskey
//! ("In-place permuting and perfect shuffling using involutions", IPL
//! 2013) in the two size regimes the paper uses:
//!
//! * `N = k^d`: the shuffle is the product of two **digit-reversal**
//!   involutions (`Ξ₁`, `ist_bits::rev_k`),
//! * any `N` divisible by `k`: the product of two **modular-inverse**
//!   involutions `J_1`, `J_k` (`Ξ₂`, [`j_involution`]).
//!
//! `ist_core::algorithms` applies each involution as one
//! `Machine::involution_round` of disjoint swaps, so the same rounds run
//! on every backend. Circular shifts ([`rotate`]) are the standard
//! library's; the classical three-reversal identity, which the paper's
//! I/O chapter blocks into cache-line-sized groups, is what the PEM
//! backend executes and the GPU backend charges.

pub mod rotate;
pub mod shuffle;

pub use rotate::rotate_right;
pub use shuffle::j_involution;
