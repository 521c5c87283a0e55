//! # ist-shuffle
//!
//! k-way perfect shuffles, un-shuffles, and circular shifts — the
//! permutation primitives composed by every layout construction algorithm.
//!
//! Two implementations of the k-way perfect shuffle are provided, following
//! Yang, Ellis, Mamakani and Ruskey ("In-place permuting and perfect
//! shuffling using involutions", IPL 2013), matching the two size regimes
//! the paper uses:
//!
//! * [`shuffle::shuffle_pow`] — `N = k^d`: the shuffle is the product of
//!   two **digit-reversal** involutions (`Ξ₁`),
//! * [`shuffle::shuffle_mod`] — any `N` divisible by `k`: the product of
//!   two **modular-inverse** involutions `J_1`, `J_k` (`Ξ₂`).
//!
//! Both run in place; each involution round is one pass of disjoint swaps,
//! parallelized with rayon. Circular shifts ([`rotate`]) are the standard
//! library's; the classical three-reversal identity, which the paper's
//! I/O chapter blocks into cache-line-sized groups, is what the PEM
//! backend executes and the GPU backend charges.

pub mod rotate;
pub mod shuffle;

pub use rotate::{reverse, rotate_left, rotate_right};
pub use shuffle::{
    j_involution, shuffle_mod, shuffle_mod_par, shuffle_pow, shuffle_pow_par, unshuffle_mod,
    unshuffle_mod_par, unshuffle_pow, unshuffle_pow_par,
};
