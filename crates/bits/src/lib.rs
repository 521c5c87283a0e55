//! # ist-bits
//!
//! Integer primitives underlying the implicit search tree layout algorithms:
//!
//! * base-`k` digit arithmetic and **digit reversal** (`rev_k`), the building
//!   block of the involution-based permutation algorithms (Fich et al.;
//!   Yang et al.),
//! * modular arithmetic (extended Euclid, modular inverse): the reference
//!   the `J`-involutions of the k-way perfect shuffle are tested against
//!   (`ist_shuffle::j_involution` runs its own single Euclid pass).
//!
//! The paper parameterizes the cost of digit reversal as `T_REV_k(N)`:
//! some architectures (e.g. the NVIDIA K40 evaluated on the GPU side) expose
//! a hardware bit-reversal instruction making `T_REV_2 = O(1)`, while a
//! software implementation costs `O(log_k N)`. This crate exposes both a
//! hardware-backed path for `k = 2` ([`rev2`], which compiles to
//! `u64::reverse_bits` plus a shift) and a portable software path for
//! arbitrary `k` ([`rev_k`]), mirroring that distinction.

#![forbid(unsafe_code)]

pub mod digits;
pub mod modular;

pub use digits::{rev2, rev_k};
pub use modular::{extended_gcd, gcd, mod_inverse, mod_mul};
