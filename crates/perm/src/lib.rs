//! # ist-perm
//!
//! Permutation framework for the implicit search tree layout algorithms.
//!
//! The paper's two algorithm families both reduce to applying permutations
//! whose structure is known analytically:
//!
//! * **Involutions** (Yang et al.): a permutation `π` that is its own
//!   inverse decomposes into disjoint transpositions, so it can be applied
//!   *in place* and *in parallel* as one round of independent swaps.
//!   Every permutation is a product of two involutions; when the two factors
//!   are known (as they are for digit reversals and the `J` maps), the whole
//!   permutation is two parallel swap rounds. See [`involution`] (the
//!   sequential round behind `Ram`'s small involution rounds) and
//!   [`shared`] (the disjoint-access slice view its parallel rounds use,
//!   and [`MOVE_COST_NS`], the cost the element-moving primitives size
//!   their parallel work with).
//! * **Cycle-leader**: when the disjoint cycles of `π` are enumerable, each
//!   cycle is rotated independently — the equidistant gathers of
//!   `ist-gather`.
//! * **Direct**: a region of at most [`SCRATCH_BYTES`] bytes is permuted
//!   in one pass through a stack scratch ([`direct`]), the way the
//!   paper's GPU implementation permutes a small subtree in one thread
//!   block's shared memory. `ist_machine::Ram` finishes the recursions'
//!   small subproblems this way, and an extended gather of up to
//!   [`UNIT_MAP_BITS`] scratch-sized units with one such pass per block
//!   and one cycle pass over the units ([`unshuffle_units`]).
//!
//! The crate also provides the out-of-place reference application
//! ([`apply`]) that the construction oracle is built on.
//!
//! Because the layout permutations are **data-oblivious** (position
//! depends only on `n` and the layout, never on element values), any
//! payload array co-indexed with a key array can ride the same
//! permutation without ever being compared — the [`oblivious`] module
//! spells out the argument and provides the in-place co-permutation
//! ([`co_permute_by_gather`]) that `StaticMap<K, V>` is built on.

pub mod apply;
pub mod direct;
pub mod involution;
pub mod oblivious;
pub mod shared;

pub use apply::apply_out_of_place;
pub use direct::{
    fits_scratch, permute_direct, unshuffle_units, Picker, SCRATCH_BYTES, UNIT_MAP_BITS,
};
pub use involution::apply_involution_range;
pub use oblivious::co_permute_by_gather;
pub use shared::{SharedSlice, MOVE_COST_NS};
