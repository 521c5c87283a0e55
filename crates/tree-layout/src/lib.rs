//! # ist-layout
//!
//! Index arithmetic for the three implicit search tree layouts studied in
//! the paper: **BST** (level order of a complete binary search tree),
//! **B-tree** (level order of a complete `(B+1)`-ary search tree), and
//! **van Emde Boas** (recursive cache-oblivious order).
//!
//! For each layout this crate provides the *position map*
//! `sorted index → layout index` for perfect trees, and one
//! [`CompleteShape`] extends all three to the `[perfect | overflow]`
//! format of any size (see [`complete`]): a binary tree is the B-tree
//! with one key per node, so BST and vEB are its `b = 1` case. These
//! maps define the permutations that the construction algorithms in
//! `ist-core` realize in place; here they double as the **test oracle**
//! (apply the map out of place and compare) and as the navigation
//! arithmetic used by `ist-query` during searches.
//!
//! All maps use 0-indexed array positions externally; the classical
//! 1-indexed formulations (heap arithmetic, in-order trailing-zero tricks)
//! are internal.

#![forbid(unsafe_code)]

pub mod bst;
pub mod btree;
pub mod complete;
pub mod veb;
pub mod walk;

pub use bst::bst_pos;
pub use btree::btree_pos;
pub use complete::CompleteShape;
pub use veb::{veb_levels, veb_order, veb_pos, veb_split, VebCursor, VebLevel, VEB_ORDER_DEPTH};
pub use walk::{BtreeWalk, VebWalk};
