//! Index-range algebra for FRODO's I/O mapping derivation.
//!
//! Data-intensive Simulink blocks operate on dense tensors. FRODO's central
//! analysis asks, for each block: *which elements of my output are actually
//! consumed downstream, and therefore which elements of my inputs do I need?*
//! This crate provides the machinery to answer that question exactly:
//!
//! - [`Interval`] — a half-open index range `[start, end)`.
//! - [`IndexSet`] — a canonical union of disjoint intervals over flattened
//!   (row-major) element indices, with the usual set algebra. Every
//!   operation returns a fresh set; a set of at most one interval is
//!   stored inline, so the common single-run range never allocates.
//! - [`Shape`] — scalar / vector / matrix tensor shapes.
//! - [`PortMap`] — the *I/O mapping* of one (output-request → input-requirement)
//!   edge of a block, as recorded in the block property library;
//!   [`PortMap::apply`] is the one way to apply it.
//!
//! # Example
//!
//! Deriving the input requirement of a `Selector` block that extracts
//! elements `5..55` of a 60-element signal, when the downstream consumers
//! need its full 50-element output:
//!
//! ```
//! use frodo_ranges::{IndexSet, PortMap};
//!
//! let selector = PortMap::shift(5, 60);
//! let request = IndexSet::from_range(0, 50);
//! let needed = selector.apply(&request);
//! assert_eq!(needed, IndexSet::from_range(5, 55));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod indexset;
mod interval;
mod mapping;
mod shape;

pub use indexset::IndexSet;
pub use interval::Interval;
pub use mapping::PortMap;
pub use shape::Shape;
