//! Simulink model intermediate representation for FRODO.
//!
//! This crate defines the in-memory form of a Simulink model as FRODO's
//! *model parse* stage produces it: blocks ([`Block`], [`BlockKind`]) with
//! typed parameters, port-accurate connections ([`Connection`]) indexed per
//! port in one pass ([`PortTable`]), hierarchical subsystems with
//! flattening ([`Model::flattened`]), one content walk that feeds every
//! field into a [`std::hash::Hasher`] ([`Model::digest_into`]), and the
//! **block property library** ([`proplib`]) that records, per block type
//! and parameters, the output-shape rules and the I/O mappings used by
//! redundancy elimination.
//!
//! # Example
//!
//! Build the paper's Figure-1 motivating model — a full convolution whose
//! output is truncated by a `Selector` back to a same-convolution:
//!
//! ```
//! use frodo_model::{Block, BlockKind, Model, SelectorMode, Tensor};
//! use frodo_ranges::Shape;
//!
//! # fn main() -> Result<(), frodo_model::ModelError> {
//! let mut m = Model::new("Convolution");
//! let input = m.add(Block::new("In", BlockKind::Inport { index: 0, shape: Shape::Vector(50) }));
//! let kernel = m.add(Block::new("Kernel", BlockKind::Constant {
//!     value: Tensor::vector(vec![0.25; 11]),
//! }));
//! let conv = m.add(Block::new("Conv", BlockKind::Convolution));
//! let sel = m.add(Block::new("Sel", BlockKind::Selector {
//!     mode: SelectorMode::StartEnd { start: 5, end: 55 },
//! }));
//! let out = m.add(Block::new("Out", BlockKind::Outport { index: 0 }));
//! m.connect(input, 0, conv, 0)?;
//! m.connect(kernel, 0, conv, 1)?;
//! m.connect(conv, 0, sel, 0)?;
//! m.connect(sel, 0, out, 0)?;
//! let shapes = m.infer_shapes()?;
//! assert_eq!(shapes.output(conv, 0), Shape::Vector(60)); // full padding: 50+11-1
//! assert_eq!(shapes.output(sel, 0), Shape::Vector(50));  // truncated back
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod digest;
mod error;
mod flatten;
mod port;
mod ports;
pub mod proplib;
mod system;
mod tensor;
mod validate;

pub use block::{Block, BlockKind, LogicOp, RelOp, RoundMode, SelectorMode};
pub use error::ModelError;
pub use port::{BlockId, InPort, OutPort};
pub use ports::PortTable;
pub use system::{Connection, Connector, Model, ShapeTable};
pub use tensor::Tensor;
