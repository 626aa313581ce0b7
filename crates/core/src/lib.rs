//! FRODO's primary contribution: redundancy elimination for data-intensive
//! Simulink models.
//!
//! The pipeline (paper Figure 2) has two components:
//!
//! 1. **Model analysis** — [`Analysis::run`] flattens the model, constructs
//!    the dataflow graph, and derives the I/O mapping of every block from the
//!    block property library ([`IoMappings`]).
//! 2. **Redundancy elimination** — [`determine_ranges`] implements the
//!    paper's Algorithm 1: starting from the graph's sinks it recursively
//!    determines every block's *calculation range*; blocks whose range
//!    shrank below their full output are *optimizable*
//!    ([`Analysis::is_optimizable`]) and receive concise code downstream.
//!
//! [`determine_ranges`] is the paper's recursion from the roots. An
//! independent reverse-topological sweep, [`reference_ranges`], is kept
//! only as the reference the agreement tests compare it against.
//!
//! # Example
//!
//! The paper's Figure-1 convolution model: the `Selector` keeps only outputs
//! `[5, 55)` of the full convolution, so the `Convolution` block's
//! calculation range shrinks from 60 to 50 elements:
//!
//! ```
//! use frodo_core::Analysis;
//! use frodo_model::{Block, BlockKind, Model, SelectorMode, Tensor};
//! use frodo_ranges::{IndexSet, Shape};
//!
//! # fn main() -> Result<(), frodo_model::ModelError> {
//! let mut m = Model::new("Convolution");
//! let i = m.add(Block::new("in", BlockKind::Inport { index: 0, shape: Shape::Vector(50) }));
//! let k = m.add(Block::new("k", BlockKind::Constant { value: Tensor::vector(vec![0.1; 11]) }));
//! let c = m.add(Block::new("conv", BlockKind::Convolution));
//! let s = m.add(Block::new("sel", BlockKind::Selector {
//!     mode: SelectorMode::StartEnd { start: 5, end: 55 },
//! }));
//! let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
//! m.connect(i, 0, c, 0)?;
//! m.connect(k, 0, c, 1)?;
//! m.connect(c, 0, s, 0)?;
//! m.connect(s, 0, o, 0)?;
//!
//! let analysis = Analysis::run(m)?;
//! let conv = analysis.dfg().model().find("conv").unwrap();
//! assert_eq!(analysis.range(conv, 0), &IndexSet::from_range(5, 55));
//! assert!(analysis.is_optimizable(conv));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm1;
mod classify;
pub mod explain;
pub mod incremental;
mod iomap;
mod pipeline;

pub use algorithm1::{determine_ranges, full_ranges, reference_ranges, RangeOptions, Ranges};
pub use classify::{BlockStat, OptimizationReport};
pub use iomap::IoMappings;
pub use pipeline::Analysis;
