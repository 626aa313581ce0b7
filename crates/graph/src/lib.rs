//! Dataflow-graph construction and scheduling for FRODO.
//!
//! The second and third steps of code generation (paper §2): *dataflow
//! analysis* derives the connectivity between blocks, and *scheduling* infers
//! the translation sequence. [`Dfg`] bundles a flattened model, its inferred
//! shapes, and its port tables; [`Dfg::schedule`] produces the
//! topological translation order used by code synthesis, treating stateful
//! blocks (`UnitDelay`) as sequence points so feedback loops remain valid.
//!
//! # Example
//!
//! ```
//! use frodo_graph::Dfg;
//! use frodo_model::{Block, BlockKind, Model};
//! use frodo_ranges::Shape;
//!
//! # fn main() -> Result<(), frodo_model::ModelError> {
//! let mut m = Model::new("chain");
//! let i = m.add(Block::new("i", BlockKind::Inport { index: 0, shape: Shape::Vector(8) }));
//! let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
//! let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
//! m.connect(i, 0, g, 0)?;
//! m.connect(g, 0, o, 0)?;
//! let dfg = Dfg::new(m, &frodo_obs::Trace::noop())?;
//! assert_eq!(dfg.roots().len(), 1);
//! let order = dfg.schedule()?;
//! assert_eq!(order.len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dfg;
mod region;
mod topo;

pub use dfg::Dfg;
pub use region::{partition_regions, RegionPartition};
pub use topo::{analysis_levels, toposort};
