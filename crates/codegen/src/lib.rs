//! Code generation for FRODO and the comparison generators.
//!
//! Lowers an analyzed model ([`frodo_core::Analysis`]) to a **loop IR**
//! ([`lir::Program`]) and emits deployable C from it. Four generator styles
//! are provided ([`GeneratorStyle`]):
//!
//! - [`GeneratorStyle::Frodo`] — the paper's contribution: every block is
//!   lowered restricted to its *calculation range*, using the element-level
//!   code library's single-element and consecutive-run snippets.
//! - [`GeneratorStyle::SimulinkCoder`] — Embedded-Coder-like baseline:
//!   full ranges, convolution emitted as a full loop with per-element
//!   *boundary judgments* (the paper's Figure 1 green code), conservative
//!   vectorization.
//! - [`GeneratorStyle::DfSynth`] — DFSynth-like baseline: full ranges with
//!   clean branch structure, no range optimization.
//! - [`GeneratorStyle::Hcg`] — HCG-like baseline: full ranges with explicit
//!   SIMD batching hints on vectorizable loops.
//!
//! # Example
//!
//! ```
//! use frodo_codegen::{generate, emit_c, GeneratorStyle};
//! use frodo_core::Analysis;
//! use frodo_model::{Block, BlockKind, Model, SelectorMode, Tensor};
//! use frodo_ranges::Shape;
//!
//! # fn main() -> Result<(), frodo_model::ModelError> {
//! let mut m = Model::new("conv");
//! let i = m.add(Block::new("in", BlockKind::Inport { index: 0, shape: Shape::Vector(50) }));
//! let k = m.add(Block::new("k", BlockKind::Constant { value: Tensor::vector(vec![0.1; 11]) }));
//! let c = m.add(Block::new("conv", BlockKind::Convolution));
//! let s = m.add(Block::new("sel", BlockKind::Selector {
//!     mode: SelectorMode::StartEnd { start: 5, end: 55 } }));
//! let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
//! m.connect(i, 0, c, 0)?;
//! m.connect(k, 0, c, 1)?;
//! m.connect(c, 0, s, 0)?;
//! m.connect(s, 0, o, 0)?;
//!
//! let analysis = Analysis::run(m)?;
//! let program = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
//! let c_code = emit_c(&program);
//! assert!(c_code.contains("void conv_step"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
mod emit_c;
mod fragment;
pub mod library;
pub mod lir;
mod lower;
pub mod optimize;
mod style;

pub use emit_c::{
    emit_c, emit_c_harness, emit_c_harness_with, emit_c_traced, emit_c_with, CEmitOptions,
    VectorMode,
};
pub use fragment::{generate_from_fragments, FragmentCache, FragmentStats};
pub use lower::{generate, generate_with, LowerOptions, DEFAULT_COALESCE_GAP};
pub use style::GeneratorStyle;

/// Revision of the C the emitter writes. The artifact cache digests it
/// into every key, so a change to the C emitted for an unchanged model and
/// unchanged options must bump it: otherwise a cache directory filled
/// before the change keeps serving the old C. `tests/emitted_c.rs` records
/// the revision next to its digests and refuses to re-bless changed
/// digests at the same revision.
///
/// Revision 2 peels the window loops at their boundaries.
pub const EMIT_REVISION: u32 = 2;
