//! Static analysis and translation validation for the FRODO pipeline.
//!
//! Three layers, all producing structured [`Diagnostic`]s with stable
//! `F0xx`–`F2xx` codes (see [`RULES`]) and human / JSON / SARIF renderers:
//!
//! 1. **Model lint** ([`lint`]) — structural checks over the flattened
//!    model and its dataflow graph: unconnected or multiply-driven inputs,
//!    shape mismatches, truncation parameters outside their input extents,
//!    delay-free cycles, and dead blocks whose calculation range from
//!    Algorithm 1 is empty.
//! 2. **Range soundness** ([`check_compile`] / [`check_program`]) — an
//!    element-level def-use abstract interpretation of the lowered
//!    statement IR using the [`frodo_ranges::IndexSet`] algebra: no
//!    uninitialized reads, no out-of-bounds indices, and each model
//!    output's final written set *exactly equal* to the range Algorithm 1
//!    demanded. A clean pass is a per-compilation certificate that
//!    redundancy elimination did not change observable outputs.
//! 3. **Dataflow analyses** ([`analyze_compile`] / [`analyze_program`],
//!    the opt-in `analyze` pipeline stage) — a generic forward/backward
//!    [`dataflow`] engine with two clients: per-buffer value intervals
//!    flagging numeric hazards (`F201`–`F203`) and a backward-demand
//!    residual-redundancy detector (`F204`).
//!
//! # Example
//!
//! ```
//! use frodo_core::Analysis;
//! use frodo_codegen::{generate, GeneratorStyle};
//! use frodo_model::{Block, BlockKind, Model};
//! use frodo_ranges::Shape;
//!
//! # fn main() -> Result<(), frodo_model::ModelError> {
//! let mut m = Model::new("demo");
//! let i = m.add(Block::new("in", BlockKind::Inport { index: 0, shape: Shape::Vector(8) }));
//! let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
//! let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
//! m.connect(i, 0, g, 0)?;
//! m.connect(g, 0, o, 0)?;
//!
//! assert!(frodo_verify::lint(&m).is_empty());
//!
//! let analysis = Analysis::run(m)?;
//! let program = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
//! let report = frodo_verify::check_compile(&analysis, &program);
//! assert!(report.is_sound());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod dataflow;
mod diag;
mod lint;
mod soundness;

pub use analyze::{analyze_compile, analyze_program, AnalyzeReport};
pub use diag::{
    from_model_error, render_human, render_json, render_sarif, rule, Diagnostic, Rule, Severity,
    RULES,
};
pub use lint::lint;
pub use soundness::{
    check_compile, check_program, check_program_invocations, output_demands, OutputDemand,
    SoundnessReport,
};
