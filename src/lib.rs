//! # frodo — redundancy-eliminating code generation for Simulink models
//!
//! A Rust reproduction of *"Efficient Code Generation for Data-Intensive
//! Simulink Models via Redundancy Elimination"* (DAC 2024). This facade
//! crate re-exports the whole pipeline:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`ranges`] | `frodo-ranges` | index-set algebra and I/O mappings |
//! | [`model`] | `frodo-model` | model IR + block property library |
//! | [`graph`] | `frodo-graph` | dataflow graph + scheduling |
//! | [`slx`] | `frodo-slx` | `.slx` (ZIP+XML) and `.mdl` file formats |
//! | [`core`] | `frodo-core` | Algorithm 1: calculation range determination |
//! | [`codegen`] | `frodo-codegen` | loop IR, generator styles, C emission |
//! | [`sim`] | `frodo-sim` | reference simulator, VM, cost models, native runs |
//! | [`benchmodels`] | `frodo-benchmodels` | the paper's Table-1 suite |
//! | [`bench`] | `frodo-bench` | benchmark harness + cost-model calibration |
//! | [`driver`] | `frodo-driver` | batch compile service: batch threads, daemon pool, artifact cache, metrics |
//! | [`serve`] | `frodo-serve` | persistent compile daemon: NDJSON socket protocol, admission control |
//! | [`obs`] | `frodo-obs` | observability: trace spans, counters, stage timings, NDJSON export |
//! | [`verify`] | `frodo-verify` | model lint + range-soundness checker (translation validation) |
//!
//! # Quickstart
//!
//! ```
//! use frodo::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Figure-1 model: full convolution + same-conv selector.
//! let mut m = Model::new("quick");
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
//! // only the 50 selected outputs [5, 55) are computed; the 40 whose
//! // 11-term window lies inside the input carry no boundary test
//! assert!(c_code.contains("for (int k = 5; k < 10; ++k)"));
//! assert!(c_code.contains("for (int k = 10; k < 50; ++k)"));
//! assert!(c_code.contains("for (int k = 50; k < 55; ++k)"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use frodo_bench as bench;
pub use frodo_benchmodels as benchmodels;
pub use frodo_codegen as codegen;
pub use frodo_core as core;
pub use frodo_driver as driver;
pub use frodo_graph as graph;
pub use frodo_model as model;
pub use frodo_obs as obs;
pub use frodo_ranges as ranges;
pub use frodo_serve as serve;
pub use frodo_sim as sim;
pub use frodo_slx as slx;
pub use frodo_verify as verify;

/// One-stop imports for the common pipeline.
pub mod prelude {
    pub use frodo_codegen::{emit_c, emit_c_harness, generate, GeneratorStyle};
    pub use frodo_core::{Analysis, RangeOptions};
    pub use frodo_driver::{CompileOptions, CompileService, JobSpec, ServiceConfig};
    pub use frodo_graph::Dfg;
    pub use frodo_model::{
        Block, BlockKind, Model, ModelError, RelOp, RoundMode, SelectorMode, Tensor,
    };
    pub use frodo_obs::{StageTimings, Trace};
    pub use frodo_ranges::{IndexSet, Interval, PortMap, Shape};
    pub use frodo_sim::{CostModel, MemoryReport, ReferenceSimulator, Vm};
    pub use frodo_verify::{Diagnostic, Severity, SoundnessReport};
}
