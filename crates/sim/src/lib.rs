//! Execution substrate for the FRODO evaluation.
//!
//! The paper measures generated code on physical x86 and ARM testbeds with
//! GCC and Clang. This crate provides the equivalents we can run here:
//!
//! - [`ReferenceSimulator`] — direct model-semantics evaluation (the
//!   "model simulation" oracle the paper validates generated code against).
//! - [`Vm`] — an interpreter for the loop IR, bit-equivalent to the emitted
//!   C, used to check every generator style against the oracle. It is not
//!   a timer: interpretation costs say nothing about the C's.
//! - [`CostModel`] — deterministic per-statement cost estimation
//!   parameterized by architecture (512-bit vs 128-bit SIMD) and compiler
//!   profile (GCC-like vs Clang-like vectorizers), replacing wall clocks for
//!   the configurations this host cannot run (Clang columns, ARM rows).
//! - [`native`] — real `gcc -O3` compile-and-run for the x86/GCC column,
//!   and the self-profiling runs `frodo calibrate` joins against the cost
//!   model.
//! - [`MemoryReport`] — static memory accounting for the paper's §5 study.
//! - [`workload`] — deterministic random input generation.
//! - [`rng`] — the vendored SplitMix64 generator behind every random
//!   workload in the workspace (no external `rand` dependency).
//!
//! # Example
//!
//! ```
//! use frodo_codegen::{generate, GeneratorStyle};
//! use frodo_core::Analysis;
//! use frodo_model::{Block, BlockKind, Model, Tensor};
//! use frodo_ranges::Shape;
//! use frodo_sim::{ReferenceSimulator, Vm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Model::new("gain");
//! let i = m.add(Block::new("i", BlockKind::Inport { index: 0, shape: Shape::Vector(4) }));
//! let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
//! let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
//! m.connect(i, 0, g, 0)?;
//! m.connect(g, 0, o, 0)?;
//! let analysis = Analysis::run(m)?;
//!
//! let input = Tensor::vector(vec![1.0, 2.0, 3.0, 4.0]);
//! let mut reference = ReferenceSimulator::new(analysis.dfg().clone());
//! let expected = reference.step(&[input.clone()])?;
//!
//! let program = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
//! let mut vm = Vm::new(&program);
//! let got = vm.step(&program, &[input.data().to_vec()]);
//! assert_eq!(got[0], expected[0].data());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod memory;
pub mod native;
mod reference;
pub mod rng;
mod vm;
pub mod workload;

pub use cost::{program_flops, stmt_flops, Arch, CompilerProfile, CostModel};
pub use memory::MemoryReport;
pub use reference::{ReferenceSimulator, SimError};
pub use vm::Vm;
