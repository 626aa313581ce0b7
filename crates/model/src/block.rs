//! Block definitions: the vocabulary of supported Simulink blocks.

use crate::Tensor;
use frodo_ranges::Shape;
use std::fmt;

/// Rounding modes of the `Rounding Function` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundMode {
    /// Round toward negative infinity.
    Floor,
    /// Round toward positive infinity.
    Ceil,
    /// Round to nearest (ties away from zero, like C `round`).
    Round,
    /// Round toward zero.
    Fix,
}

/// Comparison operators of the `Relational Operator` block (output 0.0/1.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// Operators of the `Logical Operator` block (inputs treated as booleans,
/// nonzero = true; output 0.0/1.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicOp {
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Exclusive or.
    Xor,
    /// Negation (unary).
    Not,
}

/// Selection modes of the `Selector` block (paper Figure 3(a)).
#[derive(Debug, Clone, PartialEq)]
pub enum SelectorMode {
    /// Select the half-open index range `[start, end)` of the input.
    StartEnd {
        /// First selected index.
        start: usize,
        /// One past the last selected index.
        end: usize,
    },
    /// Select the listed input indices, in order.
    IndexVector(Vec<usize>),
    /// Indices arrive on a second input port at runtime; the static I/O
    /// mapping must conservatively assume the whole input is needed.
    IndexPort {
        /// Number of elements selected (fixes the output shape).
        output_len: usize,
    },
}

/// Every block type understood by the generator.
///
/// The set covers the categories the paper names — math operation blocks,
/// matrix operation blocks, data-truncation blocks (`Selector`, `Pad`,
/// `Submatrix`), routing, reductions, and the complex DSP blocks
/// (`Convolution`, FIR filtering) that make models data-intensive.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockKind {
    // ---- sources ----
    /// Model input with a declared shape.
    Inport {
        /// Position among the model's inputs.
        index: usize,
        /// Declared signal shape.
        shape: Shape,
    },
    /// Compile-time constant value.
    Constant {
        /// The constant tensor.
        value: Tensor,
    },

    // ---- sinks ----
    /// Model output.
    Outport {
        /// Position among the model's outputs.
        index: usize,
    },
    /// Discards its input (classic dead-end sink).
    Terminator,

    // ---- unary elementwise math ----
    /// Multiply by a constant.
    Gain {
        /// The gain factor.
        gain: f64,
    },
    /// Add a constant.
    Bias {
        /// The additive bias.
        bias: f64,
    },
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Elementwise square.
    Square,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Hyperbolic tangent.
    Tanh,
    /// Unary minus.
    Negate,
    /// Multiplicative inverse.
    Reciprocal,
    /// Clamp into `[lower, upper]`.
    Saturation {
        /// Lower clamp bound.
        lower: f64,
        /// Upper clamp bound.
        upper: f64,
    },
    /// Rounding function.
    Rounding {
        /// Selected rounding mode.
        mode: RoundMode,
    },

    // ---- binary elementwise math (scalar broadcast allowed) ----
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Subtract,
    /// Elementwise multiplication.
    Multiply,
    /// Elementwise division.
    Divide,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Elementwise floating-point modulo (C `fmod` semantics).
    Mod,
    /// Elementwise comparison producing 0.0/1.0.
    Relational {
        /// The comparison operator.
        op: RelOp,
    },
    /// Elementwise boolean logic on 0.0/1.0 signals.
    Logical {
        /// The logical operator ([`LogicOp::Not`] is unary).
        op: LogicOp,
    },
    /// Three-port switch: `out = control >= threshold ? first : second`.
    Switch {
        /// Control threshold.
        threshold: f64,
    },

    // ---- reductions ----
    /// Sum of all elements (scalar output).
    SumOfElements,
    /// Mean of all elements (scalar output).
    MeanOfElements,
    /// Minimum element (scalar output).
    MinOfElements,
    /// Maximum element (scalar output).
    MaxOfElements,
    /// Dot product of two equal-length signals (scalar output).
    DotProduct,

    // ---- matrix ----
    /// Matrix product `(r×k)·(k×c) → (r×c)`.
    MatrixMultiply,
    /// Matrix transpose (for real data this equals Hermitian transpose).
    Transpose,
    /// Row-major reinterpretation to a new shape with equal element count.
    Reshape {
        /// Target shape.
        shape: Shape,
    },

    // ---- data truncation & routing ----
    /// Data-truncation: pick elements of the input (paper Figure 3).
    Selector {
        /// How indices are chosen.
        mode: SelectorMode,
    },
    /// Data-truncation in reverse: surround the input with padding values.
    Pad {
        /// Padding elements prepended.
        left: usize,
        /// Padding elements appended.
        right: usize,
        /// The padding value.
        value: f64,
    },
    /// Data-truncation: extract a rectangular region of a matrix.
    Submatrix {
        /// First selected row.
        row_start: usize,
        /// One past the last selected row.
        row_end: usize,
        /// First selected column.
        col_start: usize,
        /// One past the last selected column.
        col_end: usize,
    },
    /// Data-truncation's dual: pass the first input through with the
    /// segment `[start, start + patch_len)` replaced by the second input
    /// (Simulink's `Assignment` block).
    Assignment {
        /// First replaced element.
        start: usize,
    },
    /// Concatenate `inputs` signals into one vector.
    Mux {
        /// Number of input ports.
        inputs: usize,
    },
    /// Split a vector into `sizes.len()` consecutive pieces.
    Demux {
        /// Element counts of the output pieces.
        sizes: Vec<usize>,
    },
    /// Vector concatenation (same semantics as [`BlockKind::Mux`]; Simulink
    /// distinguishes them, so the parser must too).
    Concatenate {
        /// Number of input ports.
        inputs: usize,
    },

    // ---- complex / DSP ----
    /// Full (padding) convolution of two vectors: `len = n + m - 1`
    /// (the implementation the paper's Figure 1 shows in green).
    Convolution,
    /// Direct-form FIR filter with constant coefficients; output length
    /// equals input length (zero initial conditions).
    FirFilter {
        /// Filter taps `b[0..]`.
        coeffs: Vec<f64>,
    },
    /// Trailing moving average over `window` samples (zero-padded start).
    MovingAverage {
        /// Window length in samples.
        window: usize,
    },
    /// Keep every `factor`-th sample starting at `phase` (decimation).
    Downsample {
        /// Decimation factor (≥ 1).
        factor: usize,
        /// Index of the first kept sample.
        phase: usize,
    },
    /// Running (cumulative) sum along the signal.
    CumulativeSum,
    /// First difference: `out[0] = in[0]`, `out[k] = in[k] - in[k-1]`.
    Difference,
    /// One-step delay with state (`z⁻¹`). The initial condition fixes the
    /// state shape, which lets shape inference resolve feedback loops.
    UnitDelay {
        /// State emitted on the first step; its shape is the signal shape.
        initial: Tensor,
    },

    // ---- hierarchy ----
    /// A nested model; its `Inport`/`Outport` blocks define this block's ports.
    Subsystem(Box<crate::Model>),
}

impl BlockKind {
    /// Stable lowercase identifier used by file formats and diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            BlockKind::Inport { .. } => "inport",
            BlockKind::Constant { .. } => "constant",
            BlockKind::Outport { .. } => "outport",
            BlockKind::Terminator => "terminator",
            BlockKind::Gain { .. } => "gain",
            BlockKind::Bias { .. } => "bias",
            BlockKind::Abs => "abs",
            BlockKind::Sqrt => "sqrt",
            BlockKind::Square => "square",
            BlockKind::Exp => "exp",
            BlockKind::Log => "log",
            BlockKind::Sin => "sin",
            BlockKind::Cos => "cos",
            BlockKind::Tanh => "tanh",
            BlockKind::Negate => "negate",
            BlockKind::Reciprocal => "reciprocal",
            BlockKind::Saturation { .. } => "saturation",
            BlockKind::Rounding { .. } => "rounding",
            BlockKind::Add => "add",
            BlockKind::Subtract => "subtract",
            BlockKind::Multiply => "multiply",
            BlockKind::Divide => "divide",
            BlockKind::Min => "min",
            BlockKind::Max => "max",
            BlockKind::Mod => "mod",
            BlockKind::Relational { .. } => "relational",
            BlockKind::Logical { .. } => "logical",
            BlockKind::Switch { .. } => "switch",
            BlockKind::SumOfElements => "sum_of_elements",
            BlockKind::MeanOfElements => "mean_of_elements",
            BlockKind::MinOfElements => "min_of_elements",
            BlockKind::MaxOfElements => "max_of_elements",
            BlockKind::DotProduct => "dot_product",
            BlockKind::MatrixMultiply => "matrix_multiply",
            BlockKind::Transpose => "transpose",
            BlockKind::Reshape { .. } => "reshape",
            BlockKind::Selector { .. } => "selector",
            BlockKind::Pad { .. } => "pad",
            BlockKind::Submatrix { .. } => "submatrix",
            BlockKind::Assignment { .. } => "assignment",
            BlockKind::Mux { .. } => "mux",
            BlockKind::Demux { .. } => "demux",
            BlockKind::Concatenate { .. } => "concatenate",
            BlockKind::Convolution => "convolution",
            BlockKind::FirFilter { .. } => "fir_filter",
            BlockKind::MovingAverage { .. } => "moving_average",
            BlockKind::Downsample { .. } => "downsample",
            BlockKind::CumulativeSum => "cumulative_sum",
            BlockKind::Difference => "difference",
            BlockKind::UnitDelay { .. } => "unit_delay",
            BlockKind::Subsystem(_) => "subsystem",
        }
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        match self {
            BlockKind::Inport { .. } | BlockKind::Constant { .. } => 0,
            BlockKind::Outport { .. }
            | BlockKind::Terminator
            | BlockKind::Gain { .. }
            | BlockKind::Bias { .. }
            | BlockKind::Abs
            | BlockKind::Sqrt
            | BlockKind::Square
            | BlockKind::Exp
            | BlockKind::Log
            | BlockKind::Sin
            | BlockKind::Cos
            | BlockKind::Tanh
            | BlockKind::Negate
            | BlockKind::Reciprocal
            | BlockKind::Saturation { .. }
            | BlockKind::Rounding { .. }
            | BlockKind::SumOfElements
            | BlockKind::MeanOfElements
            | BlockKind::MinOfElements
            | BlockKind::MaxOfElements
            | BlockKind::Transpose
            | BlockKind::Reshape { .. }
            | BlockKind::Pad { .. }
            | BlockKind::Submatrix { .. }
            | BlockKind::FirFilter { .. }
            | BlockKind::MovingAverage { .. }
            | BlockKind::Downsample { .. }
            | BlockKind::CumulativeSum
            | BlockKind::Difference
            | BlockKind::UnitDelay { .. }
            | BlockKind::Demux { .. } => 1,
            BlockKind::Logical { op } => {
                if *op == LogicOp::Not {
                    1
                } else {
                    2
                }
            }
            BlockKind::Selector { mode } => match mode {
                SelectorMode::IndexPort { .. } => 2,
                _ => 1,
            },
            BlockKind::Add
            | BlockKind::Subtract
            | BlockKind::Multiply
            | BlockKind::Divide
            | BlockKind::Min
            | BlockKind::Max
            | BlockKind::Mod
            | BlockKind::Relational { .. }
            | BlockKind::DotProduct
            | BlockKind::MatrixMultiply
            | BlockKind::Assignment { .. }
            | BlockKind::Convolution => 2,
            BlockKind::Switch { .. } => 3,
            BlockKind::Mux { inputs } | BlockKind::Concatenate { inputs } => *inputs,
            BlockKind::Subsystem(model) => model.num_inports(),
        }
    }

    /// Number of output ports.
    pub fn num_outputs(&self) -> usize {
        match self {
            BlockKind::Outport { .. } | BlockKind::Terminator => 0,
            BlockKind::Demux { sizes } => sizes.len(),
            BlockKind::Subsystem(model) => model.num_outports(),
            _ => 1,
        }
    }

    /// Whether this is one of the paper's *data-truncation* blocks —
    /// `Selector`, `Pad`, or `Submatrix` — whose presence makes upstream
    /// blocks candidates for redundancy elimination.
    pub fn is_truncation(&self) -> bool {
        matches!(
            self,
            BlockKind::Selector { .. }
                | BlockKind::Pad { .. }
                | BlockKind::Submatrix { .. }
                | BlockKind::Assignment { .. }
        )
    }

    /// Whether the block carries state between invocations.
    pub fn is_stateful(&self) -> bool {
        matches!(self, BlockKind::UnitDelay { .. })
    }
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.type_name())
    }
}

/// A named instance of a [`BlockKind`] inside a [`Model`](crate::Model).
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Human-readable unique-ish name (used by file formats and diagnostics).
    pub name: String,
    /// The block's type and parameters.
    pub kind: BlockKind,
}

impl Block {
    /// Creates a block with a name and kind.
    pub fn new(name: impl Into<String>, kind: BlockKind) -> Self {
        Block {
            name: name.into(),
            kind,
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <{}>", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities_match_block_semantics() {
        assert_eq!(BlockKind::Add.num_inputs(), 2);
        assert_eq!(BlockKind::Abs.num_inputs(), 1);
        assert_eq!(BlockKind::Switch { threshold: 0.0 }.num_inputs(), 3);
        assert_eq!(BlockKind::Mux { inputs: 4 }.num_inputs(), 4);
        assert_eq!(BlockKind::Demux { sizes: vec![2, 3] }.num_outputs(), 2);
        assert_eq!(BlockKind::Terminator.num_outputs(), 0);
        assert_eq!(
            BlockKind::Constant {
                value: Tensor::scalar(1.0)
            }
            .num_inputs(),
            0
        );
    }

    #[test]
    fn logical_not_is_unary() {
        assert_eq!(BlockKind::Logical { op: LogicOp::Not }.num_inputs(), 1);
        assert_eq!(BlockKind::Logical { op: LogicOp::And }.num_inputs(), 2);
    }

    #[test]
    fn selector_index_port_has_second_input() {
        let s = BlockKind::Selector {
            mode: SelectorMode::IndexPort { output_len: 5 },
        };
        assert_eq!(s.num_inputs(), 2);
        let s = BlockKind::Selector {
            mode: SelectorMode::StartEnd { start: 0, end: 5 },
        };
        assert_eq!(s.num_inputs(), 1);
    }

    #[test]
    fn truncation_classification_matches_paper() {
        assert!(BlockKind::Selector {
            mode: SelectorMode::StartEnd { start: 0, end: 1 }
        }
        .is_truncation());
        assert!(BlockKind::Pad {
            left: 1,
            right: 1,
            value: 0.0
        }
        .is_truncation());
        assert!(BlockKind::Submatrix {
            row_start: 0,
            row_end: 1,
            col_start: 0,
            col_end: 1
        }
        .is_truncation());
        assert!(!BlockKind::Convolution.is_truncation());
        assert!(!BlockKind::Add.is_truncation());
    }

    #[test]
    fn stateful_classification() {
        assert!(BlockKind::UnitDelay {
            initial: Tensor::scalar(0.0)
        }
        .is_stateful());
        assert!(!BlockKind::Gain { gain: 2.0 }.is_stateful());
    }

    #[test]
    fn type_names_are_stable() {
        assert_eq!(BlockKind::Convolution.type_name(), "convolution");
        assert_eq!(
            BlockKind::Selector {
                mode: SelectorMode::IndexVector(vec![0])
            }
            .type_name(),
            "selector"
        );
    }

    #[test]
    fn display_shows_name_and_type() {
        let b = Block::new("Conv1", BlockKind::Convolution);
        assert_eq!(b.to_string(), "Conv1 <convolution>");
    }
}
