//! The content walk behind every model digest: each field of a [`Model`]
//! fed by value into a [`Hasher`].
//!
//! The compilation driver keys its artifact cache by this walk over the
//! flattened model, and the incremental analysis keys each region by the
//! walk over its blocks. The byte stream is fixed and
//! platform-independent:
//!
//! - names (of the model, of each block, of each block's type) as a `u64`
//!   byte length, then the bytes;
//! - every integer as a little-endian `u64`, every enum tag as one byte;
//! - every `f64` as its little-endian [`f64::to_bits`], so `-0.0` and
//!   `0.0`, which compare equal but emit different C, digest apart;
//! - a shape as a tag and its dimensions, a tensor as its shape and then
//!   its data, a list as its length and then its items;
//! - a subsystem as its model, recursively, and a connection as its two
//!   endpoints.
//!
//! Values go straight into the hasher; nothing is formatted or buffered.
//! The `match` over [`BlockKind`] has no wildcard arm, so a new block
//! kind does not compile until it is digested. The model types do not
//! implement [`std::hash::Hash`]: their derived `PartialEq` says
//! `0.0 == -0.0`, which a `Hash` must respect and a digest must not.

use crate::{Block, BlockKind, Model, SelectorMode, Tensor};
use frodo_ranges::Shape;
use std::hash::Hasher;

fn int<H: Hasher>(h: &mut H, v: usize) {
    h.write(&(v as u64).to_le_bytes());
}

fn float<H: Hasher>(h: &mut H, v: f64) {
    h.write(&v.to_bits().to_le_bytes());
}

fn tag<H: Hasher>(h: &mut H, t: u8) {
    h.write(&[t]);
}

fn name<H: Hasher>(h: &mut H, s: &str) {
    int(h, s.len());
    h.write(s.as_bytes());
}

fn ints<H: Hasher>(h: &mut H, vs: &[usize]) {
    int(h, vs.len());
    for &v in vs {
        int(h, v);
    }
}

fn floats<H: Hasher>(h: &mut H, vs: &[f64]) {
    int(h, vs.len());
    for &v in vs {
        float(h, v);
    }
}

fn shape<H: Hasher>(h: &mut H, s: Shape) {
    match s {
        Shape::Scalar => tag(h, 0),
        Shape::Vector(n) => {
            tag(h, 1);
            int(h, n);
        }
        Shape::Matrix(rows, cols) => {
            tag(h, 2);
            int(h, rows);
            int(h, cols);
        }
    }
}

impl Model {
    /// Feeds the model's name, every block (recursing into subsystems)
    /// and every connection into `h`, by value: names length-prefixed,
    /// integers as little-endian `u64`s, every `f64` by its bits. The
    /// stream is the same on every platform and toolchain, and two models
    /// give the same stream only if they are equal field by field, with
    /// `-0.0` and `0.0` told apart.
    pub fn digest_into<H: Hasher>(&self, h: &mut H) {
        name(h, self.name());
        int(h, self.blocks().len());
        for block in self.blocks() {
            block.digest_into(h);
        }
        int(h, self.connections().len());
        for c in self.connections() {
            int(h, c.from.block.index());
            int(h, c.from.port);
            int(h, c.to.block.index());
            int(h, c.to.port);
        }
    }
}

impl Block {
    /// Feeds the block's name and then its kind into `h`.
    pub fn digest_into<H: Hasher>(&self, h: &mut H) {
        name(h, &self.name);
        self.kind.digest_into(h);
    }
}

impl Tensor {
    fn digest_into<H: Hasher>(&self, h: &mut H) {
        shape(h, self.shape());
        floats(h, self.data());
    }
}

impl BlockKind {
    /// Feeds the kind's type name and then every parameter into `h`.
    pub fn digest_into<H: Hasher>(&self, h: &mut H) {
        name(h, self.type_name());
        match self {
            BlockKind::Inport { index, shape: s } => {
                int(h, *index);
                shape(h, *s);
            }
            BlockKind::Constant { value } => value.digest_into(h),
            BlockKind::Outport { index } => int(h, *index),
            BlockKind::Gain { gain } => float(h, *gain),
            BlockKind::Bias { bias } => float(h, *bias),
            BlockKind::Saturation { lower, upper } => {
                float(h, *lower);
                float(h, *upper);
            }
            BlockKind::Rounding { mode } => tag(h, *mode as u8),
            BlockKind::Relational { op } => tag(h, *op as u8),
            BlockKind::Logical { op } => tag(h, *op as u8),
            BlockKind::Switch { threshold } => float(h, *threshold),
            BlockKind::Reshape { shape: s } => shape(h, *s),
            BlockKind::Selector { mode } => match mode {
                SelectorMode::StartEnd { start, end } => {
                    tag(h, 0);
                    int(h, *start);
                    int(h, *end);
                }
                SelectorMode::IndexVector(indices) => {
                    tag(h, 1);
                    ints(h, indices);
                }
                SelectorMode::IndexPort { output_len } => {
                    tag(h, 2);
                    int(h, *output_len);
                }
            },
            BlockKind::Pad { left, right, value } => {
                int(h, *left);
                int(h, *right);
                float(h, *value);
            }
            BlockKind::Submatrix {
                row_start,
                row_end,
                col_start,
                col_end,
            } => {
                int(h, *row_start);
                int(h, *row_end);
                int(h, *col_start);
                int(h, *col_end);
            }
            BlockKind::Assignment { start } => int(h, *start),
            BlockKind::Mux { inputs } | BlockKind::Concatenate { inputs } => int(h, *inputs),
            BlockKind::Demux { sizes } => ints(h, sizes),
            BlockKind::FirFilter { coeffs } => floats(h, coeffs),
            BlockKind::MovingAverage { window } => int(h, *window),
            BlockKind::Downsample { factor, phase } => {
                int(h, *factor);
                int(h, *phase);
            }
            BlockKind::UnitDelay { initial } => initial.digest_into(h),
            BlockKind::Subsystem(model) => model.digest_into(h),
            BlockKind::Terminator
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
            | BlockKind::Add
            | BlockKind::Subtract
            | BlockKind::Multiply
            | BlockKind::Divide
            | BlockKind::Min
            | BlockKind::Max
            | BlockKind::Mod
            | BlockKind::SumOfElements
            | BlockKind::MeanOfElements
            | BlockKind::MinOfElements
            | BlockKind::MaxOfElements
            | BlockKind::DotProduct
            | BlockKind::MatrixMultiply
            | BlockKind::Transpose
            | BlockKind::Convolution
            | BlockKind::CumulativeSum
            | BlockKind::Difference => {}
        }
    }
}
