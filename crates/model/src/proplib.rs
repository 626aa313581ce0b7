//! The **block property library**: per block type and parameters, the output
//! shape rules and the I/O mappings that drive redundancy elimination.
//!
//! The paper (§3.1) describes this library as recording, for every supported
//! block, "critical details such as type, parameters, and mapping", noting
//! that "even for actors of the same type, the contained mapping can vary
//! depending on the specific parameters" (e.g. a `Selector` in Start–End mode
//! versus IndexPort mode). [`output_shapes`] encodes the shape rules;
//! [`io_map`] encodes the mappings; [`infer_shapes`] runs the shape rules
//! over a whole model.

use crate::{
    Block, BlockId, BlockKind, InPort, LogicOp, Model, ModelError, OutPort, PortTable,
    SelectorMode, ShapeTable,
};
use frodo_ranges::{PortMap, Shape};

/// Result of a shape rule: one shape per output port.
type ShapeResult = Result<Vec<Shape>, String>;

fn broadcast(a: Shape, b: Shape) -> Result<Shape, String> {
    match (a.is_scalar(), b.is_scalar()) {
        (true, _) => Ok(b),
        (_, true) => Ok(a),
        _ if a == b => Ok(a),
        _ => Err(format!("incompatible operand shapes {a} and {b}")),
    }
}

fn expect_vector(s: Shape, what: &str) -> Result<usize, String> {
    match s {
        Shape::Vector(n) => Ok(n),
        Shape::Scalar => Ok(1),
        Shape::Matrix(_, _) => Err(format!("{what} must be a vector, got {s}")),
    }
}

/// Computes the output shapes of a block from its input shapes.
///
/// This is the shape-rule half of the block property library. `in_shapes`
/// must have exactly [`BlockKind::num_inputs`] entries.
///
/// # Errors
///
/// Returns a human-readable reason when the operand shapes are incompatible
/// with the block's parameters.
pub fn output_shapes(kind: &BlockKind, in_shapes: &[Shape]) -> ShapeResult {
    debug_assert_eq!(in_shapes.len(), kind.num_inputs());
    match kind {
        BlockKind::Inport { shape, .. } => Ok(vec![*shape]),
        BlockKind::Constant { value } => Ok(vec![value.shape()]),
        BlockKind::Outport { .. } | BlockKind::Terminator => Ok(vec![]),

        BlockKind::Gain { .. }
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
        | BlockKind::Rounding { .. } => Ok(vec![in_shapes[0]]),

        BlockKind::Add
        | BlockKind::Subtract
        | BlockKind::Multiply
        | BlockKind::Divide
        | BlockKind::Min
        | BlockKind::Max
        | BlockKind::Mod
        | BlockKind::Relational { .. } => Ok(vec![broadcast(in_shapes[0], in_shapes[1])?]),

        BlockKind::Logical { op } => {
            if *op == LogicOp::Not {
                Ok(vec![in_shapes[0]])
            } else {
                Ok(vec![broadcast(in_shapes[0], in_shapes[1])?])
            }
        }

        BlockKind::Switch { .. } => {
            let data = broadcast(in_shapes[0], in_shapes[2])?;
            let out = broadcast(data, in_shapes[1])?;
            // control may be scalar (broadcast) or match the data shape, but
            // the output shape is governed by the data operands
            if !in_shapes[1].is_scalar() && in_shapes[1] != data {
                return Err(format!(
                    "switch control shape {} does not match data shape {data}",
                    in_shapes[1]
                ));
            }
            Ok(vec![out])
        }

        BlockKind::SumOfElements
        | BlockKind::MeanOfElements
        | BlockKind::MinOfElements
        | BlockKind::MaxOfElements => Ok(vec![Shape::Scalar]),

        BlockKind::DotProduct => {
            if in_shapes[0].numel() != in_shapes[1].numel() {
                return Err(format!(
                    "dot product operands have {} and {} elements",
                    in_shapes[0].numel(),
                    in_shapes[1].numel()
                ));
            }
            Ok(vec![Shape::Scalar])
        }

        BlockKind::MatrixMultiply => {
            let (ar, ac) = (in_shapes[0].rows(), in_shapes[0].cols());
            let (br, bc) = (in_shapes[1].rows(), in_shapes[1].cols());
            if ac != br {
                return Err(format!(
                    "matrix multiply inner dimensions {ac} and {br} differ"
                ));
            }
            Ok(vec![Shape::Matrix(ar, bc)])
        }

        BlockKind::Transpose => Ok(vec![in_shapes[0].transposed()]),

        BlockKind::Reshape { shape } => {
            if !in_shapes[0].same_numel(shape) {
                return Err(format!("cannot reshape {} to {shape}", in_shapes[0]));
            }
            Ok(vec![*shape])
        }

        BlockKind::Selector { mode } => {
            let n = expect_vector(in_shapes[0], "selector input")?;
            match mode {
                SelectorMode::StartEnd { start, end } => {
                    if start >= end {
                        return Err(format!("empty selector range [{start}, {end})"));
                    }
                    if *end > n {
                        return Err(format!(
                            "selector range [{start}, {end}) exceeds input length {n}"
                        ));
                    }
                    Ok(vec![Shape::Vector(end - start)])
                }
                SelectorMode::IndexVector(idxs) => {
                    if idxs.is_empty() {
                        return Err("empty selector index vector".into());
                    }
                    if let Some(&bad) = idxs.iter().find(|&&i| i >= n) {
                        return Err(format!("selector index {bad} exceeds input length {n}"));
                    }
                    Ok(vec![Shape::Vector(idxs.len())])
                }
                SelectorMode::IndexPort { output_len } => {
                    if *output_len == 0 {
                        return Err("selector with zero output length".into());
                    }
                    Ok(vec![Shape::Vector(*output_len)])
                }
            }
        }

        BlockKind::Pad { left, right, .. } => {
            let n = expect_vector(in_shapes[0], "pad input")?;
            Ok(vec![Shape::Vector(left + n + right)])
        }

        BlockKind::Submatrix {
            row_start,
            row_end,
            col_start,
            col_end,
        } => match in_shapes[0] {
            Shape::Matrix(r, c) => {
                if row_start >= row_end || col_start >= col_end {
                    return Err("empty submatrix region".into());
                }
                if *row_end > r || *col_end > c {
                    return Err(format!(
                        "submatrix region [{row_start},{row_end})x[{col_start},{col_end}) exceeds {r}x{c}"
                    ));
                }
                Ok(vec![Shape::Matrix(
                    row_end - row_start,
                    col_end - col_start,
                )])
            }
            s => Err(format!("submatrix input must be a matrix, got {s}")),
        },

        BlockKind::Assignment { start } => {
            let n = expect_vector(in_shapes[0], "assignment base")?;
            let p = expect_vector(in_shapes[1], "assignment patch")?;
            if start + p > n {
                return Err(format!(
                    "assignment patch [{start}, {}) exceeds base length {n}",
                    start + p
                ));
            }
            Ok(vec![Shape::Vector(n)])
        }

        BlockKind::Mux { .. } | BlockKind::Concatenate { .. } => {
            let mut total = 0;
            for (i, s) in in_shapes.iter().enumerate() {
                total += expect_vector(*s, &format!("mux input {i}"))?;
            }
            Ok(vec![Shape::Vector(total)])
        }

        BlockKind::Demux { sizes } => {
            let n = expect_vector(in_shapes[0], "demux input")?;
            let sum: usize = sizes.iter().sum();
            if sum != n {
                return Err(format!(
                    "demux sizes sum to {sum} but input has {n} elements"
                ));
            }
            if sizes.contains(&0) {
                return Err("demux piece of zero size".into());
            }
            Ok(sizes.iter().map(|&s| Shape::Vector(s)).collect())
        }

        BlockKind::Convolution => {
            let n = expect_vector(in_shapes[0], "convolution data")?;
            let m = expect_vector(in_shapes[1], "convolution kernel")?;
            Ok(vec![Shape::Vector(n + m - 1)])
        }

        BlockKind::FirFilter { coeffs } => {
            if coeffs.is_empty() {
                return Err("FIR filter with no coefficients".into());
            }
            let n = expect_vector(in_shapes[0], "FIR input")?;
            Ok(vec![Shape::Vector(n)])
        }

        BlockKind::MovingAverage { window } => {
            if *window == 0 {
                return Err("moving average with zero window".into());
            }
            let n = expect_vector(in_shapes[0], "moving average input")?;
            Ok(vec![Shape::Vector(n)])
        }

        BlockKind::Downsample { factor, phase } => {
            if *factor == 0 {
                return Err("downsample with zero factor".into());
            }
            let n = expect_vector(in_shapes[0], "downsample input")?;
            if *phase >= n {
                return Err(format!("downsample phase {phase} exceeds input length {n}"));
            }
            Ok(vec![Shape::Vector((n - phase).div_ceil(*factor))])
        }

        BlockKind::CumulativeSum | BlockKind::Difference => {
            let n = expect_vector(in_shapes[0], "input")?;
            Ok(vec![Shape::Vector(n)])
        }

        BlockKind::UnitDelay { initial } => {
            if in_shapes[0] != initial.shape() {
                return Err(format!(
                    "unit delay initial condition shape {} does not match input {}",
                    initial.shape(),
                    in_shapes[0]
                ));
            }
            Ok(vec![initial.shape()])
        }

        BlockKind::Subsystem(_) => {
            Err("subsystems must be flattened before shape inference".into())
        }
    }
}

/// Derives the I/O mapping of `(out_port → in_port)` for a block.
///
/// This is the mapping half of the block property library (paper Figure 3):
/// given the block's type, parameters, and resolved port shapes, it returns
/// the [`PortMap`] that converts an output-element request into the input
/// elements required from `in_port`.
///
/// # Panics
///
/// Panics if the port indices exceed the block's arity; callers obtain port
/// counts from [`BlockKind::num_inputs`]/[`BlockKind::num_outputs`].
pub fn io_map(
    kind: &BlockKind,
    out_port: usize,
    in_port: usize,
    in_shapes: &[Shape],
    out_shapes: &[Shape],
) -> PortMap {
    assert!(in_port < kind.num_inputs(), "input port out of range");
    let in_len = in_shapes[in_port].numel();
    // Elementwise with scalar-broadcast handling, shared by math blocks.
    let elementwise = |in_port: usize| -> PortMap {
        if in_shapes[in_port].is_scalar() && !out_shapes[out_port].is_scalar() {
            PortMap::all(1)
        } else {
            PortMap::Elementwise
        }
    };
    match kind {
        BlockKind::Inport { .. } | BlockKind::Constant { .. } => {
            unreachable!("sources have no inputs")
        }

        BlockKind::Outport { .. } | BlockKind::Terminator => {
            // Sinks have no outputs; io_map is never asked for them in the
            // range recursion, but keep a sane answer for generic callers.
            PortMap::Elementwise
        }

        BlockKind::Gain { .. }
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
        | BlockKind::Add
        | BlockKind::Subtract
        | BlockKind::Multiply
        | BlockKind::Divide
        | BlockKind::Min
        | BlockKind::Max
        | BlockKind::Mod
        | BlockKind::Relational { .. }
        | BlockKind::Logical { .. }
        | BlockKind::Switch { .. } => elementwise(in_port),

        BlockKind::SumOfElements
        | BlockKind::MeanOfElements
        | BlockKind::MinOfElements
        | BlockKind::MaxOfElements
        | BlockKind::DotProduct => PortMap::all(in_len),

        BlockKind::MatrixMultiply => {
            if in_port == 0 {
                // output row r reads only row r of the left operand
                PortMap::RowsOf {
                    out_cols: out_shapes[0].cols(),
                    in_cols: in_shapes[0].cols(),
                }
            } else {
                // every output column can be requested, so the right
                // operand is needed in full (column-granular refinement is
                // possible but our calculation ranges are row-major runs)
                PortMap::all(in_len)
            }
        }

        BlockKind::Transpose => PortMap::Transpose {
            out_rows: out_shapes[0].rows(),
            out_cols: out_shapes[0].cols(),
        },

        BlockKind::Reshape { .. } => PortMap::Elementwise,

        BlockKind::Selector { mode } => match (mode, in_port) {
            (SelectorMode::StartEnd { start, .. }, 0) => PortMap::shift(*start as isize, in_len),
            (SelectorMode::IndexVector(idxs), 0) => PortMap::Gather(idxs.clone()),
            (SelectorMode::IndexPort { .. }, 0) => PortMap::Dynamic { input_len: in_len },
            (SelectorMode::IndexPort { .. }, _) => PortMap::all(in_len),
            _ => unreachable!("selector port arity"),
        },

        BlockKind::Pad { left, .. } => PortMap::shift(-(*left as isize), in_len),

        BlockKind::Submatrix {
            row_start,
            col_start,
            ..
        } => {
            // Exact rectangular gather: output (i, j) reads input
            // (row_start + i, col_start + j).
            let out = out_shapes[0];
            let in_cols = in_shapes[0].cols();
            let (orows, ocols) = (out.rows(), out.cols());
            let mut table = Vec::with_capacity(orows * ocols);
            for i in 0..orows {
                for j in 0..ocols {
                    table.push((row_start + i) * in_cols + (col_start + j));
                }
            }
            PortMap::Gather(table)
        }

        BlockKind::Assignment { start } => {
            let patch = in_shapes[1].numel();
            if in_port == 0 {
                PortMap::ExceptSegment {
                    start: *start,
                    end: start + patch,
                }
            } else {
                PortMap::Segment {
                    start_in_output: *start,
                    len: patch,
                }
            }
        }

        BlockKind::Mux { .. } | BlockKind::Concatenate { .. } => {
            let start: usize = in_shapes[..in_port].iter().map(Shape::numel).sum();
            PortMap::Segment {
                start_in_output: start,
                len: in_len,
            }
        }

        BlockKind::Demux { sizes } => {
            let offset: usize = sizes[..out_port].iter().sum();
            PortMap::shift(offset as isize, in_len)
        }

        BlockKind::Convolution => {
            // out[k] = Σ_j in0[j] · in1[k − j]; for either operand the needed
            // window extends (other_len − 1) below the requested output index.
            let other = in_shapes[1 - in_port].numel();
            PortMap::window(other - 1, 0, in_len)
        }

        BlockKind::FirFilter { coeffs } => PortMap::window(coeffs.len() - 1, 0, in_len),

        BlockKind::MovingAverage { window } => PortMap::window(window - 1, 0, in_len),

        BlockKind::Downsample { factor, phase } => PortMap::Stride {
            stride: *factor,
            phase: *phase,
            input_len: in_len,
        },

        BlockKind::CumulativeSum => PortMap::window(in_len, 0, in_len),

        BlockKind::Difference => PortMap::window(1, 0, in_len),

        // State must be maintained for the next step regardless of which
        // outputs are consumed, so delays demand their full input.
        BlockKind::UnitDelay { .. } => PortMap::all(in_len),

        BlockKind::Subsystem(_) => PortMap::all(in_len),
    }
}

/// Runs shape inference over a (flattened) model, reading each input's
/// driver from the model's port table.
///
/// Sweeps the blocks in id order until a fixpoint: a block's outputs are
/// computed once all of its input shapes are known; source blocks seed the
/// process.
///
/// # Errors
///
/// Propagates shape-rule failures as [`ModelError::ShapeMismatch`] or
/// [`ModelError::BadParameter`], reports unconnected inputs, and reports an
/// [`ModelError::AlgebraicLoop`] when inference cannot complete.
pub fn infer_shapes(model: &Model, ports: &PortTable) -> Result<ShapeTable, ModelError> {
    let mut table = ShapeTable::new(ports.index.clone());
    // Pre-check connectivity so the fixpoint cannot stall on missing wires.
    for (id, block) in model.iter() {
        for p in 0..block.kind.num_inputs() {
            let port = InPort::new(id, p);
            if ports.source(port).is_none() {
                return Err(ModelError::UnconnectedInput(port));
            }
        }
    }

    // Unit delays emit their initial-condition shape before any block runs,
    // which is what lets inference cross feedback loops broken by delays.
    for (id, block) in model.iter() {
        if let BlockKind::UnitDelay { initial } = &block.kind {
            table.set_output(OutPort::new(id, 0), initial.shape());
        }
    }

    let mut done = vec![false; model.len()];
    let mut remaining = model.len();
    loop {
        let mut progressed = false;
        for (id, block) in model.iter() {
            if done[id.index()] {
                continue;
            }
            let n_in = block.kind.num_inputs();
            let mut in_shapes = Vec::with_capacity(n_in);
            let mut ready = true;
            for p in 0..n_in {
                let src = ports.source(InPort::new(id, p)).expect("checked above");
                match table.try_output(src.block, src.port) {
                    Some(s) => in_shapes.push(s),
                    None => {
                        ready = false;
                        break;
                    }
                }
            }
            if !ready {
                continue;
            }
            let outs = output_shapes(&block.kind, &in_shapes).map_err(|reason| {
                if reason.contains("parameter") || is_parameter_error(&block.kind, &reason) {
                    ModelError::BadParameter { block: id, reason }
                } else {
                    ModelError::ShapeMismatch { block: id, reason }
                }
            })?;
            for (p, s) in in_shapes.iter().enumerate() {
                table.set_input(InPort::new(id, p), *s);
            }
            for (p, s) in outs.iter().enumerate() {
                table.set_output(OutPort::new(id, p), *s);
            }
            done[id.index()] = true;
            remaining -= 1;
            progressed = true;
        }
        if remaining == 0 {
            return Ok(table);
        }
        if !progressed {
            let cycle: Vec<BlockId> = model.ids().filter(|id| !done[id.index()]).collect();
            return Err(ModelError::AlgebraicLoop { cycle });
        }
    }
}

fn is_parameter_error(kind: &BlockKind, reason: &str) -> bool {
    // Heuristic split between "your wiring is wrong" and "your block
    // parameters are wrong" for friendlier diagnostics.
    matches!(
        kind,
        BlockKind::Selector { .. }
            | BlockKind::Submatrix { .. }
            | BlockKind::Demux { .. }
            | BlockKind::FirFilter { .. }
            | BlockKind::MovingAverage { .. }
    ) && ["empty", "zero", "exceeds", "sum to"]
        .iter()
        .any(|needle| reason.contains(needle))
}

/// Convenience wrapper: the full set of I/O mappings of one block, indexed
/// `[out_port][in_port]`, as the paper's "I/O mapping derivation" produces.
pub fn io_maps_of(block: &Block, in_shapes: &[Shape], out_shapes: &[Shape]) -> Vec<Vec<PortMap>> {
    let n_out = block.kind.num_outputs();
    let n_in = block.kind.num_inputs();
    (0..n_out)
        .map(|o| {
            (0..n_in)
                .map(|i| io_map(&block.kind, o, i, in_shapes, out_shapes))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use frodo_ranges::IndexSet;

    #[test]
    fn broadcast_rules() {
        assert_eq!(
            broadcast(Shape::Scalar, Shape::Vector(5)).unwrap(),
            Shape::Vector(5)
        );
        assert_eq!(
            broadcast(Shape::Vector(5), Shape::Scalar).unwrap(),
            Shape::Vector(5)
        );
        assert_eq!(
            broadcast(Shape::Vector(5), Shape::Vector(5)).unwrap(),
            Shape::Vector(5)
        );
        assert!(broadcast(Shape::Vector(5), Shape::Vector(6)).is_err());
    }

    #[test]
    fn convolution_output_is_full_padding() {
        let outs = output_shapes(
            &BlockKind::Convolution,
            &[Shape::Vector(50), Shape::Vector(11)],
        )
        .unwrap();
        assert_eq!(outs, vec![Shape::Vector(60)]);
    }

    #[test]
    fn selector_shapes_and_errors() {
        let sel = BlockKind::Selector {
            mode: SelectorMode::StartEnd { start: 5, end: 55 },
        };
        assert_eq!(
            output_shapes(&sel, &[Shape::Vector(60)]).unwrap(),
            vec![Shape::Vector(50)]
        );
        assert!(output_shapes(&sel, &[Shape::Vector(40)]).is_err());
        let empty = BlockKind::Selector {
            mode: SelectorMode::StartEnd { start: 5, end: 5 },
        };
        assert!(output_shapes(&empty, &[Shape::Vector(60)]).is_err());
    }

    #[test]
    fn pad_grows_both_sides() {
        let pad = BlockKind::Pad {
            left: 3,
            right: 2,
            value: 0.0,
        };
        assert_eq!(
            output_shapes(&pad, &[Shape::Vector(10)]).unwrap(),
            vec![Shape::Vector(15)]
        );
    }

    #[test]
    fn submatrix_shape_and_bounds() {
        let sm = BlockKind::Submatrix {
            row_start: 1,
            row_end: 3,
            col_start: 0,
            col_end: 2,
        };
        assert_eq!(
            output_shapes(&sm, &[Shape::Matrix(4, 4)]).unwrap(),
            vec![Shape::Matrix(2, 2)]
        );
        assert!(output_shapes(&sm, &[Shape::Matrix(2, 2)]).is_err());
        assert!(output_shapes(&sm, &[Shape::Vector(8)]).is_err());
    }

    #[test]
    fn matrix_multiply_checks_inner_dims() {
        let mm = BlockKind::MatrixMultiply;
        assert_eq!(
            output_shapes(&mm, &[Shape::Matrix(2, 3), Shape::Matrix(3, 5)]).unwrap(),
            vec![Shape::Matrix(2, 5)]
        );
        assert!(output_shapes(&mm, &[Shape::Matrix(2, 3), Shape::Matrix(4, 5)]).is_err());
    }

    #[test]
    fn demux_requires_exact_partition() {
        let d = BlockKind::Demux { sizes: vec![2, 3] };
        assert_eq!(
            output_shapes(&d, &[Shape::Vector(5)]).unwrap(),
            vec![Shape::Vector(2), Shape::Vector(3)]
        );
        assert!(output_shapes(&d, &[Shape::Vector(6)]).is_err());
    }

    #[test]
    fn switch_control_must_match_or_broadcast() {
        let sw = BlockKind::Switch { threshold: 0.5 };
        let v = Shape::Vector(4);
        assert_eq!(output_shapes(&sw, &[v, Shape::Scalar, v]).unwrap(), vec![v]);
        assert_eq!(output_shapes(&sw, &[v, v, v]).unwrap(), vec![v]);
        assert!(output_shapes(&sw, &[v, Shape::Vector(3), v]).is_err());
    }

    #[test]
    fn io_map_selector_matches_paper_figure3() {
        let sel = BlockKind::Selector {
            mode: SelectorMode::StartEnd { start: 5, end: 55 },
        };
        let m = io_map(&sel, 0, 0, &[Shape::Vector(60)], &[Shape::Vector(50)]);
        // O[0] = U[5], O[49] = U[54]
        assert_eq!(m.apply(&IndexSet::point(0)), IndexSet::point(5));
        assert_eq!(m.apply(&IndexSet::point(49)), IndexSet::point(54));
    }

    #[test]
    fn io_map_convolution_window() {
        let m = io_map(
            &BlockKind::Convolution,
            0,
            0,
            &[Shape::Vector(50), Shape::Vector(11)],
            &[Shape::Vector(60)],
        );
        // same-convolution request [5, 55) needs data [0, 50) — everything,
        // but a narrower request shrinks proportionally
        assert_eq!(m.apply(&IndexSet::from_range(5, 55)), IndexSet::full(50));
        assert_eq!(
            m.apply(&IndexSet::from_range(20, 25)),
            IndexSet::from_range(10, 25)
        );
    }

    #[test]
    fn io_map_scalar_broadcast_is_all() {
        let m = io_map(
            &BlockKind::Add,
            0,
            1,
            &[Shape::Vector(8), Shape::Scalar],
            &[Shape::Vector(8)],
        );
        assert_eq!(m, PortMap::all(1));
        let m0 = io_map(
            &BlockKind::Add,
            0,
            0,
            &[Shape::Vector(8), Shape::Scalar],
            &[Shape::Vector(8)],
        );
        assert_eq!(m0, PortMap::Elementwise);
    }

    #[test]
    fn io_map_mux_segments() {
        let mux = BlockKind::Mux { inputs: 3 };
        let ins = [Shape::Vector(2), Shape::Vector(3), Shape::Vector(4)];
        let outs = [Shape::Vector(9)];
        assert_eq!(
            io_map(&mux, 0, 1, &ins, &outs),
            PortMap::Segment {
                start_in_output: 2,
                len: 3
            }
        );
        assert_eq!(
            io_map(&mux, 0, 2, &ins, &outs),
            PortMap::Segment {
                start_in_output: 5,
                len: 4
            }
        );
    }

    #[test]
    fn io_map_demux_shifts() {
        let d = BlockKind::Demux {
            sizes: vec![2, 3, 4],
        };
        let ins = [Shape::Vector(9)];
        let outs = [Shape::Vector(2), Shape::Vector(3), Shape::Vector(4)];
        assert_eq!(io_map(&d, 2, 0, &ins, &outs), PortMap::shift(5, 9));
    }

    #[test]
    fn io_map_submatrix_gather_is_exact() {
        let sm = BlockKind::Submatrix {
            row_start: 1,
            row_end: 3,
            col_start: 1,
            col_end: 3,
        };
        let m = io_map(&sm, 0, 0, &[Shape::Matrix(4, 4)], &[Shape::Matrix(2, 2)]);
        // out (0,0) = in (1,1) = flat 5; out (1,1) = in (2,2) = flat 10
        assert_eq!(m.apply(&IndexSet::point(0)), IndexSet::point(5));
        assert_eq!(m.apply(&IndexSet::point(3)), IndexSet::point(10));
    }

    #[test]
    fn io_map_unit_delay_is_conservative() {
        let m = io_map(
            &BlockKind::UnitDelay {
                initial: Tensor::scalar(0.0),
            },
            0,
            0,
            &[Shape::Vector(6)],
            &[Shape::Vector(6)],
        );
        assert_eq!(m, PortMap::all(6));
        assert!(!m.is_range_transparent());
    }

    #[test]
    fn io_maps_of_covers_all_port_pairs() {
        let b = Block::new("c", BlockKind::Convolution);
        let maps = io_maps_of(
            &b,
            &[Shape::Vector(10), Shape::Vector(3)],
            &[Shape::Vector(12)],
        );
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].len(), 2);
    }

    #[test]
    fn infer_shapes_full_pipeline() {
        // in(50) -> conv(+k11) -> selector[5,55) -> out
        let mut m = Model::new("conv");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(50),
            },
        ));
        let k = m.add(Block::new(
            "k",
            BlockKind::Constant {
                value: Tensor::vector(vec![1.0; 11]),
            },
        ));
        let c = m.add(Block::new("conv", BlockKind::Convolution));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 5, end: 55 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, c, 0).unwrap();
        m.connect(k, 0, c, 1).unwrap();
        m.connect(c, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        let t = m.infer_shapes().unwrap();
        assert_eq!(t.output(c, 0), Shape::Vector(60));
        assert_eq!(t.output(s, 0), Shape::Vector(50));
        assert_eq!(t.input(o, 0), Shape::Vector(50));
    }

    #[test]
    fn infer_shapes_reports_unconnected_input() {
        let mut m = Model::new("broken");
        let _ = m.add(Block::new("a", BlockKind::Abs));
        let err = m.infer_shapes().unwrap_err();
        assert!(matches!(err, ModelError::UnconnectedInput(_)));
    }

    #[test]
    fn infer_shapes_reports_algebraic_loop() {
        // a -> b -> a with no state: unresolvable
        let mut m = Model::new("loop");
        let a = m.add(Block::new("a", BlockKind::Abs));
        let b = m.add(Block::new("b", BlockKind::Negate));
        m.connect(a, 0, b, 0).unwrap();
        m.connect(b, 0, a, 0).unwrap();
        let err = m.infer_shapes().unwrap_err();
        assert!(matches!(err, ModelError::AlgebraicLoop { .. }));
    }

    #[test]
    fn infer_shapes_reports_mismatch_with_block_id() {
        let mut m = Model::new("bad");
        let a = m.add(Block::new(
            "a",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(3),
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Vector(4),
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(a, 0, add, 0).unwrap();
        m.connect(b, 0, add, 1).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        match m.infer_shapes().unwrap_err() {
            ModelError::ShapeMismatch { block, .. } => assert_eq!(block, add),
            e => panic!("unexpected error {e}"),
        }
    }
}
