//! Shared block-parameter codec used by both the `.slx` XML mapping and the
//! `.mdl` text format: every [`BlockKind`] is flattened to a stable
//! `type name + key/value parameters` form and rebuilt from it.

use crate::FormatError;
use frodo_model::{BlockKind, LogicOp, Model, RelOp, RoundMode, SelectorMode, Tensor};
use frodo_ranges::Shape;

/// Formats an `f64` in shortest round-trip form.
pub fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Formats a vector MATLAB-style: `[1.0 2.0 3.0]`.
pub fn fmt_vec(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| fmt_f64(*x)).collect();
    format!("[{}]", parts.join(" "))
}

/// Formats a vector of indices: `[5 6 7]`.
pub fn fmt_usizes(v: &[usize]) -> String {
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(" "))
}

/// Formats a shape: `scalar`, `[8]`, or `[3x4]`.
pub fn fmt_shape(s: Shape) -> String {
    match s {
        Shape::Scalar => "scalar".into(),
        Shape::Vector(n) => format!("[{n}]"),
        Shape::Matrix(r, c) => format!("[{r}x{c}]"),
    }
}

/// Parses [`fmt_shape`] output.
pub fn parse_shape(s: &str) -> Result<Shape, String> {
    let s = s.trim();
    if s == "scalar" {
        return Ok(Shape::Scalar);
    }
    let inner = s
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("bad shape '{s}'"))?;
    if let Some((r, c)) = inner.split_once('x') {
        let r: usize = r.trim().parse().map_err(|_| format!("bad shape '{s}'"))?;
        let c: usize = c.trim().parse().map_err(|_| format!("bad shape '{s}'"))?;
        Ok(Shape::Matrix(r, c))
    } else {
        let n: usize = inner
            .trim()
            .parse()
            .map_err(|_| format!("bad shape '{s}'"))?;
        Ok(Shape::Vector(n))
    }
}

/// Parses [`fmt_vec`] output (spaces and/or commas as separators).
pub fn parse_vec(s: &str) -> Result<Vec<f64>, String> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("bad vector '{s}'"))?;
    inner
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<f64>().map_err(|_| format!("bad number '{t}'")))
        .collect()
}

/// Parses [`fmt_usizes`] output.
pub fn parse_usizes(s: &str) -> Result<Vec<usize>, String> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("bad index vector '{s}'"))?;
    inner
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<usize>().map_err(|_| format!("bad index '{t}'")))
        .collect()
}

/// The flattened form of one block: parameters plus, for subsystems, the
/// nested model (which the caller serializes recursively).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockParams {
    /// Stable type name ([`BlockKind::type_name`]).
    pub type_name: &'static str,
    /// Key/value parameters, in a canonical order.
    pub params: Vec<(&'static str, String)>,
    /// The nested model of a subsystem block.
    pub subsystem: Option<Model>,
}

/// Flattens a block kind to its parameter form.
pub fn encode(kind: &BlockKind) -> BlockParams {
    let mut params: Vec<(&'static str, String)> = Vec::new();
    let mut subsystem = None;
    match kind {
        BlockKind::Inport { index, shape } => {
            params.push(("Port", index.to_string()));
            params.push(("Shape", fmt_shape(*shape)));
        }
        BlockKind::Constant { value } => {
            params.push(("Shape", fmt_shape(value.shape())));
            params.push(("Value", fmt_vec(value.data())));
        }
        BlockKind::Outport { index } => params.push(("Port", index.to_string())),
        BlockKind::Gain { gain } => params.push(("Gain", fmt_f64(*gain))),
        BlockKind::Bias { bias } => params.push(("Bias", fmt_f64(*bias))),
        BlockKind::Saturation { lower, upper } => {
            params.push(("Lower", fmt_f64(*lower)));
            params.push(("Upper", fmt_f64(*upper)));
        }
        BlockKind::Rounding { mode } => params.push((
            "Mode",
            match mode {
                RoundMode::Floor => "floor",
                RoundMode::Ceil => "ceil",
                RoundMode::Round => "round",
                RoundMode::Fix => "fix",
            }
            .into(),
        )),
        BlockKind::Relational { op } => params.push((
            "Operator",
            match op {
                RelOp::Lt => "lt",
                RelOp::Le => "le",
                RelOp::Gt => "gt",
                RelOp::Ge => "ge",
                RelOp::Eq => "eq",
                RelOp::Ne => "ne",
            }
            .into(),
        )),
        BlockKind::Logical { op } => params.push((
            "Operator",
            match op {
                LogicOp::And => "and",
                LogicOp::Or => "or",
                LogicOp::Xor => "xor",
                LogicOp::Not => "not",
            }
            .into(),
        )),
        BlockKind::Switch { threshold } => params.push(("Threshold", fmt_f64(*threshold))),
        BlockKind::Reshape { shape } => params.push(("Shape", fmt_shape(*shape))),
        BlockKind::Selector { mode } => match mode {
            SelectorMode::StartEnd { start, end } => {
                params.push(("Mode", "start_end".into()));
                params.push(("Start", start.to_string()));
                params.push(("End", end.to_string()));
            }
            SelectorMode::IndexVector(idxs) => {
                params.push(("Mode", "index_vector".into()));
                params.push(("Indices", fmt_usizes(idxs)));
            }
            SelectorMode::IndexPort { output_len } => {
                params.push(("Mode", "index_port".into()));
                params.push(("OutputLen", output_len.to_string()));
            }
        },
        BlockKind::Pad { left, right, value } => {
            params.push(("Left", left.to_string()));
            params.push(("Right", right.to_string()));
            params.push(("Value", fmt_f64(*value)));
        }
        BlockKind::Submatrix {
            row_start,
            row_end,
            col_start,
            col_end,
        } => {
            params.push(("RowStart", row_start.to_string()));
            params.push(("RowEnd", row_end.to_string()));
            params.push(("ColStart", col_start.to_string()));
            params.push(("ColEnd", col_end.to_string()));
        }
        BlockKind::Assignment { start } => params.push(("Start", start.to_string())),
        BlockKind::Mux { inputs } | BlockKind::Concatenate { inputs } => {
            params.push(("Inputs", inputs.to_string()));
        }
        BlockKind::Demux { sizes } => params.push(("Sizes", fmt_usizes(sizes))),
        BlockKind::FirFilter { coeffs } => params.push(("Coeffs", fmt_vec(coeffs))),
        BlockKind::MovingAverage { window } => params.push(("Window", window.to_string())),
        BlockKind::Downsample { factor, phase } => {
            params.push(("Factor", factor.to_string()));
            params.push(("Phase", phase.to_string()));
        }
        BlockKind::UnitDelay { initial } => {
            params.push(("Shape", fmt_shape(initial.shape())));
            params.push(("InitialCondition", fmt_vec(initial.data())));
        }
        BlockKind::Subsystem(model) => subsystem = Some((**model).clone()),
        // parameterless blocks
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
    BlockParams {
        type_name: kind.type_name(),
        params,
        subsystem,
    }
}

/// Rebuilds a block kind from its parameter form.
///
/// # Errors
///
/// Returns [`FormatError::Schema`] for unknown types, missing parameters,
/// or malformed values.
pub fn decode<'v>(
    type_name: &str,
    get: &dyn Fn(&str) -> Option<&'v str>,
    subsystem: Option<Model>,
) -> Result<BlockKind, FormatError> {
    let want = |key: &str| -> Result<&'v str, FormatError> {
        get(key).ok_or_else(|| {
            FormatError::Schema(format!(
                "block type '{type_name}' missing parameter '{key}'"
            ))
        })
    };
    let bad = |reason: String| FormatError::Schema(reason);
    let f64_p = |key: &str| -> Result<f64, FormatError> {
        want(key)?.trim().parse().map_err(|_| {
            FormatError::Schema(format!("bad number in parameter '{key}' of '{type_name}'"))
        })
    };
    let usize_p = |key: &str| -> Result<usize, FormatError> {
        want(key)?.trim().parse().map_err(|_| {
            FormatError::Schema(format!("bad integer in parameter '{key}' of '{type_name}'"))
        })
    };
    Ok(match type_name {
        "inport" => BlockKind::Inport {
            index: usize_p("Port")?,
            shape: parse_shape(want("Shape")?).map_err(bad)?,
        },
        "constant" => {
            let shape = parse_shape(want("Shape")?).map_err(bad)?;
            let data = parse_vec(want("Value")?).map_err(bad)?;
            if data.len() != shape.numel() {
                return Err(FormatError::Schema(format!(
                    "constant value has {} elements for shape {shape}",
                    data.len()
                )));
            }
            BlockKind::Constant {
                value: Tensor::new(shape, data),
            }
        }
        "outport" => BlockKind::Outport {
            index: usize_p("Port")?,
        },
        "terminator" => BlockKind::Terminator,
        "gain" => BlockKind::Gain {
            gain: f64_p("Gain")?,
        },
        "bias" => BlockKind::Bias {
            bias: f64_p("Bias")?,
        },
        "abs" => BlockKind::Abs,
        "sqrt" => BlockKind::Sqrt,
        "square" => BlockKind::Square,
        "exp" => BlockKind::Exp,
        "log" => BlockKind::Log,
        "sin" => BlockKind::Sin,
        "cos" => BlockKind::Cos,
        "tanh" => BlockKind::Tanh,
        "negate" => BlockKind::Negate,
        "reciprocal" => BlockKind::Reciprocal,
        "saturation" => BlockKind::Saturation {
            lower: f64_p("Lower")?,
            upper: f64_p("Upper")?,
        },
        "rounding" => BlockKind::Rounding {
            mode: match want("Mode")? {
                "floor" => RoundMode::Floor,
                "ceil" => RoundMode::Ceil,
                "round" => RoundMode::Round,
                "fix" => RoundMode::Fix,
                m => return Err(FormatError::Schema(format!("unknown rounding mode '{m}'"))),
            },
        },
        "add" => BlockKind::Add,
        "subtract" => BlockKind::Subtract,
        "multiply" => BlockKind::Multiply,
        "divide" => BlockKind::Divide,
        "min" => BlockKind::Min,
        "max" => BlockKind::Max,
        "mod" => BlockKind::Mod,
        "relational" => BlockKind::Relational {
            op: match want("Operator")? {
                "lt" => RelOp::Lt,
                "le" => RelOp::Le,
                "gt" => RelOp::Gt,
                "ge" => RelOp::Ge,
                "eq" => RelOp::Eq,
                "ne" => RelOp::Ne,
                o => return Err(FormatError::Schema(format!("unknown relational op '{o}'"))),
            },
        },
        "logical" => BlockKind::Logical {
            op: match want("Operator")? {
                "and" => LogicOp::And,
                "or" => LogicOp::Or,
                "xor" => LogicOp::Xor,
                "not" => LogicOp::Not,
                o => return Err(FormatError::Schema(format!("unknown logical op '{o}'"))),
            },
        },
        "switch" => BlockKind::Switch {
            threshold: f64_p("Threshold")?,
        },
        "sum_of_elements" => BlockKind::SumOfElements,
        "mean_of_elements" => BlockKind::MeanOfElements,
        "min_of_elements" => BlockKind::MinOfElements,
        "max_of_elements" => BlockKind::MaxOfElements,
        "dot_product" => BlockKind::DotProduct,
        "matrix_multiply" => BlockKind::MatrixMultiply,
        "transpose" => BlockKind::Transpose,
        "reshape" => BlockKind::Reshape {
            shape: parse_shape(want("Shape")?).map_err(bad)?,
        },
        "selector" => BlockKind::Selector {
            mode: match want("Mode")? {
                "start_end" => SelectorMode::StartEnd {
                    start: usize_p("Start")?,
                    end: usize_p("End")?,
                },
                "index_vector" => {
                    SelectorMode::IndexVector(parse_usizes(want("Indices")?).map_err(bad)?)
                }
                "index_port" => SelectorMode::IndexPort {
                    output_len: usize_p("OutputLen")?,
                },
                m => return Err(FormatError::Schema(format!("unknown selector mode '{m}'"))),
            },
        },
        "pad" => BlockKind::Pad {
            left: usize_p("Left")?,
            right: usize_p("Right")?,
            value: f64_p("Value")?,
        },
        "submatrix" => BlockKind::Submatrix {
            row_start: usize_p("RowStart")?,
            row_end: usize_p("RowEnd")?,
            col_start: usize_p("ColStart")?,
            col_end: usize_p("ColEnd")?,
        },
        "assignment" => BlockKind::Assignment {
            start: usize_p("Start")?,
        },
        "mux" => BlockKind::Mux {
            inputs: usize_p("Inputs")?,
        },
        "concatenate" => BlockKind::Concatenate {
            inputs: usize_p("Inputs")?,
        },
        "demux" => BlockKind::Demux {
            sizes: parse_usizes(want("Sizes")?).map_err(bad)?,
        },
        "convolution" => BlockKind::Convolution,
        "fir_filter" => BlockKind::FirFilter {
            coeffs: parse_vec(want("Coeffs")?).map_err(bad)?,
        },
        "moving_average" => BlockKind::MovingAverage {
            window: usize_p("Window")?,
        },
        "downsample" => BlockKind::Downsample {
            factor: usize_p("Factor")?,
            phase: usize_p("Phase")?,
        },
        "cumulative_sum" => BlockKind::CumulativeSum,
        "difference" => BlockKind::Difference,
        "unit_delay" => {
            let shape = parse_shape(want("Shape")?).map_err(bad)?;
            let data = parse_vec(want("InitialCondition")?).map_err(bad)?;
            if data.len() != shape.numel() {
                return Err(FormatError::Schema(
                    "unit delay initial condition does not match its shape".into(),
                ));
            }
            BlockKind::UnitDelay {
                initial: Tensor::new(shape, data),
            }
        }
        "subsystem" => BlockKind::Subsystem(Box::new(subsystem.ok_or_else(|| {
            FormatError::Schema("subsystem block without a nested System".into())
        })?)),
        other => return Err(FormatError::Schema(format!("unknown block type '{other}'"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: BlockKind) {
        let enc = encode(&kind);
        let get = |key: &str| {
            enc.params
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.as_str())
        };
        let back = decode(enc.type_name, &get, enc.subsystem.clone()).unwrap();
        assert_eq!(back, kind);
    }

    #[test]
    fn every_parameterized_kind_roundtrips() {
        roundtrip(BlockKind::Inport {
            index: 3,
            shape: Shape::Matrix(2, 5),
        });
        roundtrip(BlockKind::Constant {
            value: Tensor::vector(vec![1.5, -2.25, 1e-9]),
        });
        roundtrip(BlockKind::Outport { index: 1 });
        roundtrip(BlockKind::Gain { gain: -0.125 });
        roundtrip(BlockKind::Bias { bias: 7.5 });
        roundtrip(BlockKind::Saturation {
            lower: -1.0,
            upper: 1.0,
        });
        roundtrip(BlockKind::Rounding {
            mode: RoundMode::Fix,
        });
        roundtrip(BlockKind::Relational { op: RelOp::Ge });
        roundtrip(BlockKind::Logical { op: LogicOp::Not });
        roundtrip(BlockKind::Switch { threshold: 0.5 });
        roundtrip(BlockKind::Reshape {
            shape: Shape::Matrix(3, 4),
        });
        roundtrip(BlockKind::Selector {
            mode: SelectorMode::StartEnd { start: 5, end: 55 },
        });
        roundtrip(BlockKind::Selector {
            mode: SelectorMode::IndexVector(vec![9, 0, 3]),
        });
        roundtrip(BlockKind::Selector {
            mode: SelectorMode::IndexPort { output_len: 7 },
        });
        roundtrip(BlockKind::Pad {
            left: 2,
            right: 3,
            value: -0.5,
        });
        roundtrip(BlockKind::Submatrix {
            row_start: 1,
            row_end: 4,
            col_start: 0,
            col_end: 2,
        });
        roundtrip(BlockKind::Mux { inputs: 5 });
        roundtrip(BlockKind::Concatenate { inputs: 2 });
        roundtrip(BlockKind::Demux {
            sizes: vec![2, 3, 4],
        });
        roundtrip(BlockKind::FirFilter {
            coeffs: vec![0.5, 0.25, 0.125],
        });
        roundtrip(BlockKind::MovingAverage { window: 9 });
        roundtrip(BlockKind::Downsample {
            factor: 4,
            phase: 1,
        });
        roundtrip(BlockKind::Assignment { start: 7 });
        roundtrip(BlockKind::UnitDelay {
            initial: Tensor::matrix(2, 1, vec![1.0, 2.0]),
        });
    }

    #[test]
    fn parameterless_kinds_roundtrip() {
        for kind in [
            BlockKind::Terminator,
            BlockKind::Abs,
            BlockKind::Sqrt,
            BlockKind::Square,
            BlockKind::Exp,
            BlockKind::Log,
            BlockKind::Sin,
            BlockKind::Cos,
            BlockKind::Tanh,
            BlockKind::Negate,
            BlockKind::Reciprocal,
            BlockKind::Add,
            BlockKind::Subtract,
            BlockKind::Multiply,
            BlockKind::Divide,
            BlockKind::Min,
            BlockKind::Max,
            BlockKind::Mod,
            BlockKind::SumOfElements,
            BlockKind::MeanOfElements,
            BlockKind::MinOfElements,
            BlockKind::MaxOfElements,
            BlockKind::DotProduct,
            BlockKind::MatrixMultiply,
            BlockKind::Transpose,
            BlockKind::Convolution,
            BlockKind::CumulativeSum,
            BlockKind::Difference,
        ] {
            roundtrip(kind);
        }
    }

    #[test]
    fn shape_codec() {
        for s in [Shape::Scalar, Shape::Vector(17), Shape::Matrix(3, 9)] {
            assert_eq!(parse_shape(&fmt_shape(s)).unwrap(), s);
        }
        assert!(parse_shape("[-3]").is_err());
        assert!(parse_shape("nope").is_err());
    }

    #[test]
    fn vec_codec_accepts_commas() {
        assert_eq!(parse_vec("[1, 2.5, -3]").unwrap(), vec![1.0, 2.5, -3.0]);
        assert_eq!(parse_vec("[]").unwrap(), Vec::<f64>::new());
        assert!(parse_vec("1 2 3").is_err());
    }

    #[test]
    fn unknown_type_is_rejected() {
        let err = decode("warpdrive", &|_| None, None).unwrap_err();
        assert!(err.to_string().contains("warpdrive"));
    }

    #[test]
    fn missing_parameter_is_reported() {
        let err = decode("gain", &|_| None, None).unwrap_err();
        assert!(err.to_string().contains("Gain"));
    }
}
