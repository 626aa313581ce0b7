//! The reference simulator: direct evaluation of model semantics.
//!
//! This is the oracle of the paper's correctness methodology (§4): "we also
//! generated a large number of random test cases for the code generated by
//! FRODO and compared the results with those from model simulations". Every
//! generator style's VM execution is compared against this simulator.

use frodo_graph::Dfg;
use frodo_model::{
    Block, BlockId, BlockKind, InPort, LogicOp, RelOp, RoundMode, SelectorMode, Tensor,
};
use frodo_ranges::Shape;
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised during simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The number of provided inputs differs from the model's inports.
    WrongInputCount {
        /// Inports the model declares.
        expected: usize,
        /// Inputs provided.
        got: usize,
    },
    /// A provided input tensor has the wrong shape.
    WrongInputShape {
        /// The input index.
        index: usize,
        /// Declared shape.
        expected: Shape,
        /// Provided shape.
        got: Shape,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WrongInputCount { expected, got } => {
                write!(f, "model expects {expected} inputs, got {got}")
            }
            SimError::WrongInputShape {
                index,
                expected,
                got,
            } => {
                write!(f, "input {index} expects shape {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Evaluates a model's semantics block by block in schedule order,
/// maintaining unit-delay state across steps.
#[derive(Debug, Clone)]
pub struct ReferenceSimulator {
    dfg: Dfg,
    order: Vec<BlockId>,
    state: BTreeMap<BlockId, Tensor>,
}

impl ReferenceSimulator {
    /// Creates a simulator with delays at their initial conditions.
    pub fn new(dfg: Dfg) -> Self {
        let order = dfg.schedule().expect("valid Dfg always schedules");
        let mut state = BTreeMap::new();
        for (id, block) in dfg.model().iter() {
            if let BlockKind::UnitDelay { initial } = &block.kind {
                state.insert(id, initial.clone());
            }
        }
        ReferenceSimulator { dfg, order, state }
    }

    /// Resets unit-delay state to the initial conditions.
    pub fn reset(&mut self) {
        for (id, block) in self.dfg.model().iter() {
            if let BlockKind::UnitDelay { initial } = &block.kind {
                self.state.insert(id, initial.clone());
            }
        }
    }

    /// The analyzed graph being simulated.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// Runs one simulation step, returning the model outputs in index order.
    ///
    /// # Errors
    ///
    /// Returns an error when the provided inputs do not match the model's
    /// inport count or shapes.
    pub fn step(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, SimError> {
        let model = self.dfg.model();
        let n_in = model.num_inports();
        if inputs.len() != n_in {
            return Err(SimError::WrongInputCount {
                expected: n_in,
                got: inputs.len(),
            });
        }
        for (id, block) in model.iter() {
            if let BlockKind::Inport { index, shape } = block.kind {
                if inputs[index].shape() != shape {
                    return Err(SimError::WrongInputShape {
                        index,
                        expected: shape,
                        got: inputs[index].shape(),
                    });
                }
                let _ = id;
            }
        }

        let mut values: BTreeMap<(BlockId, usize), Tensor> = BTreeMap::new();
        let mut outputs: BTreeMap<usize, Tensor> = BTreeMap::new();
        let mut delay_next: BTreeMap<BlockId, Tensor> = BTreeMap::new();

        // Delay outputs are the previous state, available up front.
        for (&id, st) in &self.state {
            values.insert((id, 0), st.clone());
        }

        for &id in &self.order {
            let block = model.block(id).clone();
            let ins: Vec<Tensor> = (0..block.kind.num_inputs())
                .map(|p| {
                    let src = self.dfg.source_of(InPort::new(id, p));
                    values[&(src.block, src.port)].clone()
                })
                .collect();
            match &block.kind {
                BlockKind::Inport { index, .. } => {
                    values.insert((id, 0), inputs[*index].clone());
                }
                BlockKind::Constant { value } => {
                    values.insert((id, 0), value.clone());
                }
                BlockKind::Outport { index } => {
                    outputs.insert(*index, ins[0].clone());
                }
                BlockKind::Terminator => {}
                BlockKind::UnitDelay { .. } => {
                    // output (previous state) was seeded; record next state
                    delay_next.insert(id, ins[0].clone());
                }
                _ => {
                    for (p, t) in eval_block(&block, &ins, &self.dfg, id)
                        .into_iter()
                        .enumerate()
                    {
                        values.insert((id, p), t);
                    }
                }
            }
        }

        for (id, t) in delay_next {
            self.state.insert(id, t);
        }

        Ok(outputs.into_values().collect())
    }
}

/// Elementwise binary evaluation with scalar broadcast.
fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
    if a.shape().is_scalar() && !b.shape().is_scalar() {
        let av = a.get(0);
        Tensor::new(b.shape(), b.data().iter().map(|&bv| f(av, bv)).collect())
    } else if b.shape().is_scalar() && !a.shape().is_scalar() {
        let bv = b.get(0);
        Tensor::new(a.shape(), a.data().iter().map(|&av| f(av, bv)).collect())
    } else {
        Tensor::new(
            a.shape(),
            a.data()
                .iter()
                .zip(b.data())
                .map(|(&x, &y)| f(x, y))
                .collect(),
        )
    }
}

fn map(a: &Tensor, f: impl Fn(f64) -> f64) -> Tensor {
    Tensor::new(a.shape(), a.data().iter().map(|&x| f(x)).collect())
}

fn truthy(x: f64) -> bool {
    x != 0.0
}

fn b2f(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Evaluates one (stateless, non-port) block.
///
/// The semantics here are the contract every generator must honour; the VM
/// and the emitted C are tested for exact agreement with these definitions.
pub(crate) fn eval_block(block: &Block, ins: &[Tensor], dfg: &Dfg, id: BlockId) -> Vec<Tensor> {
    let kind = &block.kind;
    match kind {
        BlockKind::Gain { gain } => vec![map(&ins[0], |x| x * gain)],
        BlockKind::Bias { bias } => vec![map(&ins[0], |x| x + bias)],
        BlockKind::Abs => vec![map(&ins[0], f64::abs)],
        BlockKind::Sqrt => vec![map(&ins[0], f64::sqrt)],
        BlockKind::Square => vec![map(&ins[0], |x| x * x)],
        BlockKind::Exp => vec![map(&ins[0], f64::exp)],
        BlockKind::Log => vec![map(&ins[0], f64::ln)],
        BlockKind::Sin => vec![map(&ins[0], f64::sin)],
        BlockKind::Cos => vec![map(&ins[0], f64::cos)],
        BlockKind::Tanh => vec![map(&ins[0], f64::tanh)],
        BlockKind::Negate => vec![map(&ins[0], |x| -x)],
        BlockKind::Reciprocal => vec![map(&ins[0], |x| 1.0 / x)],
        BlockKind::Saturation { lower, upper } => {
            // C: frodo_min(frodo_max(x, lo), hi), an inline fmin(fmax(..))
            let (lo, hi) = (*lower, *upper);
            vec![map(&ins[0], move |x| x.max(lo).min(hi))]
        }
        BlockKind::Rounding { mode } => vec![match mode {
            RoundMode::Floor => map(&ins[0], f64::floor),
            RoundMode::Ceil => map(&ins[0], f64::ceil),
            RoundMode::Round => map(&ins[0], f64::round),
            RoundMode::Fix => map(&ins[0], f64::trunc),
        }],
        BlockKind::Add => vec![zip(&ins[0], &ins[1], |a, b| a + b)],
        BlockKind::Subtract => vec![zip(&ins[0], &ins[1], |a, b| a - b)],
        BlockKind::Multiply => vec![zip(&ins[0], &ins[1], |a, b| a * b)],
        BlockKind::Divide => vec![zip(&ins[0], &ins[1], |a, b| a / b)],
        BlockKind::Min => vec![zip(&ins[0], &ins[1], f64::min)],
        BlockKind::Max => vec![zip(&ins[0], &ins[1], f64::max)],
        BlockKind::Mod => vec![zip(&ins[0], &ins[1], |a, b| a % b)],
        BlockKind::Relational { op } => {
            let f: fn(f64, f64) -> f64 = match op {
                RelOp::Lt => |a, b| b2f(a < b),
                RelOp::Le => |a, b| b2f(a <= b),
                RelOp::Gt => |a, b| b2f(a > b),
                RelOp::Ge => |a, b| b2f(a >= b),
                RelOp::Eq => |a, b| b2f(a == b),
                RelOp::Ne => |a, b| b2f(a != b),
            };
            vec![zip(&ins[0], &ins[1], f)]
        }
        BlockKind::Logical { op } => match op {
            LogicOp::Not => vec![map(&ins[0], |x| b2f(!truthy(x)))],
            LogicOp::And => vec![zip(&ins[0], &ins[1], |a, b| b2f(truthy(a) && truthy(b)))],
            LogicOp::Or => vec![zip(&ins[0], &ins[1], |a, b| b2f(truthy(a) || truthy(b)))],
            LogicOp::Xor => vec![zip(&ins[0], &ins[1], |a, b| b2f(truthy(a) != truthy(b)))],
        },
        BlockKind::Switch { threshold } => {
            let out_shape = dfg.shapes().output(id, 0);
            let n = out_shape.numel();
            let pick = |t: &Tensor, i: usize| {
                if t.shape().is_scalar() && !out_shape.is_scalar() {
                    t.get(0)
                } else {
                    t.get(i)
                }
            };
            let data = (0..n)
                .map(|i| {
                    if pick(&ins[1], i) >= *threshold {
                        pick(&ins[0], i)
                    } else {
                        pick(&ins[2], i)
                    }
                })
                .collect();
            vec![Tensor::new(out_shape, data)]
        }
        BlockKind::SumOfElements => vec![Tensor::scalar(ins[0].data().iter().sum())],
        BlockKind::MeanOfElements => {
            let n = ins[0].numel() as f64;
            vec![Tensor::scalar(ins[0].data().iter().sum::<f64>() / n)]
        }
        BlockKind::MinOfElements => {
            // the NaN-ignoring fold from the first element; the C's eight
            // lanes give the same value up to the sign of a zero, and run
            // this fold when every element is NaN or +inf (-inf for max)
            let first = ins[0].get(0);
            vec![Tensor::scalar(
                ins[0].data().iter().skip(1).fold(first, |a, &b| a.min(b)),
            )]
        }
        BlockKind::MaxOfElements => {
            let first = ins[0].get(0);
            vec![Tensor::scalar(
                ins[0].data().iter().skip(1).fold(first, |a, &b| a.max(b)),
            )]
        }
        BlockKind::DotProduct => {
            let s = ins[0]
                .data()
                .iter()
                .zip(ins[1].data())
                .map(|(&a, &b)| a * b)
                .sum();
            vec![Tensor::scalar(s)]
        }
        BlockKind::MatrixMultiply => {
            let (m, k) = (ins[0].shape().rows(), ins[0].shape().cols());
            let n = ins[1].shape().cols();
            let mut out = vec![0.0; m * n];
            for r in 0..m {
                for c in 0..n {
                    let mut acc = 0.0;
                    for t in 0..k {
                        acc += ins[0].data()[r * k + t] * ins[1].data()[t * n + c];
                    }
                    out[r * n + c] = acc;
                }
            }
            vec![Tensor::new(Shape::Matrix(m, n), out)]
        }
        BlockKind::Transpose => vec![ins[0].transposed()],
        BlockKind::Reshape { shape } => vec![ins[0].reshaped(*shape)],
        BlockKind::Selector { mode } => match mode {
            SelectorMode::StartEnd { start, end } => {
                vec![Tensor::vector(ins[0].data()[*start..*end].to_vec())]
            }
            SelectorMode::IndexVector(idxs) => {
                vec![Tensor::vector(
                    idxs.iter().map(|&i| ins[0].get(i)).collect(),
                )]
            }
            SelectorMode::IndexPort { output_len } => {
                let n = ins[0].numel() as i64;
                let data = (0..*output_len)
                    .map(|i| {
                        let mut j = ins[1].get(i) as i64;
                        if j < 0 {
                            j = 0;
                        }
                        if j >= n {
                            j = n - 1;
                        }
                        ins[0].get(j as usize)
                    })
                    .collect();
                vec![Tensor::vector(data)]
            }
        },
        BlockKind::Pad { left, right, value } => {
            let mut data = vec![*value; left + ins[0].numel() + right];
            data[*left..left + ins[0].numel()].copy_from_slice(ins[0].data());
            vec![Tensor::vector(data)]
        }
        BlockKind::Submatrix {
            row_start,
            row_end,
            col_start,
            col_end,
        } => {
            let cols = ins[0].shape().cols();
            let mut data = Vec::new();
            for r in *row_start..*row_end {
                for c in *col_start..*col_end {
                    data.push(ins[0].data()[r * cols + c]);
                }
            }
            vec![Tensor::new(
                Shape::Matrix(row_end - row_start, col_end - col_start),
                data,
            )]
        }
        BlockKind::Assignment { start } => {
            let mut data = ins[0].data().to_vec();
            data[*start..start + ins[1].numel()].copy_from_slice(ins[1].data());
            vec![Tensor::vector(data)]
        }
        BlockKind::Mux { .. } | BlockKind::Concatenate { .. } => {
            let mut data = Vec::new();
            for t in ins {
                data.extend_from_slice(t.data());
            }
            vec![Tensor::vector(data)]
        }
        BlockKind::Demux { sizes } => {
            let mut out = Vec::new();
            let mut off = 0;
            for &s in sizes {
                out.push(Tensor::vector(ins[0].data()[off..off + s].to_vec()));
                off += s;
            }
            out
        }
        BlockKind::Convolution => {
            let (u, v) = (ins[0].data(), ins[1].data());
            let (n, m) = (u.len(), v.len());
            let mut out = vec![0.0; n + m - 1];
            for (k, slot) in out.iter_mut().enumerate() {
                let lo = k.saturating_sub(m - 1);
                let hi = k.min(n - 1);
                let mut acc = 0.0;
                for (j, &uj) in u.iter().enumerate().take(hi + 1).skip(lo) {
                    acc += uj * v[k - j];
                }
                *slot = acc;
            }
            vec![Tensor::vector(out)]
        }
        BlockKind::FirFilter { coeffs } => {
            let x = ins[0].data();
            let out = (0..x.len())
                .map(|k| {
                    let tmax = k.min(coeffs.len() - 1);
                    (0..=tmax).map(|t| coeffs[t] * x[k - t]).sum()
                })
                .collect();
            vec![Tensor::vector(out)]
        }
        BlockKind::MovingAverage { window } => {
            let x = ins[0].data();
            let w = *window;
            let out = (0..x.len())
                .map(|k| {
                    let lo = k.saturating_sub(w - 1);
                    x[lo..=k].iter().sum::<f64>() / w as f64
                })
                .collect();
            vec![Tensor::vector(out)]
        }
        BlockKind::Downsample { factor, phase } => {
            let x = ins[0].data();
            let out = (*phase..x.len()).step_by(*factor).map(|i| x[i]).collect();
            vec![Tensor::vector(out)]
        }
        BlockKind::CumulativeSum => {
            let mut acc = 0.0;
            let out = ins[0]
                .data()
                .iter()
                .map(|&x| {
                    acc += x;
                    acc
                })
                .collect();
            vec![Tensor::vector(out)]
        }
        BlockKind::Difference => {
            let x = ins[0].data();
            let out = (0..x.len())
                .map(|k| if k == 0 { x[0] } else { x[k] - x[k - 1] })
                .collect();
            vec![Tensor::vector(out)]
        }
        BlockKind::Inport { .. }
        | BlockKind::Constant { .. }
        | BlockKind::Outport { .. }
        | BlockKind::Terminator
        | BlockKind::UnitDelay { .. }
        | BlockKind::Subsystem(_) => unreachable!("handled by the step loop"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::Model;

    fn run_once(m: Model, inputs: &[Tensor]) -> Vec<Tensor> {
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let mut sim = ReferenceSimulator::new(dfg);
        sim.step(inputs).unwrap()
    }

    #[test]
    fn gain_chain() {
        let mut m = Model::new("g");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(3),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, o, 0).unwrap();
        let out = run_once(m, &[Tensor::vector(vec![1.0, 2.0, 3.0])]);
        assert_eq!(out[0].data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn convolution_matches_hand_computation() {
        // [1,2,3] ⊛ [1,1] = [1,3,5,3]
        let mut m = Model::new("c");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(3),
            },
        ));
        let k = m.add(Block::new(
            "k",
            BlockKind::Constant {
                value: Tensor::vector(vec![1.0, 1.0]),
            },
        ));
        let c = m.add(Block::new("c", BlockKind::Convolution));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, c, 0).unwrap();
        m.connect(k, 0, c, 1).unwrap();
        m.connect(c, 0, o, 0).unwrap();
        let out = run_once(m, &[Tensor::vector(vec![1.0, 2.0, 3.0])]);
        assert_eq!(out[0].data(), &[1.0, 3.0, 5.0, 3.0]);
    }

    #[test]
    fn constant_blocks_feed_values() {
        let mut m = Model::new("k");
        let a = m.add(Block::new(
            "a",
            BlockKind::Constant {
                value: Tensor::vector(vec![1.0, 2.0]),
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Constant {
                value: Tensor::scalar(10.0),
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(a, 0, add, 0).unwrap();
        m.connect(b, 0, add, 1).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        let out = run_once(m, &[]);
        assert_eq!(out[0].data(), &[11.0, 12.0]);
    }

    #[test]
    fn unit_delay_shifts_by_one_step() {
        let mut m = Model::new("z");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let z = m.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::scalar(-1.0),
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, z, 0).unwrap();
        m.connect(z, 0, o, 0).unwrap();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let mut sim = ReferenceSimulator::new(dfg);
        assert_eq!(sim.step(&[Tensor::scalar(5.0)]).unwrap()[0].get(0), -1.0);
        assert_eq!(sim.step(&[Tensor::scalar(7.0)]).unwrap()[0].get(0), 5.0);
        sim.reset();
        assert_eq!(sim.step(&[Tensor::scalar(9.0)]).unwrap()[0].get(0), -1.0);
    }

    #[test]
    fn accumulator_feedback_loop() {
        // out = running sum of inputs via add + delay
        let mut m = Model::new("acc");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let z = m.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::scalar(0.0),
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, add, 0).unwrap();
        m.connect(z, 0, add, 1).unwrap();
        m.connect(add, 0, z, 0).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let mut sim = ReferenceSimulator::new(dfg);
        let mut outs = Vec::new();
        for v in [1.0, 2.0, 3.0] {
            outs.push(sim.step(&[Tensor::scalar(v)]).unwrap()[0].get(0));
        }
        assert_eq!(outs, vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn switch_selects_elementwise() {
        let mut m = Model::new("sw");
        let a = m.add(Block::new(
            "a",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(3),
            },
        ));
        let c = m.add(Block::new(
            "c",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Vector(3),
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Inport {
                index: 2,
                shape: Shape::Vector(3),
            },
        ));
        let sw = m.add(Block::new("sw", BlockKind::Switch { threshold: 0.5 }));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(a, 0, sw, 0).unwrap();
        m.connect(c, 0, sw, 1).unwrap();
        m.connect(b, 0, sw, 2).unwrap();
        m.connect(sw, 0, o, 0).unwrap();
        let out = run_once(
            m,
            &[
                Tensor::vector(vec![1.0, 2.0, 3.0]),
                Tensor::vector(vec![1.0, 0.0, 1.0]),
                Tensor::vector(vec![-1.0, -2.0, -3.0]),
            ],
        );
        assert_eq!(out[0].data(), &[1.0, -2.0, 3.0]);
    }

    #[test]
    fn selector_index_port_clamps() {
        let mut m = Model::new("sp");
        let d = m.add(Block::new(
            "d",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let ix = m.add(Block::new(
            "ix",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Vector(3),
            },
        ));
        let s = m.add(Block::new(
            "s",
            BlockKind::Selector {
                mode: SelectorMode::IndexPort { output_len: 3 },
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(d, 0, s, 0).unwrap();
        m.connect(ix, 0, s, 1).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        let out = run_once(
            m,
            &[
                Tensor::vector(vec![10.0, 11.0, 12.0, 13.0]),
                Tensor::vector(vec![2.0, -1.0, 9.0]),
            ],
        );
        assert_eq!(out[0].data(), &[12.0, 10.0, 13.0]);
    }

    #[test]
    fn demux_splits_and_orders_outputs() {
        let mut m = Model::new("dm");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(5),
            },
        ));
        let d = m.add(Block::new("d", BlockKind::Demux { sizes: vec![2, 3] }));
        let o0 = m.add(Block::new("o0", BlockKind::Outport { index: 0 }));
        let o1 = m.add(Block::new("o1", BlockKind::Outport { index: 1 }));
        m.connect(i, 0, d, 0).unwrap();
        m.connect(d, 0, o0, 0).unwrap();
        m.connect(d, 1, o1, 0).unwrap();
        let out = run_once(m, &[Tensor::vector(vec![1.0, 2.0, 3.0, 4.0, 5.0])]);
        assert_eq!(out[0].data(), &[1.0, 2.0]);
        assert_eq!(out[1].data(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn wrong_inputs_are_rejected() {
        let mut m = Model::new("g");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(3),
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, o, 0).unwrap();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let mut sim = ReferenceSimulator::new(dfg);
        assert!(matches!(
            sim.step(&[]),
            Err(SimError::WrongInputCount { .. })
        ));
        assert!(matches!(
            sim.step(&[Tensor::scalar(1.0)]),
            Err(SimError::WrongInputShape { .. })
        ));
    }
}
