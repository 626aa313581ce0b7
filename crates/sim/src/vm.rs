//! The loop-IR virtual machine.
//!
//! Executes a [`Program`] with semantics identical to the emitted C (same
//! clamping, same accumulation order), so agreement with the
//! [`ReferenceSimulator`](crate::ReferenceSimulator) validates both the IR
//! lowering and, transitively, the C emitter that prints the same IR.

use frodo_codegen::lir::{BinOp, BufferRole, ConvStyle, Program, ReduceOp, Slice, Src, Stmt, UnOp};

/// Interpreter state: one flat `f64` store per program buffer.
///
/// State buffers persist across [`Vm::step`] calls, matching the generated
/// C's file-scope `static` state arrays.
#[derive(Debug, Clone)]
pub struct Vm {
    bufs: Vec<Vec<f64>>,
}

impl Vm {
    /// Allocates and initializes buffers for a program.
    pub fn new(program: &Program) -> Self {
        let bufs = program
            .buffers
            .iter()
            .map(|b| match &b.role {
                BufferRole::Const(data) | BufferRole::State(data) => data.clone(),
                _ => vec![0.0; b.len],
            })
            .collect();
        Vm { bufs }
    }

    /// Resets state buffers to their initial values (inputs/temps are
    /// overwritten by execution anyway).
    pub fn reset(&mut self, program: &Program) {
        for (i, b) in program.buffers.iter().enumerate() {
            if let BufferRole::State(init) = &b.role {
                self.bufs[i].copy_from_slice(init);
            }
        }
    }

    /// Runs one step: loads `inputs` (ordered by input index), executes the
    /// statement sequence, and returns the output buffers (ordered by output
    /// index).
    ///
    /// # Panics
    ///
    /// Panics if the number or lengths of `inputs` do not match the
    /// program's input buffers.
    pub fn step(&mut self, program: &Program, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let ins = program.inputs();
        assert_eq!(ins.len(), inputs.len(), "input count mismatch");
        for ((_, id), data) in ins.iter().zip(inputs) {
            assert_eq!(self.bufs[id.0].len(), data.len(), "input length mismatch");
            self.bufs[id.0].copy_from_slice(data);
        }
        for stmt in &program.stmts {
            self.exec(stmt);
        }
        program
            .outputs()
            .into_iter()
            .map(|(_, id)| self.bufs[id.0].clone())
            .collect()
    }

    /// Read access to a buffer (diagnostics and tests).
    pub fn buffer(&self, id: frodo_codegen::lir::BufId) -> &[f64] {
        &self.bufs[id.0]
    }

    fn read(&self, src: Src, i: usize) -> f64 {
        match src {
            Src::Run(s) => self.bufs[s.buf.0][s.off + i],
            Src::Broadcast(s) => self.bufs[s.buf.0][s.off],
            Src::Const(c) => c,
        }
    }

    fn write(&mut self, dst: Slice, i: usize, v: f64) {
        self.bufs[dst.buf.0][dst.off + i] = v;
    }

    fn exec(&mut self, stmt: &Stmt) {
        match stmt.clone() {
            Stmt::Unary { op, dst, src, len } => {
                for i in 0..len {
                    let x = self.read(src, i);
                    self.write(dst, i, apply_un(op, x));
                }
            }
            Stmt::FusedUnary { ops, dst, src, len } => {
                for i in 0..len {
                    let mut x = self.read(src, i);
                    for &op in &ops {
                        x = apply_un(op, x);
                    }
                    self.write(dst, i, x);
                }
            }
            Stmt::Binary { op, dst, a, b, len } => {
                for i in 0..len {
                    let x = self.read(a, i);
                    let y = self.read(b, i);
                    self.write(dst, i, apply_bin(op, x, y));
                }
            }
            Stmt::Select {
                dst,
                ctrl,
                threshold,
                a,
                b,
                len,
            } => {
                for i in 0..len {
                    let c = self.read(ctrl, i);
                    let v = if c >= threshold {
                        self.read(a, i)
                    } else {
                        self.read(b, i)
                    };
                    self.write(dst, i, v);
                }
            }
            Stmt::Copy { dst, src, len } => {
                for i in 0..len {
                    let v = self.bufs[src.buf.0][src.off + i];
                    self.write(dst, i, v);
                }
            }
            Stmt::Fill { dst, value, len } => {
                for i in 0..len {
                    self.write(dst, i, value);
                }
            }
            Stmt::Gather { dst, src, indices } => {
                for (i, &j) in indices.iter().enumerate() {
                    let v = self.bufs[src.0][j];
                    self.write(dst, i, v);
                }
            }
            Stmt::DynGather {
                dst,
                src,
                src_len,
                idx,
                len,
            } => {
                for i in 0..len {
                    let raw = self.bufs[idx.buf.0][idx.off + i] as i64;
                    let j = raw.clamp(0, src_len as i64 - 1) as usize;
                    let v = self.bufs[src.0][j];
                    self.write(dst, i, v);
                }
            }
            Stmt::Reduce { op, dst, src, len } => {
                let data = &self.bufs[src.buf.0][src.off..src.off + len];
                let v = match op {
                    ReduceOp::Sum => data.iter().sum(),
                    ReduceOp::Mean => data.iter().sum::<f64>() / len as f64,
                    ReduceOp::Min => data.iter().skip(1).fold(data[0], |a, &b| a.min(b)),
                    ReduceOp::Max => data.iter().skip(1).fold(data[0], |a, &b| a.max(b)),
                };
                self.write(dst, 0, v);
            }
            Stmt::Dot { dst, a, b, len } => {
                let mut acc = 0.0;
                for i in 0..len {
                    acc += self.bufs[a.buf.0][a.off + i] * self.bufs[b.buf.0][b.off + i];
                }
                self.write(dst, 0, acc);
            }
            Stmt::Conv {
                dst,
                u,
                u_len,
                v,
                v_len,
                k0,
                k1,
                style,
            } => {
                // both styles compute the same values; Branchy just models
                // the slower loop structure for the cost analysis
                let _ = style;
                for k in k0..k1 {
                    let lo = k.saturating_sub(v_len - 1);
                    let hi = k.min(u_len - 1);
                    let mut acc = 0.0;
                    if let ConvStyle::Branchy = style {
                        // kernel iterated descending so the data index
                        // ascends: bit-identical accumulation order to Tight
                        for j in (0..v_len).rev() {
                            if k >= j && k - j < u_len {
                                acc += self.bufs[v.0][j] * self.bufs[u.0][k - j];
                            }
                        }
                    } else {
                        for j in lo..=hi {
                            acc += self.bufs[u.0][j] * self.bufs[v.0][k - j];
                        }
                    }
                    self.bufs[dst.0][k] = acc;
                }
            }
            Stmt::Fir {
                dst,
                src,
                coeffs,
                taps,
                k0,
                k1,
            } => {
                for k in k0..k1 {
                    let tmax = k.min(taps - 1);
                    let mut acc = 0.0;
                    for t in 0..=tmax {
                        acc += self.bufs[coeffs.0][t] * self.bufs[src.0][k - t];
                    }
                    self.bufs[dst.0][k] = acc;
                }
            }
            Stmt::MovingAvg {
                dst,
                src,
                window,
                k0,
                k1,
            } => {
                for k in k0..k1 {
                    let lo = k.saturating_sub(window - 1);
                    let mut acc = 0.0;
                    for j in lo..=k {
                        acc += self.bufs[src.0][j];
                    }
                    self.bufs[dst.0][k] = acc / window as f64;
                }
            }
            Stmt::CumSum { dst, src, k_end } => {
                let mut acc = 0.0;
                for k in 0..k_end {
                    acc += self.bufs[src.0][k];
                    self.bufs[dst.0][k] = acc;
                }
            }
            Stmt::Diff { dst, src, k0, k1 } => {
                for k in k0..k1 {
                    let v = if k == 0 {
                        self.bufs[src.0][0]
                    } else {
                        self.bufs[src.0][k] - self.bufs[src.0][k - 1]
                    };
                    self.bufs[dst.0][k] = v;
                }
            }
            Stmt::MatMul {
                dst,
                a,
                b,
                k,
                n,
                r0,
                r1,
                ..
            } => {
                for r in r0..r1 {
                    for c in 0..n {
                        let mut acc = 0.0;
                        for t in 0..k {
                            acc += self.bufs[a.0][r * k + t] * self.bufs[b.0][t * n + c];
                        }
                        self.bufs[dst.0][r * n + c] = acc;
                    }
                }
            }
            Stmt::Transpose {
                dst,
                src,
                rows,
                cols,
            } => {
                for r in 0..rows {
                    for c in 0..cols {
                        self.bufs[dst.0][c * rows + r] = self.bufs[src.0][r * cols + c];
                    }
                }
            }
            Stmt::StateLoad { dst, state, len } => {
                for i in 0..len {
                    self.bufs[dst.0][i] = self.bufs[state.0][i];
                }
            }
            Stmt::StateStore { state, src, len } => {
                for i in 0..len {
                    self.bufs[state.0][i] = self.bufs[src.0][i];
                }
            }
        }
    }
}

fn apply_un(op: UnOp, x: f64) -> f64 {
    match op {
        UnOp::Gain(g) => x * g,
        UnOp::Bias(b) => x + b,
        UnOp::Abs => x.abs(),
        UnOp::Sqrt => x.sqrt(),
        UnOp::Square => x * x,
        UnOp::Exp => x.exp(),
        UnOp::Log => x.ln(),
        UnOp::Sin => x.sin(),
        UnOp::Cos => x.cos(),
        UnOp::Tanh => x.tanh(),
        UnOp::Neg => -x,
        UnOp::Recip => 1.0 / x,
        UnOp::Sat(lo, hi) => x.max(lo).min(hi),
        UnOp::Floor => x.floor(),
        UnOp::Ceil => x.ceil(),
        UnOp::Round => x.round(),
        UnOp::Trunc => x.trunc(),
        UnOp::Not => {
            if x == 0.0 {
                1.0
            } else {
                0.0
            }
        }
        UnOp::Id => x,
    }
}

fn apply_bin(op: BinOp, a: f64, b: f64) -> f64 {
    let t = |c: bool| if c { 1.0 } else { 0.0 };
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::Mod => a % b,
        BinOp::Lt => t(a < b),
        BinOp::Le => t(a <= b),
        BinOp::Gt => t(a > b),
        BinOp::Ge => t(a >= b),
        BinOp::EqOp => t(a == b),
        BinOp::Ne => t(a != b),
        BinOp::And => t(a != 0.0 && b != 0.0),
        BinOp::Or => t(a != 0.0 || b != 0.0),
        BinOp::Xor => t((a != 0.0) != (b != 0.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_codegen::{generate, GeneratorStyle};
    use frodo_core::Analysis;
    use frodo_model::{Block, BlockKind, Model, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn figure1() -> Analysis {
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
                value: Tensor::vector(vec![0.1; 11]),
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
        Analysis::run(m).unwrap()
    }

    #[test]
    fn all_styles_agree_with_reference_on_figure1() {
        let a = figure1();
        let input: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut reference = crate::ReferenceSimulator::new(a.dfg().clone());
        let expected = reference.step(&[Tensor::vector(input.clone())]).unwrap();
        for style in GeneratorStyle::ALL {
            let p = generate(&a, style, &frodo_obs::Trace::noop());
            let mut vm = Vm::new(&p);
            let out = vm.step(&p, std::slice::from_ref(&input));
            let diff: f64 = out[0]
                .iter()
                .zip(expected[0].data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-12, "style {style} deviates by {diff}");
        }
    }

    /// Builds a two-buffer program for direct statement-level testing.
    fn scratch_program(stmts: Vec<Stmt>, src_data: Vec<f64>, dst_len: usize) -> Program {
        use frodo_codegen::lir::{Buffer, BufferRole};
        Program {
            name: "scratch".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                Buffer {
                    name: "src".into(),
                    len: src_data.len(),
                    role: BufferRole::Const(src_data),
                },
                Buffer {
                    name: "dst".into(),
                    len: dst_len,
                    role: BufferRole::Output(0),
                },
                Buffer {
                    name: "aux".into(),
                    len: 8,
                    role: BufferRole::Const(vec![2.0, 5.0, -1.0, 0.0, 9.0, 3.0, 7.0, 1.0]),
                },
            ],
            stmts,
        }
    }

    #[test]
    fn select_broadcasts_scalar_control() {
        use frodo_codegen::lir::{BufId, Slice, Src};
        let p = scratch_program(
            vec![Stmt::Select {
                dst: Slice::new(BufId(1), 0),
                ctrl: Src::Broadcast(Slice::new(BufId(0), 0)),
                threshold: 0.5,
                a: Src::Run(Slice::new(BufId(2), 0)),
                b: Src::Const(-7.0),
                len: 4,
            }],
            vec![1.0],
            4,
        );
        let out = Vm::new(&p).step(&p, &[]);
        assert_eq!(out[0], vec![2.0, 5.0, -1.0, 0.0]);
    }

    #[test]
    fn dyn_gather_clamps_out_of_range_indices() {
        use frodo_codegen::lir::{BufId, Slice};
        // indices 9.9 (clamp to 7), -3 (clamp to 0), 2.7 (trunc to 2)
        let p = scratch_program(
            vec![Stmt::DynGather {
                dst: Slice::new(BufId(1), 0),
                src: BufId(2),
                src_len: 8,
                idx: Slice::new(BufId(0), 0),
                len: 3,
            }],
            vec![9.9, -3.0, 2.7],
            3,
        );
        let out = Vm::new(&p).step(&p, &[]);
        assert_eq!(out[0], vec![1.0, 2.0, -1.0]);
    }

    #[test]
    fn reduce_min_max_match_c_fmin_fmax_semantics() {
        use frodo_codegen::lir::{BufId, ReduceOp, Slice};
        let p = scratch_program(
            vec![
                Stmt::Reduce {
                    op: ReduceOp::Min,
                    dst: Slice::new(BufId(1), 0),
                    src: Slice::new(BufId(2), 0),
                    len: 8,
                },
                Stmt::Reduce {
                    op: ReduceOp::Max,
                    dst: Slice::new(BufId(1), 1),
                    src: Slice::new(BufId(2), 0),
                    len: 8,
                },
                Stmt::Reduce {
                    op: ReduceOp::Mean,
                    dst: Slice::new(BufId(1), 2),
                    src: Slice::new(BufId(2), 0),
                    len: 8,
                },
            ],
            vec![0.0],
            3,
        );
        let out = Vm::new(&p).step(&p, &[]);
        assert_eq!(out[0][0], -1.0);
        assert_eq!(out[0][1], 9.0);
        assert!((out[0][2] - 3.25).abs() < 1e-12);
    }

    #[test]
    fn moving_average_partial_range_matches_full_prefix() {
        use frodo_codegen::lir::{BufId, Slice};
        let _ = Slice::new(BufId(0), 0);
        // computing only [4, 8) must produce the same values there as [0, 8)
        let src: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let full = scratch_program(
            vec![Stmt::MovingAvg {
                dst: BufId(1),
                src: BufId(0),
                window: 3,
                k0: 0,
                k1: 8,
            }],
            src.clone(),
            8,
        );
        let partial = scratch_program(
            vec![Stmt::MovingAvg {
                dst: BufId(1),
                src: BufId(0),
                window: 3,
                k0: 4,
                k1: 8,
            }],
            src,
            8,
        );
        let a = Vm::new(&full).step(&full, &[]);
        let b = Vm::new(&partial).step(&partial, &[]);
        assert_eq!(a[0][4..], b[0][4..]);
        assert_eq!(&b[0][..4], &[0.0; 4]);
    }

    #[test]
    fn matmul_row_range_computes_only_those_rows() {
        use frodo_codegen::lir::{BufId, Slice};
        let _ = Slice::new(BufId(0), 0);
        // A = 3x2 (from src), B = 2x2 (first 4 of aux); compute row 1 only
        let p = scratch_program(
            vec![Stmt::MatMul {
                dst: BufId(1),
                a: BufId(0),
                b: BufId(2),
                m: 3,
                k: 2,
                n: 2,
                r0: 1,
                r1: 2,
            }],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            6,
        );
        let out = Vm::new(&p).step(&p, &[]);
        // row 1 of product: [3,4]·[[2,5],[-1,0]] = [3*2+4*(-1), 3*5+4*0] = [2, 15]
        assert_eq!(&out[0][2..4], &[2.0, 15.0]);
        assert_eq!(&out[0][..2], &[0.0, 0.0]);
        assert_eq!(&out[0][4..], &[0.0, 0.0]);
    }

    #[test]
    fn state_persists_across_steps() {
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
        let a = Analysis::run(m).unwrap();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let mut vm = Vm::new(&p);
        assert_eq!(vm.step(&p, &[vec![1.0]])[0], vec![1.0]);
        assert_eq!(vm.step(&p, &[vec![2.0]])[0], vec![3.0]);
        assert_eq!(vm.step(&p, &[vec![3.0]])[0], vec![6.0]);
        vm.reset(&p);
        assert_eq!(vm.step(&p, &[vec![5.0]])[0], vec![5.0]);
    }

    #[test]
    fn branchy_and_tight_conv_agree_numerically() {
        let a = figure1();
        let input: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let tight = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let branchy = generate(&a, GeneratorStyle::SimulinkCoder, &frodo_obs::Trace::noop());
        let o1 = Vm::new(&tight).step(&tight, std::slice::from_ref(&input));
        let o2 = Vm::new(&branchy).step(&branchy, &[input]);
        assert_eq!(o1, o2);
    }
}
