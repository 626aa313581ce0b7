//! Optional LIR optimization passes.
//!
//! The paper notes that Simulink Embedded Coder performs *expression
//! folding* and that "compilers employ a similar and effective
//! implementation"; this module provides the same transformation at the IR
//! level so its interaction with redundancy elimination can be studied
//! (`frodo-bench --bin ablation`). The pass is opt-in: the default pipeline
//! leaves folding to the C compiler, like the paper's generators do.

use crate::lir::{Program, Slice, Src, Stmt};

/// Fuses chains of elementwise unary statements into single loops.
///
/// # Example
///
/// ```
/// use frodo_codegen::optimize::fold_expressions;
/// use frodo_codegen::{generate, GeneratorStyle};
/// use frodo_core::Analysis;
/// use frodo_model::{Block, BlockKind, Model};
/// use frodo_ranges::Shape;
///
/// # fn main() -> Result<(), frodo_model::ModelError> {
/// let mut m = Model::new("chain");
/// let i = m.add(Block::new("i", BlockKind::Inport { index: 0, shape: Shape::Vector(8) }));
/// let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
/// let a = m.add(Block::new("a", BlockKind::Abs));
/// let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
/// m.connect(i, 0, g, 0)?;
/// m.connect(g, 0, a, 0)?;
/// m.connect(a, 0, o, 0)?;
/// let p = generate(&Analysis::run(m)?, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
/// let folded = fold_expressions(&p);
/// assert_eq!(folded.stmts.len(), p.stmts.len() - 1); // gain+abs fused
/// # Ok(())
/// # }
/// ```
///
/// `t = f(x); y = g(t)` becomes `y = g(f(x))` when the intermediate run is
/// produced by exactly one unary statement and consumed by exactly one
/// other statement. The intermediate buffer stays allocated (memory parity
/// across generators is part of the evaluation) but is no longer written.
///
/// Chains of any length fold in one call; the result is returned as a new
/// program.
pub fn fold_expressions(program: &Program) -> Program {
    // the input program is borrowed, so the statement list must be copied
    // once up front; the folding loop below then works by ownership
    let mut stmts = program.stmts.clone();
    while let Some((producer, consumer, delta)) = find_fusable(&stmts) {
        // merge producer into consumer: removing the producer first hands
        // us its statement by value (find_fusable guarantees
        // producer < consumer, so the consumer shifts down by one)
        let (mut ops, p_src) = match stmts.remove(producer) {
            Stmt::Unary { op, src, .. } => (vec![op], src),
            Stmt::FusedUnary { ops, src, .. } => (ops, src),
            _ => unreachable!("find_fusable only returns unary producers"),
        };
        // a subset consumer fuses on the intersection — its own (smaller)
        // run — so the producer's run source shifts by the same offset
        let p_src = match p_src {
            Src::Run(s) => Src::Run(Slice::new(s.buf, s.off + delta)),
            other => other,
        };
        let consumer = consumer - 1;
        let (c_ops, c_dst, c_len) = match &stmts[consumer] {
            &Stmt::Unary { op, dst, len, .. } => (vec![op], dst, len),
            Stmt::FusedUnary { ops, dst, len, .. } => (ops.clone(), *dst, *len),
            _ => unreachable!("find_fusable only returns unary consumers"),
        };
        ops.extend(c_ops);
        stmts[consumer] = Stmt::FusedUnary {
            ops,
            dst: c_dst,
            src: p_src,
            len: c_len,
        };
    }
    Program {
        name: program.name.clone(),
        style: program.style,
        buffers: program.buffers.clone(),
        stmts,
    }
}

/// Finds `(producer, consumer, delta)` of a fusable unary pair, where
/// `delta` is the consumer run's offset into the producer's run (`0` when
/// the runs coincide exactly).
fn find_fusable(stmts: &[Stmt]) -> Option<(usize, usize, usize)> {
    for (j, stmt) in stmts.iter().enumerate() {
        let (src, len) = match stmt {
            Stmt::Unary {
                src: Src::Run(s),
                len,
                ..
            }
            | Stmt::FusedUnary {
                src: Src::Run(s),
                len,
                ..
            } => (*s, *len),
            _ => continue,
        };
        // the producer must be the unique unary statement writing a run
        // the consumer's read run sits inside — fusion happens on the
        // intersection, which for a subset read is the consumer's own
        // `[k0, k1)`; the producer's uncovered tail elements are written
        // for nobody (the uniqueness check below guarantees no other
        // reader) and simply drop out
        let Some((i, delta)) = stmts.iter().enumerate().find_map(|(i, p)| match p {
            Stmt::Unary { dst, len: plen, .. } | Stmt::FusedUnary { dst, len: plen, .. } => {
                (dst.buf == src.buf && src.off >= dst.off && src.off + len <= dst.off + plen)
                    .then(|| (i, src.off - dst.off))
            }
            _ => None,
        }) else {
            continue;
        };
        if i >= j {
            continue;
        }
        // nothing else may write or read the intermediate buffer
        let unique = stmts.iter().enumerate().all(|(k, s)| {
            k == i || k == j || (!writes_buffer(s, src) && !reads_buffer(s, src.buf))
        });
        if unique {
            return Some((i, j, delta));
        }
    }
    None
}

fn writes_buffer(stmt: &Stmt, dst: Slice) -> bool {
    match stmt {
        Stmt::Unary { dst: d, .. }
        | Stmt::FusedUnary { dst: d, .. }
        | Stmt::Binary { dst: d, .. }
        | Stmt::Select { dst: d, .. }
        | Stmt::Copy { dst: d, .. }
        | Stmt::Fill { dst: d, .. }
        | Stmt::Gather { dst: d, .. }
        | Stmt::DynGather { dst: d, .. }
        | Stmt::Reduce { dst: d, .. }
        | Stmt::Dot { dst: d, .. } => d.buf == dst.buf,
        Stmt::Conv { dst: d, .. }
        | Stmt::Fir { dst: d, .. }
        | Stmt::MovingAvg { dst: d, .. }
        | Stmt::CumSum { dst: d, .. }
        | Stmt::Diff { dst: d, .. }
        | Stmt::MatMul { dst: d, .. }
        | Stmt::Transpose { dst: d, .. }
        | Stmt::StateLoad { dst: d, .. } => *d == dst.buf,
        Stmt::StateStore { state, .. } => *state == dst.buf,
    }
}

fn src_buf(src: &Src) -> Option<crate::lir::BufId> {
    match src {
        Src::Run(s) | Src::Broadcast(s) => Some(s.buf),
        Src::Const(_) => None,
    }
}

fn reads_buffer(stmt: &Stmt, buf: crate::lir::BufId) -> bool {
    match stmt {
        Stmt::Unary { src, .. } | Stmt::FusedUnary { src, .. } => src_buf(src) == Some(buf),
        Stmt::Binary { a, b, .. } => src_buf(a) == Some(buf) || src_buf(b) == Some(buf),
        Stmt::Select { ctrl, a, b, .. } => {
            src_buf(ctrl) == Some(buf) || src_buf(a) == Some(buf) || src_buf(b) == Some(buf)
        }
        Stmt::Copy { src, .. } => src.buf == buf,
        Stmt::Fill { .. } => false,
        Stmt::Gather { src, .. } | Stmt::DynGather { src, .. } => *src == buf,
        Stmt::Reduce { src, .. } => src.buf == buf,
        Stmt::Dot { a, b, .. } => a.buf == buf || b.buf == buf,
        Stmt::Conv { u, v, .. } => *u == buf || *v == buf,
        Stmt::Fir { src, coeffs, .. } => *src == buf || *coeffs == buf,
        Stmt::MovingAvg { src, .. } | Stmt::CumSum { src, .. } | Stmt::Diff { src, .. } => {
            *src == buf
        }
        Stmt::MatMul { a, b, .. } => *a == buf || *b == buf,
        Stmt::Transpose { src, .. } => *src == buf,
        Stmt::StateLoad { state, .. } => *state == buf,
        Stmt::StateStore { src, .. } => *src == buf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::{BufId, Buffer, BufferRole};
    use crate::{generate, GeneratorStyle};
    use frodo_core::Analysis;
    use frodo_model::{Block, BlockKind, Model};
    use frodo_ranges::Shape;

    fn unary_chain_model() -> Model {
        // in -> gain -> bias -> abs -> sqrt -> out, with only out consuming
        let mut m = Model::new("chain");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(16),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let b = m.add(Block::new("b", BlockKind::Bias { bias: 1.0 }));
        let a = m.add(Block::new("a", BlockKind::Abs));
        let s = m.add(Block::new("s", BlockKind::Sqrt));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, b, 0).unwrap();
        m.connect(b, 0, a, 0).unwrap();
        m.connect(a, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        m
    }

    #[test]
    fn chain_folds_to_single_loop() {
        let analysis = Analysis::run(unary_chain_model()).unwrap();
        let p = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let folded = fold_expressions(&p);
        let fused: Vec<&Stmt> = folded
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::FusedUnary { .. }))
            .collect();
        assert_eq!(fused.len(), 1, "{folded}");
        match fused[0] {
            Stmt::FusedUnary { ops, .. } => assert_eq!(ops.len(), 4),
            _ => unreachable!(),
        }
        // chain loops collapsed: 4 unary stmts -> 1 fused (+ outport copy)
        assert_eq!(folded.stmts.len(), p.stmts.len() - 3);
    }

    /// A minimal evaluator sufficient for unary-chain programs (the full
    /// VM lives in `frodo-sim`, which depends on this crate).
    ///
    /// Returns `None` when the program contains an op or statement outside
    /// its repertoire: callers skip the semantics comparison for that fold
    /// instead of aborting, so an unexpected op can never panic the suite.
    fn mini_eval(p: &Program, input: &[f64]) -> Option<Vec<f64>> {
        use crate::lir::{BufferRole, Src};
        let mut bufs: Vec<Vec<f64>> = p
            .buffers
            .iter()
            .map(|b| match &b.role {
                BufferRole::Const(d) | BufferRole::State(d) => d.clone(),
                BufferRole::Input(_) => input.to_vec(),
                _ => vec![0.0; b.len],
            })
            .collect();
        let apply = |op: crate::lir::UnOp, x: f64| -> Option<f64> {
            use crate::lir::UnOp::*;
            match op {
                Gain(g) => Some(x * g),
                Bias(b) => Some(x + b),
                Abs => Some(x.abs()),
                Sqrt => Some(x.sqrt()),
                Square => Some(x * x),
                _ => None, // outside the chain-test repertoire
            }
        };
        for stmt in &p.stmts {
            match stmt.clone() {
                Stmt::Unary { op, dst, src, len } => {
                    for i in 0..len {
                        let x = match src {
                            Src::Run(s) => bufs[s.buf.0][s.off + i],
                            Src::Broadcast(s) => bufs[s.buf.0][s.off],
                            Src::Const(c) => c,
                        };
                        bufs[dst.buf.0][dst.off + i] = apply(op, x)?;
                    }
                }
                Stmt::FusedUnary { ops, dst, src, len } => {
                    for i in 0..len {
                        let mut x = match src {
                            Src::Run(s) => bufs[s.buf.0][s.off + i],
                            Src::Broadcast(s) => bufs[s.buf.0][s.off],
                            Src::Const(c) => c,
                        };
                        for &op in &ops {
                            x = apply(op, x)?;
                        }
                        bufs[dst.buf.0][dst.off + i] = x;
                    }
                }
                Stmt::Copy { dst, src, len } => {
                    for i in 0..len {
                        bufs[dst.buf.0][dst.off + i] = bufs[src.buf.0][src.off + i];
                    }
                }
                _ => return None, // statement kind the mini evaluator can't model
            }
        }
        let (_, out) = p.outputs()[0];
        Some(bufs[out.0].clone())
    }

    #[test]
    fn folding_preserves_semantics() {
        let analysis = Analysis::run(unary_chain_model()).unwrap();
        for style in GeneratorStyle::ALL {
            let p = generate(&analysis, style, &frodo_obs::Trace::noop());
            let folded = fold_expressions(&p);
            let input: Vec<f64> = (0..16).map(|i| i as f64 - 8.0).collect();
            let before = mini_eval(&p, &input).expect("chain ops are in repertoire");
            let after = mini_eval(&folded, &input).expect("fold keeps ops in repertoire");
            assert_eq!(before, after, "style {style}");
        }
    }

    #[test]
    fn unknown_ops_skip_the_semantics_check_instead_of_panicking() {
        // in -> sin -> exp -> tanh -> out: every op is outside mini_eval's
        // repertoire. The fold itself must still fuse the chain, and the
        // evaluator must decline gracefully rather than abort the suite.
        let mut m = Model::new("transcendental");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(16),
            },
        ));
        let s = m.add(Block::new("s", BlockKind::Sin));
        let e = m.add(Block::new("e", BlockKind::Exp));
        let t = m.add(Block::new("t", BlockKind::Tanh));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, s, 0).unwrap();
        m.connect(s, 0, e, 0).unwrap();
        m.connect(e, 0, t, 0).unwrap();
        m.connect(t, 0, o, 0).unwrap();
        let analysis = Analysis::run(m).unwrap();
        let p = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let folded = fold_expressions(&p);
        assert!(
            folded
                .stmts
                .iter()
                .any(|s| matches!(s, Stmt::FusedUnary { .. })),
            "transcendental chain still fuses: {folded}"
        );
        let input: Vec<f64> = (0..16).map(|i| i as f64 - 8.0).collect();
        assert_eq!(mini_eval(&p, &input), None);
        assert_eq!(mini_eval(&folded, &input), None);
    }

    #[test]
    fn fanout_blocks_folding() {
        // in -> gain -> (abs, square) : gain's result is consumed twice
        let mut m = Model::new("fan");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(8),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let a = m.add(Block::new("a", BlockKind::Abs));
        let q = m.add(Block::new("q", BlockKind::Square));
        let o0 = m.add(Block::new("o0", BlockKind::Outport { index: 0 }));
        let o1 = m.add(Block::new("o1", BlockKind::Outport { index: 1 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, a, 0).unwrap();
        m.connect(g, 0, q, 0).unwrap();
        m.connect(a, 0, o0, 0).unwrap();
        m.connect(q, 0, o1, 0).unwrap();
        let analysis = Analysis::run(m).unwrap();
        let p = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let folded = fold_expressions(&p);
        // the gain feeds two consumers, so nothing may fold into it
        assert_eq!(folded.stmts.len(), p.stmts.len());
    }

    #[test]
    fn subset_run_fuses_on_the_intersection() {
        use crate::lir::UnOp;
        // the producer writes a 16-wide run; the consumer reads only the
        // middle 8 elements starting at offset 4 — fusion must land on the
        // consumer's run with the producer's source shifted by the delta
        let p = Program {
            name: "subset".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                Buffer {
                    name: "u".into(),
                    len: 16,
                    role: BufferRole::Input(0),
                },
                Buffer {
                    name: "t".into(),
                    len: 16,
                    role: BufferRole::Temp,
                },
                Buffer {
                    name: "y".into(),
                    len: 8,
                    role: BufferRole::Output(0),
                },
            ],
            stmts: vec![
                Stmt::Unary {
                    op: UnOp::Gain(2.0),
                    dst: Slice::new(BufId(1), 0),
                    src: Src::Run(Slice::new(BufId(0), 0)),
                    len: 16,
                },
                Stmt::Unary {
                    op: UnOp::Abs,
                    dst: Slice::new(BufId(2), 0),
                    src: Src::Run(Slice::new(BufId(1), 4)),
                    len: 8,
                },
            ],
        };
        let folded = fold_expressions(&p);
        assert_eq!(folded.stmts.len(), 1, "{folded}");
        match &folded.stmts[0] {
            Stmt::FusedUnary { ops, src, len, .. } => {
                assert_eq!(ops.len(), 2);
                assert_eq!(*len, 8);
                assert_eq!(*src, Src::Run(Slice::new(BufId(0), 4)));
            }
            other => panic!("expected fused statement, got {other:?}"),
        }
        let input: Vec<f64> = (0..16).map(|i| i as f64 - 8.0).collect();
        let before = mini_eval(&p, &input).expect("subset ops are in repertoire");
        assert_eq!(Some(before), mini_eval(&folded, &input));
    }
}
