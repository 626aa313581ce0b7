//! Lowering: analyzed model → loop IR, per generator style.
//!
//! FRODO's *concise code generation*: for optimizable blocks, one statement
//! is emitted per consecutive run of the block's calculation range (the
//! paper's element-level code library snippet ② — snippet ① is the
//! degenerate single-element run). Baseline styles lower every block at its
//! full output range.

use crate::lir::{BinOp, BufId, Buffer, BufferRole, Program, ReduceOp, Slice, Src, Stmt, UnOp};
use crate::GeneratorStyle;
use frodo_core::{full_ranges, Analysis};
use frodo_model::{BlockId, BlockKind, InPort, LogicOp, OutPort, RelOp, RoundMode, SelectorMode};
use frodo_ranges::IndexSet;
use std::collections::BTreeMap;

/// The default [`LowerOptions::coalesce_gap`]. The `analyze` stage's
/// residual-redundancy detector forgives gaps of the same size, so the
/// elements a default lowering bridges on purpose are not reported.
pub const DEFAULT_COALESCE_GAP: usize = 16;

/// Tuning knobs for lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Maximum gap (in elements) bridged when coalescing a fragmented
    /// calculation range into contiguous runs. Computing up to this many
    /// extra elements is cheaper than restarting a loop — the remedy for
    /// the discontinuous-range overhead the paper's §5 discusses. `0`
    /// disables coalescing (one statement per exact run).
    pub coalesce_gap: usize,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            coalesce_gap: DEFAULT_COALESCE_GAP,
        }
    }
}

/// Generates a program from an analysis, in the given style; recorded as
/// a `lower` span (with statement and computed-element counters) on the
/// given trace. Pass `&Trace::noop()` when no instrumentation is wanted.
///
/// All styles allocate the same buffers (the paper's memory study relies on
/// this); they differ in calculation ranges, convolution loop style, and
/// SIMD hints (see [`GeneratorStyle`]).
pub fn generate(analysis: &Analysis, style: GeneratorStyle, trace: &frodo_obs::Trace) -> Program {
    generate_with(analysis, style, LowerOptions::default(), trace)
}

/// [`generate`] with explicit [`LowerOptions`] (ablation studies).
pub fn generate_with(
    analysis: &Analysis,
    style: GeneratorStyle,
    opts: LowerOptions,
    trace: &frodo_obs::Trace,
) -> Program {
    let span = trace.span("lower");
    let program = Lowerer::new(analysis, style, opts).run();
    span.count("stmts", program.stmts.len() as u64);
    span.count("computed_elements", program.computed_elements() as u64);
    program
}

pub(crate) struct Lowerer<'a> {
    analysis: &'a Analysis,
    style: GeneratorStyle,
    opts: LowerOptions,
    buffers: Vec<Buffer>,
    /// Buffer of each block output port.
    out_buf: BTreeMap<OutPort, BufId>,
    /// State buffer of each unit delay.
    state_buf: BTreeMap<BlockId, BufId>,
    /// Constant tap buffers of FIR blocks.
    fir_coeffs: BTreeMap<BlockId, BufId>,
    stmts: Vec<Stmt>,
    used_names: BTreeMap<String, usize>,
}

impl<'a> Lowerer<'a> {
    pub(crate) fn new(analysis: &'a Analysis, style: GeneratorStyle, opts: LowerOptions) -> Self {
        Lowerer {
            analysis,
            style,
            opts,
            buffers: Vec::new(),
            out_buf: BTreeMap::new(),
            state_buf: BTreeMap::new(),
            fir_coeffs: BTreeMap::new(),
            stmts: Vec::new(),
            used_names: BTreeMap::new(),
        }
    }

    fn fresh_name(&mut self, base: &str) -> String {
        let mut sane: String = base
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        if sane.is_empty() || sane.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            sane.insert(0, 'b');
        }
        // the map owns one copy of the key and the buffer owns the name,
        // so this clone is structural, not avoidable
        let n = self.used_names.entry(sane.clone()).or_insert(0);
        *n += 1;
        if *n > 1 {
            format!("{sane}_{}", *n - 1)
        } else {
            sane
        }
    }

    fn alloc(&mut self, base: &str, len: usize, role: BufferRole) -> BufId {
        let name = self.fresh_name(base);
        self.buffers.push(Buffer { name, len, role });
        BufId(self.buffers.len() - 1)
    }

    fn run(mut self) -> Program {
        self.alloc_buffers();

        // -- ranges --
        let full;
        let ranges: &frodo_core::Ranges = if self.style.uses_ranges() {
            self.analysis.ranges()
        } else {
            full = full_ranges(self.analysis.dfg());
            &full
        };

        self.push_state_loads();

        // -- block bodies in schedule order --
        let order = self
            .analysis
            .dfg()
            .schedule()
            .expect("valid Dfg always schedules");
        for id in order {
            self.lower_block(id, ranges);
        }

        self.push_state_stores();
        self.into_program()
    }

    /// Phase 1: buffer allocation, identical across styles and the only
    /// phase that touches the name/buffer tables. Deterministic in model
    /// iteration order — the fragment stitcher relies on re-running this
    /// phase reproducing the exact `BufId` assignment of a cold compile.
    pub(crate) fn alloc_buffers(&mut self) {
        let dfg = self.analysis.dfg();
        let model = dfg.model();
        let shapes = dfg.shapes();

        for (id, block) in model.iter() {
            match &block.kind {
                BlockKind::Inport { index, shape } => {
                    let b = self.alloc(&block.name, shape.numel(), BufferRole::Input(*index));
                    self.out_buf.insert(OutPort::new(id, 0), b);
                }
                BlockKind::Constant { value } => {
                    let b = self.alloc(
                        &block.name,
                        value.numel(),
                        BufferRole::Const(value.data().to_vec()),
                    );
                    self.out_buf.insert(OutPort::new(id, 0), b);
                }
                BlockKind::Outport { index } => {
                    let len = shapes.input(id, 0).numel();
                    let b = self.alloc(&block.name, len, BufferRole::Output(*index));
                    // Outports have no output ports; remember via state map? No:
                    // handled directly during lowering below.
                    let _ = b;
                    // re-alloc lookup happens in lower_block through outputs();
                    // stash under a sentinel port for retrieval:
                    self.out_buf.insert(OutPort::new(id, usize::MAX), b);
                }
                BlockKind::Terminator => {}
                BlockKind::UnitDelay { initial } => {
                    let len = initial.numel();
                    let work = self.alloc(&block.name, len, BufferRole::Temp);
                    self.out_buf.insert(OutPort::new(id, 0), work);
                    let name = format!("{}_state", block.name);
                    let st = self.alloc(&name, len, BufferRole::State(initial.data().to_vec()));
                    self.state_buf.insert(id, st);
                }
                kind => {
                    for o in 0..kind.num_outputs() {
                        let len = shapes.output(id, o).numel();
                        let b = if kind.num_outputs() > 1 {
                            self.alloc(&format!("{}_{o}", block.name), len, BufferRole::Temp)
                        } else {
                            self.alloc(&block.name, len, BufferRole::Temp)
                        };
                        self.out_buf.insert(OutPort::new(id, o), b);
                    }
                    if let BlockKind::FirFilter { coeffs } = kind {
                        let name = format!("{}_taps", block.name);
                        let b = self.alloc(&name, coeffs.len(), BufferRole::Const(coeffs.clone()));
                        self.fir_coeffs.insert(id, b);
                    }
                }
            }
        }
    }

    /// State reads first: delay outputs are previous-step state.
    pub(crate) fn push_state_loads(&mut self) {
        let model = self.analysis.dfg().model();
        for (id, block) in model.iter() {
            if let BlockKind::UnitDelay { initial } = &block.kind {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let state = self.state_buf[&id];
                self.stmts.push(Stmt::StateLoad {
                    dst,
                    state,
                    len: initial.numel(),
                });
            }
        }
    }

    /// State writes last.
    pub(crate) fn push_state_stores(&mut self) {
        let model = self.analysis.dfg().model();
        for (id, block) in model.iter() {
            if let BlockKind::UnitDelay { initial } = &block.kind {
                let src = self.input_buf(InPort::new(id, 0));
                let state = self.state_buf[&id];
                self.stmts.push(Stmt::StateStore {
                    state,
                    src,
                    len: initial.numel(),
                });
            }
        }
    }

    /// Number of statements emitted so far; paired with
    /// [`Lowerer::drain_stmts_from`] to harvest one block's statements.
    pub(crate) fn stmt_mark(&self) -> usize {
        self.stmts.len()
    }

    /// Removes and returns every statement emitted since `mark`.
    pub(crate) fn drain_stmts_from(&mut self, mark: usize) -> Vec<Stmt> {
        self.stmts.split_off(mark)
    }

    /// Appends pre-lowered statements (a cached fragment replay).
    pub(crate) fn push_stmts(&mut self, stmts: &[Stmt]) {
        self.stmts.extend_from_slice(stmts);
    }

    /// The buffer assigned to a block output port, if any. `Outport`
    /// blocks stash theirs under a `usize::MAX` sentinel port.
    pub(crate) fn out_buf_of(&self, port: OutPort) -> Option<BufId> {
        self.out_buf.get(&port).copied()
    }

    /// The state buffer of a unit delay, if any.
    pub(crate) fn state_buf_of(&self, id: BlockId) -> Option<BufId> {
        self.state_buf.get(&id).copied()
    }

    /// The tap-constant buffer of a FIR filter, if any.
    pub(crate) fn fir_coeffs_of(&self, id: BlockId) -> Option<BufId> {
        self.fir_coeffs.get(&id).copied()
    }

    /// Finalizes into a [`Program`].
    pub(crate) fn into_program(self) -> Program {
        Program {
            name: self.analysis.dfg().model().name().to_string(),
            style: self.style,
            buffers: self.buffers,
            stmts: self.stmts,
        }
    }

    /// Buffer feeding one of a block's input ports.
    pub(crate) fn input_buf(&self, port: InPort) -> BufId {
        let src = self.analysis.dfg().source_of(port);
        self.out_buf[&src]
    }

    /// Operand for an elementwise statement: broadcast if the input is a
    /// scalar feeding a non-scalar computation.
    fn operand(&self, block: BlockId, in_port: usize, off: usize, out_scalar: bool) -> Src {
        let buf = self.input_buf(InPort::new(block, in_port));
        let in_scalar = self
            .analysis
            .dfg()
            .shapes()
            .input(block, in_port)
            .is_scalar();
        if in_scalar && !out_scalar {
            Src::Broadcast(Slice::new(buf, 0))
        } else {
            Src::Run(Slice::new(buf, off))
        }
    }

    pub(crate) fn lower_block(&mut self, id: BlockId, ranges: &frodo_core::Ranges) {
        // borrow the block straight out of the analysis (which outlives
        // `self`), so no per-block clone is needed
        let analysis: &'a Analysis = self.analysis;
        let dfg = analysis.dfg();
        let block = dfg.model().block(id);
        let kind = &block.kind;
        match kind {
            // sources produce no code; delays were handled globally
            BlockKind::Inport { .. }
            | BlockKind::Constant { .. }
            | BlockKind::UnitDelay { .. }
            | BlockKind::Terminator => {}

            BlockKind::Outport { .. } => {
                let dst = self.out_buf[&OutPort::new(id, usize::MAX)];
                let src = self.input_buf(InPort::new(id, 0));
                let len = dfg.shapes().input(id, 0).numel();
                self.stmts.push(Stmt::Copy {
                    dst: Slice::new(dst, 0),
                    src: Slice::new(src, 0),
                    len,
                });
            }

            // ---- unary elementwise ----
            BlockKind::Gain { gain } => self.unary_runs(id, ranges, UnOp::Gain(*gain)),
            BlockKind::Bias { bias } => self.unary_runs(id, ranges, UnOp::Bias(*bias)),
            BlockKind::Abs => self.unary_runs(id, ranges, UnOp::Abs),
            BlockKind::Sqrt => self.unary_runs(id, ranges, UnOp::Sqrt),
            BlockKind::Square => self.unary_runs(id, ranges, UnOp::Square),
            BlockKind::Exp => self.unary_runs(id, ranges, UnOp::Exp),
            BlockKind::Log => self.unary_runs(id, ranges, UnOp::Log),
            BlockKind::Sin => self.unary_runs(id, ranges, UnOp::Sin),
            BlockKind::Cos => self.unary_runs(id, ranges, UnOp::Cos),
            BlockKind::Tanh => self.unary_runs(id, ranges, UnOp::Tanh),
            BlockKind::Negate => self.unary_runs(id, ranges, UnOp::Neg),
            BlockKind::Reciprocal => self.unary_runs(id, ranges, UnOp::Recip),
            BlockKind::Saturation { lower, upper } => {
                self.unary_runs(id, ranges, UnOp::Sat(*lower, *upper))
            }
            BlockKind::Rounding { mode } => self.unary_runs(
                id,
                ranges,
                match mode {
                    RoundMode::Floor => UnOp::Floor,
                    RoundMode::Ceil => UnOp::Ceil,
                    RoundMode::Round => UnOp::Round,
                    RoundMode::Fix => UnOp::Trunc,
                },
            ),

            // ---- binary elementwise ----
            BlockKind::Add => self.binary_runs(id, ranges, BinOp::Add),
            BlockKind::Subtract => self.binary_runs(id, ranges, BinOp::Sub),
            BlockKind::Multiply => self.binary_runs(id, ranges, BinOp::Mul),
            BlockKind::Divide => self.binary_runs(id, ranges, BinOp::Div),
            BlockKind::Min => self.binary_runs(id, ranges, BinOp::Min),
            BlockKind::Max => self.binary_runs(id, ranges, BinOp::Max),
            BlockKind::Mod => self.binary_runs(id, ranges, BinOp::Mod),
            BlockKind::Relational { op } => self.binary_runs(
                id,
                ranges,
                match op {
                    RelOp::Lt => BinOp::Lt,
                    RelOp::Le => BinOp::Le,
                    RelOp::Gt => BinOp::Gt,
                    RelOp::Ge => BinOp::Ge,
                    RelOp::Eq => BinOp::EqOp,
                    RelOp::Ne => BinOp::Ne,
                },
            ),
            BlockKind::Logical { op } => match op {
                LogicOp::Not => self.unary_runs(id, ranges, UnOp::Not),
                LogicOp::And => self.binary_runs(id, ranges, BinOp::And),
                LogicOp::Or => self.binary_runs(id, ranges, BinOp::Or),
                LogicOp::Xor => self.binary_runs(id, ranges, BinOp::Xor),
            },

            BlockKind::Switch { threshold } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let out_scalar = dfg.shapes().output(id, 0).is_scalar();
                for &iv in self.range_runs(id, 0, ranges).intervals() {
                    let a = self.operand(id, 0, iv.start, out_scalar);
                    let ctrl = self.operand(id, 1, iv.start, out_scalar);
                    let b = self.operand(id, 2, iv.start, out_scalar);
                    self.stmts.push(Stmt::Select {
                        dst: Slice::new(dst, iv.start),
                        ctrl,
                        threshold: *threshold,
                        a,
                        b,
                        len: iv.len(),
                    });
                }
            }

            // ---- reductions ----
            BlockKind::SumOfElements => self.reduce(id, ranges, ReduceOp::Sum),
            BlockKind::MeanOfElements => self.reduce(id, ranges, ReduceOp::Mean),
            BlockKind::MinOfElements => self.reduce(id, ranges, ReduceOp::Min),
            BlockKind::MaxOfElements => self.reduce(id, ranges, ReduceOp::Max),
            BlockKind::DotProduct => {
                if !ranges.out(id, 0).is_empty() {
                    let dst = self.out_buf[&OutPort::new(id, 0)];
                    let a = self.input_buf(InPort::new(id, 0));
                    let b = self.input_buf(InPort::new(id, 1));
                    let len = dfg.shapes().input(id, 0).numel();
                    self.stmts.push(Stmt::Dot {
                        dst: Slice::new(dst, 0),
                        a: Slice::new(a, 0),
                        b: Slice::new(b, 0),
                        len,
                    });
                }
            }

            // ---- matrix ----
            BlockKind::MatrixMultiply => {
                let range = self.calc_range(id, 0, ranges);
                if range.is_empty() {
                    return;
                }
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let a = self.input_buf(InPort::new(id, 0));
                let b = self.input_buf(InPort::new(id, 1));
                let sa = dfg.shapes().input(id, 0);
                let sb = dfg.shapes().input(id, 1);
                let (m, k, n) = (sa.rows(), sa.cols(), sb.cols());
                // restrict to the output rows that contain needed elements
                let mut rows = IndexSet::new();
                for iv in range.intervals() {
                    rows = rows.union(&IndexSet::from_range(iv.start / n, (iv.end - 1) / n + 1));
                }
                for iv in rows.intervals() {
                    self.stmts.push(Stmt::MatMul {
                        dst,
                        a,
                        b,
                        m,
                        k,
                        n,
                        r0: iv.start,
                        r1: iv.end,
                    });
                }
            }

            BlockKind::Transpose => {
                let range = self.calc_range(id, 0, ranges);
                if range.is_empty() {
                    return;
                }
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                let in_shape = dfg.shapes().input(id, 0);
                let (rows, cols) = (in_shape.rows(), in_shape.cols());
                let numel = rows * cols;
                if range.count() == numel {
                    self.stmts.push(Stmt::Transpose {
                        dst,
                        src,
                        rows,
                        cols,
                    });
                } else {
                    // partial transpose: gather exactly the needed elements
                    let out_cols = rows;
                    for iv in range.intervals() {
                        let indices: Vec<usize> = (iv.start..iv.end)
                            .map(|o| (o % out_cols) * cols + o / out_cols)
                            .collect();
                        self.stmts.push(Stmt::Gather {
                            dst: Slice::new(dst, iv.start),
                            src,
                            indices,
                        });
                    }
                }
            }

            BlockKind::Reshape { .. } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                for &iv in self.range_runs(id, 0, ranges).intervals() {
                    self.stmts.push(Stmt::Copy {
                        dst: Slice::new(dst, iv.start),
                        src: Slice::new(src, iv.start),
                        len: iv.len(),
                    });
                }
            }

            // ---- truncation & routing ----
            BlockKind::Selector { mode } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                match mode {
                    SelectorMode::StartEnd { start, .. } => {
                        for &iv in self.range_runs(id, 0, ranges).intervals() {
                            self.stmts.push(Stmt::Copy {
                                dst: Slice::new(dst, iv.start),
                                src: Slice::new(src, iv.start + start),
                                len: iv.len(),
                            });
                        }
                    }
                    SelectorMode::IndexVector(idxs) => {
                        for &iv in self.range_runs(id, 0, ranges).intervals() {
                            self.stmts.push(Stmt::Gather {
                                dst: Slice::new(dst, iv.start),
                                src,
                                indices: idxs[iv.start..iv.end].to_vec(),
                            });
                        }
                    }
                    SelectorMode::IndexPort { .. } => {
                        let idx_buf = self.input_buf(InPort::new(id, 1));
                        let src_len = dfg.shapes().input(id, 0).numel();
                        for &iv in self.range_runs(id, 0, ranges).intervals() {
                            self.stmts.push(Stmt::DynGather {
                                dst: Slice::new(dst, iv.start),
                                src,
                                src_len,
                                idx: Slice::new(idx_buf, iv.start),
                                len: iv.len(),
                            });
                        }
                    }
                }
            }

            BlockKind::Pad { left, value, .. } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                let n = dfg.shapes().input(id, 0).numel();
                let range = self.calc_range(id, 0, ranges);
                let data_zone = IndexSet::from_range(*left, left + n);
                // padding positions
                for iv in range.difference(&data_zone).intervals() {
                    self.stmts.push(Stmt::Fill {
                        dst: Slice::new(dst, iv.start),
                        value: *value,
                        len: iv.len(),
                    });
                }
                // data positions
                for iv in range.intersect(&data_zone).intervals() {
                    self.stmts.push(Stmt::Copy {
                        dst: Slice::new(dst, iv.start),
                        src: Slice::new(src, iv.start - left),
                        len: iv.len(),
                    });
                }
            }

            BlockKind::Submatrix {
                row_start,
                col_start,
                ..
            } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                let in_cols = dfg.shapes().input(id, 0).cols();
                let out_cols = dfg.shapes().output(id, 0).cols();
                for &iv in self.range_runs(id, 0, ranges).intervals() {
                    let indices: Vec<usize> = (iv.start..iv.end)
                        .map(|o| (row_start + o / out_cols) * in_cols + col_start + o % out_cols)
                        .collect();
                    self.stmts.push(Stmt::Gather {
                        dst: Slice::new(dst, iv.start),
                        src,
                        indices,
                    });
                }
            }

            BlockKind::Assignment { start } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let base = self.input_buf(InPort::new(id, 0));
                let patch = self.input_buf(InPort::new(id, 1));
                let patch_len = dfg.shapes().input(id, 1).numel();
                let zone = IndexSet::from_range(*start, start + patch_len);
                let range = self.calc_range(id, 0, ranges);
                for iv in range.difference(&zone).intervals() {
                    self.stmts.push(Stmt::Copy {
                        dst: Slice::new(dst, iv.start),
                        src: Slice::new(base, iv.start),
                        len: iv.len(),
                    });
                }
                for iv in range.intersect(&zone).intervals() {
                    self.stmts.push(Stmt::Copy {
                        dst: Slice::new(dst, iv.start),
                        src: Slice::new(patch, iv.start - start),
                        len: iv.len(),
                    });
                }
            }

            BlockKind::Mux { .. } | BlockKind::Concatenate { .. } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let range = self.calc_range(id, 0, ranges);
                let mut seg_start = 0usize;
                for p in 0..kind.num_inputs() {
                    let len = dfg.shapes().input(id, p).numel();
                    let seg = IndexSet::from_range(seg_start, seg_start + len);
                    let in_port = InPort::new(id, p);
                    let src = self.input_buf(in_port);
                    // Coalescing runs per block, and joining segments can
                    // bridge a gap across a segment boundary that the
                    // producer (whose universe ends at the boundary) never
                    // bridged — so clamp each copy to what the producer
                    // actually writes; the skipped elements are coalesce
                    // slop that no demanded output reads.
                    let upstream = dfg.source_of(in_port);
                    let written = self
                        .calc_range(upstream.block, upstream.port, ranges)
                        .shift(seg_start as isize);
                    for iv in range.intersect(&seg).intersect(&written).intervals() {
                        self.stmts.push(Stmt::Copy {
                            dst: Slice::new(dst, iv.start),
                            src: Slice::new(src, iv.start - seg_start),
                            len: iv.len(),
                        });
                    }
                    seg_start += len;
                }
            }

            BlockKind::Demux { sizes } => {
                let src = self.input_buf(InPort::new(id, 0));
                let mut offset = 0usize;
                for (o, &sz) in sizes.iter().enumerate() {
                    let dst = self.out_buf[&OutPort::new(id, o)];
                    let range = self.calc_range(id, o, ranges);
                    debug_assert!(range.max().is_none_or(|m| m < sz));
                    for iv in range.intervals() {
                        self.stmts.push(Stmt::Copy {
                            dst: Slice::new(dst, iv.start),
                            src: Slice::new(src, offset + iv.start),
                            len: iv.len(),
                        });
                    }
                    offset += sz;
                }
            }

            // ---- DSP ----
            BlockKind::Convolution => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let u = self.input_buf(InPort::new(id, 0));
                let v = self.input_buf(InPort::new(id, 1));
                let u_len = dfg.shapes().input(id, 0).numel();
                let v_len = dfg.shapes().input(id, 1).numel();
                let style = self.style.conv_style();
                for &iv in self.range_runs(id, 0, ranges).intervals() {
                    self.stmts.push(Stmt::Conv {
                        dst,
                        u,
                        u_len,
                        v,
                        v_len,
                        k0: iv.start,
                        k1: iv.end,
                        style,
                    });
                }
            }

            BlockKind::FirFilter { coeffs } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                let taps = coeffs.len();
                let cb = self.fir_coeffs[&id];
                for &iv in self.range_runs(id, 0, ranges).intervals() {
                    self.stmts.push(Stmt::Fir {
                        dst,
                        src,
                        coeffs: cb,
                        taps,
                        k0: iv.start,
                        k1: iv.end,
                    });
                }
            }

            BlockKind::MovingAverage { window } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                for &iv in self.range_runs(id, 0, ranges).intervals() {
                    self.stmts.push(Stmt::MovingAvg {
                        dst,
                        src,
                        window: *window,
                        k0: iv.start,
                        k1: iv.end,
                    });
                }
            }

            BlockKind::Downsample { factor, phase } => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                for &iv in self.range_runs(id, 0, ranges).intervals() {
                    let indices: Vec<usize> =
                        (iv.start..iv.end).map(|i| i * factor + phase).collect();
                    self.stmts.push(Stmt::Gather {
                        dst: Slice::new(dst, iv.start),
                        src,
                        indices,
                    });
                }
            }

            BlockKind::CumulativeSum => {
                let range = self.calc_range(id, 0, ranges);
                if let Some(max) = range.max() {
                    let dst = self.out_buf[&OutPort::new(id, 0)];
                    let src = self.input_buf(InPort::new(id, 0));
                    self.stmts.push(Stmt::CumSum {
                        dst,
                        src,
                        k_end: max + 1,
                    });
                }
            }

            BlockKind::Difference => {
                let dst = self.out_buf[&OutPort::new(id, 0)];
                let src = self.input_buf(InPort::new(id, 0));
                for &iv in self.range_runs(id, 0, ranges).intervals() {
                    self.stmts.push(Stmt::Diff {
                        dst,
                        src,
                        k0: iv.start,
                        k1: iv.end,
                    });
                }
            }

            BlockKind::Subsystem(_) => unreachable!("Dfg models are flattened"),
        }
    }

    /// A block's calculation range on one output port, clamped to the
    /// output shape and coalesced into contiguous runs.
    fn calc_range(&self, id: BlockId, port: usize, ranges: &frodo_core::Ranges) -> IndexSet {
        let numel = self.analysis.dfg().shapes().output(id, port).numel();
        ranges
            .out(id, port)
            .clamp_to(numel)
            .coalesce(self.opts.coalesce_gap)
    }

    /// The runs (clamped, coalesced consecutive intervals) of a block's
    /// calculation range on one output port. Iterate the returned set's
    /// [`IndexSet::intervals`] — returning the set itself avoids a `Vec`
    /// copy per lowered block.
    fn range_runs(&self, id: BlockId, port: usize, ranges: &frodo_core::Ranges) -> IndexSet {
        self.calc_range(id, port, ranges)
    }

    fn unary_runs(&mut self, id: BlockId, ranges: &frodo_core::Ranges, op: UnOp) {
        let dst = self.out_buf[&OutPort::new(id, 0)];
        let out_scalar = self.analysis.dfg().shapes().output(id, 0).is_scalar();
        for &iv in self.range_runs(id, 0, ranges).intervals() {
            let src = self.operand(id, 0, iv.start, out_scalar);
            self.stmts.push(Stmt::Unary {
                op,
                dst: Slice::new(dst, iv.start),
                src,
                len: iv.len(),
            });
        }
    }

    fn binary_runs(&mut self, id: BlockId, ranges: &frodo_core::Ranges, op: BinOp) {
        let dst = self.out_buf[&OutPort::new(id, 0)];
        let out_scalar = self.analysis.dfg().shapes().output(id, 0).is_scalar();
        for &iv in self.range_runs(id, 0, ranges).intervals() {
            let a = self.operand(id, 0, iv.start, out_scalar);
            let b = self.operand(id, 1, iv.start, out_scalar);
            self.stmts.push(Stmt::Binary {
                op,
                dst: Slice::new(dst, iv.start),
                a,
                b,
                len: iv.len(),
            });
        }
    }

    fn reduce(&mut self, id: BlockId, ranges: &frodo_core::Ranges, op: ReduceOp) {
        if ranges.out(id, 0).is_empty() {
            return;
        }
        let dst = self.out_buf[&OutPort::new(id, 0)];
        let src = self.input_buf(InPort::new(id, 0));
        let len = self.analysis.dfg().shapes().input(id, 0).numel();
        self.stmts.push(Stmt::Reduce {
            op,
            dst: Slice::new(dst, 0),
            src: Slice::new(src, 0),
            len,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, Model, Tensor};
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
    fn frodo_conv_is_range_restricted() {
        let a = figure1();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let conv = p
            .stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Conv { k0, k1, style, .. } => Some((*k0, *k1, *style)),
                _ => None,
            })
            .expect("conv stmt present");
        assert_eq!(conv, (5, 55, crate::lir::ConvStyle::Tight));
    }

    #[test]
    fn simulink_conv_is_full_and_branchy() {
        let a = figure1();
        let p = generate(&a, GeneratorStyle::SimulinkCoder, &frodo_obs::Trace::noop());
        let conv = p
            .stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Conv { k0, k1, style, .. } => Some((*k0, *k1, *style)),
                _ => None,
            })
            .expect("conv stmt present");
        assert_eq!(conv, (0, 60, crate::lir::ConvStyle::Branchy));
    }

    #[test]
    fn frodo_computes_fewer_elements_than_baselines() {
        let a = figure1();
        let frodo = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let dfsynth = generate(&a, GeneratorStyle::DfSynth, &frodo_obs::Trace::noop());
        assert!(frodo.computed_elements() < dfsynth.computed_elements());
    }

    #[test]
    fn all_styles_allocate_identical_buffers() {
        let a = figure1();
        let sizes: Vec<usize> = GeneratorStyle::ALL
            .iter()
            .map(|&s| generate(&a, s, &frodo_obs::Trace::noop()).total_buffer_elements())
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "memory parity: {sizes:?}"
        );
    }

    #[test]
    fn selector_lowers_to_offset_copy() {
        let a = figure1();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        assert!(p.stmts.iter().any(|s| matches!(
            s,
            Stmt::Copy { src, len: 50, .. } if src.off == 5
        )));
    }

    #[test]
    fn pad_splits_fill_and_copy() {
        let mut m = Model::new("pad");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(10),
            },
        ));
        let p = m.add(Block::new(
            "p",
            BlockKind::Pad {
                left: 3,
                right: 2,
                value: 7.0,
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, p, 0).unwrap();
        m.connect(p, 0, o, 0).unwrap();
        let a = Analysis::run(m).unwrap();
        let prog = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let fills = prog
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Fill { value, .. } if *value == 7.0))
            .count();
        assert_eq!(fills, 2, "left and right padding zones");
    }

    #[test]
    fn delay_produces_state_load_and_store() {
        let mut m = Model::new("dly");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let z = m.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::vector(vec![0.0; 4]),
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, z, 0).unwrap();
        m.connect(z, 0, o, 0).unwrap();
        let a = Analysis::run(m).unwrap();
        let prog = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        assert!(matches!(prog.stmts.first(), Some(Stmt::StateLoad { .. })));
        assert!(matches!(prog.stmts.last(), Some(Stmt::StateStore { .. })));
    }

    #[test]
    fn dead_terminator_chain_emits_nothing() {
        let mut m = Model::new("dead");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(8),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let t = m.add(Block::new("t", BlockKind::Terminator));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, t, 0).unwrap();
        m.connect(i, 0, o, 0).unwrap();
        let a = Analysis::run(m).unwrap();
        let prog = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        // only the outport copy remains
        assert_eq!(prog.stmts.len(), 1);
        // the baseline still computes the dead gain
        let base = generate(&a, GeneratorStyle::DfSynth, &frodo_obs::Trace::noop());
        assert_eq!(base.stmts.len(), 2);
    }

    #[test]
    fn matmul_rows_restrict_via_submatrix() {
        // (4x4)·(4x4) but only rows 1..3 of the product are kept
        let mut m = Model::new("mm");
        let a = m.add(Block::new(
            "a",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Matrix(4, 4),
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Matrix(4, 4),
            },
        ));
        let mm = m.add(Block::new("mm", BlockKind::MatrixMultiply));
        let sub = m.add(Block::new(
            "sub",
            BlockKind::Submatrix {
                row_start: 1,
                row_end: 3,
                col_start: 0,
                col_end: 4,
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(a, 0, mm, 0).unwrap();
        m.connect(b, 0, mm, 1).unwrap();
        m.connect(mm, 0, sub, 0).unwrap();
        m.connect(sub, 0, o, 0).unwrap();
        let an = Analysis::run(m).unwrap();
        let prog = generate(&an, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let rows = prog
            .stmts
            .iter()
            .find_map(|s| match s {
                Stmt::MatMul { r0, r1, .. } => Some((*r0, *r1)),
                _ => None,
            })
            .expect("matmul stmt");
        assert_eq!(rows, (1, 3));
    }
}
