//! The loop IR (LIR): the common target of all four generator styles.
//!
//! A [`Program`] is a set of flat `f64` buffers plus a straight-line sequence
//! of loop-level statements ([`Stmt`]). Each statement corresponds to one
//! *consecutive-run* snippet of the element-level code library applied to a
//! block: the same structure is emitted as C and executed by the virtual
//! machine in `frodo-sim` for cost modeling and correctness checks.

use std::fmt;

/// Handle of a buffer inside one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub usize);

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// What a buffer is for, which also decides its C storage class.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferRole {
    /// A model input; the value arrives as a function argument.
    Input(usize),
    /// A model output; the value leaves through a function argument.
    Output(usize),
    /// Intermediate block result (file-scope static array in C).
    Temp,
    /// Compile-time constant data.
    Const(Vec<f64>),
    /// Persistent state (unit delays), with its initial value.
    State(Vec<f64>),
}

/// One flat `f64` buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    /// C-safe identifier.
    pub name: String,
    /// Number of elements.
    pub len: usize,
    /// Role (storage class).
    pub role: BufferRole,
}

/// A starting position inside a buffer: the element `buf[off]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The buffer.
    pub buf: BufId,
    /// Element offset of the run's first element.
    pub off: usize,
}

impl Slice {
    /// Creates a slice at `buf[off]`.
    pub fn new(buf: BufId, off: usize) -> Self {
        Slice { buf, off }
    }
}

impl fmt::Display for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}..]", self.buf, self.off)
    }
}

/// A statement operand: a run, a broadcast scalar element, or a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// `buf[off + i]` for loop index `i`.
    Run(Slice),
    /// `buf[off]` for every loop index (scalar broadcast).
    Broadcast(Slice),
    /// An immediate constant.
    Const(f64),
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Run(s) => write!(f, "{s}"),
            Src::Broadcast(s) => write!(f, "bcast({})", s),
            Src::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Unary elementwise operators (with folded parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnOp {
    /// Multiply by a constant.
    Gain(f64),
    /// Add a constant.
    Bias(f64),
    /// `fabs`.
    Abs,
    /// `sqrt`.
    Sqrt,
    /// `x * x`.
    Square,
    /// `exp`.
    Exp,
    /// `log`.
    Log,
    /// `sin`.
    Sin,
    /// `cos`.
    Cos,
    /// `tanh`.
    Tanh,
    /// `-x`.
    Neg,
    /// `1.0 / x`.
    Recip,
    /// Clamp into `[lo, hi]`.
    Sat(f64, f64),
    /// `floor`.
    Floor,
    /// `ceil`.
    Ceil,
    /// `round`.
    Round,
    /// `trunc`.
    Trunc,
    /// Logical negation: `x == 0.0 ? 1.0 : 0.0`.
    Not,
    /// Identity (plain move; used when folding produced a no-op).
    Id,
}

impl UnOp {
    /// Whether the operation maps to a libm call in C (costlier, still
    /// vectorizable only with vector math libraries).
    pub fn is_transcendental(&self) -> bool {
        matches!(
            self,
            UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos | UnOp::Tanh
        )
    }
}

/// Binary elementwise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `fmin(a, b)`
    Min,
    /// `fmax(a, b)`
    Max,
    /// `fmod(a, b)`
    Mod,
    /// `a < b ? 1.0 : 0.0`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
    /// `a == b`
    EqOp,
    /// `a != b`
    Ne,
    /// `(a != 0) && (b != 0)`
    And,
    /// `(a != 0) || (b != 0)`
    Or,
    /// `(a != 0) ^ (b != 0)`
    Xor,
}

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
}

/// How convolution loop boundaries are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvStyle {
    /// Exact loop bounds computed in the loop header (`lo = max(0, k-m+1)`),
    /// no per-element branching — what FRODO/DFSynth/HCG emit.
    Tight,
    /// Fixed full loops with a per-element *boundary judgment* inside — the
    /// paper observes Simulink Embedded Coder generates these for
    /// `Convolution` blocks, making AudioProcess/Manufacture slow.
    Branchy,
}

/// One loop-level statement.
///
/// Range-restricted statements carry explicit `[k0, k1)` output runs; the
/// FRODO generator emits one statement per run of a block's calculation
/// range, baselines emit a single full-range statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst[off+i] = un_op(src..)` for `i in 0..len`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Destination run.
        dst: Slice,
        /// Source operand.
        src: Src,
        /// Run length.
        len: usize,
    },
    /// `dst[off+i] = opN(…op1(src..))` for `i in 0..len` — a folded chain
    /// of unary operators produced by
    /// [`optimize::fold_expressions`](crate::optimize::fold_expressions).
    FusedUnary {
        /// Operators applied innermost-first.
        ops: Vec<UnOp>,
        /// Destination run.
        dst: Slice,
        /// Source operand.
        src: Src,
        /// Run length.
        len: usize,
    },
    /// `dst[off+i] = bin_op(a.., b..)` for `i in 0..len`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Destination run.
        dst: Slice,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Run length.
        len: usize,
    },
    /// `dst[off+i] = ctrl >= threshold ? a : b` per element.
    Select {
        /// Destination run.
        dst: Slice,
        /// Control operand.
        ctrl: Src,
        /// Switch threshold.
        threshold: f64,
        /// Taken when `ctrl >= threshold`.
        a: Src,
        /// Taken otherwise.
        b: Src,
        /// Run length.
        len: usize,
    },
    /// Contiguous element copy.
    Copy {
        /// Destination run.
        dst: Slice,
        /// Source run.
        src: Slice,
        /// Run length.
        len: usize,
    },
    /// Fill a run with a constant.
    Fill {
        /// Destination run.
        dst: Slice,
        /// The constant.
        value: f64,
        /// Run length.
        len: usize,
    },
    /// `dst[off+i] = src[indices[i]]` (static gather: selectors with index
    /// vectors, submatrix regions, partial transposes).
    Gather {
        /// Destination run.
        dst: Slice,
        /// Source buffer.
        src: BufId,
        /// Source element index per destination element.
        indices: Vec<usize>,
    },
    /// `dst[off+i] = src[clamp(idx[i])]` (runtime gather: Selector in
    /// IndexPort mode).
    DynGather {
        /// Destination run.
        dst: Slice,
        /// Source buffer.
        src: BufId,
        /// Source length for clamping.
        src_len: usize,
        /// Buffer holding runtime indices.
        idx: Slice,
        /// Number of elements gathered.
        len: usize,
    },
    /// `dst[off] = reduce(src[off .. off+len])`.
    Reduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Destination element.
        dst: Slice,
        /// Source run.
        src: Slice,
        /// Number of reduced elements.
        len: usize,
    },
    /// `dst[off] = Σ a[i] · b[i]`.
    Dot {
        /// Destination element.
        dst: Slice,
        /// First operand run.
        a: Slice,
        /// Second operand run.
        b: Slice,
        /// Operand length.
        len: usize,
    },
    /// Convolution output run `[k0, k1)`:
    /// `dst[k] = Σ_j u[j] · v[k−j]`.
    Conv {
        /// Destination buffer (full-convolution indexing).
        dst: BufId,
        /// First operand.
        u: BufId,
        /// First operand length.
        u_len: usize,
        /// Second operand.
        v: BufId,
        /// Second operand length.
        v_len: usize,
        /// First computed output index.
        k0: usize,
        /// One past the last computed output index.
        k1: usize,
        /// Loop-boundary style.
        style: ConvStyle,
    },
    /// FIR filter output run `[k0, k1)` with constant taps from a buffer:
    /// `dst[k] = Σ_t c[t] · src[k−t]`, `t ≤ k`.
    Fir {
        /// Destination buffer.
        dst: BufId,
        /// Input buffer.
        src: BufId,
        /// Tap buffer (constant).
        coeffs: BufId,
        /// Number of taps.
        taps: usize,
        /// First computed output index.
        k0: usize,
        /// One past the last computed output index.
        k1: usize,
    },
    /// Trailing moving average output run `[k0, k1)` over `window` samples.
    MovingAvg {
        /// Destination buffer.
        dst: BufId,
        /// Input buffer.
        src: BufId,
        /// Window length.
        window: usize,
        /// First computed output index.
        k0: usize,
        /// One past the last computed output index.
        k1: usize,
    },
    /// Cumulative sum prefix `[0, k_end)` (prefix dependency forces
    /// computation from zero).
    CumSum {
        /// Destination buffer.
        dst: BufId,
        /// Input buffer.
        src: BufId,
        /// One past the last computed output index.
        k_end: usize,
    },
    /// First difference output run `[k0, k1)`.
    Diff {
        /// Destination buffer.
        dst: BufId,
        /// Input buffer.
        src: BufId,
        /// First computed output index.
        k0: usize,
        /// One past the last computed output index.
        k1: usize,
    },
    /// Matrix multiply rows `[r0, r1)` of `dst = a(m×k) · b(k×n)`.
    MatMul {
        /// Destination buffer (`m×n` row-major).
        dst: BufId,
        /// Left operand (`m×k`).
        a: BufId,
        /// Right operand (`k×n`).
        b: BufId,
        /// Rows of `a`.
        m: usize,
        /// Shared dimension.
        k: usize,
        /// Columns of `b`.
        n: usize,
        /// First computed output row.
        r0: usize,
        /// One past the last computed output row.
        r1: usize,
    },
    /// Full matrix transpose `dst(cols×rows) = srcᵀ(rows×cols)`.
    Transpose {
        /// Destination buffer.
        dst: BufId,
        /// Source buffer.
        src: BufId,
        /// Source rows.
        rows: usize,
        /// Source columns.
        cols: usize,
    },
    /// Load persistent state into a working buffer (unit delay read).
    StateLoad {
        /// Working buffer receiving the state.
        dst: BufId,
        /// State buffer.
        state: BufId,
        /// Element count.
        len: usize,
    },
    /// Store a working buffer into persistent state (unit delay write).
    StateStore {
        /// State buffer.
        state: BufId,
        /// Working buffer providing the new state.
        src: BufId,
        /// Element count.
        len: usize,
    },
}

impl Stmt {
    /// Whether the statement has SIMD-friendly unit-stride structure a
    /// vectorizer could target.
    pub fn is_vectorizable(&self) -> bool {
        match self {
            Stmt::Unary { op, .. } => !op.is_transcendental(),
            Stmt::FusedUnary { ops, .. } => ops.iter().all(|o| !o.is_transcendental()),
            Stmt::Binary { .. }
            | Stmt::Copy { .. }
            | Stmt::Fill { .. }
            | Stmt::Dot { .. }
            | Stmt::Reduce { .. }
            | Stmt::Fir { .. }
            | Stmt::MovingAvg { .. }
            | Stmt::MatMul { .. }
            | Stmt::Diff { .. }
            | Stmt::StateLoad { .. }
            | Stmt::StateStore { .. } => true,
            Stmt::Conv { style, .. } => *style == ConvStyle::Tight,
            // data-dependent choice, indexed or strided access, or a
            // loop-carried running sum: no unit-stride body to widen
            Stmt::Select { .. }
            | Stmt::Gather { .. }
            | Stmt::DynGather { .. }
            | Stmt::CumSum { .. }
            | Stmt::Transpose { .. } => false,
        }
    }

    /// A stable lowercase label for the statement kind, shared by the
    /// self-profiling C emission and the calibration report so the two
    /// views key their data identically.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Stmt::Unary { .. } => "unary",
            Stmt::FusedUnary { .. } => "fused_unary",
            Stmt::Binary { .. } => "binary",
            Stmt::Select { .. } => "select",
            Stmt::Copy { .. } => "copy",
            Stmt::Fill { .. } => "fill",
            Stmt::Gather { .. } => "gather",
            Stmt::DynGather { .. } => "dyn_gather",
            Stmt::Reduce { .. } => "reduce",
            Stmt::Dot { .. } => "dot",
            Stmt::Conv { .. } => "conv",
            Stmt::Fir { .. } => "fir",
            Stmt::MovingAvg { .. } => "moving_avg",
            Stmt::CumSum { .. } => "cumsum",
            Stmt::Diff { .. } => "diff",
            Stmt::MatMul { .. } => "matmul",
            Stmt::Transpose { .. } => "transpose",
            Stmt::StateLoad { .. } => "state_load",
            Stmt::StateStore { .. } => "state_store",
        }
    }

    /// Architecture-independent floating-point operations per execution:
    /// the arithmetic actually performed given the statement's exact loop
    /// bounds (boundary-clamped convolutions count only the taken inner
    /// iterations). Pure data movement (copies, gathers, transposes,
    /// state transfer) counts zero.
    pub fn flops(&self) -> u64 {
        let flops = |n: usize| n as u64;
        match self {
            Stmt::Unary { len, .. } => flops(*len),
            Stmt::FusedUnary { ops, len, .. } => flops(len * ops.len()),
            Stmt::Binary { len, .. } => flops(*len),
            Stmt::Select { .. }
            | Stmt::Copy { .. }
            | Stmt::Fill { .. }
            | Stmt::Gather { .. }
            | Stmt::DynGather { .. }
            | Stmt::Transpose { .. }
            | Stmt::StateLoad { .. }
            | Stmt::StateStore { .. } => 0,
            Stmt::Reduce { len, .. } => flops(*len),
            Stmt::Dot { len, .. } => flops(2 * len),
            Stmt::Conv {
                u_len,
                v_len,
                k0,
                k1,
                ..
            } => {
                let taken: usize = (*k0..*k1)
                    .map(|k| k.min(u_len - 1) - k.saturating_sub(v_len - 1) + 1)
                    .sum();
                flops(2 * taken)
            }
            Stmt::Fir { taps, k0, k1, .. } => {
                let inner: usize = (*k0..*k1).map(|k| k.min(taps - 1) + 1).sum();
                flops(2 * inner)
            }
            Stmt::MovingAvg { window, k0, k1, .. } => {
                let inner: usize = (*k0..*k1)
                    .map(|k| k - k.saturating_sub(window - 1) + 1)
                    .sum();
                flops(inner + (k1 - k0))
            }
            Stmt::CumSum { k_end, .. } => flops(*k_end),
            Stmt::Diff { k0, k1, .. } => flops(*k1 - *k0),
            Stmt::MatMul { k, n, r0, r1, .. } => flops(2 * (r1 - r0) * n * k),
        }
    }

    /// Number of output elements the statement produces (used for
    /// element-count accounting in the evaluation).
    pub fn output_elements(&self) -> usize {
        match self {
            Stmt::Unary { len, .. }
            | Stmt::FusedUnary { len, .. }
            | Stmt::Binary { len, .. }
            | Stmt::Select { len, .. }
            | Stmt::Copy { len, .. }
            | Stmt::Fill { len, .. }
            | Stmt::DynGather { len, .. } => *len,
            Stmt::Gather { indices, .. } => indices.len(),
            Stmt::Reduce { .. } | Stmt::Dot { .. } => 1,
            Stmt::Conv { k0, k1, .. }
            | Stmt::Fir { k0, k1, .. }
            | Stmt::MovingAvg { k0, k1, .. }
            | Stmt::Diff { k0, k1, .. } => k1 - k0,
            Stmt::CumSum { k_end, .. } => *k_end,
            Stmt::MatMul { n, r0, r1, .. } => (r1 - r0) * n,
            Stmt::Transpose { rows, cols, .. } => rows * cols,
            Stmt::StateLoad { len, .. } | Stmt::StateStore { len, .. } => *len,
        }
    }
}

/// A complete generated program: buffers + statement sequence, tagged with
/// the generator style that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Model name (becomes the C function prefix).
    pub name: String,
    /// Generator style tag (drives cost-model assumptions downstream).
    pub style: crate::GeneratorStyle,
    /// All buffers.
    pub buffers: Vec<Buffer>,
    /// The statement sequence, in schedule order.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// The buffer behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this program.
    pub fn buffer(&self, id: BufId) -> &Buffer {
        &self.buffers[id.0]
    }

    /// Buffers with [`BufferRole::Input`], ordered by input index.
    pub fn inputs(&self) -> Vec<(usize, BufId)> {
        let mut v: Vec<(usize, BufId)> = self
            .buffers
            .iter()
            .enumerate()
            .filter_map(|(i, b)| match b.role {
                BufferRole::Input(idx) => Some((idx, BufId(i))),
                _ => None,
            })
            .collect();
        v.sort();
        v
    }

    /// Buffers with [`BufferRole::Output`], ordered by output index.
    pub fn outputs(&self) -> Vec<(usize, BufId)> {
        let mut v: Vec<(usize, BufId)> = self
            .buffers
            .iter()
            .enumerate()
            .filter_map(|(i, b)| match b.role {
                BufferRole::Output(idx) => Some((idx, BufId(i))),
                _ => None,
            })
            .collect();
        v.sort();
        v
    }

    /// Total statically allocated elements (the memory-study metric:
    /// identical across generator styles for the same model).
    pub fn total_buffer_elements(&self) -> usize {
        self.buffers.iter().map(|b| b.len).sum()
    }

    /// Total output elements produced per step across all statements —
    /// the element-computation count redundancy elimination reduces.
    pub fn computed_elements(&self) -> usize {
        self.stmts.iter().map(Stmt::output_elements).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} [{:?}]", self.name, self.style)?;
        for (i, b) in self.buffers.iter().enumerate() {
            writeln!(
                f,
                "  %{} {}: [{}] {:?}",
                i,
                b.name,
                b.len,
                role_tag(&b.role)
            )?;
        }
        for s in &self.stmts {
            writeln!(f, "  {s:?}")?;
        }
        Ok(())
    }
}

fn role_tag(role: &BufferRole) -> &'static str {
    match role {
        BufferRole::Input(_) => "input",
        BufferRole::Output(_) => "output",
        BufferRole::Temp => "temp",
        BufferRole::Const(_) => "const",
        BufferRole::State(_) => "state",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectorizability_classification() {
        let dst = Slice::new(BufId(0), 0);
        assert!(Stmt::Copy {
            dst,
            src: dst,
            len: 8
        }
        .is_vectorizable());
        assert!(Stmt::Unary {
            op: UnOp::Gain(2.0),
            dst,
            src: Src::Run(dst),
            len: 8
        }
        .is_vectorizable());
        assert!(!Stmt::Unary {
            op: UnOp::Exp,
            dst,
            src: Src::Run(dst),
            len: 8
        }
        .is_vectorizable());
        assert!(!Stmt::Gather {
            dst,
            src: BufId(1),
            indices: vec![0, 2]
        }
        .is_vectorizable());
        assert!(Stmt::Conv {
            dst: BufId(0),
            u: BufId(1),
            u_len: 8,
            v: BufId(2),
            v_len: 3,
            k0: 0,
            k1: 10,
            style: ConvStyle::Tight
        }
        .is_vectorizable());
        assert!(!Stmt::Conv {
            dst: BufId(0),
            u: BufId(1),
            u_len: 8,
            v: BufId(2),
            v_len: 3,
            k0: 0,
            k1: 10,
            style: ConvStyle::Branchy
        }
        .is_vectorizable());
    }

    #[test]
    fn output_element_accounting() {
        let dst = Slice::new(BufId(0), 5);
        assert_eq!(
            Stmt::Fill {
                dst,
                value: 0.0,
                len: 7
            }
            .output_elements(),
            7
        );
        assert_eq!(
            Stmt::Reduce {
                op: ReduceOp::Sum,
                dst,
                src: dst,
                len: 30
            }
            .output_elements(),
            1
        );
        assert_eq!(
            Stmt::MatMul {
                dst: BufId(0),
                a: BufId(1),
                b: BufId(2),
                m: 4,
                k: 4,
                n: 5,
                r0: 1,
                r1: 3
            }
            .output_elements(),
            10
        );
    }

    #[test]
    fn program_buffer_queries() {
        let p = Program {
            name: "t".into(),
            style: crate::GeneratorStyle::Frodo,
            buffers: vec![
                Buffer {
                    name: "o".into(),
                    len: 4,
                    role: BufferRole::Output(0),
                },
                Buffer {
                    name: "i".into(),
                    len: 4,
                    role: BufferRole::Input(0),
                },
                Buffer {
                    name: "t".into(),
                    len: 6,
                    role: BufferRole::Temp,
                },
            ],
            stmts: vec![Stmt::Copy {
                dst: Slice::new(BufId(0), 0),
                src: Slice::new(BufId(1), 0),
                len: 4,
            }],
        };
        assert_eq!(p.inputs(), vec![(0, BufId(1))]);
        assert_eq!(p.outputs(), vec![(0, BufId(0))]);
        assert_eq!(p.total_buffer_elements(), 14);
        assert_eq!(p.computed_elements(), 4);
    }

    #[test]
    fn transcendental_classification() {
        assert!(UnOp::Exp.is_transcendental());
        assert!(UnOp::Sqrt.is_transcendental());
        assert!(!UnOp::Gain(3.0).is_transcendental());
        assert!(!UnOp::Abs.is_transcendental());
    }
}
