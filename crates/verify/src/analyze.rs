//! The `analyze` pipeline stage: dataflow client analyses over the
//! lowered statement IR.
//!
//! Two analyses run over one [`Program`], both built on the
//! [`dataflow`](crate::dataflow) engine and the shared element-access
//! footprints of [`frodo_codegen::access`]:
//!
//! 1. **Value ranges** (forward, to fixpoint across the invocation back
//!    edge) — a per-buffer interval domain through every statement's
//!    arithmetic, flagging possible division by zero (`F201`), `sqrt`/
//!    `log` of a possibly negative operand (`F202`), and arithmetic that
//!    may overflow to ±∞ (`F203`).
//! 2. **Residual redundancy** (backward demand) — which written elements
//!    are never demanded by any output, modulo the lowering's coalescing
//!    slop (`F204`). On FRODO-style output this should be empty: it is the
//!    dataflow restatement of the paper's redundancy-elimination claim.
//!    Baseline styles report exactly their over-computation.
//!
//! Everything here is deterministic: diagnostics depend only on the
//! program and the output demands, and are emitted in statement order.

use std::collections::BTreeSet;

use crate::dataflow::{run_one_pass, run_to_fixpoint, Direction, Transfer};
use crate::diag::Diagnostic;
use crate::soundness::{output_demands, OutputDemand};
use frodo_codegen::access::{stmt_access, Malformed, StmtAccess};
use frodo_codegen::lir::{BinOp, BufId, BufferRole, Program, ReduceOp, Src, Stmt, UnOp};
use frodo_codegen::DEFAULT_COALESCE_GAP;
use frodo_core::Analysis;
use frodo_ranges::IndexSet;

/// Assumed magnitude bound on every model input element: inputs are
/// seeded with the interval `[-INPUT_BOUND, INPUT_BOUND]`.
const INPUT_BOUND: f64 = 1.0e6;

/// Widening bound: interval ends are clamped to ±`WIDEN_BOUND`, and
/// non-converging state is widened to this after [`MAX_PASSES`].
const WIDEN_BOUND: f64 = 1.0e12;

/// Fixpoint pass budget for the value-range analysis before widening.
const MAX_PASSES: usize = 8;

/// Everything the `analyze` stage found, plus the counters the trace
/// stage records.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// All findings, in deterministic statement order.
    pub diagnostics: Vec<Diagnostic>,
    /// Statements analyzed.
    pub stmts: usize,
    /// Buffers analyzed.
    pub buffers: usize,
    /// Fixpoint passes the value-range analysis took.
    pub interval_passes: usize,
    /// Whether the value ranges converged (possibly after widening).
    pub interval_converged: bool,
    /// Final per-buffer value intervals `(name, lo, hi)`, in buffer
    /// order, for buffers the analysis reached.
    pub value_ranges: Vec<(String, f64, f64)>,
    /// Total elements written but never demanded (`F204` evidence).
    pub residual_elements: usize,
    /// Statements with at least one residual element.
    pub residual_stmts: usize,
}

impl AnalyzeReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

// ---------------------------------------------------------------------------
// value-range analysis (forward, F201/F202/F203)
// ---------------------------------------------------------------------------

/// A closed interval of attainable values. Stored ends are finite except
/// for the explicit widening top [`ValRange::TOP`] = `[-inf, +inf]`:
/// genuinely overflowing results are degraded to a finite top at their
/// introduction point (with an `F203` flag), while ranges that blew up
/// only because the fixpoint had to *widen* are kept as `TOP` and
/// propagate silently — imprecision from widening is not a finding.
/// Either way the store stays `PartialEq`-comparable and free of NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ValRange {
    lo: f64,
    hi: f64,
}

impl ValRange {
    /// The widening top: every value, no information.
    const TOP: ValRange = ValRange {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    fn point(v: f64) -> ValRange {
        ValRange { lo: v, hi: v }
    }

    /// True when either end is non-finite — the range descends from the
    /// widening top, so hazard flags against it would be pure noise.
    fn unbounded(self) -> bool {
        !self.lo.is_finite() || !self.hi.is_finite()
    }

    fn new(a: f64, b: f64) -> ValRange {
        ValRange {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    fn join(self, other: ValRange) -> ValRange {
        ValRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn contains_zero(self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }
}

/// `0 * anything = 0`, so intervals with an infinite end never poison a
/// product into NaN.
fn zmul(x: f64, y: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        0.0
    } else {
        x * y
    }
}

fn vadd(a: ValRange, b: ValRange) -> ValRange {
    ValRange {
        lo: a.lo + b.lo,
        hi: a.hi + b.hi,
    }
}

fn vsub(a: ValRange, b: ValRange) -> ValRange {
    ValRange {
        lo: a.lo - b.hi,
        hi: a.hi - b.lo,
    }
}

fn vmul(a: ValRange, b: ValRange) -> ValRange {
    let p = [
        zmul(a.lo, b.lo),
        zmul(a.lo, b.hi),
        zmul(a.hi, b.lo),
        zmul(a.hi, b.hi),
    ];
    ValRange {
        lo: p.iter().cloned().fold(f64::INFINITY, f64::min),
        hi: p.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Reciprocal of an interval that provably excludes zero.
fn vrecip(b: ValRange) -> ValRange {
    ValRange::new(1.0 / b.lo, 1.0 / b.hi)
}

/// Sum of between 1 and `n` terms, each in `r`.
fn vsum_up_to(n: usize, r: ValRange) -> ValRange {
    let n = n.max(1) as f64;
    ValRange {
        lo: r.lo.min(n * r.lo),
        hi: r.hi.max(n * r.hi),
    }
}

/// Sum of exactly `n` terms, each in `r`.
fn vsum_exact(n: usize, r: ValRange) -> ValRange {
    let n = n as f64;
    ValRange {
        lo: zmul(n, r.lo),
        hi: zmul(n, r.hi),
    }
}

struct IntervalAnalysis {
    /// When true, widen every store change straight to the widening
    /// bound — the post-budget convergence hammer.
    widen: bool,
    /// When true, emit diagnostics (the final reporting pass over the
    /// stabilized store).
    report: bool,
    /// Set by [`Self::src_range`]/[`Self::buf_range`] when an operand is
    /// widening-tainted (unbounded); consumed by [`Self::finish`] to
    /// propagate [`ValRange::TOP`] silently instead of flagging `F203`.
    taint: std::cell::Cell<bool>,
    flagged: BTreeSet<(usize, &'static str)>,
    diags: Vec<Diagnostic>,
}

impl IntervalAnalysis {
    fn unknown(&self) -> ValRange {
        ValRange {
            lo: -INPUT_BOUND,
            hi: INPUT_BOUND,
        }
    }

    fn top(&self) -> ValRange {
        ValRange {
            lo: -WIDEN_BOUND,
            hi: WIDEN_BOUND,
        }
    }

    fn flag(&mut self, program: &Program, i: usize, code: &'static str, buf: BufId, msg: String) {
        if !self.report || !self.flagged.insert((i, code)) {
            return;
        }
        let b = program.buffer(buf);
        self.diags.push(
            Diagnostic::new(code, msg)
                .with_block(b.name.clone())
                .with_location(format!("stmt {i} -> `{}`", b.name)),
        );
    }

    fn src_range(&self, state: &[Option<ValRange>], s: &Src) -> ValRange {
        match s {
            Src::Run(sl) | Src::Broadcast(sl) => self.buf_range(state, sl.buf),
            Src::Const(c) => ValRange::point(*c),
        }
    }

    fn buf_range(&self, state: &[Option<ValRange>], b: BufId) -> ValRange {
        let r = state[b.0].unwrap_or_else(|| self.unknown());
        if r.unbounded() {
            self.taint.set(true);
        }
        r
    }

    /// Transfer one unary op, flagging F201/F202 hazards against `dst`.
    fn unary(
        &mut self,
        program: &Program,
        i: usize,
        dst: BufId,
        op: &UnOp,
        r: ValRange,
    ) -> ValRange {
        match op {
            UnOp::Gain(g) => vmul(r, ValRange::point(*g)),
            UnOp::Bias(b) => vadd(r, ValRange::point(*b)),
            UnOp::Abs => {
                if r.lo >= 0.0 {
                    r
                } else if r.hi <= 0.0 {
                    ValRange::new(-r.hi, -r.lo)
                } else {
                    ValRange {
                        lo: 0.0,
                        hi: (-r.lo).max(r.hi),
                    }
                }
            }
            UnOp::Sqrt => {
                if r.lo < 0.0 && !r.unbounded() {
                    self.flag(
                        program,
                        i,
                        "F202",
                        dst,
                        format!(
                            "sqrt of a possibly negative operand: operand in [{}, {}]",
                            r.lo, r.hi
                        ),
                    );
                }
                ValRange {
                    lo: r.lo.max(0.0).sqrt(),
                    hi: r.hi.max(0.0).sqrt(),
                }
            }
            UnOp::Square => {
                let sq = vmul(r, r);
                if r.contains_zero() {
                    ValRange { lo: 0.0, hi: sq.hi }
                } else {
                    ValRange {
                        lo: sq.lo.max(0.0),
                        hi: sq.hi,
                    }
                }
            }
            UnOp::Exp => ValRange {
                lo: r.lo.exp(),
                hi: r.hi.exp(),
            },
            UnOp::Log => {
                if r.lo <= 0.0 && !r.unbounded() {
                    self.flag(
                        program,
                        i,
                        "F202",
                        dst,
                        format!(
                            "log of a possibly non-positive operand: operand in [{}, {}]",
                            r.lo, r.hi
                        ),
                    );
                }
                let tiny = f64::MIN_POSITIVE;
                ValRange::new(r.lo.max(tiny).ln(), r.hi.max(tiny).ln())
            }
            UnOp::Sin | UnOp::Cos => ValRange { lo: -1.0, hi: 1.0 },
            UnOp::Tanh => ValRange { lo: -1.0, hi: 1.0 },
            UnOp::Neg => ValRange::new(-r.hi, -r.lo),
            UnOp::Recip => {
                if r.contains_zero() {
                    if r.unbounded() {
                        return ValRange::TOP;
                    }
                    self.flag(
                        program,
                        i,
                        "F201",
                        dst,
                        format!(
                            "possible division by zero: reciprocal operand in [{}, {}]",
                            r.lo, r.hi
                        ),
                    );
                    self.top()
                } else {
                    vrecip(r)
                }
            }
            UnOp::Sat(lo, hi) => ValRange {
                lo: r.lo.clamp(*lo, *hi),
                hi: r.hi.clamp(*lo, *hi),
            },
            UnOp::Floor => ValRange {
                lo: r.lo.floor(),
                hi: r.hi.floor(),
            },
            UnOp::Ceil => ValRange {
                lo: r.lo.ceil(),
                hi: r.hi.ceil(),
            },
            UnOp::Round => ValRange {
                lo: r.lo.round(),
                hi: r.hi.round(),
            },
            UnOp::Trunc => ValRange {
                lo: r.lo.trunc(),
                hi: r.hi.trunc(),
            },
            UnOp::Not => ValRange { lo: 0.0, hi: 1.0 },
            UnOp::Id => r,
        }
    }

    fn binary(
        &mut self,
        program: &Program,
        i: usize,
        dst: BufId,
        op: &BinOp,
        a: ValRange,
        b: ValRange,
    ) -> ValRange {
        match op {
            BinOp::Add => vadd(a, b),
            BinOp::Sub => vsub(a, b),
            BinOp::Mul => vmul(a, b),
            BinOp::Div => {
                if b.contains_zero() {
                    if b.unbounded() {
                        return ValRange::TOP;
                    }
                    self.flag(
                        program,
                        i,
                        "F201",
                        dst,
                        format!("possible division by zero: divisor in [{}, {}]", b.lo, b.hi),
                    );
                    self.top()
                } else {
                    vmul(a, vrecip(b))
                }
            }
            BinOp::Min => ValRange {
                lo: a.lo.min(b.lo),
                hi: a.hi.min(b.hi),
            },
            BinOp::Max => ValRange {
                lo: a.lo.max(b.lo),
                hi: a.hi.max(b.hi),
            },
            BinOp::Mod => {
                if b.contains_zero() {
                    if b.unbounded() {
                        return ValRange::TOP;
                    }
                    self.flag(
                        program,
                        i,
                        "F201",
                        dst,
                        format!("possible division by zero: modulus in [{}, {}]", b.lo, b.hi),
                    );
                    self.top()
                } else {
                    // |fmod(a, b)| < max|b|, sign follows the dividend
                    let m = b.lo.abs().max(b.hi.abs());
                    ValRange {
                        lo: if a.lo >= 0.0 { 0.0 } else { -m },
                        hi: if a.hi <= 0.0 { 0.0 } else { m },
                    }
                }
            }
            BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::EqOp
            | BinOp::Ne
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor => ValRange { lo: 0.0, hi: 1.0 },
        }
    }

    /// Store a computed range, flagging overflow-to-∞ at its introduction
    /// point: the result is non-finite although every operand range was
    /// bounded. Results that are unbounded only because an *operand*
    /// descended from the widening top propagate as [`ValRange::TOP`]
    /// silently — that imprecision is the analysis's, not the program's.
    fn finish(
        &mut self,
        program: &Program,
        i: usize,
        dst: BufId,
        r: ValRange,
        state: &mut [Option<ValRange>],
    ) {
        let tainted = self.taint.replace(false) || r == ValRange::TOP;
        let mut r = r;
        if r.unbounded() {
            if tainted {
                r = ValRange::TOP;
            } else {
                self.flag(
                    program,
                    i,
                    "F203",
                    dst,
                    "arithmetic may overflow to +/-inf (result bound is not finite)".to_string(),
                );
                r = self.top();
            }
        }
        let joined = match state[dst.0] {
            // weak update: other elements of the buffer keep old values
            Some(old) => old.join(r),
            None => r,
        };
        state[dst.0] = Some(if self.widen && state[dst.0] != Some(joined) {
            // jump straight to top: unbounded, but stable on the next pass
            ValRange::TOP
        } else {
            joined
        });
    }
}

impl Transfer for IntervalAnalysis {
    type State = Vec<Option<ValRange>>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&mut self, program: &Program) -> Self::State {
        program
            .buffers
            .iter()
            .map(|b| match &b.role {
                BufferRole::Input(_) => Some(self.unknown()),
                BufferRole::Const(data) | BufferRole::State(data) => {
                    let r = data.iter().fold(None::<ValRange>, |acc, &v| {
                        let p = ValRange::point(if v.is_finite() { v } else { 0.0 });
                        Some(match acc {
                            Some(a) => a.join(p),
                            None => p,
                        })
                    });
                    Some(r.unwrap_or(ValRange::point(0.0)))
                }
                BufferRole::Output(_) | BufferRole::Temp => None,
            })
            .collect()
    }

    fn transfer(&mut self, program: &Program, i: usize, stmt: &Stmt, state: &mut Self::State) {
        match stmt {
            Stmt::Unary { op, dst, src, .. } => {
                let r = self.src_range(state, src);
                let out = self.unary(program, i, dst.buf, op, r);
                self.finish(program, i, dst.buf, out, state);
            }
            Stmt::FusedUnary { ops, dst, src, .. } => {
                // ops are applied innermost-first
                let mut r = self.src_range(state, src);
                for op in ops {
                    r = self.unary(program, i, dst.buf, op, r);
                }
                self.finish(program, i, dst.buf, r, state);
            }
            Stmt::Binary { op, dst, a, b, .. } => {
                let ra = self.src_range(state, a);
                let rb = self.src_range(state, b);
                let out = self.binary(program, i, dst.buf, op, ra, rb);
                self.finish(program, i, dst.buf, out, state);
            }
            Stmt::Select { dst, a, b, .. } => {
                let out = self.src_range(state, a).join(self.src_range(state, b));
                self.finish(program, i, dst.buf, out, state);
            }
            Stmt::Copy { dst, src, .. } => {
                let out = self.buf_range(state, src.buf);
                self.finish(program, i, dst.buf, out, state);
            }
            Stmt::Fill { dst, value, .. } => {
                self.finish(program, i, dst.buf, ValRange::point(*value), state);
            }
            Stmt::Gather { dst, src, .. } => {
                let out = self.buf_range(state, *src);
                self.finish(program, i, dst.buf, out, state);
            }
            Stmt::DynGather { dst, src, .. } => {
                let out = self.buf_range(state, *src);
                self.finish(program, i, dst.buf, out, state);
            }
            Stmt::Reduce { op, dst, src, len } => {
                let r = self.buf_range(state, src.buf);
                let out = match op {
                    ReduceOp::Sum => vsum_exact(*len, r),
                    ReduceOp::Mean | ReduceOp::Min | ReduceOp::Max => r,
                };
                self.finish(program, i, dst.buf, out, state);
            }
            Stmt::Dot { dst, a, b, len } => {
                let p = vmul(self.buf_range(state, a.buf), self.buf_range(state, b.buf));
                self.finish(program, i, dst.buf, vsum_exact(*len, p), state);
            }
            Stmt::Conv {
                dst,
                u,
                u_len,
                v,
                v_len,
                ..
            } => {
                let p = vmul(self.buf_range(state, *u), self.buf_range(state, *v));
                let terms = (*u_len).min(*v_len);
                self.finish(program, i, *dst, vsum_up_to(terms, p), state);
            }
            Stmt::Fir {
                dst,
                src,
                coeffs,
                taps,
                ..
            } => {
                let p = vmul(self.buf_range(state, *src), self.buf_range(state, *coeffs));
                self.finish(program, i, *dst, vsum_up_to(*taps, p), state);
            }
            Stmt::MovingAvg { dst, src, .. } => {
                // mean of up to `window` source values, with a partial
                // leading window: always within [min(lo, 0), max(hi, 0)]
                let r = self.buf_range(state, *src);
                let out = ValRange {
                    lo: r.lo.min(0.0),
                    hi: r.hi.max(0.0),
                };
                self.finish(program, i, *dst, out, state);
            }
            Stmt::CumSum { dst, src, k_end } => {
                let r = self.buf_range(state, *src);
                self.finish(program, i, *dst, vsum_up_to(*k_end, r), state);
            }
            Stmt::Diff { dst, src, .. } => {
                let r = self.buf_range(state, *src);
                self.finish(program, i, *dst, vsub(r, r), state);
            }
            Stmt::MatMul { dst, a, b, k, .. } => {
                let p = vmul(self.buf_range(state, *a), self.buf_range(state, *b));
                self.finish(program, i, *dst, vsum_exact(*k, p), state);
            }
            Stmt::Transpose { dst, src, .. } => {
                let out = self.buf_range(state, *src);
                self.finish(program, i, *dst, out, state);
            }
            Stmt::StateLoad { dst, state: st, .. } => {
                let out = self.buf_range(state, *st);
                self.finish(program, i, *dst, out, state);
            }
            Stmt::StateStore { state: st, src, .. } => {
                let out = self.buf_range(state, *src);
                self.finish(program, i, *st, out, state);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// residual-redundancy analysis (backward demand, F204)
// ---------------------------------------------------------------------------

struct DemandAnalysis<'a> {
    accs: &'a [Result<StmtAccess, Malformed>],
    /// Base demand re-imposed at every invocation boundary: output ranges
    /// from Algorithm 1 plus full state extents (read next step).
    base: Vec<IndexSet>,
    report: bool,
    residual_elements: usize,
    residual_stmts: usize,
    diags: Vec<Diagnostic>,
}

impl DemandAnalysis<'_> {
    fn top(program: &Program) -> Vec<IndexSet> {
        program
            .buffers
            .iter()
            .map(|b| IndexSet::full(b.len))
            .collect()
    }
}

impl Transfer for DemandAnalysis<'_> {
    type State = Vec<IndexSet>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&mut self, _program: &Program) -> Self::State {
        self.base.clone()
    }

    fn invocation_boundary(&mut self, _program: &Program, state: &mut Self::State) {
        for (d, b) in state.iter_mut().zip(&self.base) {
            *d = d.union(b);
        }
    }

    fn transfer(&mut self, program: &Program, i: usize, _stmt: &Stmt, state: &mut Self::State) {
        let stmt = &program.stmts[i];
        let acc = match &self.accs[i] {
            Ok(acc) => acc,
            Err(_) => {
                // a malformed statement's effect is unknowable; go to top
                // so nothing upstream is falsely reported residual
                *state = Self::top(program);
                return;
            }
        };
        // demand on each written element, captured before the kill
        let mut live = false;
        let mut demanded_dst = IndexSet::new();
        for w in &acc.writes {
            let d = state[w.buf.0].intersect(&w.set);
            if !d.is_empty() {
                live = true;
            }
            if w.what == "dst" {
                demanded_dst = demanded_dst.union(&d);
            }
            if self.report {
                // the lowering bridges demand gaps up to its default
                // `coalesce_gap` on purpose; forgive the same slop here
                let forgiven = state[w.buf.0].coalesce(DEFAULT_COALESCE_GAP);
                let residual = w.set.difference(&forgiven);
                if !residual.is_empty() {
                    let b = program.buffer(w.buf);
                    self.residual_elements += residual.count();
                    self.residual_stmts += 1;
                    self.diags.push(
                        Diagnostic::new(
                            "F204",
                            format!(
                                "residual redundancy: {} element(s) of `{}` written at stmt {} are never demanded by any output",
                                residual.count(),
                                b.name,
                                i
                            ),
                        )
                        .with_block(b.name.clone())
                        .with_location(format!("stmt {i} -> `{}`{:?}", b.name, residual.intervals()))
                        .with_help(
                            "the FRODO generator restricts every statement to its calculation range; residual elements are wasted work",
                        ),
                    );
                }
            }
        }
        // kill: these elements are now produced
        for w in &acc.writes {
            state[w.buf.0] = state[w.buf.0].difference(&w.set);
        }
        if !live {
            return; // fully dead statement: demands nothing
        }
        // gen: demand the reads. Elementwise statements map the demanded
        // destination elements exactly; everything else conservatively
        // demands its full read footprint (over-demand can only hide
        // residual, never fabricate it).
        match stmt {
            Stmt::Unary { dst, src, .. } | Stmt::FusedUnary { dst, src, .. } => {
                demand_src(state, src, &demanded_dst, dst.off);
            }
            Stmt::Binary { dst, a, b, .. } => {
                demand_src(state, a, &demanded_dst, dst.off);
                demand_src(state, b, &demanded_dst, dst.off);
            }
            Stmt::Select {
                dst, ctrl, a, b, ..
            } => {
                demand_src(state, ctrl, &demanded_dst, dst.off);
                demand_src(state, a, &demanded_dst, dst.off);
                demand_src(state, b, &demanded_dst, dst.off);
            }
            Stmt::Copy { dst, src, .. } => {
                let shift = src.off as isize - dst.off as isize;
                let want = demanded_dst.shift(shift);
                state[src.buf.0] = state[src.buf.0].union(&want);
            }
            Stmt::Fill { .. } => {}
            Stmt::Gather { dst, src, indices } => {
                let want =
                    IndexSet::from_indices(demanded_dst.iter().map(|p| indices[p - dst.off]));
                state[src.0] = state[src.0].union(&want);
            }
            _ => {
                for r in &acc.reads {
                    state[r.buf.0] = state[r.buf.0].union(&r.set);
                }
            }
        }
    }
}

/// Demand the source elements that produce `demanded` destination
/// elements of an elementwise statement whose destination starts at
/// `dst_off`.
fn demand_src(state: &mut [IndexSet], s: &Src, demanded: &IndexSet, dst_off: usize) {
    match s {
        Src::Run(sl) => {
            let shift = sl.off as isize - dst_off as isize;
            state[sl.buf.0] = state[sl.buf.0].union(&demanded.shift(shift));
        }
        Src::Broadcast(sl) => {
            if !demanded.is_empty() {
                state[sl.buf.0] = state[sl.buf.0].union(&IndexSet::point(sl.off));
            }
        }
        Src::Const(_) => {}
    }
}

// ---------------------------------------------------------------------------
// orchestration
// ---------------------------------------------------------------------------

/// Runs both analyses over a compiled model: output demands come from
/// Algorithm 1's calculation ranges.
pub fn analyze_compile(analysis: &Analysis, program: &Program) -> AnalyzeReport {
    analyze_inner(program, &output_demands(analysis, program))
}

/// Runs both analyses over a bare program with explicit output demands
/// (an empty slice demands every output's full extent).
pub fn analyze_program(program: &Program, demands: &[OutputDemand]) -> AnalyzeReport {
    let full: Vec<OutputDemand>;
    let demands = if demands.is_empty() {
        full = program
            .outputs()
            .iter()
            .map(|&(index, buf)| OutputDemand {
                index,
                range: IndexSet::full(program.buffer(buf).len),
                block: None,
            })
            .collect();
        &full
    } else {
        demands
    };
    analyze_inner(program, demands)
}

fn analyze_inner(program: &Program, demands: &[OutputDemand]) -> AnalyzeReport {
    let accs: Vec<Result<StmtAccess, Malformed>> = program
        .stmts
        .iter()
        .map(|s| stmt_access(program, s))
        .collect();

    // 1. value ranges: fixpoint, widen if needed, then one reporting pass
    let mut ia = IntervalAnalysis {
        widen: false,
        report: false,
        taint: std::cell::Cell::new(false),
        flagged: BTreeSet::new(),
        diags: Vec::new(),
    };
    let mut fix = run_to_fixpoint(program, &mut ia, MAX_PASSES);
    let mut interval_passes = fix.passes;
    if !fix.converged {
        ia.widen = true;
        let rerun = run_to_fixpoint(program, &mut ia, 3);
        interval_passes += rerun.passes;
        fix = rerun;
        ia.widen = false;
    }
    ia.report = true;
    let mut final_state = fix.entry.clone();
    run_one_pass(program, &mut ia, &mut final_state);
    let mut diagnostics = std::mem::take(&mut ia.diags);
    let value_ranges: Vec<(String, f64, f64)> = program
        .buffers
        .iter()
        .zip(&final_state)
        .filter_map(|(b, r)| r.map(|r| (b.name.clone(), r.lo, r.hi)))
        .collect();

    // 2. residual redundancy: backward demand fixpoint, then report
    let base: Vec<IndexSet> = program
        .buffers
        .iter()
        .map(|b| match &b.role {
            BufferRole::Output(idx) => demands
                .iter()
                .find(|d| d.index == *idx)
                .map(|d| d.range.clone())
                .unwrap_or_else(|| IndexSet::full(b.len)),
            BufferRole::State(_) => IndexSet::full(b.len),
            _ => IndexSet::new(),
        })
        .collect();
    let mut da = DemandAnalysis {
        accs: &accs,
        base,
        report: false,
        residual_elements: 0,
        residual_stmts: 0,
        diags: Vec::new(),
    };
    let dfix = run_to_fixpoint(program, &mut da, MAX_PASSES);
    da.report = true;
    let mut demand_state = dfix.entry.clone();
    run_one_pass(program, &mut da, &mut demand_state);
    // the reporting sweep runs backward: restore statement order
    da.diags.reverse();
    let residual_elements = da.residual_elements;
    let residual_stmts = da.residual_stmts;
    diagnostics.extend(da.diags);

    AnalyzeReport {
        diagnostics,
        stmts: program.stmts.len(),
        buffers: program.buffers.len(),
        interval_passes,
        interval_converged: fix.converged,
        value_ranges,
        residual_elements,
        residual_stmts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_codegen::lir::{Buffer, Slice};
    use frodo_codegen::{generate, GeneratorStyle};
    use frodo_model::{Block, BlockKind, Model, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn buf(name: &str, len: usize, role: BufferRole) -> Buffer {
        Buffer {
            name: name.into(),
            len,
            role,
        }
    }

    fn program(buffers: Vec<Buffer>, stmts: Vec<Stmt>) -> Program {
        Program {
            name: "t".into(),
            style: GeneratorStyle::Frodo,
            buffers,
            stmts,
        }
    }

    fn codes(report: &AnalyzeReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn division_by_possible_zero_is_flagged_f201() {
        // out0 = in0 / t0 where t0 = in0 - in0 could be exactly 0
        let p = program(
            vec![
                buf("in0", 4, BufferRole::Input(0)),
                buf("t0", 4, BufferRole::Temp),
                buf("out0", 4, BufferRole::Output(0)),
            ],
            vec![
                Stmt::Fill {
                    dst: Slice::new(BufId(1), 0),
                    value: 0.0,
                    len: 4,
                },
                Stmt::Binary {
                    op: BinOp::Div,
                    dst: Slice::new(BufId(2), 0),
                    a: Src::Run(Slice::new(BufId(0), 0)),
                    b: Src::Run(Slice::new(BufId(1), 0)),
                    len: 4,
                },
            ],
        );
        let r = analyze_program(&p, &[]);
        assert!(codes(&r).contains(&"F201"), "got {:?}", codes(&r));
    }

    #[test]
    fn log_of_negative_constant_is_flagged_f202() {
        let p = program(
            vec![
                buf("c", 4, BufferRole::Const(vec![-1.0; 4])),
                buf("out0", 4, BufferRole::Output(0)),
            ],
            vec![Stmt::Unary {
                op: UnOp::Log,
                dst: Slice::new(BufId(1), 0),
                src: Src::Run(Slice::new(BufId(0), 0)),
                len: 4,
            }],
        );
        let r = analyze_program(&p, &[]);
        assert_eq!(codes(&r), vec!["F202"]);
    }

    #[test]
    fn overflow_to_inf_is_flagged_f203_once() {
        let p = program(
            vec![
                buf("c", 2, BufferRole::Const(vec![1.0e308; 2])),
                buf("out0", 2, BufferRole::Output(0)),
            ],
            vec![Stmt::Binary {
                op: BinOp::Mul,
                dst: Slice::new(BufId(1), 0),
                a: Src::Run(Slice::new(BufId(0), 0)),
                b: Src::Run(Slice::new(BufId(0), 0)),
                len: 2,
            }],
        );
        let r = analyze_program(&p, &[]);
        assert_eq!(codes(&r), vec!["F203"]);
    }

    #[test]
    fn square_then_sqrt_chain_is_clean() {
        // sqrt(moving-average(x^2)) — the benchmark RMS idiom — must not
        // trip F202: Square proves nonnegativity
        let p = program(
            vec![
                buf("in0", 8, BufferRole::Input(0)),
                buf("sq", 8, BufferRole::Temp),
                buf("avg", 8, BufferRole::Temp),
                buf("out0", 8, BufferRole::Output(0)),
            ],
            vec![
                Stmt::Unary {
                    op: UnOp::Square,
                    dst: Slice::new(BufId(1), 0),
                    src: Src::Run(Slice::new(BufId(0), 0)),
                    len: 8,
                },
                Stmt::MovingAvg {
                    dst: BufId(2),
                    src: BufId(1),
                    window: 4,
                    k0: 0,
                    k1: 8,
                },
                Stmt::Unary {
                    op: UnOp::Sqrt,
                    dst: Slice::new(BufId(3), 0),
                    src: Src::Run(Slice::new(BufId(2), 0)),
                    len: 8,
                },
            ],
        );
        let r = analyze_program(&p, &[]);
        assert!(r.is_clean(), "unexpected findings: {:?}", r.diagnostics);
        assert!(r.interval_converged);
    }

    #[test]
    fn figure1_style_overcomputation_is_residual_f204() {
        // a full 60-element convolution result of which only [5, 55) is
        // consumed: the paper's Figure 1 redundancy, 10 residual elements
        let p = program(
            vec![
                buf("u", 50, BufferRole::Input(0)),
                buf("v", 11, BufferRole::Const(vec![0.1; 11])),
                buf("conv", 60, BufferRole::Temp),
                buf("out0", 50, BufferRole::Output(0)),
            ],
            vec![
                Stmt::Conv {
                    dst: BufId(2),
                    u: BufId(0),
                    u_len: 50,
                    v: BufId(1),
                    v_len: 11,
                    k0: 0,
                    k1: 60,
                    style: frodo_codegen::lir::ConvStyle::Branchy,
                },
                Stmt::Copy {
                    dst: Slice::new(BufId(3), 0),
                    src: Slice::new(BufId(2), 5),
                    len: 50,
                },
            ],
        );
        let r = analyze_program(&p, &[]);
        assert_eq!(r.residual_elements, 10);
        assert_eq!(r.residual_stmts, 1);
        assert_eq!(codes(&r), vec!["F204"]);
        let d = &r.diagnostics[0];
        assert_eq!(d.block.as_deref(), Some("conv"));
    }

    #[test]
    fn frodo_style_conv_pipeline_has_no_residual_but_simulink_does() {
        let mut m = Model::new("fig1");
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
        let analysis = Analysis::run(m).unwrap();

        let frodo = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let r = analyze_compile(&analysis, &frodo);
        assert_eq!(
            r.residual_elements, 0,
            "frodo output over-computes: {:?}",
            r.diagnostics
        );
        assert!(r.is_clean(), "unexpected findings: {:?}", r.diagnostics);

        let baseline = generate(
            &analysis,
            GeneratorStyle::SimulinkCoder,
            &frodo_obs::Trace::noop(),
        );
        let rb = analyze_compile(&analysis, &baseline);
        assert!(
            rb.residual_elements > 0,
            "baseline should over-compute the convolution tails"
        );
    }

    #[test]
    fn never_read_fill_is_residual_f204() {
        let p = program(
            vec![
                buf("in0", 8, BufferRole::Input(0)),
                buf("t0", 8, BufferRole::Temp),
                buf("t1", 8, BufferRole::Temp),
                buf("dead", 8, BufferRole::Temp),
                buf("out0", 8, BufferRole::Output(0)),
            ],
            vec![
                Stmt::Copy {
                    dst: Slice::new(BufId(1), 0),
                    src: Slice::new(BufId(0), 0),
                    len: 8,
                },
                // never read: all 8 elements are residual
                Stmt::Fill {
                    dst: Slice::new(BufId(3), 0),
                    value: 0.0,
                    len: 8,
                },
                Stmt::Unary {
                    op: UnOp::Abs,
                    dst: Slice::new(BufId(2), 0),
                    src: Src::Run(Slice::new(BufId(1), 0)),
                    len: 8,
                },
                Stmt::Copy {
                    dst: Slice::new(BufId(4), 0),
                    src: Slice::new(BufId(2), 0),
                    len: 8,
                },
            ],
        );
        let r = analyze_program(&p, &[]);
        assert_eq!(r.residual_elements, 8);
        assert_eq!(r.residual_stmts, 1);
        assert_eq!(codes(&r), vec!["F204"]);
        assert_eq!(r.diagnostics[0].block.as_deref(), Some("dead"));
    }

    #[test]
    fn reports_are_deterministic() {
        let p = program(
            vec![
                buf("c", 4, BufferRole::Const(vec![-1.0; 4])),
                buf("t", 4, BufferRole::Temp),
                buf("out0", 4, BufferRole::Output(0)),
            ],
            vec![
                Stmt::Unary {
                    op: UnOp::Log,
                    dst: Slice::new(BufId(1), 0),
                    src: Src::Run(Slice::new(BufId(0), 0)),
                    len: 4,
                },
                Stmt::Unary {
                    op: UnOp::Sqrt,
                    dst: Slice::new(BufId(2), 0),
                    src: Src::Run(Slice::new(BufId(1), 0)),
                    len: 4,
                },
            ],
        );
        let a = analyze_program(&p, &[]);
        let b = analyze_program(&p, &[]);
        let fmt = |r: &AnalyzeReport| {
            r.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(fmt(&a), fmt(&b));
        assert!(!a.diagnostics.is_empty());
    }

    #[test]
    fn state_feedback_converges_or_widens_without_panicking() {
        // state = state * 1.5 + input: diverges, must widen and settle
        let p = program(
            vec![
                buf("in0", 4, BufferRole::Input(0)),
                buf("acc", 4, BufferRole::State(vec![1.0; 4])),
                buf("work", 4, BufferRole::Temp),
                buf("out0", 4, BufferRole::Output(0)),
            ],
            vec![
                Stmt::StateLoad {
                    dst: BufId(2),
                    state: BufId(1),
                    len: 4,
                },
                Stmt::Unary {
                    op: UnOp::Gain(1.5),
                    dst: Slice::new(BufId(2), 0),
                    src: Src::Run(Slice::new(BufId(2), 0)),
                    len: 4,
                },
                Stmt::StateStore {
                    state: BufId(1),
                    src: BufId(2),
                    len: 4,
                },
                Stmt::Copy {
                    dst: Slice::new(BufId(3), 0),
                    src: Slice::new(BufId(2), 0),
                    len: 4,
                },
            ],
        );
        let r = analyze_program(&p, &[]);
        assert!(r.interval_converged, "widening must force convergence");
        let acc = r.value_ranges.iter().find(|v| v.0 == "acc").unwrap();
        assert!(acc.2 >= 1.0e6, "feedback should have widened: {acc:?}");
    }
}
