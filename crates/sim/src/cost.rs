//! Deterministic cost models standing in for the paper's testbeds.
//!
//! The paper measures wall-clock time on an AMD Ryzen 7 5800X (512-bit SIMD)
//! and an ARM Cortex-A72 (128-bit SIMD) with GCC 11.3 and Clang 14 at `-O3`.
//! We cannot run Clang or ARM here, so those columns are produced by a
//! static per-statement cost estimate whose first-order terms are exactly
//! the effects the paper attributes the differences to:
//!
//! - **element counts** — redundancy elimination's direct effect;
//! - **boundary judgments** — Simulink's branchy convolution loops;
//! - **SIMD width and vectorizer uptake** — 8 `f64` lanes on x86 vs 2 on
//!   ARM; Clang's vectorizer modeled slightly more effective than GCC's;
//!   Simulink's generated code largely missing vectorization; HCG's explicit
//!   4-wide batching capping the achievable width and adding per-loop
//!   overhead (the paper's analysis of why HCG loses at `-O3` on some
//!   models).
//!
//! The estimate is deliberately simple and fully deterministic; the
//! `frodo-bench` harness cross-checks its x86/GCC column against real
//! `gcc -O3` wall times when a compiler is present.

use frodo_codegen::lir::{ConvStyle, Program, Stmt, UnOp};
use frodo_codegen::{GeneratorStyle, VectorMode};

/// Processor family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// AMD Ryzen-class desktop x86-64 (512-bit SIMD).
    X86,
    /// ARM Cortex-A72 embedded core (128-bit NEON).
    Arm,
}

/// Compiler vectorizer profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerProfile {
    /// GCC 11-like: good but conservative auto-vectorization.
    Gcc,
    /// Clang 14-like: slightly more aggressive auto-vectorization.
    Clang,
}

/// A deterministic statement-cost estimator for one (arch, compiler) pair.
///
/// # Example
///
/// ```
/// use frodo_sim::CostModel;
///
/// let x86 = CostModel::x86_gcc();
/// let arm = CostModel::arm_gcc();
/// assert_eq!(x86.label(), "x86/gcc");
/// assert_eq!(arm.label(), "arm/gcc");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Processor family.
    pub arch: Arch,
    /// Compiler profile.
    pub compiler: CompilerProfile,
    /// Nanoseconds per scalar arithmetic/memory element-op.
    base_ns: f64,
    /// Available `f64` SIMD lanes.
    simd_lanes: f64,
    /// Fraction of the ideal SIMD speedup the auto-vectorizer realizes.
    vec_eff: f64,
    /// Nanoseconds per data-dependent branch evaluation.
    branch_ns: f64,
    /// Fixed nanoseconds per emitted loop (setup, remainder handling).
    loop_ns: f64,
    /// Cost multiplier of libm calls relative to a flop.
    transcendental: f64,
}

impl CostModel {
    /// x86-64 + GCC (the configuration also measured natively).
    pub fn x86_gcc() -> Self {
        CostModel {
            arch: Arch::X86,
            compiler: CompilerProfile::Gcc,
            base_ns: 0.40,
            simd_lanes: 8.0,
            vec_eff: 0.60,
            branch_ns: 0.6,
            loop_ns: 2.0,
            transcendental: 12.0,
        }
    }

    /// x86-64 + Clang.
    pub fn x86_clang() -> Self {
        CostModel {
            compiler: CompilerProfile::Clang,
            vec_eff: 0.75,
            ..CostModel::x86_gcc()
        }
    }

    /// ARM Cortex-A72 + GCC.
    pub fn arm_gcc() -> Self {
        CostModel {
            arch: Arch::Arm,
            compiler: CompilerProfile::Gcc,
            base_ns: 1.60,
            simd_lanes: 2.0,
            vec_eff: 0.60,
            branch_ns: 9.6,
            loop_ns: 7.0,
            transcendental: 14.0,
        }
    }

    /// ARM Cortex-A72 + Clang.
    pub fn arm_clang() -> Self {
        CostModel {
            compiler: CompilerProfile::Clang,
            vec_eff: 0.75,
            ..CostModel::arm_gcc()
        }
    }

    /// All four configurations in the paper's order
    /// (x86 GCC, x86 Clang, ARM GCC, ARM Clang).
    pub fn all() -> [CostModel; 4] {
        [
            CostModel::x86_gcc(),
            CostModel::x86_clang(),
            CostModel::arm_gcc(),
            CostModel::arm_clang(),
        ]
    }

    /// Short label, e.g. `x86/gcc`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            match self.arch {
                Arch::X86 => "x86",
                Arch::Arm => "arm",
            },
            match self.compiler {
                CompilerProfile::Gcc => "gcc",
                CompilerProfile::Clang => "clang",
            }
        )
    }

    /// SIMD speedup factor a statement enjoys under this model, considering
    /// the generator style's interaction with the vectorizer.
    fn speedup(&self, style: GeneratorStyle, stmt: &Stmt) -> f64 {
        // memcpy-like moves vectorize regardless of the surrounding code.
        let memlike = matches!(
            stmt,
            Stmt::Copy { .. }
                | Stmt::Fill { .. }
                | Stmt::StateLoad { .. }
                | Stmt::StateStore { .. }
        );
        if memlike {
            return (self.simd_lanes * 0.9).max(1.0);
        }
        if !stmt.is_vectorizable() {
            return 1.0;
        }
        // Variable-bound inner reduction loops (convolution windows, FIR
        // taps, dot products) are where auto-vectorizers lose efficiency and
        // where HCG's explicit batching shines — the source of the mixed
        // HCG-vs-DFSynth results in the paper's Table 2.
        let window_reduction = matches!(
            stmt,
            Stmt::Conv { .. }
                | Stmt::Fir { .. }
                | Stmt::MovingAvg { .. }
                | Stmt::Dot { .. }
                | Stmt::Reduce { .. }
        );
        match style {
            // Simulink "indeed employs some optimization techniques,
            // including SIMD instruction utilization" but "usually fails to
            // effectively identify the target blocks" — partial uptake on
            // plain elementwise loops, none on windowed reductions.
            GeneratorStyle::SimulinkCoder => {
                if window_reduction {
                    1.0
                } else {
                    (self.simd_lanes * self.vec_eff * 0.5).max(1.0)
                }
            }
            // Explicit 4-wide batching: effective even on reductions, but
            // caps the width below wide-SIMD hosts.
            GeneratorStyle::Hcg => (self.simd_lanes.min(4.0) * 0.85).max(1.0),
            // Clean loops: the compiler auto-vectorizes at profile
            // efficiency, with a reduction penalty on windowed loops.
            GeneratorStyle::DfSynth | GeneratorStyle::Frodo => {
                let eff = if window_reduction {
                    self.vec_eff * 0.5
                } else {
                    self.vec_eff
                };
                (self.simd_lanes * eff).max(1.0)
            }
        }
    }

    /// Number of `f64` SIMD lanes (drives the CLI's default `--vectorize
    /// batch` width).
    pub fn lanes(&self) -> usize {
        self.simd_lanes as usize
    }

    /// Estimated nanoseconds for one statement (the historical
    /// [`VectorMode::Auto`] emission).
    pub fn stmt_ns(&self, style: GeneratorStyle, stmt: &Stmt) -> f64 {
        self.stmt_ns_with(style, stmt, VectorMode::Auto)
    }

    /// Estimated nanoseconds for one statement under an explicit emission
    /// vector mode.
    ///
    /// `Auto` reproduces [`CostModel::stmt_ns`] exactly. `Hints` strips
    /// HCG's explicit batching, leaving clean scalar loops the compiler
    /// auto-vectorizes, and models the restrict/alignment annotations
    /// raising realized vectorizer efficiency. `Batch(w)` models explicit
    /// `w`-wide batching on vectorizable statements — effective even on
    /// reductions, but with HCG-like per-loop setup overhead.
    pub fn stmt_ns_with(&self, style: GeneratorStyle, stmt: &Stmt, mode: VectorMode) -> f64 {
        // HCG's hand-batched loops (and our explicit `batch` emission)
        // carry extra setup (lane accumulators, remainder loops) and block
        // other compiler optimizations — the paper's assembly analysis
        // calls the result "verbose and lengthy".
        let batched_overhead = (self.loop_ns * 2.5, 1.12);
        let plain = (self.loop_ns, 1.0);
        // with batching stripped, HCG presents the same clean loops as
        // DFSynth; the other styles never batched, so they are unchanged
        let unbatched_style = if style == GeneratorStyle::Hcg {
            GeneratorStyle::DfSynth
        } else {
            style
        };
        let (speed, (loop_ns, work_penalty)) = match mode {
            VectorMode::Auto => {
                let over = if style == GeneratorStyle::Hcg && stmt.is_vectorizable() {
                    batched_overhead
                } else {
                    plain
                };
                (self.speedup(style, stmt), over)
            }
            VectorMode::Hints => {
                let base = self.speedup(unbatched_style, stmt);
                let speed = if stmt.is_vectorizable() {
                    (base * 1.15).max(1.0)
                } else {
                    base
                };
                (speed, plain)
            }
            VectorMode::Batch(w) => {
                if stmt.is_vectorizable() {
                    (
                        (self.simd_lanes.min(w as f64) * 0.85).max(1.0),
                        batched_overhead,
                    )
                } else {
                    (self.speedup(unbatched_style, stmt), plain)
                }
            }
        };
        let scalar_work: f64 = match stmt {
            Stmt::Unary { op, len, .. } => {
                let w = if op.is_transcendental() {
                    self.transcendental
                } else {
                    match op {
                        UnOp::Sat(..) => 2.0,
                        UnOp::Not => 1.5,
                        _ => 1.0,
                    }
                };
                *len as f64 * w
            }
            Stmt::FusedUnary { ops, len, .. } => {
                let w: f64 = ops
                    .iter()
                    .map(|op| {
                        if op.is_transcendental() {
                            self.transcendental
                        } else {
                            match op {
                                UnOp::Sat(..) => 2.0,
                                UnOp::Not => 1.5,
                                _ => 1.0,
                            }
                        }
                    })
                    .sum();
                *len as f64 * w
            }
            Stmt::Binary { op, len, .. } => {
                use frodo_codegen::lir::BinOp;
                let w = match op {
                    BinOp::Div => 4.0,
                    BinOp::Mod => 10.0,
                    BinOp::Min | BinOp::Max => 1.2,
                    BinOp::And | BinOp::Or | BinOp::Xor => 1.5,
                    _ => 1.0,
                };
                *len as f64 * w
            }
            Stmt::Select { len, .. } => *len as f64 * (1.0 + self.branch_ns / self.base_ns * 0.3),
            Stmt::Copy { len, .. }
            | Stmt::Fill { len, .. }
            | Stmt::StateLoad { len, .. }
            | Stmt::StateStore { len, .. } => *len as f64 * 0.5,
            Stmt::Gather { indices, .. } => indices.len() as f64 * 2.0,
            Stmt::DynGather { len, .. } => {
                *len as f64 * (2.0 + 2.0 * self.branch_ns / self.base_ns)
            }
            Stmt::Reduce { len, .. } => *len as f64 * 1.3,
            Stmt::Dot { len, .. } => *len as f64 * 1.3,
            Stmt::Conv {
                u_len,
                v_len,
                k0,
                k1,
                style: cs,
                ..
            } => match cs {
                ConvStyle::Tight => {
                    let mut inner = 0usize;
                    for k in *k0..*k1 {
                        let lo = k.saturating_sub(v_len - 1);
                        let hi = k.min(u_len - 1);
                        inner += hi - lo + 1;
                    }
                    inner as f64 * 1.1 + (*k1 - *k0) as f64 * 1.5
                }
                ConvStyle::Branchy => {
                    // kernel-major loop with a boundary judgment per tap
                    // (the paper's Figure 1 green code); the data-dependent
                    // guard defeats vectorization and costs a branch per trip
                    let trips = (*k1 - *k0) * u_len.min(v_len);
                    let taken: usize = (*k0..*k1)
                        .map(|k| k.min(u_len - 1) - k.saturating_sub(v_len - 1) + 1)
                        .sum();
                    let guard = self.branch_ns / self.base_ns;
                    trips as f64 * guard + taken as f64 * 1.1
                }
            },
            Stmt::Fir { taps, k0, k1, .. } => {
                let inner: usize = (*k0..*k1).map(|k| k.min(taps - 1) + 1).sum();
                inner as f64 * 1.1 + (*k1 - *k0) as f64 * 1.5
            }
            Stmt::MovingAvg { window, k0, k1, .. } => {
                let inner: usize = (*k0..*k1)
                    .map(|k| k - k.saturating_sub(window - 1) + 1)
                    .sum();
                inner as f64 * 1.0 + (*k1 - *k0) as f64 * 2.0
            }
            Stmt::CumSum { k_end, .. } => *k_end as f64 * 2.0, // serial chain
            Stmt::Diff { k0, k1, .. } => (*k1 - *k0) as f64 * 1.0,
            Stmt::MatMul { k, n, r0, r1, .. } => ((*r1 - *r0) * *n * *k) as f64 * 1.1,
            Stmt::Transpose { rows, cols, .. } => (*rows * *cols) as f64 * 1.5,
        };
        loop_ns + scalar_work * work_penalty * self.base_ns / speed
    }

    /// Estimated nanoseconds for one step of a program.
    pub fn program_ns(&self, program: &Program) -> f64 {
        self.program_ns_with(program, VectorMode::Auto)
    }

    /// [`CostModel::program_ns`] under an explicit emission vector mode.
    pub fn program_ns_with(&self, program: &Program, mode: VectorMode) -> f64 {
        let call_overhead = 5.0;
        call_overhead
            + program
                .stmts
                .iter()
                .map(|s| self.stmt_ns_with(program.style, s, mode))
                .sum::<f64>()
    }

    /// Estimated seconds for `iters` repetitions (the paper's measurement
    /// protocol: 10 000 repetitions, averaged).
    pub fn execution_seconds(&self, program: &Program, iters: usize) -> f64 {
        self.program_ns(program) * iters as f64 / 1e9
    }
}

/// Floating-point operation count of one statement (adds, multiplies,
/// divides — not moves or index arithmetic). Architecture-independent:
/// it counts the arithmetic that range narrowing removes, not time.
pub fn stmt_flops(stmt: &Stmt) -> u64 {
    stmt.flops()
}

/// Total floating-point operations of one program step.
pub fn program_flops(program: &Program) -> u64 {
    program.stmts.iter().map(stmt_flops).sum()
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
                shape: Shape::Vector(200),
            },
        ));
        let k = m.add(Block::new(
            "k",
            BlockKind::Constant {
                value: Tensor::vector(vec![0.1; 31]),
            },
        ));
        let c = m.add(Block::new("conv", BlockKind::Convolution));
        // deep truncation: only a quarter of the convolution is consumed,
        // as in the paper's data-intensive benchmarks
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd {
                    start: 120,
                    end: 180,
                },
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
    fn frodo_is_fastest_on_every_config() {
        let a = figure1();
        for cm in CostModel::all() {
            let frodo = cm.program_ns(&generate(
                &a,
                GeneratorStyle::Frodo,
                &frodo_obs::Trace::noop(),
            ));
            for style in [
                GeneratorStyle::SimulinkCoder,
                GeneratorStyle::DfSynth,
                GeneratorStyle::Hcg,
            ] {
                let other = cm.program_ns(&generate(&a, style, &frodo_obs::Trace::noop()));
                assert!(
                    frodo < other,
                    "{}: frodo {frodo} !< {style} {other}",
                    cm.label()
                );
            }
        }
    }

    #[test]
    fn branchy_conv_is_much_slower_than_tight() {
        let a = figure1();
        let cm = CostModel::x86_gcc();
        let simulink = cm.program_ns(&generate(
            &a,
            GeneratorStyle::SimulinkCoder,
            &frodo_obs::Trace::noop(),
        ));
        let dfsynth = cm.program_ns(&generate(
            &a,
            GeneratorStyle::DfSynth,
            &frodo_obs::Trace::noop(),
        ));
        assert!(simulink > dfsynth * 1.5, "{simulink} vs {dfsynth}");
    }

    #[test]
    fn arm_improvement_exceeds_x86_improvement() {
        // the paper: narrower SIMD ⇒ code logic dominates ⇒ FRODO's ratio grows
        let a = figure1();
        let x86 = CostModel::x86_gcc();
        let arm = CostModel::arm_gcc();
        let ratio = |cm: &CostModel| {
            cm.program_ns(&generate(
                &a,
                GeneratorStyle::SimulinkCoder,
                &frodo_obs::Trace::noop(),
            )) / cm.program_ns(&generate(
                &a,
                GeneratorStyle::Frodo,
                &frodo_obs::Trace::noop(),
            ))
        };
        assert!(ratio(&arm) > ratio(&x86) * 0.9);
    }

    #[test]
    fn clang_profile_is_faster_on_clean_code() {
        let a = figure1();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        assert!(CostModel::x86_clang().program_ns(&p) < CostModel::x86_gcc().program_ns(&p));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CostModel::x86_gcc().label(), "x86/gcc");
        assert_eq!(CostModel::arm_clang().label(), "arm/clang");
    }

    #[test]
    fn auto_mode_reproduces_the_plain_estimate() {
        let a = figure1();
        for style in GeneratorStyle::ALL {
            let p = generate(&a, style, &frodo_obs::Trace::noop());
            for cm in CostModel::all() {
                assert_eq!(
                    cm.program_ns(&p),
                    cm.program_ns_with(&p, VectorMode::Auto),
                    "{} {style}",
                    cm.label()
                );
            }
        }
    }

    #[test]
    fn batch_beats_scalar_frodo_by_1_5x() {
        // explicit 8-wide batching vs the scalar FRODO emission of the
        // same program (the default), under the x86/gcc model
        let a = figure1();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let cm = CostModel::x86_gcc();
        let base = cm.program_ns_with(&p, VectorMode::Auto);
        let batched = cm.program_ns_with(&p, VectorMode::Batch(8));
        assert!(
            base / batched >= 1.5,
            "predicted speedup {:.2} < 1.5 ({base} vs {batched})",
            base / batched
        );
    }

    #[test]
    fn batch_width_caps_at_the_lane_count() {
        let a = figure1();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let cm = CostModel::arm_gcc();
        // requesting 8 lanes on a 2-lane target must not beat the 2-wide run
        let wide = cm.program_ns_with(&p, VectorMode::Batch(8));
        let narrow = cm.program_ns_with(&p, VectorMode::Batch(2));
        assert_eq!(wide, narrow);
    }

    #[test]
    fn lane_accessor_matches_the_paper_targets() {
        assert_eq!(CostModel::x86_gcc().lanes(), 8);
        assert_eq!(CostModel::arm_gcc().lanes(), 2);
    }

    #[test]
    fn execution_seconds_scales_with_iters() {
        let a = figure1();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let cm = CostModel::x86_gcc();
        let one = cm.execution_seconds(&p, 1);
        let many = cm.execution_seconds(&p, 10_000);
        assert!((many / one - 10_000.0).abs() < 1e-6);
    }
}
