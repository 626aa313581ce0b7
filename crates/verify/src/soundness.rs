//! Layer 2: range-soundness checking of the lowered statement IR.
//!
//! The checker abstract-interprets a [`Program`] in schedule order with one
//! [`IndexSet`] of *written elements* per buffer. Input, constant, and
//! state buffers start fully written; temporaries and outputs start empty.
//! Each statement contributes a read set and a write set mirroring the
//! exact element accesses of the reference VM in `frodo-sim`:
//!
//! * every read index must lie inside its buffer's declared extent
//!   (**F102**, no out-of-bounds access),
//! * every read element must already be in the written set (**F101**, no
//!   uninitialized reads),
//! * after the last statement, the written set of each model output must
//!   *equal* the demanded range Algorithm 1 anchored at the corresponding
//!   `Outport` — missing elements are under-computation (**F103**), extra
//!   elements are over-computation (**F104**).
//!
//! Because redundancy elimination is exactly "shrink write sets without
//! changing demanded outputs", a pass of this checker is a per-compilation
//! certificate that the elimination was sound for *this* model — the
//! translation-validation posture, rather than trusting the optimizer.

use crate::diag::Diagnostic;
use frodo_codegen::access::{stmt_access, Access};
use frodo_codegen::lir::{BufId, BufferRole, Program, Stmt};
use frodo_core::Analysis;
use frodo_ranges::IndexSet;

/// The demanded range of one model output, as anchored by Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputDemand {
    /// Output index (`BufferRole::Output(index)`).
    pub index: usize,
    /// Elements the model must produce.
    pub range: IndexSet,
    /// The `Outport` block's name, when known (names the block in
    /// mismatch diagnostics).
    pub block: Option<String>,
}

/// The checker's verdict plus the counters the `verify` trace stage
/// records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SoundnessReport {
    /// Every finding, in program order (statement findings first, then
    /// output-coverage findings by output index).
    pub diagnostics: Vec<Diagnostic>,
    /// Statements interpreted.
    pub stmts_checked: usize,
    /// Buffers tracked.
    pub buffers_checked: usize,
    /// Output demands compared.
    pub outputs_checked: usize,
}

impl SoundnessReport {
    /// Whether the program passed (no findings at all — the checker only
    /// emits errors).
    pub fn is_sound(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Checks a compiled [`Analysis`] + [`Program`] pair: derives each model
/// output's demanded range the way Algorithm 1 anchors it (the `Outport`'s
/// full input extent) and runs the written-set interpretation across **two
/// consecutive invocations** (see [`check_program_invocations`]) — the
/// second invocation proves that the unit-delay state a step hands to the
/// next (`Stmt::StateStore`, read back by `Stmt::StateLoad`) was fully
/// refreshed by the first.
pub fn check_compile(analysis: &Analysis, program: &Program) -> SoundnessReport {
    check_program_invocations(program, &output_demands(analysis, program), 2)
}

/// Derives each model output's demanded range the way Algorithm 1 anchors
/// it: the `Outport`'s full input extent. Shared between the soundness
/// checker and the dataflow analyses in [`crate::analyze`].
pub fn output_demands(analysis: &Analysis, program: &Program) -> Vec<OutputDemand> {
    let model = analysis.dfg().model();
    let shapes = analysis.dfg().shapes();
    program
        .outputs()
        .iter()
        .map(|&(index, _)| match model.outport(index) {
            Some(block) => OutputDemand {
                index,
                range: IndexSet::full(shapes.input(block, 0).numel()),
                block: Some(model.block(block).name.clone()),
            },
            None => OutputDemand {
                index,
                range: IndexSet::new(),
                block: None,
            },
        })
        .collect()
}

/// Checks a [`Program`] against explicit output demands over a single
/// invocation. Tests inject partial or shifted demands here to prove the
/// checker rejects corrupted calculation ranges.
pub fn check_program(program: &Program, demands: &[OutputDemand]) -> SoundnessReport {
    check_program_invocations(program, demands, 1)
}

/// [`check_program`] across `invocations` consecutive invocations.
///
/// The first invocation starts from the usual abstract state (inputs,
/// constants, and state buffers fully written). At each invocation
/// boundary, temporaries and outputs reset to empty and inputs/constants
/// to full — but each **state** buffer's written set becomes exactly the
/// elements the previous invocation wrote to it: stale initial values are
/// treated as poison, so a transform that fails to fully refresh the state
/// it hands to the next step surfaces as an uninitialized read (F101)
/// in the second invocation. Output coverage (F103/F104) is judged once,
/// after the final invocation.
pub fn check_program_invocations(
    program: &Program,
    demands: &[OutputDemand],
    invocations: usize,
) -> SoundnessReport {
    let mut ck = Checker::new(program);
    for inv in 0..invocations.max(1) {
        if inv > 0 {
            ck.next_invocation();
        }
        for (i, stmt) in program.stmts.iter().enumerate() {
            ck.step(i, stmt);
        }
    }
    ck.check_outputs(demands);
    ck.report
}

struct Checker<'p> {
    program: &'p Program,
    written: Vec<IndexSet>,
    /// Elements written during the current invocation only (feeds the
    /// state carry-over at invocation boundaries).
    inv_writes: Vec<IndexSet>,
    report: SoundnessReport,
}

impl<'p> Checker<'p> {
    fn new(program: &'p Program) -> Self {
        let written: Vec<IndexSet> = program
            .buffers
            .iter()
            .map(|b| match b.role {
                // values that exist before the first step
                BufferRole::Input(_) | BufferRole::Const(_) | BufferRole::State(_) => {
                    IndexSet::full(b.len)
                }
                BufferRole::Temp | BufferRole::Output(_) => IndexSet::new(),
            })
            .collect();
        let buffers_checked = written.len();
        Checker {
            program,
            inv_writes: vec![IndexSet::new(); written.len()],
            written,
            report: SoundnessReport {
                buffers_checked,
                ..SoundnessReport::default()
            },
        }
    }

    /// Re-arms the written sets for the next consecutive invocation: a
    /// state buffer keeps only what this invocation actually wrote to it
    /// (its pre-first-step initial values are spent), everything else
    /// resets to its start-of-step state.
    fn next_invocation(&mut self) {
        for (i, b) in self.program.buffers.iter().enumerate() {
            self.written[i] = match b.role {
                BufferRole::Input(_) | BufferRole::Const(_) => IndexSet::full(b.len),
                BufferRole::Temp | BufferRole::Output(_) => IndexSet::new(),
                BufferRole::State(_) => self.inv_writes[i].clone(),
            };
            self.inv_writes[i] = IndexSet::new();
        }
    }

    fn buf_name(&self, buf: BufId) -> &str {
        &self.program.buffer(buf).name
    }

    fn diag(&mut self, code: &'static str, stmt: usize, buf: BufId, message: String) {
        let d = Diagnostic::new(code, message)
            .with_block(self.buf_name(buf).to_string())
            .with_location(format!("stmt {stmt}"));
        self.report.diagnostics.push(d);
    }

    fn malformed(&mut self, stmt: usize, buf: BufId, reason: &str) {
        self.diag("F105", stmt, buf, format!("malformed statement: {reason}"));
    }

    /// Interprets one statement: derives its read/write sets from the
    /// shared accessor ([`frodo_codegen::access::stmt_access`], mirroring
    /// the `frodo-sim` VM element accesses exactly) and checks them.
    fn step(&mut self, i: usize, stmt: &Stmt) {
        self.report.stmts_checked += 1;
        let acc = match stmt_access(self.program, stmt) {
            Ok(acc) => acc,
            Err(m) => return self.malformed(i, m.buf, m.reason),
        };
        for r in &acc.reads {
            self.check_read(i, r);
        }
        for w in &acc.writes {
            self.check_write(i, w);
        }
    }

    /// F102 + F101 for one read access.
    fn check_read(&mut self, stmt: usize, a: &Access) {
        let len = self.program.buffer(a.buf).len;
        let oob = a.set.difference(&IndexSet::full(len));
        if let Some(iv) = oob.intervals().first().copied() {
            self.diag(
                "F102",
                stmt,
                a.buf,
                format!(
                    "{} read of `{}` [{}, {}) exceeds its extent {len}",
                    a.what,
                    self.buf_name(a.buf),
                    iv.start,
                    iv.end
                ),
            );
        }
        let uninit = a
            .set
            .intersect(&IndexSet::full(len))
            .difference(&self.written[a.buf.0]);
        if let Some(iv) = uninit.intervals().first().copied() {
            self.diag(
                "F101",
                stmt,
                a.buf,
                format!(
                    "{} read of `{}` [{}, {}) before any statement writes it",
                    a.what,
                    self.buf_name(a.buf),
                    iv.start,
                    iv.end
                ),
            );
        }
    }

    /// F102 for one write access, then records the elements as written.
    fn check_write(&mut self, stmt: usize, a: &Access) {
        let len = self.program.buffer(a.buf).len;
        let oob = a.set.difference(&IndexSet::full(len));
        if let Some(iv) = oob.intervals().first().copied() {
            self.diag(
                "F102",
                stmt,
                a.buf,
                format!(
                    "{} write of `{}` [{}, {}) exceeds its extent {len}",
                    a.what,
                    self.buf_name(a.buf),
                    iv.start,
                    iv.end
                ),
            );
        }
        let w = a.set.intersect(&IndexSet::full(len));
        self.written[a.buf.0] = self.written[a.buf.0].union(&w);
        self.inv_writes[a.buf.0] = self.inv_writes[a.buf.0].union(&w);
    }

    /// F103/F104: every output's final written set must equal its demand.
    fn check_outputs(&mut self, demands: &[OutputDemand]) {
        for &(index, buf) in &self.program.outputs() {
            let Some(demand) = demands.iter().find(|d| d.index == index) else {
                continue;
            };
            self.report.outputs_checked += 1;
            let written = &self.written[buf.0];
            let missing = demand.range.difference(written);
            let extra = written.difference(&demand.range);
            let block = demand
                .block
                .clone()
                .unwrap_or_else(|| self.buf_name(buf).to_string());
            for (code, set, verb) in [
                ("F103", &missing, "demanded but never written"),
                ("F104", &extra, "written beyond the demanded range"),
            ] {
                for iv in set.intervals() {
                    let d = Diagnostic::new(
                        code,
                        format!(
                            "output {index} (`{}`, buffer `{}`): elements [{}, {}) {verb}",
                            block,
                            self.buf_name(buf),
                            iv.start,
                            iv.end
                        ),
                    )
                    .with_block(block.clone())
                    .with_location(format!("buffer {}", self.buf_name(buf)));
                    self.report.diagnostics.push(d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_codegen::lir::{Buffer, Slice, Src, Stmt, UnOp};
    use frodo_codegen::GeneratorStyle;

    fn buffer(name: &str, len: usize, role: BufferRole) -> Buffer {
        Buffer {
            name: name.into(),
            len,
            role,
        }
    }

    /// in(8) -> gain -> out(8), computed in full.
    fn straight_program() -> Program {
        Program {
            name: "t".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                buffer("in0", 8, BufferRole::Input(0)),
                buffer("g", 8, BufferRole::Temp),
                buffer("out0", 8, BufferRole::Output(0)),
            ],
            stmts: vec![
                Stmt::Unary {
                    op: UnOp::Gain(2.0),
                    dst: Slice::new(BufId(1), 0),
                    src: Src::Run(Slice::new(BufId(0), 0)),
                    len: 8,
                },
                Stmt::Copy {
                    dst: Slice::new(BufId(2), 0),
                    src: Slice::new(BufId(1), 0),
                    len: 8,
                },
            ],
        }
    }

    fn full_demand() -> Vec<OutputDemand> {
        vec![OutputDemand {
            index: 0,
            range: IndexSet::full(8),
            block: Some("out".into()),
        }]
    }

    #[test]
    fn sound_program_passes() {
        let report = check_program(&straight_program(), &full_demand());
        assert!(report.is_sound(), "{:?}", report.diagnostics);
        assert_eq!(report.stmts_checked, 2);
        assert_eq!(report.buffers_checked, 3);
        assert_eq!(report.outputs_checked, 1);
    }

    #[test]
    fn shrunk_run_is_caught_as_uninitialized_read() {
        let mut p = straight_program();
        // corrupt the gain's calculation range: [0,8) -> [0,5)
        if let Stmt::Unary { len, .. } = &mut p.stmts[0] {
            *len = 5;
        }
        let report = check_program(&p, &full_demand());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F101")
            .expect("uninitialized read");
        assert_eq!(d.block.as_deref(), Some("g"));
        assert!(d.message.contains("[5, 8)"), "{}", d.message);
    }

    #[test]
    fn shrunk_output_copy_is_under_computation() {
        let mut p = straight_program();
        if let Stmt::Copy { len, .. } = &mut p.stmts[1] {
            *len = 6;
        }
        let report = check_program(&p, &full_demand());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F103")
            .expect("under-computation");
        assert_eq!(d.block.as_deref(), Some("out"));
        assert!(d.message.contains("buffer `out0`"), "{}", d.message);
        assert!(d.message.contains("[6, 8)"), "{}", d.message);
    }

    #[test]
    fn partial_demand_flags_over_computation() {
        let demands = vec![OutputDemand {
            index: 0,
            range: IndexSet::from_range(0, 4),
            block: Some("out".into()),
        }];
        let report = check_program(&straight_program(), &demands);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F104")
            .expect("over-computation");
        assert!(d.message.contains("[4, 8)"), "{}", d.message);
    }

    /// in(8) -> state round-trip -> out(8), with the state store writing
    /// only `store_len` of the 8 state elements.
    fn stateful_program(store_len: usize) -> Program {
        Program {
            name: "st".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                buffer("in0", 8, BufferRole::Input(0)),
                buffer("st", 8, BufferRole::State(vec![0.0; 8])),
                buffer("out0", 8, BufferRole::Output(0)),
            ],
            stmts: vec![
                Stmt::Copy {
                    dst: Slice::new(BufId(2), 0),
                    src: Slice::new(BufId(1), 0),
                    len: 8,
                },
                Stmt::StateStore {
                    state: BufId(1),
                    src: BufId(0),
                    len: store_len,
                },
            ],
        }
    }

    #[test]
    fn partially_refreshed_state_is_caught_on_the_second_invocation() {
        let p = stateful_program(4);
        // one invocation: the initial state values cover the read
        assert!(check_program(&p, &full_demand()).is_sound());
        // two invocations: stale initial values are spent, so the copy
        // reads state elements [4, 8) nothing refreshed
        let report = check_program_invocations(&p, &full_demand(), 2);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F101")
            .expect("stale state read");
        assert!(d.message.contains("[4, 8)"), "{}", d.message);
    }

    #[test]
    fn fully_refreshed_state_passes_across_invocations() {
        let report = check_program_invocations(&stateful_program(8), &full_demand(), 3);
        assert!(report.is_sound(), "{:?}", report.diagnostics);
        assert_eq!(report.stmts_checked, 6);
        assert_eq!(report.outputs_checked, 1);
    }

    #[test]
    fn oob_read_is_f102() {
        let mut p = straight_program();
        if let Stmt::Unary { src, .. } = &mut p.stmts[0] {
            *src = Src::Run(Slice::new(BufId(0), 3));
        }
        let report = check_program(&p, &full_demand());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F102")
            .expect("out of bounds");
        assert_eq!(d.block.as_deref(), Some("in0"));
        assert!(d.message.contains("[8, 11)"), "{}", d.message);
    }

    #[test]
    fn degenerate_statement_is_f105() {
        let mut p = straight_program();
        if let Stmt::Unary { len, .. } = &mut p.stmts[0] {
            *len = 0;
        }
        let report = check_program(&p, &full_demand());
        assert!(report.diagnostics.iter().any(|d| d.code == "F105"));
    }

    #[test]
    fn conv_window_reads_match_the_vm() {
        // u(8) * v(3): outputs [4, 9) read u[2..8] and v[0..3]
        let p = Program {
            name: "c".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                buffer("u", 8, BufferRole::Input(0)),
                buffer("v", 3, BufferRole::Const(vec![1.0; 3])),
                buffer("out0", 10, BufferRole::Output(0)),
            ],
            stmts: vec![Stmt::Conv {
                dst: BufId(2),
                u: BufId(0),
                u_len: 8,
                v: BufId(1),
                v_len: 3,
                k0: 4,
                k1: 9,
                style: frodo_codegen::lir::ConvStyle::Tight,
            }],
        };
        let demands = vec![OutputDemand {
            index: 0,
            range: IndexSet::from_range(4, 9),
            block: None,
        }];
        let report = check_program(&p, &demands);
        assert!(report.is_sound(), "{:?}", report.diagnostics);
    }

    #[test]
    fn end_to_end_compile_is_certified() {
        use frodo_model::{Block, BlockKind, Model, SelectorMode};
        use frodo_ranges::Shape;
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
                value: frodo_model::Tensor::vector(vec![0.1; 11]),
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
        let program =
            frodo_codegen::generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let report = check_compile(&analysis, &program);
        assert!(report.is_sound(), "{:?}", report.diagnostics);
        assert!(report.outputs_checked == 1);
    }

    /// Property tests (gated: the `proptest` crate is not vendored, so the
    /// default offline build compiles these out; re-add the dev-dependency
    /// and run `cargo test --features proptest` to enable them).
    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Shrinking any statement run of the straight-line program by
            /// any non-trivial amount must be rejected (as an
            /// uninitialized read downstream or as under-computation at
            /// the output).
            #[test]
            fn prop_every_injected_under_computation_is_caught(
                which in 0usize..2,
                cut in 1usize..8,
            ) {
                let mut p = straight_program();
                match &mut p.stmts[which] {
                    Stmt::Unary { len, .. } | Stmt::Copy { len, .. } => *len -= cut,
                    _ => unreachable!(),
                }
                let report = check_program(&p, &full_demand());
                prop_assert!(!report.is_sound());
                prop_assert!(report
                    .diagnostics
                    .iter()
                    .any(|d| d.code == "F101" || d.code == "F103" || d.code == "F105"));
            }

            /// Shifting the demanded range of the output must be rejected
            /// in both directions (missing prefix = F103, surplus = F104).
            #[test]
            fn prop_shifted_demands_are_caught(shift in 1usize..8) {
                let demands = vec![OutputDemand {
                    index: 0,
                    range: IndexSet::from_range(shift, 8 + shift),
                    block: None,
                }];
                let report = check_program(&straight_program(), &demands);
                prop_assert!(report.diagnostics.iter().any(|d| d.code == "F103"));
                prop_assert!(report.diagnostics.iter().any(|d| d.code == "F104"));
            }
        }
    }
}
