//! Golden-diagnostics suite for `frodo-verify`: the lint codes and the
//! range-soundness checker's verdicts are a stable interface, so the
//! exact code / block / buffer / interval named by each diagnostic is
//! pinned here. Also proves the headline acceptance criterion: every
//! bundled benchmark model compiles to a program the checker proves
//! sound.

use frodo::codegen::lir::{BufId, Buffer, BufferRole, Program, Slice, Src, Stmt, UnOp};
use frodo::prelude::*;
use frodo::verify::{check_compile, check_program, lint, OutputDemand};

fn buffer(name: &str, len: usize, role: BufferRole) -> Buffer {
    Buffer {
        name: name.into(),
        len,
        role,
    }
}

/// in(8) -> gain -> out(8), computed in full: the smallest sound program.
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
fn dangling_input_port_is_f001() {
    let mut m = Model::new("dangling");
    let g = m.add(Block::new("gain", BlockKind::Gain { gain: 2.0 }));
    let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
    m.connect(g, 0, o, 0).unwrap();
    let diags = lint(&m);
    let d = diags
        .iter()
        .find(|d| d.code == "F001")
        .expect("dangling input diagnosed");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.block.as_deref(), Some("gain"));
}

#[test]
fn selector_past_the_input_extent_is_f004() {
    let mut m = Model::new("oob-selector");
    let i = m.add(Block::new(
        "in",
        BlockKind::Inport {
            index: 0,
            shape: Shape::Vector(8),
        },
    ));
    let s = m.add(Block::new(
        "sel",
        BlockKind::Selector {
            mode: SelectorMode::StartEnd { start: 4, end: 20 },
        },
    ));
    let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
    m.connect(i, 0, s, 0).unwrap();
    m.connect(s, 0, o, 0).unwrap();
    let diags = lint(&m);
    let d = diags
        .iter()
        .find(|d| d.code == "F004")
        .expect("out-of-range selector diagnosed");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.block.as_deref(), Some("sel"));
}

/// A deliberately corrupted calculation range — the gain's run shrunk from
/// [0, 8) to [0, 5) — must be rejected, and the diagnostic must name the
/// buffer and the exact offending interval.
#[test]
fn corrupted_range_is_rejected_as_uninitialized_read() {
    let mut p = straight_program();
    if let Stmt::Unary { len, .. } = &mut p.stmts[0] {
        *len = 5;
    }
    let report = check_program(&p, &full_demand());
    assert!(!report.is_sound());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "F101")
        .expect("uninitialized read diagnosed");
    assert_eq!(d.block.as_deref(), Some("g"), "names the buffer read early");
    assert!(
        d.message.contains("[5, 8)"),
        "names the interval: {}",
        d.message
    );
}

#[test]
fn under_covered_output_is_f103_naming_block_buffer_interval() {
    let mut p = straight_program();
    if let Stmt::Copy { len, .. } = &mut p.stmts[1] {
        *len = 6;
    }
    let report = check_program(&p, &full_demand());
    assert!(!report.is_sound());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "F103")
        .expect("under-computation diagnosed");
    assert_eq!(d.block.as_deref(), Some("out"));
    assert!(d.message.contains("buffer `out0`"), "{}", d.message);
    assert!(d.message.contains("[6, 8)"), "{}", d.message);
}

/// The headline guarantee: for every committed benchmark model, the
/// lowered program has no uninitialized reads, no out-of-bounds accesses,
/// and writes exactly Algorithm 1's demanded output ranges.
#[test]
fn every_benchmark_is_sound_under_every_engine() {
    for bench in frodo::benchmodels::all() {
        let analysis =
            Analysis::run(bench.model).unwrap_or_else(|e| panic!("{} analyzes: {e}", bench.name));
        let program = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let report = check_compile(&analysis, &program);
        assert!(
            report.is_sound(),
            "{} is unsound:\n{}",
            bench.name,
            frodo::verify::render_human(&report.diagnostics)
        );
        assert!(report.stmts_checked > 0);
        assert!(report.outputs_checked > 0);
    }
}

/// Lint never reports an error on a shipped benchmark model (warnings —
/// e.g. dead data-logger taps — are allowed and expected).
#[test]
fn benchmark_models_lint_clean_of_errors() {
    for bench in frodo::benchmodels::all() {
        let diags = lint(&bench.model);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "{} has lint errors: {errors:?}",
            bench.name
        );
    }
}

/// The SARIF rendering of real diagnostics carries the minimal schema
/// external viewers require.
#[test]
fn sarif_export_of_real_findings_keeps_the_minimal_schema() {
    let mut m = Model::new("dangling");
    let g = m.add(Block::new("gain", BlockKind::Gain { gain: 2.0 }));
    let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
    m.connect(g, 0, o, 0).unwrap();
    let sarif = frodo::verify::render_sarif(&lint(&m));
    let doc = frodo::obs::ndjson::parse_line(&sarif).expect("SARIF parses as JSON");
    assert!(doc.iter().any(|(k, _)| k == "version"));
    assert!(doc.iter().any(|(k, _)| k == "$schema"));
    assert!(sarif.contains("\"ruleId\":\"F001\""));
    assert!(sarif.contains("\"level\":\"error\""));
    assert!(sarif.contains("\"fullyQualifiedName\""));
}
