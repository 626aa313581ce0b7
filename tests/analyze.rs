//! Acceptance suite for the `analyze` dataflow stage: every bundled
//! benchmark comes out clean, the residual-redundancy detector is zero on
//! FRODO output and nonzero on the Simulink-style baseline, injected
//! defects are caught, and the combined diagnostic stream is
//! byte-identical from run to run.

use frodo::codegen::lir::{BufId, Buffer, BufferRole, ConvStyle, Program, Slice, Stmt};
use frodo::codegen::{generate_with, LowerOptions};
use frodo::prelude::*;
use frodo::verify::{analyze_compile, analyze_program};

/// The headline gate: every bundled benchmark produces a FRODO program
/// with zero residual redundancy and zero numeric findings. The SIMD
/// vector modes shape emission, not the statement IR the analyses run
/// over, so one program per benchmark covers them all.
#[test]
fn all_benchmarks_are_clean_under_every_engine_and_lowering_mode() {
    for bench in frodo::benchmodels::all() {
        let analysis = Analysis::run(bench.model).unwrap();
        let program = generate_with(
            &analysis,
            GeneratorStyle::Frodo,
            LowerOptions::default(),
            &frodo::obs::Trace::noop(),
        );
        let report = analyze_compile(&analysis, &program);
        assert!(
            report.is_clean(),
            "{}: {:?}",
            bench.name,
            report.diagnostics
        );
        assert_eq!(
            report.residual_elements, 0,
            "{}: residual redundancy in FRODO output",
            bench.name
        );
    }
}

/// The Simulink-style baseline over-computes by design (full-range
/// statements regardless of demand), and the residual detector sees it:
/// every bundled benchmark shows nonzero residual elements.
#[test]
fn simulink_style_baseline_shows_residual_redundancy_on_every_benchmark() {
    for bench in frodo::benchmodels::all() {
        let analysis = Analysis::run(bench.model).unwrap();
        let program = generate_with(
            &analysis,
            GeneratorStyle::SimulinkCoder,
            LowerOptions::default(),
            &frodo::obs::Trace::noop(),
        );
        let report = analyze_compile(&analysis, &program);
        assert!(
            report.residual_elements > 0,
            "{}: baseline should over-compute",
            bench.name
        );
        assert!(
            report.diagnostics.iter().any(|d| d.code == "F204"),
            "{}: residual must surface as F204",
            bench.name
        );
    }
}

/// Injected defect: a Figure-1-style full-range Conv feeding a Selector
/// window leaves exactly the trimmed elements residual.
#[test]
fn injected_overcomputing_conv_is_residual_f204() {
    let p = Program {
        name: "fig1".into(),
        style: GeneratorStyle::SimulinkCoder,
        buffers: vec![
            Buffer {
                name: "u".into(),
                len: 50,
                role: BufferRole::Input(0),
            },
            Buffer {
                name: "v".into(),
                len: 11,
                role: BufferRole::Const(vec![0.1; 11]),
            },
            Buffer {
                name: "conv".into(),
                len: 60,
                role: BufferRole::Temp,
            },
            Buffer {
                name: "out0".into(),
                len: 50,
                role: BufferRole::Output(0),
            },
        ],
        stmts: vec![
            Stmt::Conv {
                dst: BufId(2),
                u: BufId(0),
                u_len: 50,
                v: BufId(1),
                v_len: 11,
                k0: 0,
                k1: 60,
                style: ConvStyle::Branchy,
            },
            Stmt::Copy {
                dst: Slice::new(BufId(3), 0),
                src: Slice::new(BufId(2), 5),
                len: 50,
            },
        ],
    };
    let report = analyze_program(&p, &[]);
    assert_eq!(report.residual_elements, 10);
    assert!(report.diagnostics.iter().any(|d| d.code == "F204"));
}

/// Determinism satellite: the complete diagnostic stream — model lint,
/// range soundness, and the analyze stage — rendered as JSON must be
/// byte-identical from one run to the next (no hash-order leaks).
#[test]
fn diagnostic_streams_are_byte_identical_across_runs() {
    for bench in frodo::benchmodels::all() {
        let stream = || {
            let lint = frodo::verify::render_json(&frodo::verify::lint(&bench.model));
            let analysis = Analysis::run(bench.model.clone()).unwrap();
            let program = generate_with(
                &analysis,
                GeneratorStyle::Frodo,
                LowerOptions::default(),
                &frodo::obs::Trace::noop(),
            );
            let sound = frodo::verify::check_compile(&analysis, &program);
            let report = analyze_compile(&analysis, &program);
            format!(
                "{lint}{}{}",
                frodo::verify::render_json(&sound.diagnostics),
                frodo::verify::render_json(&report.diagnostics)
            )
        };
        assert_eq!(stream(), stream(), "{}: diagnostics diverge", bench.name);
    }
}

/// SARIF golden extended to the analyze rule family: an F2xx numeric
/// finding renders with the minimal schema every SARIF consumer greps for.
#[test]
fn sarif_golden_covers_f2xx() {
    // F201: divisor straddles zero
    let div = Program {
        name: "divz".into(),
        style: GeneratorStyle::Frodo,
        buffers: vec![
            Buffer {
                name: "a".into(),
                len: 4,
                role: BufferRole::Input(0),
            },
            Buffer {
                name: "b".into(),
                len: 4,
                role: BufferRole::Input(1),
            },
            Buffer {
                name: "out0".into(),
                len: 4,
                role: BufferRole::Output(0),
            },
        ],
        stmts: vec![Stmt::Binary {
            op: frodo::codegen::lir::BinOp::Div,
            dst: Slice::new(BufId(2), 0),
            a: frodo::codegen::lir::Src::Run(Slice::new(BufId(0), 0)),
            b: frodo::codegen::lir::Src::Run(Slice::new(BufId(1), 0)),
            len: 4,
        }],
    };
    let numeric = analyze_program(&div, &[]);
    let sarif = frodo::verify::render_sarif(&numeric.diagnostics);
    assert!(sarif.contains("\"ruleId\":\"F201\""), "{sarif}");
    assert!(sarif.contains("\"fullyQualifiedName\""));
    assert!(sarif.contains("\"version\":\"2.1.0\""));
}

/// Cross-check against the analysis-level redundancy counters: the
/// residual elements the detector finds in the lowered baseline can never
/// exceed what Algorithm 1 says was eliminable (`OptimizationReport::
/// total_eliminated`) — lowering materializes at most the waste the range
/// analysis identified, and coalescing/fusion may shrink it further. On
/// FRODO output the residual is zero while the counters still report
/// nonzero elimination: the waste was removed, not merely unobserved.
#[test]
fn residual_detector_is_bounded_by_the_elimination_counters() {
    for bench in frodo::benchmodels::all() {
        let analysis = Analysis::run(bench.model).unwrap();
        let eliminated = analysis.report().total_eliminated();
        assert!(eliminated > 0, "{}: suite models all shrink", bench.name);
        for (style, expect_residual) in [
            (GeneratorStyle::SimulinkCoder, true),
            (GeneratorStyle::Frodo, false),
        ] {
            let program = generate_with(
                &analysis,
                style,
                LowerOptions::default(),
                &frodo::obs::Trace::noop(),
            );
            let report = analyze_compile(&analysis, &program);
            assert!(
                report.residual_elements <= eliminated,
                "{}/{style:?}: residual {} exceeds eliminable {eliminated}",
                bench.name,
                report.residual_elements
            );
            assert_eq!(
                report.residual_elements > 0,
                expect_residual,
                "{}/{style:?}: residual {}",
                bench.name,
                report.residual_elements
            );
        }
    }
}

/// Every `F2xx` rule is registered with a severity, summary, and a
/// minimal triggering example (the `lint --explain` surface).
#[test]
fn analyze_rules_are_registered_with_examples() {
    for code in ["F201", "F202", "F203", "F204"] {
        let r = frodo::verify::rule(code).unwrap_or_else(|| panic!("{code} registered"));
        assert!(!r.summary.is_empty());
        assert!(!r.example.is_empty(), "{code} needs a minimal trigger");
    }
}
