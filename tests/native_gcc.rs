//! End-to-end native validation: the emitted C, compiled with the real
//! `gcc -O3` and executed, must agree with the VM running the same program
//! on the same deterministic workload (the LCG built into the harness).
//!
//! Skipped silently when no C compiler is on the host.

use frodo::prelude::*;
use frodo_sim::native;

/// Reproduces the C harness's LCG input fill in Rust.
fn lcg_inputs(program: &frodo::codegen::lir::Program) -> Vec<Vec<f64>> {
    let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
    program
        .inputs()
        .iter()
        .map(|&(_, id)| {
            let len = program.buffer(id).len;
            (0..len)
                .map(|_| {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (lcg >> 40) as f64 / 16777216.0 - 0.5
                })
                .collect()
        })
        .collect()
}

#[test]
fn native_gcc_matches_vm_on_manufacture() {
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    let analysis = Analysis::run(frodo::benchmodels::manufacture()).expect("analyze");
    for style in GeneratorStyle::ALL {
        let program = generate(&analysis, style, &frodo_obs::Trace::noop());
        // VM checksum after 3 iterations of the same workload
        let inputs = lcg_inputs(&program);
        let mut vm = Vm::new(&program);
        let mut outs = Vec::new();
        for _ in 0..3 {
            outs = vm.step(&program, &inputs);
        }
        let vm_checksum: f64 = outs.iter().flatten().sum();
        // native checksum with the identical harness protocol
        let native =
            native::compile_and_run(&program, style, 3).unwrap_or_else(|e| panic!("{style}: {e}"));
        let diff = (native.checksum - vm_checksum).abs();
        let scale = vm_checksum.abs().max(1.0);
        assert!(
            diff / scale < 1e-9,
            "{style}: native checksum {} vs VM {}",
            native.checksum,
            vm_checksum
        );
    }
}

/// The vectorization modes reshape loops but may not change what the
/// program computes: every mode's native checksum must agree with the
/// default (scalar) FRODO emission on the same workload.
#[test]
fn native_gcc_vector_modes_and_window_reuse_match_scalar() {
    use frodo::codegen::{CEmitOptions, VectorMode};
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    let analysis = Analysis::run(frodo::benchmodels::manufacture()).expect("analyze");
    let program = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
    let scalar =
        native::compile_and_run(&program, GeneratorStyle::Frodo, 3).expect("scalar emission runs");
    let close = |checksum: f64, what: &str| {
        let scale = scalar.checksum.abs().max(1.0);
        assert!(
            (checksum - scalar.checksum).abs() / scale < 1e-9,
            "{what}: native checksum {checksum} vs scalar {}",
            scalar.checksum
        );
    };
    for mode in [
        VectorMode::Hints,
        VectorMode::Batch(8),
        VectorMode::Batch(2),
    ] {
        let r = native::compile_and_run_with(
            &program,
            GeneratorStyle::Frodo,
            3,
            CEmitOptions {
                vectorize: mode,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        close(r.checksum, &format!("{mode:?}"));
    }
}

#[test]
fn native_gcc_all_styles_agree_on_every_small_model() {
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    // the three fastest-to-compile models keep this test snappy
    for model in [
        frodo::benchmodels::back(),
        frodo::benchmodels::hermitian_transpose(),
        frodo::benchmodels::simpson(),
    ] {
        let name = model.name().to_string();
        let analysis = Analysis::run(model).expect("analyze");
        let mut checksums = Vec::new();
        for style in GeneratorStyle::ALL {
            let program = generate(&analysis, style, &frodo_obs::Trace::noop());
            let r = native::compile_and_run(&program, style, 2)
                .unwrap_or_else(|e| panic!("{name}/{style}: {e}"));
            checksums.push(r.checksum);
        }
        for w in checksums.windows(2) {
            let scale = w[0].abs().max(1.0);
            assert!(
                (w[0] - w[1]).abs() / scale < 1e-9,
                "{name}: checksum divergence across styles: {checksums:?}"
            );
        }
    }
}

/// Every output element of one native step: the program's C, plus a
/// `main` that calls the step function once on `inputs` and prints each
/// output element, built with `gcc -O3 -march=native` and run.
fn native_outputs(program: &frodo::codegen::lir::Program, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    use std::fmt::Write as _;
    let mut c = frodo::codegen::emit_c(program);
    c.push_str("\n#include <stdio.h>\n\n");
    let mut args = Vec::new();
    for ((idx, _), data) in program.inputs().iter().zip(inputs) {
        let values: Vec<String> = data.iter().map(|v| format!("{v:?}")).collect();
        let _ = writeln!(
            c,
            "static const double frodo_in{idx}[{}] = {{{}}};",
            data.len(),
            values.join(", ")
        );
        args.push(format!("frodo_in{idx}"));
    }
    let outputs = program.outputs();
    for &(idx, id) in &outputs {
        let _ = writeln!(
            c,
            "static double frodo_out{idx}[{}];",
            program.buffer(id).len
        );
        args.push(format!("frodo_out{idx}"));
    }
    let _ = writeln!(
        c,
        "int main(void) {{\n    {}_step({});",
        program.name,
        args.join(", ")
    );
    for &(idx, id) in &outputs {
        let _ = writeln!(
            c,
            "    for (int i = 0; i < {}; ++i) printf(\"%.17g\\n\", frodo_out{idx}[i]);",
            program.buffer(id).len
        );
    }
    c.push_str("    return 0;\n}\n");

    let dir = std::env::temp_dir().join(format!(
        "frodo-native-elements-{}-{}-{}",
        std::process::id(),
        program.name,
        program.style.label()
    ));
    std::fs::create_dir_all(&dir).expect("stage dir");
    let (src, exe) = (dir.join("step.c"), dir.join("step"));
    std::fs::write(&src, &c).expect("write C");
    let gcc = std::process::Command::new("gcc")
        .args(["-O3", "-march=native", "-o"])
        .arg(&exe)
        .arg(&src)
        .arg("-lm")
        .output()
        .expect("gcc runs");
    assert!(
        gcc.status.success(),
        "{} ({}): {}",
        program.name,
        program.style,
        String::from_utf8_lossy(&gcc.stderr)
    );
    let run = std::process::Command::new(&exe)
        .output()
        .expect("step runs");
    assert!(run.status.success(), "{} ({})", program.name, program.style);
    let _ = std::fs::remove_dir_all(&dir);
    let mut values = String::from_utf8(run.stdout)
        .expect("utf-8 output")
        .lines()
        .map(|l| l.parse::<f64>().expect("one number a line"))
        .collect::<Vec<_>>()
        .into_iter();
    outputs
        .iter()
        .map(|&(_, id)| values.by_ref().take(program.buffer(id).len).collect())
        .collect()
}

/// One chain per case: an inport of `n` elements feeds `kind` (a
/// convolution takes a constant second operand of `v_len` elements), and
/// a selector keeps its outputs `[start, end)`, which is the range FRODO
/// computes; the baselines compute every output.
fn window_model(name: &str, cases: &[(BlockKind, usize, usize, usize, usize)]) -> Model {
    let mut m = Model::new(name);
    for (i, (kind, n, v_len, start, end)) in cases.iter().cloned().enumerate() {
        let input = m.add(Block::new(
            format!("in{i}"),
            BlockKind::Inport {
                index: i,
                shape: Shape::Vector(n),
            },
        ));
        let conv = kind == BlockKind::Convolution;
        let block = m.add(Block::new(format!("w{i}"), kind));
        m.connect(input, 0, block, 0).unwrap();
        if conv {
            let kernel: Vec<f64> = (0..v_len).map(|j| 0.25 + 0.03 * j as f64).collect();
            let v = m.add(Block::new(
                format!("v{i}"),
                BlockKind::Constant {
                    value: Tensor::vector(kernel),
                },
            ));
            m.connect(v, 0, block, 1).unwrap();
        }
        let sel = m.add(Block::new(
            format!("sel{i}"),
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start, end },
            },
        ));
        let out = m.add(Block::new(
            format!("out{i}"),
            BlockKind::Outport { index: i },
        ));
        m.connect(block, 0, sel, 0).unwrap();
        m.connect(sel, 0, out, 0).unwrap();
    }
    m
}

/// The boundary-peeled window loops (clamped head and tail, a constant
/// steady window, blocks of 32 outputs past the unroll threshold) must
/// compute every output element the VM does, in every style: an output
/// sum alone would not see a window shifted by one.
#[test]
fn native_gcc_window_loops_match_the_vm_element_by_element() {
    use frodo::codegen::library::{UNROLLED_WINDOW_MAX, WINDOW_BLOCK};
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    let (at, above) = (UNROLLED_WINDOW_MAX, UNROLLED_WINDOW_MAX + 1);
    let taps = |n: usize| BlockKind::FirFilter {
        coeffs: (0..n).map(|t| 0.5 - 0.02 * t as f64).collect(),
    };
    let avg = |window| BlockKind::MovingAverage { window };
    // (kind, input length, kernel length, start, end); a blocked steady
    // range starts at `above - 1`, so its length is `end - above + 1`
    let blocked = |rem: usize| above - 1 + 2 * WINDOW_BLOCK + rem;
    let models = [
        window_model(
            "movavg",
            &[
                (avg(8), 40, 0, 0, 5),
                (avg(8), 40, 0, 2, 30),
                (avg(8), 40, 0, 10, 30),
                (avg(above), blocked(0), 0, above - 1, blocked(0)),
                (avg(above), blocked(1), 0, above - 1, blocked(1)),
                (avg(above), blocked(31), 0, above - 1, blocked(31)),
                (avg(at), 60, 0, 0, 60),
                (avg(above), 60, 0, 5, 60),
            ],
        ),
        window_model(
            "fir",
            &[
                (taps(9), 40, 0, 0, 6),
                (taps(9), 40, 0, 3, 30),
                (taps(9), 40, 0, 12, 30),
                (taps(at), 50, 0, 0, 50),
                (taps(above), 50, 0, 0, 50),
                (taps(25), 57, 0, 24, 57),
            ],
        ),
        window_model(
            "conv",
            &[
                (BlockKind::Convolution, 40, 11, 0, 50),
                (BlockKind::Convolution, 40, 11, 20, 48),
                (BlockKind::Convolution, 6, 15, 2, 18),
                (BlockKind::Convolution, 80, 25, 0, 104),
                (BlockKind::Convolution, 22, 40, 0, 61),
                (BlockKind::Convolution, 16, 16, 0, 31),
            ],
        ),
    ];
    for model in models {
        let name = model.name().to_string();
        let analysis = Analysis::run(model).expect("analyze");
        for style in GeneratorStyle::ALL {
            let program = generate(&analysis, style, &frodo_obs::Trace::noop());
            if style == GeneratorStyle::Frodo && name == "movavg" {
                // the model exercises what it claims to
                let c = frodo::codegen::emit_c(&program);
                for rem in [1, 31] {
                    assert!(c.contains(&format!("kb += {rem})")), "remainder {rem}");
                }
                assert!(c.contains(&format!("kb += {WINDOW_BLOCK})")));
            }
            let inputs = lcg_inputs(&program);
            let expected = Vm::new(&program).step(&program, &inputs);
            let actual = native_outputs(&program, &inputs);
            assert_eq!(actual.len(), expected.len());
            for (o, (got, want)) in actual.iter().zip(&expected).enumerate() {
                assert_eq!(got.len(), want.len(), "{name}/{style} output {o}");
                for (k, (g, w)) in got.iter().zip(want).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                        "{name}/{style} output {o} element {k}: native {g} vs VM {w}"
                    );
                }
            }
        }
    }
}
