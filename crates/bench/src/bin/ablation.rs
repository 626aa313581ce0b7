//! Ablation study over FRODO's design choices (DESIGN.md §3):
//!
//! 1. **Truncation awareness** — FRODO with ranges vs FRODO forced to full
//!    ranges (isolates the contribution of Algorithm 1 from code style).
//! 2. **Run coalescing** — the §5 discontinuous-range remedy, swept over
//!    the gap parameter.
//! 3. **Dead-end elimination** — the optional extension beyond the paper's
//!    conservative rule for unconsumed ports.
//! 4. **Shared convolution helper** — the §5 code-size remedy (generic
//!    function interface with range parameters).
//! 5. **Expression folding** — the optional LIR fusion pass.
//! 6. **Vectorization mode** — the default (scalar FRODO) vs hinted vs
//!    explicitly batched emission, under the per-arch cost model.

use frodo_codegen::optimize::fold_expressions;
use frodo_codegen::{
    emit_c, emit_c_with, generate, generate_with, CEmitOptions, GeneratorStyle, LowerOptions,
    VectorMode,
};
use frodo_core::{Analysis, RangeOptions};
use frodo_sim::CostModel;

fn main() {
    let suite = frodo_benchmodels::all();
    let cm = CostModel::x86_gcc();

    println!("Ablation 1: contribution of calculation-range elimination alone");
    println!("(FRODO codegen at full ranges vs derived ranges, x86/gcc estimate)");
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "model", "full-range", "eliminated", "gain"
    );
    println!("{}", "-".repeat(52));
    for bench in &suite {
        let analysis = Analysis::run(bench.model.clone()).expect("analyzes");
        // DFSynth emits the same (tight, auto-vec) code at full ranges,
        // so it is exactly "FRODO minus range elimination".
        let full = cm.program_ns(&generate(
            &analysis,
            GeneratorStyle::DfSynth,
            &frodo_obs::Trace::noop(),
        ));
        let frodo = cm.program_ns(&generate(
            &analysis,
            GeneratorStyle::Frodo,
            &frodo_obs::Trace::noop(),
        ));
        println!(
            "{:<14} {:>10.1}us {:>10.1}us {:>8.2}x",
            bench.name,
            full / 1e3,
            frodo / 1e3,
            full / frodo
        );
    }

    println!();
    println!("Ablation 2: run coalescing gap (§5 discontinuous-range remedy)");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}  (x86/gcc us; stmts in parens)",
        "model", "gap=0", "gap=4", "gap=16", "gap=64"
    );
    println!("{}", "-".repeat(72));
    for bench in &suite {
        let analysis = Analysis::run(bench.model.clone()).expect("analyzes");
        let mut cells = Vec::new();
        for gap in [0usize, 4, 16, 64] {
            let p = generate_with(
                &analysis,
                GeneratorStyle::Frodo,
                LowerOptions { coalesce_gap: gap },
                &frodo_obs::Trace::noop(),
            );
            cells.push(format!("{:.1}({})", cm.program_ns(&p) / 1e3, p.stmts.len()));
        }
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10}",
            bench.name, cells[0], cells[1], cells[2], cells[3]
        );
    }

    println!();
    println!("Ablation 3: dead-end elimination (extension beyond the paper)");
    println!(
        "{:<14} {:>16} {:>16}",
        "model", "paper rule", "dead-end elim"
    );
    println!("{}", "-".repeat(48));
    for bench in &suite {
        let paper = Analysis::run(bench.model.clone()).expect("analyzes");
        let aggressive = Analysis::run_with(
            bench.model.clone(),
            RangeOptions {
                eliminate_dead_ends: true,
            },
        )
        .expect("analyzes");
        println!(
            "{:<14} {:>13.1}% {:>15.1}%",
            bench.name,
            100.0 * paper.report().elimination_ratio(),
            100.0 * aggressive.report().elimination_ratio()
        );
    }

    println!(
        "(identical columns mean the suite's dead code is terminator-fed,\n\
         which the paper's own rule already removes; the extension matters\n\
         for ports left dangling without a Terminator)"
    );

    println!();
    println!("Ablation 4: shared convolution helper (§5 code-size remedy)");
    println!(
        "{:<14} {:>14} {:>14} {:>9}",
        "model", "inline C", "shared helper", "shrink"
    );
    println!("{}", "-".repeat(55));
    for bench in &suite {
        let analysis = Analysis::run(bench.model.clone()).expect("analyzes");
        let p = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let inline = emit_c(&p).len();
        let shared = emit_c_with(
            &p,
            CEmitOptions {
                shared_conv_helper: true,
                ..Default::default()
            },
        )
        .len();
        println!(
            "{:<14} {:>12} B {:>12} B {:>8.1}%",
            bench.name,
            inline,
            shared,
            100.0 * (inline as f64 - shared as f64) / inline as f64
        );
    }

    println!();
    println!("Ablation 5: expression folding (optional LIR pass)");
    println!(
        "{:<14} {:>8} {:>8} {:>12} {:>12}",
        "model", "stmts", "folded", "est. before", "est. after"
    );
    println!("{}", "-".repeat(60));
    for bench in &suite {
        let analysis = Analysis::run(bench.model.clone()).expect("analyzes");
        let p = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let folded = fold_expressions(&p);
        println!(
            "{:<14} {:>8} {:>8} {:>10.1}us {:>10.1}us",
            bench.name,
            p.stmts.len(),
            folded.stmts.len(),
            cm.program_ns(&p) / 1e3,
            cm.program_ns(&folded) / 1e3
        );
    }

    println!();
    println!("Ablation 6: vectorization mode (FRODO emission, per-arch estimate)");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}  (us)",
        "model", "auto", "hints", "batch:8", "x86 gain", "arm batch:2"
    );
    println!("{}", "-".repeat(72));
    let arm = CostModel::arm_gcc();
    for bench in &suite {
        let analysis = Analysis::run(bench.model.clone()).expect("analyzes");
        let p = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let auto = cm.program_ns_with(&p, VectorMode::Auto);
        let hints = cm.program_ns_with(&p, VectorMode::Hints);
        let batch = cm.program_ns_with(&p, VectorMode::Batch(cm.lanes()));
        let arm_batch = arm.program_ns_with(&p, VectorMode::Batch(arm.lanes()));
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>9.2}x {:>10.1}",
            bench.name,
            auto / 1e3,
            hints / 1e3,
            batch / 1e3,
            auto / batch,
            arm_batch / 1e3
        );
    }
}
