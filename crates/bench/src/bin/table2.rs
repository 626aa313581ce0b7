//! Regenerates the paper's Table 2: execution duration on x86 with GCC and
//! Clang profiles, for all four generators.
//!
//! The durations come from the deterministic cost model (see
//! `frodo_sim::CostModel` for the substitution rationale). Measured native
//! step times come from `perfbench/`'s traced run, which times all four
//! styles in interleaved rounds in thread CPU time.

use frodo_bench::{duration_seconds, fmt_seconds, programs_via_service_traced, PAPER_ITERS};
use frodo_codegen::GeneratorStyle;
use frodo_driver::CompileService;
use frodo_obs::{fmt_duration, StageTimings, Trace};
use frodo_sim::CostModel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ledger_path = args
        .windows(2)
        .find(|w| w[0] == "--ledger")
        .map(|w| w[1].clone());
    let trace = Trace::new();
    let service = CompileService::with_defaults();
    let (suite, batch) = programs_via_service_traced(&service, &trace);
    let gcc = CostModel::x86_gcc();
    let clang = CostModel::x86_clang();

    println!("Table 2: Code execution duration on x86 (GCC and Clang profiles),");
    println!("{PAPER_ITERS} iterations, cost-model estimate.");
    println!();
    let header = "Simulink   DFSynth    HCG        Frodo";
    println!("{:<14} | {header} | {header}", "Model");
    println!("{:<14} | {:^42} | {:^42}", "", "GCC", "Clang");
    println!("{}", "-".repeat(105));
    for entry in &suite {
        let cell = |cm: &CostModel, style: GeneratorStyle| {
            let p = &entry
                .programs
                .iter()
                .find(|(s, _)| *s == style)
                .expect("style present")
                .1;
            fmt_seconds(duration_seconds(cm, p))
        };
        let row = |cm: &CostModel| {
            GeneratorStyle::ALL
                .iter()
                .map(|&s| format!("{:<10}", cell(cm, s)))
                .collect::<String>()
        };
        println!("{:<14} | {} | {}", entry.name, row(&gcc), row(&clang));
    }

    println!();
    println!("FRODO speedup ranges (paper: GCC 1.26–5.64× / 1.32–5.75× / 1.22–2.89×):");
    for cm in [&gcc, &clang] {
        let mut sim = (f64::MAX, f64::MIN);
        let mut df = (f64::MAX, f64::MIN);
        let mut hcg = (f64::MAX, f64::MIN);
        for entry in &suite {
            let (s, d, h) = frodo_bench::improvement(cm, &entry.programs);
            sim = (sim.0.min(s), sim.1.max(s));
            df = (df.0.min(d), df.1.max(d));
            hcg = (hcg.0.min(h), hcg.1.max(h));
        }
        println!(
            "  {:<10} vs Simulink {:.2}x-{:.2}x, vs DFSynth {:.2}x-{:.2}x, vs HCG {:.2}x-{:.2}x",
            cm.label(),
            sim.0,
            sim.1,
            df.0,
            df.1,
            hcg.0,
            hcg.1
        );
    }

    println!();
    println!(
        "Suite compile cost per stage ({} jobs through the batch service):",
        batch.jobs.len()
    );
    let stages = StageTimings::from_trace(&trace);
    for (name, d) in stages.rows() {
        println!("  {name:<10} {}", fmt_duration(d));
    }
    println!("  {:<10} {}", "total", fmt_duration(stages.total()));

    if let Some(path) = ledger_path {
        let entry = batch
            .ledger_entry("bench:table2", "auto", 0)
            .expect("table2 batch always runs traced");
        frodo_obs::append_entry(std::path::Path::new(&path), &entry)
            .expect("append --ledger entry");
        println!("appended ledger entry to {path}");
    }
}
