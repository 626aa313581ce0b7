//! Compare all four generators over the whole Table-1 suite, on all four
//! (architecture × compiler) cost profiles — a compact run of the paper's
//! entire evaluation under the cost model. Measured native step times
//! come from `perfbench/`'s traced run.
//!
//! ```sh
//! cargo run --release --example generator_shootout
//! ```

use frodo::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let suite = frodo::benchmodels::all();
    let configs = CostModel::all();

    // Analyze every model once, on a shared trace, instead of re-running
    // the pipeline per cost profile.
    let trace = Trace::new();
    let mut analyses = Vec::new();
    for bench in &suite {
        let a = Analysis::run_traced(bench.model.clone(), RangeOptions::default(), &trace)?;
        analyses.push((bench.name, a));
    }

    for cm in &configs {
        println!("== {} ==", cm.label());
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>18}",
            "model", "Simulink", "DFSynth", "HCG", "Frodo", "Frodo speedup"
        );
        for (name, analysis) in &analyses {
            let us: Vec<f64> = GeneratorStyle::ALL
                .iter()
                .map(|&s| cm.program_ns(&generate(analysis, s, &frodo_obs::Trace::noop())) / 1e3)
                .collect();
            let best_other = us[..3].iter().cloned().fold(f64::MAX, f64::min);
            println!(
                "{:<14} {:>8.1}us {:>8.1}us {:>8.1}us {:>8.1}us {:>13.2}x",
                name,
                us[0],
                us[1],
                us[2],
                us[3],
                best_other / us[3]
            );
        }
        println!();
    }

    println!("== analysis cost across the suite (per stage) ==");
    let stages = StageTimings::from_trace(&trace);
    for (name, d) in stages.rows().iter().filter(|(_, d)| !d.is_zero()) {
        println!("{name:<10} {}", frodo::obs::fmt_duration(*d));
    }
    println!(
        "{:<10} {}\n",
        "total",
        frodo::obs::fmt_duration(stages.total())
    );
    Ok(())
}
