//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - **Dead-end elimination**: the optional extension beyond the paper's
//!   conservative full-range rule for unconsumed ports.
//! - **End-to-end generation**: the cost of FRODO's own pipeline (parse-to-
//!   program), which the paper claims is practical for deployment.

use frodo_bench::harness;
use frodo_codegen::{generate, GeneratorStyle};
use frodo_core::{determine_ranges, Analysis, IoMappings, RangeOptions};
use frodo_graph::Dfg;
use std::hint::black_box;

fn main() {
    let models = frodo_benchmodels::all();

    // biggest model exercises the analysis hardest
    let maintenance = models
        .iter()
        .find(|b| b.name == "Maintenance")
        .expect("suite contains Maintenance");
    let dfg = Dfg::new(maintenance.model.clone(), &frodo_obs::Trace::noop()).expect("analyzable");
    let maps = IoMappings::derive(&dfg);

    for (label, eliminate) in [("paper_rule", false), ("dead_end_elim", true)] {
        let opts = RangeOptions {
            eliminate_dead_ends: eliminate,
        };
        harness::bench("ablation", &format!("dead_ends/{label}"), || {
            black_box(determine_ranges(black_box(&dfg), black_box(&maps), opts));
        });
    }

    for bench in &models {
        harness::bench("ablation", &format!("pipeline/{}", bench.name), || {
            let analysis = Analysis::run(black_box(bench.model.clone())).expect("analyzes");
            black_box(generate(
                &analysis,
                GeneratorStyle::Frodo,
                &frodo_obs::Trace::noop(),
            ));
        });
    }
}
