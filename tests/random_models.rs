//! Structure-level random testing: arbitrary valid models from the fuzzer
//! in `frodo_benchmodels::random`, checked for cross-generator agreement,
//! agreement of Algorithm 1 with its reference engine, and
//! format-roundtrip stability.

use frodo::benchmodels::random::random_model;
use frodo::prelude::*;
use frodo::sim::workload;

const MODEL_SEEDS: std::ops::Range<u64> = 0..40;

#[test]
fn all_styles_match_simulation_on_random_models() {
    for seed in MODEL_SEEDS {
        let model = random_model(seed, 30);
        let analysis = Analysis::run(model).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let dfg = analysis.dfg().clone();
        let mut oracle = ReferenceSimulator::new(dfg.clone());
        let mut vms: Vec<_> = GeneratorStyle::ALL
            .iter()
            .map(|&s| {
                let p = generate(&analysis, s, &frodo_obs::Trace::noop());
                let vm = Vm::new(&p);
                (s, p, vm)
            })
            .collect();
        for step in 0..2 {
            let inputs = workload::random_inputs(&dfg, seed * 1000 + step);
            let expected = oracle.step(&inputs).expect("oracle accepts");
            let raw: Vec<Vec<f64>> = inputs.iter().map(|t| t.data().to_vec()).collect();
            for (style, p, vm) in vms.iter_mut() {
                let got = vm.step(p, &raw);
                for (o, (g, e)) in got.iter().zip(&expected).enumerate() {
                    let worst = g
                        .iter()
                        .zip(e.data())
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(
                        worst < 1e-9,
                        "seed {seed} {style} step {step} out {o}: off by {worst}"
                    );
                }
            }
        }
    }
}

/// The production engine (the paper's recursion) against the reference
/// reverse-topological sweep, with dead-end elimination off and on, on the
/// random structures (the benchmark models are covered in `tests/parallel.rs`).
#[test]
fn engines_agree_on_random_models() {
    for seed in MODEL_SEEDS {
        let model = random_model(seed, 30);
        for eliminate_dead_ends in [false, true] {
            let options = RangeOptions {
                eliminate_dead_ends,
            };
            let analysis = Analysis::run_with(model.clone(), options)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let reference =
                frodo::core::reference_ranges(analysis.dfg(), analysis.mappings(), options);
            assert_eq!(
                analysis.ranges(),
                &reference,
                "seed {seed}: engines disagree (dead_ends = {eliminate_dead_ends})"
            );
        }
    }
}

#[test]
fn random_models_roundtrip_both_formats() {
    for seed in MODEL_SEEDS {
        let model = random_model(seed, 30);
        let via_slx = frodo::slx::read_slx(
            &frodo::slx::write_slx(&model).unwrap(),
            &frodo_obs::Trace::noop(),
        )
        .unwrap_or_else(|e| panic!("seed {seed} slx: {e}"));
        assert_eq!(via_slx, model, "seed {seed}: slx roundtrip");
        let via_mdl =
            frodo::slx::read_mdl(&frodo::slx::write_mdl(&model), &frodo_obs::Trace::noop())
                .unwrap_or_else(|e| panic!("seed {seed} mdl: {e}"));
        assert_eq!(via_mdl, model, "seed {seed}: mdl roundtrip");
    }
}

#[test]
fn frodo_never_computes_more_than_baselines() {
    // redundancy elimination may only remove element computations
    for seed in MODEL_SEEDS {
        let model = random_model(seed, 30);
        let analysis = Analysis::run(model).unwrap();
        let frodo = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop())
            .computed_elements();
        let base = generate(
            &analysis,
            GeneratorStyle::DfSynth,
            &frodo_obs::Trace::noop(),
        )
        .computed_elements();
        assert!(
            frodo <= base,
            "seed {seed}: FRODO computes {frodo} > baseline {base}"
        );
    }
}

#[test]
fn memory_parity_holds_on_random_models() {
    for seed in MODEL_SEEDS {
        let model = random_model(seed, 30);
        let analysis = Analysis::run(model).unwrap();
        let reports: Vec<MemoryReport> = GeneratorStyle::ALL
            .iter()
            .map(|&s| MemoryReport::of(&generate(&analysis, s, &frodo_obs::Trace::noop())))
            .collect();
        assert!(
            reports.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: {reports:?}"
        );
    }
}
