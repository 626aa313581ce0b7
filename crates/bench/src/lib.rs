//! Benchmark harness regenerating the paper's tables and figures.
//!
//! Binaries (run with `cargo run -p frodo-bench --bin <name>`):
//!
//! - `table1` — the benchmark inventory (paper Table 1);
//! - `table2` — x86 execution durations for Simulink/DFSynth/HCG/FRODO under
//!   GCC-like and Clang-like profiles (paper Table 2), from the cost model;
//! - `figure6` — ARM improvement ratios (paper Figure 6);
//! - `memory` — static memory parity across generators (paper §5);
//! - `ablation` — the ablation studies of EXPERIMENTS.md.
//!
//! Measured native step times come from `perfbench/` (interleaved rounds in
//! thread CPU time), not from here. The cost-model calibration behind
//! `frodo calibrate` lives in [`calibrate`].
//!
//! The library surface exposes the measurement primitives the binaries
//! share, plus [`programs_via_service`] which routes suite compilation
//! through the batch [`CompileService`] so the artifact cache is exercised.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;

use frodo_codegen::lir::Program;
use frodo_codegen::{generate, GeneratorStyle};
use frodo_core::Analysis;
use frodo_driver::{BatchReport, CompileService, JobSpec};
use frodo_obs::Trace;
use frodo_sim::{CostModel, MemoryReport};

/// The paper's measurement protocol: 10 000 repetitions, averaged.
pub const PAPER_ITERS: usize = 10_000;

/// Generated programs for one benchmark model, one per generator style.
#[derive(Debug, Clone)]
pub struct ModelPrograms {
    /// Model name (Table 1).
    pub name: &'static str,
    /// The analysis the programs were generated from.
    pub analysis: Analysis,
    /// Programs in [`GeneratorStyle::ALL`] order.
    pub programs: Vec<(GeneratorStyle, Program)>,
}

/// Analyzes every Table-1 model and generates all four programs for each.
pub fn build_suite() -> Vec<ModelPrograms> {
    frodo_benchmodels::all()
        .into_iter()
        .map(|bench| {
            let analysis = Analysis::run(bench.model).expect("benchmark models analyze");
            let programs = GeneratorStyle::ALL
                .iter()
                .map(|&style| (style, generate(&analysis, style, &frodo_obs::Trace::noop())))
                .collect();
            ModelPrograms {
                name: bench.name,
                analysis,
                programs,
            }
        })
        .collect()
}

/// The Table-1 suite as a batch of driver jobs: every benchmark model
/// crossed with every generator style, in suite-then-style order.
pub fn suite_specs() -> Vec<JobSpec> {
    frodo_benchmodels::all()
        .into_iter()
        .flat_map(|bench| {
            GeneratorStyle::ALL
                .into_iter()
                .map(move |style| JobSpec::from_model(bench.name, bench.model.clone(), style))
        })
        .collect()
}

/// Compiles the whole Table-1 suite through the batch service and returns
/// the per-(model, style) programs for execution-based benches.
///
/// # Panics
///
/// Panics if any suite job fails or comes back without a lowered program
/// (benchmark models always compile, and in-process cache hits retain
/// their programs).
pub fn programs_via_service(service: &CompileService) -> (Vec<ModelPrograms>, BatchReport) {
    programs_via_service_traced(service, &Trace::noop())
}

/// Same as [`programs_via_service`], but every suite job records into
/// `trace`, so callers can derive per-stage compile costs for the whole
/// suite ([`frodo_obs::StageTimings::from_trace`]) next to the programs.
///
/// # Panics
///
/// Panics under the same conditions as [`programs_via_service`].
pub fn programs_via_service_traced(
    service: &CompileService,
    trace: &Trace,
) -> (Vec<ModelPrograms>, BatchReport) {
    let report = service.compile_batch_traced(suite_specs(), trace);
    let mut outputs = report.jobs.iter();
    let suite = frodo_benchmodels::all()
        .into_iter()
        .map(|bench| {
            let analysis = Analysis::run(bench.model).expect("benchmark models analyze");
            let programs = GeneratorStyle::ALL
                .iter()
                .map(|&style| {
                    let out = outputs
                        .next()
                        .expect("one job per (model, style)")
                        .as_ref()
                        .unwrap_or_else(|e| panic!("suite job failed: {e}"));
                    assert_eq!(out.report.style, style, "job order matches suite order");
                    let program = out
                        .program
                        .clone()
                        .expect("in-process jobs retain their programs");
                    (style, program)
                })
                .collect();
            ModelPrograms {
                name: bench.name,
                analysis,
                programs,
            }
        })
        .collect();
    (suite, report)
}

/// One Table-2-style cell: estimated execution duration in seconds for
/// `PAPER_ITERS` repetitions.
pub fn duration_seconds(cm: &CostModel, program: &Program) -> f64 {
    cm.execution_seconds(program, PAPER_ITERS)
}

/// Per-model speedup of FRODO over each baseline under one cost model:
/// `(Simulink, DFSynth, HCG)` ratios, each `> 1` when FRODO is faster.
pub fn improvement(cm: &CostModel, programs: &[(GeneratorStyle, Program)]) -> (f64, f64, f64) {
    let time = |want: GeneratorStyle| {
        programs
            .iter()
            .find(|(s, _)| *s == want)
            .map(|(_, p)| cm.program_ns(p))
            .expect("all styles present")
    };
    let frodo = time(GeneratorStyle::Frodo);
    (
        time(GeneratorStyle::SimulinkCoder) / frodo,
        time(GeneratorStyle::DfSynth) / frodo,
        time(GeneratorStyle::Hcg) / frodo,
    )
}

/// Memory reports per style for one model (the §5 parity check).
pub fn memory_parity(
    programs: &[(GeneratorStyle, Program)],
) -> Vec<(GeneratorStyle, MemoryReport)> {
    programs
        .iter()
        .map(|(s, p)| (*s, MemoryReport::of(p)))
        .collect()
}

/// Formats seconds the way the paper's Table 2 prints them (e.g. `0.333s`).
pub fn fmt_seconds(s: f64) -> String {
    format!("{s:.3}s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_models_and_styles() {
        let suite = build_suite();
        assert_eq!(suite.len(), 10);
        for entry in &suite {
            assert_eq!(entry.programs.len(), 4);
        }
    }

    #[test]
    fn frodo_wins_on_every_model_and_config() {
        // The paper's headline: FRODO is 1.17×–8.55× faster than every
        // baseline across all models, compilers, and architectures.
        let suite = build_suite();
        for cm in CostModel::all() {
            for entry in &suite {
                let (vs_sim, vs_df, vs_hcg) = improvement(&cm, &entry.programs);
                assert!(
                    vs_sim > 1.0 && vs_df > 1.0 && vs_hcg > 1.0,
                    "{} on {}: {vs_sim:.2}/{vs_df:.2}/{vs_hcg:.2}",
                    entry.name,
                    cm.label()
                );
            }
        }
    }

    #[test]
    fn memory_is_style_independent_everywhere() {
        for entry in build_suite() {
            let reports = memory_parity(&entry.programs);
            let first = reports[0].1;
            assert!(
                reports.iter().all(|(_, r)| *r == first),
                "{}: {reports:?}",
                entry.name
            );
        }
    }

    #[test]
    fn fmt_matches_paper_style() {
        assert_eq!(fmt_seconds(0.333), "0.333s");
    }

    #[test]
    fn service_suite_matches_direct_generation_and_caches() {
        let service = CompileService::with_defaults();
        let (suite, first) = programs_via_service(&service);
        assert_eq!(first.jobs.len(), 40);
        assert_eq!(first.cache_misses(), 40);

        // programs produced through the service equal direct generation
        for (direct, via) in build_suite().iter().zip(&suite) {
            assert_eq!(direct.name, via.name);
            for ((s1, p1), (s2, p2)) in direct.programs.iter().zip(&via.programs) {
                assert_eq!(s1, s2);
                assert_eq!(p1, p2, "{}/{}", direct.name, s1.label());
            }
        }

        // an identical resubmission is served entirely from the cache
        let (_, second) = programs_via_service(&service);
        assert_eq!(second.cache_hits(), 40);
        assert_eq!(second.cache_misses(), 0);
    }
}
