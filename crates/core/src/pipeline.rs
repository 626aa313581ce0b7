//! The end-to-end analysis pipeline: model → graph → mappings → ranges.

use crate::{determine_ranges, IoMappings, OptimizationReport, RangeOptions, Ranges};
use frodo_graph::Dfg;
use frodo_model::{BlockId, Model, ModelError, OutPort};
use frodo_obs::Trace;
use frodo_ranges::IndexSet;

/// The complete output of FRODO's analysis for one model: the dataflow
/// graph, the derived I/O mappings, the calculation ranges, and the
/// optimizable-block report. Code generators consume this artifact.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct Analysis {
    dfg: Dfg,
    mappings: IoMappings,
    ranges: Ranges,
    report: OptimizationReport,
    options: RangeOptions,
}

impl Analysis {
    /// Assembles an analysis from independently computed parts (the
    /// incremental region analysis produces the same artifact without a
    /// monolithic range pass).
    pub(crate) fn from_parts(
        dfg: Dfg,
        mappings: IoMappings,
        ranges: Ranges,
        report: OptimizationReport,
        options: RangeOptions,
    ) -> Self {
        Analysis {
            dfg,
            mappings,
            ranges,
            report,
            options,
        }
    }

    /// Runs the full pipeline with default options and no tracing.
    /// (Thin wrapper over [`Analysis::run_traced`] with a no-op trace.)
    ///
    /// # Errors
    ///
    /// Propagates model flattening/validation/shape-inference failures.
    pub fn run(model: Model) -> Result<Self, ModelError> {
        Analysis::run_traced(model, RangeOptions::default(), &Trace::noop())
    }

    /// Runs the full pipeline with explicit range options and no tracing.
    /// (Thin wrapper over [`Analysis::run_traced`] with a no-op trace.)
    ///
    /// # Errors
    ///
    /// Propagates model flattening/validation/shape-inference failures.
    pub fn run_with(model: Model, options: RangeOptions) -> Result<Self, ModelError> {
        Analysis::run_traced(model, options, &Trace::noop())
    }

    /// The canonical pipeline entry: runs model analysis and redundancy
    /// elimination, recording every stage on `trace` — `flatten` and `dfg`
    /// spans from graph construction, then `iomap`, `ranges` (Algorithm 1),
    /// and `classify` spans with redundancy counters (`blocks_analyzed`,
    /// `blocks_optimizable`, `elements_total`, `elements_eliminated`).
    ///
    /// Pass [`Trace::noop`] when nobody is listening: the disabled
    /// recorder compiles to near-zero cost, so this is also the plain
    /// entry point ([`Analysis::run`] and [`Analysis::run_with`] are thin
    /// wrappers over it). Stage timings are read off the trace via
    /// [`frodo_obs::StageTimings::from_trace`] — there is no separate
    /// timing struct.
    ///
    /// # Errors
    ///
    /// Propagates model flattening/validation/shape-inference failures.
    pub fn run_traced(
        model: Model,
        options: RangeOptions,
        trace: &Trace,
    ) -> Result<Self, ModelError> {
        let dfg = Dfg::new(model, trace)?;
        let mappings = {
            let _span = trace.span("iomap");
            IoMappings::derive(&dfg)
        };
        let ranges = {
            let _span = trace.span("ranges");
            determine_ranges(&dfg, &mappings, options)
        };
        let report = {
            let span = trace.span("classify");
            let report = OptimizationReport::build(&dfg, &ranges);
            span.count("blocks_analyzed", report.stats().len() as u64);
            span.count(
                "blocks_optimizable",
                report.optimizable_blocks().len() as u64,
            );
            span.count("elements_total", report.total_elements() as u64);
            span.count("elements_eliminated", report.total_eliminated() as u64);
            report
        };
        Ok(Analysis {
            dfg,
            mappings,
            ranges,
            report,
            options,
        })
    }

    /// The analyzed dataflow graph.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// The derived I/O mappings.
    pub fn mappings(&self) -> &IoMappings {
        &self.mappings
    }

    /// All calculation ranges.
    pub fn ranges(&self) -> &Ranges {
        &self.ranges
    }

    /// The calculation range of one output port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn range(&self, block: BlockId, port: usize) -> &IndexSet {
        self.ranges.out(block, port)
    }

    /// The optimization report.
    pub fn report(&self) -> &OptimizationReport {
        &self.report
    }

    /// Whether a block's calculation range shrank (is *optimizable*).
    pub fn is_optimizable(&self, block: BlockId) -> bool {
        self.report.stat(block).optimizable
    }

    /// Output ports whose ranges were reduced.
    pub fn reduced_ports(&self) -> Vec<OutPort> {
        crate::classify::reduced_ports(&self.dfg, &self.ranges)
    }

    /// The options the analysis ran with.
    pub fn options(&self) -> RangeOptions {
        self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, BlockKind, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn figure1() -> Model {
        let mut m = Model::new("Convolution");
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
                value: Tensor::vector(vec![0.1; 11]),
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
        m
    }

    #[test]
    fn pipeline_end_to_end() {
        let a = Analysis::run(figure1()).unwrap();
        let conv = a.dfg().model().find("conv").unwrap();
        assert!(a.is_optimizable(conv));
        assert_eq!(a.reduced_ports().len(), 1);
        assert_eq!(a.options(), RangeOptions::default());
    }

    #[test]
    fn traced_run_records_every_analysis_stage() {
        let trace = Trace::new();
        let a = Analysis::run_traced(figure1(), RangeOptions::default(), &trace).unwrap();
        let snap = trace.snapshot();
        for stage in ["flatten", "dfg", "iomap", "ranges", "classify"] {
            assert!(
                snap.spans.iter().any(|s| s.name == stage),
                "missing {stage} span"
            );
        }
        assert_eq!(trace.counter_total("blocks_analyzed"), 5);
        assert_eq!(trace.counter_total("blocks_optimizable"), 1);
        assert_eq!(
            trace.counter_total("elements_eliminated") as usize,
            a.report().total_eliminated()
        );
        let timings = frodo_obs::StageTimings::from_trace(&trace);
        assert_eq!(timings.parse, std::time::Duration::ZERO);
        assert!(timings.algorithm1() > std::time::Duration::ZERO);
    }

    #[test]
    fn untraced_wrappers_match_the_canonical_entry() {
        let via_run = Analysis::run(figure1()).unwrap();
        let via_traced =
            Analysis::run_traced(figure1(), RangeOptions::default(), &Trace::noop()).unwrap();
        assert_eq!(via_run.ranges(), via_traced.ranges());
        assert_eq!(via_run.report(), via_traced.report());
    }

    /// Property tests (gated: the `proptest` crate is not vendored, so the
    /// default offline build compiles these out; re-add the dev-dependency
    /// and run `cargo test --features proptest` to enable them).
    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Generates a random layered feed-forward model mixing elementwise,
        /// windowed, and truncation blocks, to cross-check the two engines.
        fn arb_model() -> impl Strategy<Value = Model> {
            (
                2usize..6,
                proptest::collection::vec(0usize..6, 1..12),
                any::<u64>(),
            )
                .prop_map(|(width, kinds, seed)| {
                    let n = 24usize;
                    let mut m = Model::new("rand");
                    let mut frontier: Vec<BlockId> = Vec::new();
                    for w in 0..width.min(3) {
                        let id = m.add(Block::new(
                            format!("in{w}"),
                            BlockKind::Inport {
                                index: w,
                                shape: Shape::Vector(n),
                            },
                        ));
                        frontier.push(id);
                    }
                    let mut rng = seed;
                    let mut next = move |m: usize| {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((rng >> 33) as usize) % m
                    };
                    for (step, k) in kinds.into_iter().enumerate() {
                        let src = frontier[next(frontier.len())];
                        let kind = match k {
                            0 => BlockKind::Gain { gain: 2.0 },
                            1 => BlockKind::Abs,
                            2 => BlockKind::MovingAverage { window: 3 },
                            3 => BlockKind::Difference,
                            4 => BlockKind::Selector {
                                mode: SelectorMode::StartEnd {
                                    start: 4,
                                    end: 4 + n / 2,
                                },
                            },
                            _ => BlockKind::Pad {
                                left: 2,
                                right: 2,
                                value: 0.0,
                            },
                        };
                        // only chain blocks that preserve "vector in, vector out"
                        let id = m.add(Block::new(format!("b{step}"), kind));
                        m.connect(src, 0, id, 0).unwrap();
                        // keep output length n by re-normalizing with a selector
                        let fix = m.add(Block::new(
                            format!("fix{step}"),
                            BlockKind::Selector {
                                mode: SelectorMode::StartEnd {
                                    start: 0,
                                    end: n / 2,
                                },
                            },
                        ));
                        m.connect(id, 0, fix, 0).unwrap();
                        let pad = m.add(Block::new(
                            format!("pad{step}"),
                            BlockKind::Pad {
                                left: 0,
                                right: n - n / 2,
                                value: 0.0,
                            },
                        ));
                        m.connect(fix, 0, pad, 0).unwrap();
                        frontier.push(pad);
                    }
                    for (w, src) in frontier.iter().enumerate().take(3) {
                        let o = m.add(Block::new(
                            format!("out{w}"),
                            BlockKind::Outport { index: w },
                        ));
                        m.connect(*src, 0, o, 0).unwrap();
                    }
                    m
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn prop_engines_agree_on_random_models(model in arb_model()) {
                let a = Analysis::run(model).unwrap();
                let reference =
                    crate::reference_ranges(a.dfg(), a.mappings(), RangeOptions::default());
                prop_assert_eq!(a.ranges(), &reference);
            }

            #[test]
            fn prop_ranges_never_exceed_full(model in arb_model()) {
                let a = Analysis::run(model).unwrap();
                for (port, range) in a.ranges().iter() {
                    let numel = a.dfg().shapes().output(port.block, port.port).numel();
                    prop_assert!(range.is_subset(&frodo_ranges::IndexSet::full(numel)));
                }
            }
        }
    }
}
