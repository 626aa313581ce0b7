//! Compile sessions: incremental recompilation across submissions.
//!
//! The artifact cache in [`CompileService`] is all-or-nothing: an edited
//! model misses and recompiles from scratch. A [`CompileSession`] holds
//! the finer-grained state — a per-region range cache
//! ([`frodo_core::incremental::RegionCache`]) and a lowered-fragment
//! cache ([`frodo_codegen::FragmentCache`]) — so resubmitting an edited
//! model re-runs Algorithm 1 and lowering only on the regions the edit
//! actually dirtied, while still emitting C byte-identical to a cold
//! compile.
//!
//! A session is pinned to one generator style and one set of
//! [`CompileOptions`] at construction: the per-region cache keys cover
//! model content, boundary demand, and the range and lowering options,
//! so a session never needs the artifact cache's full-model digest to
//! stay sound — but pinning keeps the handle's contract obvious and the
//! caches warm.
//!
//! ```
//! use frodo_codegen::GeneratorStyle;
//! use frodo_driver::CompileSession;
//! use frodo_model::{Block, BlockKind, Model};
//! use frodo_ranges::Shape;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gain = |g: f64| {
//!     let mut m = Model::new("twice");
//!     let i = m.add(Block::new("in", BlockKind::Inport { index: 0, shape: Shape::Vector(8) }));
//!     let b = m.add(Block::new("g", BlockKind::Gain { gain: g }));
//!     let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
//!     m.connect(i, 0, b, 0).unwrap();
//!     m.connect(b, 0, o, 0).unwrap();
//!     m
//! };
//! let mut session = CompileSession::builder(GeneratorStyle::Frodo).build();
//! let cold = session.compile("twice", gain(2.0), &frodo_obs::Trace::noop())?;
//! let warm = session.compile("twice", gain(2.0), &frodo_obs::Trace::noop())?;
//! assert_eq!(cold.code, warm.code);
//! assert_eq!(session.stats().last_region_hits, session.stats().last_region_total);
//! # Ok(())
//! # }
//! ```

use crate::report::{CompileReport, StageTimings};
use crate::{cache_key, CacheStatus, CompileOptions, JobError, JobOutput};
use frodo_codegen::{generate_from_fragments, FragmentCache, GeneratorStyle, LowerOptions};
use frodo_core::incremental::{analyze_incremental, RegionCache};
use frodo_core::RangeOptions;
use frodo_model::Model;
use frodo_obs::Trace;

/// Default region-size bound (blocks per region). Small enough that a
/// one-block edit of a large model dirties a sliver of it; large enough
/// that per-region key overhead stays negligible.
pub const DEFAULT_REGION_MAX: usize = 24;

/// Builds a [`CompileSession`]; the style is fixed up front, options and
/// region sizing are optional.
#[derive(Debug)]
pub struct SessionBuilder {
    style: GeneratorStyle,
    options: CompileOptions,
    region_max: usize,
}

impl SessionBuilder {
    /// Compile options for every submission (keyed *and* exec halves;
    /// [`crate::ExecOptions::timeout_ms`] is ignored — sessions run on
    /// the calling thread).
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Region-size bound in blocks (`0` = one region per connected
    /// component). Defaults to [`DEFAULT_REGION_MAX`].
    pub fn region_max(mut self, max: usize) -> Self {
        self.region_max = max;
        self
    }

    /// Finishes the build with empty caches.
    pub fn build(self) -> CompileSession {
        CompileSession {
            style: self.style,
            options: self.options,
            region_max: self.region_max,
            regions: RegionCache::new(),
            fragments: FragmentCache::new(),
            stats: SessionStats::default(),
        }
    }
}

/// Cumulative and last-submission cache effectiveness of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Submissions compiled through this session.
    pub compiles: u64,
    /// Regions in the last submission's partition.
    pub last_region_total: u64,
    /// Region range-cache hits in the last submission.
    pub last_region_hits: u64,
    /// Blocks re-analyzed in the last submission (the dirty cone).
    pub last_dirty_blocks: u64,
    /// Fragment-cache hits in the last submission.
    pub last_fragment_hits: u64,
    /// Cumulative region hits across all submissions.
    pub region_hits: u64,
    /// Cumulative region misses across all submissions.
    pub region_misses: u64,
}

/// A stateful compile handle: one style, one set of options, and warm
/// per-region caches carried across submissions. See the module docs.
///
/// Unlike [`CompileService`], a session compiles on the calling thread,
/// takes `&mut self` (the caches mutate), and always reports
/// [`CacheStatus::Miss`] — region reuse is reported through the trace's
/// `region_*`/`fragment_*` counters and [`CompileSession::stats`], not
/// the artifact-cache field.
///
/// [`CompileService`]: crate::CompileService
#[derive(Debug)]
pub struct CompileSession {
    style: GeneratorStyle,
    options: CompileOptions,
    region_max: usize,
    regions: RegionCache,
    fragments: FragmentCache,
    stats: SessionStats,
}

impl CompileSession {
    /// Starts building a session pinned to `style`.
    pub fn builder(style: GeneratorStyle) -> SessionBuilder {
        SessionBuilder {
            style,
            options: CompileOptions::default(),
            region_max: DEFAULT_REGION_MAX,
        }
    }

    /// The style this session compiles with.
    pub fn style(&self) -> GeneratorStyle {
        self.style
    }

    /// The options this session compiles with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The region-size bound this session partitions with.
    pub fn region_max(&self) -> usize {
        self.region_max
    }

    /// Cache effectiveness so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Compiles one submission, reusing every region the caches still
    /// cover. The generated C is byte-identical to a cold
    /// [`CompileService::compile`] of the same model with the same style
    /// and options.
    ///
    /// Stage spans (`job:{name}` root, then parse-less flatten → hash →
    /// dfg → iomap → ranges → classify → lower → verify → analyze → emit)
    /// land on a trace of the job's own, which gives the report's
    /// timings; the `ranges` span carries `region_*` counters and the
    /// `lower` span `fragment_*` counters. When the job ends, ok or
    /// failed, that trace is grafted into `trace`.
    ///
    /// # Errors
    ///
    /// [`JobError::Analysis`] when the pipeline rejects the model, and
    /// [`JobError::Verify`] when [`crate::ExecOptions::verify`] is on and
    /// the checker finds the lowered program unsound.
    ///
    /// [`CompileService::compile`]: crate::CompileService::compile
    pub fn compile(
        &mut self,
        name: &str,
        model: Model,
        trace: &Trace,
    ) -> Result<JobOutput, JobError> {
        let own = Trace::new();
        let result = self.compile_into(name, model, &own);
        trace.graft(&own);
        result
    }

    /// [`Self::compile`]'s pipeline, recording into the job's own `trace`.
    fn compile_into(
        &mut self,
        name: &str,
        model: Model,
        trace: &Trace,
    ) -> Result<JobOutput, JobError> {
        let job_span = trace.span(&format!("job:{name}"));
        let jt = job_span.trace();

        let flat = model.into_flattened(&jt).map_err(|e| JobError::Analysis {
            job: name.to_string(),
            message: e.to_string(),
        })?;

        // same digest a cold compile would report, so ledgers and clients
        // can correlate incremental and cold artifacts
        let digest = {
            let _s = jt.span("hash");
            cache_key(&flat, self.style, &self.options.keyed)
        };

        let inc = analyze_incremental(
            flat,
            RangeOptions::default(),
            self.region_max,
            &mut self.regions,
            &jt,
        )
        .map_err(|e| JobError::Analysis {
            job: name.to_string(),
            message: e.to_string(),
        })?;

        let (program, frag_stats) = generate_from_fragments(
            &inc.analysis,
            self.style,
            LowerOptions::default(),
            &inc.regions,
            &mut self.fragments,
            &jt,
        );

        let (code, metrics) =
            crate::finish_compile(name, &inc.analysis, &program, &self.options, &jt)?;

        self.stats.compiles += 1;
        self.stats.last_region_total = inc.stats.regions;
        self.stats.last_region_hits = inc.stats.hits;
        self.stats.last_dirty_blocks = inc.stats.dirty_blocks;
        self.stats.last_fragment_hits = frag_stats.hits;
        self.stats.region_hits += inc.stats.hits;
        self.stats.region_misses += inc.stats.misses;

        job_span.end();
        Ok(JobOutput {
            report: CompileReport {
                job: name.to_string(),
                style: self.style,
                digest,
                cache: CacheStatus::Miss,
                metrics,
                timings: StageTimings::from_trace(trace),
                code_bytes: code.len(),
            },
            code,
            program: Some(program),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileService, JobSpec, ServiceConfig};
    use frodo_model::{Block, BlockKind};
    use frodo_ranges::Shape;

    fn chain(edited_gain: f64) -> Model {
        let mut m = Model::new("chain");
        let mut prev = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(16),
            },
        ));
        for k in 0..40 {
            let gain = if k == 20 { edited_gain } else { 2.0 };
            let g = m.add(Block::new(format!("g{k}"), BlockKind::Gain { gain }));
            m.connect(prev, 0, g, 0).unwrap();
            prev = g;
        }
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(prev, 0, o, 0).unwrap();
        m
    }

    fn cold_code(model: Model) -> String {
        let service = CompileService::new(ServiceConfig {
            no_cache: true,
            ..ServiceConfig::default()
        });
        service
            .compile(JobSpec::from_model("chain", model, GeneratorStyle::Frodo))
            .unwrap()
            .code
    }

    #[test]
    fn session_recompile_is_byte_identical_to_cold() {
        let mut session = CompileSession::builder(GeneratorStyle::Frodo)
            .region_max(8)
            .build();
        let noop = Trace::noop();
        let first = session.compile("chain", chain(2.0), &noop).unwrap();
        assert_eq!(first.code, cold_code(chain(2.0)));
        assert_eq!(session.stats().last_region_hits, 0);

        // identical resubmission: everything replays
        let again = session.compile("chain", chain(2.0), &noop).unwrap();
        assert_eq!(again.code, first.code);
        let s = session.stats();
        assert_eq!(s.last_region_hits, s.last_region_total);

        // a one-block parameter edit dirties exactly one region, and the
        // output still matches a cold compile of the edited model
        let edited = session.compile("chain", chain(9.0), &noop).unwrap();
        assert_eq!(edited.code, cold_code(chain(9.0)));
        let s = session.stats();
        assert_eq!(s.last_region_total - s.last_region_hits, 1);
        assert!(s.last_dirty_blocks <= 8);
        // reports carry the same digest a cold compile would
        assert_ne!(edited.report.digest, first.report.digest);
    }

    #[test]
    fn session_records_region_and_fragment_counters() {
        let mut session = CompileSession::builder(GeneratorStyle::Frodo)
            .region_max(8)
            .build();
        let noop = Trace::noop();
        session.compile("chain", chain(2.0), &noop).unwrap();
        let trace = Trace::new();
        session.compile("chain", chain(2.0), &trace).unwrap();
        assert!(trace.counter_total("region_hits") > 0);
        assert_eq!(trace.counter_total("region_misses"), 0);
        assert!(trace.counter_total("fragment_hits") > 0);
        assert_eq!(trace.counter_total("fragment_misses"), 0);
        assert!(trace
            .snapshot()
            .spans
            .iter()
            .any(|s| s.name.starts_with("job:")));
    }

    #[test]
    fn verify_on_session_passes_for_sound_programs() {
        let mut session = CompileSession::builder(GeneratorStyle::Frodo)
            .options(CompileOptions::builder().verify(true).build())
            .build();
        let out = session
            .compile("chain", chain(2.0), &Trace::noop())
            .unwrap();
        assert!(!out.code.is_empty());
    }

    #[test]
    fn analyze_on_session_runs_the_dataflow_stage() {
        let mut session = CompileSession::builder(GeneratorStyle::Frodo)
            .options(CompileOptions::builder().analyze(true).build())
            .build();
        let trace = Trace::new();
        session.compile("chain", chain(2.0), &trace).unwrap();
        assert!(trace.counter_total("analyze_stmts") > 0);
        assert!(trace.snapshot().spans.iter().any(|s| s.name == "analyze"));
    }
}
