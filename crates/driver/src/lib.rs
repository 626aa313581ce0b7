//! # frodo-driver — the batch compilation service
//!
//! The rest of the workspace compiles one model at a time: the paper's
//! pipeline (parse → flatten → I/O mapping → Algorithm 1 → concise
//! codegen) behind one function call. This crate is the layer that turns
//! that pipeline into a *service* able to take production-scale traffic:
//!
//! - **Batching & parallelism** — [`CompileService::compile_batch`] drains
//!   a job queue on a `std::thread` worker pool; each job compiles on the
//!   one worker thread that took it. Jobs are panic-isolated: a poisoned
//!   job becomes a [`JobError`] in its result slot, the rest of the batch
//!   completes.
//! - **Content-addressed caching** — every artifact is keyed by a digest
//!   ([`frodo_slx::fnv`]) of the *flattened* model plus every option that
//!   affects the generated C. The model's derived `Debug` form is
//!   streamed straight into the digest, so no text is built to hash it.
//!   Resubmitting an unchanged model skips
//!   analysis and emission entirely; an optional on-disk layer persists
//!   artifacts across processes. Hit/miss counters are exposed via
//!   [`CompileService::cache_stats`].
//! - **Pipeline observability** — every job records its stages into a
//!   [`frodo_obs::Trace`] (the caller's, via [`JobSpec::with_trace`] /
//!   [`CompileService::compile_batch_traced`], or a job-local one
//!   otherwise) and derives monotonic per-stage timings from it
//!   ([`StageTimings`]: parse, flatten, hash, cache, dfg, iomap, ranges,
//!   classify, lower, emit) plus redundancy counters (blocks analyzed,
//!   optimizable blocks, elements eliminated), rendered as a human table
//!   ([`BatchReport::render_table`]), machine lines
//!   ([`BatchReport::machine_lines`]), and — for traced batches — a span
//!   tree ([`BatchReport::render_trace`]).
//!
//! # Example
//!
//! ```
//! use frodo_driver::{CompileService, JobSpec, ServiceConfig};
//! use frodo_codegen::GeneratorStyle;
//! use frodo_model::{Block, BlockKind, Model};
//! use frodo_ranges::Shape;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Model::new("twice");
//! let i = m.add(Block::new("in", BlockKind::Inport { index: 0, shape: Shape::Vector(8) }));
//! let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
//! let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
//! m.connect(i, 0, g, 0)?;
//! m.connect(g, 0, o, 0)?;
//!
//! let service = CompileService::new(ServiceConfig::default());
//! let job = JobSpec::from_model("twice", m.clone(), GeneratorStyle::Frodo);
//! let first = service.compile(job)?;
//! assert!(!first.report.cache.is_hit());
//!
//! // resubmitting the unchanged model is a cache hit with identical code
//! let again = service.compile(JobSpec::from_model("twice", m, GeneratorStyle::Frodo))?;
//! assert!(again.report.cache.is_hit());
//! assert_eq!(again.code, first.code);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod lifecycle;
pub mod report;
pub mod session;

pub use cache::{CacheStats, CacheStatus};
pub use lifecycle::{JobPool, JobTicket, PoolConfig, PoolSnapshot, SubmitError};
pub use report::{BatchReport, CompileReport, JobMetrics, StageTimings};
pub use session::{CompileSession, SessionBuilder, SessionStats, DEFAULT_REGION_MAX};

use cache::{ArtifactCache, CachedArtifact};
use frodo_codegen::lir::Program;
use frodo_codegen::{emit_c_traced, generate_with, CEmitOptions, GeneratorStyle, LowerOptions};
use frodo_core::{Analysis, RangeOptions};
use frodo_model::Model;
use frodo_obs::Trace;
use frodo_slx::fnv::{ContentDigest, DigestWriter};
use frodo_slx::{read_mdl, read_slx};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The options that determine the generated C, which the artifact cache
/// key (and the incremental session's per-region keys) must cover. Two
/// compiles whose model and `KeyedOptions` agree produce byte-identical
/// code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyedOptions {
    /// Range-determination options (dead-end elimination).
    pub range: RangeOptions,
    /// Lowering options (run coalescing).
    pub lower: LowerOptions,
    /// C emission options (shared convolution helper).
    pub emit: CEmitOptions,
}

/// The options that only affect *how* a job executes, never *what* it
/// produces. The type split (instead of the old per-field "excluded from
/// the cache key" comments) makes the cache keys correct by construction:
/// [`cache_key`] takes [`KeyedOptions`] and cannot see these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Runs the range-soundness checker (`frodo-verify`) on the lowered
    /// program before emission; a failed check fails the job closed with
    /// [`JobError::Verify`] carrying the structured diagnostics.
    ///
    /// Verification never changes the generated C. Artifacts are only
    /// stored after a (possibly skipped) verify pass, so cached code
    /// under `verify: true` was verified when it was first compiled; cache
    /// hits do not re-verify.
    pub verify: bool,
    /// Runs the dataflow analyses (`frodo-verify`'s `analyze` stage) on
    /// the lowered program before emission: value-range numeric-safety
    /// checks, the residual-redundancy detector, and the buffer-lifetime
    /// report. Their findings are warnings, recorded as counters only; they
    /// never fail the job. Like `verify`, this never changes the generated
    /// C and is excluded from every cache key.
    pub analyze: bool,
    /// Wall-clock budget for the whole job in milliseconds; `0` means no
    /// limit. Enforced by the worker pool ([`JobPool`]): an overrunning
    /// job is abandoned on its runner thread and fails with
    /// [`JobError::Timeout`], so a hung job never occupies a worker
    /// forever. Direct [`CompileService::compile`] calls run on the
    /// calling thread and do not enforce it.
    pub timeout_ms: u64,
}

/// Every compile knob, split into the half that shapes the generated C
/// ([`KeyedOptions`], digested into cache keys) and the half that only
/// shapes execution ([`ExecOptions`], invisible to every cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileOptions {
    /// Options digested into the artifact (and region) cache keys.
    pub keyed: KeyedOptions,
    /// Execution-only options, excluded from every cache key by type.
    pub exec: ExecOptions,
}

impl CompileOptions {
    /// A builder over every knob, flat like the CLI surface.
    pub fn builder() -> CompileOptionsBuilder {
        CompileOptionsBuilder::default()
    }
}

/// Builds a [`CompileOptions`] one knob at a time; each setter routes its
/// value to the correct half of the keyed/exec split.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptionsBuilder {
    options: CompileOptions,
}

impl CompileOptionsBuilder {
    /// Full range-determination options (keyed).
    pub fn range(mut self, range: RangeOptions) -> Self {
        self.options.keyed.range = range;
        self
    }

    /// Dead-end elimination in range determination (keyed).
    pub fn eliminate_dead_ends(mut self, on: bool) -> Self {
        self.options.keyed.range.eliminate_dead_ends = on;
        self
    }

    /// Coalescing gap for fragmented calculation ranges (keyed).
    pub fn coalesce_gap(mut self, gap: usize) -> Self {
        self.options.keyed.lower.coalesce_gap = gap;
        self
    }

    /// Shared convolution helper emission (keyed).
    pub fn shared_conv_helper(mut self, on: bool) -> Self {
        self.options.keyed.emit.shared_conv_helper = on;
        self
    }

    /// Vectorization mode of the emitted C (keyed).
    pub fn vectorize(mut self, mode: frodo_codegen::VectorMode) -> Self {
        self.options.keyed.emit.vectorize = mode;
        self
    }

    /// Self-profiling emission hooks in the generated C (keyed — the
    /// hooks change the emitted bytes, so profiled and plain artifacts
    /// must never share a cache slot).
    pub fn profile(mut self, on: bool) -> Self {
        self.options.keyed.emit.profile = on;
        self
    }

    /// Sliding-window reuse pass after lowering (keyed).
    pub fn window_reuse(mut self, on: bool) -> Self {
        self.options.keyed.lower.window_reuse = on;
        self
    }

    /// Range-soundness verification (exec-only).
    pub fn verify(mut self, on: bool) -> Self {
        self.options.exec.verify = on;
        self
    }

    /// Dataflow analyses over the lowered program (exec-only).
    pub fn analyze(mut self, on: bool) -> Self {
        self.options.exec.analyze = on;
        self
    }

    /// Per-job wall-clock budget in milliseconds (exec-only).
    pub fn timeout_ms(mut self, ms: u64) -> Self {
        self.options.exec.timeout_ms = ms;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> CompileOptions {
        self.options
    }
}

/// Where a job's model comes from.
pub enum JobSource {
    /// An already-constructed model.
    Model(Model),
    /// A `.slx` or `.mdl` file, read and parsed by the worker (the job's
    /// `parse` stage).
    Path(PathBuf),
    /// A deferred programmatic builder, run by the worker (the job's
    /// `parse` stage). This is how generated or synthetic workloads enter
    /// a batch without being materialized up front.
    #[allow(clippy::type_complexity)]
    Builder(Box<dyn FnOnce() -> Result<Model, String> + Send>),
}

impl std::fmt::Debug for JobSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobSource::Model(m) => f.debug_tuple("Model").field(&m.name()).finish(),
            JobSource::Path(p) => f.debug_tuple("Path").field(p).finish(),
            JobSource::Builder(_) => f.write_str("Builder(..)"),
        }
    }
}

/// One compilation job: a model source plus a generator style and options.
#[derive(Debug)]
pub struct JobSpec {
    /// Display name used in reports.
    pub name: String,
    /// The model source.
    pub source: JobSource,
    /// Generator style to compile with.
    pub style: GeneratorStyle,
    /// Analysis/lowering/emission options.
    pub options: CompileOptions,
    /// Trace sink the job records into. Defaults to [`Trace::noop`], in
    /// which case the worker records into a job-local trace just to derive
    /// the report's [`StageTimings`].
    pub trace: Trace,
}

impl JobSpec {
    /// A job over an already-constructed model.
    pub fn from_model(name: impl Into<String>, model: Model, style: GeneratorStyle) -> Self {
        JobSpec {
            name: name.into(),
            source: JobSource::Model(model),
            style,
            options: CompileOptions::default(),
            trace: Trace::noop(),
        }
    }

    /// A job that reads a `.slx`/`.mdl` file on the worker thread.
    pub fn from_path(path: impl Into<PathBuf>, style: GeneratorStyle) -> Self {
        let path = path.into();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        JobSpec {
            name,
            source: JobSource::Path(path),
            style,
            options: CompileOptions::default(),
            trace: Trace::noop(),
        }
    }

    /// A job whose model is built by `f` on the worker thread.
    pub fn from_builder(
        name: impl Into<String>,
        style: GeneratorStyle,
        f: impl FnOnce() -> Result<Model, String> + Send + 'static,
    ) -> Self {
        JobSpec {
            name: name.into(),
            source: JobSource::Builder(Box::new(f)),
            style,
            options: CompileOptions::default(),
            trace: Trace::noop(),
        }
    }

    /// Replaces the job's compile options.
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a trace sink: the job records its stage spans and counters
    /// there (under a `job:{name}` root span) instead of a job-local trace.
    pub fn with_trace(mut self, trace: &Trace) -> Self {
        self.trace = trace.clone();
        self
    }
}

/// Why a job failed. The batch it belonged to still completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The model could not be obtained (file read/parse, builder failure).
    Load {
        /// Job display name.
        job: String,
        /// What went wrong.
        message: String,
    },
    /// The pipeline rejected the model (validation, shape inference, …).
    Analysis {
        /// Job display name.
        job: String,
        /// What went wrong.
        message: String,
    },
    /// The job panicked; the panic was contained by the worker.
    Panicked {
        /// Job display name.
        job: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The range-soundness checker rejected the lowered program
    /// ([`ExecOptions::verify`]). The structured diagnostics name the
    /// block, buffer, and offending interval of every finding.
    Verify {
        /// Job display name.
        job: String,
        /// Every finding, in program order.
        diagnostics: Vec<frodo_verify::Diagnostic>,
    },
    /// The job overran its [`CompileOptions::timeout_ms`] budget and was
    /// abandoned by the worker pool.
    Timeout {
        /// Job display name.
        job: String,
        /// The budget that was exceeded.
        timeout_ms: u64,
    },
}

impl JobError {
    /// The display name of the job that failed.
    pub fn job(&self) -> &str {
        match self {
            JobError::Load { job, .. }
            | JobError::Analysis { job, .. }
            | JobError::Panicked { job, .. }
            | JobError::Verify { job, .. }
            | JobError::Timeout { job, .. } => job,
        }
    }

    /// The structured diagnostics carried by a [`JobError::Verify`];
    /// empty for the other variants.
    pub fn diagnostics(&self) -> &[frodo_verify::Diagnostic] {
        match self {
            JobError::Verify { diagnostics, .. } => diagnostics,
            _ => &[],
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Load { job, message } => write!(f, "{job}: load failed: {message}"),
            JobError::Analysis { job, message } => write!(f, "{job}: analysis failed: {message}"),
            JobError::Panicked { job, message } => write!(f, "{job}: job panicked: {message}"),
            JobError::Verify { job, diagnostics } => write!(
                f,
                "{job}: verification failed with {} diagnostic{}",
                diagnostics.len(),
                if diagnostics.len() == 1 { "" } else { "s" }
            ),
            JobError::Timeout { job, timeout_ms } => {
                write!(f, "{job}: timed out after {timeout_ms}ms")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// A completed job: the generated C plus the structured report.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The emitted C translation unit.
    pub code: String,
    /// The lowered program, when it exists in this process (fresh compiles
    /// and in-memory cache hits; `None` for disk hits).
    pub program: Option<Program>,
    /// The structured per-job report.
    pub report: CompileReport,
}

/// Service configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Worker threads for batches; `0` means one per available core.
    pub workers: usize,
    /// Enables the on-disk cache layer under this directory.
    pub cache_dir: Option<PathBuf>,
    /// Disables all caching when `true` (every job compiles from scratch).
    pub no_cache: bool,
    /// Byte-size cap on each artifact-cache layer (in-memory and on-disk
    /// independently), sized by emitted code; least-recently-used entries
    /// are evicted past it. `0` means unbounded.
    pub cache_cap_bytes: usize,
}

/// The batch compilation service. Cheap to construct; shareable across
/// threads (`&self` everywhere). Cloning is cheap and shares the
/// artifact cache — that is how [`JobPool`] workers and a daemon's many
/// connections serve one cache.
#[derive(Debug, Clone)]
pub struct CompileService {
    config: ServiceConfig,
    cache: std::sync::Arc<ArtifactCache>,
}

impl CompileService {
    /// Creates a service from `config`.
    pub fn new(config: ServiceConfig) -> Self {
        let cache = std::sync::Arc::new(ArtifactCache::new(
            config.cache_dir.clone(),
            config.cache_cap_bytes,
        ));
        CompileService { config, cache }
    }

    /// A service with default configuration (auto workers, memory cache).
    pub fn with_defaults() -> Self {
        CompileService::new(ServiceConfig::default())
    }

    /// The worker count batches run with.
    pub fn workers(&self) -> usize {
        if self.config.workers > 0 {
            self.config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Compiles a batch on the worker pool; results come back in
    /// submission order.
    pub fn compile_batch(&self, specs: Vec<JobSpec>) -> BatchReport {
        self.compile_batch_traced(specs, &Trace::noop())
    }

    /// Compiles a batch with every job recording into `trace` under a
    /// shared `batch` root span. Workers record concurrently (the trace is
    /// thread-safe); each job still gets isolated [`StageTimings`] because
    /// they are derived from its own `job:{name}` subtree. Per-job wall
    /// clocks land in the `job_total_ns` histogram, and the trace rides on
    /// the report for [`BatchReport::render_trace`].
    pub fn compile_batch_traced(&self, specs: Vec<JobSpec>, trace: &Trace) -> BatchReport {
        let workers = self.workers();
        let start = Instant::now();
        let batch_span = trace.span("batch");
        batch_span.count("jobs", specs.len() as u64);
        let bt = batch_span.trace();
        let specs = if trace.is_enabled() {
            specs.into_iter().map(|s| s.with_trace(&bt)).collect()
        } else {
            specs
        };
        let jobs: Vec<Result<JobOutput, JobError>> = {
            let pool = JobPool::start(
                self,
                PoolConfig {
                    workers,
                    queue_cap: 0,
                },
                &bt,
            );
            // an unbounded queue admits every job; results come back in
            // submission order because the tickets are waited in order
            let tickets: Vec<JobTicket> = specs
                .into_iter()
                .map(|s| pool.submit(0, s).expect("unbounded queue admits every job"))
                .collect();
            let jobs = tickets.into_iter().map(JobTicket::wait).collect();
            pool.shutdown();
            jobs
        };
        batch_span.end();
        if trace.is_enabled() {
            for job in jobs.iter().flatten() {
                trace.observe("job_total_ns", job.report.timings.total().as_nanos() as f64);
            }
        }
        BatchReport {
            jobs,
            wall: start.elapsed(),
            workers,
            cache: self.cache_stats(),
            trace: trace.is_enabled().then(|| trace.clone()),
        }
    }

    /// Compiles one job on the calling thread.
    ///
    /// Every stage records a span on the job's trace — the sink attached
    /// via [`JobSpec::with_trace`], or a job-local recorder otherwise (the
    /// report's [`StageTimings`] are always derived from a real trace; the
    /// job-local one is simply dropped afterwards). The spans nest under a
    /// `job:{name}` root, so many jobs can share one sink and still be
    /// told apart.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Load`] when the model cannot be obtained and
    /// [`JobError::Analysis`] when the pipeline rejects it. (Panic
    /// isolation is the batch path's job; this call propagates panics.)
    pub fn compile(&self, spec: JobSpec) -> Result<JobOutput, JobError> {
        let JobSpec {
            name,
            source,
            style,
            options,
            trace: sink,
        } = spec;
        let trace = if sink.is_enabled() {
            sink
        } else {
            Trace::new()
        };
        let job_span = trace.span(&format!("job:{name}"));
        let job_id = job_span.id();
        let jt = job_span.trace();

        // parse: obtain the model
        let model = {
            let parse = jt.span("parse");
            let pt = parse.trace();
            match source {
                JobSource::Model(m) => m,
                JobSource::Path(p) => load_model(&p, &pt).map_err(|message| JobError::Load {
                    job: name.clone(),
                    message,
                })?,
                JobSource::Builder(f) => f().map_err(|message| JobError::Load {
                    job: name.clone(),
                    message,
                })?,
            }
        };

        // flatten: the canonical, cache-keyable form (records its own span)
        let flat = model.into_flattened(&jt).map_err(|e| JobError::Analysis {
            job: name.clone(),
            message: e.to_string(),
        })?;

        // hash: content digest of flattened model + keyed options
        let digest = {
            let _s = jt.span("hash");
            cache_key(&flat, style, &options.keyed)
        };
        let hex = digest.to_hex();

        if !self.config.no_cache {
            let lookup = {
                let span = jt.span("cache");
                let lookup = self.cache.lookup(&hex);
                span.count("cache_hits", lookup.is_some() as u64);
                lookup
            };
            if let Some((art, status)) = lookup {
                jt.count("bytes_emitted", art.code.len() as u64);
                job_span.end();
                let timings = StageTimings::for_span(&trace, job_id);
                return Ok(JobOutput {
                    report: CompileReport {
                        job: name,
                        style,
                        digest,
                        cache: status,
                        metrics: art.metrics,
                        timings,
                        code_bytes: art.code.len(),
                    },
                    code: art.code,
                    program: art.program,
                });
            }
        }

        // analysis: dfg + iomap + Algorithm 1 + classification. The
        // model is already flat, so the inner flatten span moves it
        // through without a copy, recorded alongside the real one above.
        let analysis = Analysis::run_traced(flat, options.keyed.range, &jt).map_err(|e| {
            JobError::Analysis {
                job: name.clone(),
                message: e.to_string(),
            }
        })?;

        // lower + emit (each records its own span)
        let program = generate_with(&analysis, style, options.keyed.lower, &jt);

        // verify (opt-in): certify the lowered program against the
        // analysis before anything is emitted or cached
        if options.exec.verify {
            let span = jt.span("verify");
            let soundness = frodo_verify::check_compile(&analysis, &program);
            span.count("verify_stmts", soundness.stmts_checked as u64);
            span.count("verify_buffers", soundness.buffers_checked as u64);
            span.count("verify_outputs", soundness.outputs_checked as u64);
            span.count("verify_diagnostics", soundness.diagnostics.len() as u64);
            if !soundness.is_sound() {
                return Err(JobError::Verify {
                    job: name.clone(),
                    diagnostics: soundness.diagnostics,
                });
            }
        }

        // analyze (opt-in): dataflow analyses over the lowered program;
        // their findings are warnings, recorded as counters
        if options.exec.analyze {
            let span = jt.span("analyze");
            let report = frodo_verify::analyze_compile(
                &analysis,
                &program,
                &frodo_verify::AnalyzeOptions::default(),
            );
            span.count("analyze_stmts", report.stmts as u64);
            span.count("analyze_diagnostics", report.diagnostics.len() as u64);
            span.count("analyze_residual_elements", report.residual_elements as u64);
            span.count(
                "analyze_dead_store_elements",
                report.lifetime.dead_store_elements as u64,
            );
        }

        let code = emit_c_traced(&program, options.keyed.emit, &jt);

        let metrics = JobMetrics::from_analysis(&analysis);
        if !self.config.no_cache {
            let evicted = self.cache.store(
                &hex,
                CachedArtifact {
                    code: code.clone(),
                    program: Some(program.clone()),
                    metrics,
                },
            );
            // conditional so caches without a cap keep ledger counters
            // byte-identical to pre-eviction runs
            if evicted > 0 {
                jt.count("svc_cache_evictions", evicted as u64);
            }
        }
        job_span.end();
        let timings = StageTimings::for_span(&trace, job_id);
        Ok(JobOutput {
            report: CompileReport {
                job: name,
                style,
                digest,
                cache: CacheStatus::Miss,
                metrics,
                timings,
                code_bytes: code.len(),
            },
            code,
            program: Some(program),
        })
    }
}

/// Reads a `.slx` or `.mdl` model file, recording parse sub-spans on
/// `trace`. The worker's `parse` stage reads [`JobSource::Path`] jobs
/// through it, and so does every front end that loads a model file.
///
/// # Errors
///
/// The path, prefixed to an I/O or format error, or to the note that the
/// extension is neither `.slx` nor `.mdl`.
pub fn load_model(path: &Path, trace: &Trace) -> Result<Model, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("slx") => {
            let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            read_slx(&bytes, trace).map_err(|e| format!("{}: {e}", path.display()))
        }
        Some("mdl") => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            read_mdl(&text, trace).map_err(|e| format!("{}: {e}", path.display()))
        }
        _ => Err(format!("{}: expected a .slx or .mdl file", path.display())),
    }
}

/// The cache key: a content digest over the flattened model's derived
/// `Debug` form, the generator style, and every keyed option. Taking [`KeyedOptions`] (not [`CompileOptions`]) makes
/// it impossible for an execution-only knob to split the cache.
///
/// The `Debug` form is streamed into the digest, never built as text.
/// It identifies the model: `Model`, `Block`, `BlockKind`, `Tensor`,
/// `Shape` and `Connection` derive `Debug`, so it prints every field
/// their `PartialEq` compares; strings print quoted and escaped, and
/// `f64` prints in its shortest round-trip form (`-0.0` and `0.0` stay
/// apart). A toolchain that formats `Debug` differently can only turn
/// on-disk cache hits into misses, never into wrong hits.
pub(crate) fn cache_key(
    flat: &Model,
    style: GeneratorStyle,
    options: &KeyedOptions,
) -> ContentDigest {
    let mut digest = DigestWriter::new();
    // writing into a DigestWriter never fails
    let _ = write!(digest, "{flat:?}");
    digest.update(style.label().as_bytes());
    let _ = write!(
        digest,
        ";dead_ends={};coalesce={};shared_conv={};vectorize={:?};window_reuse={};profile={}",
        options.range.eliminate_dead_ends,
        options.lower.coalesce_gap,
        options.emit.shared_conv_helper,
        options.emit.vectorize,
        options.lower.window_reuse,
        options.emit.profile
    );
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, BlockKind};
    use frodo_ranges::Shape;

    fn gain_model(gain: f64) -> Model {
        let mut m = Model::new("g");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(8),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain }));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, o, 0).unwrap();
        m
    }

    #[test]
    fn cache_key_separates_content_style_and_options() {
        let base = gain_model(2.0)
            .flattened(&frodo_obs::Trace::noop())
            .unwrap();
        let opts = KeyedOptions::default();
        let k0 = cache_key(&base, GeneratorStyle::Frodo, &opts);
        // same content, same key
        assert_eq!(k0, cache_key(&base, GeneratorStyle::Frodo, &opts));
        // different model content
        let other = gain_model(3.0)
            .flattened(&frodo_obs::Trace::noop())
            .unwrap();
        assert_ne!(k0, cache_key(&other, GeneratorStyle::Frodo, &opts));
        // different style
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Hcg, &opts));
        // different lowering option
        let mut coalesce0 = opts;
        coalesce0.lower.coalesce_gap = 0;
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Frodo, &coalesce0));
        // different emission option
        let mut shared = opts;
        shared.emit.shared_conv_helper = true;
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Frodo, &shared));
        // different vectorization mode
        let mut vec = opts;
        vec.emit.vectorize = frodo_codegen::VectorMode::Batch(8);
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Frodo, &vec));
        // different reuse setting
        let mut reuse = opts;
        reuse.lower.window_reuse = true;
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Frodo, &reuse));
        // profiled emission must not share a slot with plain emission
        let mut prof = opts;
        prof.emit.profile = true;
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Frodo, &prof));
    }

    #[test]
    fn single_compile_hit_and_no_cache_mode() {
        let service = CompileService::with_defaults();
        let spec = JobSpec::from_model("g", gain_model(2.0), GeneratorStyle::Frodo);
        let first = service.compile(spec).unwrap();
        assert_eq!(first.report.cache, CacheStatus::Miss);
        assert!(first.program.is_some());
        assert_eq!(first.report.metrics.blocks, 3);

        let again = service
            .compile(JobSpec::from_model(
                "g",
                gain_model(2.0),
                GeneratorStyle::Frodo,
            ))
            .unwrap();
        assert_eq!(again.report.cache, CacheStatus::Memory);
        assert_eq!(again.code, first.code);
        assert!(again.program.is_some());
        // hits skip analysis: no dfg/lower/emit time is attributed
        assert_eq!(again.report.timings.dfg, std::time::Duration::ZERO);
        assert_eq!(again.report.timings.emit, std::time::Duration::ZERO);

        let uncached = CompileService::new(ServiceConfig {
            no_cache: true,
            ..ServiceConfig::default()
        });
        let a = uncached
            .compile(JobSpec::from_model(
                "g",
                gain_model(2.0),
                GeneratorStyle::Frodo,
            ))
            .unwrap();
        let b = uncached
            .compile(JobSpec::from_model(
                "g",
                gain_model(2.0),
                GeneratorStyle::Frodo,
            ))
            .unwrap();
        assert_eq!(a.report.cache, CacheStatus::Miss);
        assert_eq!(b.report.cache, CacheStatus::Miss);
        assert_eq!(a.code, b.code);
        assert_eq!(uncached.cache_stats().entries, 0);
    }

    #[test]
    fn traced_jobs_share_a_sink_with_isolated_timings() {
        use std::time::Duration;
        let service = CompileService::with_defaults();
        let trace = Trace::new();
        let spec = |_: usize| {
            JobSpec::from_model("g", gain_model(2.0), GeneratorStyle::Frodo).with_trace(&trace)
        };
        let first = service.compile(spec(0)).unwrap();
        let again = service.compile(spec(1)).unwrap();
        let snap = trace.snapshot();
        assert_eq!(snap.spans.iter().filter(|s| s.name == "job:g").count(), 2);
        assert_eq!(trace.counter_total("cache_hits"), 1);
        // per-job timings come from each job's own subtree, not the sum
        assert!(first.report.timings.emit > Duration::ZERO);
        assert_eq!(again.report.timings.emit, Duration::ZERO);
        assert!(again.report.timings.cache > Duration::ZERO);
    }

    #[test]
    fn verified_compile_passes_and_records_the_stage() {
        let service = CompileService::new(ServiceConfig {
            no_cache: true,
            ..ServiceConfig::default()
        });
        let trace = Trace::new();
        let spec = JobSpec::from_model("g", gain_model(2.0), GeneratorStyle::Frodo)
            .with_options(CompileOptions::builder().verify(true).build())
            .with_trace(&trace);
        let out = service.compile(spec).unwrap();
        assert!(!out.code.is_empty());
        assert!(trace.counter_total("verify_stmts") > 0);
        assert!(trace.counter_total("verify_buffers") > 0);
        assert_eq!(trace.counter_total("verify_outputs"), 1);
        assert_eq!(trace.counter_total("verify_diagnostics"), 0);
        assert!(trace.snapshot().spans.iter().any(|s| s.name == "verify"));
    }

    #[test]
    fn analyze_option_runs_the_dataflow_stage_and_passes_clean_models() {
        let trace = Trace::new();
        let spec = JobSpec::from_model("g", gain_model(3.0), GeneratorStyle::Frodo)
            .with_options(CompileOptions::builder().analyze(true).build())
            .with_trace(&trace);
        let out = CompileService::new(ServiceConfig {
            no_cache: true,
            ..ServiceConfig::default()
        })
        .compile(spec)
        .unwrap();
        assert!(!out.code.is_empty());
        assert!(trace.counter_total("analyze_stmts") > 0);
        assert_eq!(trace.counter_total("analyze_diagnostics"), 0);
        assert_eq!(trace.counter_total("analyze_residual_elements"), 0);
        assert!(trace.snapshot().spans.iter().any(|s| s.name == "analyze"));
    }

    #[test]
    fn cache_key_is_invariant_under_every_exec_option() {
        // the key's signature only admits KeyedOptions, so any combination
        // of exec knobs maps to the same key by construction; assert it
        // end to end through the builder anyway
        let base = gain_model(2.0)
            .flattened(&frodo_obs::Trace::noop())
            .unwrap();
        let plain = CompileOptions::default();
        let exec_heavy = CompileOptions::builder()
            .verify(true)
            .timeout_ms(1234)
            .build();
        assert_eq!(plain.keyed, exec_heavy.keyed);
        assert_ne!(plain.exec, exec_heavy.exec);
        assert_eq!(
            cache_key(&base, GeneratorStyle::Frodo, &plain.keyed),
            cache_key(&base, GeneratorStyle::Frodo, &exec_heavy.keyed)
        );
        // every ExecOptions field, one at a time
        for exec in [
            ExecOptions {
                verify: true,
                ..ExecOptions::default()
            },
            ExecOptions {
                analyze: true,
                ..ExecOptions::default()
            },
            ExecOptions {
                timeout_ms: 99,
                ..ExecOptions::default()
            },
        ] {
            let opts = CompileOptions {
                keyed: plain.keyed,
                exec,
            };
            assert_eq!(
                cache_key(&base, GeneratorStyle::Frodo, &plain.keyed),
                cache_key(&base, GeneratorStyle::Frodo, &opts.keyed)
            );
        }
    }

    #[test]
    fn builder_and_bad_path_errors() {
        let service = CompileService::with_defaults();
        let err = service
            .compile(JobSpec::from_builder("nope", GeneratorStyle::Frodo, || {
                Err("builder says no".to_string())
            }))
            .unwrap_err();
        assert!(matches!(err, JobError::Load { .. }));
        assert_eq!(err.job(), "nope");

        let err = service
            .compile(JobSpec::from_path(
                "/does/not/exist.mdl",
                GeneratorStyle::Frodo,
            ))
            .unwrap_err();
        assert!(matches!(err, JobError::Load { .. }));
    }

    #[test]
    fn batch_preserves_submission_order_and_isolates_panics() {
        let service = CompileService::new(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let specs = vec![
            JobSpec::from_model("a", gain_model(1.0), GeneratorStyle::Frodo),
            JobSpec::from_builder("boom", GeneratorStyle::Frodo, || {
                panic!("deliberate test panic")
            }),
            JobSpec::from_model("c", gain_model(4.0), GeneratorStyle::Frodo),
        ];
        let report = service.compile_batch(specs);
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.jobs[0].as_ref().unwrap().report.job, "a");
        match &report.jobs[1] {
            Err(JobError::Panicked { job, message }) => {
                assert_eq!(job, "boom");
                assert!(message.contains("deliberate test panic"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(report.jobs[2].as_ref().unwrap().report.job, "c");
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.failed(), 1);
        let table = report.render_table();
        assert!(table.contains("boom"));
        assert!(table.contains("2 ok, 1 failed"));
        let lines = report.machine_lines();
        assert!(lines.contains("frodo-batch jobs=3 ok=2 failed=1"));
    }
}
