//! # frodo-driver — the batch compilation service
//!
//! The rest of the workspace compiles one model at a time: the paper's
//! pipeline (parse → flatten → I/O mapping → Algorithm 1 → concise
//! codegen) behind one function call. This crate is the layer that turns
//! that pipeline into a *service* able to take production-scale traffic:
//!
//! - **Batching & parallelism** — [`CompileService::compile_batch`] runs
//!   a batch on the calling thread plus up to `workers − 1` scoped
//!   threads, which take jobs in submission order from one shared queue;
//!   each job compiles on the one thread that took it, and its result
//!   lands in its own slot. Jobs are panic-isolated: a poisoned job
//!   becomes a [`JobError`] in its result slot, the rest of the batch
//!   completes. [`JobPool`] is the daemon's long-lived pool, with
//!   admission control, per-client fairness and drain.
//! - **Content-addressed caching** — every artifact is keyed by a digest
//!   ([`frodo_slx::fnv`]) of the *flattened* model plus every option that
//!   affects the generated C and the emitter's revision ([`cache_key`]),
//!   so artifacts of an older emitter miss. The model's fields go into
//!   the digest by value ([`Model::digest_into`]), so nothing is
//!   formatted to hash it. Resubmitting an unchanged model skips
//!   analysis and emission entirely; an optional on-disk layer persists
//!   artifacts across processes. Hit/miss counters are exposed via
//!   [`CompileService::cache_stats`].
//! - **Pipeline observability** — every job records its stages into a
//!   [`frodo_obs::Trace`] of its own and derives monotonic per-stage
//!   timings from that whole trace ([`StageTimings`]: parse, flatten,
//!   hash, cache, dfg, iomap, ranges, classify, lower, emit). When the
//!   job ends, ok or failed, its trace is handed once to the caller's
//!   sink ([`JobSpec::with_trace`] /
//!   [`CompileService::compile_batch_traced`]) through
//!   [`Trace::graft`]. Jobs also report redundancy counters (blocks
//!   analyzed, optimizable blocks, elements eliminated), rendered as a
//!   human table ([`BatchReport::render_table`]), machine lines
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
use frodo_codegen::{
    emit_c_traced, generate_with, CEmitOptions, GeneratorStyle, LowerOptions, VectorMode,
};
use frodo_core::{Analysis, RangeOptions};
use frodo_model::Model;
use frodo_obs::Trace;
use frodo_slx::fnv::{ContentDigest, DigestWriter};
use frodo_slx::{read_mdl, read_slx};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// The options that only affect *how* a job executes, never *what* it
/// produces. The type split (instead of the old per-field "excluded from
/// the cache key" comments) makes the cache keys correct by construction:
/// [`cache_key`] takes [`CEmitOptions`] and cannot see these.
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
    /// checks and the residual-redundancy detector. Their findings are
    /// warnings, recorded as counters only; they never fail the job. Like
    /// `verify`, this never changes the generated C and is excluded from
    /// every cache key.
    pub analyze: bool,
    /// Wall-clock budget for the whole job in milliseconds; `0` means no
    /// limit. Enforced by batches ([`CompileService::compile_batch`]) and
    /// the daemon's pool ([`JobPool`]): the job runs on a detached runner
    /// thread, and an overrunning job is abandoned there and fails with
    /// [`JobError::Timeout`], so a hung job never holds a batch or a
    /// worker forever. Direct [`CompileService::compile`] calls run on the
    /// calling thread and do not enforce it.
    pub timeout_ms: u64,
}

/// Every compile knob, split into the half that shapes the generated C
/// (the emission options, digested into cache keys) and the half that
/// only shapes execution ([`ExecOptions`], invisible to every cache).
/// Range determination and lowering always run with their defaults
/// ([`RangeOptions::default`], [`LowerOptions::default`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileOptions {
    /// Emission options, digested into the artifact cache key.
    pub keyed: CEmitOptions,
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
    /// Shared convolution helper emission (keyed).
    pub fn shared_conv_helper(mut self, on: bool) -> Self {
        self.options.keyed.shared_conv_helper = on;
        self
    }

    /// Vectorization mode of the emitted C (keyed).
    pub fn vectorize(mut self, mode: frodo_codegen::VectorMode) -> Self {
        self.options.keyed.vectorize = mode;
        self
    }

    /// Self-profiling emission hooks in the generated C (keyed — the
    /// hooks change the emitted bytes, so profiled and plain artifacts
    /// must never share a cache slot).
    pub fn profile(mut self, on: bool) -> Self {
        self.options.keyed.profile = on;
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
    /// Trace sink that receives the job's trace whole when the job ends.
    /// Defaults to [`Trace::noop`], which receives nothing. The job itself
    /// always records into a trace of its own, the source of the report's
    /// [`StageTimings`].
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

    /// Attaches a trace sink: when the job ends, ok or failed, its own
    /// trace (a `job:{name}` root span over the stage spans, with their
    /// counters) is grafted there under the sink's ambient parent.
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
    /// The job overran its [`ExecOptions::timeout_ms`] budget and was
    /// abandoned by its batch or pool.
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
    /// Threads a batch compiles on, the calling thread among them, and
    /// the threads of a [`JobPool`] over the service; `0` means one per
    /// available core, resolved once by [`CompileService::new`].
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
/// artifact cache — that is how timeout runners, [`JobPool`] workers and
/// a daemon's many connections serve one cache.
#[derive(Debug, Clone)]
pub struct CompileService {
    config: ServiceConfig,
    cache: std::sync::Arc<ArtifactCache>,
}

impl CompileService {
    /// Creates a service from `config`, resolving `workers: 0` to the
    /// available core count.
    pub fn new(mut config: ServiceConfig) -> Self {
        if config.workers == 0 {
            config.workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
        }
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

    /// The worker count batches and pools run with.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Compiles a batch; results come back in submission order.
    pub fn compile_batch(&self, specs: Vec<JobSpec>) -> BatchReport {
        self.compile_batch_traced(specs, &Trace::noop())
    }

    /// Compiles a batch into `trace` under a shared `batch` root span.
    /// Each job records into a trace of its own, which gives it isolated
    /// [`StageTimings`], and grafts that trace under `batch` when it ends,
    /// so the tree shows each job's subtree in one piece. Per-job wall
    /// clocks land in the `job_total_ns` histogram, each job's wait for a
    /// thread in `queue_wait_ns` and each thread's busy time in
    /// `worker_busy_ns`; the trace rides on the report for
    /// [`BatchReport::render_trace`].
    ///
    /// `min(workers, jobs)` threads compile: the calling thread and
    /// scoped threads it spawns, so `workers: 1` spawns none. Each takes
    /// the next job in submission order and writes its result to that
    /// job's slot. Jobs are panic-isolated, and a job with
    /// [`ExecOptions::timeout_ms`] runs on a detached runner thread that
    /// the batch abandons on overrun.
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
        let jobs = self.run_batch(specs, workers, &bt);
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

    /// Runs `specs` on the calling thread plus `min(workers, jobs) − 1`
    /// scoped threads, all taking jobs from one queue in submission order.
    fn run_batch(
        &self,
        specs: Vec<JobSpec>,
        workers: usize,
        trace: &Trace,
    ) -> Vec<Result<JobOutput, JobError>> {
        let n = specs.len();
        let queued = Instant::now();
        let queue = Mutex::new(specs.into_iter().enumerate());
        let work = || {
            let mut done = Vec::new();
            let mut busy_ns = 0u128;
            loop {
                let next = queue.lock().unwrap().next();
                let Some((slot, spec)) = next else { break };
                trace.observe("queue_wait_ns", queued.elapsed().as_nanos() as f64);
                let started = Instant::now();
                done.push((slot, lifecycle::run_job(self, spec)));
                busy_ns += started.elapsed().as_nanos();
            }
            if busy_ns > 0 {
                trace.observe("worker_busy_ns", busy_ns as f64);
            }
            done
        };
        let mut finished = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(work)).collect();
            let mut finished = work();
            for helper in helpers {
                finished.extend(helper.join().expect("job panics are caught per job"));
            }
            finished
        });
        // every slot was taken exactly once
        finished.sort_unstable_by_key(|&(slot, _)| slot);
        finished.into_iter().map(|(_, result)| result).collect()
    }

    /// Compiles one job on the calling thread.
    ///
    /// Every stage records a span on a trace of the job's own, under a
    /// `job:{name}` root; the report's [`StageTimings`] are derived from
    /// that whole trace. When the job ends, ok or failed, the trace is
    /// grafted into the sink attached via [`JobSpec::with_trace`], so many
    /// jobs can share one sink and still be told apart.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Load`] when the model cannot be obtained and
    /// [`JobError::Analysis`] when the pipeline rejects it. (Panic
    /// isolation is the batch path's job; this call propagates panics.)
    pub fn compile(&self, mut spec: JobSpec) -> Result<JobOutput, JobError> {
        let trace = Trace::new();
        let sink = std::mem::take(&mut spec.trace);
        let result = self.compile_into(spec, &trace);
        sink.graft(&trace);
        result
    }

    /// [`Self::compile`]'s pipeline, recording into the job's own `trace`.
    fn compile_into(&self, spec: JobSpec, trace: &Trace) -> Result<JobOutput, JobError> {
        let JobSpec {
            name,
            source,
            style,
            options,
            trace: _,
        } = spec;
        let job_span = trace.span(&format!("job:{name}"));
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
                return Ok(JobOutput {
                    report: CompileReport {
                        job: name,
                        style,
                        digest,
                        cache: status,
                        metrics: art.metrics,
                        timings: StageTimings::from_trace(trace),
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
        let analysis = Analysis::run_traced(flat, RangeOptions::default(), &jt).map_err(|e| {
            JobError::Analysis {
                job: name.clone(),
                message: e.to_string(),
            }
        })?;

        // lower (records its own span), then verify, analyze and emit
        let program = generate_with(&analysis, style, LowerOptions::default(), &jt);
        let (code, metrics) = finish_compile(&name, &analysis, &program, &options, &jt)?;

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
        Ok(JobOutput {
            report: CompileReport {
                job: name,
                style,
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

/// What both compile paths ([`CompileService::compile`] and
/// [`CompileSession::compile`]) do after lowering: the opt-in verify and
/// analyze stages, then emission, then the job's metrics.
///
/// # Errors
///
/// [`JobError::Verify`] when [`ExecOptions::verify`] is on and the
/// checker finds the lowered program unsound; nothing is emitted then.
fn finish_compile(
    job: &str,
    analysis: &Analysis,
    program: &Program,
    options: &CompileOptions,
    trace: &Trace,
) -> Result<(String, JobMetrics), JobError> {
    // verify (opt-in): certify the lowered program against the analysis
    // before anything is emitted or cached
    if options.exec.verify {
        let span = trace.span("verify");
        let soundness = frodo_verify::check_compile(analysis, program);
        span.count("verify_stmts", soundness.stmts_checked as u64);
        span.count("verify_buffers", soundness.buffers_checked as u64);
        span.count("verify_outputs", soundness.outputs_checked as u64);
        span.count("verify_diagnostics", soundness.diagnostics.len() as u64);
        if !soundness.is_sound() {
            return Err(JobError::Verify {
                job: job.to_string(),
                diagnostics: soundness.diagnostics,
            });
        }
    }

    // analyze (opt-in): dataflow analyses over the lowered program; their
    // findings are warnings, recorded as counters
    if options.exec.analyze {
        let span = trace.span("analyze");
        let report = frodo_verify::analyze_compile(analysis, program);
        span.count("analyze_stmts", report.stmts as u64);
        span.count("analyze_diagnostics", report.diagnostics.len() as u64);
        span.count("analyze_residual_elements", report.residual_elements as u64);
    }

    let code = emit_c_traced(program, options.keyed, trace);
    Ok((code, JobMetrics::from_analysis(analysis)))
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

/// The artifact-cache key: a content digest over the emitter revision
/// ([`frodo_codegen::EMIT_REVISION`]), the flattened model, the
/// generator style, and every emission option. Taking [`CEmitOptions`]
/// (not [`CompileOptions`]) makes it impossible for an execution-only
/// knob to split the cache.
///
/// The model goes in by value through [`Model::digest_into`]: names
/// length-prefixed, integers at a fixed width, every `f64` by its bits,
/// so `-0.0` and `0.0` key apart (their C differs). The options are
/// destructured field by field, so a new keyed option does not compile
/// until it is digested. Nothing is formatted, so the key does not
/// depend on how a toolchain prints a value.
pub fn cache_key(flat: &Model, style: GeneratorStyle, options: &CEmitOptions) -> ContentDigest {
    cache_key_at(flat, style, options, frodo_codegen::EMIT_REVISION)
}

/// [`cache_key`] for the C of emitter revision `revision`.
fn cache_key_at(
    flat: &Model,
    style: GeneratorStyle,
    options: &CEmitOptions,
    revision: u32,
) -> ContentDigest {
    let CEmitOptions {
        shared_conv_helper,
        vectorize,
        profile,
    } = *options;
    let (mode, width) = match vectorize {
        VectorMode::Auto => (0, 0),
        VectorMode::Hints => (1, 0),
        VectorMode::Batch(w) => (2, w),
    };
    let mut digest = DigestWriter::new();
    digest.update(&revision.to_le_bytes());
    flat.digest_into(&mut digest);
    digest.update(style.label().as_bytes());
    digest.update(&[shared_conv_helper as u8, profile as u8, mode]);
    digest.update(&(width as u64).to_le_bytes());
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, BlockKind};
    use frodo_ranges::Shape;
    use std::collections::HashSet;
    use std::sync::{mpsc, Arc, Condvar};
    use std::thread::ThreadId;
    use std::time::Duration;

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
        let opts = CEmitOptions::default();
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
        // different emission option
        let mut shared = opts;
        shared.shared_conv_helper = true;
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Frodo, &shared));
        // different vectorization mode
        let mut vec = opts;
        vec.vectorize = VectorMode::Batch(8);
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Frodo, &vec));
        // profiled emission must not share a slot with plain emission
        let mut prof = opts;
        prof.profile = true;
        assert_ne!(k0, cache_key(&base, GeneratorStyle::Frodo, &prof));
    }

    #[test]
    fn cache_key_changes_with_the_emitter_revision() {
        let flat = gain_model(2.0)
            .flattened(&frodo_obs::Trace::noop())
            .unwrap();
        let opts = CEmitOptions::default();
        let rev = frodo_codegen::EMIT_REVISION;
        let key = cache_key(&flat, GeneratorStyle::Frodo, &opts);
        assert_eq!(key, cache_key_at(&flat, GeneratorStyle::Frodo, &opts, rev));
        assert_ne!(
            key,
            cache_key_at(&flat, GeneratorStyle::Frodo, &opts, rev - 1)
        );
        assert_ne!(
            key,
            cache_key_at(&flat, GeneratorStyle::Frodo, &opts, rev + 1)
        );
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
        // the key's signature only admits CEmitOptions, so any combination
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

    fn uncached(workers: usize) -> CompileService {
        CompileService::new(ServiceConfig {
            workers,
            no_cache: true,
            ..ServiceConfig::default()
        })
    }

    /// A job whose builder records the thread it runs on, after `hold`.
    fn recording_job(
        name: String,
        seen: &Arc<Mutex<Vec<ThreadId>>>,
        hold: impl FnOnce() + Send + 'static,
    ) -> JobSpec {
        let seen = Arc::clone(seen);
        JobSpec::from_builder(name, GeneratorStyle::Frodo, move || {
            hold();
            seen.lock().unwrap().push(std::thread::current().id());
            Ok(gain_model(2.0))
        })
    }

    #[test]
    fn one_worker_batch_runs_every_job_on_the_calling_thread() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let specs = (0..4)
            .map(|i| recording_job(format!("j{i}"), &seen, || {}))
            .collect();
        let report = uncached(1).compile_batch(specs);
        assert_eq!(report.succeeded(), 4);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|&t| t == std::thread::current().id()));
    }

    #[test]
    fn batch_runs_on_the_caller_and_at_most_workers_threads() {
        // the first three jobs each wait until all three have started, so
        // three threads must hold them at once: the caller and its two
        // helpers (a 10 s cap turns a missing thread into a failure, not
        // a hang)
        let started = Arc::new((Mutex::new(0usize), Condvar::new()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let specs = (0..10)
            .map(|i| {
                let started = Arc::clone(&started);
                recording_job(format!("j{i}"), &seen, move || {
                    if i < 3 {
                        let (count, all) = &*started;
                        let mut count = count.lock().unwrap();
                        *count += 1;
                        all.notify_all();
                        let _ = all
                            .wait_timeout_while(count, Duration::from_secs(10), |c| *c < 3)
                            .unwrap();
                    }
                })
            })
            .collect();
        let report = uncached(3).compile_batch(specs);
        assert_eq!(report.succeeded(), 10);
        assert_eq!(report.workers, 3);
        let threads: HashSet<ThreadId> = seen.lock().unwrap().iter().copied().collect();
        assert_eq!(threads.len(), 3, "{threads:?}");
        assert!(threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn panicking_and_hung_jobs_fail_in_their_own_slots() {
        // never opened: the hung job's builder would block forever
        let (_open, gate) = mpsc::channel::<()>();
        let hung = JobSpec::from_builder("hung", GeneratorStyle::Frodo, move || {
            gate.recv().map_err(|e| e.to_string())?;
            Ok(gain_model(2.0))
        })
        .with_options(CompileOptions::builder().timeout_ms(50).build());
        let specs = vec![
            JobSpec::from_model("a", gain_model(1.0), GeneratorStyle::Frodo),
            JobSpec::from_builder("boom", GeneratorStyle::Frodo, || {
                panic!("deliberate test panic")
            }),
            hung,
            JobSpec::from_model("d", gain_model(4.0), GeneratorStyle::Frodo),
        ];
        let trace = Trace::new();
        let report = uncached(2).compile_batch_traced(specs, &trace);
        let names: Vec<&str> = report
            .jobs
            .iter()
            .map(|j| match j {
                Ok(out) => out.report.job.as_str(),
                Err(e) => e.job(),
            })
            .collect();
        assert_eq!(names, ["a", "boom", "hung", "d"]);
        assert!(report.jobs[0].is_ok() && report.jobs[3].is_ok());
        assert!(matches!(report.jobs[1], Err(JobError::Panicked { .. })));
        assert_eq!(
            report.jobs[2].as_ref().unwrap_err(),
            &JobError::Timeout {
                job: "hung".to_string(),
                timeout_ms: 50
            }
        );
        // counted once, from the results
        let entry = report.ledger_entry("t").unwrap();
        assert_eq!(entry.counter("svc_job_timeouts"), 0);
        assert_eq!(entry.svc.unwrap().job_timeouts, 1);
    }

    #[test]
    fn traced_batch_shows_each_job_subtree_in_one_piece_with_its_own_timings() {
        let specs = ["a", "b"]
            .into_iter()
            .map(|n| JobSpec::from_model(n, gain_model(2.0), GeneratorStyle::Frodo))
            .collect();
        let trace = Trace::new();
        let report = uncached(2).compile_batch_traced(specs, &trace);
        let snap = trace.snapshot();
        let batch = snap.spans.iter().find(|s| s.name == "batch").unwrap();
        let tree = report.render_trace().unwrap();
        let lines: Vec<&str> = tree.lines().collect();
        for (job, out) in ["job:a", "job:b"].iter().zip(&report.jobs) {
            let root = snap.spans.iter().find(|s| s.name == *job).unwrap();
            assert_eq!(root.parent, batch.id);
            let mut subtree = vec![root];
            let mut i = 0;
            while i < subtree.len() {
                let id = subtree[i].id;
                subtree.extend(snap.spans.iter().filter(|s| s.parent == id));
                i += 1;
            }
            // the job's ids are one range, starting at its root
            let mut ids: Vec<u32> = subtree.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            let want: Vec<u32> = (root.id..root.id + ids.len() as u32).collect();
            assert_eq!(ids, want, "{job}");
            // its rendered lines are the root line and the next ones, one
            // per span of the subtree, none of the other job's among them
            let at = lines.iter().position(|l| l.contains(job)).unwrap();
            let block = &lines[at..at + subtree.len()];
            assert!(block[1..].iter().all(|l| !l.contains("job:")), "{tree}");
            // timings come from the job's own spans, not the batch's sum
            let emit: u64 = subtree
                .iter()
                .filter(|s| s.name == "emit")
                .map(|s| s.dur_ns)
                .sum();
            let timings = out.as_ref().unwrap().report.timings;
            assert_eq!(timings.emit.as_nanos() as u64, emit, "{job}");
        }
    }

    #[test]
    fn traced_batch_records_one_wait_per_job_and_one_busy_time_per_thread() {
        let specs = (0..7)
            .map(|i| {
                JobSpec::from_model(format!("j{i}"), gain_model(i as f64), GeneratorStyle::Frodo)
            })
            .collect();
        let trace = Trace::new();
        let report = uncached(3).compile_batch_traced(specs, &trace);
        assert_eq!(report.succeeded(), 7);
        let snap = trace.snapshot();
        let observations = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, h)| h.count())
        };
        assert_eq!(observations("queue_wait_ns"), 7);
        let busy = observations("worker_busy_ns");
        assert!((1..=3).contains(&busy), "{busy} busy-time observations");
    }
}
