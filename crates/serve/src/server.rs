//! The daemon: listener, per-connection handlers, and the request
//! dispatch onto the shared [`JobPool`].
//!
//! One accept thread takes connections off the unix (or TCP) listener
//! and hands each to its own handler thread; handlers parse NDJSON
//! request lines, each at most [`MAX_REQUEST_LINE`] bytes, and answer on
//! the same connection (a line that is not UTF-8 gets an `error` and the
//! next line is read). All compile work funnels through one [`JobPool`]
//! over one [`CompileService`], so every connection shares the artifact
//! cache, the admission queue, and the fairness ring. The daemon keeps no
//! trace: each job gets a fresh [`Trace`], which its handler folds into
//! one bounded [`AggFold`] when the job ends and then drops. The final
//! ledger entry reads that aggregate and the pool; `status` reads the
//! pool and the cache.
//!
//! Shutdown (the `shutdown` request) drains the pool — in-flight and
//! queued jobs complete, new submissions are rejected with `draining` —
//! flushes a final [`LedgerEntry`] when the server was started with a
//! ledger path, acks the requester, and then stops the accept loop by
//! dialing itself awake.

use crate::client::{Endpoint, Stream};
use crate::proto::{self, Request, RequestOptions};
use crate::resolve::{job_name, job_spec_for, resolve_model};
use frodo_codegen::GeneratorStyle;
use frodo_driver::{
    CompileService, CompileSession, JobPool, JobTicket, PoolConfig, ServiceConfig, SessionStats,
    SubmitError,
};
use frodo_obs::{
    append_entry, ndjson, AggFold, Histogram, LedgerEntry, RollingWindow, ServiceMetrics, Trace,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Worker threads for the shared pool; `0` = one per core.
    pub workers: usize,
    /// Admission-queue capacity; `0` = unbounded (no backpressure).
    pub queue_cap: usize,
    /// On-disk artifact cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Byte cap per artifact-cache layer; `0` = unbounded.
    pub cache_cap_bytes: usize,
    /// Appends a final ledger entry here on shutdown.
    pub ledger_out: Option<PathBuf>,
}

/// Fairness buckets for connections that do not name a `client` start
/// above this bound, so they can never collide with client-chosen ids.
const CONN_CLIENT_BASE: u64 = 1 << 32;

/// The longest request line the daemon reads, in bytes, newline
/// excluded. The connection loop never buffers more: a longer line gets
/// an `error` reply that names this cap, and its connection is closed.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Width of the `metrics` verb's rolling latency window.
const METRICS_WINDOW_SECS: u64 = 60;

/// Request verbs tracked by the per-verb latency windows, in the order
/// the `metrics` response reports them.
const VERBS: [&str; 7] = [
    "compile",
    "lint",
    "batch",
    "recompile",
    "status",
    "metrics",
    "shutdown",
];

/// One verb's latency recorders: the rolling window the `metrics`
/// response reports, plus a lifetime histogram the shutdown ledger
/// entry folds into `svc_request_*`.
struct VerbStats {
    window: RollingWindow,
    lifetime: Histogram,
}

struct Shared {
    service: CompileService,
    pool: JobPool,
    /// Every finished job's trace, folded in bounded space: per-stage
    /// histograms, counter totals and the job count.
    agg: Mutex<AggFold>,
    endpoint: Endpoint,
    started: Instant,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    conn_seq: AtomicU64,
    /// Server-assigned `request_id` sequence for requests that do not
    /// carry their own.
    request_seq: AtomicU64,
    /// Per-verb request latency, indexed like [`VERBS`].
    verbs: Mutex<Vec<VerbStats>>,
    stopping: AtomicBool,
    ledger_out: Option<PathBuf>,
    /// Named incremental compile sessions (`recompile` requests), shared
    /// across connections. Each session serializes its own compiles;
    /// distinct sessions run concurrently.
    sessions: Mutex<HashMap<String, Arc<Mutex<CompileSession>>>>,
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// A running daemon. Dropping the handle does not stop it; send a
/// `shutdown` request (or call [`Server::wait`] from the CLI and let a
/// client do it).
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the endpoint and starts the accept loop and worker pool.
    /// A stale unix socket file at the path is removed first (the common
    /// leftover of a killed daemon).
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let listener = match &config.endpoint {
            Endpoint::Unix(path) => {
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)
                            .map_err(|e| format!("{}: {e}", dir.display()))?;
                    }
                }
                let _ = std::fs::remove_file(path);
                Listener::Unix(
                    UnixListener::bind(path).map_err(|e| format!("{}: {e}", path.display()))?,
                )
            }
            Endpoint::Tcp(addr) => {
                Listener::Tcp(TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?)
            }
        };
        let shared = Arc::new(Shared::new(config));
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The endpoint the daemon listens on.
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// Blocks until a `shutdown` request stops the daemon.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Shared {
    /// The daemon's state before any connection: the service, whose
    /// worker count the pool runs with, and empty tallies.
    fn new(config: ServerConfig) -> Shared {
        let service = CompileService::new(ServiceConfig {
            workers: config.workers,
            cache_dir: config.cache_dir,
            cache_cap_bytes: config.cache_cap_bytes,
            no_cache: false,
        });
        let pool = JobPool::start(
            &service,
            PoolConfig {
                queue_cap: config.queue_cap,
            },
        );
        Shared {
            service,
            pool,
            agg: Mutex::new(AggFold::default()),
            endpoint: config.endpoint,
            started: Instant::now(),
            jobs_ok: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            request_seq: AtomicU64::new(0),
            verbs: Mutex::new(
                (0..VERBS.len())
                    .map(|_| VerbStats {
                        window: RollingWindow::new(METRICS_WINDOW_SECS),
                        lifetime: Histogram::new(),
                    })
                    .collect(),
            ),
            stopping: AtomicBool::new(false),
            ledger_out: config.ledger_out,
            sessions: Mutex::new(HashMap::new()),
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        let conn = listener.accept();
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_conn(&shared, stream));
            }
            Err(_) => break,
        }
    }
    if let Endpoint::Unix(path) = &shared.endpoint {
        let _ = std::fs::remove_file(path);
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: Stream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let conn_client = CONN_CLIENT_BASE + shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // one byte past the cap tells an over-long line from one that
        // fits exactly
        match (&mut reader)
            .take(MAX_REQUEST_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            let error = proto::render_error(&format!(
                "request line longer than {MAX_REQUEST_LINE} bytes; closing the connection"
            ));
            let request_id = shared.request_seq.fetch_add(1, Ordering::Relaxed);
            let _ = write_responses(&mut writer, &[error], request_id);
            return;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            // unlike an over-long line, the newline framing is intact:
            // answer this line and read the next
            let error = proto::render_error("request line is not valid UTF-8");
            let request_id = shared.request_seq.fetch_add(1, Ordering::Relaxed);
            if write_responses(&mut writer, &[error], request_id).is_err() {
                return;
            }
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut stop_after = false;
        let (request_id, responses) = answer(shared, line, conn_client, &mut stop_after);
        if write_responses(&mut writer, &responses, request_id).is_err() {
            return;
        }
        if stop_after {
            stop_listener(shared);
            return;
        }
    }
}

/// Answers one request line: its correlation id and response lines. The
/// id is the client's `request_id` when the line carries one, a
/// server-assigned sequence number otherwise; every line the request
/// produces gets the same stamp. The request's wall time lands in its
/// verb's latency recorders.
fn answer(
    shared: &Arc<Shared>,
    line: &str,
    conn_client: u64,
    stop_after: &mut bool,
) -> (u64, Vec<String>) {
    let request_id = ndjson::parse_line(line)
        .ok()
        .and_then(|fields| ndjson::get_num(&fields, "request_id"))
        .map_or_else(
            || shared.request_seq.fetch_add(1, Ordering::Relaxed),
            |n| n as u64,
        );
    let started = Instant::now();
    let parsed = proto::parse_request(line);
    let verb_idx = parsed.as_ref().ok().map(verb_index);
    let responses = match parsed {
        Ok(request) => handle_request(shared, request, conn_client, stop_after),
        Err(message) => vec![proto::render_error(&message)],
    };
    if let Some(idx) = verb_idx {
        record_request(shared, idx, started.elapsed().as_nanos() as f64);
    }
    (request_id, responses)
}

/// Writes one request's response lines, each stamped with its
/// correlation id, and flushes them.
fn write_responses(
    writer: &mut Stream,
    responses: &[String],
    request_id: u64,
) -> std::io::Result<()> {
    for response in responses {
        writer.write_all(stamp_request_id(response, request_id).as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

/// Which [`VERBS`] slot a request records latency under.
fn verb_index(request: &Request) -> usize {
    match request {
        Request::Compile { .. } => 0,
        Request::Lint { .. } => 1,
        Request::Batch { .. } => 2,
        Request::Recompile { .. } => 3,
        Request::Status => 4,
        Request::Metrics => 5,
        Request::Shutdown => 6,
    }
}

/// Records one request's wall time into its verb's rolling window and
/// lifetime histogram.
fn record_request(shared: &Shared, verb_idx: usize, dur_ns: f64) {
    let now_sec = shared.started.elapsed().as_secs();
    let mut verbs = shared.verbs.lock().unwrap();
    let v = &mut verbs[verb_idx];
    v.window.record(now_sec, dur_ns);
    v.lifetime.record(dur_ns);
}

/// Prepends the correlation id onto a rendered response line. Every
/// renderer emits one non-empty flat object (`{"type":...`), so splicing
/// after the opening brace keeps the line valid JSON with `request_id`
/// first.
fn stamp_request_id(line: &str, id: u64) -> String {
    debug_assert!(line.len() > 2 && line.starts_with('{'));
    format!("{{\"request_id\":{id},{}", &line[1..])
}

/// Wakes the accept loop out of its blocking `accept` so it can exit.
fn stop_listener(shared: &Shared) {
    shared.stopping.store(true, Ordering::SeqCst);
    let _ = Stream::connect(&shared.endpoint);
}

fn handle_request(
    shared: &Arc<Shared>,
    request: Request,
    conn_client: u64,
    stop_after: &mut bool,
) -> Vec<String> {
    match request {
        Request::Compile {
            model,
            style,
            options,
            client,
        } => {
            let trace = Trace::new();
            let spec = match job_spec_for(&model, style) {
                Ok(spec) => spec
                    .with_options(options.compile_options())
                    .with_trace(&trace),
                Err(message) => return vec![proto::render_error(&message)],
            };
            match shared.pool.submit(client.unwrap_or(conn_client), spec) {
                Ok(ticket) => vec![finish_job(shared, ticket, &trace, options.trace).0],
                Err(e) => vec![render_submit_error(&e)],
            }
        }
        Request::Lint { model } => match resolve_model(&model) {
            Ok(m) => vec![proto::render_lint(&model, &frodo_verify::lint(&m))],
            Err(message) => vec![proto::render_error(&message)],
        },
        Request::Batch {
            models,
            styles,
            options,
            client,
        } => handle_batch(
            shared,
            &models,
            &styles,
            options,
            client.unwrap_or(conn_client),
        ),
        Request::Recompile {
            session,
            model,
            style,
            options,
            region_max,
        } => vec![handle_recompile(
            shared, &session, &model, style, options, region_max,
        )],
        Request::Status => {
            let uptime_ms = shared.started.elapsed().as_millis() as u64;
            vec![proto::render_status(
                &shared.pool.snapshot(),
                &shared.service.cache_stats(),
                uptime_ms,
                shared.jobs_ok.load(Ordering::Relaxed),
                shared.jobs_failed.load(Ordering::Relaxed),
            )]
        }
        Request::Metrics => {
            let uptime_ms = shared.started.elapsed().as_millis() as u64;
            let now_sec = shared.started.elapsed().as_secs();
            let verbs: Vec<proto::VerbMetrics> = {
                let stats = shared.verbs.lock().unwrap();
                VERBS
                    .iter()
                    .zip(stats.iter())
                    .map(|(&verb, v)| proto::VerbMetrics {
                        verb,
                        total: v.window.total(),
                        window: v.window.snapshot(now_sec),
                    })
                    .collect()
            };
            // sessions mid-compile hold their own lock for the whole
            // compile; skip those rather than stall the metrics endpoint
            let mut sessions: Vec<(String, SessionStats)> = shared
                .sessions
                .lock()
                .unwrap()
                .iter()
                .filter_map(|(name, s)| s.try_lock().ok().map(|sess| (name.clone(), sess.stats())))
                .collect();
            sessions.sort_by(|a, b| a.0.cmp(&b.0));
            vec![proto::render_metrics(
                uptime_ms,
                METRICS_WINDOW_SECS,
                &verbs,
                &sessions,
            )]
        }
        Request::Shutdown => {
            shared.pool.drain();
            let ledger = flush_ledger(shared);
            *stop_after = true;
            vec![proto::render_shutdown_ack(
                shared.pool.snapshot().completed,
                ledger.as_deref(),
            )]
        }
    }
}

/// Submits the whole grid before waiting on anything, so a batch keeps
/// the queue fed while earlier jobs run; results stream back in
/// submission order. Jobs the admission queue turns away are counted in
/// the `batch-done` terminator (resubmit those), never silently dropped.
fn handle_batch(
    shared: &Arc<Shared>,
    models: &[String],
    styles: &[frodo_codegen::GeneratorStyle],
    options: proto::RequestOptions,
    client: u64,
) -> Vec<String> {
    let mut specs = Vec::new();
    for model in models {
        for &style in styles {
            match job_spec_for(model, style) {
                Ok(spec) => specs.push(spec.with_options(options.compile_options())),
                Err(message) => return vec![proto::render_error(&message)],
            }
        }
    }
    // mirror the one-shot batch path, which counts its jobs on the batch
    // span — keeps serve ledger entries diffable against `frodo batch`
    shared.agg.lock().unwrap().count("jobs", specs.len() as u64);
    let total = specs.len();
    let mut tickets: Vec<(JobTicket, Trace)> = Vec::new();
    let mut rejected = 0usize;
    let mut draining = false;
    for spec in specs {
        if draining {
            rejected += 1;
            continue;
        }
        let trace = Trace::new();
        match shared.pool.submit(client, spec.with_trace(&trace)) {
            Ok(ticket) => tickets.push((ticket, trace)),
            Err(SubmitError::Full { .. }) => rejected += 1,
            Err(SubmitError::Draining) => {
                rejected += 1;
                draining = true;
            }
        }
    }
    let mut lines = Vec::new();
    let (mut ok, mut failed) = (0, 0);
    for (ticket, trace) in tickets {
        let (line, succeeded) = finish_job(shared, ticket, &trace, options.trace);
        if succeeded {
            ok += 1;
        } else {
            failed += 1;
        }
        lines.push(line);
    }
    lines.push(proto::render_batch_done(total, ok, failed, rejected));
    lines
}

/// Compiles through a named incremental session, creating it on first
/// use. The session pins the style, compile options, and region cap of
/// the request that created it (an absent cap is
/// [`frodo_driver::DEFAULT_REGION_MAX`]); a later request naming the same
/// session with any of them different is refused, not compiled with the
/// session's.
/// Runs inline on the connection handler (sessions own in-memory caches,
/// so their compiles cannot move across pool workers); the map lock is
/// held only for the lookup, so distinct sessions compile concurrently.
fn handle_recompile(
    shared: &Arc<Shared>,
    session: &str,
    model_ref: &str,
    style: GeneratorStyle,
    options: RequestOptions,
    region_max: Option<usize>,
) -> String {
    let model = match resolve_model(model_ref) {
        Ok(m) => m,
        Err(message) => return proto::render_error(&message),
    };
    let compile_options = options.compile_options();
    let region_max = region_max.unwrap_or(frodo_driver::DEFAULT_REGION_MAX);
    let entry = {
        let mut sessions = shared.sessions.lock().unwrap();
        Arc::clone(sessions.entry(session.to_string()).or_insert_with(|| {
            Arc::new(Mutex::new(
                CompileSession::builder(style)
                    .options(compile_options)
                    .region_max(region_max)
                    .build(),
            ))
        }))
    };
    let mut sess = entry.lock().unwrap();
    let clash = if sess.style() != style {
        Some(format!(
            "style {}; open another session for {}",
            sess.style().label(),
            style.label()
        ))
    } else if *sess.options() != compile_options {
        Some("other compile options; open another session for these".to_string())
    } else if sess.region_max() != region_max {
        Some(format!(
            "region_max {}; open another session for {region_max}",
            sess.region_max()
        ))
    } else {
        None
    };
    if let Some(pinned) = clash {
        return proto::render_error(&format!("session '{session}' is pinned to {pinned}"));
    }
    let trace = Trace::new();
    let result = sess.compile(&job_name(model_ref), model, &trace);
    shared.agg.lock().unwrap().add(&trace.snapshot());
    match result {
        Ok(out) => {
            shared.jobs_ok.fetch_add(1, Ordering::Relaxed);
            proto::render_recompile_result(&out, &sess.stats(), options.trace)
        }
        Err(e) => {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            proto::render_job_error(&e)
        }
    }
}

/// Waits a ticket out, folds the job's `trace` into the aggregate, and
/// renders the result, keeping the server-wide ok/failed tallies. The
/// flag is whether the job succeeded.
fn finish_job(
    shared: &Shared,
    ticket: JobTicket,
    trace: &Trace,
    with_stages: bool,
) -> (String, bool) {
    let result = ticket.wait();
    shared.agg.lock().unwrap().add(&trace.snapshot());
    match result {
        Ok(out) => {
            shared.jobs_ok.fetch_add(1, Ordering::Relaxed);
            (proto::render_result(&out, with_stages), true)
        }
        Err(e) => {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            (proto::render_job_error(&e), false)
        }
    }
}

fn render_submit_error(e: &SubmitError) -> String {
    match e {
        SubmitError::Draining => proto::render_draining(),
        SubmitError::Full {
            queued,
            retry_after_ms,
        } => proto::render_busy(*queued, *retry_after_ms),
    }
}

/// Writes one ledger entry, mirroring the one-shot batch path: per-stage
/// aggregates and counters from the folded jobs, service metrics from the
/// pool and cache. Returns the path written to.
fn flush_ledger(shared: &Shared) -> Option<String> {
    let path = shared.ledger_out.as_ref()?;
    let agg = shared.agg.lock().unwrap().finish();
    let wall_ns = shared.started.elapsed().as_nanos() as u64;
    let pool = shared.pool.snapshot();
    let mut entry = LedgerEntry::from_agg(&agg, "serve", pool.workers as u64, wall_ns);
    let cache = shared.service.cache_stats();
    let capacity_ns = wall_ns.saturating_mul(pool.workers as u64);
    // request-level rollup across every verb, over the daemon's lifetime
    // (the shutdown request itself is still in flight and not counted)
    let all_requests = {
        let verbs = shared.verbs.lock().unwrap();
        let mut all = Histogram::new();
        for v in verbs.iter() {
            all.merge(&v.lifetime);
        }
        all
    };
    entry.svc = Some(ServiceMetrics {
        cache_hits: cache.hits as u64,
        cache_misses: cache.misses as u64,
        queue_wait_p50_ns: pool.queue_wait_p50_ns,
        queue_wait_max_ns: pool.queue_wait_max_ns,
        worker_busy_ns: pool.busy_ns,
        utilization_pct: if capacity_ns == 0 {
            0.0
        } else {
            pool.busy_ns as f64 / capacity_ns as f64 * 100.0
        },
        cache_evictions: cache.evictions as u64,
        job_timeouts: pool.timeouts,
        requests_total: all_requests.count(),
        request_p50_ns: all_requests.percentile(50.0) as u64,
        request_max_ns: all_requests.max() as u64,
    });
    match append_entry(path, &entry) {
        Ok(()) => Some(path.display().to_string()),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass of a repeating request mix: cache-hit compiles (the first
    /// one misses), a batch, a recompile through one session, a status.
    const MIX: [&str; 10] = [
        r#"{"type":"compile","model":"kalman"}"#,
        r#"{"type":"compile","model":"kalman"}"#,
        r#"{"type":"compile","model":"kalman"}"#,
        r#"{"type":"compile","model":"kalman"}"#,
        r#"{"type":"compile","model":"kalman"}"#,
        r#"{"type":"compile","model":"kalman"}"#,
        r#"{"type":"batch","models":["HT"]}"#,
        r#"{"type":"recompile","session":"edit","model":"random:3:40"}"#,
        r#"{"type":"compile","model":"kalman","trace":1}"#,
        r#"{"type":"status"}"#,
    ];

    /// Jobs one pass of [`MIX`] runs.
    const MIX_JOBS: u64 = 9;

    #[test]
    fn a_repeating_mix_leaves_the_aggregate_the_same_size() {
        // answered without a listener: the endpoint is never bound
        let shared = Arc::new(Shared::new(ServerConfig {
            endpoint: Endpoint::Unix(std::env::temp_dir().join("frodo-never-bound.sock")),
            workers: 1,
            queue_cap: 0,
            cache_dir: None,
            cache_cap_bytes: 0,
            ledger_out: None,
        }));
        let pass = || {
            for line in MIX {
                let mut stop_after = false;
                let (_, responses) = answer(&shared, line, 1, &mut stop_after);
                assert!(!stop_after);
                for response in responses {
                    assert!(
                        !response.contains("\"type\":\"error\"") && !response.contains("\"ok\":0"),
                        "{line}: {response}"
                    );
                }
            }
        };
        // what the daemon keeps: the folded aggregate's stage and counter
        // entries, its sessions and its per-verb recorders
        let kept = || {
            let agg = shared.agg.lock().unwrap().finish();
            (
                agg.stages.len(),
                agg.counters.len(),
                shared.sessions.lock().unwrap().len(),
                shared.verbs.lock().unwrap().len(),
            )
        };
        pass();
        let after_first = kept();
        let passes = 200;
        for _ in 1..passes {
            pass();
        }
        assert_eq!(kept(), after_first);
        // ... while every job of every pass was folded in
        let agg = shared.agg.lock().unwrap().finish();
        assert_eq!(agg.jobs, passes * MIX_JOBS);
        assert_eq!(agg.stage("cache").unwrap().count, passes * 8);
        assert_eq!(agg.counter("cache_hits"), passes as i64 * 8 - 2);
        assert_eq!(agg.counter("jobs"), passes as i64);
        assert_eq!(shared.pool.snapshot().completed, passes * 8);
    }
}
