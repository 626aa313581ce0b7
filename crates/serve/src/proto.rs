//! The NDJSON wire protocol.
//!
//! One flat JSON object per line, in both directions, parsed and written
//! with [`frodo_obs::ndjson`] — the same format the trace exporter and
//! perf ledger speak, so one parser serves the whole workspace. The
//! hand-rolled parser has no boolean literals; **flags travel as `0`/`1`
//! numbers** (`"verify":1`).
//!
//! Request kinds (`"type"`):
//!
//! | type | fields |
//! |------|--------|
//! | `compile` | `model`, optional `style`, `verify`, `analyze`, `trace`, `timeout_ms`, `vectorize`, `client` |
//! | `lint` | `model` |
//! | `batch` | `models` (array), optional `styles` (comma list or `all`), plus the `compile` options |
//! | `recompile` | `session`, `model`, optional `style`, `region_max`, plus the `compile` options except `timeout_ms` |
//! | `status` | — |
//! | `metrics` | — |
//! | `shutdown` | — |
//!
//! `model` is a `.slx`/`.mdl` path (resolved server-side), a bundled
//! Table-1 benchmark name, or a `random:<seed>:<size>[:edit:<k>]` spec.
//! `vectorize` is `auto` (the default), `hints`, `batch` or `batch:<W>`;
//! any other label gets an `error` naming it.
//! `client` names the fairness bucket submissions queue under;
//! connections without one get a per-connection bucket. `recompile`
//! compiles through a named server-side [`frodo_driver::CompileSession`]:
//! resubmitting an edited model under the same `session` re-analyzes only
//! the regions the edit dirtied. The session pins the first request's
//! style, compile options and `region_max` (absent =
//! [`frodo_driver::DEFAULT_REGION_MAX`], `0` = one region per connected
//! component); a later request that differs in any of them gets an
//! `error`.
//!
//! `window_reuse` is retired: a `compile`, `batch` or `recompile` request
//! that states it nonzero gets an `error` naming it; `0` is accepted.
//!
//! Response kinds: `result` (one per job; `ok` 0/1; `recompile` results
//! add `regions`/`region_hits`/`dirty_blocks`/`fragment_hits`),
//! `lint-result`, `batch-done` (terminator after a batch's `result`
//! lines), `status`, `metrics` (rolling-window per-verb latency
//! histograms plus per-session cache stats), `busy` (admission
//! backpressure, with `retry_after_ms`), `draining`, `shutdown` (the
//! final ack), and `error` (malformed request).
//!
//! # Versioning
//!
//! This build speaks one wire-protocol version, [`PROTO_VERSION`], and
//! every response states it. A request may state it too; one without the
//! field is read as this version. A request stating any other version
//! gets a structured `error` response naming the one spoken — it is never
//! silently misparsed.
//!
//! # Request correlation
//!
//! The server stamps a `request_id` onto every response line: the
//! client-supplied `request_id` field when the request carried one, a
//! server-assigned sequence number otherwise. Every line a request
//! produces (a batch's whole `result` stream and its `batch-done`
//! terminator included) carries the same id, so clients multiplexing one
//! connection can correlate responses without counting lines. The stamp
//! is prepended by the connection loop, not the renderers here — the
//! renderers stay request-agnostic.

use frodo_codegen::{GeneratorStyle, VectorMode};
use frodo_driver::{CacheStats, CompileOptions, JobError, JobOutput, PoolSnapshot, SessionStats};
use frodo_obs::ndjson::{self, ObjWriter, Value};
use frodo_obs::Histogram;

/// The wire-protocol version this build speaks, and the only one it
/// accepts.
pub const PROTO_VERSION: u64 = 4;

/// Per-request compile options — the CLI surface, carried on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestOptions {
    /// Run the range-soundness checker (`verify`, as 0/1).
    pub verify: bool,
    /// Run the dataflow analyses (`analyze`, as 0/1).
    pub analyze: bool,
    /// Include per-stage timings in each `result` line (`trace`, as 0/1).
    pub trace: bool,
    /// Per-job wall-clock budget in milliseconds (`timeout_ms`); `0` = none.
    pub timeout_ms: u64,
    /// Vectorization mode of the emitted C (`vectorize`, as a label).
    pub vectorize: VectorMode,
}

impl RequestOptions {
    /// Lowers the wire options onto the driver's option set.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions::builder()
            .verify(self.verify)
            .analyze(self.analyze)
            .timeout_ms(self.timeout_ms)
            .vectorize(self.vectorize)
            .build()
    }
}

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Compile one model.
    Compile {
        /// Model path or benchmark name.
        model: String,
        /// Generator style (defaults to `frodo`).
        style: GeneratorStyle,
        /// Compile options.
        options: RequestOptions,
        /// Fairness bucket, when the client names one.
        client: Option<u64>,
    },
    /// Lint one model (static diagnostics; runs inline, never queued).
    Lint {
        /// Model path or benchmark name.
        model: String,
    },
    /// Compile a models × styles grid.
    Batch {
        /// Model paths or benchmark names.
        models: Vec<String>,
        /// Generator styles (defaults to `frodo` only).
        styles: Vec<GeneratorStyle>,
        /// Compile options, shared by every job.
        options: RequestOptions,
        /// Fairness bucket, when the client names one.
        client: Option<u64>,
    },
    /// Compile through a named server-side incremental compile session.
    Recompile {
        /// Session name (created on first use; pins style and options).
        session: String,
        /// Model path, benchmark name, or `random:` spec.
        model: String,
        /// Generator style (defaults to `frodo`; pinned at creation).
        style: GeneratorStyle,
        /// Compile options (pinned at creation).
        options: RequestOptions,
        /// Region-size cap for the partition, when the request states one
        /// (`0` = one region per connected component, as on the CLI; absent
        /// = [`frodo_driver::DEFAULT_REGION_MAX`]; pinned at creation).
        region_max: Option<usize>,
    },
    /// Report queue, cache, and worker metrics.
    Status,
    /// Report rolling-window per-verb request rates and latency
    /// histograms plus per-session stats.
    Metrics,
    /// Drain in-flight jobs, flush the final ledger entry, and stop.
    Shutdown,
}

/// Parses a generator style label (`simulink|dfsynth|hcg|frodo`).
pub fn parse_style(s: &str) -> Result<GeneratorStyle, String> {
    match s.to_ascii_lowercase().as_str() {
        "simulink" => Ok(GeneratorStyle::SimulinkCoder),
        "dfsynth" => Ok(GeneratorStyle::DfSynth),
        "hcg" => Ok(GeneratorStyle::Hcg),
        "frodo" => Ok(GeneratorStyle::Frodo),
        other => Err(format!(
            "unknown style '{other}' (expected simulink|dfsynth|hcg|frodo)"
        )),
    }
}

/// Parses a `styles` list: a comma-separated label list or `all`.
pub fn parse_styles(s: &str) -> Result<Vec<GeneratorStyle>, String> {
    if s == "all" {
        return Ok(GeneratorStyle::ALL.to_vec());
    }
    s.split(',').map(parse_style).collect()
}

fn options_from(fields: &[(String, Value)]) -> Result<RequestOptions, String> {
    // Bare `batch` gets the x86 lane count; the daemon compiles for the
    // host it runs on, and clients wanting another width say `batch:W`.
    let vectorize = match ndjson::get_str(fields, "vectorize") {
        None => VectorMode::default(),
        Some(s) => VectorMode::parse(s, 8)?,
    };
    // the sliding-window reuse pass is gone; a request that still asks
    // for it must not get C it did not ask for
    if ndjson::get(fields, "window_reuse").is_some_and(|v| v.as_num() != Some(0.0)) {
        return Err("\"window_reuse\" is no longer supported: send 0 or omit it".into());
    }
    let num = |key: &str| ndjson::get_num(fields, key).unwrap_or(0.0);
    Ok(RequestOptions {
        verify: num("verify") != 0.0,
        analyze: num("analyze") != 0.0,
        trace: num("trace") != 0.0,
        timeout_ms: num("timeout_ms") as u64,
        vectorize,
    })
}

/// Parses one request line. A `proto_version` other than
/// [`PROTO_VERSION`] is a structured error before the `type` is even
/// looked at.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = ndjson::parse_line(line)?;
    match ndjson::get_num(&fields, "proto_version") {
        Some(v) if v != PROTO_VERSION as f64 => {
            return Err(format!(
                "unsupported proto_version {v} (this daemon speaks {PROTO_VERSION})"
            ))
        }
        _ => {}
    }
    let typ = ndjson::get_str(&fields, "type").ok_or("request has no \"type\" field")?;
    let model = || -> Result<String, String> {
        ndjson::get_str(&fields, "model")
            .map(str::to_string)
            .ok_or_else(|| format!("{typ} request has no \"model\" field"))
    };
    let client = ndjson::get_num(&fields, "client").map(|n| n as u64);
    match typ {
        "compile" => Ok(Request::Compile {
            model: model()?,
            style: match ndjson::get_str(&fields, "style") {
                Some(s) => parse_style(s)?,
                None => GeneratorStyle::Frodo,
            },
            options: options_from(&fields)?,
            client,
        }),
        "lint" => Ok(Request::Lint { model: model()? }),
        "batch" => {
            let models: Vec<String> = ndjson::get(&fields, "models")
                .and_then(Value::as_arr)
                .ok_or("batch request has no \"models\" array")?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "\"models\" entries must be strings".to_string())
                })
                .collect::<Result<_, _>>()?;
            if models.is_empty() {
                return Err("batch request has an empty \"models\" array".into());
            }
            Ok(Request::Batch {
                models,
                styles: match ndjson::get_str(&fields, "styles") {
                    Some(s) => parse_styles(s)?,
                    None => vec![GeneratorStyle::Frodo],
                },
                options: options_from(&fields)?,
                client,
            })
        }
        "recompile" => {
            let options = options_from(&fields)?;
            if options.timeout_ms > 0 {
                // the session compiles inline on the connection's thread,
                // where no per-job budget can stop it
                return Err(
                    "recompile request carries \"timeout_ms\": a recompile runs \
                     inline in its session and takes no timeout"
                        .into(),
                );
            }
            Ok(Request::Recompile {
                session: ndjson::get_str(&fields, "session")
                    .map(str::to_string)
                    .ok_or("recompile request has no \"session\" field")?,
                model: model()?,
                style: match ndjson::get_str(&fields, "style") {
                    Some(s) => parse_style(s)?,
                    None => GeneratorStyle::Frodo,
                },
                options,
                region_max: ndjson::get_num(&fields, "region_max").map(|n| n as usize),
            })
        }
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type '{other}'")),
    }
}

/// Starts a response object: `type`, the protocol version, and `ok`.
fn response(typ: &str, ok: u64) -> ObjWriter {
    let mut w = ObjWriter::new();
    w.field_str("type", typ)
        .field_num("proto_version", PROTO_VERSION)
        .field_num("ok", ok);
    w
}

/// The shared body of a `result` line, minus the trailing `code` field.
fn result_fields(w: &mut ObjWriter, out: &JobOutput, with_stages: bool) {
    let r = &out.report;
    w.field_str("job", &r.job)
        .field_str("style", r.style.label())
        .field_str("cache", r.cache.label())
        .field_str("digest", &r.digest.to_string())
        .field_num("blocks", r.metrics.blocks as u64)
        .field_num("optimizable", r.metrics.optimizable_blocks as u64)
        .field_num("elements", r.metrics.total_elements as u64)
        .field_num("eliminated", r.metrics.eliminated_elements as u64)
        .field_num("code_bytes", r.code_bytes as u64);
    if with_stages {
        let mut stages = ObjWriter::new();
        for (name, d) in r.timings.rows() {
            stages.field_num(name, d.as_nanos() as u64);
        }
        stages.field_num("total", r.timings.total().as_nanos() as u64);
        w.field_raw("stages", &stages.finish());
    }
}

/// Renders a completed job. `code` rides along so clients can write the
/// artifact without a second round trip; `stages` only when the request
/// asked for per-stage timings (`"trace":1`).
pub fn render_result(out: &JobOutput, with_stages: bool) -> String {
    let mut w = response("result", 1);
    result_fields(&mut w, out, with_stages);
    w.field_str("code", &out.code);
    w.finish()
}

/// Renders a completed `recompile` job: a `result` line with the
/// session's region-reuse stats for this compile.
pub fn render_recompile_result(out: &JobOutput, stats: &SessionStats, with_stages: bool) -> String {
    let mut w = response("result", 1);
    result_fields(&mut w, out, with_stages);
    w.field_num("regions", stats.last_region_total)
        .field_num("region_hits", stats.last_region_hits)
        .field_num("dirty_blocks", stats.last_dirty_blocks)
        .field_num("fragment_hits", stats.last_fragment_hits)
        .field_str("code", &out.code);
    w.finish()
}

/// Renders a failed job as an `ok:0` result.
pub fn render_job_error(err: &JobError) -> String {
    let mut w = response("result", 0);
    w.field_str("job", err.job())
        .field_str("error", &err.to_string());
    if matches!(err, JobError::Timeout { .. }) {
        w.field_num("timeout", 1);
    }
    let diags = err.diagnostics();
    if !diags.is_empty() {
        w.field_raw("diags", &render_diags(diags));
    }
    w.finish()
}

/// Renders lint findings for one model.
pub fn render_lint(model: &str, diags: &[frodo_verify::Diagnostic]) -> String {
    let errors = diags
        .iter()
        .filter(|d| d.severity == frodo_verify::Severity::Error)
        .count();
    let mut w = response("lint-result", u64::from(errors == 0));
    w.field_str("model", model)
        .field_num("findings", diags.len() as u64)
        .field_num("errors", errors as u64)
        .field_raw("diags", &render_diags(diags));
    w.finish()
}

fn render_diags(diags: &[frodo_verify::Diagnostic]) -> String {
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            let mut w = ObjWriter::new();
            w.field_str("code", d.code)
                .field_str("severity", &d.severity.to_string())
                .field_str("message", &d.message);
            if let Some(b) = &d.block {
                w.field_str("block", b);
            }
            if let Some(l) = &d.location {
                w.field_str("location", l);
            }
            w.finish()
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders the backpressure response for a full admission queue.
pub fn render_busy(queued: usize, retry_after_ms: u64) -> String {
    let mut w = response("busy", 0);
    w.field_num("queued", queued as u64)
        .field_num("retry_after_ms", retry_after_ms);
    w.finish()
}

/// Renders the rejection sent while the server drains.
pub fn render_draining() -> String {
    response("draining", 0).finish()
}

/// Renders a request-level error (parse failure, unknown model, …).
pub fn render_error(message: &str) -> String {
    let mut w = response("error", 0);
    w.field_str("message", message);
    w.finish()
}

/// Renders the terminator after a batch's `result` lines. `rejected`
/// counts jobs the admission queue turned away (resubmit those).
pub fn render_batch_done(jobs: usize, ok: usize, failed: usize, rejected: usize) -> String {
    let mut w = ObjWriter::new();
    w.field_str("type", "batch-done")
        .field_num("proto_version", PROTO_VERSION)
        .field_num("jobs", jobs as u64)
        .field_num("ok", ok as u64)
        .field_num("failed", failed as u64)
        .field_num("rejected", rejected as u64);
    w.finish()
}

/// Renders the live metrics line: queue, cache, and worker state.
pub fn render_status(
    pool: &PoolSnapshot,
    cache: &CacheStats,
    uptime_ms: u64,
    jobs_ok: u64,
    jobs_failed: u64,
) -> String {
    let lookups = cache.hits + cache.misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        cache.hits as f64 / lookups as f64 * 100.0
    };
    let capacity_ns = (uptime_ms as u128) * 1_000_000 * pool.workers as u128;
    let utilization = if capacity_ns == 0 {
        0.0
    } else {
        pool.busy_ns as f64 / capacity_ns as f64 * 100.0
    };
    let mut w = response("status", 1);
    w.field_num("uptime_ms", uptime_ms)
        .field_num("workers", pool.workers as u64)
        .field_num("queue_depth", pool.queue_depth as u64)
        .field_num("in_flight", pool.in_flight as u64)
        .field_num("submitted", pool.submitted)
        .field_num("completed", pool.completed)
        .field_num("rejected", pool.rejected)
        .field_num("timeouts", pool.timeouts)
        .field_num("jobs_ok", jobs_ok)
        .field_num("jobs_failed", jobs_failed)
        .field_num("draining", u64::from(pool.draining))
        .field_pct("utilization_pct", utilization)
        .field_num("cache_hits", cache.hits as u64)
        .field_num("cache_misses", cache.misses as u64)
        .field_pct("cache_hit_rate_pct", hit_rate)
        .field_num("cache_entries", cache.entries as u64)
        .field_num("cache_bytes", cache.bytes as u64)
        .field_num("cache_evictions", cache.evictions as u64);
    w.finish()
}

/// One verb's share of the `metrics` response: its lifetime request
/// count and its request-latency histogram over the rolling window.
#[derive(Debug, Clone)]
pub struct VerbMetrics {
    /// Request verb (`compile`, `batch`, …).
    pub verb: &'static str,
    /// Requests of this verb since the daemon started (never evicted).
    pub total: u64,
    /// Request latency in nanoseconds over the rolling window.
    pub window: Histogram,
}

/// Renders the `metrics` response: one entry per verb with window count, latency percentiles, and the full log2 bucket
/// arrays (the same `bucket_upper`/`bucket_count` shape the trace
/// exporter's `hist` lines use, so one parser reads both), plus one
/// entry per live compile session.
pub fn render_metrics(
    uptime_ms: u64,
    window_secs: u64,
    verbs: &[VerbMetrics],
    sessions: &[(String, SessionStats)],
) -> String {
    let verb_items: Vec<String> = verbs
        .iter()
        .map(|v| {
            let (uppers, counts): (Vec<_>, Vec<_>) = v.window.nonzero_buckets().into_iter().unzip();
            let join = |ns: &[u64]| ns.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            let mut w = ObjWriter::new();
            w.field_str("verb", v.verb)
                .field_num("total", v.total)
                .field_num("window_count", v.window.count())
                .field_num("p50_ns", v.window.percentile(50.0) as u64)
                .field_num("p95_ns", v.window.percentile(95.0) as u64)
                .field_num("max_ns", v.window.max() as u64)
                .field_raw("bucket_upper", &format!("[{}]", join(&uppers)))
                .field_raw("bucket_count", &format!("[{}]", join(&counts)));
            w.finish()
        })
        .collect();
    let session_items: Vec<String> = sessions
        .iter()
        .map(|(name, s)| {
            let mut w = ObjWriter::new();
            w.field_str("session", name)
                .field_num("compiles", s.compiles)
                .field_num("region_hits", s.region_hits)
                .field_num("region_misses", s.region_misses)
                .field_num("last_region_total", s.last_region_total)
                .field_num("last_region_hits", s.last_region_hits);
            w.finish()
        })
        .collect();
    let mut w = response("metrics", 1);
    w.field_num("uptime_ms", uptime_ms)
        .field_num("window_secs", window_secs)
        .field_raw("verbs", &format!("[{}]", verb_items.join(",")))
        .field_raw("sessions", &format!("[{}]", session_items.join(",")));
    w.finish()
}

/// Renders the shutdown ack: sent after the drain completes, immediately
/// before the listener goes away.
pub fn render_shutdown_ack(completed: u64, ledger: Option<&str>) -> String {
    let mut w = response("shutdown", 1);
    w.field_num("completed", completed);
    if let Some(path) = ledger {
        w.field_str("ledger", path);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_covers_every_kind() {
        let r = parse_request(
            r#"{"type":"compile","model":"Kalman","style":"hcg","verify":1,"timeout_ms":500,"vectorize":"batch:4","client":7}"#,
        )
        .unwrap();
        match r {
            Request::Compile {
                model,
                style,
                options,
                client,
            } => {
                assert_eq!(model, "Kalman");
                assert_eq!(style, GeneratorStyle::Hcg);
                assert!(options.verify);
                assert!(!options.trace);
                assert_eq!(options.timeout_ms, 500);
                assert_eq!(client, Some(7));
                assert_eq!(options.vectorize, VectorMode::Batch(4));
                let co = options.compile_options();
                assert_eq!(co.exec.timeout_ms, 500);
                assert_eq!(co.keyed.vectorize, VectorMode::Batch(4));
            }
            other => panic!("expected compile, got {other:?}"),
        }

        let r =
            parse_request(r#"{"type":"batch","models":["a.mdl","Kalman"],"styles":"frodo,hcg"}"#)
                .unwrap();
        match r {
            Request::Batch { models, styles, .. } => {
                assert_eq!(models, ["a.mdl", "Kalman"]);
                assert_eq!(styles, [GeneratorStyle::Frodo, GeneratorStyle::Hcg]);
            }
            other => panic!("expected batch, got {other:?}"),
        }

        assert!(matches!(
            parse_request(r#"{"type":"lint","model":"m.slx"}"#).unwrap(),
            Request::Lint { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"type":"status"}"#).unwrap(),
            Request::Status
        ));
        assert!(matches!(
            parse_request(r#"{"type":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            parse_request(r#"{"type":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn a_nonzero_window_reuse_is_refused_and_zero_is_the_default() {
        for head in [
            r#""type":"compile","model":"Kalman""#,
            r#""type":"batch","models":["Kalman"]"#,
            r#""type":"recompile","session":"s","model":"Kalman""#,
        ] {
            for value in ["1", "2", "\"on\""] {
                let err =
                    parse_request(&format!("{{{head},\"window_reuse\":{value}}}")).unwrap_err();
                assert!(err.contains("\"window_reuse\""), "{head}: {err}");
            }
            let options = |line: &str| match parse_request(line).unwrap() {
                Request::Compile { options, .. }
                | Request::Batch { options, .. }
                | Request::Recompile { options, .. } => options,
                other => panic!("expected a compiling request, got {other:?}"),
            };
            assert_eq!(
                options(&format!("{{{head},\"window_reuse\":0}}")),
                RequestOptions::default()
            );
            assert_eq!(options(&format!("{{{head}}}")), RequestOptions::default());
        }
    }

    #[test]
    fn vectorize_off_is_an_unknown_mode() {
        // the daemon answers a line that fails to parse with an `error`
        // carrying the parse message
        let err =
            parse_request(r#"{"type":"compile","model":"Kalman","vectorize":"off"}"#).unwrap_err();
        let fields = ndjson::parse_line(&render_error(&err)).unwrap();
        assert_eq!(ndjson::get_str(&fields, "type"), Some("error"));
        let message = ndjson::get_str(&fields, "message").unwrap();
        assert!(
            message.contains("unknown vectorize mode 'off' (expected auto|hints|batch[:W]"),
            "{message}"
        );
    }

    #[test]
    fn retired_threads_and_engine_fields_are_ignored() {
        let options = |line: &str| match parse_request(line).unwrap() {
            Request::Compile { options, .. } => options,
            other => panic!("expected compile, got {other:?}"),
        };
        assert_eq!(
            options(r#"{"type":"compile","model":"Kalman","threads":2,"engine":"parallel"}"#),
            options(r#"{"type":"compile","model":"Kalman"}"#)
        );
    }

    #[test]
    fn recompile_requests_parse_with_session_and_region_max() {
        let r = parse_request(
            r#"{"type":"recompile","proto_version":4,"session":"edit-loop","model":"random:42:60","style":"frodo","region_max":8}"#,
        )
        .unwrap();
        match r {
            Request::Recompile {
                session,
                model,
                style,
                region_max,
                ..
            } => {
                assert_eq!(session, "edit-loop");
                assert_eq!(model, "random:42:60");
                assert_eq!(style, GeneratorStyle::Frodo);
                assert_eq!(region_max, Some(8));
            }
            other => panic!("expected recompile, got {other:?}"),
        }
        // a stated 0 is kept apart from an absent cap
        for (field, expected) in [(r#","region_max":0"#, Some(0)), ("", None)] {
            let line = format!(r#"{{"type":"recompile","session":"s","model":"Kalman"{field}}}"#);
            match parse_request(&line).unwrap() {
                Request::Recompile { region_max, .. } => assert_eq!(region_max, expected, "{line}"),
                other => panic!("expected recompile, got {other:?}"),
            }
        }
        assert!(parse_request(r#"{"type":"recompile","model":"Kalman"}"#)
            .unwrap_err()
            .contains("session"));
        // a recompile runs inline and cannot honor a budget; 0 states none
        let err =
            parse_request(r#"{"type":"recompile","session":"s","model":"Kalman","timeout_ms":50}"#)
                .unwrap_err();
        assert!(err.contains("\"timeout_ms\""), "{err}");
        assert!(parse_request(
            r#"{"type":"recompile","session":"s","model":"Kalman","timeout_ms":0}"#
        )
        .is_ok());
    }

    #[test]
    fn unknown_proto_versions_are_rejected_and_stated() {
        // absent = the current version, which passes
        assert!(parse_request(r#"{"type":"status"}"#).is_ok());
        assert!(parse_request(&format!(
            r#"{{"type":"status","proto_version":{PROTO_VERSION}}}"#
        ))
        .is_ok());
        // a retired, future, or zero version is a structured refusal
        for v in [0, 1, 2, 3, 99] {
            let err =
                parse_request(&format!(r#"{{"type":"status","proto_version":{v}}}"#)).unwrap_err();
            assert!(
                err.contains(&format!("unsupported proto_version {v}")),
                "{err}"
            );
            assert!(err.contains(&format!("speaks {PROTO_VERSION}")), "{err}");
        }
        // every response states the version it speaks
        for line in [
            render_error("nope"),
            render_busy(1, 5),
            render_draining(),
            render_batch_done(1, 1, 0, 0),
            render_shutdown_ack(0, None),
            render_status(&PoolSnapshot::default(), &CacheStats::default(), 0, 0, 0),
            render_metrics(0, 60, &[], &[]),
        ] {
            let fields = ndjson::parse_line(&line).unwrap();
            assert_eq!(
                ndjson::get_num(&fields, "proto_version"),
                Some(PROTO_VERSION as f64),
                "{line}"
            );
        }
    }

    #[test]
    fn malformed_requests_name_the_fault() {
        assert!(parse_request(r#"{"model":"x"}"#)
            .unwrap_err()
            .contains("type"));
        assert!(parse_request(r#"{"type":"dance"}"#)
            .unwrap_err()
            .contains("unknown request type"));
        assert!(parse_request(r#"{"type":"batch","models":[]}"#)
            .unwrap_err()
            .contains("empty"));
        assert!(
            parse_request(r#"{"type":"compile","model":"x","vectorize":"warp"}"#)
                .unwrap_err()
                .contains("unknown vectorize mode")
        );
        assert!(
            parse_request(r#"{"type":"compile","model":"x","vectorize":"batch:99"}"#)
                .unwrap_err()
                .contains("out of range")
        );
        // parse errors carry the line/offset locator from frodo-obs
        assert!(parse_request(r#"{"type":"compile","timeout_ms":x}"#)
            .unwrap_err()
            .contains("at line 1"));
    }

    #[test]
    fn response_lines_parse_back_as_flat_ndjson() {
        let busy = render_busy(12, 75);
        let fields = ndjson::parse_line(&busy).unwrap();
        assert_eq!(ndjson::get_str(&fields, "type"), Some("busy"));
        assert_eq!(ndjson::get_num(&fields, "retry_after_ms"), Some(75.0));

        let done = render_batch_done(4, 3, 1, 0);
        let fields = ndjson::parse_line(&done).unwrap();
        assert_eq!(ndjson::get_num(&fields, "jobs"), Some(4.0));

        let status = render_status(&PoolSnapshot::default(), &CacheStats::default(), 0, 0, 0);
        let fields = ndjson::parse_line(&status).unwrap();
        assert_eq!(ndjson::get_str(&fields, "type"), Some("status"));
        assert_eq!(ndjson::get_num(&fields, "queue_depth"), Some(0.0));

        let ack = render_shutdown_ack(9, Some(".frodo/ledger.ndjson"));
        let fields = ndjson::parse_line(&ack).unwrap();
        assert_eq!(ndjson::get_num(&fields, "completed"), Some(9.0));
        assert_eq!(
            ndjson::get_str(&fields, "ledger"),
            Some(".frodo/ledger.ndjson")
        );
    }

    #[test]
    fn metrics_lines_carry_parseable_latency_histograms() {
        let mut window = Histogram::new();
        for ns in [1_000.0, 2_000.0, 50_000.0] {
            window.record(ns);
        }
        let line = render_metrics(
            1234,
            60,
            &[
                VerbMetrics {
                    verb: "compile",
                    total: 7,
                    window: window.clone(),
                },
                VerbMetrics {
                    verb: "status",
                    total: 0,
                    window: Histogram::new(),
                },
            ],
            &[(
                "edit-loop".into(),
                SessionStats {
                    compiles: 3,
                    region_hits: 5,
                    ..Default::default()
                },
            )],
        );
        let fields = ndjson::parse_line(&line).unwrap();
        assert_eq!(ndjson::get_str(&fields, "type"), Some("metrics"));
        assert_eq!(ndjson::get_num(&fields, "window_secs"), Some(60.0));

        let verbs = ndjson::get(&fields, "verbs").unwrap().as_arr().unwrap();
        assert_eq!(verbs.len(), 2);
        let compile = &verbs[0];
        assert_eq!(compile.field("verb"), Some(&Value::Str("compile".into())));
        assert_eq!(compile.field("total").unwrap().as_num(), Some(7.0));
        assert_eq!(compile.field("window_count").unwrap().as_num(), Some(3.0));
        assert_eq!(compile.field("max_ns").unwrap().as_num(), Some(50_000.0));
        // the bucket arrays rebuild the histogram exactly — the wire
        // format is lossless down to the log2 buckets
        let nums = |key: &str| -> Vec<u64> {
            compile
                .field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_num().unwrap() as u64)
                .collect()
        };
        let pairs: Vec<(u64, u64)> = nums("bucket_upper")
            .into_iter()
            .zip(nums("bucket_count"))
            .collect();
        assert_eq!(pairs.iter().map(|&(_, n)| n).sum::<u64>(), 3);
        let rebuilt =
            Histogram::from_parts(3, window.sum(), window.min(), window.max(), &pairs).unwrap();
        assert_eq!(rebuilt.nonzero_buckets(), window.nonzero_buckets());
        // an idle verb still appears, with an empty histogram
        assert_eq!(verbs[1].field("window_count").unwrap().as_num(), Some(0.0));
        assert_eq!(
            verbs[1]
                .field("bucket_upper")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            0
        );

        let sessions = ndjson::get(&fields, "sessions").unwrap().as_arr().unwrap();
        assert_eq!(
            sessions[0].field("session"),
            Some(&Value::Str("edit-loop".into()))
        );
        assert_eq!(sessions[0].field("compiles").unwrap().as_num(), Some(3.0));
        assert_eq!(
            sessions[0].field("region_hits").unwrap().as_num(),
            Some(5.0)
        );
    }
}
