//! The serve layer of a traced run: one client against a fresh compile
//! daemon, answering one fixed-length request sequence (an episode).
//!
//! The daemon slows with uptime (every job snapshots the server-wide
//! trace), so an episode always starts a fresh daemon and sends the same
//! number of requests in the same layout: every seed then reaches the
//! same server state at the same request, and the slowdown shows as
//! `serve.drift_ratio` instead of as a property of the seed.

use crate::inputs;
use crate::layers;
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::median;
use frodo_codegen::GeneratorStyle;
use frodo_driver::{CompileService, JobSpec};
use frodo_obs::ndjson::{self, Value};
use frodo_serve::client::{self, Client, Endpoint};
use frodo_serve::RequestOptions;
use frodo_sim::rng::Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests per episode, in a fixed layout: a recompile every 4th request
/// (15, a quarter), `status` at requests 19, 39 and 59, and cache hits
/// for the other 42. Hits are the majority and recompiles the tail, as in
/// an edit loop where most requests find their artifact cached.
const EPISODE_REQUESTS: usize = 60;
const RECOMPILES: usize = EPISODE_REQUESTS / 4;

/// Session name every recompile goes through.
const SESSION: &str = "edit";

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `compile` of Table-1 file `i` (a cache hit after warm-up).
    Hit(usize),
    /// `recompile` of edit file `i` (plan order) in the session.
    Recompile(usize),
    Status,
}

impl Req {
    fn verb(self) -> &'static str {
        match self {
            Req::Hit(_) => "compile",
            Req::Recompile(_) => "recompile",
            Req::Status => "status",
        }
    }
}

/// The fixed-length request sequence of one episode (see
/// [`EPISODE_REQUESTS`]). The seed picks the order in which the hits
/// cycle through the Table-1 files; recompile `i` is the `i`-th edit of
/// [`inputs::edit_plan`].
pub fn sequence(seed: u64) -> Vec<Req> {
    let mut files: Vec<usize> = (0..10).collect();
    inputs::shuffle(&mut files, &mut Rng::seed_from_u64(seed ^ 0x5E9));
    let mut hits = files.into_iter().cycle();
    (0..EPISODE_REQUESTS)
        .map(|i| {
            if i % 4 == 2 {
                Req::Recompile(i / 4)
            } else if i % 20 == 19 {
                Req::Status
            } else {
                Req::Hit(hits.next().expect("a cycle never ends"))
            }
        })
        .collect()
}

/// A daemon child process, stopped and reaped on drop if still running.
struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

impl Daemon {
    /// Starts `exe --serve-daemon SOCKET` (the benchmark binary itself).
    fn start(exe: &Path, socket: &Path) -> Result<Daemon, String> {
        let child = Command::new(exe)
            .arg("--serve-daemon")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            endpoint: Endpoint::Unix(socket.to_path_buf()),
        };
        daemon.wait_ready()?;
        Ok(daemon)
    }

    /// Polls with a real `status` request: the socket file exists before
    /// the listener accepts.
    fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = Client::connect(&self.endpoint) {
                if c.request_one(&client::simple_request("status", None))
                    .is_ok()
                {
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks the daemon to drain and stop, then reaps it.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let reply = client.request_one(&client::simple_request("shutdown", None));
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        reply?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Runs the daemon in this process (the `--serve-daemon` child mode):
/// `frodo serve --socket PATH` with every other setting at its default.
pub fn serve(socket: &str) -> Result<(), String> {
    frodo_serve::cli::cmd_serve(&["--socket".to_string(), socket.to_string()])
}

/// One parsed reply. The `code` field (always last on a `result` line)
/// is cut off and unescaped here in one pass: `ndjson::parse_line`
/// re-validates the rest of the line for every character of a string, so
/// it takes seconds on the hundreds of kilobytes of C a 2000-block
/// recompile returns. The other fields are small and go through it.
struct Reply {
    fields: Vec<(String, Value)>,
    code: String,
}

impl Reply {
    fn parse(line: &str, want: &str) -> Result<Reply, String> {
        let (head, code) = match line.rfind(",\"code\":\"") {
            Some(at) if line.ends_with("\"}") => (
                format!("{}}}", &line[..at]),
                unescape(&line[at + 9..line.len() - 2])?,
            ),
            _ => (line.to_string(), String::new()),
        };
        let fields = ndjson::parse_line(&head)?;
        client::check_proto(&fields)?;
        let typ = ndjson::get_str(&fields, "type").unwrap_or("");
        let ok = ndjson::get_num(&fields, "ok").unwrap_or(0.0);
        if typ != want || ok != 1.0 {
            let err = ndjson::get_str(&fields, "error").unwrap_or("");
            return Err(format!("expected ok {want}, got {typ} ok={ok} {err}"));
        }
        Ok(Reply { fields, code })
    }

    fn str(&self, key: &str) -> &str {
        ndjson::get_str(&self.fields, key).unwrap_or("")
    }

    fn num(&self, key: &str) -> f64 {
        ndjson::get_num(&self.fields, key).unwrap_or(0.0)
    }
}

/// Decodes the body of a JSON string literal.
fn unescape(raw: &str) -> Result<String, String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape")?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            Some(c @ ('"' | '\\' | '/')) => out.push(c),
            other => return Err(format!("bad escape {other:?} in code")),
        }
    }
    Ok(out)
}

/// Everything one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// `(Gain index, edit file)` in plan order.
    pub edits: Vec<(usize, PathBuf)>,
    /// `(request, client-side latency)` in sequence order.
    pub latencies: Vec<(Req, Duration)>,
    /// The server's own p50 of `compile` requests (the hits), from the
    /// `metrics` verb, in ns.
    pub server_hit_p50_ns: f64,
    /// Recompile C per Gain index.
    pub recompile_code: BTreeMap<usize, String>,
    /// Σ regions, Σ region hits, Σ fragment hits over recompiles.
    pub regions: (f64, f64, f64),
    pub outcome: Outcome,
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// The benchmark binary, which serves as the daemon in `--serve-daemon`
/// mode.
fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("current_exe: {e}"))
}

/// One episode in `dir` against a daemon run by `exe`: write the inputs,
/// start the daemon, warm it up, answer the sequence, collect the
/// server's metrics, shut it down.
pub fn episode(dir: &Path, seed: u64, exe: &Path, log: &mut SpanLog) -> Result<Episode, String> {
    let seq = sequence(seed);
    let table1 = inputs::write_table1(&dir.join("table1"))?;
    let gains = inputs::edit_plan(seed, RECOMPILES);
    let (base, files) = inputs::write_edits(&dir.join("edits"), &gains)?;
    let edits = gains.into_iter().zip(files).collect();
    let daemon = Daemon::start(exe, &dir.join("d.sock"))?;
    let mut conn = Client::connect(&daemon.endpoint)?;
    let opts = RequestOptions::default();
    let mut hit_code = Vec::new();
    for (_, path) in &table1 {
        let line =
            conn.request_one(&client::compile_request(&path_str(path), None, &opts, None))?;
        hit_code.push(Reply::parse(&line, "result")?.code);
    }
    let line = conn.request_one(&client::recompile_request(
        SESSION,
        &path_str(&base),
        None,
        &opts,
        0,
    ))?;
    Reply::parse(&line, "result")?;
    Reply::parse(
        &conn.request_one(&client::simple_request("status", None))?,
        "status",
    )?;
    let mut ep = Episode {
        edits,
        ..Episode::default()
    };

    for &req in &seq {
        let line = match req {
            Req::Hit(i) => client::compile_request(&path_str(&table1[i].1), None, &opts, None),
            Req::Recompile(i) => {
                client::recompile_request(SESSION, &path_str(&ep.edits[i].1), None, &opts, 0)
            }
            Req::Status => client::simple_request("status", None),
        };
        let op = log.op();
        let start = Instant::now();
        let reply = conn.request_one(&line);
        let lat = start.elapsed();
        log.record(req.verb(), op, None, start);
        ep.latencies.push((req, lat));
        ep.outcome.attempted += 1;
        let want = if req == Req::Status {
            "status"
        } else {
            "result"
        };
        let reply = match reply.and_then(|l| Reply::parse(&l, want)) {
            Ok(r) => r,
            Err(e) => {
                ep.outcome.fail(1, format!("{req:?}: {e}"));
                continue;
            }
        };
        match req {
            Req::Hit(i) => {
                if reply.str("cache") == "miss" || reply.code != hit_code[i] {
                    ep.outcome
                        .fail(1, format!("{}: hit missed or changed C", table1[i].0));
                }
            }
            Req::Recompile(i) => {
                ep.regions.0 += reply.num("regions");
                ep.regions.1 += reply.num("region_hits");
                ep.regions.2 += reply.num("fragment_hits");
                ep.recompile_code.insert(ep.edits[i].0, reply.code);
            }
            Req::Status => {}
        }
    }

    let metrics = conn.request_one(&client::simple_request("metrics", None))?;
    let metrics = Reply::parse(&metrics, "metrics")?;
    ep.server_hit_p50_ns = ndjson::get(&metrics.fields, "verbs")
        .and_then(Value::as_arr)
        .and_then(|verbs| {
            verbs
                .iter()
                .find(|v| v.field("verb").and_then(Value::as_str) == Some("compile"))
        })
        .and_then(|v| v.field("p50_ns"))
        .and_then(Value::as_num)
        .ok_or("metrics reply has no compile p50")?;
    daemon.shutdown(&mut conn)?;
    Ok(ep)
}

/// Checks every recompile's C against a cold compile of the same file on
/// a fresh default service, all as one batch. A mismatch fails the
/// recompile it belongs to.
fn check_against_cold(ep: &Episode, out: &mut Outcome) {
    let recompiled: Vec<(&PathBuf, &String)> = ep
        .edits
        .iter()
        .filter_map(|(k, path)| ep.recompile_code.get(k).map(|code| (path, code)))
        .collect();
    let specs = recompiled
        .iter()
        .map(|(path, _)| JobSpec::from_path(path, GeneratorStyle::Frodo))
        .collect();
    let report = CompileService::with_defaults().compile_batch(specs);
    for ((path, code), job) in recompiled.iter().zip(report.jobs) {
        match job {
            Ok(cold) if &cold.code == *code => {}
            Ok(_) => out.fail(
                1,
                format!(
                    "{}: recompile C differs from a cold compile",
                    path.display()
                ),
            ),
            Err(e) => out.fail(1, format!("{}: cold compile failed: {e}", path.display())),
        }
    }
}

/// Per-layer metrics of the serve layer and the incremental caches, from
/// one traced episode whose every recompile is checked against a cold
/// compile, plus the compile layers on the edit files.
pub(crate) fn layer_metrics(
    work: &Path,
    seed: u64,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<(), String> {
    let ep = episode(&work.join("layers"), seed, &own_exe()?, log)?;
    check_against_cold(&ep, out);
    let lat = |want: fn(&Req) -> bool, range: std::ops::Range<usize>| -> f64 {
        let xs: Vec<f64> = ep.latencies[range]
            .iter()
            .filter(|(r, _)| want(r))
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect();
        median(&xs)
    };
    let n = ep.latencies.len();
    let is_hit = |r: &Req| matches!(r, Req::Hit(_));
    let hit_ms = lat(is_hit, 0..n);
    out.metric("serve.hit_ms", hit_ms, "ms");
    out.metric(
        "serve.recompile_ms",
        lat(|r| matches!(r, Req::Recompile(_)), 0..n),
        "ms",
    );
    out.metric("serve.status_ms", lat(|r| *r == Req::Status, 0..n), "ms");
    out.metric("serve.wire_ms", hit_ms - ep.server_hit_p50_ns / 1e6, "ms");
    out.metric(
        "serve.drift_ratio",
        lat(is_hit, n - n / 4..n) / lat(is_hit, 0..n / 4),
        "ratio",
    );
    let (regions, region_hits, fragment_hits) = ep.regions;
    out.metric("driver.region_hit_ratio", region_hits / regions, "ratio");
    out.metric(
        "codegen.fragment_hit_ratio",
        fragment_hits / regions,
        "ratio",
    );

    // cold compile layers on the edit files the recompiles parse
    let mut walks = Vec::new();
    for (k, path) in ep.edits.iter().take(EDIT_WALKS) {
        let w = layers::walk(path, log)?;
        let code = ep.recompile_code.get(k);
        if code != Some(&w.code) {
            out.fail(
                1,
                format!(
                    "{}: layer-walk C differs from the recompile",
                    path.display()
                ),
            );
        }
        out.attempted += 1;
        walks.push(w);
    }
    for (i, layer) in layers::LAYERS.iter().enumerate() {
        let times: Vec<f64> = walks
            .iter()
            .map(|w| w.times[i].as_secs_f64() * 1e3)
            .collect();
        out.metric(format!("edit.{layer}_ms"), median(&times), "ms");
    }
    out.metric("edit.model.blocks", walks[0].blocks as f64, "count");
    out.absorb(ep.outcome);
    Ok(())
}

/// Edit files walked through the compile layers in a traced run.
const EDIT_WALKS: usize = 5;
