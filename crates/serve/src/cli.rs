//! The `frodo serve` and `frodo client` verb implementations, called
//! from the binary's dispatcher, and the argument parsing every `frodo`
//! verb shares: each verb lists exactly the flags it reads, and any other
//! `-`-prefixed argument is an error wherever it appears.

use crate::client::{self, Client, Endpoint};
use crate::proto::RequestOptions;
use crate::server::{Server, ServerConfig};
use frodo_obs::ndjson;
use std::path::{Path, PathBuf};

/// The default unix socket, next to the default ledger.
pub const DEFAULT_SOCKET: &str = ".frodo/serve.sock";

/// The value after the first of `names` in `args`, if any.
pub fn flag_value<'a>(args: &'a [String], names: &[&str]) -> Option<&'a str> {
    args.windows(2)
        .find(|w| names.contains(&w[0].as_str()))
        .map(|w| w[1].as_str())
}

/// Positional arguments: everything that is neither a listed flag nor a
/// value-taking flag's value. Any other `-`-prefixed argument is an error,
/// and so is a value-taking flag with nothing after it.
pub fn positionals<'a>(
    args: &'a [String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut awaiting_value: Option<&str> = None;
    for arg in args {
        if awaiting_value.take().is_some() {
            continue;
        } else if value_flags.contains(&arg.as_str()) {
            awaiting_value = Some(arg);
        } else if bool_flags.contains(&arg.as_str()) {
            continue;
        } else if arg.len() > 1 && arg.starts_with('-') {
            return Err(format!("unknown flag '{arg}'"));
        } else {
            out.push(arg.as_str());
        }
    }
    match awaiting_value {
        Some(flag) => Err(format!("flag '{flag}' needs a value")),
        None => Ok(out),
    }
}

/// [`positionals`] for a verb that takes none: a stray positional is an
/// error too.
pub fn no_positionals(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    match positionals(args, value_flags, bool_flags)?.first() {
        Some(arg) => Err(format!("unexpected argument '{arg}'")),
        None => Ok(()),
    }
}

/// The value after the first of `names`, parsed; `bad {what}` when it
/// does not parse.
pub fn parse_num<T: std::str::FromStr>(
    args: &[String],
    names: &[&str],
    what: &str,
) -> Result<Option<T>, String> {
    flag_value(args, names)
        .map(|s| s.parse().map_err(|_| format!("bad {what}")))
        .transpose()
}

/// Resolves `--socket PATH` / `--tcp ADDR` (mutually exclusive; the unix
/// socket at [`DEFAULT_SOCKET`] otherwise).
fn endpoint(args: &[String]) -> Result<Endpoint, String> {
    match (
        flag_value(args, &["--socket"]),
        flag_value(args, &["--tcp"]),
    ) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".into()),
        (Some(path), None) => Ok(Endpoint::Unix(path.into())),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr.to_string())),
        (None, None) => Ok(Endpoint::Unix(DEFAULT_SOCKET.into())),
    }
}

/// The perf-ledger destination: `--ledger-out FILE` for an explicit
/// path, bare `--ledger` for the default `.frodo/ledger.ndjson`.
pub fn ledger_path(args: &[String]) -> Option<PathBuf> {
    if let Some(path) = flag_value(args, &["--ledger-out"]) {
        return Some(path.into());
    }
    args.iter()
        .any(|a| a == "--ledger")
        .then(|| Path::new(".frodo").join("ledger.ndjson"))
}

/// `frodo serve`: run the daemon in the foreground until a client sends
/// `shutdown`. Arguments are checked before anything binds.
pub fn cmd_serve(args: &[String]) -> Result<(), String> {
    no_positionals(
        args,
        &[
            "--socket",
            "--tcp",
            "--workers",
            "-j",
            "--queue-cap",
            "--cache-dir",
            "--cache-cap",
            "--ledger-out",
        ],
        &["--ledger"],
    )?;
    let config = ServerConfig {
        endpoint: endpoint(args)?,
        workers: parse_num(args, &["--workers", "-j"], "--workers")?.unwrap_or(0),
        queue_cap: parse_num(args, &["--queue-cap"], "--queue-cap")?.unwrap_or(256),
        cache_dir: flag_value(args, &["--cache-dir"]).map(Into::into),
        cache_cap_bytes: parse_num(args, &["--cache-cap"], "--cache-cap")?.unwrap_or(0),
        ledger_out: ledger_path(args),
    };
    let server = Server::start(config)?;
    eprintln!("frodo serve: listening on {}", server.endpoint());
    server.wait();
    eprintln!("frodo serve: stopped");
    Ok(())
}

/// `frodo client`: one request against a running daemon.
pub fn cmd_client(args: &[String]) -> Result<(), String> {
    let value_flags = [
        "--socket",
        "--tcp",
        "-s",
        "--style",
        "--styles",
        "--timeout",
        "--client",
        "--retries",
        "-o",
        "--output",
        "--session",
        "--region-max",
        "--vectorize",
    ];
    let bool_flags = ["--verify", "--analyze", "--trace", "--window-reuse"];
    let pos = positionals(args, &value_flags, &bool_flags)?;
    let kind = *pos.first().ok_or(
        "client: missing request kind (compile|recompile|lint|batch|status|metrics|shutdown)",
    )?;
    let mut conn = Client::connect(&endpoint(args)?)?;
    let options = request_options(args)?;
    let client_id = parse_num(args, &["--client"], "--client")?;
    let retries: u32 = parse_num(args, &["--retries"], "--retries")?.unwrap_or(100);
    let output = flag_value(args, &["-o", "--output"]);
    match kind {
        "compile" => {
            let model = *pos.get(1).ok_or("client compile: missing model")?;
            let style = flag_value(args, &["-s", "--style"]);
            let line = client::compile_request(model, style, &options, client_id);
            let response = conn.request_with_retry(&line, retries)?;
            handle_result_line(&response, output)
        }
        "recompile" => {
            let model = *pos.get(1).ok_or("client recompile: missing model")?;
            let session = flag_value(args, &["--session"])
                .ok_or("client recompile: missing --session NAME")?;
            let style = flag_value(args, &["-s", "--style"]);
            let region_max: usize =
                parse_num(args, &["--region-max"], "--region-max")?.unwrap_or(0);
            let line = client::recompile_request(session, model, style, &options, region_max);
            let response = conn.request_one(&line)?;
            handle_result_line(&response, output)
        }
        "lint" => {
            let model = *pos.get(1).ok_or("client lint: missing model")?;
            let response = conn.request_one(&client::simple_request("lint", Some(model)))?;
            println!("{response}");
            let fields = ndjson::parse_line(&response)?;
            client::check_proto(&fields)?;
            expect_ok(&fields)
        }
        "batch" => {
            let models = &pos[1..];
            if models.is_empty() {
                return Err("client batch: no models given".into());
            }
            let styles = flag_value(args, &["-s", "--style", "--styles"]);
            let line = client::batch_request(models, styles, &options, client_id);
            let responses = conn.request_batch(&line)?;
            handle_batch_lines(&responses, output)
        }
        "status" => {
            let response = conn.request_one(&client::simple_request("status", None))?;
            println!("{response}");
            client::check_proto(&ndjson::parse_line(&response)?)
        }
        "metrics" => {
            let response = conn.request_one(&client::simple_request("metrics", None))?;
            let fields = ndjson::parse_line(&response)?;
            client::check_proto(&fields)?;
            expect_ok(&fields)?;
            print_metrics(&fields);
            Ok(())
        }
        "shutdown" => {
            let response = conn.request_one(&client::simple_request("shutdown", None))?;
            println!("{response}");
            client::check_proto(&ndjson::parse_line(&response)?)
        }
        other => Err(format!(
            "client: unknown request kind '{other}' \
             (expected compile|recompile|lint|batch|status|metrics|shutdown)"
        )),
    }
}

fn request_options(args: &[String]) -> Result<RequestOptions, String> {
    // Bare `batch` widths resolve server-side; the label travels verbatim.
    let vectorize = match flag_value(args, &["--vectorize"]) {
        None => frodo_codegen::VectorMode::default(),
        Some(s) => frodo_codegen::VectorMode::parse(s, 8)?,
    };
    Ok(RequestOptions {
        verify: args.iter().any(|a| a == "--verify"),
        analyze: args.iter().any(|a| a == "--analyze"),
        trace: args.iter().any(|a| a == "--trace"),
        timeout_ms: parse_num(args, &["--timeout"], "--timeout")?.unwrap_or(0),
        vectorize,
        window_reuse: args.iter().any(|a| a == "--window-reuse"),
    })
}

/// Unpacks a single `result` line: code to `-o` (or stdout), a summary
/// to stderr; failures become the exit error. `recompile` results add a
/// region-reuse line.
fn handle_result_line(line: &str, output: Option<&str>) -> Result<(), String> {
    let fields = ndjson::parse_line(line)?;
    client::check_proto(&fields)?;
    match ndjson::get_str(&fields, "type") {
        Some("result") => {}
        Some("draining") => return Err("daemon is draining; resubmit later".into()),
        _ => return Err(response_error(&fields)),
    }
    expect_ok(&fields)?;
    let code = ndjson::get_str(&fields, "code").unwrap_or_default();
    match output {
        Some(path) => std::fs::write(path, code).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{code}"),
    }
    eprintln!(
        "{} [{}] cache={} {} bytes",
        ndjson::get_str(&fields, "job").unwrap_or("?"),
        ndjson::get_str(&fields, "style").unwrap_or("?"),
        ndjson::get_str(&fields, "cache").unwrap_or("?"),
        ndjson::get_num(&fields, "code_bytes").unwrap_or(0.0) as u64,
    );
    if let Some(regions) = ndjson::get_num(&fields, "regions") {
        eprintln!(
            "  regions {}/{} reused, {} dirty blocks, {} fragments reused",
            ndjson::get_num(&fields, "region_hits").unwrap_or(0.0) as u64,
            regions as u64,
            ndjson::get_num(&fields, "dirty_blocks").unwrap_or(0.0) as u64,
            ndjson::get_num(&fields, "fragment_hits").unwrap_or(0.0) as u64,
        );
    }
    Ok(())
}

/// Unpacks a batch's `result` stream: code files into `-o DIR` (named
/// like `frodo batch -o`), per-job summaries to stderr.
fn handle_batch_lines(lines: &[String], output: Option<&str>) -> Result<(), String> {
    if let Some(dir) = output {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }
    let mut failures = Vec::new();
    for line in lines {
        let fields = ndjson::parse_line(line)?;
        client::check_proto(&fields)?;
        match ndjson::get_str(&fields, "type") {
            Some("result") => {
                let job = ndjson::get_str(&fields, "job").unwrap_or("?");
                if ndjson::get_num(&fields, "ok") == Some(1.0) {
                    let style = ndjson::get_str(&fields, "style").unwrap_or("?");
                    eprintln!(
                        "{job} [{style}] cache={} {} bytes",
                        ndjson::get_str(&fields, "cache").unwrap_or("?"),
                        ndjson::get_num(&fields, "code_bytes").unwrap_or(0.0) as u64,
                    );
                    if let Some(dir) = output {
                        let file = format!(
                            "{dir}/{}_{}.c",
                            job.replace(['/', '\\'], "_"),
                            style.to_ascii_lowercase()
                        );
                        let code = ndjson::get_str(&fields, "code").unwrap_or_default();
                        std::fs::write(&file, code).map_err(|e| format!("{file}: {e}"))?;
                    }
                } else {
                    failures.push(format!(
                        "{job}: {}",
                        ndjson::get_str(&fields, "error").unwrap_or("failed")
                    ));
                }
            }
            Some("batch-done") => {
                let rejected = ndjson::get_num(&fields, "rejected").unwrap_or(0.0) as u64;
                eprintln!(
                    "batch: {} jobs, {} ok, {} failed, {rejected} rejected",
                    ndjson::get_num(&fields, "jobs").unwrap_or(0.0) as u64,
                    ndjson::get_num(&fields, "ok").unwrap_or(0.0) as u64,
                    ndjson::get_num(&fields, "failed").unwrap_or(0.0) as u64,
                );
                if rejected > 0 {
                    failures.push(format!("{rejected} jobs rejected by admission control"));
                }
            }
            Some("busy") => failures.push("daemon busy; retry later".into()),
            Some("draining") => failures.push("daemon is draining".into()),
            _ => return Err(response_error(&fields)),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Renders a `metrics` response as a per-verb latency table plus a line
/// per live compile session.
fn print_metrics(fields: &[(String, ndjson::Value)]) {
    use std::time::Duration;
    let ns = |v: f64| frodo_obs::fmt_duration(Duration::from_nanos(v as u64));
    let num = |key: &str| ndjson::get_num(fields, key).unwrap_or(0.0);
    println!(
        "uptime {:.1}s, rolling window {}s",
        num("uptime_ms") / 1000.0,
        num("window_secs") as u64
    );
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>8}",
        "verb", "window", "p50", "p95", "max", "total"
    );
    let arr = |key: &str| {
        ndjson::get(fields, key)
            .and_then(ndjson::Value::as_arr)
            .unwrap_or(&[])
    };
    for verb in arr("verbs") {
        let f = |key: &str| {
            verb.field(key)
                .and_then(ndjson::Value::as_num)
                .unwrap_or(0.0)
        };
        println!(
            "{:<10} {:>7} {:>10} {:>10} {:>10} {:>8}",
            verb.field("verb")
                .and_then(ndjson::Value::as_str)
                .unwrap_or("?"),
            f("window_count") as u64,
            ns(f("p50_ns")),
            ns(f("p95_ns")),
            ns(f("max_ns")),
            f("total") as u64,
        );
    }
    let sessions = arr("sessions");
    if !sessions.is_empty() {
        println!("sessions:");
        for s in sessions {
            let f = |key: &str| s.field(key).and_then(ndjson::Value::as_num).unwrap_or(0.0);
            println!(
                "  {}: {} compiles, {} region hits / {} misses",
                s.field("session")
                    .and_then(ndjson::Value::as_str)
                    .unwrap_or("?"),
                f("compiles") as u64,
                f("region_hits") as u64,
                f("region_misses") as u64,
            );
        }
    }
}

fn expect_ok(fields: &[(String, ndjson::Value)]) -> Result<(), String> {
    if ndjson::get_num(fields, "ok") == Some(1.0) {
        Ok(())
    } else {
        Err(response_error(fields))
    }
}

fn response_error(fields: &[(String, ndjson::Value)]) -> String {
    ndjson::get_str(fields, "error")
        .or_else(|| ndjson::get_str(fields, "message"))
        .unwrap_or("request failed")
        .to_string()
}
