//! Integration tests of the compile daemon (`frodo-serve`): several
//! concurrent clients over one unix socket must get artifacts
//! byte-identical to one-shot compiles, a saturated admission queue must
//! answer with backpressure instead of blocking or dropping, round-robin
//! admission must keep a small client from starving behind a big batch,
//! shutdown must drain the backlog before the listener goes away, every
//! model reference form the CLI takes must work over the wire, and an
//! over-long request line must be refused without being buffered.

use frodo::obs::ndjson;
use frodo::prelude::*;
use frodo::serve::{Client, Endpoint, RequestOptions, Server, ServerConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn socket_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("frodo-serve-{}-{name}.sock", std::process::id()))
}

fn start_server(name: &str, workers: usize, queue_cap: usize) -> Server {
    Server::start(ServerConfig {
        endpoint: Endpoint::Unix(socket_path(name)),
        workers,
        queue_cap,
        cache_dir: None,
        cache_cap_bytes: 0,
        ledger_out: None,
    })
    .expect("daemon binds the socket")
}

fn str_field(line: &str, key: &str) -> String {
    let fields = ndjson::parse_line(line).expect("response parses");
    ndjson::get_str(&fields, key)
        .unwrap_or_else(|| panic!("response has no \"{key}\": {line}"))
        .to_string()
}

fn num_field(line: &str, key: &str) -> f64 {
    let fields = ndjson::parse_line(line).expect("response parses");
    ndjson::get_num(&fields, key).unwrap_or_else(|| panic!("response has no \"{key}\": {line}"))
}

#[test]
fn concurrent_clients_get_byte_identical_artifacts() {
    // one-shot reference: a fresh uncached service per (model, style)
    let benches: Vec<_> = frodo::benchmodels::all().into_iter().take(4).collect();
    let styles = [GeneratorStyle::Frodo, GeneratorStyle::Hcg];
    let one_shot = CompileService::new(ServiceConfig {
        workers: 1,
        no_cache: true,
        ..ServiceConfig::default()
    });
    let mut reference = std::collections::HashMap::new();
    for bench in &benches {
        for style in styles {
            let out = one_shot
                .compile(JobSpec::from_model(bench.name, bench.model.clone(), style))
                .expect("suite compiles");
            reference.insert(
                (bench.name.to_string(), style.label().to_string()),
                out.code,
            );
        }
    }

    let server = start_server("ident", 2, 0);
    let endpoint = server.endpoint().clone();
    let handles: Vec<_> = benches
        .iter()
        .map(|bench| {
            let endpoint = endpoint.clone();
            let model = bench.name.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).expect("daemon is up");

                // mixed traffic: lint and status interleave with compiles
                let lint = client
                    .request_one(&frodo::serve::client::simple_request("lint", Some(&model)))
                    .unwrap();
                assert_eq!(str_field(&lint, "type"), "lint-result");

                let status = client
                    .request_one(&frodo::serve::client::simple_request("status", None))
                    .unwrap();
                assert_eq!(str_field(&status, "type"), "status");
                assert_eq!(num_field(&status, "ok"), 1.0);

                let mut got = Vec::new();
                for style in ["frodo", "hcg"] {
                    let line = client
                        .request_one(&frodo::serve::client::compile_request(
                            &model,
                            Some(style),
                            &RequestOptions::default(),
                            None,
                        ))
                        .unwrap();
                    assert_eq!(str_field(&line, "type"), "result");
                    assert_eq!(num_field(&line, "ok"), 1.0, "compile failed: {line}");
                    got.push((
                        model.clone(),
                        str_field(&line, "style"),
                        str_field(&line, "code"),
                    ));
                }
                got
            })
        })
        .collect();

    let mut compiled = 0;
    for handle in handles {
        for (model, style, code) in handle.join().expect("client thread") {
            let expected = reference
                .get(&(model.clone(), style.clone()))
                .expect("reference covers the pair");
            assert_eq!(
                &code, expected,
                "{model}/{style} differs between the daemon and a one-shot compile"
            );
            compiled += 1;
        }
    }
    assert_eq!(compiled, 8, "4 clients x 2 styles");

    let mut client = Client::connect(&endpoint).expect("daemon is up");
    let ack = client
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    assert_eq!(str_field(&ack, "type"), "shutdown");
    server.wait();
}

#[test]
fn recompile_sessions_reuse_regions_and_match_one_shot_compiles() {
    let server = start_server("recompile", 1, 0);
    let endpoint = server.endpoint().clone();
    let mut client = Client::connect(&endpoint).expect("daemon is up");

    // every response states the protocol version it speaks
    let status = client
        .request_one(&frodo::serve::client::simple_request("status", None))
        .unwrap();
    assert_eq!(
        num_field(&status, "proto_version"),
        frodo::serve::PROTO_VERSION as f64
    );

    // a request from the future gets a structured refusal, not a misparse
    let refused = client
        .request_one(r#"{"type":"status","proto_version":99}"#)
        .unwrap();
    assert_eq!(str_field(&refused, "type"), "error");
    assert!(
        str_field(&refused, "message").contains("unsupported proto_version 99"),
        "{refused}"
    );

    // cold compile through a named session
    let cold = client
        .request_one(&frodo::serve::client::recompile_request(
            "edit-loop",
            "random:42:120",
            None,
            &RequestOptions::default(),
            8,
        ))
        .unwrap();
    assert_eq!(num_field(&cold, "ok"), 1.0, "cold recompile failed: {cold}");
    assert_eq!(num_field(&cold, "region_hits"), 0.0);
    assert!(num_field(&cold, "regions") > 0.0);

    // resubmit with one gain edited: most regions must be reused, and the
    // code must be byte-identical to a one-shot compile of the edited model
    let warm = client
        .request_one(&frodo::serve::client::recompile_request(
            "edit-loop",
            "random:42:120:edit:1",
            None,
            &RequestOptions::default(),
            8,
        ))
        .unwrap();
    assert_eq!(num_field(&warm, "ok"), 1.0, "warm recompile failed: {warm}");
    let regions = num_field(&warm, "regions");
    let hits = num_field(&warm, "region_hits");
    assert!(
        hits >= regions - 1.0 && hits < regions,
        "a one-block edit should dirty exactly one region: {warm}"
    );
    let one_shot = CompileService::new(ServiceConfig {
        workers: 1,
        no_cache: true,
        ..ServiceConfig::default()
    });
    let expected = one_shot
        .compile(JobSpec::from_model(
            "edited",
            frodo::benchmodels::by_spec("random:42:120:edit:1").unwrap(),
            GeneratorStyle::Frodo,
        ))
        .expect("one-shot compiles");
    assert_eq!(
        str_field(&warm, "code"),
        expected.code,
        "incremental recompile must be byte-identical to a cold compile"
    );

    // the session pins its style; asking for another is refused cleanly
    let clash = client
        .request_one(&frodo::serve::client::recompile_request(
            "edit-loop",
            "random:42:120",
            Some("hcg"),
            &RequestOptions::default(),
            0,
        ))
        .unwrap();
    assert_eq!(str_field(&clash, "type"), "error");
    assert!(str_field(&clash, "message").contains("pinned"), "{clash}");

    client
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    server.wait();
}

#[test]
fn saturated_queue_answers_busy_instead_of_blocking_or_dropping() {
    // one worker, a one-slot queue: an overstuffed batch must see
    // rejections (the submission loop outruns any compile), and the
    // daemon must keep answering — nothing blocks, nothing vanishes.
    let server = start_server("busy", 1, 1);
    let endpoint = server.endpoint().clone();

    let models: Vec<&str> = ["Kalman", "Kalman", "Kalman"].to_vec();
    let mut client = Client::connect(&endpoint).expect("daemon is up");
    let lines = client
        .request_batch(&frodo::serve::client::batch_request(
            &models,
            Some("all"),
            &RequestOptions::default(),
            Some(1),
        ))
        .unwrap();
    let done = lines.last().expect("batch terminates");
    assert_eq!(str_field(done, "type"), "batch-done");
    let total = num_field(done, "jobs") as usize;
    let ok = num_field(done, "ok") as usize;
    let rejected = num_field(done, "rejected") as usize;
    assert_eq!(total, 12, "3 models x 4 styles");
    assert!(
        rejected >= 1,
        "a 12-job burst through a 1-slot queue must hit admission control: {done}"
    );
    assert_eq!(
        ok + rejected,
        total,
        "every job is answered or rejected, never dropped"
    );
    // one streamed result line per accepted job, plus the terminator
    assert_eq!(lines.len(), ok + 1);

    // the rejected jobs are retryable: backpressure is advisory, not fatal
    for _ in 0..rejected {
        let line = client
            .request_with_retry(
                &frodo::serve::client::compile_request(
                    "Kalman",
                    Some("frodo"),
                    &RequestOptions::default(),
                    Some(1),
                ),
                200,
            )
            .unwrap();
        assert_eq!(
            num_field(&line, "ok"),
            1.0,
            "retried compile failed: {line}"
        );
    }

    // a busy line, when one is surfaced, must carry a usable retry hint
    let probe = frodo::serve::client::compile_request(
        "Kalman",
        Some("frodo"),
        &RequestOptions::default(),
        Some(2),
    );
    let response = client.request_one(&probe).unwrap();
    match str_field(&response, "type").as_str() {
        "busy" => assert!(num_field(&response, "retry_after_ms") >= 1.0),
        "result" => assert_eq!(num_field(&response, "ok"), 1.0),
        other => panic!("unexpected response type '{other}': {response}"),
    }

    let ack = client
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    assert_eq!(str_field(&ack, "type"), "shutdown");
    server.wait();
}

#[test]
fn round_robin_admission_keeps_a_small_client_ahead_of_a_big_batch() {
    // client 1 floods the daemon with the whole suite; client 2 asks for
    // one compile right after. Round-robin admission must interleave
    // client 2's job into the backlog, so it finishes well before the
    // flood's terminator — under FIFO it would queue behind all 40 jobs.
    let server = start_server("fair", 1, 0);
    let endpoint = server.endpoint().clone();
    let finished = Arc::new(Mutex::new(Vec::<(String, Instant)>::new()));

    let flood = {
        let endpoint = endpoint.clone();
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("daemon is up");
            let models: Vec<String> = frodo::benchmodels::all()
                .into_iter()
                .map(|b| b.name.to_string())
                .collect();
            let refs: Vec<&str> = models.iter().map(String::as_str).collect();
            let lines = client
                .request_batch(&frodo::serve::client::batch_request(
                    &refs,
                    Some("all"),
                    &RequestOptions::default(),
                    Some(1),
                ))
                .unwrap();
            let done = lines.last().unwrap().clone();
            assert_eq!(str_field(&done, "type"), "batch-done");
            assert_eq!(
                num_field(&done, "ok"),
                40.0,
                "10 models x 4 styles all compile"
            );
            finished
                .lock()
                .unwrap()
                .push(("flood".into(), Instant::now()));
        })
    };
    let small = {
        let endpoint = endpoint.clone();
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("daemon is up");
            let line = client
                .request_with_retry(
                    &frodo::serve::client::compile_request(
                        "Kalman",
                        Some("frodo"),
                        &RequestOptions::default(),
                        Some(2),
                    ),
                    200,
                )
                .unwrap();
            assert_eq!(
                num_field(&line, "ok"),
                1.0,
                "small client's compile failed: {line}"
            );
            finished
                .lock()
                .unwrap()
                .push(("small".into(), Instant::now()));
        })
    };
    flood.join().expect("flood client");
    small.join().expect("small client");

    let order = finished.lock().unwrap();
    let at = |who: &str| order.iter().find(|(n, _)| n == who).unwrap().1;
    assert!(
        at("small") < at("flood"),
        "round-robin admission should finish the single job before the 40-job flood"
    );

    let mut client = Client::connect(&endpoint).expect("daemon is up");
    client
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    server.wait();
}

#[test]
fn metrics_reports_rolling_windows_and_request_ids_correlate() {
    let server = start_server("metrics", 1, 0);
    let endpoint = server.endpoint().clone();
    let mut client = Client::connect(&endpoint).expect("daemon is up");

    // a retired protocol version gets a structured refusal
    let status = client
        .request_one(r#"{"type":"status","proto_version":2}"#)
        .unwrap();
    assert_eq!(str_field(&status, "type"), "error");
    assert!(
        str_field(&status, "message").contains("unsupported proto_version 2"),
        "{status}"
    );

    // every response carries a request_id; a client-supplied one is
    // echoed back verbatim
    let echoed = client
        .request_one(r#"{"type":"status","request_id":424242}"#)
        .unwrap();
    assert_eq!(num_field(&echoed, "request_id"), 424242.0);
    // server-assigned ids exist and are distinct across requests
    let a = num_field(&status, "request_id");
    let b = num_field(
        &client
            .request_one(&frodo::serve::client::simple_request("status", None))
            .unwrap(),
        "request_id",
    );
    assert_ne!(a, b, "server-assigned request ids must not repeat");

    // a batch's whole response stream shares one request_id
    let lines = client
        .request_batch(r#"{"type":"batch","models":["Kalman"],"request_id":77}"#)
        .unwrap();
    assert!(lines.len() >= 2, "result stream plus terminator");
    for line in &lines {
        assert_eq!(num_field(line, "request_id"), 77.0, "{line}");
    }

    // three compiles, then the metrics verb must see them in its window
    for _ in 0..3 {
        let line = client
            .request_one(&frodo::serve::client::compile_request(
                "Kalman",
                Some("frodo"),
                &RequestOptions::default(),
                None,
            ))
            .unwrap();
        assert_eq!(num_field(&line, "ok"), 1.0, "compile failed: {line}");
    }
    let metrics = client
        .request_one(&frodo::serve::client::simple_request("metrics", None))
        .unwrap();
    assert_eq!(str_field(&metrics, "type"), "metrics");
    assert_eq!(num_field(&metrics, "ok"), 1.0);
    assert!(num_field(&metrics, "window_secs") >= 1.0);
    let fields = ndjson::parse_line(&metrics).unwrap();
    let verbs = ndjson::get(&fields, "verbs")
        .and_then(ndjson::Value::as_arr)
        .expect("metrics carries a verbs array");
    let compile = verbs
        .iter()
        .find(|v| v.field("verb").and_then(ndjson::Value::as_str) == Some("compile"))
        .expect("compile verb is reported");
    let vnum = |key: &str| compile.field(key).and_then(ndjson::Value::as_num).unwrap();
    assert!(vnum("window_count") >= 3.0, "{metrics}");
    assert!(vnum("total") >= 3.0);
    assert!(vnum("p50_ns") > 0.0, "compiles take measurable time");
    assert!(vnum("max_ns") >= vnum("p50_ns"));
    // the latency histogram is parseable and consistent: bucket counts
    // sum to the window count
    let buckets = |key: &str| -> Vec<u64> {
        compile
            .field(key)
            .and_then(ndjson::Value::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_num().unwrap() as u64)
            .collect()
    };
    let uppers = buckets("bucket_upper");
    let counts = buckets("bucket_count");
    assert_eq!(uppers.len(), counts.len());
    assert_eq!(counts.iter().sum::<u64>(), vnum("window_count") as u64);
    for w in uppers.windows(2) {
        assert!(w[0] < w[1], "bucket bounds ascend");
    }

    let ack = client
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    assert_eq!(str_field(&ack, "type"), "shutdown");
    server.wait();
}

#[test]
fn shutdown_drains_the_backlog_and_removes_the_socket() {
    let socket = socket_path("drain");
    let ledger = std::env::temp_dir().join(format!(
        "frodo-serve-{}-drain-ledger.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ledger);
    let server = Server::start(ServerConfig {
        endpoint: Endpoint::Unix(socket.clone()),
        workers: 1,
        queue_cap: 0,
        cache_dir: None,
        cache_cap_bytes: 0,
        ledger_out: Some(ledger.clone()),
    })
    .expect("daemon binds the socket");
    let endpoint = server.endpoint().clone();

    // a batch holds the backlog open while the shutdown lands
    let batch = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("daemon is up");
            let lines = client
                .request_batch(&frodo::serve::client::batch_request(
                    &["Kalman", "HighPass"],
                    Some("all"),
                    &RequestOptions::default(),
                    Some(1),
                ))
                .unwrap();
            let done = lines.last().unwrap().clone();
            (
                num_field(&done, "ok") as usize,
                num_field(&done, "rejected") as usize,
            )
        })
    };

    // wait until the whole batch is admitted, then pull the plug
    let mut control = Client::connect(&endpoint).expect("daemon is up");
    loop {
        let status = control
            .request_one(&frodo::serve::client::simple_request("status", None))
            .unwrap();
        if num_field(&status, "submitted") as usize >= 8 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let ack = control
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    assert_eq!(str_field(&ack, "type"), "shutdown");
    assert_eq!(
        num_field(&ack, "completed"),
        8.0,
        "the drain finishes every admitted job before the ack: {ack}"
    );
    assert_eq!(str_field(&ack, "ledger"), ledger.display().to_string());

    // the in-flight batch still got every result — drained, not dropped
    let (ok, rejected) = batch.join().expect("batch client");
    assert_eq!(
        (ok, rejected),
        (8, 0),
        "2 models x 4 styles, none shed by the drain"
    );

    server.wait();
    assert!(
        !socket.exists(),
        "the daemon removes its socket file on exit"
    );
    assert!(
        Client::connect(&endpoint).is_err(),
        "no listener after shutdown"
    );

    // the final ledger entry is a well-formed schema line with the
    // service metrics the drain left behind
    let text = std::fs::read_to_string(&ledger).expect("ledger flushed");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one entry per daemon lifetime");
    let entry = frodo::obs::LedgerEntry::from_line(lines[0]).expect("ledger line parses");
    assert_eq!(entry.label, "serve");
    let svc = entry.svc.expect("serve entries carry service metrics");
    assert_eq!(
        svc.cache_hits + svc.cache_misses,
        8,
        "every job consulted the cache"
    );
    // the request-level rollup covers at least the status polls (the
    // batch and shutdown requests are still in flight when the ledger
    // flushes, so they may not be counted yet)
    assert!(svc.requests_total >= 1, "{svc:?}");
    assert!(svc.request_max_ns >= svc.request_p50_ns);
    assert!(svc.request_max_ns > 0);
    let _ = std::fs::remove_file(&ledger);
}

/// Protocol version 4: the `analyze` flag rides a compile request through
/// the daemon. A FRODO-style compile with the dataflow analyses on must
/// succeed with an artifact byte-identical to one compiled without them
/// (the stage observes, it does not transform), and a Simulink-style
/// compile must also succeed — its F204 residual-redundancy findings are
/// warnings, not the fail-closed F3xx class.
#[test]
fn analyze_option_rides_the_wire_and_warnings_do_not_fail_jobs() {
    let server = start_server("analyze", 1, 0);
    let endpoint = server.endpoint().clone();
    let mut client = Client::connect(&endpoint).expect("daemon is up");

    let analyzed = RequestOptions {
        analyze: true,
        ..RequestOptions::default()
    };
    // analyzed first, so the fresh (uncached) compile is the one that
    // actually runs the stage and would fail closed on an F3xx finding
    let mut codes = Vec::new();
    for opts in [&analyzed, &RequestOptions::default()] {
        let line = client
            .request_one(&frodo::serve::client::compile_request(
                "HT",
                Some("frodo"),
                opts,
                None,
            ))
            .unwrap();
        assert_eq!(str_field(&line, "type"), "result");
        assert_eq!(num_field(&line, "ok"), 1.0, "compile failed: {line}");
        codes.push(str_field(&line, "code"));
    }
    assert_eq!(
        codes[0], codes[1],
        "analyze stage must not change the artifact"
    );

    let line = client
        .request_one(&frodo::serve::client::compile_request(
            "HT",
            Some("simulink"),
            &analyzed,
            None,
        ))
        .unwrap();
    assert_eq!(
        num_field(&line, "ok"),
        1.0,
        "residual-redundancy warnings must not fail the job: {line}"
    );

    let ack = client
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    assert_eq!(str_field(&ack, "type"), "shutdown");
    server.wait();
}

/// The daemon resolves model references the way the CLI does: a bundled
/// benchmark name, a `random:` spec, and `.slx`/`.mdl` paths all compile,
/// lint and recompile; a reference of no known form is a structured error.
#[test]
fn daemon_requests_accept_every_model_reference_form() {
    let file = |ext: &str| {
        std::env::temp_dir().join(format!("frodo-serve-{}-forms.{ext}", std::process::id()))
    };
    let (slx, mdl) = (file("slx"), file("mdl"));
    let model = frodo::benchmodels::by_name("Simpson").unwrap().model;
    std::fs::write(&slx, frodo::slx::write_slx(&model).unwrap()).unwrap();
    std::fs::write(&mdl, frodo::slx::write_mdl(&model)).unwrap();

    let server = start_server("forms", 1, 0);
    let mut client = Client::connect(server.endpoint()).expect("daemon is up");
    let refs = [
        "Simpson",
        "random:3:40",
        slx.to_str().unwrap(),
        mdl.to_str().unwrap(),
    ];
    for (i, model_ref) in refs.into_iter().enumerate() {
        let compile = client
            .request_one(&frodo::serve::client::compile_request(
                model_ref,
                None,
                &RequestOptions::default(),
                None,
            ))
            .unwrap();
        assert_eq!(num_field(&compile, "ok"), 1.0, "{model_ref}: {compile}");
        let lint = client
            .request_one(&frodo::serve::client::simple_request(
                "lint",
                Some(model_ref),
            ))
            .unwrap();
        assert_eq!(
            str_field(&lint, "type"),
            "lint-result",
            "{model_ref}: {lint}"
        );
        assert_eq!(num_field(&lint, "ok"), 1.0, "{model_ref}: {lint}");
        let recompile = client
            .request_one(&frodo::serve::client::recompile_request(
                &format!("forms-{i}"),
                model_ref,
                None,
                &RequestOptions::default(),
                0,
            ))
            .unwrap();
        assert_eq!(num_field(&recompile, "ok"), 1.0, "{model_ref}: {recompile}");
    }
    let unknown = client
        .request_one(&frodo::serve::client::compile_request(
            "NoSuchModel",
            None,
            &RequestOptions::default(),
            None,
        ))
        .unwrap();
    assert_eq!(str_field(&unknown, "type"), "error");
    assert!(
        str_field(&unknown, "message").contains("frodo list"),
        "{unknown}"
    );

    client
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    server.wait();
    for p in [&slx, &mdl] {
        let _ = std::fs::remove_file(p);
    }
}

/// A request line of exactly `MAX_REQUEST_LINE` bytes is served. Of twice
/// that many bytes without a newline, the daemon reads little past the
/// cap: it answers one `error` line naming the cap and closes the
/// connection. Other connections keep being served.
#[test]
fn an_over_long_request_line_is_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let cap = frodo::serve::server::MAX_REQUEST_LINE;
    let server = start_server("long-line", 1, 0);

    let stream =
        std::os::unix::net::UnixStream::connect(socket_path("long-line")).expect("daemon is up");
    let mut writer = stream.try_clone().unwrap();
    // count the bytes the daemon takes before it closes the connection;
    // if it takes them all, end the stream so that a reader without a
    // cap answers instead of waiting for a newline
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        let mut written = 0;
        while written < 2 * cap {
            match writer.write(&chunk[..chunk.len().min(2 * cap - written)]) {
                Ok(0) | Err(_) => break,
                Ok(n) => written += n,
            }
        }
        let _ = writer.shutdown(std::net::Shutdown::Write);
        written
    });
    let mut reply = String::new();
    let mut reader = BufReader::new(stream);
    reader
        .read_line(&mut reply)
        .expect("an error line comes back");
    let written = flood.join().unwrap();
    assert!(
        written < 2 * cap,
        "the daemon read all {written} bytes of a line past its {cap}-byte cap"
    );
    assert_eq!(str_field(&reply, "type"), "error");
    assert!(
        str_field(&reply, "message").contains(&format!("{cap} bytes")),
        "{reply}"
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection closed");

    let mut client = Client::connect(server.endpoint()).expect("daemon is up");
    let status = r#"{"type":"status"}"#;
    let padded = format!("{status}{}", " ".repeat(cap - status.len()));
    assert_eq!(padded.len(), cap);
    let line = client.request_one(&padded).unwrap();
    assert_eq!(str_field(&line, "type"), "status", "{line}");

    client
        .request_one(&frodo::serve::client::simple_request("shutdown", None))
        .unwrap();
    server.wait();
}
