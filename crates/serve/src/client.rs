//! The client side: connection plumbing (shared with the server) and a
//! line-oriented request/response driver with backpressure-aware retry.

use crate::proto;
use frodo_obs::ndjson;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket at this path (the default transport).
    Unix(PathBuf),
    /// A TCP address (`host:port`), behind the `--tcp` flag.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// One accepted or dialed connection, over either transport.
#[derive(Debug)]
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn connect(endpoint: &Endpoint) -> std::io::Result<Stream> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
        }
    }

    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A connected client. One request at a time per connection; the daemon
/// answers each request with one line, except `batch`, which streams one
/// `result` line per job and terminates with `batch-done`.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Dials the daemon.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, String> {
        let stream =
            Stream::connect(endpoint).map_err(|e| format!("cannot reach {endpoint}: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone connection: {e}"))?,
        );
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line verbatim (the newline is added here).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Reads one response line; `None` when the daemon closed the
    /// connection.
    pub fn read_line(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end_matches('\n').to_string())),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Sends a single-response request (`compile`, `lint`, `status`,
    /// `shutdown`) and returns the daemon's one line.
    pub fn request_one(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.read_line()?
            .ok_or_else(|| "daemon closed the connection".to_string())
    }

    /// Sends a `batch` request and collects every line through the
    /// terminator (`batch-done`, or a `busy`/`draining`/`error` line).
    pub fn request_batch(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.send(line)?;
        let mut lines = Vec::new();
        loop {
            let Some(response) = self.read_line()? else {
                return Err("daemon closed the connection mid-batch".to_string());
            };
            let done = response_type(&response)? != "result";
            lines.push(response);
            if done {
                return Ok(lines);
            }
        }
    }

    /// Like [`Self::request_one`], but on a `busy` response honors the
    /// daemon's `retry_after_ms` hint and resends, up to `max_retries`
    /// times. Returns the first non-busy response.
    pub fn request_with_retry(&mut self, line: &str, max_retries: u32) -> Result<String, String> {
        for _ in 0..max_retries {
            let response = self.request_one(line)?;
            if response_type(&response)? != "busy" {
                return Ok(response);
            }
            let fields = ndjson::parse_line(&response)?;
            let backoff = ndjson::get_num(&fields, "retry_after_ms").unwrap_or(25.0) as u64;
            std::thread::sleep(Duration::from_millis(backoff.max(1)));
        }
        Err(format!("still busy after {max_retries} retries"))
    }
}

/// The `"type"` of a response line.
pub fn response_type(line: &str) -> Result<String, String> {
    let fields = ndjson::parse_line(line)?;
    ndjson::get_str(&fields, "type")
        .map(str::to_string)
        .ok_or_else(|| "response has no \"type\" field".to_string())
}

/// Starts a request object: `type` plus the protocol version this build
/// speaks.
fn request(kind: &str) -> ndjson::ObjWriter {
    let mut w = ndjson::ObjWriter::new();
    w.field_str("type", kind)
        .field_num("proto_version", proto::PROTO_VERSION);
    w
}

/// Checks that a response states this build's `proto_version`. A
/// response stating another version, or none, is a clean error instead of
/// a misread line.
pub fn check_proto(fields: &[(String, ndjson::Value)]) -> Result<(), String> {
    match ndjson::get_num(fields, "proto_version") {
        Some(v) if v == proto::PROTO_VERSION as f64 => Ok(()),
        v => Err(format!(
            "daemon speaks proto_version {}; this client speaks {}",
            v.map_or_else(|| "none".to_string(), |v| v.to_string()),
            proto::PROTO_VERSION
        )),
    }
}

/// Builds a `compile` request line from CLI-level parts.
pub fn compile_request(
    model: &str,
    style: Option<&str>,
    options: &proto::RequestOptions,
    client: Option<u64>,
) -> String {
    let mut w = request("compile");
    w.field_str("model", model);
    if let Some(style) = style {
        w.field_str("style", style);
    }
    write_options(&mut w, options, client);
    w.finish()
}

/// Builds a `batch` request line from CLI-level parts.
pub fn batch_request(
    models: &[&str],
    styles: Option<&str>,
    options: &proto::RequestOptions,
    client: Option<u64>,
) -> String {
    let items: Vec<String> = models
        .iter()
        .map(|m| format!("\"{}\"", frodo_obs::json_escape(m)))
        .collect();
    let mut w = request("batch");
    w.field_raw("models", &format!("[{}]", items.join(",")));
    if let Some(styles) = styles {
        w.field_str("styles", styles);
    }
    write_options(&mut w, options, client);
    w.finish()
}

/// Builds a `recompile` request line: a compile through the named
/// server-side incremental session.
pub fn recompile_request(
    session: &str,
    model: &str,
    style: Option<&str>,
    options: &proto::RequestOptions,
    region_max: usize,
) -> String {
    let mut w = request("recompile");
    w.field_str("session", session).field_str("model", model);
    if let Some(style) = style {
        w.field_str("style", style);
    }
    if region_max > 0 {
        w.field_num("region_max", region_max as u64);
    }
    write_options(&mut w, options, None);
    w.finish()
}

/// Builds a bare request line (`lint` takes a model; `status` and
/// `shutdown` take nothing).
pub fn simple_request(kind: &str, model: Option<&str>) -> String {
    let mut w = request(kind);
    if let Some(model) = model {
        w.field_str("model", model);
    }
    w.finish()
}

fn write_options(w: &mut ndjson::ObjWriter, options: &proto::RequestOptions, client: Option<u64>) {
    if options.verify {
        w.field_num("verify", 1);
    }
    if options.analyze {
        w.field_num("analyze", 1);
    }
    if options.trace {
        w.field_num("trace", 1);
    }
    if options.timeout_ms > 0 {
        w.field_num("timeout_ms", options.timeout_ms);
    }
    match options.vectorize {
        frodo_codegen::VectorMode::Auto => {}
        frodo_codegen::VectorMode::Off => {
            w.field_str("vectorize", "off");
        }
        frodo_codegen::VectorMode::Hints => {
            w.field_str("vectorize", "hints");
        }
        frodo_codegen::VectorMode::Batch(width) => {
            w.field_str("vectorize", &format!("batch:{width}"));
        }
    }
    if options.window_reuse {
        w.field_num("window_reuse", 1);
    }
    if let Some(client) = client {
        w.field_num("client", client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_request, Request};

    #[test]
    fn built_requests_parse_back() {
        let opts = proto::RequestOptions {
            verify: true,
            analyze: true,
            timeout_ms: 250,
            ..Default::default()
        };
        let line = compile_request("models/a b.mdl", Some("hcg"), &opts, Some(3));
        match parse_request(&line).unwrap() {
            Request::Compile {
                model,
                style,
                options,
                client,
            } => {
                assert_eq!(model, "models/a b.mdl");
                assert_eq!(style, frodo_codegen::GeneratorStyle::Hcg);
                assert!(options.verify);
                assert!(options.analyze);
                assert_eq!(options.timeout_ms, 250);
                assert_eq!(client, Some(3));
            }
            other => panic!("expected compile, got {other:?}"),
        }

        let line = batch_request(
            &["Kalman", "x\"y.mdl"],
            Some("all"),
            &Default::default(),
            None,
        );
        match parse_request(&line).unwrap() {
            Request::Batch { models, styles, .. } => {
                assert_eq!(models, ["Kalman", "x\"y.mdl"]);
                assert_eq!(styles.len(), 4);
            }
            other => panic!("expected batch, got {other:?}"),
        }

        let line = recompile_request("s1", "random:42:60", None, &Default::default(), 16);
        match parse_request(&line).unwrap() {
            Request::Recompile {
                session,
                model,
                region_max,
                ..
            } => {
                assert_eq!(session, "s1");
                assert_eq!(model, "random:42:60");
                assert_eq!(region_max, 16);
            }
            other => panic!("expected recompile, got {other:?}"),
        }

        assert!(matches!(
            parse_request(&simple_request("status", None)).unwrap(),
            Request::Status
        ));
    }

    #[test]
    fn requests_carry_the_proto_version_and_responses_are_checked() {
        let line = simple_request("status", None);
        let fields = ndjson::parse_line(&line).unwrap();
        assert_eq!(
            ndjson::get_num(&fields, "proto_version"),
            Some(proto::PROTO_VERSION as f64)
        );

        // a response stating no version is a pre-v4 daemon's: refused
        let v1 = ndjson::parse_line(r#"{"type":"status","ok":1}"#).unwrap();
        assert!(check_proto(&v1).unwrap_err().contains("proto_version none"));
        let current = ndjson::parse_line(&format!(
            r#"{{"type":"status","proto_version":{}}}"#,
            proto::PROTO_VERSION
        ))
        .unwrap();
        assert!(check_proto(&current).is_ok());
        let future = ndjson::parse_line(r#"{"type":"status","proto_version":99}"#).unwrap();
        let err = check_proto(&future).unwrap_err();
        assert!(err.contains("proto_version 99"), "{err}");
    }
}
