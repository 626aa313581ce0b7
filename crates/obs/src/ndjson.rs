//! A minimal NDJSON reader and writer for the flat-object wire format:
//! enough JSON to parse the objects [`crate::Trace::to_ndjson`] emits —
//! so tests and CI gates can validate exported traces without a JSON
//! crate — plus [`ObjWriter`], the emitting counterpart used by the perf
//! ledger and the `frodo serve` request/response protocol so every
//! producer escapes strings the same way. Parse errors locate the fault
//! by 1-based line *and* byte offset, because wire documents span many
//! request/response lines.

use crate::export::json_escape;
use crate::hist::Histogram;
use crate::trace::{CounterRecord, SpanRecord, TraceSnapshot};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string literal (unescaped).
    Str(String),
    /// A number.
    Num(f64),
    /// An array of values.
    Arr(Vec<Value>),
    /// A nested object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The number inside, or `None`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string inside, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array inside, or `None`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields inside, or `None`.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks a field up in an object value.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Looks a field up in a parsed field list ([`parse_line`]'s output).
pub fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The string field named `key`, or `None` when absent or non-string.
pub fn get_str<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    get(fields, key).and_then(Value::as_str)
}

/// The numeric field named `key`, or `None` when absent or non-numeric.
pub fn get_num(fields: &[(String, Value)], key: &str) -> Option<f64> {
    get(fields, key).and_then(Value::as_num)
}

/// Builds one flat JSON object line incrementally: the emitting
/// counterpart of [`parse_line`]. Strings are escaped with the same
/// rules the parser enforces (all control bytes below `0x20`), so a
/// written line always parses back. The request/response schema of the
/// compile daemon and the perf ledger are both built on this writer.
///
/// ```
/// use frodo_obs::ndjson;
/// let mut w = ndjson::ObjWriter::new();
/// w.field_str("type", "status").field_num("queue_depth", 3);
/// let line = w.finish();
/// assert_eq!(line, "{\"type\":\"status\",\"queue_depth\":3}");
/// assert!(ndjson::parse_line(&line).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    /// An empty object writer.
    pub fn new() -> ObjWriter {
        ObjWriter::default()
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", json_escape(key));
    }

    /// Appends a string field (value escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", json_escape(value));
        self
    }

    /// Appends an unsigned integer field.
    pub fn field_num(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field with two decimals (rates, percentages).
    pub fn field_pct(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        let _ = write!(
            self.buf,
            "{:.2}",
            if value.is_finite() { value } else { 0.0 }
        );
        self
    }

    /// Appends pre-rendered JSON (a nested array or object) verbatim.
    /// The caller is responsible for its validity.
    pub fn field_raw(&mut self, key: &str, raw_json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(raw_json);
        self
    }

    /// Renders the complete object (no trailing newline).
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Per-type line counts of a validated NDJSON document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// `"type":"span"` lines.
    pub spans: usize,
    /// `"type":"counter"` lines.
    pub counters: usize,
    /// `"type":"hist"` lines.
    pub hists: usize,
}

/// Parses one JSON object: the NDJSON export's flat lines, or a whole
/// nested document such as the chrome-trace export (insignificant
/// whitespace, including newlines, is skipped). Returns the top-level
/// fields in document order.
///
/// Strings must not contain raw (unescaped) control bytes below `0x20` —
/// RFC 8259 forbids them, and rejecting them here keeps one malformed
/// span name from corrupting a whole export.
///
/// # Errors
///
/// Returns a description of the first syntax violation.
pub fn parse_line(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser {
        bytes: line.trim().as_bytes(),
        pos: 0,
    };
    let fields = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes {}", p.at()));
    }
    Ok(fields)
}

/// Validates a whole NDJSON document: every non-empty line must parse and
/// carry a known `"type"` with that type's required fields.
///
/// # Errors
///
/// Returns `line number: problem` for the first invalid line.
pub fn validate(text: &str) -> Result<Stats, String> {
    let mut stats = Stats::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let require = |keys: &[&str]| -> Result<(), String> {
            for key in keys {
                match get(key) {
                    Some(_) => {}
                    None => return Err(format!("line {}: missing field {key:?}", i + 1)),
                }
            }
            Ok(())
        };
        match get("type") {
            Some(Value::Str(t)) if t == "span" => {
                require(&["id", "parent", "name", "start_ns", "dur_ns"])?;
                stats.spans += 1;
            }
            Some(Value::Str(t)) if t == "counter" => {
                require(&["span", "name", "value"])?;
                stats.counters += 1;
            }
            Some(Value::Str(t)) if t == "hist" => {
                require(&["name", "count", "sum", "min", "max"])?;
                stats.hists += 1;
            }
            Some(Value::Str(t)) => return Err(format!("line {}: unknown type {t:?}", i + 1)),
            _ => return Err(format!("line {}: missing \"type\"", i + 1)),
        }
    }
    Ok(stats)
}

/// Reconstructs a [`TraceSnapshot`] from its NDJSON export, so written
/// traces can be re-ingested (aggregated, diffed, re-exported as chrome
/// trace or collapsed stacks) without the original [`crate::Trace`].
///
/// # Errors
///
/// Returns `line number: problem` for the first line that fails to parse,
/// is missing a required field, or carries a field of the wrong type.
pub fn snapshot(text: &str) -> Result<TraceSnapshot, String> {
    let mut snap = TraceSnapshot::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let fields = parse_line(line).map_err(at)?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let num = |key: &str| -> Result<f64, String> {
            get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("line {}: missing number {key:?}", i + 1))
        };
        let string = |key: &str| -> Result<String, String> {
            get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing string {key:?}", i + 1))
        };
        match get("type").and_then(Value::as_str) {
            Some("span") => snap.spans.push(SpanRecord {
                id: num("id")? as u32,
                parent: num("parent")? as u32,
                name: string("name")?,
                start_ns: num("start_ns")? as u64,
                dur_ns: num("dur_ns")? as u64,
            }),
            Some("counter") => snap.counters.push(CounterRecord {
                span: num("span")? as u32,
                name: string("name")?,
                value: num("value")? as u64,
            }),
            Some("hist") => {
                let nums = |key: &str| -> Result<Vec<u64>, String> {
                    get(key)
                        .and_then(Value::as_arr)
                        .and_then(|items| {
                            items
                                .iter()
                                .map(|v| v.as_num().map(|n| n as u64))
                                .collect::<Option<Vec<u64>>>()
                        })
                        .ok_or_else(|| format!("line {}: missing number array {key:?}", i + 1))
                };
                let uppers = nums("bucket_upper")?;
                let counts = nums("bucket_count")?;
                if uppers.len() != counts.len() {
                    return Err(format!("line {}: bucket arrays differ in length", i + 1));
                }
                let pairs: Vec<(u64, u64)> = uppers.into_iter().zip(counts).collect();
                let hist = Histogram::from_parts(
                    num("count")? as u64,
                    num("sum")?,
                    num("min")?,
                    num("max")?,
                    &pairs,
                )
                .map_err(at)?;
                snap.histograms.push((string("name")?, hist));
            }
            Some(other) => return Err(format!("line {}: unknown type {other:?}", i + 1)),
            None => return Err(format!("line {}: missing \"type\"", i + 1)),
        }
    }
    snap.spans.sort_by_key(|s| (s.start_ns, s.id));
    Ok(snap)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// Locates the current position for error messages: the 1-based line
    /// index (multi-line wire documents make a bare byte offset painful
    /// to chase) plus the byte offset within the parsed text.
    fn at(&self) -> String {
        let pos = self.pos.min(self.bytes.len());
        let line = 1 + self.bytes[..pos].iter().filter(|&&b| b == b'\n').count();
        format!("at line {line}, offset {pos}")
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} {}", b as char, self.at()))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(format!("expected ',' or '}}' {}", self.at())),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'{') => Ok(Value::Obj(self.object()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' {}", self.at())),
                    }
                }
            }
            Some(_) => Ok(Value::Num(self.number()?)),
            None => Err("unexpected end of line".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    // RFC 8259: control characters must be escaped
                    return Err(format!(
                        "unescaped control byte 0x{b:02x} in string {}",
                        self.at()
                    ));
                }
                Some(_) => {
                    // copy the run up to the next quote, escape or control
                    // byte; all are ASCII, so the run ends on a char
                    // boundary of the `&str` the bytes came from
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                        .map_err(|_| "invalid UTF-8")?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                let at = Parser {
                    bytes: self.bytes,
                    pos: start,
                }
                .at();
                format!("bad number {at}")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let fields = parse_line(
            r#"{"type":"span","id":3,"parent":0,"name":"pa\"rse","start_ns":12,"dur_ns":34}"#,
        )
        .unwrap();
        assert_eq!(fields[0], ("type".to_string(), Value::Str("span".into())));
        assert_eq!(fields[1], ("id".to_string(), Value::Num(3.0)));
        assert_eq!(
            fields[3],
            ("name".to_string(), Value::Str("pa\"rse".into()))
        );
    }

    #[test]
    fn parses_number_arrays() {
        let fields = parse_line(r#"{"bucket_upper":[1,2,4],"bucket_count":[]}"#).unwrap();
        assert_eq!(
            fields[0].1,
            Value::Arr(vec![Value::Num(1.0), Value::Num(2.0), Value::Num(4.0)])
        );
        assert_eq!(fields[1].1, Value::Arr(vec![]));
    }

    #[test]
    fn parses_nested_objects_and_mixed_arrays() {
        let fields = parse_line(
            r#"{"traceEvents":[{"name":"parse","ph":"X","ts":0.5,"dur":1.2}],"meta":{"pid":1}}"#,
        )
        .unwrap();
        let events = fields[0].1.as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].field("ph"), Some(&Value::Str("X".into())));
        assert_eq!(events[0].field("dur").unwrap().as_num(), Some(1.2));
        assert_eq!(fields[1].1.field("pid").unwrap().as_num(), Some(1.0));
        // insignificant newlines are fine: whole documents parse too
        assert!(parse_line("{\n  \"a\": [1,\n 2]\n}").is_ok());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("{").is_err());
        assert!(parse_line(r#"{"a":}"#).is_err());
        assert!(parse_line(r#"{"a":1} extra"#).is_err());
        assert!(parse_line(r#"{"a":"unterminated}"#).is_err());
    }

    #[test]
    fn errors_locate_the_fault_by_line_and_offset() {
        // single-line wire request: line 1, with the byte offset
        let err = parse_line(r#"{"type":"compile","threads":x}"#).unwrap_err();
        assert!(err.contains("at line 1, offset 28"), "{err}");
        // a fault inside a multi-line document names the faulty line —
        // line 3 here, where the bad value sits
        let err = parse_line("{\n  \"a\": 1,\n  \"b\": ?\n}").unwrap_err();
        assert!(err.contains("at line 3"), "{err}");
        let err = parse_line("{\n  \"a\": [1,\n 2\n").unwrap_err();
        assert!(err.contains("at line 3, offset 15"), "{err}");
    }

    #[test]
    fn obj_writer_output_parses_back() {
        let mut w = ObjWriter::new();
        w.field_str("type", "result")
            .field_str("job", "a \"b\"\nc")
            .field_num("code_bytes", 123)
            .field_raw("delta", "-4")
            .field_pct("hit_rate", 66.666)
            .field_raw("diags", r#"[{"code":"F001"}]"#);
        let line = w.finish();
        assert!(!line.contains('\n'));
        let fields = parse_line(&line).unwrap();
        assert_eq!(get_str(&fields, "type"), Some("result"));
        assert_eq!(get_str(&fields, "job"), Some("a \"b\"\nc"));
        assert_eq!(get_num(&fields, "code_bytes"), Some(123.0));
        assert_eq!(get_num(&fields, "delta"), Some(-4.0));
        assert_eq!(get_num(&fields, "hit_rate"), Some(66.67));
        let diags = get(&fields, "diags").unwrap().as_arr().unwrap();
        assert_eq!(diags[0].field("code"), Some(&Value::Str("F001".into())));
        assert_eq!(get_str(&fields, "missing"), None);
        // empty object is valid too
        assert_eq!(ObjWriter::new().finish(), "{}");
    }

    #[test]
    fn rejects_unescaped_control_bytes_in_strings() {
        // a raw 0x01 / newline / NUL inside a string literal is invalid
        // JSON; the escaped forms parse fine
        assert!(parse_line("{\"a\":\"x\u{1}y\"}").is_err());
        assert!(parse_line("{\"a\":\"x\ny\"}").is_err());
        assert!(parse_line("{\"a\":\"x\u{0}y\"}").is_err());
        let fields = parse_line(r#"{"a":"x\u0001\n\u0000y"}"#).unwrap();
        assert_eq!(fields[0].1, Value::Str("x\u{1}\n\u{0}y".into()));
    }

    #[test]
    fn long_strings_with_escapes_and_multibyte_chars_roundtrip() {
        // a daemon reply carries a whole C file as one string value
        let chunk = "y[i] = 0.5 * x[i]; /* naïve ∑ “q” */ \"s\" \\ \t\n";
        let text = chunk.repeat(400 * 1024 / chunk.len() + 1);
        let line = format!("{{\"code\":\"{}\"}}", json_escape(&text));
        let fields = parse_line(&line).unwrap();
        assert_eq!(get_str(&fields, "code"), Some(text.as_str()));
    }

    #[test]
    fn snapshot_reconstructs_the_export() {
        let text = "\
{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"job:m\",\"start_ns\":0,\"dur_ns\":90}\n\
{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"parse\",\"start_ns\":10,\"dur_ns\":30}\n\
{\"type\":\"counter\",\"span\":2,\"name\":\"bytes\",\"value\":128}\n\
{\"type\":\"hist\",\"name\":\"job_ns\",\"count\":2,\"sum\":60,\"min\":20,\"max\":40,\
\"bucket_upper\":[32,64],\"bucket_count\":[1,1]}\n";
        let snap = snapshot(text).unwrap();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[1].name, "parse");
        assert_eq!(snap.spans[1].parent, 1);
        assert_eq!(snap.counters[0].value, 128);
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "job_ns");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 40.0);

        assert!(snapshot("{\"type\":\"span\",\"id\":1}\n").is_err());
        assert!(snapshot("{\"type\":\"mystery\"}\n").is_err());
    }

    #[test]
    fn validate_checks_required_fields_per_type() {
        let good = "\
{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"parse\",\"start_ns\":0,\"dur_ns\":5}\n\
{\"type\":\"counter\",\"span\":1,\"name\":\"bytes\",\"value\":9}\n\
{\"type\":\"hist\",\"name\":\"h\",\"count\":1,\"sum\":2,\"min\":2,\"max\":2,\"bucket_upper\":[2],\"bucket_count\":[1]}\n";
        let stats = validate(good).unwrap();
        assert_eq!(
            stats,
            Stats {
                spans: 1,
                counters: 1,
                hists: 1
            }
        );
        assert!(validate("{\"type\":\"span\",\"id\":1}\n").is_err());
        assert!(validate("{\"type\":\"mystery\"}\n").is_err());
        assert!(validate("not json\n").is_err());
        assert_eq!(validate("\n\n").unwrap(), Stats::default());
    }
}
