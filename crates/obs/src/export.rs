//! Trace renderings: the human span tree, the machine NDJSON export, and
//! the profile-viewer formats. All JSON is emitted by hand — this crate
//! depends on nothing.

use crate::stage::fmt_duration;
use crate::trace::{CounterRecord, SpanId, SpanRecord, Trace, TraceSnapshot, NO_PARENT};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

impl Trace {
    /// Renders the recorded spans as an indented tree with durations and
    /// per-span counters, followed by histogram summaries. Returns an
    /// empty string for a no-op or empty trace.
    pub fn render_tree(&self) -> String {
        render_tree(&self.snapshot())
    }

    /// Exports the trace as NDJSON: one flat JSON object per line — every
    /// span (`"type":"span"`), counter increment (`"type":"counter"`), and
    /// histogram (`"type":"hist"`). Field and stage names are stable (see
    /// [`crate::STAGE_NAMES`] and the golden schema test).
    pub fn to_ndjson(&self) -> String {
        ndjson_export(&self.snapshot())
    }

    /// Exports the trace in the chrome://tracing / Perfetto `trace_event`
    /// JSON format (see [`chrome_trace`]).
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.snapshot())
    }

    /// Exports the trace as flamegraph collapsed-stack lines (see
    /// [`collapsed`]).
    pub fn to_collapsed(&self) -> String {
        collapsed(&self.snapshot())
    }
}

/// Serializes a snapshot in the NDJSON export format (the snapshot-level
/// form of [`Trace::to_ndjson`], for re-ingested traces).
pub fn ndjson_export(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    for s in &snap.spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.id,
            s.parent,
            json_escape(&s.name),
            s.start_ns,
            s.dur_ns
        );
    }
    for c in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"span\":{},\"name\":\"{}\",\"value\":{}}}",
            c.span,
            json_escape(&c.name),
            c.value
        );
    }
    for (name, h) in &snap.histograms {
        let (uppers, counts): (Vec<String>, Vec<String>) = h
            .nonzero_buckets()
            .into_iter()
            .map(|(u, n)| (u.to_string(), n.to_string()))
            .unzip();
        let _ = writeln!(
            out,
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"bucket_upper\":[{}],\"bucket_count\":[{}]}}",
            json_escape(name),
            h.count(),
            json_number(h.sum()),
            json_number(h.min()),
            json_number(h.max()),
            uppers.join(","),
            counts.join(",")
        );
    }
    out
}

/// Renders a snapshot as a span tree (see [`Trace::render_tree`]).
pub fn render_tree(snap: &TraceSnapshot) -> String {
    if snap.spans.is_empty() && snap.counters.is_empty() && snap.histograms.is_empty() {
        return String::new();
    }
    let mut children: HashMap<SpanId, Vec<&SpanRecord>> = HashMap::new();
    let known: HashMap<SpanId, ()> = snap.spans.iter().map(|s| (s.id, ())).collect();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in &snap.spans {
        // a span whose parent never finished (or was recorded by a scoped
        // handle outside any span) renders as a root
        if s.parent == NO_PARENT || !known.contains_key(&s.parent) {
            roots.push(s);
        } else {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut counters: HashMap<SpanId, Vec<&CounterRecord>> = HashMap::new();
    for c in &snap.counters {
        counters.entry(c.span).or_default().push(c);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} span{}, {} counter record{}, {} histogram{}",
        snap.spans.len(),
        plural(snap.spans.len()),
        snap.counters.len(),
        plural(snap.counters.len()),
        snap.histograms.len(),
        plural(snap.histograms.len())
    );
    for (i, root) in roots.iter().enumerate() {
        render_span(
            &mut out,
            root,
            &children,
            &counters,
            "",
            i + 1 == roots.len(),
        );
    }
    if let Some(cs) = counters.get(&NO_PARENT) {
        for c in cs {
            let _ = writeln!(out, "counter {} = {}", c.name, c.value);
        }
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "hist {name}: {} obs, mean {}, min {}, max {}",
            h.count(),
            fmt_duration(Duration::from_nanos(h.mean() as u64)),
            fmt_duration(Duration::from_nanos(h.min() as u64)),
            fmt_duration(Duration::from_nanos(h.max() as u64))
        );
    }
    out
}

fn render_span(
    out: &mut String,
    span: &SpanRecord,
    children: &HashMap<SpanId, Vec<&SpanRecord>>,
    counters: &HashMap<SpanId, Vec<&CounterRecord>>,
    prefix: &str,
    last: bool,
) {
    let branch = if last { "└─ " } else { "├─ " };
    let _ = write!(
        out,
        "{prefix}{branch}{} {}",
        span.name,
        fmt_duration(Duration::from_nanos(span.dur_ns))
    );
    if let Some(cs) = counters.get(&span.id) {
        let attrs: Vec<String> = cs
            .iter()
            .map(|c| format!("{}={}", c.name, c.value))
            .collect();
        let _ = write!(out, " [{}]", attrs.join(", "));
    }
    out.push('\n');
    let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
    if let Some(kids) = children.get(&span.id) {
        for (i, kid) in kids.iter().enumerate() {
            render_span(
                out,
                kid,
                children,
                counters,
                &child_prefix,
                i + 1 == kids.len(),
            );
        }
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Exports a snapshot in the chrome://tracing / Perfetto `trace_event`
/// JSON format: one document with a `traceEvents` array of complete
/// (`"ph":"X"`) events. Timestamps and durations are microseconds (the
/// format's unit), span counters ride along as each event's `args`, and
/// every span is grouped under the thread id of its root span, so the
/// jobs of a batch render as separate tracks. Load the file via
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(snap: &TraceSnapshot) -> String {
    let parents: HashMap<SpanId, SpanId> = snap.spans.iter().map(|s| (s.id, s.parent)).collect();
    let root_of = |mut id: SpanId| -> SpanId {
        loop {
            match parents.get(&id) {
                Some(&NO_PARENT) | None => return id,
                Some(&p) => id = p,
            }
        }
    };
    let mut counters: HashMap<SpanId, Vec<&CounterRecord>> = HashMap::new();
    for c in &snap.counters {
        counters.entry(c.span).or_default().push(c);
    }
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = if crate::STAGE_NAMES.contains(&s.name.as_str()) {
            "stage"
        } else {
            "span"
        };
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{}",
            json_escape(&s.name),
            json_number(s.start_ns as f64 / 1e3),
            json_number(s.dur_ns as f64 / 1e3),
            root_of(s.id)
        );
        if let Some(cs) = counters.get(&s.id) {
            out.push_str(",\"args\":{");
            for (j, c) in cs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(&c.name), c.value);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Exports a snapshot as flamegraph collapsed-stack lines: one
/// `root;child;leaf value` line per distinct span path, where `value` is
/// the path's *self* time in nanoseconds (duration minus child spans'
/// durations, so the flamegraph's widths nest correctly). Lines are
/// sorted; identical paths (e.g. two `parse` spans under one job) are
/// merged. Feed the output to `flamegraph.pl` or any collapsed-stack
/// viewer.
pub fn collapsed(snap: &TraceSnapshot) -> String {
    let by_id: HashMap<SpanId, &SpanRecord> = snap.spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<SpanId, u64> = HashMap::new();
    for s in &snap.spans {
        if s.parent != NO_PARENT && by_id.contains_key(&s.parent) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
    }
    let mut stacks: Vec<(String, u64)> = Vec::new();
    for s in &snap.spans {
        let mut path = vec![frame(&s.name)];
        let mut id = s.parent;
        while let Some(p) = by_id.get(&id) {
            path.push(frame(&p.name));
            id = p.parent;
        }
        path.reverse();
        let self_ns = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        stacks.push((path.join(";"), self_ns));
    }
    stacks.sort();
    let mut out = String::new();
    let mut iter = stacks.into_iter().peekable();
    while let Some((stack, mut ns)) = iter.next() {
        while iter.peek().is_some_and(|(next, _)| *next == stack) {
            ns += iter.next().unwrap().1;
        }
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// Sanitizes a span name into a collapsed-stack frame: the format's
/// separators (`;` joins frames, space ends the stack) must not appear
/// inside one.
fn frame(name: &str) -> String {
    name.replace([';', ' '], "_")
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity; they
/// collapse to 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let t = Trace::new();
        let job = t.span("job:demo");
        {
            let p = job.child("parse");
            p.count("bytes", 128);
        }
        {
            let _e = job.child("emit");
        }
        drop(job);
        t.observe("job_ns", 1500.0);
        t
    }

    #[test]
    fn tree_shows_hierarchy_counters_and_hists() {
        let tree = sample_trace().render_tree();
        assert!(tree.starts_with("trace: 3 spans, 1 counter record, 1 histogram"));
        assert!(tree.contains("└─ job:demo"));
        assert!(tree.contains("├─ parse"));
        assert!(tree.contains("[bytes=128]"));
        assert!(tree.contains("└─ emit"));
        assert!(tree.contains("hist job_ns: 1 obs"));
    }

    #[test]
    fn empty_and_noop_traces_render_empty() {
        assert_eq!(Trace::noop().render_tree(), "");
        assert_eq!(Trace::new().render_tree(), "");
        assert_eq!(Trace::noop().to_ndjson(), "");
    }

    #[test]
    fn ndjson_lines_are_flat_objects_with_stable_fields() {
        let text = sample_trace().to_ndjson();
        assert_eq!(text.lines().count(), 5); // 3 spans + 1 counter + 1 hist
        for line in text.lines() {
            let fields = crate::ndjson::parse_line(line).expect("parses");
            assert!(fields.iter().any(|(k, _)| k == "type"));
        }
        assert!(text.contains("\"type\":\"span\""));
        assert!(text.contains("\"name\":\"parse\""));
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"value\":128"));
        assert!(text.contains("\"type\":\"hist\""));
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let doc = sample_trace().to_chrome_trace();
        // the whole document is one JSON object our own parser accepts
        // (newlines inside it are skippable whitespace)
        let fields = crate::ndjson::parse_line(&doc).expect("parses");
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_arr())
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        // span ids are deterministic per trace: the root job span of
        // sample_trace() is span 1, and every span of the job shares its tid
        let root_id = 1.0;
        for ev in events {
            assert_eq!(ev.field("ph").and_then(|v| v.as_str()), Some("X"));
            assert_eq!(ev.field("pid").and_then(|v| v.as_num()), Some(1.0));
            assert!(ev.field("ts").and_then(|v| v.as_num()).is_some());
            assert!(ev.field("dur").and_then(|v| v.as_num()).is_some());
            assert_eq!(ev.field("tid").and_then(|v| v.as_num()), Some(root_id));
        }
        let parse_ev = events
            .iter()
            .find(|e| e.field("name").and_then(|v| v.as_str()) == Some("parse"))
            .expect("parse event");
        assert_eq!(
            parse_ev.field("cat").and_then(|v| v.as_str()),
            Some("stage")
        );
        let args = parse_ev.field("args").expect("args");
        assert_eq!(args.field("bytes").and_then(|v| v.as_num()), Some(128.0));
    }

    #[test]
    fn collapsed_stacks_nest_and_merge() {
        let t = Trace::new();
        {
            let job = t.span("job:demo");
            {
                let _p = job.child("parse");
            }
            {
                let _p = job.child("parse");
            }
        }
        let text = t.to_collapsed();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "merged duplicate stacks: {text}");
        assert!(lines[0].starts_with("job:demo "));
        assert!(lines[1].starts_with("job:demo;parse "));
        // every line ends in an integer self-time
        for line in lines {
            let ns: u64 = line.rsplit(' ').next().unwrap().parse().expect("self ns");
            let _ = ns;
        }
    }

    #[test]
    fn collapsed_self_time_subtracts_children() {
        let t = Trace::new();
        {
            let job = t.span("outer name;weird");
            let _c = job.child("inner");
        }
        let text = t.to_collapsed();
        // separators in span names are sanitized so frames stay parseable
        assert!(text.contains("outer_name_weird "));
        assert!(text.contains("outer_name_weird;inner "));
        let snap = t.snapshot();
        let outer = snap
            .spans
            .iter()
            .find(|s| s.name.contains("outer"))
            .unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer_self: u64 = text
            .lines()
            .find(|l| !l.contains(";"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(outer_self, outer.dur_ns.saturating_sub(inner.dur_ns));
    }
}
