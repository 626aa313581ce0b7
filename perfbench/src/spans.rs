//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions, never inside the program. They stay in memory and
//! are written out once, as NDJSON, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One finished span. `op` groups the spans of one operation (a batch,
/// a request, a layer walk over one file); `parent` is the index of the
/// span that caused it.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl SpanRec {
    fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// An in-memory span log. Disabled logs record nothing.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    next_op: u64,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    /// A fresh operation id.
    pub(crate) fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records a span that started at `start` and ends now; returns its
    /// index (for use as a parent), or `None` when disabled.
    pub(crate) fn record(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let end = Instant::now();
        self.spans.push(SpanRec {
            name: name.to_string(),
            op,
            parent,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span named `name`; returns its result and duration.
    pub(crate) fn time<T>(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.record(name, op, parent, start);
        (out, dur)
    }

    /// Opens a parent span whose end is set by [`SpanLog::close`].
    pub(crate) fn open(&mut self, name: &str, op: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, op, None, now)
    }

    /// Ends a span opened with [`SpanLog::open`].
    pub(crate) fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Writes every span as one NDJSON line: name, op, parent index,
    /// start/end in ns since the log was created, and self time (the
    /// duration minus the part covered by child spans).
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur().as_nanos();
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.dur().as_nanos();
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{i},\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.parent.map_or(-1, |p| p as i64),
                s.start.as_nanos(),
                s.end.as_nanos(),
                dur.saturating_sub(child_ns[i]),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
