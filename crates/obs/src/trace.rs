//! The trace recorder: hierarchical spans, named counters, histograms.

use crate::hist::Histogram;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of a recorded span. Ids are assigned per trace, starting at
/// 1; [`NO_PARENT`] (0) marks a root span.
pub type SpanId = u32;

/// The `parent` value of root spans.
pub const NO_PARENT: SpanId = 0;

/// One finished span: a named interval on the trace's monotonic timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's id (unique within its trace).
    pub id: SpanId,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Span name (stage names are stable; see [`crate::STAGE_NAMES`]).
    pub name: String,
    /// Start offset from trace creation, nanoseconds (monotonic clock).
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// One named counter increment, attributed to a span ([`NO_PARENT`] when
/// recorded outside any span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRecord {
    /// The span the increment is attributed to.
    pub span: SpanId,
    /// Counter name.
    pub name: String,
    /// Increment value.
    pub value: u64,
}

/// A point-in-time copy of everything a trace has recorded, for rendering
/// and export. Spans are sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Finished spans, sorted by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Counter increments, in recording order.
    pub counters: Vec<CounterRecord>,
    /// Named histograms, in first-observation order.
    pub histograms: Vec<(String, Histogram)>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanRecord>,
    counters: Vec<CounterRecord>,
    histograms: Vec<(String, Histogram)>,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    next_id: AtomicU32,
    state: Mutex<State>,
}

/// A thread-safe trace recorder, cheap to clone and to pass by reference
/// through the pipeline.
///
/// A `Trace` is either *enabled* ([`Trace::new`]) or a *no-op*
/// ([`Trace::noop`]). The no-op form carries no allocation and every
/// operation on it returns immediately without reading the clock or
/// taking a lock, so instrumented code paths stay paper-faithful when
/// nobody is listening.
///
/// Hierarchy: [`Trace::span`] opens a span under the trace handle's
/// ambient parent; [`Span::trace`] returns a handle scoped *inside* that
/// span, so `&Trace` can be threaded through call trees and nested stages
/// land under their caller's span. [`Trace::graft`] copies a finished
/// trace in whole under the ambient parent, which is how one job's own
/// trace reaches a sink shared by many jobs.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Inner>>,
    parent: SpanId,
}

impl Trace {
    /// A fresh enabled trace; its creation instant is the timeline origin.
    pub fn new() -> Self {
        Trace {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                next_id: AtomicU32::new(1),
                state: Mutex::new(State::default()),
            })),
            parent: NO_PARENT,
        }
    }

    /// The disabled recorder: records nothing, costs (almost) nothing.
    pub fn noop() -> Self {
        Trace::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name` under this handle's ambient parent. The
    /// span is recorded when dropped (or ended via [`Span::end`]).
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span::disabled(),
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                Span {
                    inner: Some(Arc::clone(inner)),
                    id,
                    parent: self.parent,
                    name: name.to_string(),
                    start: Some(Instant::now()),
                    start_ns: inner.origin.elapsed().as_nanos() as u64,
                }
            }
        }
    }

    /// Records a counter increment, attributed to the ambient parent span.
    pub fn count(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().counters.push(CounterRecord {
                span: self.parent,
                name: name.to_string(),
                value,
            });
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().unwrap();
            match state.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, h)) => h.record(value),
                None => {
                    let mut h = Histogram::new();
                    h.record(value);
                    state.histograms.push((name.to_string(), h));
                }
            }
        }
    }

    /// Sum of all increments of the named counter.
    pub fn counter_total(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .counters
                .iter()
                .filter(|c| c.name == name)
                .map(|c| c.value)
                .sum(),
        }
    }

    /// Number of finished spans recorded so far.
    pub fn span_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.state.lock().unwrap().spans.len(),
        }
    }

    /// Copies a finished job trace into this one, under this handle's
    /// ambient parent, as if the job had recorded here.
    ///
    /// The job's span ids move up by one range, reserved in a single
    /// step, so they stay unique here and a job grafted into a fresh trace
    /// keeps the ids, parents and order it had. Root spans, and counters
    /// recorded outside any span, take the ambient parent; start offsets
    /// move onto this trace's timeline; histograms merge by name.
    /// Grafting into (or from) a no-op trace does nothing.
    pub fn graft(&self, job: &Trace) {
        let (Some(inner), Some(src)) = (&self.inner, &job.inner) else {
            return;
        };
        let snap = job.snapshot();
        let ids = src.next_id.load(Ordering::Relaxed) - 1;
        let base = inner.next_id.fetch_add(ids, Ordering::Relaxed) - 1;
        let remap = |id: SpanId| {
            if id == NO_PARENT {
                self.parent
            } else {
                id + base
            }
        };
        let (later, earlier) = match src.origin.checked_duration_since(inner.origin) {
            Some(d) => (d.as_nanos() as u64, 0),
            None => (0, inner.origin.duration_since(src.origin).as_nanos() as u64),
        };
        let mut state = inner.state.lock().unwrap();
        state
            .spans
            .extend(snap.spans.into_iter().map(|s| SpanRecord {
                id: s.id + base,
                parent: remap(s.parent),
                start_ns: (s.start_ns + later).saturating_sub(earlier),
                ..s
            }));
        state
            .counters
            .extend(snap.counters.into_iter().map(|c| CounterRecord {
                span: remap(c.span),
                ..c
            }));
        for (name, h) in snap.histograms {
            match state.histograms.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => mine.merge(&h),
                None => state.histograms.push((name, h)),
            }
        }
    }

    /// Copies out everything recorded so far, spans sorted by start time.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.inner {
            None => TraceSnapshot::default(),
            Some(inner) => {
                let state = inner.state.lock().unwrap();
                let mut spans = state.spans.clone();
                spans.sort_by_key(|s| (s.start_ns, s.id));
                TraceSnapshot {
                    spans,
                    counters: state.counters.clone(),
                    histograms: state.histograms.clone(),
                }
            }
        }
    }
}

/// An open span, ended (and recorded) on drop. Obtained from
/// [`Trace::span`] or [`Span::child`].
#[derive(Debug)]
pub struct Span {
    inner: Option<Arc<Inner>>,
    id: SpanId,
    parent: SpanId,
    name: String,
    start: Option<Instant>,
    start_ns: u64,
}

impl Span {
    fn disabled() -> Self {
        Span {
            inner: None,
            id: NO_PARENT,
            parent: NO_PARENT,
            name: String::new(),
            start: None,
            start_ns: 0,
        }
    }

    /// This span's id ([`NO_PARENT`] on a disabled span).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Whether the span records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a child span.
    pub fn child(&self, name: &str) -> Span {
        self.trace().span(name)
    }

    /// A trace handle scoped inside this span: spans and counters recorded
    /// through it are attributed to this span as their parent.
    pub fn trace(&self) -> Trace {
        Trace {
            inner: self.inner.clone(),
            parent: self.id,
        }
    }

    /// Records a counter increment attributed to this span.
    pub fn count(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().counters.push(CounterRecord {
                span: self.id,
                name: name.to_string(),
                value,
            });
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_ns = self
                .start
                .map(|s| s.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            inner.state.lock().unwrap().spans.push(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                start_ns: self.start_ns,
                dur_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        let t = Trace::noop();
        assert!(!t.is_enabled());
        {
            let s = t.span("parse");
            assert!(!s.is_enabled());
            assert_eq!(s.id(), NO_PARENT);
            s.count("bytes", 100);
            let c = s.child("inner");
            assert!(!c.is_enabled());
        }
        t.count("blocks", 7);
        t.observe("wall_ns", 1.0);
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.counter_total("blocks"), 0);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn spans_nest_and_sort_by_start() {
        let t = Trace::new();
        let root = t.span("job");
        let root_id = root.id();
        {
            let a = root.child("parse");
            a.count("bytes", 42);
        }
        {
            let _b = root.child("emit");
        }
        drop(root);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 3);
        // sorted by start: the root opened first
        assert_eq!(snap.spans[0].name, "job");
        assert_eq!(snap.spans[1].name, "parse");
        assert_eq!(snap.spans[2].name, "emit");
        assert_eq!(snap.spans[1].parent, root_id);
        assert_eq!(snap.spans[2].parent, root_id);
        assert_eq!(snap.spans[0].parent, NO_PARENT);
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].span, snap.spans[1].id);
        assert_eq!(t.counter_total("bytes"), 42);
    }

    #[test]
    fn scoped_handles_attribute_to_their_span() {
        let t = Trace::new();
        let job = t.span("job");
        let scoped = job.trace();
        scoped.count("cache_hits", 1);
        {
            let _inner = scoped.span("lookup");
        }
        let job_id = job.id();
        drop(job);
        let snap = t.snapshot();
        assert_eq!(snap.counters[0].span, job_id);
        let lookup = snap.spans.iter().find(|s| s.name == "lookup").unwrap();
        assert_eq!(lookup.parent, job_id);
    }

    #[test]
    fn counters_aggregate_and_histograms_accumulate() {
        let t = Trace::new();
        t.count("elims", 3);
        t.count("elims", 4);
        assert_eq!(t.counter_total("elims"), 7);
        t.observe("job_ns", 100.0);
        t.observe("job_ns", 300.0);
        let snap = t.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "job_ns");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 400.0);
    }

    /// A finished job trace: `job:{name}` with a `parse` child that
    /// counts, a root counter, and one histogram observation.
    fn job_trace(name: &str) -> Trace {
        let job = Trace::new();
        {
            let root = job.span(&format!("job:{name}"));
            let parse = root.child("parse");
            parse.count("bytes", 10);
            root.count("stmts", 3);
        }
        job.count("loose", 1);
        job.observe("job_ns", 100.0);
        job
    }

    #[test]
    fn a_job_grafted_into_a_fresh_trace_keeps_its_records() {
        let job = job_trace("a");
        let sink = Trace::new();
        sink.graft(&job);
        let (got, want) = (sink.snapshot(), job.snapshot());
        let shape = |s: &TraceSnapshot| -> Vec<(SpanId, SpanId, String)> {
            s.spans
                .iter()
                .map(|r| (r.id, r.parent, r.name.clone()))
                .collect()
        };
        assert_eq!(shape(&got), shape(&want));
        assert_eq!(got.counters, want.counters);
        assert_eq!(got.histograms, want.histograms);
        // the next span opened on the sink follows the grafted range
        assert_eq!(sink.span("next").id(), 3);
    }

    #[test]
    fn grafted_ids_stay_unique_and_parents_are_remapped() {
        let sink = Trace::new();
        let batch = sink.span("batch");
        let batch_id = batch.id();
        let bt = batch.trace();
        bt.graft(&job_trace("a"));
        bt.graft(&job_trace("b"));
        drop(batch);
        let snap = sink.snapshot();
        let mut ids: Vec<SpanId> = snap.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 2, 3, 4, 5]);
        for job in ["job:a", "job:b"] {
            let root = snap.spans.iter().find(|s| s.name == job).unwrap();
            assert_eq!(root.parent, batch_id, "{job}");
            let parse = snap
                .spans
                .iter()
                .find(|s| s.name == "parse" && s.parent == root.id)
                .expect("parse stays under its job");
            // counters keep their spans; root counters take the ambient
            // parent
            let on = |span: SpanId| -> Vec<&str> {
                snap.counters
                    .iter()
                    .filter(|c| c.span == span)
                    .map(|c| c.name.as_str())
                    .collect()
            };
            assert_eq!(on(parse.id), ["bytes"]);
            assert_eq!(on(root.id), ["stmts"]);
        }
        let loose: Vec<&CounterRecord> =
            snap.counters.iter().filter(|c| c.name == "loose").collect();
        assert_eq!(loose.len(), 2);
        assert!(loose.iter().all(|c| c.span == batch_id));
        // histograms merge by name
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count(), 2);
        assert_eq!(snap.histograms[0].1.sum(), 200.0);
    }

    #[test]
    fn grafted_start_offsets_land_on_the_sink_timeline() {
        let early = job_trace("early");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let sink = Trace::new();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let late = Trace::new();
        drop(late.span("job:late"));
        sink.graft(&early);
        sink.graft(&late);
        let start = |t: &Trace, name: &str| {
            t.snapshot()
                .spans
                .iter()
                .find(|s| s.name == name)
                .unwrap()
                .start_ns
        };
        // the late job's span opened at least 5 ms after the sink began
        assert!(start(&sink, "job:late") >= start(&late, "job:late") + 5_000_000);
        // the early job's spans predate the sink and clamp to its origin
        assert_eq!(start(&sink, "job:early"), 0);
        let order: Vec<String> = sink.snapshot().spans.into_iter().map(|s| s.name).collect();
        assert_eq!(order, ["job:early", "parse", "job:late"]);
    }

    #[test]
    fn grafting_into_or_from_a_noop_trace_does_nothing() {
        let noop = Trace::noop();
        noop.graft(&job_trace("a"));
        assert_eq!(noop.span_count(), 0);
        let sink = Trace::new();
        sink.graft(&Trace::noop());
        let snap = sink.snapshot();
        assert!(snap.spans.is_empty() && snap.counters.is_empty());
        assert_eq!(sink.span("first").id(), 1);
    }

    #[test]
    fn trace_is_shareable_across_threads() {
        let t = Trace::new();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    let s = t.span(&format!("job{i}"));
                    s.count("done", 1);
                });
            }
        });
        assert_eq!(t.span_count(), 4);
        assert_eq!(t.counter_total("done"), 4);
    }
}
