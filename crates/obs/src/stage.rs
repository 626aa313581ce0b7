//! The unified per-stage timing view — the one `StageTimings` type in the
//! workspace. It is not measured directly: it is *derived* from a
//! [`Trace`] by summing span durations per canonical stage name.

use crate::trace::Trace;
use std::time::Duration;

/// Canonical pipeline stage names, in pipeline order. Span names equal to
/// one of these contribute to the matching [`StageTimings`] field; the
/// NDJSON export uses the same names, and they are covered by a golden
/// schema test — treat them as a stable interface.
pub const STAGE_NAMES: [&str; 12] = [
    "parse", "flatten", "hash", "cache", "dfg", "iomap", "ranges", "classify", "lower", "verify",
    "analyze", "emit",
];

/// Wall-clock cost of each pipeline stage (monotonic clock), derived from
/// a trace via [`StageTimings::from_trace`]. Every job records into a
/// trace of its own, so that trace's timings are the job's.
///
/// Stages a path skips (e.g. everything from `dfg` on, for a cache hit)
/// stay at zero. Stage spans are disjoint by construction, except that a
/// driver job re-flattens an already-flat model inside graph
/// construction; that re-flatten is real (tiny) work and is counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Model acquisition: file read + `.slx`/`.mdl` parse, or running a
    /// programmatic builder.
    pub parse: Duration,
    /// Subsystem flattening of the parsed model.
    pub flatten: Duration,
    /// Content-digest computation over the flattened model + options.
    pub hash: Duration,
    /// Artifact-cache lookup (memory and disk layers).
    pub cache: Duration,
    /// Graph construction: validation, shape inference, adjacency.
    pub dfg: Duration,
    /// I/O-mapping derivation.
    pub iomap: Duration,
    /// Algorithm 1: calculation range determination.
    pub ranges: Duration,
    /// Optimizable-block classification and report construction.
    pub classify: Duration,
    /// Lowering to the loop IR.
    pub lower: Duration,
    /// Range-soundness verification of the lowered IR (opt-in; zero when
    /// the compile did not run with `--verify`).
    pub verify: Duration,
    /// Dataflow analyses over the lowered IR — value ranges and residual
    /// redundancy (opt-in; zero when the compile did not run with
    /// `--analyze`).
    pub analyze: Duration,
    /// C emission.
    pub emit: Duration,
}

impl StageTimings {
    /// Stage names and durations in pipeline order (names match
    /// [`STAGE_NAMES`]).
    pub fn rows(&self) -> [(&'static str, Duration); 12] {
        [
            ("parse", self.parse),
            ("flatten", self.flatten),
            ("hash", self.hash),
            ("cache", self.cache),
            ("dfg", self.dfg),
            ("iomap", self.iomap),
            ("ranges", self.ranges),
            ("classify", self.classify),
            ("lower", self.lower),
            ("verify", self.verify),
            ("analyze", self.analyze),
            ("emit", self.emit),
        ]
    }

    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.rows().iter().map(|&(_, d)| d).sum()
    }

    /// The paper's "Algorithm 1" cost: range determination plus
    /// optimizable-block classification.
    pub fn algorithm1(&self) -> Duration {
        self.ranges + self.classify
    }

    /// Derives stage timings from every span in the trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut t = StageTimings::default();
        for span in &trace.snapshot().spans {
            let d = Duration::from_nanos(span.dur_ns);
            match span.name.as_str() {
                "parse" => t.parse += d,
                "flatten" => t.flatten += d,
                "hash" => t.hash += d,
                "cache" => t.cache += d,
                "dfg" => t.dfg += d,
                "iomap" => t.iomap += d,
                "ranges" => t.ranges += d,
                "classify" => t.classify += d,
                "lower" => t.lower += d,
                "verify" => t.verify += d,
                "analyze" => t.analyze += d,
                "emit" => t.emit += d,
                _ => {}
            }
        }
        t
    }
}

/// Formats a duration compactly for human tables (ns/us/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_the_canonical_stage_names_in_order() {
        let t = StageTimings::default();
        let names: Vec<&str> = t.rows().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, STAGE_NAMES);
    }

    #[test]
    fn total_and_algorithm1_sum_fields() {
        let t = StageTimings {
            parse: Duration::from_nanos(1),
            flatten: Duration::from_nanos(2),
            hash: Duration::from_nanos(3),
            cache: Duration::from_nanos(4),
            dfg: Duration::from_nanos(5),
            iomap: Duration::from_nanos(6),
            ranges: Duration::from_nanos(7),
            classify: Duration::from_nanos(8),
            lower: Duration::from_nanos(9),
            verify: Duration::from_nanos(10),
            analyze: Duration::from_nanos(11),
            emit: Duration::from_nanos(12),
        };
        assert_eq!(t.total(), Duration::from_nanos(78));
        assert_eq!(t.algorithm1(), Duration::from_nanos(15));
    }

    #[test]
    fn derived_from_trace_by_stage_name() {
        let trace = Trace::new();
        {
            let job = trace.span("job:a");
            let _p = job.child("parse");
            std::thread::sleep(Duration::from_millis(1));
        }
        let t = StageTimings::from_trace(&trace);
        assert!(t.parse >= Duration::from_millis(1));
        assert_eq!(t.emit, Duration::ZERO);
        // a span that is not a stage (the job root) adds to no field
        assert_eq!(t.total(), t.parse);
    }

    #[test]
    fn noop_trace_yields_zero_timings() {
        let t = StageTimings::from_trace(&Trace::noop());
        assert_eq!(t, StageTimings::default());
        assert_eq!(t.total(), Duration::ZERO);
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(17)), "17ns");
        assert_eq!(fmt_duration(Duration::from_micros(17)), "17.0us");
        assert_eq!(fmt_duration(Duration::from_millis(17)), "17.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(17)), "17.00s");
    }
}
