//! Longitudinal aggregation: folds traces (a whole `frodo batch`, a bench
//! sweep, or every job a daemon has run, one job at a time) into
//! per-stage summary statistics and totalled counters — the shape the
//! perf ledger persists and `obs diff` compares.

use crate::hist::Histogram;
use crate::stage::STAGE_NAMES;
use crate::trace::TraceSnapshot;

/// Summary statistics for one pipeline stage across every span in a
/// snapshot that carries the stage's canonical name.
///
/// Percentiles are estimated from a log2-bucket [`Histogram`] over the
/// span durations (see [`Histogram::percentile`]); `count == 0` means the
/// stage never ran and every field is zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageSummary {
    /// Spans observed for this stage.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub sum_ns: u64,
    /// Mean span duration in nanoseconds.
    pub mean_ns: u64,
    /// Median span duration in nanoseconds (interpolated).
    pub p50_ns: u64,
    /// 95th-percentile span duration in nanoseconds (interpolated).
    pub p95_ns: u64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
}

impl StageSummary {
    /// Derives the summary statistics from a histogram of span
    /// durations (in nanoseconds).
    pub fn from_histogram(h: &Histogram) -> StageSummary {
        StageSummary {
            count: h.count(),
            sum_ns: h.sum() as u64,
            mean_ns: h.mean() as u64,
            p50_ns: h.percentile(50.0) as u64,
            p95_ns: h.percentile(95.0) as u64,
            max_ns: h.max() as u64,
        }
    }
}

/// The aggregate view of one trace: per-stage summaries plus totalled
/// counters, ready to persist as a ledger entry or diff against another
/// run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceAgg {
    /// One summary per canonical stage, in [`STAGE_NAMES`] order. Every
    /// stage is always present (zeroed when it never ran) so the ledger
    /// schema stays stable across engines and model mixes.
    pub stages: Vec<(String, StageSummary)>,
    /// Counter totals summed across all spans, sorted by name. These are
    /// the deterministic signals (`elements_eliminated`, `stmts`,
    /// `bytes_emitted`, `region_hits`, …) that `obs diff` compares exactly.
    pub counters: Vec<(String, i64)>,
    /// Number of per-model jobs in the trace (spans named `job:*`).
    pub jobs: u64,
}

impl TraceAgg {
    /// Looks up a stage summary by canonical name.
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Looks up a counter total by name (0 when never recorded).
    pub fn counter(&self, name: &str) -> i64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// A running aggregate over any number of trace snapshots: one log2
/// [`Histogram`] of span durations per canonical stage, counter totals by
/// name, and a job count. Its size is bounded by the number of distinct
/// counter names, however many snapshots it folds, so a daemon can fold
/// every job it runs into one. [`AggFold::finish`] gives the
/// [`TraceAgg`] view.
#[derive(Debug, Clone, Default)]
pub struct AggFold {
    stages: [Histogram; STAGE_NAMES.len()],
    counters: Vec<(String, i64)>,
    jobs: u64,
}

impl AggFold {
    /// Folds one snapshot in: span durations bucketed per canonical stage
    /// name, counters totalled by name, jobs counted by their `job:` span
    /// prefix.
    pub fn add(&mut self, snap: &TraceSnapshot) {
        for s in &snap.spans {
            if let Some(i) = STAGE_NAMES.iter().position(|&n| n == s.name) {
                self.stages[i].record(s.dur_ns as f64);
            } else if s.name.starts_with("job:") {
                self.jobs += 1;
            }
        }
        for c in &snap.counters {
            self.count(&c.name, c.value);
        }
    }

    /// Adds `value` to the named counter's total.
    pub fn count(&mut self, name: &str, value: u64) {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 += value as i64,
            Err(i) => self.counters.insert(i, (name.to_string(), value as i64)),
        }
    }

    /// The aggregate view of everything folded so far.
    pub fn finish(&self) -> TraceAgg {
        TraceAgg {
            stages: STAGE_NAMES
                .iter()
                .zip(&self.stages)
                .map(|(&name, h)| (name.to_string(), StageSummary::from_histogram(h)))
                .collect(),
            counters: self.counters.clone(),
            jobs: self.jobs,
        }
    }
}

/// Folds one snapshot into its aggregate view (an [`AggFold`] over that
/// snapshot alone).
pub fn aggregate(snap: &TraceSnapshot) -> TraceAgg {
    let mut fold = AggFold::default();
    fold.add(snap);
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn aggregates_stages_counters_and_jobs() {
        let t = Trace::new();
        for model in ["a", "b"] {
            let job = t.span(&format!("job:{model}"));
            {
                let p = job.child("parse");
                p.count("mdl_bytes", 100);
            }
            {
                let e = job.child("emit");
                e.count("stmts", 7);
            }
        }
        let agg = aggregate(&t.snapshot());
        assert_eq!(agg.jobs, 2);
        // every canonical stage is present, ran or not, in order
        assert_eq!(agg.stages.len(), crate::STAGE_NAMES.len());
        for ((name, _), &want) in agg.stages.iter().zip(crate::STAGE_NAMES.iter()) {
            assert_eq!(name, want);
        }
        let parse = agg.stage("parse").unwrap();
        assert_eq!(parse.count, 2);
        assert!(parse.sum_ns >= parse.max_ns);
        assert!(parse.max_ns >= parse.p95_ns);
        let dfg = agg.stage("dfg").unwrap();
        assert_eq!(*dfg, StageSummary::default());
        // counters sum across jobs and come back sorted
        assert_eq!(agg.counter("mdl_bytes"), 200);
        assert_eq!(agg.counter("stmts"), 14);
        assert_eq!(agg.counter("never_recorded"), 0);
        let names: Vec<&str> = agg.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn empty_trace_aggregates_to_zeroes() {
        let agg = aggregate(&Trace::new().snapshot());
        assert_eq!(agg.jobs, 0);
        assert!(agg.counters.is_empty());
        assert!(agg
            .stages
            .iter()
            .all(|(_, s)| *s == StageSummary::default()));
    }

    #[test]
    fn summary_percentiles_track_the_histogram() {
        let t = Trace::new();
        {
            let job = t.span("job:x");
            for _ in 0..3 {
                let _p = job.child("ranges");
            }
        }
        let agg = aggregate(&t.snapshot());
        let r = agg.stage("ranges").unwrap();
        assert_eq!(r.count, 3);
        assert!(r.p50_ns <= r.p95_ns);
        assert!(r.p95_ns <= r.max_ns);
        assert!(r.mean_ns * 3 <= r.sum_ns + 3);
    }

    #[test]
    fn folding_two_snapshots_equals_aggregating_one_trace_of_both() {
        let both = Trace::new();
        let mut fold = AggFold::default();
        for model in ["a", "b"] {
            let job = Trace::new();
            {
                let root = job.span(&format!("job:{model}"));
                let p = root.child("parse");
                p.count("mdl_bytes", 100);
                drop(p);
                let _e = root.child("emit");
                root.count(model, 1);
            }
            fold.add(&job.snapshot());
            both.graft(&job);
        }
        assert_eq!(fold.finish(), aggregate(&both.snapshot()));
        let agg = fold.finish();
        assert_eq!(agg.jobs, 2);
        assert_eq!(agg.counter("mdl_bytes"), 200);
        assert_eq!(agg.stage("emit").unwrap().count, 2);
        // a direct count lands among the folded totals, in name order
        fold.count("jobs", 2);
        let names: Vec<String> = fold.finish().counters.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b", "jobs", "mdl_bytes"]);
    }
}
