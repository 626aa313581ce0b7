//! Per-job and per-batch compilation reports: stage timings, redundancy
//! counters, and the human/machine renderings.

use crate::cache::{CacheStats, CacheStatus};
use crate::{JobError, JobOutput};
use frodo_codegen::GeneratorStyle;
use frodo_core::Analysis;
use frodo_slx::fnv::ContentDigest;
use std::fmt::Write as _;
use std::time::Duration;

// The one per-stage timing type of the workspace lives in `frodo-obs`
// and is *derived* from the job's trace; re-exported here so driver
// consumers keep their import paths.
use frodo_obs::Trace;
pub use frodo_obs::{fmt_duration, LedgerEntry, ServiceMetrics, StageTimings};

/// Redundancy-elimination counters for one job, lifted from the analysis
/// classification (`OptimizationReport`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Blocks analyzed (flattened model).
    pub blocks: usize,
    /// Blocks whose calculation range shrank.
    pub optimizable_blocks: usize,
    /// Total output elements across all ports.
    pub total_elements: usize,
    /// Element computations eliminated by Algorithm 1.
    pub eliminated_elements: usize,
}

impl JobMetrics {
    /// Extracts the counters from a completed analysis.
    pub fn from_analysis(analysis: &Analysis) -> Self {
        let report = analysis.report();
        JobMetrics {
            blocks: report.stats().len(),
            optimizable_blocks: report.optimizable_blocks().len(),
            total_elements: report.total_elements(),
            eliminated_elements: report.total_eliminated(),
        }
    }
}

/// Everything the service reports about one compiled job, next to the
/// generated code itself.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// Job display name.
    pub job: String,
    /// Generator style the job compiled with.
    pub style: GeneratorStyle,
    /// Content digest of the flattened model + options (the cache key).
    pub digest: ContentDigest,
    /// Whether this job hit the cache, and which layer.
    pub cache: CacheStatus,
    /// Redundancy counters.
    pub metrics: JobMetrics,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Size of the emitted C, in bytes.
    pub code_bytes: usize,
}

/// The result of one batch submission.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, in submission order.
    pub jobs: Vec<Result<JobOutput, JobError>>,
    /// Wall-clock duration of the whole batch.
    pub wall: Duration,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Cumulative service cache statistics after the batch.
    pub cache: CacheStats,
    /// The trace the batch recorded into, when one was attached via
    /// [`crate::CompileService::compile_batch_traced`]; `None` otherwise.
    pub trace: Option<Trace>,
}

impl BatchReport {
    /// Jobs that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_ok()).count()
    }

    /// Jobs that failed (including panics).
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.succeeded()
    }

    /// Successful jobs that were served from the cache (either layer).
    pub fn cache_hits(&self) -> usize {
        self.jobs
            .iter()
            .filter_map(|j| j.as_ref().ok())
            .filter(|o| o.report.cache.is_hit())
            .count()
    }

    /// Successful jobs that were compiled from scratch.
    pub fn cache_misses(&self) -> usize {
        self.succeeded() - self.cache_hits()
    }

    /// The human-readable batch table: one row per job with cache status,
    /// counters, and per-stage timings, plus a summary line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:<9} {:<6} {:>6} {:>5} {:>13} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
            "job",
            "style",
            "cache",
            "blocks",
            "opt",
            "elim/total",
            "parse",
            "flatten",
            "dfg",
            "iomap",
            "alg1",
            "lower",
            "emit",
            "total",
            "code"
        );
        for job in &self.jobs {
            match job {
                Ok(o) => {
                    let r = &o.report;
                    let t = &r.timings;
                    let _ = writeln!(
                        out,
                        "{:<14} {:<9} {:<6} {:>6} {:>5} {:>13} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}B",
                        r.job,
                        r.style.label(),
                        r.cache.label(),
                        r.metrics.blocks,
                        r.metrics.optimizable_blocks,
                        format!(
                            "{}/{}",
                            r.metrics.eliminated_elements, r.metrics.total_elements
                        ),
                        fmt_duration(t.parse),
                        fmt_duration(t.flatten),
                        fmt_duration(t.dfg),
                        fmt_duration(t.iomap),
                        fmt_duration(t.algorithm1()),
                        fmt_duration(t.lower),
                        fmt_duration(t.emit),
                        fmt_duration(t.total()),
                        r.code_bytes
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<14} ERROR  {e}", e.job());
                    for line in frodo_verify::render_human(e.diagnostics()).lines() {
                        let _ = writeln!(out, "{:<14}   {line}", "");
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "batch: {} jobs, {} ok, {} failed; {} cache hits / {} misses this batch \
             (service: {} hits, {} misses, {} entries); wall {} on {} worker{}",
            self.jobs.len(),
            self.succeeded(),
            self.failed(),
            self.cache_hits(),
            self.cache_misses(),
            self.cache.hits,
            self.cache.misses,
            self.cache.entries,
            fmt_duration(self.wall),
            self.workers,
            if self.workers == 1 { "" } else { "s" }
        );
        out
    }

    /// The machine-readable rendering: one `frodo-job` line per job and a
    /// closing `frodo-batch` line, all `key=value` pairs with durations in
    /// integer nanoseconds.
    pub fn machine_lines(&self) -> String {
        let mut out = String::new();
        for job in &self.jobs {
            match job {
                Ok(o) => {
                    let r = &o.report;
                    let _ = write!(
                        out,
                        "frodo-job job={} style={} cache={} digest={} blocks={} optimizable={} \
                         elements={} eliminated={} code_bytes={}",
                        machine_token(&r.job),
                        r.style.label(),
                        r.cache.label(),
                        r.digest,
                        r.metrics.blocks,
                        r.metrics.optimizable_blocks,
                        r.metrics.total_elements,
                        r.metrics.eliminated_elements,
                        r.code_bytes
                    );
                    for (name, d) in r.timings.rows() {
                        let _ = write!(out, " {name}_ns={}", d.as_nanos());
                    }
                    let _ = writeln!(out, " total_ns={}", r.timings.total().as_nanos());
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "frodo-job job={} error={:?}",
                        machine_token(e.job()),
                        e.to_string()
                    );
                    for d in e.diagnostics() {
                        let _ = write!(
                            out,
                            "frodo-diag job={} code={} severity={}",
                            machine_token(e.job()),
                            d.code,
                            d.severity
                        );
                        if let Some(b) = &d.block {
                            let _ = write!(out, " block={}", machine_token(b));
                        }
                        if let Some(l) = &d.location {
                            let _ = write!(out, " location={}", machine_token(l));
                        }
                        let _ = writeln!(out, " message={:?}", d.message);
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "frodo-batch jobs={} ok={} failed={} hits={} misses={} workers={} wall_ns={}",
            self.jobs.len(),
            self.succeeded(),
            self.failed(),
            self.cache_hits(),
            self.cache_misses(),
            self.workers,
            self.wall.as_nanos()
        );
        out
    }

    /// Renders the recorded span tree when the batch ran with a trace
    /// attached; `None` for untraced batches.
    pub fn render_trace(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.render_tree())
    }

    /// Folds the batch's trace into a perf-ledger entry: per-stage
    /// summaries and deterministic counters from the aggregated spans,
    /// plus driver service metrics (this batch's cache traffic, queue
    /// wait, and worker utilization from the `queue_wait_ns` /
    /// `worker_busy_ns` histograms its threads record on the batch trace,
    /// and its timeouts counted from the results). `None` for untraced
    /// batches — the
    /// ledger only records runs that were measured.
    pub fn ledger_entry(&self, label: &str) -> Option<LedgerEntry> {
        let trace = self.trace.as_ref()?;
        let snap = trace.snapshot();
        let agg = frodo_obs::aggregate(&snap);
        let wall_ns = self.wall.as_nanos() as u64;
        let mut entry = LedgerEntry::from_agg(&agg, label, self.workers as u64, wall_ns);
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h)
        };
        let (queue_p50, queue_max) = hist("queue_wait_ns")
            .map(|h| (h.percentile(50.0) as u64, h.max() as u64))
            .unwrap_or((0, 0));
        let busy_ns = hist("worker_busy_ns").map(|h| h.sum() as u64).unwrap_or(0);
        let capacity_ns = wall_ns.saturating_mul(self.workers as u64);
        entry.svc = Some(ServiceMetrics {
            cache_hits: self.cache_hits() as u64,
            cache_misses: self.cache_misses() as u64,
            queue_wait_p50_ns: queue_p50,
            queue_wait_max_ns: queue_max,
            worker_busy_ns: busy_ns,
            utilization_pct: if capacity_ns == 0 {
                0.0
            } else {
                busy_ns as f64 / capacity_ns as f64 * 100.0
            },
            // cumulative over the service, like `self.cache` itself
            cache_evictions: self.cache.evictions as u64,
            job_timeouts: self
                .jobs
                .iter()
                .filter(|j| matches!(j, Err(JobError::Timeout { .. })))
                .count() as u64,
            // request-level rollups exist only on the daemon path
            ..Default::default()
        });
        Some(entry)
    }
}

/// Replaces whitespace so a job name stays a single `key=value` token.
fn machine_token(s: &str) -> String {
    s.replace(char::is_whitespace, "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_token_has_no_spaces() {
        assert_eq!(machine_token("a b\tc"), "a_b_c");
    }
}
