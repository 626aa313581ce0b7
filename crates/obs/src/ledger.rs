//! The append-only perf ledger: one flat NDJSON line per run, recording
//! git revision, worker count, per-stage summaries, deterministic
//! counters, and optional service-level metrics. The flat
//! key scheme (`stage_<name>_<stat>`, `counter_<name>`, `svc_*`) keeps
//! entries round-trippable through the same zero-dependency parser that
//! validates trace exports ([`crate::ndjson::parse_line`]).

use crate::agg::{StageSummary, TraceAgg};
use crate::export::json_escape;
use crate::ndjson;
use crate::stage::STAGE_NAMES;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Current ledger line schema version. Schema 2 dropped the always-equal
/// `engine` and `threads` fields, and its `svc_*` block is always whole.
pub const LEDGER_SCHEMA: u64 = 2;

/// Service-level metrics from the batch driver: artifact-cache traffic,
/// queue wait, and worker utilization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceMetrics {
    /// Artifact-cache hits (memory + disk) across the run.
    pub cache_hits: u64,
    /// Artifact-cache misses (full compiles) across the run.
    pub cache_misses: u64,
    /// Median nanoseconds a job waited in the queue before a worker
    /// picked it up.
    pub queue_wait_p50_ns: u64,
    /// Longest queue wait in nanoseconds.
    pub queue_wait_max_ns: u64,
    /// Total nanoseconds workers spent executing jobs (summed across
    /// workers).
    pub worker_busy_ns: u64,
    /// Worker utilization in percent: busy time over `workers × wall`.
    pub utilization_pct: f64,
    /// Artifact-cache evictions (memory + disk layers) forced by the
    /// configured byte-size cap.
    pub cache_evictions: u64,
    /// Jobs that exceeded their `timeout_ms` budget and were failed with
    /// `JobError::Timeout`.
    pub job_timeouts: u64,
    /// Requests the daemon served across every verb (`frodo serve` runs
    /// only; zero for one-shot batch runs).
    pub requests_total: u64,
    /// Median request latency in nanoseconds across every verb, over the
    /// daemon's whole lifetime.
    pub request_p50_ns: u64,
    /// Slowest request in nanoseconds over the daemon's whole lifetime.
    pub request_max_ns: u64,
}

impl ServiceMetrics {
    /// Artifact-cache hit rate in percent (0 when the cache saw no
    /// traffic).
    pub fn cache_hit_rate_pct(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64 * 100.0
        }
    }
}

/// One run of the pipeline, as persisted in the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Seconds since the Unix epoch when the entry was written.
    pub ts_unix: u64,
    /// Short git revision of the working tree (or `unknown`).
    pub git_rev: String,
    /// What ran: a model name, `batch:<n>`, `serve`, or
    /// `calibrate:<source>`.
    pub label: String,
    /// Batch worker threads.
    pub workers: u64,
    /// Jobs (models) compiled in the run.
    pub jobs: u64,
    /// End-to-end wall time of the run in nanoseconds.
    pub wall_ns: u64,
    /// Per-stage summaries, every canonical stage always present.
    pub stages: Vec<(String, StageSummary)>,
    /// Deterministic counter totals, sorted by name.
    pub counters: Vec<(String, i64)>,
    /// Driver service metrics, when the run went through the batch
    /// service.
    pub svc: Option<ServiceMetrics>,
}

impl LedgerEntry {
    /// Builds an entry from an aggregated trace plus run identity. The
    /// timestamp is sampled now; the git revision via [`git_rev`].
    pub fn from_agg(agg: &TraceAgg, label: &str, workers: u64, wall_ns: u64) -> LedgerEntry {
        LedgerEntry {
            ts_unix: unix_now(),
            git_rev: git_rev(),
            label: label.to_string(),
            workers,
            jobs: agg.jobs,
            wall_ns,
            stages: agg.stages.clone(),
            counters: agg.counters.clone(),
            svc: None,
        }
    }

    /// Looks up a counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> i64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Looks up a stage summary by canonical name.
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Region-cache hit rate in percent, from the incremental-compile
    /// counters (`counter_region_hits` / `counter_region_total`). `None`
    /// for runs that did not go through an incremental session — the
    /// counters only exist on that path, so old ledgers and one-shot
    /// entries read back unchanged.
    pub fn region_hit_rate_pct(&self) -> Option<f64> {
        let total = self.counter("region_total");
        if total <= 0 {
            return None;
        }
        Some(self.counter("region_hits") as f64 / total as f64 * 100.0)
    }

    /// Serializes the entry as one flat NDJSON line (no trailing
    /// newline).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"type\":\"ledger\",\"schema\":{LEDGER_SCHEMA},\"ts_unix\":{},\"git_rev\":\"{}\",\
             \"label\":\"{}\",\"workers\":{},\"jobs\":{},\"wall_ns\":{}",
            self.ts_unix,
            json_escape(&self.git_rev),
            json_escape(&self.label),
            self.workers,
            self.jobs,
            self.wall_ns
        );
        for (name, s) in &self.stages {
            let _ = write!(
                out,
                ",\"stage_{name}_count\":{},\"stage_{name}_sum_ns\":{},\"stage_{name}_mean_ns\":{},\
                 \"stage_{name}_p50_ns\":{},\"stage_{name}_p95_ns\":{},\"stage_{name}_max_ns\":{}",
                s.count, s.sum_ns, s.mean_ns, s.p50_ns, s.p95_ns, s.max_ns
            );
        }
        for (name, v) in &self.counters {
            let _ = write!(out, ",\"counter_{}\":{v}", json_escape(name));
        }
        if let Some(svc) = &self.svc {
            let _ = write!(
                out,
                ",\"svc_cache_hits\":{},\"svc_cache_misses\":{},\"svc_queue_wait_p50_ns\":{},\
                 \"svc_queue_wait_max_ns\":{},\"svc_worker_busy_ns\":{},\"svc_utilization_pct\":{:.2},\
                 \"svc_cache_evictions\":{},\"svc_job_timeouts\":{},\
                 \"svc_requests_total\":{},\"svc_request_p50_ns\":{},\"svc_request_max_ns\":{}",
                svc.cache_hits,
                svc.cache_misses,
                svc.queue_wait_p50_ns,
                svc.queue_wait_max_ns,
                svc.worker_busy_ns,
                svc.utilization_pct,
                svc.cache_evictions,
                svc.job_timeouts,
                svc.requests_total,
                svc.request_p50_ns,
                svc.request_max_ns
            );
        }
        out.push('}');
        out
    }

    /// Parses one ledger line back into an entry.
    ///
    /// # Errors
    ///
    /// Rejects lines that are not `"type":"ledger"`, carry an unknown
    /// schema version, or fail to parse as flat JSON.
    pub fn from_line(line: &str) -> Result<LedgerEntry, String> {
        let fields = ndjson::parse_line(line)?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let num = |key: &str| -> Result<u64, String> {
            get(key)
                .and_then(|v| v.as_num())
                .map(|n| n as u64)
                .ok_or_else(|| format!("ledger line missing numeric field {key:?}"))
        };
        let text = |key: &str| -> Result<String, String> {
            get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("ledger line missing string field {key:?}"))
        };
        if text("type")? != "ledger" {
            return Err("not a ledger line (type != \"ledger\")".into());
        }
        let schema = num("schema")?;
        if schema != LEDGER_SCHEMA {
            return Err(format!(
                "unsupported ledger schema {schema} (this build reads {LEDGER_SCHEMA})"
            ));
        }
        let mut stages = Vec::with_capacity(STAGE_NAMES.len());
        for stage in STAGE_NAMES {
            let stat = |name: &str| num(&format!("stage_{stage}_{name}"));
            stages.push((
                stage.to_string(),
                StageSummary {
                    count: stat("count")?,
                    sum_ns: stat("sum_ns")?,
                    mean_ns: stat("mean_ns")?,
                    p50_ns: stat("p50_ns")?,
                    p95_ns: stat("p95_ns")?,
                    max_ns: stat("max_ns")?,
                },
            ));
        }
        let mut counters = Vec::new();
        for (k, v) in &fields {
            if let Some(name) = k.strip_prefix("counter_") {
                let n = v
                    .as_num()
                    .ok_or_else(|| format!("counter field {k:?} is not a number"))?;
                counters.push((name.to_string(), n as i64));
            }
        }
        counters.sort();
        let svc = if get("svc_cache_hits").is_some() {
            Some(ServiceMetrics {
                cache_hits: num("svc_cache_hits")?,
                cache_misses: num("svc_cache_misses")?,
                queue_wait_p50_ns: num("svc_queue_wait_p50_ns")?,
                queue_wait_max_ns: num("svc_queue_wait_max_ns")?,
                worker_busy_ns: num("svc_worker_busy_ns")?,
                utilization_pct: get("svc_utilization_pct")
                    .and_then(|v| v.as_num())
                    .ok_or("ledger line missing numeric field \"svc_utilization_pct\"")?,
                cache_evictions: num("svc_cache_evictions")?,
                job_timeouts: num("svc_job_timeouts")?,
                requests_total: num("svc_requests_total")?,
                request_p50_ns: num("svc_request_p50_ns")?,
                request_max_ns: num("svc_request_max_ns")?,
            })
        } else {
            None
        };
        Ok(LedgerEntry {
            ts_unix: num("ts_unix")?,
            git_rev: text("git_rev")?,
            label: text("label")?,
            workers: num("workers")?,
            jobs: num("jobs")?,
            wall_ns: num("wall_ns")?,
            stages,
            counters,
            svc,
        })
    }
}

/// Parses every ledger line in `text`, skipping blank lines. Fails on the
/// first malformed line, reporting its 1-based number.
pub fn read_ledger(text: &str) -> Result<Vec<LedgerEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        entries
            .push(LedgerEntry::from_line(line).map_err(|e| format!("ledger line {}: {e}", i + 1))?);
    }
    Ok(entries)
}

/// Appends one entry to the ledger file at `path`, creating parent
/// directories and the file as needed.
///
/// # Errors
///
/// Propagates filesystem errors as strings.
pub fn append_entry(path: &Path, entry: &LedgerEntry) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    writeln!(f, "{}", entry.to_line()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The short git revision of the current working tree: `git rev-parse
/// --short HEAD`, falling back to the `FRODO_GIT_REV` environment
/// variable, then `"unknown"`.
pub fn git_rev() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !rev.is_empty() {
                return rev;
            }
        }
    }
    std::env::var("FRODO_GIT_REV").unwrap_or_else(|_| "unknown".to_string())
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::aggregate;
    use crate::trace::Trace;

    fn sample_entry() -> LedgerEntry {
        let t = Trace::new();
        {
            let job = t.span("job:Kalman \"v2\"");
            {
                let p = job.child("parse");
                p.count("mdl_bytes", 4096);
            }
            {
                let e = job.child("emit");
                e.count("stmts", 42);
                e.count("bytes_emitted", 1337);
            }
        }
        let agg = aggregate(&t.snapshot());
        let mut entry = LedgerEntry::from_agg(&agg, "batch:1", 4, 123_456_789);
        entry.svc = Some(ServiceMetrics {
            cache_hits: 3,
            cache_misses: 1,
            queue_wait_p50_ns: 500,
            queue_wait_max_ns: 900,
            worker_busy_ns: 100_000,
            utilization_pct: 81.25,
            cache_evictions: 2,
            job_timeouts: 1,
            requests_total: 17,
            request_p50_ns: 2_000,
            request_max_ns: 9_000,
        });
        entry
    }

    #[test]
    fn ledger_line_roundtrips() {
        let entry = sample_entry();
        let line = entry.to_line();
        assert!(line.starts_with("{\"type\":\"ledger\",\"schema\":2,"));
        assert!(!line.contains('\n'));
        let back = LedgerEntry::from_line(&line).expect("parses");
        // utilization survives only to 2 decimals; compare the rest exactly
        assert_eq!(back.label, entry.label);
        assert_eq!(back.workers, entry.workers);
        assert_eq!(back.jobs, 1);
        assert_eq!(back.wall_ns, entry.wall_ns);
        assert_eq!(back.stages, entry.stages);
        assert_eq!(back.counters, entry.counters);
        assert_eq!(back.counter("stmts"), 42);
        assert_eq!(back.counter("bytes_emitted"), 1337);
        let svc = back.svc.expect("svc metrics");
        assert_eq!(svc.cache_hits, 3);
        assert_eq!(svc.cache_misses, 1);
        assert_eq!(svc.cache_hit_rate_pct(), 75.0);
        assert!((svc.utilization_pct - 81.25).abs() < 1e-9);
        assert_eq!(svc.cache_evictions, 2);
        assert_eq!(svc.job_timeouts, 1);
        assert_eq!(svc.requests_total, 17);
        assert_eq!(svc.request_p50_ns, 2_000);
        assert_eq!(svc.request_max_ns, 9_000);
    }

    #[test]
    fn region_hit_rate_comes_from_the_incremental_counters() {
        let mut entry = sample_entry();
        assert_eq!(
            entry.region_hit_rate_pct(),
            None,
            "one-shot runs have no rate"
        );
        entry.counters.push(("region_hits".into(), 36));
        entry.counters.push(("region_total".into(), 40));
        let back = LedgerEntry::from_line(&entry.to_line()).expect("parses");
        assert_eq!(back.region_hit_rate_pct(), Some(90.0));
    }

    #[test]
    fn entries_without_service_metrics_roundtrip_too() {
        let mut entry = sample_entry();
        entry.svc = None;
        let back = LedgerEntry::from_line(&entry.to_line()).expect("parses");
        assert_eq!(back.svc, None);
        assert_eq!(back.stages, entry.stages);
    }

    #[test]
    fn from_line_rejects_foreign_and_stale_lines() {
        assert!(LedgerEntry::from_line("{\"type\":\"span\",\"id\":1}").is_err());
        assert!(LedgerEntry::from_line("not json").is_err());
        let line = sample_entry().to_line();
        for (from, to) in [
            ("\"schema\":2", "\"schema\":99"),
            ("\"schema\":2", "\"schema\":1"),
        ] {
            let stale = line.replacen(from, to, 1);
            let err = LedgerEntry::from_line(&stale).unwrap_err();
            assert!(err.contains(&to.replace("\"schema\":", "schema ")), "{err}");
        }
        // a schema-2 line carries the whole svc block; a gap is an error
        let partial = line.replace(",\"svc_job_timeouts\":1", "");
        let err = LedgerEntry::from_line(&partial).unwrap_err();
        assert!(err.contains("svc_job_timeouts"), "{err}");
    }

    #[test]
    fn read_ledger_skips_blanks_and_reports_line_numbers() {
        let line = sample_entry().to_line();
        let text = format!("{line}\n\n{line}\n");
        let entries = read_ledger(&text).expect("parses");
        assert_eq!(entries.len(), 2);
        let bad = format!("{line}\nbroken\n");
        let err = read_ledger(&bad).unwrap_err();
        assert!(err.starts_with("ledger line 2:"), "{err}");
    }

    #[test]
    fn append_creates_dirs_and_appends() {
        let dir = std::env::temp_dir().join(format!(
            "frodo-ledger-test-{}-{}",
            std::process::id(),
            unix_now()
        ));
        let path = dir.join("nested/ledger.ndjson");
        let entry = sample_entry();
        append_entry(&path, &entry).expect("first append");
        append_entry(&path, &entry).expect("second append");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(read_ledger(&text).expect("parses").len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn git_rev_is_never_empty() {
        assert!(!git_rev().is_empty());
    }
}
