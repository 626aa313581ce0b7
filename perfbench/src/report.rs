//! The result line: correctness, operation counts, and named metrics.

use std::fmt::Write as _;

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, requests, or timed step samples).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Why each failed operation failed (printed to stderr, not counted
    /// twice).
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub(crate) metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric. A value that is not a finite number (a ratio of
    /// nothing, a median of no samples) is a failed check, not a reading.
    pub(crate) fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.attempted += 1;
            self.fail(1, format!("metric {name} is {value}"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Counts `n` failed operations, remembering why.
    pub(crate) fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.problems.push(why.into());
    }

    /// Folds another outcome's counts, problems and metrics into this one.
    pub(crate) fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
    }

    /// The single-line JSON result. A non-finite value prints as `null`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
                if i == 0 { "" } else { "," }
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// Peak resident set size of this process in MiB, from the kernel's
/// high-water mark.
pub(crate) fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_finite_metric_fails_the_run() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("cpu_ms_p50", 1.5, "ms");
        assert_eq!(out.failed, 0);
        out.metric("driver.region_hit_ratio", f64::NAN, "ratio");
        assert_eq!((out.attempted, out.failed), (4, 1));
        let json = out.to_json();
        assert!(json.contains("\"correct\":false"), "{json}");
        assert!(
            json.contains("\"driver.region_hit_ratio\":{\"value\":null"),
            "{json}"
        );
        assert!(out.problems[0].contains("driver.region_hit_ratio"));
    }
}
