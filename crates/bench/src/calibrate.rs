//! Cost-model calibration: measured native statement costs vs
//! [`CostModel`] predictions, per statement kind, across the whole Table-1
//! suite.
//!
//! The cost model predicts native nanoseconds per statement; this module
//! joins those predictions against per-statement profiles measured by
//! self-profiling native binaries (`gcc` hosts) and reports the
//! measured/predicted ratio per statement kind as p50/p95 over every
//! statement of that kind in the suite. The ratios are reported, not
//! gated: no band has been sized from the spread of repeat native runs.

use crate::build_suite;
use frodo_codegen::VectorMode;
use frodo_obs::{LedgerEntry, Trace};
use frodo_sim::native::{self, NativeError};
use frodo_sim::CostModel;

/// Ratios are persisted as integers scaled by this factor (the ledger
/// carries no floats).
pub const RATIO_SCALE: f64 = 1000.0;

/// Measured-vs-predicted summary for one statement kind.
#[derive(Debug, Clone)]
pub struct KindCalibration {
    /// Statement kind label ([`frodo_codegen::lir::Stmt::kind_label`]).
    pub kind: &'static str,
    /// Per-statement `measured_mean_ns / predicted_ns` ratios, one per
    /// statement of this kind that executed across the suite.
    pub ratios: Vec<f64>,
}

impl KindCalibration {
    /// Statements of this kind that executed across the suite.
    pub fn samples(&self) -> u64 {
        self.ratios.len() as u64
    }

    /// Median ratio, scaled by [`RATIO_SCALE`].
    pub fn p50_x1000(&self) -> u64 {
        self.percentile_x1000(50.0)
    }

    /// 95th-percentile ratio, scaled by [`RATIO_SCALE`].
    pub fn p95_x1000(&self) -> u64 {
        self.percentile_x1000(95.0)
    }

    /// The nearest-rank `p`-th percentile of the ratios (the smallest
    /// ratio at or above `p`% of them), scaled by [`RATIO_SCALE`] and
    /// rounded; 0 without ratios.
    fn percentile_x1000(&self, p: f64) -> u64 {
        let mut sorted = self.ratios.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted
            .get(rank - 1)
            .map_or(0, |r| (r * RATIO_SCALE).round() as u64)
    }
}

/// One calibration run: every statement kind the suite exercises.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Where the measurements came from: `"native"` or
    /// `"native-sanitized"`.
    pub source: &'static str,
    /// Per-kind summaries, sorted by kind label.
    pub kinds: Vec<KindCalibration>,
    /// Benchmark models profiled.
    pub models: u64,
    /// Statements that contributed a sample.
    pub statements: u64,
}

impl CalibrationReport {
    /// Looks up one kind's summary.
    pub fn kind(&self, kind: &str) -> Option<&KindCalibration> {
        self.kinds.iter().find(|k| k.kind == kind)
    }

    /// Renders the human table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cost-model calibration ({}, {} models, {} statements):",
            self.source, self.models, self.statements
        );
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>12} {:>12}",
            "kind", "samples", "p50 ratio", "p95 ratio"
        );
        for k in &self.kinds {
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>11.2}x {:>11.2}x",
                k.kind,
                k.samples(),
                k.p50_x1000() as f64 / RATIO_SCALE,
                k.p95_x1000() as f64 / RATIO_SCALE
            );
        }
        out
    }

    /// Folds the report into a perf-ledger entry (label
    /// `calibrate:<source>`: `calibrate:native` or
    /// `calibrate:native-sanitized`) carrying one
    /// `calib_<kind>_ratio_{p50,p95}_x1000` counter pair plus a
    /// `calib_<kind>_samples` counter per kind — flat, diffable, and
    /// round-trippable like every other ledger line.
    pub fn ledger_entry(&self, wall_ns: u64) -> LedgerEntry {
        let trace = Trace::new();
        {
            let job = trace.span("job:calibrate");
            for k in &self.kinds {
                job.count(&format!("calib_{}_ratio_p50_x1000", k.kind), k.p50_x1000());
                job.count(&format!("calib_{}_ratio_p95_x1000", k.kind), k.p95_x1000());
                job.count(&format!("calib_{}_samples", k.kind), k.samples());
            }
        }
        let agg = frodo_obs::aggregate(&trace.snapshot());
        LedgerEntry::from_agg(&agg, &format!("calibrate:{}", self.source), 0, wall_ns)
    }
}

/// Accumulates per-kind ratios as statements are joined.
#[derive(Default)]
struct Accum {
    kinds: Vec<KindCalibration>,
    statements: u64,
}

impl Accum {
    fn record(&mut self, kind: &'static str, measured_mean_ns: f64, predicted_ns: f64) {
        let ratio = measured_mean_ns / predicted_ns;
        let slot = match self.kinds.iter_mut().find(|k| k.kind == kind) {
            Some(k) => k,
            None => {
                self.kinds.push(KindCalibration {
                    kind,
                    ratios: Vec::new(),
                });
                self.kinds.last_mut().expect("just pushed")
            }
        };
        slot.ratios.push(ratio);
        self.statements += 1;
    }

    fn finish(mut self, source: &'static str, models: u64) -> CalibrationReport {
        self.kinds.sort_by(|a, b| a.kind.cmp(b.kind));
        CalibrationReport {
            source,
            kinds: self.kinds,
            models,
            statements: self.statements,
        }
    }
}

/// Calibrates against self-profiling native binaries: every Table-1
/// model's FRODO program is compiled with `gcc -O3` under profiled
/// emission and run for `iters` harness iterations; the dumped NDJSON
/// profile is joined back onto the statements by index.
///
/// With `sanitize` the harness binaries are built with
/// [`native::SANITIZE_FLAGS`] instead of `-O3`, so every benchmark's
/// generated step function and profiling runtime execute under dynamic
/// memory/UB checking — the runtime counterpart of the static `analyze`
/// stage. Timing ratios from a sanitized run are not comparable to an
/// `-O3` run's (shadow-memory instrumentation dominates); the `source`
/// field is `"native-sanitized"` so downstream consumers can tell.
///
/// # Errors
///
/// [`NativeError::CompilerUnavailable`] on hosts without `gcc`, or when
/// `sanitize` is set and `gcc` lacks sanitizer runtimes (probe with
/// [`native::sanitizer_available`]), plus any compile/run failure. A
/// profile that fails to parse back through [`frodo_obs::ndjson::snapshot`]
/// is reported as [`NativeError::RunFailed`] — that would be a bug in the
/// emitted profiling runtime.
pub fn calibrate_native(iters: usize, sanitize: bool) -> Result<CalibrationReport, NativeError> {
    let cm = CostModel::x86_gcc();
    let mut acc = Accum::default();
    let suite = build_suite();
    let models = suite.len() as u64;
    for entry in suite {
        let (_, program) = entry
            .programs
            .iter()
            .find(|(s, _)| *s == frodo_codegen::GeneratorStyle::Frodo)
            .expect("suite has a FRODO program");
        let run = if sanitize {
            native::compile_and_run_sanitized
        } else {
            native::compile_and_run_profiled
        };
        let (_, profile) = run(
            program,
            frodo_codegen::GeneratorStyle::Frodo,
            iters,
            frodo_codegen::CEmitOptions::default(),
        )?;
        let snap = frodo_obs::ndjson::snapshot(&profile).map_err(|e| NativeError::RunFailed {
            reason: format!("{}: unparseable profile: {e}", entry.name),
        })?;
        for (i, stmt) in program.stmts.iter().enumerate() {
            let key = format!("stmt_{i}_{}", stmt.kind_label());
            let calls = snap
                .counters
                .iter()
                .find(|c| c.name == format!("{key}_calls"))
                .map(|c| c.value)
                .unwrap_or(0);
            if calls == 0 {
                continue;
            }
            let total_ns = snap
                .spans
                .iter()
                .find(|s| s.name == key)
                .map(|s| s.dur_ns)
                .unwrap_or(0);
            let mean = total_ns as f64 / calls as f64;
            let predicted = cm.stmt_ns_with(program.style, stmt, VectorMode::Auto);
            acc.record(stmt.kind_label(), mean, predicted);
        }
    }
    Ok(acc.finish(
        if sanitize {
            "native-sanitized"
        } else {
            "native"
        },
        models,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_entry_round_trips_with_calib_counters() {
        let kind = |kind, ratios: &[f64]| KindCalibration {
            kind,
            ratios: ratios.to_vec(),
        };
        let report = CalibrationReport {
            source: "native",
            kinds: vec![kind("binary", &[6.5, 7.0, 24.0]), kind("fir", &[0.41])],
            models: 1,
            statements: 4,
        };
        let entry = report.ledger_entry(123_456);
        assert_eq!(entry.label, "calibrate:native");
        let back = LedgerEntry::from_line(&entry.to_line()).expect("parses");
        for k in &report.kinds {
            assert!(k.p50_x1000() > 0, "{}", k.kind);
            assert_eq!(
                back.counter(&format!("calib_{}_ratio_p50_x1000", k.kind)),
                k.p50_x1000() as i64
            );
            assert_eq!(
                back.counter(&format!("calib_{}_ratio_p95_x1000", k.kind)),
                k.p95_x1000() as i64
            );
            assert_eq!(
                back.counter(&format!("calib_{}_samples", k.kind)),
                k.samples() as i64
            );
        }
    }

    #[test]
    fn percentiles_are_nearest_rank_samples() {
        let kind = |ratios: &[f64]| KindCalibration {
            kind: "fill",
            ratios: ratios.to_vec(),
        };
        // one sample is both percentiles, exactly (a log2 bucket would
        // read 2.048 and 16.384)
        for r in [2.0, 16.0] {
            assert_eq!(kind(&[r]).p50_x1000(), (r * RATIO_SCALE) as u64);
            assert_eq!(kind(&[r]).p95_x1000(), (r * RATIO_SCALE) as u64);
        }
        // ranks ceil(n/2) and ceil(0.95 n), whatever the join order
        let k = kind(&[24.0, 6.5, 7.0, 0.4125]);
        assert_eq!((k.p50_x1000(), k.p95_x1000()), (6500, 24000));
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(kind(&twenty).p50_x1000(), 10_000);
        assert_eq!(kind(&twenty).p95_x1000(), 19_000);
        assert_eq!(kind(&[]).p50_x1000(), 0);
    }

    #[test]
    fn native_calibration_joins_profiles_when_gcc_is_present() {
        if !native::gcc_available() {
            eprintln!("skipping: gcc not available");
            return;
        }
        let report = calibrate_native(5, false).expect("native calibration");
        assert_eq!(report.source, "native");
        assert_eq!(report.models, 10);
        assert!(!report.kinds.is_empty());
        assert!(report.statements > 0);
        for k in &report.kinds {
            assert!(k.samples() > 0, "{}", k.kind);
            assert!(k.p50_x1000() > 0, "{}: zero p50 ratio", k.kind);
            assert!(k.p50_x1000() <= k.p95_x1000(), "{}", k.kind);
        }
        // kinds are sorted and unique
        for w in report.kinds.windows(2) {
            assert!(w[0].kind < w[1].kind);
        }
        // the suite's staple statement kinds all appear
        for kind in ["binary", "conv", "state_load", "state_store"] {
            assert!(report.kind(kind).is_some(), "suite exercises {kind}");
        }
    }
}
