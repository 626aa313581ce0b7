//! Cost-model calibration: measured statement costs vs [`CostModel`]
//! predictions, per statement kind, across the whole Table-1 suite.
//!
//! The cost model predicts native nanoseconds per statement; this module
//! joins those predictions against *measured* per-statement profiles —
//! from the [`Vm`](frodo_sim::Vm) interpreter (always available) or from
//! self-profiling native binaries (`gcc` hosts) — and reports the
//! measured/predicted ratio per statement kind as p50/p95 over every
//! statement of that kind in the suite. The ratios are not expected to be
//! 1.0 (the VM interprets; native timings include harness jitter); what CI
//! gates on is that each kind's p50 ratio stays inside a committed
//! tolerance band, so a cost-model or VM change that silently skews one
//! statement kind against the others shows up as a band violation.

use crate::build_suite;
use frodo_codegen::lir::Program;
use frodo_codegen::VectorMode;
use frodo_obs::{Histogram, LedgerEntry, Trace};
use frodo_sim::native::{self, NativeError};
use frodo_sim::{workload, CostModel, Profile, Vm};

/// Ratios are persisted as integers scaled by this factor (the ledger and
/// the bands file carry no floats).
pub const RATIO_SCALE: f64 = 1000.0;

/// Measured-vs-predicted summary for one statement kind.
#[derive(Debug, Clone)]
pub struct KindCalibration {
    /// Statement kind label ([`frodo_codegen::lir::Stmt::kind_label`]).
    pub kind: &'static str,
    /// Statements of this kind that executed across the suite.
    pub samples: u64,
    /// Per-statement `measured_mean_ns / predicted_ns` ratios, scaled by
    /// [`RATIO_SCALE`].
    pub ratio_x1000: Histogram,
}

impl KindCalibration {
    /// Median ratio, scaled by [`RATIO_SCALE`].
    pub fn p50_x1000(&self) -> u64 {
        self.ratio_x1000.percentile(50.0) as u64
    }

    /// 95th-percentile ratio, scaled by [`RATIO_SCALE`].
    pub fn p95_x1000(&self) -> u64 {
        self.ratio_x1000.percentile(95.0) as u64
    }
}

/// One calibration run: every statement kind the suite exercises.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Where the measurements came from: `"vm"` or `"native"`.
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
                k.samples,
                k.p50_x1000() as f64 / RATIO_SCALE,
                k.p95_x1000() as f64 / RATIO_SCALE
            );
        }
        out
    }

    /// Folds the report into a perf-ledger entry (label `calibrate`,
    /// engine = the measurement source) carrying one
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
                job.count(&format!("calib_{}_samples", k.kind), k.samples);
            }
        }
        let agg = frodo_obs::aggregate(&trace.snapshot());
        LedgerEntry::from_agg(&agg, "calibrate", self.source, 0, 0, wall_ns)
    }
}

/// Accumulates per-kind ratio histograms as statements are joined.
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
                    samples: 0,
                    ratio_x1000: Histogram::new(),
                });
                self.kinds.last_mut().expect("just pushed")
            }
        };
        slot.samples += 1;
        slot.ratio_x1000.record(ratio * RATIO_SCALE);
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

fn predicted_ns(cm: &CostModel, program: &Program, idx: usize) -> f64 {
    cm.stmt_ns_with(program.style, &program.stmts[idx], VectorMode::Auto)
}

/// Calibrates against the VM: every Table-1 model's FRODO program runs
/// `steps` profiled steps on deterministic random inputs, and each
/// executed statement contributes one measured/predicted ratio sample.
pub fn calibrate_vm(steps: usize) -> CalibrationReport {
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
        let mut vm = Vm::new(program);
        let mut profile = Profile::new(program);
        for step in 0..steps {
            let inputs = workload::random_input_vecs(entry.analysis.dfg(), 0xCA11B + step as u64);
            vm.step_profiled(program, &inputs, &mut profile);
        }
        for (i, s) in profile.stmts().iter().enumerate() {
            if s.calls == 0 {
                continue;
            }
            let mean = s.ns.sum() / s.calls as f64;
            acc.record(s.kind, mean, predicted_ns(&cm, program, i));
        }
    }
    acc.finish("vm", models)
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
/// stage. Timing ratios from a sanitized run are not comparable to the
/// committed bands (shadow-memory instrumentation dominates); the `source`
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
            acc.record(stmt.kind_label(), mean, predicted_ns(&cm, program, i));
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

/// One committed tolerance band: the p50 ratio of `kind` must stay in
/// `[p50_min_x1000, p50_max_x1000]` (inclusive, [`RATIO_SCALE`]d).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Band {
    /// Statement kind the band constrains.
    pub kind: String,
    /// Lower bound on the p50 ratio, scaled by [`RATIO_SCALE`].
    pub p50_min_x1000: u64,
    /// Upper bound on the p50 ratio, scaled by [`RATIO_SCALE`].
    pub p50_max_x1000: u64,
}

/// Parses a bands file: one NDJSON line per kind,
/// `{"type":"calib_band","kind":"conv","p50_min_x1000":N,"p50_max_x1000":N}`.
/// Blank lines and `#` comment lines are skipped.
///
/// # Errors
///
/// Reports the 1-based line number of the first malformed line.
pub fn parse_bands(text: &str) -> Result<Vec<Band>, String> {
    let mut bands = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields = frodo_obs::ndjson::parse_line(line)
            .map_err(|e| format!("bands line {}: {e}", i + 1))?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let text_field = |key: &str| {
            get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("bands line {}: missing string field {key:?}", i + 1))
        };
        let num = |key: &str| {
            get(key)
                .and_then(|v| v.as_num())
                .map(|n| n as u64)
                .ok_or_else(|| format!("bands line {}: missing numeric field {key:?}", i + 1))
        };
        if text_field("type")? != "calib_band" {
            return Err(format!("bands line {}: type != \"calib_band\"", i + 1));
        }
        bands.push(Band {
            kind: text_field("kind")?,
            p50_min_x1000: num("p50_min_x1000")?,
            p50_max_x1000: num("p50_max_x1000")?,
        });
    }
    Ok(bands)
}

/// Checks a report against committed bands. Returns one message per
/// violation: a kind whose p50 ratio left its band, or a measured kind
/// with no band at all (the bands file must cover everything the suite
/// exercises, so new statement kinds cannot dodge the gate).
pub fn check_bands(report: &CalibrationReport, bands: &[Band]) -> Vec<String> {
    let mut violations = Vec::new();
    for k in &report.kinds {
        match bands.iter().find(|b| b.kind == k.kind) {
            None => violations.push(format!("kind '{}' has no committed band", k.kind)),
            Some(b) => {
                let p50 = k.p50_x1000();
                if p50 < b.p50_min_x1000 || p50 > b.p50_max_x1000 {
                    violations.push(format!(
                        "kind '{}': p50 ratio {:.3}x outside band [{:.3}x, {:.3}x]",
                        k.kind,
                        p50 as f64 / RATIO_SCALE,
                        b.p50_min_x1000 as f64 / RATIO_SCALE,
                        b.p50_max_x1000 as f64 / RATIO_SCALE
                    ));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_calibration_covers_every_exercised_kind_with_positive_ratios() {
        let report = calibrate_vm(2);
        assert_eq!(report.models, 10);
        assert!(!report.kinds.is_empty());
        assert!(report.statements > 0);
        for k in &report.kinds {
            assert!(k.samples > 0, "{}", k.kind);
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

    #[test]
    fn ledger_entry_round_trips_with_calib_counters() {
        let report = calibrate_vm(1);
        let entry = report.ledger_entry(123_456);
        assert_eq!(entry.label, "calibrate");
        assert_eq!(entry.engine, "vm");
        let back = LedgerEntry::from_line(&entry.to_line()).expect("parses");
        for k in &report.kinds {
            assert_eq!(
                back.counter(&format!("calib_{}_ratio_p50_x1000", k.kind)),
                k.p50_x1000() as i64
            );
            assert_eq!(
                back.counter(&format!("calib_{}_samples", k.kind)),
                k.samples as i64
            );
        }
    }

    #[test]
    fn bands_parse_check_and_flag_violations() {
        let text = "# tolerance bands\n\
                    {\"type\":\"calib_band\",\"kind\":\"conv\",\"p50_min_x1000\":10,\"p50_max_x1000\":99999999}\n\
                    \n\
                    {\"type\":\"calib_band\",\"kind\":\"binary\",\"p50_min_x1000\":50000000,\"p50_max_x1000\":60000000}\n";
        let bands = parse_bands(text).expect("parses");
        assert_eq!(bands.len(), 2);

        let mut in_band = Histogram::new();
        in_band.record(5_000.0);
        let report = CalibrationReport {
            source: "vm",
            kinds: vec![
                KindCalibration {
                    kind: "conv",
                    samples: 1,
                    ratio_x1000: in_band.clone(),
                },
                KindCalibration {
                    kind: "binary",
                    samples: 1,
                    ratio_x1000: in_band,
                },
                KindCalibration {
                    kind: "fir",
                    samples: 1,
                    ratio_x1000: Histogram::new(),
                },
            ],
            models: 1,
            statements: 3,
        };
        let violations = check_bands(&report, &bands);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(
            violations.iter().any(|v| v.contains("'binary'")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("'fir'")),
            "{violations:?}"
        );

        assert!(parse_bands("{\"type\":\"span\"}").is_err());
        assert!(parse_bands("nonsense")
            .unwrap_err()
            .starts_with("bands line 1"));
    }

    #[test]
    fn committed_bands_cover_the_vm_calibration() {
        // the same gate ci.sh runs, pinned as a unit test so a cost-model
        // or VM change that skews one statement kind fails fast
        let bands_text = include_str!("../../../CALIBRATION_BANDS.ndjson");
        let bands = parse_bands(bands_text).expect("committed bands parse");
        let report = calibrate_vm(3);
        let violations = check_bands(&report, &bands);
        assert!(
            violations.is_empty(),
            "{violations:#?}\n{}",
            report.render()
        );
    }

    #[test]
    fn native_calibration_joins_profiles_when_gcc_is_present() {
        if !native::gcc_available() {
            eprintln!("skipping: gcc not available");
            return;
        }
        let report = calibrate_native(5, false).expect("native calibration");
        assert_eq!(report.source, "native");
        assert!(!report.kinds.is_empty());
        for k in &report.kinds {
            assert!(k.samples > 0, "{}", k.kind);
        }
        assert!(report.kind("conv").is_some());
    }
}
