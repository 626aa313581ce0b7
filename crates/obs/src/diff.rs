//! Cross-run comparison and the CI regression gate: deterministic
//! counters must match *exactly* between two runs of the same input
//! (drift means the pipeline is non-deterministic or its behaviour
//! changed), while wall times get a tolerance band expressed as a
//! percentage (`--fail-over PCT`). A percentage of 0 disables wall
//! gating entirely, leaving the counters-only determinism check.

use crate::ledger::LedgerEntry;
use std::fmt::Write as _;

/// The outcome of comparing two runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Diff {
    /// Deterministic-counter mismatches: `(name, old, new)`. Any entry
    /// here fails the gate.
    pub drifts: Vec<(String, i64, i64)>,
    /// Wall-time regressions past the tolerance band:
    /// `(what, old_ns, new_ns, pct_over)`.
    pub regressions: Vec<(String, u64, u64, f64)>,
    /// Informational differences that do not fail the gate (a changed
    /// worker count).
    pub notes: Vec<String>,
}

impl Diff {
    /// True when the gate passes: no counter drift and no wall-time
    /// regression past the band.
    pub fn ok(&self) -> bool {
        self.drifts.is_empty() && self.regressions.is_empty()
    }

    /// Renders the comparison for humans: verdict first, then drifts,
    /// regressions, and notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.ok() {
            out.push_str("ok: no counter drift, no wall-time regressions\n");
        } else {
            let _ = writeln!(
                out,
                "FAIL: {} counter drift(s), {} wall-time regression(s)",
                self.drifts.len(),
                self.regressions.len()
            );
        }
        for (name, old, new) in &self.drifts {
            let _ = writeln!(out, "  drift   {name}: {old} -> {new}");
        }
        for (what, old, new, pct) in &self.regressions {
            let _ = writeln!(out, "  slower  {what}: {old} ns -> {new} ns (+{pct:.1}%)");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note    {note}");
        }
        out
    }
}

/// Compares two runs. Counters recorded in *both* entries must agree
/// exactly; a counter present on one side only is a drift too (the set
/// of counters a deterministic pipeline emits is itself deterministic).
/// When `fail_over_pct > 0`, per-stage wall sums and the total wall time
/// in `new` may exceed `old` by at most that percentage. A worker-count
/// difference is reported as a note, not a failure — the caller chose to
/// compare those runs.
pub fn diff_entries(old: &LedgerEntry, new: &LedgerEntry, fail_over_pct: f64) -> Diff {
    let mut d = Diff::default();

    if old.workers != new.workers {
        d.notes.push(format!(
            "workers changed: {} -> {}",
            old.workers, new.workers
        ));
    }
    if old.jobs != new.jobs {
        d.drifts
            .push(("jobs".to_string(), old.jobs as i64, new.jobs as i64));
    }

    // walk the two sorted counter lists in lockstep
    let (mut i, mut j) = (0, 0);
    while i < old.counters.len() || j < new.counters.len() {
        let left = old.counters.get(i);
        let right = new.counters.get(j);
        match (left, right) {
            (Some((ln, lv)), Some((rn, rv))) if ln == rn => {
                if lv != rv {
                    d.drifts.push((ln.clone(), *lv, *rv));
                }
                i += 1;
                j += 1;
            }
            (Some((ln, lv)), Some((rn, _))) if ln < rn => {
                d.drifts.push((ln.clone(), *lv, 0));
                i += 1;
            }
            (Some(_), Some((rn, rv))) => {
                d.drifts.push((rn.clone(), 0, *rv));
                j += 1;
            }
            (Some((ln, lv)), None) => {
                d.drifts.push((ln.clone(), *lv, 0));
                i += 1;
            }
            (None, Some((rn, rv))) => {
                d.drifts.push((rn.clone(), 0, *rv));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }

    if fail_over_pct > 0.0 {
        let band = 1.0 + fail_over_pct / 100.0;
        let mut gate = |what: &str, old_ns: u64, new_ns: u64| {
            if old_ns > 0 && new_ns as f64 > old_ns as f64 * band {
                let pct = (new_ns as f64 / old_ns as f64 - 1.0) * 100.0;
                d.regressions.push((what.to_string(), old_ns, new_ns, pct));
            }
        };
        for (name, s_old) in &old.stages {
            if let Some(s_new) = new.stage(name) {
                gate(&format!("stage {name}"), s_old.sum_ns, s_new.sum_ns);
            }
        }
        gate("wall", old.wall_ns, new.wall_ns);
    }

    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::aggregate;
    use crate::trace::Trace;

    fn entry_with(counters: &[(&str, i64)], wall_ns: u64) -> LedgerEntry {
        let t = Trace::new();
        {
            let job = t.span("job:m");
            let e = job.child("emit");
            for &(name, v) in counters {
                e.count(name, v as u64);
            }
        }
        let agg = aggregate(&t.snapshot());
        let mut entry = LedgerEntry::from_agg(&agg, "m", 1, wall_ns);
        // pin the measured stage times so the band assertions are exact
        for (_, s) in &mut entry.stages {
            *s = crate::agg::StageSummary::default();
        }
        entry
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let a = entry_with(&[("stmts", 10), ("bytes_emitted", 99)], 1000);
        let b = entry_with(&[("stmts", 10), ("bytes_emitted", 99)], 1000);
        let d = diff_entries(&a, &b, 0.0);
        assert!(d.ok(), "{}", d.render());
        assert!(d.render().starts_with("ok:"));
    }

    #[test]
    fn counter_drift_fails_regardless_of_band() {
        let a = entry_with(&[("stmts", 10)], 1000);
        let b = entry_with(&[("stmts", 11)], 1000);
        let d = diff_entries(&a, &b, 50.0);
        assert!(!d.ok());
        assert_eq!(d.drifts, vec![("stmts".to_string(), 10, 11)]);
        assert!(d.render().contains("drift   stmts: 10 -> 11"));
    }

    #[test]
    fn one_sided_counters_are_drift() {
        let a = entry_with(&[("stmts", 10), ("only_old", 1)], 1000);
        let b = entry_with(&[("only_new", 2), ("stmts", 10)], 1000);
        let d = diff_entries(&a, &b, 0.0);
        let names: Vec<&str> = d.drifts.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["only_new", "only_old"]);
        assert_eq!(d.drifts[0], ("only_new".to_string(), 0, 2));
        assert_eq!(d.drifts[1], ("only_old".to_string(), 1, 0));
    }

    #[test]
    fn wall_band_gates_only_when_positive() {
        let a = entry_with(&[("stmts", 1)], 1000);
        let b = entry_with(&[("stmts", 1)], 1200);
        // 0 disables wall gating: counters-only determinism mode
        assert!(diff_entries(&a, &b, 0.0).ok());
        // +20% is inside a 25% band
        assert!(diff_entries(&a, &b, 25.0).ok());
        // ...but outside a 10% band
        let d = diff_entries(&a, &b, 10.0);
        assert!(!d.ok());
        assert_eq!(d.regressions.len(), 1);
        let (what, old_ns, new_ns, pct) = &d.regressions[0];
        assert_eq!(what, "wall");
        assert_eq!((*old_ns, *new_ns), (1000, 1200));
        assert!((pct - 20.0).abs() < 1e-9);
        // getting faster never fails
        assert!(diff_entries(&b, &a, 10.0).ok());
    }

    #[test]
    fn config_changes_are_notes_not_failures() {
        let a = entry_with(&[("stmts", 1)], 1000);
        let mut b = entry_with(&[("stmts", 1)], 1000);
        b.workers = 4;
        let d = diff_entries(&a, &b, 0.0);
        assert!(d.ok());
        assert_eq!(d.notes.len(), 1);
        assert!(d.render().contains("workers changed: 1 -> 4"));
    }

    #[test]
    fn missing_stage_on_one_side_is_skipped_by_the_wall_band() {
        // The band gate compares only stages present in BOTH entries: a
        // stage that vanished or appeared is neither a regression nor a
        // note, however slow it was. Pins current behavior — pipeline
        // stage renames would otherwise fail every historical diff.
        let mut a = entry_with(&[("stmts", 1)], 1000);
        let mut b = entry_with(&[("stmts", 1)], 1000);
        let slow = crate::agg::StageSummary {
            count: 1,
            sum_ns: 1_000_000,
            ..Default::default()
        };
        a.stages.push(("vanished".to_string(), slow));
        b.stages.push(("appeared".to_string(), slow));
        let d = diff_entries(&a, &b, 10.0);
        assert!(d.ok(), "{}", d.render());
        assert!(d.regressions.is_empty());
        assert!(d.notes.is_empty());
    }

    #[test]
    fn job_count_mismatch_is_drift() {
        let a = entry_with(&[("stmts", 1)], 1000);
        let mut b = entry_with(&[("stmts", 1)], 1000);
        b.jobs = 2;
        let d = diff_entries(&a, &b, 0.0);
        assert_eq!(d.drifts, vec![("jobs".to_string(), 1, 2)]);
    }
}
