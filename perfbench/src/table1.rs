//! `table1-batch`: the ten Table-1 models compiled as one batch on a
//! fresh default service, like `frodo batch *.slx` in a new process.
//!
//! Batches, never single compiles, are timed: a single default compile
//! resolves its intra-model thread budget to every core and measures the
//! scheduler, while a batch gives each job `cores / workers` threads.
//! A batch is timed in the CPU time of all its threads (see
//! [`crate::cpu`]); a traced run's span log keeps its wall time.

use crate::cpu;
use crate::inputs;
use crate::layers;
use crate::report::{peak_rss_mib, Outcome};
use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use frodo_codegen::GeneratorStyle;
use frodo_driver::{BatchReport, CompileService, JobSpec};
use frodo_sim::rng::Rng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 15;
/// Layer walks over the suite in a traced run.
const WALK_REPS: usize = 10;

/// The written suite and its reference C.
struct Suite {
    files: Vec<(String, PathBuf)>,
    reference: Vec<String>,
}

fn batch(files: &[(String, PathBuf)], order: &[usize]) -> BatchReport {
    let specs = order
        .iter()
        .map(|&i| JobSpec::from_path(&files[i].1, GeneratorStyle::Frodo))
        .collect();
    CompileService::with_defaults().compile_batch(specs)
}

/// Writes the suite under `dir` and compiles it once (the warm batch).
fn setup_once(dir: &Path) -> Result<Suite, String> {
    let files = inputs::write_table1(dir)?;
    let order: Vec<usize> = (0..files.len()).collect();
    let reference = batch(&files, &order)
        .jobs
        .into_iter()
        .map(|j| j.map(|o| o.code).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Suite { files, reference })
}

/// Runs [`SETUPS`] set-ups in fresh directories; returns the last suite
/// and every set-up's CPU seconds. Every warm batch must emit the same C.
fn setup(work: &Path, out: &mut Outcome) -> Result<(Suite, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut suite: Option<Suite> = None;
    for i in 0..SETUPS {
        let start = cpu::total();
        let s = setup_once(&work.join(format!("setup{i}")))?;
        times.push((cpu::total() - start).as_secs_f64());
        if let Some(prev) = &suite {
            if prev.reference != s.reference {
                out.fail(1, "warm batches emitted different C");
            }
        }
        suite = Some(s);
    }
    Ok((suite.expect("at least one set-up"), times))
}

/// The closed loop: seeded job orders, one batch at a time, until
/// `seconds` are used up.
pub(crate) fn run(
    work: &Path,
    seed: u64,
    seconds: f64,
    prefix: &str,
    log: &mut SpanLog,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (suite, setups) = setup(work, &mut out)?;
    let n = suite.files.len();
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut cpu_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while cpu_ms.is_empty() || Instant::now() < deadline {
        inputs::shuffle(&mut order, &mut rng);
        let op = log.op();
        let start = Instant::now();
        let cpu_start = cpu::process();
        let report = batch(&suite.files, &order);
        cpu_ms.push((cpu::process() - cpu_start).as_secs_f64() * 1e3);
        log.record("batch", op, None, start);
        out.attempted += n as u64;
        for (&i, job) in order.iter().zip(&report.jobs) {
            match job {
                Ok(o) if o.code == suite.reference[i] => {}
                Ok(_) => out.fail(
                    1,
                    format!("{}: C differs between batches", suite.files[i].0),
                ),
                Err(e) => out.fail(1, e.to_string()),
            }
        }
    }
    out.metric(format!("{prefix}cpu_ms_p50"), median(&cpu_ms), "ms");
    if prefix.is_empty() {
        out.metric("peak_rss_mb", peak_rss_mib()?, "MiB");
        out.metric("setup_s", median(&setups), "s");
    } else {
        // the tail follows the host's load too closely to carry a bound,
        // so only the traced run reports it
        out.metric(
            format!("{prefix}cpu_ms_p90"),
            percentile(&cpu_ms, 90.0),
            "ms",
        );
    }
    Ok(out)
}

/// Compile-layer metrics over the suite: each layer's time for one pass
/// over the ten models (sum of per-model medians over [`WALK_REPS`]
/// walks), the suite's deterministic counts, and the driver's own time.
pub(crate) fn layer_metrics(
    work: &Path,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<(), String> {
    let suite = setup_once(&work.join("layers-table1"))?;
    let n = suite.files.len();
    let mut layer_ms = vec![vec![Vec::new(); n]; layers::LAYERS.len()];
    let mut walk_ms = vec![Vec::new(); n];
    let mut batch_ms = vec![Vec::new(); n];
    let mut last = Vec::new();
    for _ in 0..WALK_REPS {
        last.clear();
        for (m, (name, path)) in suite.files.iter().enumerate() {
            let w = layers::walk(path, log)?;
            let (wall, code) = layers::single_job_batch(path, log)?;
            out.attempted += 2;
            if w.code != suite.reference[m] || code != suite.reference[m] {
                out.fail(1, format!("{name}: layer walk or one-job batch C differs"));
            }
            for (l, t) in w.times.iter().enumerate() {
                layer_ms[l][m].push(t.as_secs_f64() * 1e3);
            }
            walk_ms[m].push(w.total().as_secs_f64() * 1e3);
            batch_ms[m].push(wall.as_secs_f64() * 1e3);
            last.push(w);
        }
    }
    for (l, layer) in layers::LAYERS.iter().enumerate() {
        let total: f64 = layer_ms[l].iter().map(|xs| median(xs)).sum();
        out.metric(format!("{layer}_ms"), total, "ms");
    }
    let driver_self: f64 = (0..n)
        .map(|m| median(&batch_ms[m]) - median(&walk_ms[m]))
        .sum();
    out.metric("driver.self_ms", driver_self, "ms");
    let sum = |f: fn(&layers::Walk) -> usize| last.iter().map(f).sum::<usize>() as f64;
    out.metric("model.blocks", sum(|w| w.blocks), "count");
    out.metric(
        "core.elements_eliminated",
        sum(|w| w.elements_eliminated),
        "count",
    );
    out.metric(
        "core.elimination_ratio",
        sum(|w| w.elements_eliminated) / sum(|w| w.elements_total),
        "ratio",
    );
    out.metric("codegen.stmts", sum(|w| w.stmts), "count");
    out.metric("codegen.c_bytes", sum(|w| w.code.len()), "B");
    Ok(())
}
