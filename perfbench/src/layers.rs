//! The compile-side layer walk of a traced run: one model file through
//! each layer's public function in pipeline order, with a span around
//! every call. Default options throughout, the sequential path only.

use crate::spans::SpanLog;
use frodo_codegen::{emit_c_with, generate_with, CEmitOptions, GeneratorStyle, LowerOptions};
use frodo_core::{determine_ranges, Analysis, IoMappings, OptimizationReport, RangeOptions};
use frodo_graph::Dfg;
use frodo_obs::Trace;
use std::path::Path;
use std::time::{Duration, Instant};

/// Layer spans of the walk, in pipeline order.
pub(crate) const LAYERS: [&str; 8] = [
    "slx.read",
    "model.flatten",
    "graph.dfg",
    "core.iomap",
    "core.ranges",
    "core.classify",
    "codegen.lower",
    "codegen.emit",
];

/// One walk's layer times and deterministic counts.
#[derive(Debug, Clone)]
pub struct Walk {
    /// Duration per entry of [`LAYERS`].
    pub times: [Duration; 8],
    pub blocks: usize,
    pub elements_total: usize,
    pub elements_eliminated: usize,
    pub stmts: usize,
    pub code: String,
}

impl Walk {
    pub(crate) fn total(&self) -> Duration {
        self.times.iter().sum()
    }
}

/// Walks `path` (a `.slx` file) through every compile layer.
pub fn walk(path: &Path, log: &mut SpanLog) -> Result<Walk, String> {
    let noop = Trace::noop();
    let op = log.op();
    let root = log.open(&format!("walk:{}", file_stem(path)), op);
    let mut times = [Duration::ZERO; 8];
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());

    let bytes = std::fs::read(path).map_err(|e| fail(&e))?;
    let (model, t) = log.time(LAYERS[0], op, root, || frodo_slx::read_slx(&bytes, &noop));
    times[0] = t;
    let model = model.map_err(|e| fail(&e))?;
    let (flat, t) = log.time(LAYERS[1], op, root, || model.flattened(&noop));
    times[1] = t;
    let flat = flat.map_err(|e| fail(&e))?;
    let for_dfg = flat.clone();
    let (dfg, t) = log.time(LAYERS[2], op, root, || Dfg::new(for_dfg, &noop));
    times[2] = t;
    let dfg = dfg.map_err(|e| fail(&e))?;
    let (maps, t) = log.time(LAYERS[3], op, root, || IoMappings::derive(&dfg));
    times[3] = t;
    let (ranges, t) = log.time(LAYERS[4], op, root, || {
        determine_ranges(&dfg, &maps, RangeOptions::default())
    });
    times[4] = t;
    let (report, t) = log.time(LAYERS[5], op, root, || {
        OptimizationReport::build(&dfg, &ranges)
    });
    times[5] = t;
    // The lowering API takes a whole `Analysis`; building it repeats the
    // analysis layers above, outside any span.
    let analysis =
        Analysis::run_with(flat.clone(), RangeOptions::default()).map_err(|e| fail(&e))?;
    let (program, t) = log.time(LAYERS[6], op, root, || {
        generate_with(
            &analysis,
            GeneratorStyle::Frodo,
            LowerOptions::default(),
            &noop,
        )
    });
    times[6] = t;
    let (code, t) = log.time(LAYERS[7], op, root, || {
        emit_c_with(&program, CEmitOptions::default())
    });
    times[7] = t;
    log.close(root);
    Ok(Walk {
        times,
        blocks: flat.len(),
        elements_total: report.total_elements(),
        elements_eliminated: report.total_eliminated(),
        stmts: program.stmts.len(),
        code,
    })
}

/// Wall time of a one-job `compile_batch` of `path` on a fresh default
/// service, the way `frodo batch FILE` compiles it; returns the code too.
pub(crate) fn single_job_batch(
    path: &Path,
    log: &mut SpanLog,
) -> Result<(Duration, String), String> {
    let op = log.op();
    let start = Instant::now();
    let service = frodo_driver::CompileService::with_defaults();
    let report = service.compile_batch(vec![frodo_driver::JobSpec::from_path(
        path,
        GeneratorStyle::Frodo,
    )]);
    let wall = start.elapsed();
    log.record(&format!("batch1:{}", file_stem(path)), op, None, start);
    match report.jobs.into_iter().next() {
        Some(Ok(out)) => Ok((wall, out.code)),
        Some(Err(e)) => Err(e.to_string()),
        None => Err("empty batch report".into()),
    }
}

fn file_stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}
