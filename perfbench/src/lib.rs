//! End-to-end and per-layer benchmark of the frodo compiler, its compile
//! daemon, and the C it generates. See `README.md` in this directory.

pub mod cpu;
pub mod daemon;
pub mod inputs;
pub mod layers;
pub mod native;
pub mod report;
pub mod spans;
pub(crate) mod stats;
pub mod table1;

use report::Outcome;
use spans::SpanLog;
use std::path::Path;

/// The workloads this benchmark runs. The serve layer and the incremental
/// caches have no workload of their own yet; every traced run measures
/// them over one daemon episode (see `README.md`).
pub const WORKLOADS: [&str; 2] = ["table1-batch", "native-step"];

/// Seconds of interleaved native timing in a traced run's layer sweep.
const NATIVE_LAYER_SECONDS: f64 = 3.0;

/// Runs one workload in `work`. Untraced, it reports the end-to-end
/// metrics. Traced, it runs the workload's loop for half of `seconds`
/// with spans around each operation (its figures prefixed `traced.`, so
/// the tracing overhead shows against an untraced run), then measures
/// every layer: the compile layers over the Table-1 suite and over the
/// seeded edit files, the serve layer over one daemon episode, and the
/// generated code natively. Spans are written to `trace_out`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
    work: &Path,
) -> Result<Outcome, String> {
    let mut log = SpanLog::new(trace_out.is_some());
    let (prefix, e2e_seconds) = match trace_out {
        Some(_) => ("traced.", seconds / 2.0),
        None => ("", seconds),
    };
    let mut out = match workload {
        "table1-batch" => table1::run(work, seed, e2e_seconds, prefix, &mut log)?,
        "native-step" => native::run(work, seed, e2e_seconds, prefix, &mut log)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    if let Some(path) = trace_out {
        table1::layer_metrics(work, &mut log, &mut out)?;
        daemon::layer_metrics(work, seed, &mut log, &mut out)?;
        native::layer_metrics(work, seed, NATIVE_LAYER_SECONDS, &mut log, &mut out)?;
        log.write_ndjson(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}
