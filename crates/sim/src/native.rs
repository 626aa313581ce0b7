//! Native compile-and-run harness (real `gcc -O3`, the paper's protocol).
//!
//! Used for the x86/GCC column when a C compiler is available on the host;
//! the other columns fall back to the [`CostModel`](crate::CostModel).

use frodo_codegen::lir::Program;
use frodo_codegen::{emit_c_harness_with, CEmitOptions, GeneratorStyle};
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Result of one native measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NativeResult {
    /// Checksum of the outputs after the final iteration (for cross-checks).
    pub checksum: f64,
    /// Average nanoseconds per step-function call.
    pub ns_per_iter: f64,
}

/// Errors from the native harness.
#[derive(Debug)]
pub enum NativeError {
    /// No C compiler was found on the host.
    CompilerUnavailable,
    /// The compiler rejected the generated code (a codegen bug).
    CompileFailed {
        /// Compiler diagnostics.
        stderr: String,
    },
    /// The compiled binary failed or printed unparseable output.
    RunFailed {
        /// Explanation.
        reason: String,
    },
    /// Filesystem trouble while staging the sources.
    Io(std::io::Error),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::CompilerUnavailable => write!(f, "no C compiler available"),
            NativeError::CompileFailed { stderr } => write!(f, "compile failed: {stderr}"),
            NativeError::RunFailed { reason } => write!(f, "run failed: {reason}"),
            NativeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NativeError {}

impl From<std::io::Error> for NativeError {
    fn from(e: std::io::Error) -> Self {
        NativeError::Io(e)
    }
}

/// Whether `gcc` can be invoked on this host. Probed once per process.
pub fn gcc_available() -> bool {
    static GCC: OnceLock<bool> = OnceLock::new();
    *GCC.get_or_init(|| {
        Command::new("gcc")
            .arg("--version")
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false)
    })
}

/// Compiler flags for a sanitized harness build: AddressSanitizer +
/// UndefinedBehaviorSanitizer, aborting on the first finding. `-O1`
/// instead of `-O3` keeps shadow-memory instrumentation intact.
pub const SANITIZE_FLAGS: [&str; 4] = [
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-g",
    "-O1",
];

/// Whether the host `gcc` can link an ASan/UBSan binary (the runtime
/// libraries are a separate package and may be missing even when `gcc`
/// itself works). Probed once per process.
pub fn sanitizer_available() -> bool {
    static SANITIZER: OnceLock<bool> = OnceLock::new();
    *SANITIZER.get_or_init(|| gcc_available() && probe_sanitizer())
}

/// Compiles and links an empty program with [`SANITIZE_FLAGS`].
fn probe_sanitizer() -> bool {
    let dir = stage_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return false;
    }
    let c_path = dir.join("probe.c");
    let bin_path = dir.join("probe");
    let ok = std::fs::write(&c_path, "int main(void){return 0;}\n").is_ok()
        && Command::new("gcc")
            .args(SANITIZE_FLAGS)
            .arg("-o")
            .arg(&bin_path)
            .arg(&c_path)
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false);
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

static STAGE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn stage_dir() -> PathBuf {
    let n = STAGE_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("frodo-native-{}-{n}", std::process::id()))
}

/// Compiles the program with `gcc -O3` and runs its timing harness.
///
/// # Errors
///
/// See [`NativeError`]; [`NativeError::CompilerUnavailable`] when the host
/// has no `gcc`.
pub fn compile_and_run(
    program: &Program,
    style: GeneratorStyle,
    iters: usize,
) -> Result<NativeResult, NativeError> {
    compile_and_run_with(program, style, iters, CEmitOptions::default())
}

/// [`compile_and_run`] with explicit emission options.
///
/// # Errors
///
/// Same as [`compile_and_run`].
pub fn compile_and_run_with(
    program: &Program,
    style: GeneratorStyle,
    iters: usize,
    opts: CEmitOptions,
) -> Result<NativeResult, NativeError> {
    compile_and_run_inner(program, style, iters, opts, false).map(|(r, _)| r)
}

/// [`compile_and_run_with`] under self-profiling emission: forces
/// `opts.profile` on and additionally returns the harness's stderr — the
/// per-statement profile in the `frodo-obs` NDJSON export schema, ready
/// for [`frodo_obs::ndjson::snapshot`].
///
/// # Errors
///
/// Same as [`compile_and_run`].
pub fn compile_and_run_profiled(
    program: &Program,
    style: GeneratorStyle,
    iters: usize,
    mut opts: CEmitOptions,
) -> Result<(NativeResult, String), NativeError> {
    opts.profile = true;
    compile_and_run_inner(program, style, iters, opts, false)
}

/// [`compile_and_run_profiled`] under ASan/UBSan ([`SANITIZE_FLAGS`]): the
/// dynamic counterpart of the static `analyze` stage. Any heap overflow,
/// use-after-free, or undefined behavior in the generated step function or
/// its profiling instrumentation aborts the run and surfaces as
/// [`NativeError::RunFailed`] carrying the sanitizer report.
///
/// # Errors
///
/// [`NativeError::CompilerUnavailable`] when `gcc` is missing **or** lacks
/// sanitizer runtimes (check [`sanitizer_available`] first to distinguish);
/// otherwise same as [`compile_and_run`].
pub fn compile_and_run_sanitized(
    program: &Program,
    style: GeneratorStyle,
    iters: usize,
    mut opts: CEmitOptions,
) -> Result<(NativeResult, String), NativeError> {
    opts.profile = true;
    compile_and_run_inner(program, style, iters, opts, true)
}

fn compile_and_run_inner(
    program: &Program,
    style: GeneratorStyle,
    iters: usize,
    opts: CEmitOptions,
    sanitize: bool,
) -> Result<(NativeResult, String), NativeError> {
    if !gcc_available() || (sanitize && !sanitizer_available()) {
        return Err(NativeError::CompilerUnavailable);
    }
    let dir = stage_dir();
    std::fs::create_dir_all(&dir)?;
    let c_path = dir.join(format!(
        "{}_{}.c",
        program.name,
        style.label().to_lowercase()
    ));
    let bin_path = dir.join(format!("{}_{}", program.name, style.label().to_lowercase()));
    {
        let mut f = std::fs::File::create(&c_path)?;
        f.write_all(emit_c_harness_with(program, iters, opts).as_bytes())?;
    }
    let mut gcc = Command::new("gcc");
    if sanitize {
        gcc.args(SANITIZE_FLAGS);
    } else {
        gcc.arg("-O3").arg("-march=native");
    }
    let out = gcc
        .arg("-o")
        .arg(&bin_path)
        .arg(&c_path)
        .arg("-lm")
        .output()?;
    if !out.status.success() {
        return Err(NativeError::CompileFailed {
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        });
    }
    let run = Command::new(&bin_path).output()?;
    if !run.status.success() {
        // a sanitized binary aborts with its report on stderr — forward it
        let stderr = String::from_utf8_lossy(&run.stderr);
        return Err(NativeError::RunFailed {
            reason: format!(
                "exit status {:?}{}",
                run.status.code(),
                if stderr.trim().is_empty() {
                    String::new()
                } else {
                    format!(": {}", stderr.trim())
                }
            ),
        });
    }
    let text = String::from_utf8_lossy(&run.stdout);
    let mut parts = text.split_whitespace();
    let checksum: f64 =
        parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| NativeError::RunFailed {
                reason: format!("bad output: {text}"),
            })?;
    let ns_per_iter: f64 =
        parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| NativeError::RunFailed {
                reason: format!("bad output: {text}"),
            })?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        NativeResult {
            checksum,
            ns_per_iter,
        },
        String::from_utf8_lossy(&run.stderr).into_owned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_codegen::generate;
    use frodo_core::Analysis;
    use frodo_model::{Block, BlockKind, Model, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn figure1() -> Analysis {
        let mut m = Model::new("conv");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(50),
            },
        ));
        let k = m.add(Block::new(
            "k",
            BlockKind::Constant {
                value: Tensor::vector(vec![0.1; 11]),
            },
        ));
        let c = m.add(Block::new("conv", BlockKind::Convolution));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 5, end: 55 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, c, 0).unwrap();
        m.connect(k, 0, c, 1).unwrap();
        m.connect(c, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        Analysis::run(m).unwrap()
    }

    #[test]
    fn profiled_native_run_emits_parseable_ndjson() {
        if !gcc_available() {
            eprintln!("skipping: gcc not available");
            return;
        }
        let a = figure1();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let (r, profile) =
            compile_and_run_profiled(&p, GeneratorStyle::Frodo, 50, CEmitOptions::default())
                .expect("profiled native run");
        assert!(r.ns_per_iter >= 0.0);
        let snap = frodo_obs::ndjson::snapshot(&profile).expect("profile parses");
        // one root span plus one span per statement
        assert_eq!(snap.spans.len(), p.stmts.len() + 1);
        assert!(snap.spans.iter().any(|s| s.name == "prof:conv"));
        // a calls and a flops counter per statement, counting every rep
        assert_eq!(snap.counters.len(), 2 * p.stmts.len());
        let conv_calls = snap
            .counters
            .iter()
            .find(|c| c.name.ends_with("_conv_calls"))
            .expect("conv calls counter");
        assert_eq!(conv_calls.value, 50);
        // the conv statement ran, so it has a latency histogram whose
        // count matches its calls counter
        let conv_hist = snap
            .histograms
            .iter()
            .find(|(name, _)| name.ends_with("_conv_ns"))
            .expect("conv latency histogram");
        assert_eq!(conv_hist.1.count(), 50);
        // measured flops match the static model exactly, per statement
        let ci = p
            .stmts
            .iter()
            .position(|s| s.kind_label() == "conv")
            .expect("conv statement");
        let conv_flops = snap
            .counters
            .iter()
            .find(|c| c.name == format!("stmt_{ci}_conv_flops"))
            .expect("conv flops counter");
        assert_eq!(conv_flops.value, 50 * p.stmts[ci].flops());
    }

    #[test]
    fn sanitized_profiled_run_is_clean_and_matches_plain_checksum() {
        if !sanitizer_available() {
            eprintln!("skipping: gcc sanitizer runtimes not available");
            return;
        }
        let a = figure1();
        let p = generate(&a, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let (san, profile) =
            compile_and_run_sanitized(&p, GeneratorStyle::Frodo, 5, CEmitOptions::default())
                .expect("sanitized run must be ASan/UBSan-clean");
        let plain = compile_and_run(&p, GeneratorStyle::Frodo, 5).expect("plain run");
        assert!(
            (san.checksum - plain.checksum).abs() < 1e-9,
            "sanitized vs plain checksum: {} vs {}",
            san.checksum,
            plain.checksum
        );
        // the profile dump still parses under instrumentation
        let snap = frodo_obs::ndjson::snapshot(&profile).expect("profile parses");
        assert_eq!(snap.spans.len(), p.stmts.len() + 1);
    }

    #[test]
    fn native_checksums_agree_across_styles() {
        if !gcc_available() {
            eprintln!("skipping: gcc not available");
            return;
        }
        let a = figure1();
        let mut checksums = Vec::new();
        for style in GeneratorStyle::ALL {
            let p = generate(&a, style, &frodo_obs::Trace::noop());
            let r = compile_and_run(&p, style, 3).expect("native run");
            checksums.push(r.checksum);
        }
        for w in checksums.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-9,
                "checksum mismatch across styles: {checksums:?}"
            );
        }
    }
}
