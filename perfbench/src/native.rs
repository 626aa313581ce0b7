//! `native-step`: the generated C of the ten Table-1 models, built with
//! the native-harness flags and timed in one harness process.
//!
//! One step call varies by about ±30% from sample to sample, so the run
//! interleaves the models round-robin, takes many samples per model, and
//! reports medians. The harness times each sample in its own CPU time,
//! which leaves out the time the hypervisor steals (see [`crate::cpu`]).

use crate::cpu;
use crate::inputs;
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{geomean, median, percentile};
use frodo_codegen::lir::Program;
use frodo_codegen::GeneratorStyle;
use frodo_core::Analysis;
use frodo_driver::{CompileService, JobSpec};
use frodo_sim::{workload, MemoryReport, ReferenceSimulator};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The native-harness build flags (`frodo build --harness`, the paper's
/// `gcc -O3` protocol).
const CFLAGS: [&str; 2] = ["-O3", "-march=native"];
/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 5;
/// Target length of one timed sample of one model.
const SAMPLE_NS: f64 = 200_000.0;
/// Steps compared against the reference simulator per model.
const CHECK_STEPS: usize = 3;

/// One step function linked into the harness.
struct Unit {
    /// Table-1 model name.
    pub model: String,
    pub style: GeneratorStyle,
    /// The C symbol the harness calls.
    pub symbol: String,
    /// The `.slx` file the unit was compiled from.
    pub source: PathBuf,
    pub program: Program,
    pub code: String,
}

/// A built harness: the executable and its units, in call order.
struct Build {
    pub exe: PathBuf,
    pub units: Vec<Unit>,
    pub inputs: PathBuf,
    /// `gcc -c` wall time per unit.
    pub gcc: Vec<Duration>,
}

/// Compiles each Table-1 file through the `frodo compile` path (a single
/// job on a fresh default service) in each of `styles`.
fn codegen(files: &[(String, PathBuf)], styles: &[GeneratorStyle]) -> Result<Vec<Unit>, String> {
    let mut units = Vec::new();
    for &style in styles {
        for (name, path) in files {
            let out = CompileService::with_defaults()
                .compile(JobSpec::from_path(path, style))
                .map_err(|e| e.to_string())?;
            let program = out.program.ok_or("compile returned no program")?;
            let symbol = if styles.len() == 1 {
                format!("{}_step", program.name)
            } else {
                format!("{}_step_{}", program.name, style.label().to_lowercase())
            };
            units.push(Unit {
                model: name.clone(),
                style,
                symbol,
                source: path.clone(),
                program,
                code: out.code,
            });
        }
    }
    Ok(units)
}

/// The harness `main`: per-unit static buffers, input loading, and the
/// `check`, `calibrate` and `time` modes.
fn harness_source(units: &[Unit]) -> String {
    let mut c = String::from(
        "#include <stdio.h>\n#include <stdlib.h>\n#include <time.h>\n#include <sys/resource.h>\n\n",
    );
    for (u, unit) in units.iter().enumerate() {
        let p = &unit.program;
        let mut params = Vec::new();
        for (k, id) in p.inputs() {
            let _ = writeln!(c, "static double in_{u}_{k}[{}];", p.buffer(id).len);
            params.push("const double *".to_string());
        }
        for (k, id) in p.outputs() {
            let _ = writeln!(c, "static double out_{u}_{k}[{}];", p.buffer(id).len);
            params.push("double *".to_string());
        }
        let args: Vec<String> = p
            .inputs()
            .iter()
            .map(|(k, _)| format!("in_{u}_{k}"))
            .chain(p.outputs().iter().map(|(k, _)| format!("out_{u}_{k}")))
            .collect();
        let _ = writeln!(c, "void {}({});", unit.symbol, params.join(", "));
        let _ = writeln!(
            c,
            "static void call_{u}(void) {{ {}({}); }}",
            unit.symbol,
            args.join(", ")
        );
        let _ = writeln!(c, "static int load_{u}(FILE *f) {{");
        for (k, id) in p.inputs() {
            let _ = writeln!(
                c,
                "    for (int i = 0; i < {}; ++i) if (fscanf(f, \"%lf\", &in_{u}_{k}[i]) != 1) return 0;",
                p.buffer(id).len
            );
        }
        let _ = writeln!(c, "    return 1;\n}}");
        let _ = writeln!(
            c,
            "static double dump_{u}(int print) {{\n    double sum = 0.0;"
        );
        for (k, id) in p.outputs() {
            let _ = writeln!(
                c,
                "    for (int i = 0; i < {}; ++i) {{ sum += out_{u}_{k}[i]; if (print) printf(\"%.17g\\n\", out_{u}_{k}[i]); }}",
                p.buffer(id).len
            );
        }
        let _ = writeln!(c, "    return sum;\n}}\n");
    }
    let n = units.len();
    let list = |f: &str| {
        (0..n)
            .map(|u| format!("{f}_{u}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(c, "#define N {n}");
    let _ = writeln!(c, "static void (*CALL[N])(void) = {{{}}};", list("call"));
    let _ = writeln!(c, "static int (*LOAD[N])(FILE *) = {{{}}};", list("load"));
    let _ = writeln!(c, "static double (*DUMP[N])(int) = {{{}}};", list("dump"));
    c.push_str(HARNESS_MAIN);
    c
}

/// Modes: `check FILE STEPS` loads each step's inputs and prints every
/// output; `calibrate FILE` prints ns per call of each unit; `time FILE
/// SECONDS K_0 .. K_{N-1}` runs interleaved rounds (one sample of K_u
/// calls per unit, rotating the starting unit) until SECONDS of wall time
/// have passed, printing one line of per-call CPU ns per round, then the
/// peak RSS in KiB and each unit's output sum.
const HARNESS_MAIN: &str = r#"
static double now_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1e9 + t.tv_nsec;
}

static double cpu_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return t.tv_sec * 1e9 + t.tv_nsec;
}

int main(int argc, char **argv) {
    if (argc < 3) return 2;
    FILE *f = fopen(argv[2], "r");
    if (!f) return 2;
    if (argv[1][0] == 'c' && argv[1][1] == 'h') {
        int steps = argc > 3 ? atoi(argv[3]) : 1;
        for (int s = 0; s < steps; ++s) {
            for (int u = 0; u < N; ++u) if (!LOAD[u](f)) return 3;
            for (int u = 0; u < N; ++u) { CALL[u](); DUMP[u](1); }
        }
        return 0;
    }
    for (int u = 0; u < N; ++u) if (!LOAD[u](f)) return 3;
    if (argv[1][0] == 'c') {
        for (int u = 0; u < N; ++u) {
            for (int i = 0; i < 100; ++i) CALL[u]();
            long calls = 0;
            double t0 = now_ns(), t1 = t0;
            while (t1 - t0 < 2e6) { CALL[u](); ++calls; t1 = now_ns(); }
            printf("%.3f\n", (t1 - t0) / calls);
        }
        return 0;
    }
    if (argc < 4 + N) return 2;
    double seconds = atof(argv[3]);
    long k[N];
    for (int u = 0; u < N; ++u) k[u] = atol(argv[4 + u]);
    double ns[N];
    double end = now_ns() + seconds * 1e9;
    for (long r = 0; r == 0 || now_ns() < end; ++r) {
        for (int j = 0; j < N; ++j) {
            int u = (int)((r + j) % N);
            double t0 = cpu_ns();
            for (long i = 0; i < k[u]; ++i) CALL[u]();
            ns[u] = (cpu_ns() - t0) / k[u];
        }
        for (int u = 0; u < N; ++u) printf(u ? " %.3f" : "%.3f", ns[u]);
        printf("\n");
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    printf("rss %ld\n", ru.ru_maxrss);
    for (int u = 0; u < N; ++u) printf("%.17g\n", DUMP[u](0));
    return 0;
}
"#;

/// Seeded inputs of unit `model_idx` for check step `step`, from the
/// reference simulator's own input generator.
fn step_inputs(
    analysis: &Analysis,
    seed: u64,
    model_idx: usize,
    step: usize,
) -> Vec<frodo_model::Tensor> {
    workload::random_inputs(
        analysis.dfg(),
        seed ^ ((model_idx as u64) << 16) ^ ((step as u64) << 32),
    )
}

/// Writes the C of every unit and the harness, compiles each with
/// [`CFLAGS`] (renaming the step symbol when several styles share the
/// binary), links, and writes the inputs file.
fn build(dir: &Path, units: Vec<Unit>, analyses: &[Analysis], seed: u64) -> Result<Build, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut sources = Vec::new();
    for unit in &units {
        let path = dir.join(format!("{}.c", unit.symbol));
        std::fs::write(&path, &unit.code).map_err(io)?;
        let default_symbol = format!("{}_step", unit.program.name);
        let rename =
            (unit.symbol != default_symbol).then(|| format!("-D{default_symbol}={}", unit.symbol));
        sources.push((path, rename));
    }
    let main = dir.join("harness_main.c");
    std::fs::write(&main, harness_source(&units)).map_err(io)?;
    sources.push((main, None));

    let mut objects = Vec::new();
    let mut gcc = Vec::new();
    for (src, rename) in &sources {
        let obj = src.with_extension("o");
        let mut cmd = Command::new("gcc");
        cmd.args(CFLAGS).arg("-c").arg(src).arg("-o").arg(&obj);
        if let Some(d) = rename {
            cmd.arg(d);
        }
        let start = Instant::now();
        run_gcc(cmd, dir)?;
        gcc.push(start.elapsed());
        objects.push(obj);
    }
    // the last source is the harness main, not a unit
    gcc.pop();
    let exe = dir.join("harness");
    let mut link = Command::new("gcc");
    link.args(CFLAGS)
        .args(&objects)
        .arg("-o")
        .arg(&exe)
        .arg("-lm");
    run_gcc(link, dir)?;

    let mut text = String::new();
    for step in 0..CHECK_STEPS {
        for unit in &units {
            let m = model_index(&units, &unit.model);
            for t in step_inputs(&analyses[m], seed, m, step) {
                for v in t.data() {
                    let _ = writeln!(text, "{v:?}");
                }
            }
        }
    }
    let inputs = dir.join("inputs.txt");
    std::fs::write(&inputs, text).map_err(io)?;
    Ok(Build {
        exe,
        units,
        inputs,
        gcc,
    })
}

/// Position of `model` among the distinct models of `units` (units are
/// grouped by style, models in Table-1 order within each style).
fn model_index(units: &[Unit], model: &str) -> usize {
    let per_style = units.iter().filter(|u| u.style == units[0].style).count();
    units[..per_style]
        .iter()
        .position(|u| u.model == model)
        .expect("every unit's model is in the first style group")
}

/// Runs gcc with its temporary files kept inside `dir`.
fn run_gcc(mut cmd: Command, dir: &Path) -> Result<(), String> {
    let out = cmd
        .env("TMPDIR", dir)
        .output()
        .map_err(|e| format!("gcc: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "gcc failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

fn harness(build: &Build, args: &[String]) -> Result<String, String> {
    let out = Command::new(&build.exe)
        .args(args)
        .output()
        .map_err(|e| format!("harness: {e}"))?;
    if !out.status.success() {
        return Err(format!("harness {} exited with {}", args[0], out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("harness output: {e}"))
}

/// Runs [`CHECK_STEPS`] steps natively and on the reference simulator;
/// returns the names of units whose outputs deviate by more than 1e-9
/// relative.
fn check(build: &Build, analyses: &[Analysis], seed: u64) -> Result<Vec<String>, String> {
    let text = harness(
        build,
        &[
            "check".into(),
            path_arg(&build.inputs),
            CHECK_STEPS.to_string(),
        ],
    )?;
    let mut got = text.lines().map(|l| l.parse::<f64>());
    let mut oracles: Vec<ReferenceSimulator> = build
        .units
        .iter()
        .map(|u| {
            ReferenceSimulator::new(analyses[model_index(&build.units, &u.model)].dfg().clone())
        })
        .collect();
    let mut bad = Vec::new();
    for step in 0..CHECK_STEPS {
        for (u, unit) in build.units.iter().enumerate() {
            let m = model_index(&build.units, &unit.model);
            let expected = oracles[u]
                .step(&step_inputs(&analyses[m], seed, m, step))
                .map_err(|e| format!("{}: reference simulator: {e}", unit.model))?;
            let mut ok = true;
            for e in expected.iter().flat_map(|t| t.data()) {
                let g = got
                    .next()
                    .ok_or("harness printed too few outputs")?
                    .map_err(|e| format!("harness output: {e}"))?;
                ok &= (g - e).abs() <= 1e-9 * e.abs().max(1.0);
            }
            if !ok && !bad.contains(&unit.symbol) {
                bad.push(unit.symbol.clone());
            }
        }
    }
    Ok(bad)
}

/// Per-unit ns per call from a short calibration run.
fn calibrate(build: &Build) -> Result<Vec<f64>, String> {
    harness(build, &["calibrate".into(), path_arg(&build.inputs)])?
        .lines()
        .map(|l| l.parse::<f64>().map_err(|e| format!("calibration: {e}")))
        .collect()
}

/// Calls per sample so one sample lasts about [`SAMPLE_NS`].
fn calls_per_sample(ns: &[f64]) -> Vec<u64> {
    ns.iter()
        .map(|&t| (SAMPLE_NS / t.max(1.0)).ceil().max(1.0) as u64)
        .collect()
}

/// Timed rounds: per round, CPU ns per call of each unit.
struct Timing {
    pub rounds: Vec<Vec<f64>>,
    pub rss_kib: f64,
    pub sums: Vec<f64>,
}

impl Timing {
    /// Median CPU ns per call of unit `u` over all rounds.
    fn median_ns(&self, u: usize) -> f64 {
        let xs: Vec<f64> = self.rounds.iter().map(|r| r[u]).collect();
        median(&xs)
    }
}

fn time(build: &Build, calls: &[u64], seconds: f64) -> Result<Timing, String> {
    let mut args = vec![
        "time".to_string(),
        path_arg(&build.inputs),
        seconds.to_string(),
    ];
    args.extend(calls.iter().map(u64::to_string));
    let text = with_other_cores_busy(|| harness(build, &args))?;
    let mut rounds = Vec::new();
    let mut lines = text.lines();
    let mut rss_kib = 0.0;
    for line in lines.by_ref() {
        if let Some(rss) = line.strip_prefix("rss ") {
            rss_kib = rss.parse().map_err(|e| format!("rss: {e}"))?;
            break;
        }
        let row = line
            .split(' ')
            .map(|x| x.parse::<f64>().map_err(|e| format!("timing: {e}")))
            .collect::<Result<Vec<f64>, String>>()?;
        if row.len() != build.units.len() {
            return Err("timing row has the wrong width".into());
        }
        rounds.push(row);
    }
    let sums = lines
        .map(|l| l.parse::<f64>().map_err(|e| format!("output sum: {e}")))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Timing {
        rounds,
        rss_kib,
        sums,
    })
}

/// Runs `f` with every core but one kept busy by a spinning thread.
///
/// A step call's time depends on whether the core's other hardware
/// threads are in use: on a 2-vCPU guest, runs with the second vCPU idle
/// varied by up to 45% (the guest's idle vCPU is lent to other tenants
/// in phases of seconds), while runs with it busy agreed within about
/// 2%. Keeping the other cores busy makes every run time the step
/// functions under the same sharing.
fn with_other_cores_busy<T>(f: impl FnOnce() -> T) -> T {
    /// Sets the stop flag even if `f` panics, so the scope can join.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let others = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..others {
            // real work, not `spin_loop`: a pause loop would hand the
            // core's execution units back to its sibling thread
            s.spawn(|| {
                let mut x = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..1024 {
                        x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7));
                    }
                }
            });
        }
        let _stop = Stop(&stop);
        f()
    })
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Analyses of the written suite, for the reference simulator.
fn analyses(files: &[(String, PathBuf)]) -> Result<Vec<Analysis>, String> {
    files
        .iter()
        .map(|(name, path)| {
            let bytes = std::fs::read(path).map_err(|e| format!("{name}: {e}"))?;
            let model = frodo_slx::read_slx(&bytes, &frodo_obs::Trace::noop())
                .map_err(|e| format!("{name}: {e}"))?;
            Analysis::run(model).map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// One set-up: write the suite, generate C, build, calibrate.
fn setup_once(
    dir: &Path,
    seed: u64,
    styles: &[GeneratorStyle],
) -> Result<(Build, Vec<u64>, Vec<Analysis>), String> {
    let files = inputs::write_table1(&dir.join("table1"))?;
    let analyses = analyses(&files)?;
    let units = codegen(&files, styles)?;
    let build = build(&dir.join("build"), units, &analyses, seed)?;
    let calls = calls_per_sample(&calibrate(&build)?);
    Ok((build, calls, analyses))
}

/// Checks a build: outputs against the reference simulator, C against the
/// `frodo batch` path, and timed outputs finite. Counts one failure per
/// sample of a failing unit.
fn verify(
    build: &Build,
    analyses: &[Analysis],
    seed: u64,
    timing: &Timing,
    out: &mut Outcome,
) -> Result<(), String> {
    let bad = check(build, analyses, seed)?;
    let batch_code = batch_code(build)?;
    for (u, unit) in build.units.iter().enumerate() {
        let mut why = Vec::new();
        if bad.contains(&unit.symbol) {
            why.push("deviates from the reference simulator");
        }
        if batch_code[u] != unit.code {
            why.push("C differs from the frodo batch path");
        }
        if !timing.sums.get(u).is_some_and(|s| s.is_finite()) {
            why.push("non-finite outputs after timing");
        }
        if !why.is_empty() {
            out.fail(
                timing.rounds.len() as u64,
                format!("{}: {}", unit.symbol, why.join(", ")),
            );
        }
    }
    Ok(())
}

/// The same units' C from one `compile_batch`, the `frodo batch` path.
fn batch_code(build: &Build) -> Result<Vec<String>, String> {
    let specs = build
        .units
        .iter()
        .map(|u| JobSpec::from_path(&u.source, u.style))
        .collect();
    CompileService::with_defaults()
        .compile_batch(specs)
        .jobs
        .into_iter()
        .map(|j| j.map(|o| o.code).map_err(|e| e.to_string()))
        .collect()
}

/// The end-to-end run: [`SETUPS`] set-ups, then interleaved rounds of the
/// FRODO step functions for `seconds`.
pub(crate) fn run(
    work: &Path,
    seed: u64,
    seconds: f64,
    prefix: &str,
    log: &mut SpanLog,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut last: Option<(Build, Vec<u64>, Vec<Analysis>)> = None;
    for i in 0..SETUPS {
        let start = cpu::total();
        let s = setup_once(
            &work.join(format!("setup{i}")),
            seed,
            &[GeneratorStyle::Frodo],
        )?;
        setups.push((cpu::total() - start).as_secs_f64());
        if let Some((prev, _, _)) = &last {
            if prev
                .units
                .iter()
                .zip(&s.0.units)
                .any(|(a, b)| a.code != b.code)
            {
                out.fail(1, "set-ups generated different C");
            }
        }
        last = Some(s);
    }
    let (build, calls, analyses) = last.expect("at least one set-up");
    let op = log.op();
    let start = Instant::now();
    let timing = time(&build, &calls, seconds)?;
    log.record("native.rounds", op, None, start);
    let n = build.units.len();
    out.attempted += (timing.rounds.len() * n) as u64;
    verify(&build, &analyses, seed, &timing, &mut out)?;
    e2e_metrics(&timing, prefix, &mut out);
    if prefix.is_empty() {
        out.metric("peak_rss_mb", timing.rss_kib / 1024.0, "MiB");
        out.metric("setup_s", median(&setups), "s");
    }
    Ok(out)
}

/// CPU time of one pass over the suite (one call of each step function)
/// per round: the median, and in a traced run also the 90th percentile.
fn e2e_metrics(timing: &Timing, prefix: &str, out: &mut Outcome) {
    let pass_ms: Vec<f64> = timing
        .rounds
        .iter()
        .map(|r| r.iter().sum::<f64>() / 1e6)
        .collect();
    out.metric(format!("{prefix}cpu_ms_p50"), median(&pass_ms), "ms");
    if !prefix.is_empty() {
        out.metric(
            format!("{prefix}cpu_ms_p90"),
            percentile(&pass_ms, 90.0),
            "ms",
        );
    }
}

/// Per-layer metrics of the generated code: every style built into one
/// harness and timed interleaved, FRODO's per-model medians and their
/// geomean, its geomean speed-up over the fastest baseline per model, the
/// FRODO build's gcc time, and static counts of the FRODO programs.
pub(crate) fn layer_metrics(
    work: &Path,
    seed: u64,
    seconds: f64,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = work.join("layers-native");
    let files = inputs::write_table1(&dir.join("table1"))?;
    let analyses = analyses(&files)?;

    let units = codegen(&files, &GeneratorStyle::ALL)?;
    let op = log.op();
    let start = Instant::now();
    let all = build(&dir.join("build"), units, &analyses, seed)?;
    log.record("native.build.all-styles", op, None, start);
    let is_frodo = |u: &&Unit| u.style == GeneratorStyle::Frodo;
    let gcc_s: f64 = all
        .units
        .iter()
        .zip(&all.gcc)
        .filter(|(u, _)| is_frodo(u))
        .map(|(_, t)| t.as_secs_f64())
        .sum();
    out.metric("native.gcc_s", gcc_s, "s");
    let flops: u64 = all
        .units
        .iter()
        .filter(is_frodo)
        .map(|u| frodo_sim::program_flops(&u.program))
        .sum();
    let static_bytes: usize = all
        .units
        .iter()
        .filter(is_frodo)
        .map(|u| MemoryReport::of(&u.program).static_bytes)
        .sum();
    let calls = calls_per_sample(&calibrate(&all)?);
    let op = log.op();
    let start = Instant::now();
    let timing = time(&all, &calls, seconds)?;
    log.record("native.rounds.all-styles", op, None, start);
    out.attempted += (timing.rounds.len() * all.units.len()) as u64;
    verify(&all, &analyses, seed, &timing, out)?;

    let medians: Vec<f64> = (0..all.units.len()).map(|u| timing.median_ns(u)).collect();
    let n = files.len();
    let frodo = GeneratorStyle::ALL
        .iter()
        .position(|&s| s == GeneratorStyle::Frodo)
        .expect("Frodo is a style");
    out.metric(
        "native.step_ns_geomean",
        geomean(&medians[frodo * n..(frodo + 1) * n]),
        "ns",
    );
    let mut speedups = Vec::new();
    for (m, (name, _)) in files.iter().enumerate() {
        let frodo_ns = medians[frodo * n + m];
        out.metric(format!("native.step_ns.{name}"), frodo_ns, "ns");
        let best_baseline = (0..GeneratorStyle::ALL.len())
            .filter(|&s| s != frodo)
            .map(|s| medians[s * n + m])
            .fold(f64::INFINITY, f64::min);
        speedups.push(best_baseline / frodo_ns);
    }
    out.metric(
        "native.speedup_vs_best_baseline",
        geomean(&speedups),
        "ratio",
    );
    out.metric("codegen.flops_per_step", flops as f64, "flop");
    out.metric("codegen.static_bytes", static_bytes as f64, "B");
    Ok(())
}
