//! `frodo` — the command-line front end of the code generator.
//!
//! ```text
//! frodo analyze  <model>                           redundancy-elimination report
//! frodo lint     <model> [--format human|json|sarif]  static model diagnostics
//! frodo compile  <model> [-s STYLE] [--verify] [--cache-dir D]
//!                [--vectorize M] [--shared-helper]
//!                [--profile] [--harness ITERS]
//!                [--trace out.ndjson] [--ledger | --ledger-out F] [-o out.c]
//! frodo batch    <models...> [--workers N] [--verify] [--cache-dir D]
//!                [-s STYLES] [-o DIR] [--vectorize M]
//!                [--trace] [--trace-out out.ndjson]
//!                [--ledger | --ledger-out F]
//! frodo batch    <models...> --incremental [--region-max N] [-s STYLES]
//!                [-o DIR] [--verify] [--vectorize M]
//!                [--trace] [--trace-out out.ndjson] [--ledger | --ledger-out F]
//! frodo serve    [--socket PATH|--tcp ADDR] [--workers N] [--queue-cap N]
//!                [--cache-cap BYTES] [--cache-dir D] [--ledger | --ledger-out F]
//! frodo client   [--socket PATH|--tcp ADDR] compile|recompile|lint|batch|status|metrics|shutdown ...
//! frodo obs      export|diff|report               trace exports, cross-run perf diffs
//! frodo simulate <model> [--seed N] [--steps N]    reference simulation
//! frodo bench    <model>                           compare the four generators
//! frodo calibrate [--iters N] [--sanitize] [--ledger | --ledger-out F]
//!                                                  cost-model calibration (native)
//! frodo verify   <model> [--seeds N] [--steps N]   random tests against simulation
//! frodo convert  <model> <out.{slx,mdl}>           write a model as .slx or .mdl
//! frodo list                                       list bundled benchmarks
//! ```
//!
//! `compile` is the one emission verb. It and `batch` go through the
//! [`frodo::driver`] service: a batch's jobs run on the calling thread
//! and `--workers N` − 1 more, one thread per job, artifacts are
//! content-addressed (optionally persisted under `--cache-dir`), and every
//! job reports per-stage timings and redundancy counters. `-o DIR` names
//! each file through [`frodo::serve::output_files`]. `batch
//! --incremental` instead feeds the jobs sequentially through a
//! [`frodo::driver::CompileSession`] per style, so a resubmitted model
//! recompiles only the regions its edit dirtied. Every `<model>` may
//! be a `.slx`/`.mdl` path, a bundled Table-1 benchmark name (`frodo
//! list`), or a `random:<seed>:<size>[:edit:<k>]` synthetic spec; each is
//! resolved by [`frodo::serve::resolve`], as the daemon's requests are.
//! Every verb lists the flags it reads, and any other flag is an error.

use frodo::prelude::*;
use frodo::serve::cli::{flag_value, ledger_path, no_positionals, parse_num, positionals};
use frodo::serve::proto::{parse_style, parse_styles};
use frodo::serve::{job_name, job_spec_for, output_files, resolve_model};
use frodo::sim::{native, workload};
use frodo::slx::{write_mdl, write_slx};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => frodo::serve::cli::cmd_serve(&args[1..]),
        Some("client") => frodo::serve::cli::cmd_client(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("frodo: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "frodo — redundancy-eliminating code generation for Simulink models\n\
         \n\
         USAGE:\n\
         \x20 frodo analyze  <model> [-s STYLE] [--format human|json|sarif] [-o out]\n\
         \x20                [--gate] [--trace] | analyze --selftest\n\
         \x20 frodo lint     <model> [--format human|json|sarif] [-o out] | lint --explain CODE\n\
         \x20 frodo compile  <model> [-s simulink|dfsynth|hcg|frodo] [--vectorize auto|hints|batch[:W]]\n\
         \x20                [--shared-helper] [--profile] [--harness ITERS]\n\
         \x20                [--verify] [--analyze] [--cache-dir DIR] [--cache-cap BYTES] [--no-cache]\n\
         \x20                [--trace out.ndjson] [--ledger | --ledger-out F] [-o out.c]\n\
         \x20 frodo batch    <models...> [--workers N] [--verify] [--analyze] [--cache-dir DIR] [-s STYLES|all] [-o DIR] [--machine]\n\
         \x20                [--vectorize M] [--profile] [--cache-cap BYTES] [--no-cache] [--trace]\n\
         \x20                [--trace-out out.ndjson] [--ledger | --ledger-out F] [--incremental [--region-max N]]\n\
         \x20 frodo serve    [--socket PATH|--tcp ADDR] [--workers N] [--queue-cap N] [--cache-cap BYTES]\n\
         \x20                [--cache-dir DIR] [--ledger | --ledger-out F]\n\
         \x20 frodo client   [--socket PATH|--tcp ADDR] compile <model> [-s STYLE] [--verify] [--analyze] [--timeout MS] [-o out.c]\n\
         \x20 frodo client   [--socket PATH|--tcp ADDR] batch <models...> [-s STYLES|all] [-o DIR]\n\
         \x20 frodo client   [--socket PATH|--tcp ADDR] recompile <model> --session NAME [-s STYLE] [--region-max N]\n\
         \x20 frodo client   [--socket PATH|--tcp ADDR] lint <model> | status | metrics | shutdown\n\
         \x20 frodo simulate <model> [--seed N] [--steps N]\n\
         \x20 frodo bench    <model>\n\
         \x20 frodo calibrate [--iters N] [--sanitize] [--ledger | --ledger-out F]\n\
         \x20 frodo verify   <model> [--seeds N] [--steps N]\n\
         \x20 frodo convert  <model> <out.{{slx,mdl}}>\n\
         \x20 frodo obs      export <trace.ndjson> [--format chrome|collapsed|ndjson] [-o out]\n\
         \x20 frodo obs      diff <OLD> <NEW> [--fail-over PCT]   (ledger files or raw traces)\n\
         \x20 frodo obs      report <ledger.ndjson> [--strict]\n\
         \x20 frodo list\n\
         \n\
         A <model> is a .slx/.mdl path, a bundled Table-1 benchmark name (frodo\n\
         list), or a random:<seed>:<size>[:edit:<k>] synthetic spec; every verb\n\
         and every daemon request takes all three. An unknown flag is an error.\n\
         compile and batch accept --ledger (append a perf-ledger entry to\n\
         .frodo/ledger.ndjson) or --ledger-out FILE for an explicit path.\n\
         batch --incremental compiles jobs sequentially through one compile\n\
         session per style: resubmitting an edited model re-analyzes only the\n\
         dirtied regions (with --ledger, one entry per job). It alone takes\n\
         --region-max N (0 = one region per connected component), and it takes\n\
         none of --workers, --machine, --cache-dir, --cache-cap, --no-cache.\n\
         --verify runs the range-soundness checker (frodo-verify) on every\n\
         fresh compile and fails closed with F1xx diagnostics; frodo lint\n\
         reports F0xx model diagnostics (exit 1 on errors, not warnings);\n\
         lint --explain CODE prints any rule's registry entry and a minimal\n\
         trigger. frodo analyze adds the dataflow analyses over the lowered\n\
         IR: value-range numeric safety (F201-F203), residual-redundancy\n\
         detection (F204); --gate exits nonzero on any finding, --selftest\n\
         runs the injected-defect detector check.\n\
         compile, batch and client requests take --analyze to run the same\n\
         stage in the pipeline (its findings are warnings). Every model\n\
         compiles on one thread; batch --workers N compiles N models at once.\n\
         compile --harness ITERS appends the self-checking native harness to\n\
         the C (the ASan/UBSan CI lane compiles it with the sanitizers on); it\n\
         needs the lowered program, which a disk-cache hit does not keep, so\n\
         with --cache-dir add --no-cache. --shared-helper emits one shared\n\
         convolution helper instead of a loop nest per convolution (paper §5).\n\
         --vectorize shapes loops for SIMD (auto, the default, batches only\n\
         HCG; hints adds restrict/alignment; batch[:W] emits W-wide bodies).\n\
         --profile emits self-profiling C: per-statement call counts, wall\n\
         nanoseconds, and FLOP tallies, dumped as obs-schema NDJSON by the\n\
         generated frodo_prof_dump() (the harness dumps to stderr on exit);\n\
         frodo calibrate (needs gcc) joins such native measurements of the\n\
         Table-1 suite against the cost model and reports, without gating,\n\
         each statement kind's measured/predicted ratio; --sanitize runs the\n\
         same binaries under ASan/UBSan."
    );
}

fn save_model(model: &Model, path: &str) -> Result<(), String> {
    let p = Path::new(path);
    match p.extension().and_then(|e| e.to_str()) {
        Some("slx") => {
            let bytes = write_slx(model).map_err(|e| e.to_string())?;
            std::fs::write(p, bytes).map_err(|e| format!("{path}: {e}"))
        }
        Some("mdl") => std::fs::write(p, write_mdl(model)).map_err(|e| format!("{path}: {e}")),
        _ => Err(format!("{path}: expected a .slx or .mdl destination")),
    }
}

/// `-s`/`--style`, FRODO when absent.
fn style(args: &[String]) -> Result<GeneratorStyle, String> {
    flag_value(args, &["-s", "--style"]).map_or(Ok(GeneratorStyle::Frodo), parse_style)
}

/// Renders diagnostics in the `--format` of `verb` (human when absent).
fn render_diagnostics(
    verb: &str,
    args: &[String],
    diags: &[frodo::verify::Diagnostic],
) -> Result<String, String> {
    match flag_value(args, &["--format", "-f"]).unwrap_or("human") {
        "human" => Ok(frodo::verify::render_human(diags)),
        "json" => Ok(frodo::verify::render_json(diags)),
        "sarif" => Ok(frodo::verify::render_sarif(diags)),
        other => Err(format!(
            "{verb}: unknown format '{other}' (expected human|json|sarif)"
        )),
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--selftest") {
        no_positionals(args, &[], &["--selftest"])?;
        return analyze_selftest();
    }
    let pos = positionals(
        args,
        &["-s", "--style", "--format", "-f", "-o", "--output"],
        &["--trace", "--gate"],
    )?;
    let model_ref = pos.first().ok_or("analyze: missing model path or name")?;
    let want_trace = args.iter().any(|a| a == "--trace");
    let model = resolve_model(model_ref)?;
    let analysis = Analysis::run(model).map_err(|e| e.to_string())?;
    if want_trace {
        print!("{}", frodo::core::explain::trace(&analysis));
        return Ok(());
    }
    println!(
        "model '{}': {} blocks, {} connections, {} data-truncation blocks",
        analysis.dfg().model().name(),
        analysis.dfg().model().len(),
        analysis.dfg().model().connections().len(),
        analysis.dfg().truncation_count()
    );
    print!("{}", analysis.report());
    println!("\ncalculation ranges of optimizable blocks:");
    for port in analysis.reduced_ports() {
        let block = analysis.dfg().model().block(port.block);
        println!(
            "  {} <{}> out{}: {}",
            block.name,
            block.kind.type_name(),
            port.port,
            analysis.range(port.block, port.port)
        );
    }

    // static analysis: lower with the requested style and run the
    // dataflow analyses over the statement IR
    let style = style(args)?;
    let program = frodo::codegen::generate(&analysis, style, &frodo_obs::Trace::noop());
    let report = frodo::verify::analyze_compile(&analysis, &program);
    println!(
        "\nstatic analysis ({style}, {} statements, {} buffers):",
        report.stmts, report.buffers
    );
    println!(
        "  value ranges: {} buffers bounded in {} pass{} ({})",
        report.value_ranges.len(),
        report.interval_passes,
        if report.interval_passes == 1 {
            ""
        } else {
            "es"
        },
        if report.interval_converged {
            "converged"
        } else {
            "widened"
        }
    );
    println!(
        "  residual redundancy: {} element{} over {} statement{}",
        report.residual_elements,
        if report.residual_elements == 1 {
            ""
        } else {
            "s"
        },
        report.residual_stmts,
        if report.residual_stmts == 1 { "" } else { "s" }
    );
    let rendered = render_diagnostics("analyze", args, &report.diagnostics)?;
    match flag_value(args, &["-o", "--output"]) {
        Some(out) => std::fs::write(out, &rendered).map_err(|e| format!("{out}: {e}"))?,
        None => {
            if !report.diagnostics.is_empty() {
                println!();
                print!("{rendered}");
            }
        }
    }
    if args.iter().any(|a| a == "--gate") && !report.is_clean() {
        return Err(format!(
            "analyze gate: {} finding{} ({} residual element{}) in '{model_ref}'",
            report.diagnostics.len(),
            if report.diagnostics.len() == 1 {
                ""
            } else {
                "s"
            },
            report.residual_elements,
            if report.residual_elements == 1 {
                ""
            } else {
                "s"
            },
        ));
    }
    Ok(())
}

/// Injected-defect self-test of the `analyze` stage: a known
/// over-computing program must trip the residual detector (F204). Exits
/// non-zero if the detector goes blind.
fn analyze_selftest() -> Result<(), String> {
    use frodo::codegen::lir::{BufId, Buffer, BufferRole, ConvStyle, Program, Slice, Stmt};
    use frodo::codegen::GeneratorStyle;

    // Figure-1-style over-computation: conv writes [0, 60), only [5, 55)
    // is consumed -> 10 residual elements
    let fig1 = Program {
        name: "selftest_residual".into(),
        style: GeneratorStyle::SimulinkCoder,
        buffers: vec![
            Buffer {
                name: "u".into(),
                len: 50,
                role: BufferRole::Input(0),
            },
            Buffer {
                name: "v".into(),
                len: 11,
                role: BufferRole::Const(vec![0.1; 11]),
            },
            Buffer {
                name: "conv".into(),
                len: 60,
                role: BufferRole::Temp,
            },
            Buffer {
                name: "out0".into(),
                len: 50,
                role: BufferRole::Output(0),
            },
        ],
        stmts: vec![
            Stmt::Conv {
                dst: BufId(2),
                u: BufId(0),
                u_len: 50,
                v: BufId(1),
                v_len: 11,
                k0: 0,
                k1: 60,
                style: ConvStyle::Branchy,
            },
            Stmt::Copy {
                dst: Slice::new(BufId(3), 0),
                src: Slice::new(BufId(2), 5),
                len: 50,
            },
        ],
    };
    let report = frodo::verify::analyze_program(&fig1, &[]);
    if report.residual_elements != 10 || !report.diagnostics.iter().any(|d| d.code == "F204") {
        return Err(format!(
            "analyze selftest: residual detector missed the injected over-computation \
             (got {} residual elements)",
            report.residual_elements
        ));
    }
    println!(
        "selftest residual: PASS ({} residual elements flagged F204)",
        report.residual_elements
    );
    Ok(())
}

/// Static model diagnostics (`frodo-verify` layer 1). Exit code is only
/// non-zero for error-severity findings; warnings report and pass.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    if let Some(code) = flag_value(args, &["--explain"]) {
        no_positionals(args, &["--explain"], &[])?;
        return lint_explain(code);
    }
    let pos = positionals(args, &["--format", "-f", "-o", "--output"], &[])?;
    let model_ref = pos.first().ok_or("lint: missing model path or name")?;
    let model = resolve_model(model_ref)?;
    let diags = frodo::verify::lint(&model);
    let rendered = render_diagnostics("lint", args, &diags)?;
    match flag_value(args, &["-o", "--output"]) {
        Some(out) => std::fs::write(out, &rendered).map_err(|e| format!("{out}: {e}"))?,
        None => print!("{rendered}"),
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == frodo::verify::Severity::Error)
        .count();
    if errors > 0 {
        Err(format!(
            "{errors} error{} in '{model_ref}' ({} finding{} total)",
            if errors == 1 { "" } else { "s" },
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        ))
    } else {
        eprintln!(
            "lint '{model_ref}': {} finding{}, no errors",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
        Ok(())
    }
}

/// `frodo lint --explain CODE`: prints the registry entry for one rule —
/// severity, summary, and a minimal model/program that triggers it.
fn lint_explain(code: &str) -> Result<(), String> {
    let code = code.to_ascii_uppercase();
    match frodo::verify::rule(&code) {
        Some(r) => {
            println!("{} ({})", r.code, r.severity);
            println!("  {}", r.summary);
            println!("\nminimal trigger:");
            for line in r.example.lines() {
                println!("  {line}");
            }
            Ok(())
        }
        None => {
            let known: Vec<&str> = frodo::verify::RULES.iter().map(|r| r.code).collect();
            Err(format!(
                "lint: unknown rule id '{code}' (known rules: {})",
                known.join(", ")
            ))
        }
    }
}

/// Parses `--vectorize auto|hints|batch[:W]`; bare `batch` takes the
/// x86 cost model's lane count.
fn vector_mode(args: &[String]) -> Result<frodo::codegen::VectorMode, String> {
    match flag_value(args, &["--vectorize"]) {
        None => Ok(frodo::codegen::VectorMode::default()),
        Some(s) => frodo::codegen::VectorMode::parse(s, CostModel::x86_gcc().lanes()),
    }
}

/// The service configuration shared by `compile` and `batch`.
fn service_config(args: &[String]) -> Result<ServiceConfig, String> {
    Ok(ServiceConfig {
        workers: parse_num(args, &["--workers", "-j"], "--workers")?.unwrap_or(0),
        cache_dir: flag_value(args, &["--cache-dir"]).map(Into::into),
        no_cache: args.iter().any(|a| a == "--no-cache"),
        cache_cap_bytes: parse_num(args, &["--cache-cap"], "--cache-cap")?.unwrap_or(0),
    })
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let pos = positionals(
        args,
        &[
            "-s",
            "--style",
            "--cache-dir",
            "--cache-cap",
            "--trace",
            "-o",
            "--output",
            "--ledger-out",
            "--vectorize",
            "--harness",
        ],
        &[
            "--no-cache",
            "--ledger",
            "--verify",
            "--analyze",
            "--profile",
            "--shared-helper",
        ],
    )?;
    let model_ref = pos.first().ok_or("compile: missing model path or name")?;
    let harness_iters: Option<usize> = parse_num(args, &["--harness"], "--harness")?;
    let trace_out = flag_value(args, &["--trace"]);
    let ledger = ledger_path(args);
    // the ledger is derived from a trace, so --ledger implies tracing
    let trace = (trace_out.is_some() || ledger.is_some()).then(Trace::new);
    let options = CompileOptions::builder()
        .verify(args.iter().any(|a| a == "--verify"))
        .analyze(args.iter().any(|a| a == "--analyze"))
        .vectorize(vector_mode(args)?)
        .profile(args.iter().any(|a| a == "--profile"))
        .shared_conv_helper(args.iter().any(|a| a == "--shared-helper"))
        .build();
    let mut spec = job_spec_for(model_ref, style(args)?)?.with_options(options);
    if let Some(t) = &trace {
        spec = spec.with_trace(t);
    }
    let service = CompileService::new(service_config(args)?);
    let out = service.compile(spec).map_err(|e| {
        for line in frodo::verify::render_human(e.diagnostics()).lines() {
            eprintln!("{line}");
        }
        e.to_string()
    })?;
    // the harness is emitted from the lowered program with the job's own
    // emission options, so the C before its `main` is the job's C
    let code = match harness_iters {
        None => out.code,
        Some(iters) => {
            let program = out.program.as_ref().ok_or(
                "compile: --harness needs the lowered program, which a disk-cache hit \
                 does not keep; add --no-cache",
            )?;
            frodo::codegen::emit_c_harness_with(program, iters, options.keyed)
        }
    };
    let r = &out.report;
    eprintln!(
        "{} ({}): cache {}, digest {}, {} blocks ({} optimizable), \
         {}/{} elements eliminated, {} bytes of C",
        r.job,
        r.style.label(),
        r.cache.label(),
        r.digest,
        r.metrics.blocks,
        r.metrics.optimizable_blocks,
        r.metrics.eliminated_elements,
        r.metrics.total_elements,
        r.code_bytes
    );
    for (name, d) in r.timings.rows() {
        eprintln!("  {name:<10} {}", frodo::driver::report::fmt_duration(d));
    }
    eprintln!(
        "  {:<10} {}",
        "total",
        frodo::driver::report::fmt_duration(r.timings.total())
    );
    if let (Some(path), Some(t)) = (trace_out, &trace) {
        std::fs::write(path, t.to_ndjson()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote trace to {path} ({} spans)", t.span_count());
    }
    if let (Some(path), Some(t)) = (&ledger, &trace) {
        let agg = frodo::obs::aggregate(&t.snapshot());
        let entry =
            frodo::obs::LedgerEntry::from_agg(&agg, &r.job, 1, r.timings.total().as_nanos() as u64);
        frodo::obs::append_entry(path, &entry)?;
        eprintln!("appended ledger entry to {}", path.display());
    }
    match flag_value(args, &["-o", "--output"]) {
        Some(path) => std::fs::write(path, &code).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{code}");
            Ok(())
        }
    }
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let styles = match flag_value(args, &["-s", "--styles", "--style"]) {
        None => vec![GeneratorStyle::Frodo],
        Some(list) => parse_styles(list)?,
    };
    let out_dir = flag_value(args, &["-o", "--output"]);
    let machine = args.iter().any(|a| a == "--machine");
    let want_tree = args.iter().any(|a| a == "--trace");
    let trace_out = flag_value(args, &["--trace-out"]);
    let ledger = ledger_path(args);
    let incremental = args.iter().any(|a| a == "--incremental");

    // positional args are model references; flag values are not. Each
    // mode accepts exactly the flags it reads: the service's pool and
    // artifact cache, or the compile sessions' region cap.
    let (mode_values, mode_bools): (&[&str], &[&str]) = if incremental {
        (&["--region-max"], &["--incremental"])
    } else {
        (
            &["--workers", "-j", "--cache-dir", "--cache-cap"],
            &["--no-cache", "--machine"],
        )
    };
    let model_refs = positionals(
        args,
        &[
            &[
                "-s",
                "--styles",
                "--style",
                "-o",
                "--output",
                "--trace-out",
                "--ledger-out",
                "--vectorize",
            ],
            mode_values,
        ]
        .concat(),
        &[
            &["--trace", "--ledger", "--verify", "--analyze", "--profile"],
            mode_bools,
        ]
        .concat(),
    )?;
    if model_refs.is_empty() {
        return Err("batch: no models given (paths or benchmark names; see 'frodo list')".into());
    }

    let options = CompileOptions::builder()
        .verify(args.iter().any(|a| a == "--verify"))
        .analyze(args.iter().any(|a| a == "--analyze"))
        .vectorize(vector_mode(args)?)
        .profile(args.iter().any(|a| a == "--profile"))
        .build();
    if incremental {
        return cmd_batch_incremental(args, &model_refs, &styles, options);
    }
    let mut specs = Vec::new();
    let mut spec_refs = Vec::new();
    for model_ref in &model_refs {
        for &style in &styles {
            specs.push(job_spec_for(model_ref, style)?.with_options(options));
            spec_refs.push(*model_ref);
        }
    }
    // name every output file before compiling, so a clash writes nothing
    let files = match out_dir {
        Some(dir) => output_files(
            dir,
            spec_refs
                .iter()
                .zip(&specs)
                .map(|(r, spec)| (*r, spec.name.as_str(), spec.style)),
        )?,
        None => Vec::new(),
    };

    let service = CompileService::new(service_config(args)?);
    let trace = (want_tree || trace_out.is_some() || ledger.is_some()).then(Trace::new);
    let report = match &trace {
        Some(t) => service.compile_batch_traced(specs, t),
        None => service.compile_batch(specs),
    };
    print!("{}", report.render_table());
    if machine {
        print!("{}", report.machine_lines());
    }
    if want_tree {
        if let Some(tree) = report.render_trace() {
            println!("\nspan tree:\n{tree}");
        }
    }
    if let (Some(path), Some(t)) = (trace_out, &trace) {
        std::fs::write(path, t.to_ndjson()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote trace to {path} ({} spans)", t.span_count());
    }
    if let Some(path) = &ledger {
        let label = format!("batch:{}", model_refs.len());
        let entry = report
            .ledger_entry(&label)
            .ok_or("batch: ledger requested but no trace was recorded")?;
        frodo::obs::append_entry(path, &entry)?;
        eprintln!("appended ledger entry to {}", path.display());
    }

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for (job, file) in report.jobs.iter().zip(&files) {
            if let Ok(out) = job {
                std::fs::write(file, &out.code).map_err(|e| format!("{file}: {e}"))?;
            }
        }
        eprintln!("wrote {} C files to {dir}", report.succeeded());
    }

    if report.failed() > 0 {
        Err(format!(
            "{} of {} jobs failed",
            report.failed(),
            report.jobs.len()
        ))
    } else {
        Ok(())
    }
}

/// `batch --incremental`: jobs run sequentially through one
/// [`frodo::driver::CompileSession`] per style, so a resubmitted model
/// reuses the per-region analysis and lowering of every region whose
/// inputs are unchanged. Jobs are named by [`job_name`], as in `frodo
/// batch`. With `--ledger` each job appends its own entry (labelled by
/// its job name), which is how the CI gate reads the region hit rate of a
/// cold-then-edited pair.
fn cmd_batch_incremental(
    args: &[String],
    model_refs: &[&str],
    styles: &[GeneratorStyle],
    options: CompileOptions,
) -> Result<(), String> {
    let out_dir = flag_value(args, &["-o", "--output"]);
    let want_tree = args.iter().any(|a| a == "--trace");
    let trace_out = flag_value(args, &["--trace-out"]);
    let ledger = ledger_path(args);
    let region_max = parse_num(args, &["--region-max"], "--region-max")?
        .unwrap_or(frodo::driver::DEFAULT_REGION_MAX);

    let mut sessions: Vec<frodo::driver::CompileSession> = styles
        .iter()
        .map(|&style| {
            frodo::driver::CompileSession::builder(style)
                .options(options)
                .region_max(region_max)
                .build()
        })
        .collect();

    // jobs are named as `frodo batch` names them
    let names: Vec<String> = model_refs.iter().map(|r| job_name(r)).collect();
    let files = match out_dir {
        Some(dir) => {
            let jobs = model_refs
                .iter()
                .zip(&names)
                .flat_map(|(r, name)| styles.iter().map(move |&style| (*r, name.as_str(), style)));
            let files = output_files(dir, jobs)?;
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            files
        }
        None => Vec::new(),
    };
    let mut files = files.iter();

    let mut last_trace = None;
    let mut ledger_entries = 0usize;
    let mut wrote = 0usize;
    for (model_ref, name) in model_refs.iter().zip(&names) {
        for session in sessions.iter_mut() {
            let model = resolve_model(model_ref)?;
            let trace = if want_tree || trace_out.is_some() || ledger.is_some() {
                Trace::new()
            } else {
                Trace::noop()
            };
            let out = session.compile(name, model, &trace).map_err(|e| {
                for line in frodo::verify::render_human(e.diagnostics()).lines() {
                    eprintln!("{line}");
                }
                e.to_string()
            })?;
            let r = &out.report;
            let s = session.stats();
            eprintln!(
                "{} ({}): regions {}/{} reused, {} dirty blocks, {}/{} elements eliminated, \
                 {} bytes of C, {}",
                r.job,
                r.style.label(),
                s.last_region_hits,
                s.last_region_total,
                s.last_dirty_blocks,
                r.metrics.eliminated_elements,
                r.metrics.total_elements,
                r.code_bytes,
                frodo::driver::report::fmt_duration(r.timings.total()),
            );
            if want_tree {
                println!("{}", trace.render_tree());
            }
            if let Some(path) = &ledger {
                let agg = frodo::obs::aggregate(&trace.snapshot());
                let entry = frodo::obs::LedgerEntry::from_agg(
                    &agg,
                    &r.job,
                    1,
                    r.timings.total().as_nanos() as u64,
                );
                frodo::obs::append_entry(path, &entry)?;
                ledger_entries += 1;
            }
            if let Some(file) = files.next() {
                std::fs::write(file, &out.code).map_err(|e| format!("{file}: {e}"))?;
                wrote += 1;
            }
            if trace_out.is_some() {
                last_trace = Some(trace);
            }
        }
    }
    if let (Some(path), Some(t)) = (trace_out, &last_trace) {
        std::fs::write(path, t.to_ndjson()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote final job's trace to {path} ({} spans)",
            t.span_count()
        );
    }
    if let Some(path) = &ledger {
        eprintln!(
            "appended {ledger_entries} ledger entries to {}",
            path.display()
        );
    }
    if let Some(dir) = out_dir {
        eprintln!("wrote {wrote} C files to {dir}");
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &["--seed", "--steps"], &[])?;
    let model_ref = pos.first().ok_or("simulate: missing model path or name")?;
    let seed: u64 = parse_num(args, &["--seed"], "--seed")?.unwrap_or(1);
    let steps: usize = parse_num(args, &["--steps"], "--steps")?.unwrap_or(1);
    let model = resolve_model(model_ref)?;
    let dfg =
        frodo::graph::Dfg::new(model, &frodo_obs::Trace::noop()).map_err(|e| e.to_string())?;
    let mut sim = ReferenceSimulator::new(dfg.clone());
    for step in 0..steps {
        let inputs = workload::random_inputs(&dfg, seed.wrapping_add(step as u64));
        let outputs = sim.step(&inputs).map_err(|e| e.to_string())?;
        println!("step {step}:");
        for (i, t) in outputs.iter().enumerate() {
            println!("  out{i} = {t}");
        }
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &[], &[])?;
    let model_ref = pos.first().ok_or("bench: missing model path or name")?;
    let model = resolve_model(model_ref)?;
    let analysis = Analysis::run(model).map_err(|e| e.to_string())?;
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "style", "elements", "x86/gcc", "x86/clang", "arm/gcc", "arm/clang"
    );
    for style in GeneratorStyle::ALL {
        let p = generate(&analysis, style, &frodo_obs::Trace::noop());
        let cells: Vec<String> = CostModel::all()
            .iter()
            .map(|cm| format!("{:.1}us", cm.program_ns(&p) / 1e3))
            .collect();
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
            style.label(),
            p.computed_elements(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
    Ok(())
}

/// Cost-model calibration: runs the Table-1 suite's FRODO programs as
/// self-profiling native binaries (`gcc -O3`, `--iters` harness
/// iterations), joins measured per-statement costs against [`CostModel`]
/// predictions, and prints per-kind p50/p95 measured/predicted ratios;
/// `--ledger`/`--ledger-out` append the report as a perf-ledger entry.
/// `--sanitize` builds the harnesses under ASan/UBSan instead of `-O3` —
/// a dynamic memory/UB sweep of every benchmark's generated code, whose
/// timings are not comparable to an `-O3` run's.
fn cmd_calibrate(args: &[String]) -> Result<(), String> {
    no_positionals(
        args,
        &["--iters", "--ledger-out"],
        &["--sanitize", "--ledger"],
    )?;
    let iters: usize = parse_num(args, &["--iters"], "--iters")?.unwrap_or(200);
    let sanitize = args.iter().any(|a| a == "--sanitize");
    if !native::gcc_available() {
        return Err(
            "calibrate: gcc is unavailable, and calibration times gcc-built binaries".into(),
        );
    }
    if sanitize && !native::sanitizer_available() {
        return Err("calibrate: --sanitize requested but gcc lacks ASan/UBSan runtimes".into());
    }
    let start = std::time::Instant::now();
    let report =
        frodo::bench::calibrate::calibrate_native(iters, sanitize).map_err(|e| e.to_string())?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    print!("{}", report.render());
    if let Some(path) = ledger_path(args) {
        let entry = report.ledger_entry(wall_ns);
        frodo::obs::append_entry(&path, &entry)?;
        eprintln!("appended calibration entry to {}", path.display());
    }
    Ok(())
}

/// The paper's §4 methodology as a command: random test cases, every
/// generator's output compared against model simulation.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &["--seeds", "--steps"], &[])?;
    let model_ref = pos.first().ok_or("verify: missing model path or name")?;
    let seeds: u64 = parse_num(args, &["--seeds"], "--seeds")?.unwrap_or(16);
    let steps: u64 = parse_num(args, &["--steps"], "--steps")?.unwrap_or(3);
    let model = resolve_model(model_ref)?;
    let analysis = Analysis::run(model).map_err(|e| e.to_string())?;
    let dfg = analysis.dfg().clone();
    let mut worst_by_style = vec![0.0f64; GeneratorStyle::ALL.len()];
    let mut cases = 0usize;
    for seed in 0..seeds {
        let mut oracle = ReferenceSimulator::new(dfg.clone());
        let mut vms: Vec<_> = GeneratorStyle::ALL
            .iter()
            .map(|&s| {
                let p = generate(&analysis, s, &frodo_obs::Trace::noop());
                let vm = Vm::new(&p);
                (p, vm)
            })
            .collect();
        for step in 0..steps {
            let inputs = workload::random_inputs(&dfg, seed.wrapping_mul(7919).wrapping_add(step));
            let expected = oracle.step(&inputs).map_err(|e| e.to_string())?;
            let raw: Vec<Vec<f64>> = inputs.iter().map(|t| t.data().to_vec()).collect();
            for (k, (p, vm)) in vms.iter_mut().enumerate() {
                let got = vm.step(p, &raw);
                let worst = got
                    .iter()
                    .zip(&expected)
                    .flat_map(|(g, e)| g.iter().zip(e.data()).map(|(a, b)| (a - b).abs()))
                    .fold(0.0, f64::max);
                worst_by_style[k] = worst_by_style[k].max(worst);
            }
            cases += 1;
        }
    }
    println!(
        "verified '{}' against model simulation: {cases} random cases x {} generators",
        dfg.model().name(),
        GeneratorStyle::ALL.len()
    );
    let mut ok = true;
    for (style, worst) in GeneratorStyle::ALL.iter().zip(&worst_by_style) {
        let verdict = if *worst < 1e-9 {
            "consistent"
        } else {
            "DEVIATES"
        };
        if *worst >= 1e-9 {
            ok = false;
        }
        println!(
            "  {:<10} max deviation {:>10.2e}  {verdict}",
            style.label(),
            worst
        );
    }
    if ok {
        println!("all generators are consistent with model simulation");
        Ok(())
    } else {
        Err("generated code deviates from model simulation".into())
    }
}

/// Writes any model reference — a path, a bundled benchmark, a `random:`
/// spec — as a `.slx` or `.mdl` file.
fn cmd_convert(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &[], &[])?;
    let (src, dst) = match pos.as_slice() {
        [a, b, ..] => (*a, *b),
        _ => return Err("convert: need <model> and <out.{slx,mdl}>".into()),
    };
    let model = resolve_model(src)?;
    save_model(&model, dst)?;
    eprintln!("converted {src} -> {dst} ({} blocks)", model.deep_len());
    Ok(())
}

/// The `frodo obs` family: trace exports, cross-run diffs, and ledger
/// reports — all over the NDJSON files the rest of the CLI produces.
fn cmd_obs(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("export") => cmd_obs_export(&args[1..]),
        Some("diff") => cmd_obs_diff(&args[1..]),
        Some("report") => cmd_obs_report(&args[1..]),
        Some(flag) if flag.starts_with('-') => Err(format!("unknown flag '{flag}'")),
        _ => Err("obs: expected a subcommand: export | diff | report".into()),
    }
}

fn cmd_obs_export(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &["--format", "-f", "-o", "--output"], &[])?;
    let input = pos.first().ok_or("obs export: missing trace file")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let snap = frodo::obs::ndjson::snapshot(&text).map_err(|e| format!("{input}: {e}"))?;
    let rendered = match flag_value(args, &["--format", "-f"]).unwrap_or("chrome") {
        "chrome" => frodo::obs::chrome_trace(&snap),
        "collapsed" => frodo::obs::collapsed(&snap),
        "ndjson" => frodo::obs::ndjson_export(&snap),
        other => {
            return Err(format!(
                "obs export: unknown format '{other}' (expected chrome|collapsed|ndjson)"
            ))
        }
    };
    match flag_value(args, &["-o", "--output"]) {
        Some(out) => {
            std::fs::write(out, &rendered).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {out} ({} bytes)", rendered.len());
            Ok(())
        }
        None => {
            print!("{rendered}");
            Ok(())
        }
    }
}

/// Loads a comparison side for `obs diff`: the last entry of a ledger
/// file, or a raw NDJSON trace folded into an equivalent entry on the
/// fly (label = file name, wall = the latest span end).
fn diff_side(path: &str) -> Result<frodo::obs::LedgerEntry, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if text.contains("\"type\":\"ledger\"") {
        let entries = frodo::obs::read_ledger(&text).map_err(|e| format!("{path}: {e}"))?;
        return entries
            .into_iter()
            .last()
            .ok_or_else(|| format!("{path}: ledger file has no entries"));
    }
    let snap = frodo::obs::ndjson::snapshot(&text).map_err(|e| format!("{path}: {e}"))?;
    let wall_ns = snap
        .spans
        .iter()
        .map(|s| s.start_ns + s.dur_ns)
        .max()
        .unwrap_or(0);
    let agg = frodo::obs::aggregate(&snap);
    Ok(frodo::obs::LedgerEntry::from_agg(&agg, path, 0, wall_ns))
}

fn cmd_obs_diff(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &["--fail-over"], &[])?;
    let (old_path, new_path) = match pos.as_slice() {
        [a, b, ..] => (*a, *b),
        _ => return Err("obs diff: need <OLD> and <NEW> (ledger files or raw traces)".into()),
    };
    let fail_over: f64 = parse_num(args, &["--fail-over"], "--fail-over")?.unwrap_or(0.0);
    let old = diff_side(old_path)?;
    let new = diff_side(new_path)?;
    let d = frodo::obs::diff_entries(&old, &new, fail_over);
    print!("{}", d.render());
    if d.ok() {
        Ok(())
    } else {
        Err(format!(
            "{} counter drift(s), {} wall-time regression(s) between {old_path} and {new_path}",
            d.drifts.len(),
            d.regressions.len()
        ))
    }
}

fn cmd_obs_report(args: &[String]) -> Result<(), String> {
    let strict = args.iter().any(|a| a == "--strict");
    let pos = positionals(args, &[], &["--strict"])?;
    let path = *pos.first().ok_or("obs report: missing ledger file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Parse line by line so one corrupt line (a truncated write, a
    // foreign tool appending to the same file) degrades to a warning
    // instead of hiding every other entry behind a hard error.
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match frodo::obs::LedgerEntry::from_line(line) {
            Ok(entry) => entries.push(entry),
            Err(e) => {
                skipped += 1;
                eprintln!("obs report: {path} line {}: skipping: {e}", i + 1);
            }
        }
    }
    if entries.is_empty() {
        return Err(format!("{path}: ledger file has no entries"));
    }
    println!(
        "{:<10} {:<14} {:>7} {:>5} {:>10} {:>10} {:>6} {:>7}",
        "rev", "label", "workers", "jobs", "wall", "alg1", "cache%", "region%"
    );
    for e in &entries {
        let alg1_ns: u64 = ["dfg", "iomap", "ranges", "classify"]
            .iter()
            .filter_map(|s| e.stage(s))
            .map(|s| s.sum_ns)
            .sum();
        let cache = e
            .svc
            .as_ref()
            .map(|s| format!("{:.0}", s.cache_hit_rate_pct()))
            .unwrap_or_else(|| "-".to_string());
        let region = e
            .region_hit_rate_pct()
            .map(|r| format!("{r:.0}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<10} {:<14} {:>7} {:>5} {:>10} {:>10} {:>6} {:>7}",
            e.git_rev,
            e.label,
            e.workers,
            e.jobs,
            frodo::obs::fmt_duration(std::time::Duration::from_nanos(e.wall_ns)),
            frodo::obs::fmt_duration(std::time::Duration::from_nanos(alg1_ns)),
            cache,
            region
        );
    }
    println!(
        "{} entr{} in {path}",
        entries.len(),
        if entries.len() == 1 { "y" } else { "ies" }
    );
    if strict && skipped > 0 {
        return Err(format!(
            "obs report: {skipped} unparseable ledger line(s) in {path} (--strict)"
        ));
    }
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    no_positionals(args, &[], &[])?;
    println!("{:<14} {:<42} {:>7}", "name", "functionality", "#block");
    for bench in frodo::benchmodels::all() {
        println!(
            "{:<14} {:<42} {:>7}",
            bench.name,
            bench.functionality,
            bench.model.deep_len()
        );
    }
    Ok(())
}
