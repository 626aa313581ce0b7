//! Integration tests of the `frodo` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn frodo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_frodo"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("frodo-cli-test-{}-{name}", std::process::id()))
}

#[test]
fn list_prints_all_benchmarks() {
    let out = frodo().arg("list").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["AudioProcess", "Kalman", "RunningDiff", "Simpson"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn convert_analyze_compile_pipeline() {
    let slx = temp_path("ht.slx");
    let c_out = temp_path("ht.c");

    let out = frodo()
        .args(["convert", "HT", slx.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = frodo()
        .args(["analyze", slx.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("redundancy elimination"));
    assert!(text.contains("matrix_multiply"));

    let out = frodo()
        .args(["analyze", slx.to_str().unwrap(), "--trace"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("REDUCED"));

    let out = frodo()
        .args([
            "compile",
            slx.to_str().unwrap(),
            "-s",
            "frodo",
            "-o",
            c_out.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let c = std::fs::read_to_string(&c_out).expect("C file written");
    assert!(c.contains("void HT_step("));

    let _ = std::fs::remove_file(slx);
    let _ = std::fs::remove_file(c_out);
}

#[test]
fn convert_roundtrips_between_formats() {
    let slx = temp_path("rd.slx");
    let mdl = temp_path("rd.mdl");
    let slx2 = temp_path("rd2.slx");

    assert!(frodo()
        .args(["convert", "RunningDiff", slx.to_str().unwrap()])
        .status()
        .expect("runs")
        .success());
    assert!(frodo()
        .args(["convert", slx.to_str().unwrap(), mdl.to_str().unwrap()])
        .status()
        .expect("runs")
        .success());
    assert!(frodo()
        .args(["convert", mdl.to_str().unwrap(), slx2.to_str().unwrap()])
        .status()
        .expect("runs")
        .success());
    // both .slx files decode to the same model
    let a = frodo::slx::read_slx(&std::fs::read(&slx).unwrap(), &frodo_obs::Trace::noop()).unwrap();
    let b =
        frodo::slx::read_slx(&std::fs::read(&slx2).unwrap(), &frodo_obs::Trace::noop()).unwrap();
    assert_eq!(a, b);

    for p in [slx, mdl, slx2] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn verify_reports_consistency() {
    let mdl = temp_path("back.mdl");
    assert!(frodo()
        .args(["convert", "Back", mdl.to_str().unwrap()])
        .status()
        .expect("runs")
        .success());
    let out = frodo()
        .args([
            "verify",
            mdl.to_str().unwrap(),
            "--seeds",
            "4",
            "--steps",
            "2",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("8 random cases"));
    assert!(text.contains("all generators are consistent"));
    let _ = std::fs::remove_file(mdl);
}

#[test]
fn compile_trace_writes_parseable_ndjson() {
    let ndjson = temp_path("kalman.ndjson");
    let c_out = temp_path("kalman.c");
    let out = frodo()
        .args([
            "compile",
            "--verify",
            "--analyze",
            "--trace",
            ndjson.to_str().unwrap(),
            "Kalman",
            "-o",
            c_out.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&ndjson).expect("trace file written");
    let stats = frodo::obs::ndjson::validate(&text).expect("NDJSON parses");
    assert!(
        stats.spans >= 13,
        "job root + 12 stages, got {}",
        stats.spans
    );
    for stage in frodo::obs::STAGE_NAMES {
        assert!(
            text.contains(&format!("\"name\":\"{stage}\"")),
            "missing stage {stage}"
        );
    }
    let _ = std::fs::remove_file(ndjson);
    let _ = std::fs::remove_file(c_out);
}

#[test]
fn batch_trace_prints_the_span_tree() {
    let out = frodo()
        .args(["batch", "Kalman", "HT", "--trace"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("span tree:"));
    assert!(text.contains("job:Kalman"));
    assert!(text.contains("job:HT"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = frodo().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn every_model_taking_verb_accepts_every_reference_form() {
    let slx = temp_path("forms.slx");
    let mdl = temp_path("forms.mdl");
    let converted = temp_path("forms-out.mdl");
    let model = frodo::benchmodels::by_name("Simpson").unwrap().model;
    std::fs::write(&slx, frodo::slx::write_slx(&model).unwrap()).unwrap();
    std::fs::write(&mdl, frodo::slx::write_mdl(&model)).unwrap();
    let converted = converted.to_str().unwrap();
    for model_ref in [
        "Simpson",
        "random:3:40",
        slx.to_str().unwrap(),
        mdl.to_str().unwrap(),
    ] {
        for args in [
            &["analyze", model_ref][..],
            &["lint", model_ref],
            &["compile", model_ref, "--no-cache"],
            &["batch", model_ref, "--no-cache"],
            &["simulate", model_ref],
            &["bench", model_ref],
            &["verify", model_ref, "--seeds", "1", "--steps", "1"],
            &["convert", model_ref, converted],
        ] {
            let out = frodo().args(args).output().expect("runs");
            assert!(
                out.status.success(),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    for p in [&slx, &mdl] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(converted);
}

#[test]
fn unknown_flags_fail_and_every_read_flag_is_accepted() {
    // every verb, with the flag before and after its positionals; none
    // of them gets as far as reading a model, writing a file, or binding
    let socket = temp_path("bogus.sock");
    let socket = socket.to_str().unwrap();
    let written = temp_path("bogus.mdl");
    let written = written.to_str().unwrap();
    for (verb, rest) in [
        (&["analyze"][..], &["HT"][..]),
        (&["analyze"], &["--selftest"]),
        (&["lint"], &["HT"]),
        (&["lint"], &["--explain", "F103"]),
        (&["compile"], &["HT"]),
        (&["batch"], &["HT", "Kalman"]),
        (&["serve"], &["--socket", socket]),
        (&["client"], &["--socket", socket, "status"]),
        (&["simulate"], &["HT"]),
        (&["bench"], &["HT"]),
        (&["calibrate"], &["--steps", "1"]),
        (&["verify"], &["HT"]),
        (&["convert"], &["HT", written]),
        (&["obs"], &["report", "ledger.ndjson"]),
        (&["obs", "export"], &["trace.ndjson"]),
        (&["obs", "diff"], &["a.ndjson", "b.ndjson"]),
        (&["list"], &[]),
    ] {
        let before = [verb, &["--bogus"], rest].concat();
        let after = [verb, rest, &["--bogus"]].concat();
        for args in [before, after] {
            let out = frodo().args(&args).output().expect("runs");
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("unknown flag '--bogus'"), "{args:?}: {err}");
        }
    }
    assert!(!std::path::Path::new(socket).exists(), "serve never bound");
    assert!(
        !std::path::Path::new(written).exists(),
        "convert never wrote"
    );

    // a value-taking flag with nothing after it is not silently dropped
    let out = frodo()
        .args(["compile", "HT", "--harness"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("flag '--harness' needs a value"), "{err}");

    for (args, flag) in [
        (&["compile", "Kalman", "--bogus", "2"][..], "--bogus"),
        (&["batch", "Kalman", "-x"], "-x"),
        (
            &["analyze", "Kalman", "--vectorize", "batch:8"],
            "--vectorize",
        ),
        (
            &[
                "client",
                "--socket",
                "/nonexistent.sock",
                "--bogus",
                "status",
            ],
            "--bogus",
        ),
    ] {
        let out = frodo().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag '{flag}'")),
            "{args:?}: {err}"
        );
    }

    // compile reads --cache-cap through the service configuration
    let c_out = temp_path("cache-cap.c");
    let out = frodo()
        .args(["compile", "--cache-cap", "100000", "Kalman", "-o"])
        .arg(&c_out)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read_to_string(&c_out)
        .unwrap()
        .contains("Kalman_step"));
    let _ = std::fs::remove_file(c_out);
}

#[test]
fn bad_model_path_fails_cleanly() {
    let out = frodo()
        .args(["analyze", "/nonexistent/model.slx"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn simulate_prints_outputs() {
    let mdl = temp_path("simpson.mdl");
    assert!(frodo()
        .args(["convert", "Simpson", mdl.to_str().unwrap()])
        .status()
        .expect("runs")
        .success());
    let out = frodo()
        .args([
            "simulate",
            mdl.to_str().unwrap(),
            "--steps",
            "2",
            "--seed",
            "3",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("step 0:"));
    assert!(text.contains("step 1:"));
    assert!(text.contains("out0 ="));
    let _ = std::fs::remove_file(mdl);
}

#[test]
fn obs_diff_proves_counter_determinism_of_two_compiles() {
    let a = temp_path("det-a.ndjson");
    let b = temp_path("det-b.ndjson");
    for path in [&a, &b] {
        let out = frodo()
            .args([
                "compile",
                "Kalman",
                "--trace",
                path.to_str().unwrap(),
                "-o",
                temp_path("det.c").to_str().unwrap(),
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = frodo()
        .args([
            "obs",
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--fail-over",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "deterministic counters drifted:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok: no counter drift"));
    for p in [&a, &b] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(temp_path("det.c"));
}

#[test]
fn obs_diff_catches_injected_drift() {
    let a = temp_path("drift-a.ndjson");
    let b = temp_path("drift-b.ndjson");
    let out = frodo()
        .args([
            "compile",
            "HT",
            "--trace",
            a.to_str().unwrap(),
            "-o",
            temp_path("drift.c").to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // corrupt one deterministic counter in the second trace
    let text = std::fs::read_to_string(&a).expect("trace written");
    let corrupted = text.replacen(
        "\"name\":\"stmts\",\"value\":",
        "\"name\":\"stmts\",\"value\":9",
        1,
    );
    assert_ne!(text, corrupted, "expected a stmts counter to corrupt");
    std::fs::write(&b, corrupted).expect("write corrupted trace");
    let out = frodo()
        .args([
            "obs",
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--fail-over",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "injected drift must fail the gate");
    assert!(String::from_utf8_lossy(&out.stdout).contains("drift"));
    for p in [&a, &b] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(temp_path("drift.c"));
}

#[test]
fn obs_export_renders_chrome_and_collapsed() {
    let trace = temp_path("export.ndjson");
    let chrome = temp_path("export.json");
    let out = frodo()
        .args([
            "compile",
            "Simpson",
            "--trace",
            trace.to_str().unwrap(),
            "-o",
            temp_path("export.c").to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = frodo()
        .args([
            "obs",
            "export",
            trace.to_str().unwrap(),
            "--format",
            "chrome",
            "-o",
            chrome.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&chrome).expect("chrome export written");
    let fields = frodo::obs::ndjson::parse_line(&doc).expect("valid trace_event JSON");
    assert!(fields.iter().any(|(k, _)| k == "traceEvents"));

    let out = frodo()
        .args([
            "obs",
            "export",
            trace.to_str().unwrap(),
            "--format",
            "collapsed",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.starts_with("job:Simpson;ranges ")));

    for p in [&trace, &chrome] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(temp_path("export.c"));
}

#[test]
fn batch_ledger_entries_diff_clean_across_runs() {
    let ledger = temp_path("suite-ledger.ndjson");
    let _ = std::fs::remove_file(&ledger);
    for _ in 0..2 {
        let out = frodo()
            .args([
                "batch",
                "Kalman",
                "HT",
                "Simpson",
                "--workers",
                "1",
                "--ledger-out",
                ledger.to_str().unwrap(),
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    let entries = frodo::obs::read_ledger(&text).expect("ledger parses");
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].jobs, 3);
    assert!(
        entries[0].svc.is_some(),
        "batch entries carry service metrics"
    );

    // the two consecutive runs are counter-identical
    let first = temp_path("suite-l1.ndjson");
    let second = temp_path("suite-l2.ndjson");
    std::fs::write(&first, entries[0].to_line()).expect("split first entry");
    std::fs::write(&second, entries[1].to_line()).expect("split second entry");
    let out = frodo()
        .args([
            "obs",
            "diff",
            first.to_str().unwrap(),
            second.to_str().unwrap(),
            "--fail-over",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "consecutive batch runs drifted:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // and the ledger renders as a report
    let out = frodo()
        .args(["obs", "report", ledger.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("batch:3"));
    assert!(text.contains("2 entries"));

    for p in [&ledger, &first, &second] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn obs_report_warns_on_corrupt_lines_and_strict_exits_nonzero() {
    let ledger = temp_path("corrupt-ledger.ndjson");
    let _ = std::fs::remove_file(&ledger);
    let out = frodo()
        .args(["batch", "Kalman", "--ledger-out", ledger.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // splice a corrupt line between two good entries
    let good = std::fs::read_to_string(&ledger).expect("ledger written");
    let good = good.trim_end();
    std::fs::write(
        &ledger,
        format!("{good}\nthis is not a ledger line\n{good}\n"),
    )
    .expect("rewrite ledger");

    // lenient mode: warn with the 1-based line index, report the rest
    let out = frodo()
        .args(["obs", "report", ledger.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2"),
        "warning names the bad line: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 entries"),
        "good entries still render: {stdout}"
    );

    // strict mode: same report, nonzero exit
    let out = frodo()
        .args(["obs", "report", ledger.to_str().unwrap(), "--strict"])
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "--strict exits nonzero on corrupt lines"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unparseable"), "{stderr}");

    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn analyze_gates_benchmarks_and_runs_the_selftest() {
    // benchmark names resolve directly; --gate exits zero on clean output
    let out = frodo()
        .args(["analyze", "HT", "--gate"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("static analysis"), "{text}");
    assert!(text.contains("residual redundancy: 0 elements"), "{text}");

    // the Simulink-style baseline over-computes: --gate must fail with F204
    let out = frodo()
        .args(["analyze", "HT", "-s", "simulink", "--gate"])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "baseline should trip the gate");
    assert!(String::from_utf8_lossy(&out.stdout).contains("F204"));

    // injected-defect selftest: the detector must report PASS
    let out = frodo()
        .args(["analyze", "--selftest"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("selftest residual: PASS"), "{text}");
}

#[test]
fn lint_explain_prints_rules_and_rejects_unknown_ids() {
    let out = frodo()
        .args(["lint", "--explain", "F103"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("F103"), "{text}");
    assert!(text.contains("minimal trigger:"), "{text}");

    // lower-case ids are normalized
    let out = frodo()
        .args(["lint", "--explain", "f204"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("F204"));

    let out = frodo()
        .args(["lint", "--explain", "F999"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown rule id 'F999'"), "{err}");
    assert!(err.contains("F001"), "error should list known rules: {err}");
}

#[test]
fn bad_vectorize_mode_error_enumerates_accepted_forms() {
    let out = frodo()
        .args(["compile", "HT", "--no-cache", "--vectorize", "wide"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(
            "unknown vectorize mode 'wide' (expected auto|off|hints|batch[:W], W in 2..=16)"
        ),
        "{err}"
    );

    let out = frodo()
        .args(["compile", "HT", "--no-cache", "--vectorize", "batch:64"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("batch width 64 out of range 2..=16"),);
}

#[test]
fn compile_harness_emits_the_self_checking_driver() {
    let run = |args: &[&str]| frodo().args(args).output().expect("runs");
    let out = run(&["compile", "HT", "--harness", "3", "--profile"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let c = String::from_utf8_lossy(&out.stdout);
    assert!(c.contains("int main("), "{c}");
    assert!(c.contains("HT_step("), "{c}");
    // the C before the harness is the job's own C, byte for byte
    let plain = run(&["compile", "HT", "--profile"]);
    assert!(plain.status.success());
    assert!(out.stdout.len() > plain.stdout.len());
    assert!(out.stdout.starts_with(&plain.stdout));

    // a disk-cache hit keeps no lowered program: the harness cannot be
    // emitted, and the error says how to get one
    let cache = temp_path("harness-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let cached = [
        "compile",
        "HT",
        "--profile",
        "--harness",
        "3",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let cold = run(&cached);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert_eq!(cold.stdout, out.stdout);
    let hit = run(&cached);
    assert_eq!(hit.status.code(), Some(1));
    let err = String::from_utf8_lossy(&hit.stderr);
    assert!(err.contains("--no-cache"), "{err}");
    let _ = std::fs::remove_dir_all(&cache);
}
