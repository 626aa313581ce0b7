//! Pins the emitted C: FNV-1a-64 digests of every Table-1 model's C under
//! each generator style and vector mode, plus FRODO with each opt-in
//! emission knob and with the self-checking native harness (`frodo compile
//! M --profile --harness 5`), against the committed list in
//! `tests/emitted_c.digests`. A change to the code generator that alters
//! one byte of C fails here, and re-blessing the digests fails too until
//! the change bumps `frodo_codegen::EMIT_REVISION`, which the artifact
//! cache keys on.

use frodo::codegen::{emit_c_harness_with, GeneratorStyle, VectorMode, EMIT_REVISION};
use frodo::prelude::*;
use frodo::slx::fnv::fnv1a_64;

const DIGESTS: &str = "tests/emitted_c.digests";

/// One line per configuration: `model style vectorize variant digest`.
fn digest_lines() -> Vec<String> {
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        no_cache: true,
        ..ServiceConfig::default()
    });
    let mut configs = Vec::new();
    for style in GeneratorStyle::ALL {
        for vectorize in ["auto", "hints", "batch:8"] {
            configs.push((style, vectorize, "plain"));
        }
    }
    for variant in ["profile", "shared-helper", "harness"] {
        configs.push((GeneratorStyle::Frodo, "auto", variant));
    }
    let mut lines = Vec::new();
    for bench in frodo::benchmodels::all() {
        for &(style, vectorize, variant) in &configs {
            let options = CompileOptions::builder()
                .vectorize(VectorMode::parse(vectorize, 8).expect("vector mode"))
                .profile(matches!(variant, "profile" | "harness"))
                .shared_conv_helper(variant == "shared-helper")
                .build();
            let spec =
                JobSpec::from_model(bench.name, bench.model.clone(), style).with_options(options);
            let out = service.compile(spec).expect("suite compiles");
            // what `compile --harness` writes: the harness emitted from the
            // job's lowered program with the job's emission options
            let code = match (variant, &out.program) {
                ("harness", Some(program)) => emit_c_harness_with(program, 5, options.keyed),
                ("harness", None) => panic!("an uncached compile keeps its program"),
                _ => out.code,
            };
            lines.push(format!(
                "{} {} {vectorize} {variant} {:016x}",
                bench.name,
                style.label(),
                fnv1a_64(code.as_bytes())
            ));
        }
    }
    lines
}

/// The committed file's emitter revision (its `revision N` line) and
/// digest lines.
fn parse_committed(text: &str) -> (Option<u32>, Vec<&str>) {
    let mut revision = None;
    let mut lines = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        match line.strip_prefix("revision ") {
            Some(r) => revision = r.parse().ok(),
            None => lines.push(line),
        }
    }
    (revision, lines)
}

#[test]
fn emitted_c_matches_the_committed_digests() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(DIGESTS);
    let actual = digest_lines();
    assert_eq!(
        actual.len(),
        150,
        "10 models x (4 styles x 3 modes + 3 variants)"
    );
    let bless = std::env::var_os("FRODO_BLESS_DIGESTS").is_some();
    let committed = match std::fs::read_to_string(&path) {
        Err(_) if bless => String::new(),
        read => read.expect("read digests"),
    };
    let (revision, expected) = parse_committed(&committed);
    let changed: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    let differs = !changed.is_empty() || actual.len() != expected.len();
    if bless {
        // the artifact cache keys on the revision: new C at an old
        // revision would be served stale from every existing cache
        assert!(
            !differs || revision != Some(EMIT_REVISION),
            "emitted C changed in {} configurations at unchanged revision {EMIT_REVISION}: \
             bump the revision (frodo_codegen::EMIT_REVISION), then re-bless:\n{}",
            changed.len().max(1),
            changed.join("\n")
        );
        let header = "\
# FNV-1a-64 of the C emitted for each Table-1 model: model, style,
# --vectorize mode, emission variant, digest, at the emitter revision
# below. tests/emitted_c.rs checks it. Regenerate after an intended
# change to the emitted C, with frodo_codegen::EMIT_REVISION bumped, with
#   FRODO_BLESS_DIGESTS=1 cargo test --test emitted_c
";
        let body = format!("revision {EMIT_REVISION}\n{}\n", actual.join("\n"));
        std::fs::write(&path, format!("{header}{body}")).expect("write digests");
        return;
    }
    assert_eq!(
        revision,
        Some(EMIT_REVISION),
        "{DIGESTS} was blessed at another emitter revision: re-bless"
    );
    assert!(
        !differs,
        "emitted C changed in {} of {} configurations ({} committed):\n{}",
        changed.len(),
        actual.len(),
        expected.len(),
        changed.join("\n")
    );
}
