//! Pins the emitted C: FNV-1a-64 digests of every Table-1 model's C under
//! each generator style and vector mode, plus FRODO with each opt-in
//! emission knob, against the committed list in `tests/emitted_c.digests`.
//! A change to the code generator that alters one byte of C fails here.

use frodo::codegen::{GeneratorStyle, VectorMode};
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
        for vectorize in ["auto", "off", "hints", "batch:8"] {
            configs.push((style, vectorize, "plain"));
        }
    }
    for variant in ["window-reuse", "profile", "shared-helper"] {
        configs.push((GeneratorStyle::Frodo, "auto", variant));
    }
    let mut lines = Vec::new();
    for bench in frodo::benchmodels::all() {
        for &(style, vectorize, variant) in &configs {
            let options = CompileOptions::builder()
                .vectorize(VectorMode::parse(vectorize, 8).expect("vector mode"))
                .window_reuse(variant == "window-reuse")
                .profile(variant == "profile")
                .shared_conv_helper(variant == "shared-helper")
                .build();
            let spec =
                JobSpec::from_model(bench.name, bench.model.clone(), style).with_options(options);
            let code = service.compile(spec).expect("suite compiles").code;
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

#[test]
fn emitted_c_matches_the_committed_digests() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(DIGESTS);
    let actual = digest_lines();
    if std::env::var_os("FRODO_BLESS_DIGESTS").is_some() {
        let header = "\
# FNV-1a-64 of the C emitted for each Table-1 model: model, style,
# --vectorize mode, emission variant, digest. tests/emitted_c.rs checks it.
# Regenerate after an intended change to the emitted C with
#   FRODO_BLESS_DIGESTS=1 cargo test --test emitted_c
";
        std::fs::write(&path, format!("{header}{}\n", actual.join("\n"))).expect("write digests");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("read digests");
    let expected: Vec<&str> = committed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(
        actual.len(),
        190,
        "10 models x (4 styles x 4 modes + 3 variants)"
    );
    let changed: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        changed.is_empty() && actual.len() == expected.len(),
        "emitted C changed in {} of {} configurations ({} committed):\n{}",
        changed.len(),
        actual.len(),
        expected.len(),
        changed.join("\n")
    );
}
