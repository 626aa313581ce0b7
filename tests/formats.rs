//! Format roundtrips over the whole benchmark suite: every Table-1 model
//! must survive `.slx` (ZIP+XML) and `.mdl` (text) serialization exactly,
//! and the re-read model must analyze to identical calculation ranges.
//! Random models round-trip too, and truncated or corrupted Table-1 block
//! diagrams must be read as errors, never as models or panics.

use frodo::prelude::*;
use frodo::slx::slx::BLOCKDIAGRAM_PATH;
use frodo::slx::zip::{Archive, Method};
use frodo::slx::{read_mdl, read_slx, write_mdl, write_slx, FormatError};

#[test]
fn all_benchmarks_roundtrip_through_slx() {
    for bench in frodo::benchmodels::all() {
        let bytes = write_slx(&bench.model).expect("serialize");
        let back = read_slx(&bytes, &frodo_obs::Trace::noop())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(
            back, bench.model,
            "{} differs after .slx roundtrip",
            bench.name
        );
    }
}

#[test]
fn all_benchmarks_roundtrip_through_mdl() {
    for bench in frodo::benchmodels::all() {
        let text = write_mdl(&bench.model);
        let back = read_mdl(&text, &frodo_obs::Trace::noop())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(
            back, bench.model,
            "{} differs after .mdl roundtrip",
            bench.name
        );
    }
}

#[test]
fn slx_reread_models_produce_identical_analyses() {
    // the paper's pipeline starts from .slx bytes; ranges derived from the
    // re-parsed model must match ranges from the in-memory original
    for bench in frodo::benchmodels::all() {
        let original = Analysis::run(bench.model.clone()).expect("analyze original");
        let reread = read_slx(
            &write_slx(&bench.model).expect("serialize"),
            &frodo_obs::Trace::noop(),
        )
        .expect("reparse");
        let reparsed = Analysis::run(reread).expect("analyze reparsed");
        assert_eq!(
            original.ranges(),
            reparsed.ranges(),
            "{}: ranges differ after container roundtrip",
            bench.name
        );
    }
}

#[test]
fn slx_and_mdl_agree_with_each_other() {
    for bench in frodo::benchmodels::all() {
        let via_slx = read_slx(
            &write_slx(&bench.model).expect("slx"),
            &frodo_obs::Trace::noop(),
        )
        .expect("slx back");
        let via_mdl =
            read_mdl(&write_mdl(&bench.model), &frodo_obs::Trace::noop()).expect("mdl back");
        assert_eq!(via_slx, via_mdl, "{}: formats disagree", bench.name);
    }
}

#[test]
fn generated_code_is_stable_across_container_roundtrip() {
    // C text generated from the re-read model is byte-identical
    let bench = frodo::benchmodels::manufacture();
    let original = Analysis::run(bench.clone()).expect("analyze");
    let reread =
        read_slx(&write_slx(&bench).expect("slx"), &frodo_obs::Trace::noop()).expect("back");
    let reparsed = Analysis::run(reread).expect("analyze");
    for style in GeneratorStyle::ALL {
        let a = emit_c(&generate(&original, style, &frodo_obs::Trace::noop()));
        let b = emit_c(&generate(&reparsed, style, &frodo_obs::Trace::noop()));
        assert_eq!(a, b, "style {style}");
    }
}

#[test]
fn random_models_roundtrip_through_slx() {
    // seeds 0..40 already round-trip in tests/random_models.rs
    for seed in 40..100 {
        let model = frodo::benchmodels::random::random_model(seed, 30);
        let back = read_slx(&write_slx(&model).expect("slx"), &frodo_obs::Trace::noop())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(back, model, "seed {seed} differs after .slx roundtrip");
    }
}

/// Each Table-1 model's `blockdiagram.xml`, as `write_slx` stores it.
fn table1_diagrams() -> Vec<(&'static str, Vec<u8>)> {
    frodo::benchmodels::all()
        .into_iter()
        .map(|bench| {
            let bytes = write_slx(&bench.model).expect("slx");
            let ar = Archive::from_bytes(&bytes).expect("archive");
            (
                bench.name,
                ar.get(BLOCKDIAGRAM_PATH).expect("diagram").to_vec(),
            )
        })
        .collect()
}

/// Reads a block diagram through a whole `.slx` container.
fn read_diagram(xml: &[u8]) -> Result<Model, FormatError> {
    let mut ar = Archive::new();
    ar.add(BLOCKDIAGRAM_PATH, xml.to_vec(), Method::Stored);
    read_slx(&ar.to_bytes(), &frodo_obs::Trace::noop())
}

#[test]
fn truncated_table1_diagrams_are_errors() {
    for (name, xml) in table1_diagrams() {
        // only the trailing newline may go: the root closes just before it.
        // Reading every prefix would scan 1.4 GB, so past the first 2 KiB
        // (which hold every construct the writer emits) one in 41 is read.
        let root_end = xml.trim_ascii_end().len();
        for cut in (0..root_end).filter(|&cut| cut < 2048 || cut % 41 == 0) {
            assert!(
                read_diagram(&xml[..cut]).is_err(),
                "{name}: the first {cut} bytes read as a model"
            );
        }
    }
}

#[test]
fn corrupt_tag_ends_in_table1_diagrams_are_errors() {
    let mut rng = frodo::sim::rng::Rng::seed_from_u64(1);
    for (name, xml) in table1_diagrams() {
        // every '>' ends a tag (the writer escapes it in text and
        // attributes), so any other byte in its place is malformed XML
        let tag_ends: Vec<usize> = (0..xml.len()).filter(|&i| xml[i] == b'>').collect();
        for _ in 0..512 {
            let at = tag_ends[rng.below(tag_ends.len())];
            let byte = rng.below(255) as u8;
            let mut bad = xml.clone();
            bad[at] = if byte >= b'>' { byte + 1 } else { byte };
            assert!(
                read_diagram(&bad).is_err(),
                "{name}: byte {at} set to {:#04x} still reads",
                bad[at]
            );
        }
    }
}
