//! Integration tests of incremental recompilation (`CompileSession`):
//! an edit followed by a warm recompile must stitch C that is
//! byte-identical to a cold compile of the edited model, across the whole
//! Table-1 suite, and demand changes must
//! propagate past regions whose content did not change.

use frodo::codegen::GeneratorStyle;
use frodo::driver::CompileSession;
use frodo::prelude::*;

/// Cold-compiles `model` with caching off — the byte-identity reference.
fn cold_reference(name: &str, model: Model, style: GeneratorStyle) -> String {
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        no_cache: true,
        ..ServiceConfig::default()
    });
    service
        .compile(JobSpec::from_model(name, model, style))
        .expect("cold reference compiles")
        .code
}

/// Perturbs the first Gain (else the first Constant) of a flattened model,
/// mirroring the `random:<seed>:<size>:edit:<k>` spec's edit. Returns
/// `false` when the model has nothing editable.
fn edit_one_block(m: &mut Model) -> bool {
    let ids: Vec<_> = m.ids().collect();
    for &id in &ids {
        if let BlockKind::Gain { gain } = &mut m.block_mut(id).kind {
            *gain = *gain * 1.5 + 0.25;
            return true;
        }
    }
    for &id in &ids {
        if let BlockKind::Constant { value } = &mut m.block_mut(id).kind {
            for v in value.data_mut() {
                *v = *v * 1.5 + 0.25;
            }
            return true;
        }
    }
    false
}

#[test]
fn edit_then_recompile_is_byte_identical_to_cold_across_suite_and_engines() {
    for bench in frodo::benchmodels::all() {
        let flat = bench
            .model
            .flattened(&Trace::noop())
            .expect("suite flattens");
        let mut edited = flat.clone();
        let changed = edit_one_block(&mut edited);

        let mut session = CompileSession::builder(GeneratorStyle::Frodo)
            .region_max(8)
            .build();
        session
            .compile(bench.name, flat, &Trace::noop())
            .expect("cold session compile succeeds");
        let warm = session
            .compile(bench.name, edited.clone(), &Trace::noop())
            .expect("warm session compile succeeds");

        let reference = cold_reference(bench.name, edited, GeneratorStyle::Frodo);
        assert_eq!(
            warm.code, reference,
            "{}: incremental recompile differs from cold",
            bench.name
        );

        let stats = session.stats();
        assert_eq!(stats.compiles, 2);
        assert!(
            stats.last_region_total > 0,
            "{}: model must partition into regions",
            bench.name
        );
        if changed && stats.last_region_total > 1 {
            assert!(
                stats.last_dirty_blocks > 0,
                "{}: an edit must dirty at least one block",
                bench.name
            );
        }
    }
}

#[test]
fn demand_changes_propagate_past_unchanged_regions_end_to_end() {
    // in -> g0..g4 -> sel -> out. With region_max(1) every block is its
    // own region; narrowing the selector changes only the selector's
    // content, yet every upstream gain's demanded range shrinks. The warm
    // recompile must not replay stale fragments for those regions.
    let chain = |end: usize| {
        let mut m = Model::new("demand");
        let mut prev = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(32),
            },
        ));
        for k in 0..5 {
            let g = m.add(Block::new(format!("g{k}"), BlockKind::Gain { gain: 2.0 }));
            m.connect(prev, 0, g, 0).unwrap();
            prev = g;
        }
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 0, end },
            },
        ));
        m.connect(prev, 0, s, 0).unwrap();
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(s, 0, o, 0).unwrap();
        m
    };

    let mut session = CompileSession::builder(GeneratorStyle::Frodo)
        .region_max(1)
        .build();
    session
        .compile("demand", chain(20), &Trace::noop())
        .expect("cold compile succeeds");
    let warm = session
        .compile("demand", chain(8), &Trace::noop())
        .expect("warm compile succeeds");

    let reference = cold_reference("demand", chain(8), GeneratorStyle::Frodo);
    assert_eq!(
        warm.code, reference,
        "narrowed selector must recompile to the cold result"
    );

    let stats = session.stats();
    assert!(
        stats.last_region_total > 5,
        "one block per region expected, got {}",
        stats.last_region_total
    );
    assert!(
        stats.last_dirty_blocks > 1,
        "the selector edit must drag its demand-dependent upstream \
         regions into the dirty cone, got {} dirty blocks",
        stats.last_dirty_blocks
    );
    // the narrowed window must show up in the generated C: a cold compile
    // of the wide chain differs from the warm result
    let wide = cold_reference("demand", chain(20), GeneratorStyle::Frodo);
    assert_ne!(warm.code, wide, "demand change must reach the emitted C");
}
