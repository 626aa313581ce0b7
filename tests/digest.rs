//! The artifact-cache key digests a model by value: every parameter of
//! every block kind splits it (`-0.0` from `0.0` included), equal models
//! share it across clones and format round trips, and the Table-1 suite
//! and a few hundred random models never collide.

use frodo::benchmodels::random::random_model;
use frodo::codegen::CEmitOptions;
use frodo::driver::cache_key;
use frodo::model::LogicOp;
use frodo::prelude::*;
use frodo::slx::fnv::ContentDigest;
use frodo::slx::{read_mdl, read_slx, write_mdl, write_slx};
use std::collections::HashSet;

fn key(model: &Model) -> ContentDigest {
    cache_key(model, GeneratorStyle::Frodo, &CEmitOptions::default())
}

fn flat_key(model: &Model, style: GeneratorStyle) -> ContentDigest {
    let flat = model.flattened(&Trace::noop()).expect("model flattens");
    cache_key(&flat, style, &CEmitOptions::default())
}

/// A one-block model named `m` whose block is `b`.
fn one_block(kind: BlockKind) -> Model {
    let mut m = Model::new("m");
    m.add(Block::new("b", kind));
    m
}

/// `in -> <gain_name> -> out` in a model called `model_name`; with
/// `bypass`, the output reads the input and the gain dangles.
fn chain(model_name: &str, gain_name: &str, gain: f64, bypass: bool) -> Model {
    let mut m = Model::new(model_name);
    let i = m.add(Block::new(
        "in",
        BlockKind::Inport {
            index: 0,
            shape: Shape::Vector(4),
        },
    ));
    let g = m.add(Block::new(gain_name, BlockKind::Gain { gain }));
    let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
    m.connect(i, 0, g, 0).unwrap();
    m.connect(if bypass { i } else { g }, 0, o, 0).unwrap();
    m
}

fn gain_chain(gain: f64) -> Model {
    chain("inner", "g", gain, false)
}

#[test]
fn every_parameter_of_every_block_kind_splits_the_key() {
    use BlockKind as K;
    let v4 = Shape::Vector(4);
    let m22 = Shape::Matrix(2, 2);
    let data = vec![1.0, 2.0, 3.0, 4.0];
    let pairs: Vec<(BlockKind, BlockKind)> = vec![
        (
            K::Inport {
                index: 0,
                shape: v4,
            },
            K::Inport {
                index: 1,
                shape: v4,
            },
        ),
        (
            K::Inport {
                index: 0,
                shape: v4,
            },
            K::Inport {
                index: 0,
                shape: m22,
            },
        ),
        (
            K::Constant {
                value: Tensor::scalar(0.0),
            },
            K::Constant {
                value: Tensor::scalar(-0.0),
            },
        ),
        (
            K::Constant {
                value: Tensor::new(v4, data.clone()),
            },
            K::Constant {
                value: Tensor::new(m22, data.clone()),
            },
        ),
        (
            K::Constant {
                value: Tensor::vector(data.clone()),
            },
            K::Constant {
                value: Tensor::vector(vec![1.0, 2.0, 3.0, 5.0]),
            },
        ),
        (K::Outport { index: 0 }, K::Outport { index: 1 }),
        (K::Gain { gain: 0.0 }, K::Gain { gain: -0.0 }),
        (K::Gain { gain: 2.0 }, K::Gain { gain: 3.0 }),
        (K::Bias { bias: 0.0 }, K::Bias { bias: -0.0 }),
        (
            K::Saturation {
                lower: 0.0,
                upper: 1.0,
            },
            K::Saturation {
                lower: -0.0,
                upper: 1.0,
            },
        ),
        (
            K::Saturation {
                lower: 0.0,
                upper: 1.0,
            },
            K::Saturation {
                lower: 0.0,
                upper: 2.0,
            },
        ),
        (
            K::Rounding {
                mode: RoundMode::Floor,
            },
            K::Rounding {
                mode: RoundMode::Ceil,
            },
        ),
        (
            K::Relational { op: RelOp::Lt },
            K::Relational { op: RelOp::Le },
        ),
        (
            K::Logical { op: LogicOp::And },
            K::Logical { op: LogicOp::Or },
        ),
        (K::Switch { threshold: 0.0 }, K::Switch { threshold: -0.0 }),
        (K::Reshape { shape: v4 }, K::Reshape { shape: m22 }),
        (
            K::Selector {
                mode: SelectorMode::IndexVector(vec![0, 1]),
            },
            K::Selector {
                mode: SelectorMode::StartEnd { start: 0, end: 2 },
            },
        ),
        (
            K::Selector {
                mode: SelectorMode::StartEnd { start: 0, end: 2 },
            },
            K::Selector {
                mode: SelectorMode::StartEnd { start: 1, end: 2 },
            },
        ),
        (
            K::Selector {
                mode: SelectorMode::StartEnd { start: 0, end: 2 },
            },
            K::Selector {
                mode: SelectorMode::StartEnd { start: 0, end: 3 },
            },
        ),
        (
            K::Selector {
                mode: SelectorMode::IndexPort { output_len: 2 },
            },
            K::Selector {
                mode: SelectorMode::IndexPort { output_len: 3 },
            },
        ),
        (
            K::Pad {
                left: 1,
                right: 2,
                value: 0.0,
            },
            K::Pad {
                left: 2,
                right: 1,
                value: 0.0,
            },
        ),
        (
            K::Pad {
                left: 1,
                right: 2,
                value: 0.0,
            },
            K::Pad {
                left: 1,
                right: 2,
                value: -0.0,
            },
        ),
        (
            K::Submatrix {
                row_start: 0,
                row_end: 1,
                col_start: 0,
                col_end: 1,
            },
            K::Submatrix {
                row_start: 0,
                row_end: 1,
                col_start: 0,
                col_end: 2,
            },
        ),
        (
            K::Submatrix {
                row_start: 0,
                row_end: 1,
                col_start: 0,
                col_end: 1,
            },
            K::Submatrix {
                row_start: 1,
                row_end: 1,
                col_start: 0,
                col_end: 1,
            },
        ),
        (K::Assignment { start: 0 }, K::Assignment { start: 1 }),
        (K::Mux { inputs: 2 }, K::Mux { inputs: 3 }),
        (K::Mux { inputs: 2 }, K::Concatenate { inputs: 2 }),
        (K::Concatenate { inputs: 2 }, K::Concatenate { inputs: 3 }),
        (
            K::Demux { sizes: vec![1, 2] },
            K::Demux { sizes: vec![2, 1] },
        ),
        (
            K::FirFilter {
                coeffs: vec![0.5, 0.5],
            },
            K::FirFilter {
                coeffs: vec![0.5, -0.5],
            },
        ),
        (
            K::FirFilter {
                coeffs: vec![0.5, 0.5],
            },
            K::FirFilter {
                coeffs: vec![0.5, 0.5, 0.0],
            },
        ),
        (
            K::MovingAverage { window: 3 },
            K::MovingAverage { window: 4 },
        ),
        (
            K::Downsample {
                factor: 2,
                phase: 0,
            },
            K::Downsample {
                factor: 3,
                phase: 0,
            },
        ),
        (
            K::Downsample {
                factor: 2,
                phase: 0,
            },
            K::Downsample {
                factor: 2,
                phase: 1,
            },
        ),
        (
            K::UnitDelay {
                initial: Tensor::zeros(v4),
            },
            K::UnitDelay {
                initial: Tensor::fill(v4, -0.0),
            },
        ),
        (
            K::Subsystem(Box::new(gain_chain(2.0))),
            K::Subsystem(Box::new(gain_chain(-2.0))),
        ),
    ];
    for (a, b) in &pairs {
        assert_ne!(
            key(&one_block(a.clone())),
            key(&one_block(b.clone())),
            "{a:?} and {b:?} share a key"
        );
    }

    // names and wiring
    let base = gain_chain(2.0);
    for other in [
        chain("inner", "h", 2.0, false),
        chain("other", "g", 2.0, false),
        chain("inner", "g", 2.0, true),
    ] {
        assert_ne!(key(&base), key(&other), "{other:?}");
    }
}

#[test]
fn equal_models_share_a_key_across_clones_and_format_round_trips() {
    let mut models: Vec<Model> = frodo::benchmodels::all()
        .into_iter()
        .map(|b| b.model)
        .collect();
    models.extend([1, 2, 3].map(|seed| random_model(seed, 60)));
    for model in &models {
        let name = model.name();
        assert_eq!(key(model), key(&model.clone()), "{name}: clone");
        let slx = read_slx(&write_slx(model).unwrap(), &Trace::noop()).unwrap();
        let mdl = read_mdl(&write_mdl(model), &Trace::noop()).unwrap();
        for (format, back) in [("slx", &slx), ("mdl", &mdl)] {
            assert_eq!(key(model), key(back), "{name}: {format} round trip");
            assert_eq!(
                flat_key(model, GeneratorStyle::Frodo),
                flat_key(back, GeneratorStyle::Frodo),
                "{name}: flattened {format} round trip"
            );
        }
    }
}

#[test]
fn suite_styles_and_random_models_share_no_key() {
    let mut keys = HashSet::new();
    for bench in frodo::benchmodels::all() {
        for style in GeneratorStyle::ALL {
            assert!(
                keys.insert(flat_key(&bench.model, style)),
                "{} [{}] collides",
                bench.name,
                style.label()
            );
        }
    }
    for seed in 0..200 {
        assert!(
            keys.insert(flat_key(&random_model(seed, 30), GeneratorStyle::Frodo)),
            "random_model({seed}, 30) collides"
        );
    }
    assert_eq!(keys.len(), 240);
}
