//! The dataflow graph answers port queries from dense tables built once
//! (`frodo_model::PortTable`). These tests hold those tables to the
//! connection-list scans they replaced — `Model::source_of` and
//! `Model::consumers_of` stay as the oracle — and pin that graph
//! construction reports the same first error as `Model::validate`.

use frodo::benchmodels::{self, random::random_model};
use frodo::model::{BlockId, InPort, OutPort};
use frodo::prelude::*;
use frodo::slx::{read_mdl, FormatError};

/// Asserts that every input and output port of `dfg` gets the same answer
/// from the graph's tables as from a scan of its model's connections.
fn assert_tables_match_scans(name: &str, dfg: &Dfg) {
    let model = dfg.model();
    for (id, block) in model.iter() {
        for p in 0..block.kind.num_inputs() {
            let port = InPort::new(id, p);
            assert_eq!(
                Some(dfg.source_of(port)),
                model.source_of(port),
                "{name}: {port}"
            );
        }
        for p in 0..block.kind.num_outputs() {
            let port = OutPort::new(id, p);
            assert_eq!(
                dfg.consumers_of(port),
                model.consumers_of(port).as_slice(),
                "{name}: {port}"
            );
        }
    }
}

/// `in -> sub(in -> mid(in -> gain -> out) -> abs -> out) -> out`, plus a
/// constant feeding the outer subsystem's second input.
fn nested() -> Model {
    let inport = |name: &str, index| {
        Block::new(
            name,
            BlockKind::Inport {
                index,
                shape: Shape::Vector(4),
            },
        )
    };
    let mut deep = Model::new("deep");
    let i = deep.add(inport("i", 0));
    let g = deep.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
    let o = deep.add(Block::new("o", BlockKind::Outport { index: 0 }));
    deep.connect(i, 0, g, 0).unwrap();
    deep.connect(g, 0, o, 0).unwrap();

    let mut mid = Model::new("mid");
    let i = mid.add(inport("i", 0));
    let k = mid.add(inport("k", 1));
    let s = mid.add(Block::new("deep", BlockKind::Subsystem(Box::new(deep))));
    let add = mid.add(Block::new("add", BlockKind::Add));
    let abs = mid.add(Block::new("abs", BlockKind::Abs));
    let o = mid.add(Block::new("o", BlockKind::Outport { index: 0 }));
    mid.connect(i, 0, s, 0).unwrap();
    mid.connect(s, 0, add, 0).unwrap();
    mid.connect(k, 0, add, 1).unwrap();
    mid.connect(add, 0, abs, 0).unwrap();
    mid.connect(abs, 0, o, 0).unwrap();

    let mut m = Model::new("nested");
    let i = m.add(inport("in", 0));
    let c = m.add(Block::new(
        "c",
        BlockKind::Constant {
            value: Tensor::vector(vec![1.0; 4]),
        },
    ));
    let s = m.add(Block::new("sub", BlockKind::Subsystem(Box::new(mid))));
    let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
    let t = m.add(Block::new("t", BlockKind::Terminator));
    m.connect(i, 0, s, 0).unwrap();
    m.connect(c, 0, s, 1).unwrap();
    m.connect(s, 0, o, 0).unwrap();
    m.connect(c, 0, t, 0).unwrap();
    m
}

#[test]
fn graph_port_tables_agree_with_connection_scans() {
    for bench in benchmodels::all() {
        let dfg = Dfg::new(bench.model, &Trace::noop()).unwrap();
        assert_tables_match_scans(bench.name, &dfg);
    }
    for (seed, size) in [(1, 40), (2, 150), (3, 400), (7, 2000)] {
        let dfg = Dfg::new(random_model(seed, size), &Trace::noop()).unwrap();
        assert_tables_match_scans(&format!("random:{seed}:{size}"), &dfg);
    }
    let dfg = Dfg::new(nested(), &Trace::noop()).unwrap();
    assert!(dfg.model().find("sub/deep/g").is_some());
    assert_tables_match_scans("nested", &dfg);
}

#[test]
fn graph_construction_keeps_the_flatten_and_validate_spans() {
    let trace = Trace::new();
    let dfg = Dfg::new(nested(), &trace).unwrap();
    assert_eq!(
        trace.counter_total("blocks_flattened"),
        dfg.model().len() as u64
    );
    let names: Vec<String> = trace
        .snapshot()
        .spans
        .iter()
        .map(|s| s.name.clone())
        .collect();
    for stage in ["flatten", "dfg", "validate", "shape_infer"] {
        assert_eq!(
            names.iter().filter(|n| *n == stage).count(),
            1,
            "{stage} in {names:?}"
        );
    }
}

fn id(i: usize) -> BlockId {
    BlockId::from_index(i)
}

fn gain() -> Block {
    Block::new("g", BlockKind::Gain { gain: 2.0 })
}

fn inport(index: usize) -> Block {
    Block::new(
        format!("in{index}"),
        BlockKind::Inport {
            index,
            shape: Shape::Vector(3),
        },
    )
}

fn outport(index: usize) -> Block {
    Block::new(format!("out{index}"), BlockKind::Outport { index })
}

/// Graph construction and `Model::validate` must report `expected`.
fn assert_both_report(name: &str, model: Model, expected: ModelError) {
    assert_eq!(model.validate(), Err(expected.clone()), "{name}: validate");
    assert_eq!(
        Dfg::new(model, &Trace::noop()).map(|_| ()),
        Err(expected),
        "{name}: Dfg::new"
    );
}

#[test]
fn graph_construction_reports_the_error_validate_reports() {
    // an unconnected input: the gain's
    let mut m = Model::new("unconnected");
    m.add(inport(0));
    let g = m.add(gain());
    let o = m.add(outport(0));
    m.connect(g, 0, o, 0).unwrap();
    assert_both_report(
        "unconnected",
        m,
        ModelError::UnconnectedInput(InPort::new(id(1), 0)),
    );

    // gapped Inport indices: 0 and 2
    let mut m = Model::new("gapped");
    let a = m.add(inport(0));
    let b = m.add(inport(2));
    let add = m.add(Block::new("add", BlockKind::Add));
    let o = m.add(outport(0));
    m.connect(a, 0, add, 0).unwrap();
    m.connect(b, 0, add, 1).unwrap();
    m.connect(add, 0, o, 0).unwrap();
    assert_both_report(
        "gapped",
        m,
        ModelError::BadParameter {
            block: id(1),
            reason: "Inport indices not contiguous: expected 1, found 2".into(),
        },
    );

    // a subsystem of arity two used with one input wired: the subsystem
    // and the Add it inlines to are both b1, so the flattened and the
    // nested model name the same port
    let mut inner = Model::new("pair");
    let i0 = inner.add(inport(0));
    let i1 = inner.add(inport(1));
    let add = inner.add(Block::new("add", BlockKind::Add));
    let o = inner.add(outport(0));
    inner.connect(i0, 0, add, 0).unwrap();
    inner.connect(i1, 0, add, 1).unwrap();
    inner.connect(add, 0, o, 0).unwrap();
    let mut m = Model::new("arity");
    let c = m.add(Block::new(
        "c",
        BlockKind::Constant {
            value: Tensor::vector(vec![1.0; 3]),
        },
    ));
    let s = m.add(Block::new("pair", BlockKind::Subsystem(Box::new(inner))));
    let o = m.add(outport(0));
    m.connect(c, 0, s, 0).unwrap();
    m.connect(s, 0, o, 0).unwrap();
    assert_both_report(
        "arity",
        m,
        ModelError::UnconnectedInput(InPort::new(id(1), 1)),
    );

    // a shape mismatch: 3 + 4 elements
    let mut m = Model::new("shapes");
    let a = m.add(inport(0));
    let k = m.add(Block::new(
        "k",
        BlockKind::Constant {
            value: Tensor::vector(vec![1.0; 4]),
        },
    ));
    let add = m.add(Block::new("add", BlockKind::Add));
    let o = m.add(outport(0));
    m.connect(a, 0, add, 0).unwrap();
    m.connect(k, 0, add, 1).unwrap();
    m.connect(add, 0, o, 0).unwrap();
    assert_both_report(
        "shapes",
        m,
        ModelError::ShapeMismatch {
            block: id(2),
            reason: "incompatible operand shapes [3] and [4]".into(),
        },
    );

    // a delay-free cycle: add -> gain -> add
    let mut m = Model::new("cycle");
    let i = m.add(inport(0));
    let add = m.add(Block::new("add", BlockKind::Add));
    let g = m.add(gain());
    let o = m.add(outport(0));
    m.connect(i, 0, add, 0).unwrap();
    m.connect(g, 0, add, 1).unwrap();
    m.connect(add, 0, g, 0).unwrap();
    m.connect(add, 0, o, 0).unwrap();
    assert_both_report(
        "cycle",
        m,
        ModelError::AlgebraicLoop {
            cycle: vec![id(1), id(2), id(3)],
        },
    );
}

/// No `Model` can carry a doubly driven input: `Model::connect` and both
/// readers refuse the second line into a port, naming the first such line,
/// so neither `validate` nor graph construction ever sees one.
#[test]
fn a_doubly_driven_input_read_from_mdl_is_refused_at_its_line() {
    let text = "Model {\n  Name \"m\"\n  System {\n    Block {\n      BlockType constant\n      Name \"c\"\n      SID 0\n      Shape scalar\n      Value [1.0]\n    }\n    Block {\n      BlockType add\n      Name \"add\"\n      SID 1\n    }\n    Line {\n      Src \"0#out:0\"\n      Dst \"1#in:1\"\n    }\n    Line {\n      Src \"0#out:0\"\n      Dst \"1#in:1\"\n    }\n    Line {\n      Src \"0#out:0\"\n      Dst \"1#in:0\"\n    }\n  }\n}\n";
    assert_eq!(
        read_mdl(text, &Trace::noop()),
        Err(FormatError::from(ModelError::DuplicateInput(InPort::new(
            id(1),
            1
        ))))
    );
}
