//! Layer 1: structural model lint over `frodo-model` + `frodo-graph`.
//!
//! The linter flattens the model and then checks, in order: connectivity
//! (unconnected / multiply-driven inputs, dangling outputs), shape
//! consistency and truncation-parameter extents, delay-free cycles, and —
//! when the model is otherwise clean — dead blocks whose calculation range
//! from Algorithm 1 is empty.

use crate::diag::{from_model_error, Diagnostic, Severity};
use frodo_core::Analysis;
use frodo_graph::Dfg;
use frodo_model::{BlockKind, InPort, Model, OutPort, PortTable, SelectorMode, ShapeTable};

/// Lints a model and returns every finding, errors first, in block order
/// within each severity.
pub fn lint(model: &Model) -> Vec<Diagnostic> {
    let flat = match model.flattened(&frodo_obs::Trace::noop()) {
        Ok(f) => f,
        Err(e) => return vec![from_model_error(Some(model), &e)],
    };
    let mut diags = Vec::new();
    let ports = PortTable::new(&flat);
    lint_connectivity(&flat, &ports, &mut diags);
    match flat.infer_shapes_with(&ports) {
        Err(e) => diags.push(from_model_error(Some(&flat), &e)),
        Ok(shapes) => {
            lint_truncation_params(&flat, &shapes, &mut diags);
            if diags.iter().all(|d| d.severity != Severity::Error) {
                lint_semantics(&flat, &shapes, &mut diags);
            }
        }
    }
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// Unconnected inputs (F001), multiply-driven inputs (F002), dangling
/// outputs (F007), from the drivers and consumers the port table counted
/// in one pass over the connections.
fn lint_connectivity(flat: &Model, ports: &PortTable, diags: &mut Vec<Diagnostic>) {
    for (id, block) in flat.iter() {
        for port in 0..block.kind.num_inputs() {
            let p = InPort::new(id, port);
            let driving = ports.drivers(p);
            if driving == 0 {
                diags.push(
                    Diagnostic::new(
                        "F001",
                        format!(
                            "input port {port} of `{}` has no incoming connection",
                            block.name
                        ),
                    )
                    .with_block(&block.name)
                    .with_location(p.to_string())
                    .with_help("connect a source block or remove the consumer"),
                );
            } else if driving > 1 {
                diags.push(
                    Diagnostic::new(
                        "F002",
                        format!(
                            "input port {port} of `{}` is driven by {driving} connections",
                            block.name
                        ),
                    )
                    .with_block(&block.name)
                    .with_location(p.to_string()),
                );
            }
        }
        for port in 0..block.kind.num_outputs() {
            let p = OutPort::new(id, port);
            if ports.consumers(p) == 0 {
                diags.push(
                    Diagnostic::new(
                        "F007",
                        format!("output port {port} of `{}` drives no consumer", block.name),
                    )
                    .with_block(&block.name)
                    .with_location(p.to_string())
                    .with_help("route it to an Outport or a Terminator, or delete the block"),
                );
            }
        }
    }
}

/// Selector / Submatrix / Assignment parameters that index outside their
/// input extents (F004). Shape inference rejects most of these on its
/// first error; this pass reports *all* of them when shapes are available.
fn lint_truncation_params(flat: &Model, shapes: &ShapeTable, diags: &mut Vec<Diagnostic>) {
    for (id, block) in flat.iter() {
        let in_shape = match shapes.try_input(id, 0) {
            Some(s) => s,
            None => continue,
        };
        let n = in_shape.numel();
        let mut bad = |message: String, help: &str| {
            diags.push(
                Diagnostic::new("F004", message)
                    .with_block(&block.name)
                    .with_location(InPort::new(id, 0).to_string())
                    .with_help(help),
            );
        };
        match &block.kind {
            BlockKind::Selector { mode } => match mode {
                SelectorMode::StartEnd { start, end } => {
                    if start >= end {
                        bad(
                            format!("selector range [{start}, {end}) is empty"),
                            "use start < end",
                        );
                    } else if *end > n {
                        bad(
                            format!("selector end {end} exceeds input length {n}"),
                            "shrink the selection to the input extent",
                        );
                    }
                }
                SelectorMode::IndexVector(idx) => {
                    for i in idx.iter().filter(|i| **i >= n) {
                        bad(
                            format!("selector index {i} exceeds input length {n}"),
                            "remove indices past the input extent",
                        );
                    }
                }
                SelectorMode::IndexPort { .. } => {}
            },
            BlockKind::Submatrix {
                row_start,
                row_end,
                col_start,
                col_end,
            } => {
                let (rows, cols) = (in_shape.rows(), in_shape.cols());
                if row_start >= row_end || col_start >= col_end {
                    bad(
                        format!(
                            "submatrix region [{row_start}, {row_end})×[{col_start}, {col_end}) is empty"
                        ),
                        "use start < end on both axes",
                    );
                } else if *row_end > rows || *col_end > cols {
                    bad(
                        format!(
                            "submatrix region [{row_start}, {row_end})×[{col_start}, {col_end}) \
                             exceeds the {rows}×{cols} input"
                        ),
                        "shrink the region to the input extent",
                    );
                }
            }
            BlockKind::Assignment { start } => {
                if let Some(patch) = shapes.try_input(id, 1) {
                    let p = patch.numel();
                    if start + p > n {
                        bad(
                            format!(
                                "assignment writes [{start}, {}) into a length-{n} base",
                                start + p
                            ),
                            "move the start or shrink the replacement signal",
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// Delay-free cycles (F005) via graph construction, then dead blocks with
/// empty calculation ranges (F006) via Algorithm 1. Only reached when the
/// model has no structural errors.
fn lint_semantics(flat: &Model, shapes: &ShapeTable, diags: &mut Vec<Diagnostic>) {
    match Dfg::new(flat.clone(), &frodo_obs::Trace::noop()) {
        Err(e) => {
            diags.push(from_model_error(Some(flat), &e));
            return;
        }
        Ok(dfg) => {
            if let Err(e) = dfg.schedule() {
                diags.push(from_model_error(Some(flat), &e));
                return;
            }
        }
    }
    if let Ok(analysis) = Analysis::run(flat.clone()) {
        let mut dead: Vec<&OutPort> = analysis
            .ranges()
            .iter()
            .filter(|(port, range)| {
                range.is_empty() && shapes.output(port.block, port.port).numel() > 0
            })
            .map(|(port, _)| port)
            .collect();
        dead.sort();
        for port in dead {
            let name = &flat.block(port.block).name;
            diags.push(
                Diagnostic::new(
                    "F006",
                    format!(
                        "block `{name}` output {} is never demanded: its calculation range is empty",
                        port.port
                    ),
                )
                .with_block(name)
                .with_location(port.to_string())
                .with_help("the block is dead code; redundancy elimination removes it entirely"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, Model, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn clean_model() -> Model {
        let mut m = Model::new("clean");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(8),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, o, 0).unwrap();
        m
    }

    #[test]
    fn clean_model_lints_clean() {
        assert!(lint(&clean_model()).is_empty());
    }

    #[test]
    fn dangling_input_is_f001() {
        let mut m = clean_model();
        let a = m.add(Block::new("abs", BlockKind::Abs));
        let t = m.add(Block::new("t", BlockKind::Terminator));
        m.connect(a, 0, t, 0).unwrap();
        let diags = lint(&m);
        assert!(diags
            .iter()
            .any(|d| d.code == "F001" && d.block.as_deref() == Some("abs")));
    }

    #[test]
    fn connectivity_findings_keep_their_order() {
        // in -> a:0 (a's input 1 undriven), in -> b, a -> out; b's output
        // and in2's output drive nothing, and t's input is undriven
        let mut m = Model::new("wiring");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let a = m.add(Block::new("a", BlockKind::Add));
        let b = m.add(Block::new("b", BlockKind::Abs));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.add(Block::new(
            "in2",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Vector(4),
            },
        ));
        m.add(Block::new("t", BlockKind::Terminator));
        m.connect(i, 0, a, 0).unwrap();
        m.connect(i, 0, b, 0).unwrap();
        m.connect(a, 0, o, 0).unwrap();
        let found: Vec<(&str, Option<String>)> = lint(&m)
            .iter()
            .map(|d| (d.code, d.location.clone()))
            .collect();
        let at = |code, port: &str| (code, Some(port.to_string()));
        // errors first, each severity in block order; the second b1:in1 is
        // shape inference stopping at the first undriven input. F002 has no
        // case here: `Model::connect` and both readers refuse a second
        // driver, so no model can carry one.
        assert_eq!(
            found,
            vec![
                at("F001", "b1:in1"),
                at("F001", "b5:in0"),
                at("F001", "b1:in1"),
                at("F007", "b2:out0"),
                at("F007", "b4:out0"),
            ]
        );
    }

    #[test]
    fn dangling_output_is_a_warning() {
        let mut m = clean_model();
        let i2 = m.add(Block::new(
            "in2",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Vector(4),
            },
        ));
        let _ = i2;
        let diags = lint(&m);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "F007");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn oob_selector_is_f004() {
        let mut m = Model::new("oob");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(8),
            },
        ));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 4, end: 20 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        let diags = lint(&m);
        assert!(
            diags.iter().any(|d| d.code == "F004"
                && d.block.as_deref() == Some("sel")
                && d.message.contains("20")),
            "{diags:?}"
        );
    }

    #[test]
    fn delay_free_cycle_is_f005() {
        let mut m = Model::new("loop");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let a = m.add(Block::new("a", BlockKind::Add));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 0.5 }));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, a, 0).unwrap();
        m.connect(g, 0, a, 1).unwrap();
        m.connect(a, 0, g, 0).unwrap();
        m.connect(a, 0, o, 0).unwrap();
        let diags = lint(&m);
        assert!(diags.iter().any(|d| d.code == "F005"), "{diags:?}");
    }

    #[test]
    fn dead_constant_feeding_a_terminator_is_f006() {
        let mut m = clean_model();
        let c = m.add(Block::new(
            "unused",
            BlockKind::Constant {
                value: Tensor::vector(vec![1.0; 4]),
            },
        ));
        let t = m.add(Block::new("t", BlockKind::Terminator));
        m.connect(c, 0, t, 0).unwrap();
        let diags = lint(&m);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "F006" && d.block.as_deref() == Some("unused")),
            "{diags:?}"
        );
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut m = clean_model();
        // a dangling output (warning) ...
        m.add(Block::new(
            "in2",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Vector(4),
            },
        ));
        // ... plus a dangling input (error)
        let a = m.add(Block::new("abs", BlockKind::Abs));
        let t = m.add(Block::new("t", BlockKind::Terminator));
        m.connect(a, 0, t, 0).unwrap();
        let diags = lint(&m);
        assert_eq!(diags.first().map(|d| d.severity), Some(Severity::Error));
        assert_eq!(diags.last().map(|d| d.severity), Some(Severity::Warning));
    }
}
