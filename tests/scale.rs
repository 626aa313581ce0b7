//! Scalability smoke tests: the pipeline must handle models far larger than
//! the 165-block Table-1 maximum without blowing up.

use frodo::benchmodels::random::random_model;
use frodo::prelude::*;
use std::time::Instant;

#[test]
fn thousand_block_random_model_flows_through_the_pipeline() {
    let model = random_model(4242, 900);
    assert!(
        model.len() > 900,
        "generator produced {} blocks",
        model.len()
    );
    let t0 = Instant::now();
    let analysis = Analysis::run(model).expect("large model analyzes");
    let program = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
    let c = emit_c(&program);
    eprintln!(
        "1k-block pipeline: {} stmts, {} bytes of C, {:?}",
        program.stmts.len(),
        c.len(),
        t0.elapsed()
    );
    // sanity, not a timing assertion (CI variance): it must simply finish
    // and produce a runnable program
    let inputs = frodo::sim::workload::random_input_vecs(analysis.dfg(), 1);
    let out = Vm::new(&program).step(&program, &inputs);
    assert!(!out.is_empty());
    assert!(out.iter().flatten().all(|v| v.is_finite()));
}

#[test]
fn deep_chain_does_not_overflow_the_recursive_engine() {
    // a 3000-deep elementwise chain stresses Algorithm 1's recursion
    let depth = 3000;
    let mut m = Model::new("deep");
    let mut prev = m.add(Block::new(
        "in",
        BlockKind::Inport {
            index: 0,
            shape: Shape::Vector(8),
        },
    ));
    for i in 0..depth {
        let b = m.add(Block::new(format!("g{i}"), BlockKind::Bias { bias: 0.001 }));
        m.connect(prev, 0, b, 0).unwrap();
        prev = b;
    }
    let sel = m.add(Block::new(
        "sel",
        BlockKind::Selector {
            mode: SelectorMode::StartEnd { start: 2, end: 6 },
        },
    ));
    let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
    m.connect(prev, 0, sel, 0).unwrap();
    m.connect(sel, 0, o, 0).unwrap();

    let analysis = Analysis::run(m).expect("deep chain analyzes");
    // the selector's [2, 6) propagates all the way to the input
    let inp = analysis.dfg().model().find("in").unwrap();
    assert_eq!(analysis.range(inp, 0), &IndexSet::from_range(2, 6));
}
