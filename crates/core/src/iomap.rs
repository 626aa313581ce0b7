//! I/O mapping derivation over a whole dataflow graph.

use frodo_graph::Dfg;
use frodo_model::{proplib, BlockId};
use frodo_ranges::PortMap;

/// The derived I/O mapping of every block in a graph: for block `b`,
/// `maps[b][out_port][in_port]` converts a request on `out_port` into the
/// elements required from `in_port`.
///
/// This realizes the paper's *I/O mapping derivation* step: the block
/// property library is instantiated with each block's concrete parameters
/// and resolved port shapes, extending the single-element relationship "to
/// include each output element" (paper §3.1, Figure 3).
#[derive(Debug, Clone)]
pub struct IoMappings {
    maps: Vec<Vec<Vec<PortMap>>>,
}

impl IoMappings {
    /// Derives the mappings of every block in the graph.
    pub fn derive(dfg: &Dfg) -> Self {
        let shapes = dfg.shapes();
        let maps = dfg
            .model()
            .iter()
            .map(|(id, block)| {
                let n_in = block.kind.num_inputs();
                let n_out = block.kind.num_outputs();
                let in_shapes = shapes.inputs_of(id, n_in);
                let out_shapes = shapes.outputs_of(id, n_out);
                proplib::io_maps_of(block, &in_shapes, &out_shapes)
            })
            .collect();
        IoMappings { maps }
    }

    /// The mapping of `(block, out_port) → in_port`.
    ///
    /// # Panics
    ///
    /// Panics if the ports exceed the block's arity.
    pub fn map(&self, block: BlockId, out_port: usize, in_port: usize) -> &PortMap {
        &self.maps[block.index()][out_port][in_port]
    }

    /// All mappings of one block, indexed `[out_port][in_port]`.
    pub fn of(&self, block: BlockId) -> &[Vec<PortMap>] {
        &self.maps[block.index()]
    }

    /// Whether *every* path through this block propagates range information
    /// (no `All`/`Dynamic` mapping) — i.e. range reductions downstream of the
    /// block can reach its producers.
    pub fn is_range_transparent(&self, block: BlockId) -> bool {
        self.maps[block.index()]
            .iter()
            .flatten()
            .all(PortMap::is_range_transparent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, BlockKind, Model, SelectorMode};
    use frodo_ranges::{IndexSet, Shape};

    fn selector_graph() -> (Dfg, BlockId, BlockId) {
        let mut m = Model::new("sel");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(60),
            },
        ));
        let s = m.add(Block::new(
            "s",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 5, end: 55 },
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let (s, o) = (
            dfg.model().find("s").unwrap(),
            dfg.model().find("o").unwrap(),
        );
        (dfg, s, o)
    }

    #[test]
    fn derive_produces_parameterized_maps() {
        let (dfg, s, _) = selector_graph();
        let maps = IoMappings::derive(&dfg);
        let m = maps.map(s, 0, 0);
        assert_eq!(m.apply(&IndexSet::point(0)), IndexSet::point(5));
    }

    #[test]
    fn transparency_classification() {
        let (dfg, s, _) = selector_graph();
        let maps = IoMappings::derive(&dfg);
        assert!(maps.is_range_transparent(s));

        // A reduction is not transparent.
        let mut m = Model::new("red");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(8),
            },
        ));
        let r = m.add(Block::new("r", BlockKind::SumOfElements));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, r, 0).unwrap();
        m.connect(r, 0, o, 0).unwrap();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let maps = IoMappings::derive(&dfg);
        let r = dfg.model().find("r").unwrap();
        assert!(!maps.is_range_transparent(r));
    }
}
