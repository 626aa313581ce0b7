//! The analyzed dataflow graph.

use crate::{analysis_levels, toposort};
use frodo_model::{BlockId, BlockKind, InPort, Model, ModelError, OutPort, PortTable, ShapeTable};

/// A flattened model together with its inferred shapes and port tables
/// — the artifact FRODO's *model analysis* stage hands to
/// redundancy elimination and code synthesis.
///
/// Construction flattens subsystems, validates connectivity, and runs shape
/// inference; a `Dfg` is therefore always well-formed. Port queries are
/// answered from dense tables built once, in time linear in the model.
#[derive(Debug, Clone)]
pub struct Dfg {
    model: Model,
    shapes: ShapeTable,
    /// The driver of every input port and the dense numbering of the
    /// output ports ([`Dfg::out_port_index`]).
    ports: PortTable,
    /// Consumer input ports of every output port, in connection order:
    /// those of output port `o` (dense index) are
    /// `consumers[consumer_starts[o]..consumer_starts[o + 1]]` — the
    /// reverse adjacency that makes [`Dfg::consumers_of`] an O(1) lookup
    /// instead of a connection scan.
    consumer_starts: Vec<usize>,
    consumers: Vec<InPort>,
}

impl Dfg {
    /// Analyzes a model: flatten, validate, infer shapes, build adjacency.
    /// Recorded on the given trace: a `flatten` span for subsystem
    /// flattening (a model without subsystems is moved through, not
    /// copied) and a `dfg` span with block/connection counters for graph
    /// construction proper. Inside `dfg`, a `validate` child span covers
    /// the port tables (one pass over the connections) and the structural
    /// checks of [`Model::validate_structure`]; a `shape_infer` child span
    /// covers the one shape-inference pass, whose table the graph keeps.
    /// Pass `&Trace::noop()` when no instrumentation is wanted.
    ///
    /// # Errors
    ///
    /// Propagates any [`ModelError`] from flattening, validation, or shape
    /// inference, in that order: the error [`Model::validate`] reports for
    /// the flattened model.
    pub fn new(model: Model, trace: &frodo_obs::Trace) -> Result<Self, ModelError> {
        let flat = model.into_flattened(trace)?;
        let span = trace.span("dfg");
        let inner = span.trace();
        let ports = {
            let _v = inner.span("validate");
            let ports = PortTable::new(&flat);
            flat.validate_structure(&ports)?;
            ports
        };
        let shapes = {
            let _s = inner.span("shape_infer");
            flat.infer_shapes_with(&ports)?
        };
        // counting sort of the connections by source port
        let out_index = |c: &frodo_model::Connection| {
            ports
                .output_index(c.from)
                .expect("validated connections leave existing ports")
        };
        let mut consumer_starts = vec![0usize; ports.num_outputs() + 1];
        for c in flat.connections() {
            consumer_starts[out_index(c) + 1] += 1;
        }
        for o in 0..ports.num_outputs() {
            consumer_starts[o + 1] += consumer_starts[o];
        }
        let mut fill = consumer_starts.clone();
        let mut consumers = vec![InPort::new(BlockId::from_index(0), 0); flat.connections().len()];
        for c in flat.connections() {
            let slot = &mut fill[out_index(c)];
            consumers[*slot] = c.to;
            *slot += 1;
        }
        span.count("blocks", flat.len() as u64);
        span.count("connections", flat.connections().len() as u64);
        Ok(Dfg {
            model: flat,
            shapes,
            ports,
            consumer_starts,
            consumers,
        })
    }

    /// The flattened model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Inferred shapes of every port.
    pub fn shapes(&self) -> &ShapeTable {
        &self.shapes
    }

    /// The 0-in-degree *root blocks* of the paper's Algorithm 1 — the blocks
    /// that "provide the source data for all calculations" — in id order.
    /// Validation connects every input port, so these are exactly the
    /// blocks whose kind takes no input.
    pub fn roots(&self) -> Vec<BlockId> {
        self.model
            .iter()
            .filter(|(_, b)| b.kind.num_inputs() == 0)
            .map(|(id, _)| id)
            .collect()
    }

    /// The 0-out-degree blocks (sinks): no output port has a consumer.
    pub fn sinks(&self) -> Vec<BlockId> {
        self.model
            .iter()
            .filter(|(id, b)| {
                (0..b.kind.num_outputs())
                    .all(|o| self.consumers_of(OutPort::new(*id, o)).is_empty())
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// The translation sequence: a topological order of the blocks, with
    /// `UnitDelay` outputs treated as step-boundary state reads so feedback
    /// loops through delays schedule correctly.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::AlgebraicLoop`] if a delay-free cycle remains.
    pub fn schedule(&self) -> Result<Vec<BlockId>, ModelError> {
        toposort(&self.model)
    }

    /// The producer feeding an input port (always present in a valid `Dfg`).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist — validation guarantees every real
    /// input port is connected.
    pub fn source_of(&self, port: InPort) -> OutPort {
        self.ports
            .source(port)
            .expect("validated models have fully connected inputs")
    }

    /// All consumer input ports of an output port — a precomputed O(1)
    /// lookup (connection order, like `Model::consumers_of`).
    pub fn consumers_of(&self, port: OutPort) -> &[InPort] {
        let o = self.out_port_index(port);
        &self.consumers[self.consumer_starts[o]..self.consumer_starts[o + 1]]
    }

    /// Dense index of an output port in `[0, num_out_ports())`: ports are
    /// numbered block by block in id order. Used to key flat per-port
    /// tables (e.g. the consumer adjacency).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn out_port_index(&self, port: OutPort) -> usize {
        self.ports
            .output_index(port)
            .unwrap_or_else(|| panic!("output port {port} does not exist"))
    }

    /// Total number of output ports in the graph.
    pub fn num_out_ports(&self) -> usize {
        self.ports.num_outputs()
    }

    /// The blocks grouped into the reverse levels of Algorithm 1's
    /// dependency structure (see [`analysis_levels`]): a block's
    /// calculation range only reads ranges finalized in earlier levels.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::AlgebraicLoop`] if the dependency graph is
    /// cyclic (implies a delay-free model cycle).
    pub fn analysis_levels(&self) -> Result<Vec<Vec<BlockId>>, ModelError> {
        analysis_levels(&self.model)
    }

    /// Number of data-truncation blocks in the graph (diagnostic used by the
    /// evaluation to characterize models).
    pub fn truncation_count(&self) -> usize {
        self.model
            .blocks()
            .iter()
            .filter(|b| b.kind.is_truncation())
            .count()
    }

    /// Blocks in the graph, convenience passthrough.
    pub fn ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.model.ids()
    }

    /// Whether the given block is stateful (`UnitDelay`).
    pub fn is_stateful(&self, id: BlockId) -> bool {
        matches!(self.model.block(id).kind, BlockKind::UnitDelay { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, Tensor};
    use frodo_ranges::Shape;

    fn diamond() -> (Model, [BlockId; 5]) {
        // i -> g1 -> add -> o
        //   \-> g2 --^
        let mut m = Model::new("diamond");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let g1 = m.add(Block::new("g1", BlockKind::Gain { gain: 2.0 }));
        let g2 = m.add(Block::new("g2", BlockKind::Gain { gain: 3.0 }));
        let add = m.add(Block::new("add", BlockKind::Add));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g1, 0).unwrap();
        m.connect(i, 0, g2, 0).unwrap();
        m.connect(g1, 0, add, 0).unwrap();
        m.connect(g2, 0, add, 1).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        (m, [i, g1, g2, add, o])
    }

    #[test]
    fn roots_and_sinks_of_diamond() {
        let (m, [i, _, _, _, o]) = diamond();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(dfg.roots(), vec![i]);
        assert_eq!(dfg.sinks(), vec![o]);
    }

    #[test]
    fn port_consumers_match_model_scan() {
        let (m, ids) = diamond();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        for id in ids {
            for o in 0..dfg.model().block(id).kind.num_outputs() {
                let port = OutPort::new(id, o);
                assert_eq!(
                    dfg.consumers_of(port),
                    dfg.model().consumers_of(port).as_slice(),
                    "port {id:?}:{o}"
                );
            }
        }
    }

    #[test]
    fn out_port_indices_are_dense_and_distinct() {
        let (m, ids) = diamond();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let mut seen = vec![false; dfg.num_out_ports()];
        for id in ids {
            for o in 0..dfg.model().block(id).kind.num_outputs() {
                let idx = dfg.out_port_index(OutPort::new(id, o));
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dfg_analysis_levels_partition_the_blocks() {
        let (m, _) = diamond();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(
            dfg.analysis_levels()
                .unwrap()
                .iter()
                .map(Vec::len)
                .sum::<usize>(),
            dfg.model().len()
        );
    }

    #[test]
    fn schedule_respects_dependencies() {
        let (m, ids) = diamond();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let order = dfg.schedule().unwrap();
        let pos = |b: BlockId| order.iter().position(|&x| x == b).unwrap();
        assert!(pos(ids[0]) < pos(ids[1]));
        assert!(pos(ids[1]) < pos(ids[3]));
        assert!(pos(ids[2]) < pos(ids[3]));
        assert!(pos(ids[3]) < pos(ids[4]));
    }

    #[test]
    fn truncation_count_spots_selectors() {
        let mut m = Model::new("t");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(10),
            },
        ));
        let s = m.add(Block::new(
            "s",
            BlockKind::Selector {
                mode: frodo_model::SelectorMode::StartEnd { start: 0, end: 5 },
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(dfg.truncation_count(), 1);
    }

    #[test]
    fn dfg_flattens_subsystems() {
        let mut inner = Model::new("inner");
        let i = inner.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let g = inner.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let o = inner.add(Block::new("o", BlockKind::Outport { index: 0 }));
        inner.connect(i, 0, g, 0).unwrap();
        inner.connect(g, 0, o, 0).unwrap();

        let mut m = Model::new("outer");
        let x = m.add(Block::new(
            "x",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let s = m.add(Block::new("s", BlockKind::Subsystem(Box::new(inner))));
        let y = m.add(Block::new("y", BlockKind::Outport { index: 0 }));
        m.connect(x, 0, s, 0).unwrap();
        m.connect(s, 0, y, 0).unwrap();

        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        assert!(dfg
            .model()
            .blocks()
            .iter()
            .all(|b| !matches!(b.kind, BlockKind::Subsystem(_))));
        assert_eq!(dfg.model().len(), 3);
    }

    #[test]
    fn sink_classification() {
        let mut m = Model::new("cls");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 1.0 }));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        let dangling = m.add(Block::new("dangling", BlockKind::Abs));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, o, 0).unwrap();
        m.connect(i, 0, dangling, 0).unwrap();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        // the outport and the dangling Abs feed nothing; the gain does
        assert_eq!(dfg.sinks(), [o, dangling]);
    }

    #[test]
    fn stateful_classification_after_flattening() {
        let mut m = Model::new("st");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let z = m.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::scalar(0.0),
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, z, 0).unwrap();
        m.connect(z, 0, o, 0).unwrap();
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        assert!(dfg.is_stateful(z));
        assert!(!dfg.is_stateful(i));
    }

    #[test]
    fn invalid_model_is_rejected() {
        let mut m = Model::new("bad");
        m.add(Block::new("g", BlockKind::Gain { gain: 1.0 }));
        assert!(Dfg::new(m, &frodo_obs::Trace::noop()).is_err());
    }
}
