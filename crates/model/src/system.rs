//! The [`Model`] container: blocks + port-accurate connections.

use crate::ports::PortIndex;
use crate::{Block, BlockId, BlockKind, InPort, ModelError, OutPort, PortTable};
use frodo_ranges::Shape;
use std::fmt;

/// A directed, port-accurate connection between two blocks.
///
/// The paper stresses that "different ports can have distinct functionalities
/// and mismatched ports can result in incorrect code" — connections therefore
/// always carry both endpoint port indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Connection {
    /// Source (producing) endpoint.
    pub from: OutPort,
    /// Destination (consuming) endpoint.
    pub to: InPort,
}

/// A Simulink model: named blocks and the connections between them.
///
/// See the [crate-level example](crate) for typical construction. Models are
/// hierarchical via [`BlockKind::Subsystem`] and can be flattened with
/// [`Model::flattened`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Model {
    name: String,
    blocks: Vec<Block>,
    connections: Vec<Connection>,
}

impl Model {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            blocks: Vec::new(),
            connections: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a block, returning its handle.
    pub fn add(&mut self, block: Block) -> BlockId {
        let id = BlockId(self.blocks.len());
        self.blocks.push(block);
        id
    }

    /// Connects output `src_port` of `src` to input `dst_port` of `dst`.
    ///
    /// # Errors
    ///
    /// Returns an error if either block or port does not exist, or if the
    /// destination port already has an incoming connection.
    pub fn connect(
        &mut self,
        src: BlockId,
        src_port: usize,
        dst: BlockId,
        dst_port: usize,
    ) -> Result<(), ModelError> {
        let (from, to) = self.endpoints(src, src_port, dst, dst_port)?;
        if self.connections.iter().any(|c| c.to == to) {
            return Err(ModelError::DuplicateInput(to));
        }
        self.connections.push(Connection { from, to });
        Ok(())
    }

    /// A bulk connector for model readers: its
    /// [`connect`](Connector::connect) checks each connection exactly like
    /// [`Model::connect`], but finds a second driver of an input port in a
    /// dense per-port table instead of scanning every connection.
    pub fn connector(&mut self) -> Connector<'_> {
        let index = PortIndex::new(self);
        let mut driven = vec![false; index.num_inputs()];
        for c in &self.connections {
            if let Some(i) = index.input(c.to.block, c.to.port) {
                driven[i] = true;
            }
        }
        Connector {
            model: self,
            index,
            driven,
        }
    }

    /// Checks both endpoints of a prospective connection, source first.
    fn endpoints(
        &self,
        src: BlockId,
        src_port: usize,
        dst: BlockId,
        dst_port: usize,
    ) -> Result<(OutPort, InPort), ModelError> {
        let from = OutPort::new(src, src_port);
        let to = InPort::new(dst, dst_port);
        let src_block = self
            .blocks
            .get(src.0)
            .ok_or(ModelError::UnknownBlock(src))?;
        if src_port >= src_block.kind.num_outputs() {
            return Err(ModelError::BadOutPort {
                port: from,
                available: src_block.kind.num_outputs(),
            });
        }
        let dst_block = self
            .blocks
            .get(dst.0)
            .ok_or(ModelError::UnknownBlock(dst))?;
        if dst_port >= dst_block.kind.num_inputs() {
            return Err(ModelError::BadInPort {
                port: to,
                available: dst_block.kind.num_inputs(),
            });
        }
        Ok((from, to))
    }

    /// All blocks, indexable by [`BlockId::index`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The block behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0]
    }

    /// Mutable access to a block (used by format readers).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the model has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates over `(id, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i), b))
    }

    /// All block handles.
    pub fn ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId)
    }

    /// All connections.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// The producer feeding an input port, if connected. Scans the
    /// connection list: repeated queries belong on a [`PortTable`].
    pub fn source_of(&self, port: InPort) -> Option<OutPort> {
        self.connections
            .iter()
            .find(|c| c.to == port)
            .map(|c| c.from)
    }

    /// All consumers of an output port. Scans the connection list.
    pub fn consumers_of(&self, port: OutPort) -> Vec<InPort> {
        self.connections
            .iter()
            .filter(|c| c.from == port)
            .map(|c| c.to)
            .collect()
    }

    /// Number of `Inport` blocks (= subsystem input ports when nested).
    pub fn num_inports(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.kind, BlockKind::Inport { .. }))
            .count()
    }

    /// Number of `Outport` blocks (= subsystem output ports when nested).
    pub fn num_outports(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.kind, BlockKind::Outport { .. }))
            .count()
    }

    /// The `Inport` block with the given index, if present.
    pub fn inport(&self, index: usize) -> Option<BlockId> {
        self.iter()
            .find(|(_, b)| matches!(b.kind, BlockKind::Inport { index: i, .. } if i == index))
            .map(|(id, _)| id)
    }

    /// The `Outport` block with the given index, if present.
    pub fn outport(&self, index: usize) -> Option<BlockId> {
        self.iter()
            .find(|(_, b)| matches!(b.kind, BlockKind::Outport { index: i } if i == index))
            .map(|(id, _)| id)
    }

    /// Finds a block by name (first match).
    pub fn find(&self, name: &str) -> Option<BlockId> {
        self.iter().find(|(_, b)| b.name == name).map(|(id, _)| id)
    }

    /// Total block count including blocks inside nested subsystems
    /// (what the paper's Table 1 `#Block` column reports).
    pub fn deep_len(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match &b.kind {
                BlockKind::Subsystem(inner) => 1 + inner.deep_len(),
                _ => 1,
            })
            .sum()
    }

    /// Infers the shape of every signal in the model.
    ///
    /// Runs the block property library's shape rules over the graph with a
    /// worklist until a fixpoint. See [`crate::proplib::output_shapes`].
    ///
    /// # Errors
    ///
    /// Returns an error when operand shapes are incompatible, parameters are
    /// invalid, an input is unconnected, or an algebraic loop prevents
    /// inference from completing.
    pub fn infer_shapes(&self) -> Result<ShapeTable, ModelError> {
        crate::proplib::infer_shapes(self, &PortTable::new(self))
    }

    /// [`Model::infer_shapes`] over the port table of this model, built
    /// once by the caller.
    ///
    /// # Errors
    ///
    /// As [`Model::infer_shapes`].
    pub fn infer_shapes_with(&self, ports: &PortTable) -> Result<ShapeTable, ModelError> {
        crate::proplib::infer_shapes(self, ports)
    }

    /// Validates structural well-formedness (ports, connectivity, shapes):
    /// [`Model::validate_structure`], then shape inference of the
    /// flattened model.
    ///
    /// # Errors
    ///
    /// Returns the first problem found; see [`ModelError`].
    pub fn validate(&self) -> Result<(), ModelError> {
        crate::validate::validate(self)
    }

    /// The structural half of [`Model::validate`], over the port table of
    /// this model: every input driven exactly once, `Inport`/`Outport`
    /// indices contiguous from zero, and every subsystem valid on its own.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in the order
    /// [`Model::validate`] finds it.
    pub fn validate_structure(&self, ports: &PortTable) -> Result<(), ModelError> {
        crate::validate::validate_structure(self, ports)
    }

    /// Returns a copy with every [`BlockKind::Subsystem`] flattened away,
    /// its inner blocks rewired to the outer connections; recorded as a
    /// `flatten` span (with a `blocks_flattened` counter) on the given
    /// trace. Pass `&Trace::noop()` when no instrumentation is wanted.
    ///
    /// # Errors
    ///
    /// Returns an error if a subsystem's port blocks are inconsistent.
    pub fn flattened(&self, trace: &frodo_obs::Trace) -> Result<Model, ModelError> {
        let span = trace.span("flatten");
        let flat = crate::flatten::flatten(self)?;
        span.count("blocks_flattened", flat.len() as u64);
        Ok(flat)
    }

    /// [`Model::flattened`] by value: a model without subsystems is moved
    /// through, not copied. Records the same span and counter.
    ///
    /// # Errors
    ///
    /// As [`Model::flattened`].
    pub fn into_flattened(self, trace: &frodo_obs::Trace) -> Result<Model, ModelError> {
        if !self.is_flat() {
            return self.flattened(trace);
        }
        let span = trace.span("flatten");
        span.count("blocks_flattened", self.len() as u64);
        Ok(self)
    }

    /// Whether the model has no [`BlockKind::Subsystem`] blocks.
    pub(crate) fn is_flat(&self) -> bool {
        !self
            .blocks
            .iter()
            .any(|b| matches!(b.kind, BlockKind::Subsystem(_)))
    }

    pub(crate) fn push_connection(&mut self, c: Connection) {
        self.connections.push(c);
    }
}

/// Wires a model one connection at a time with O(1) duplicate checks;
/// see [`Model::connector`].
pub struct Connector<'m> {
    model: &'m mut Model,
    index: PortIndex,
    /// Whether each input port (dense index) already has a driver.
    driven: Vec<bool>,
}

impl Connector<'_> {
    /// Connects output `src_port` of `src` to input `dst_port` of `dst`.
    ///
    /// # Errors
    ///
    /// The errors of [`Model::connect`], found in the same order.
    pub fn connect(
        &mut self,
        src: BlockId,
        src_port: usize,
        dst: BlockId,
        dst_port: usize,
    ) -> Result<(), ModelError> {
        let (from, to) = self.model.endpoints(src, src_port, dst, dst_port)?;
        let i = self
            .index
            .input(dst, dst_port)
            .expect("endpoints checked the port");
        if std::mem::replace(&mut self.driven[i], true) {
            return Err(ModelError::DuplicateInput(to));
        }
        self.model.connections.push(Connection { from, to });
        Ok(())
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model {} ({} blocks)", self.name, self.blocks.len())?;
        for (id, b) in self.iter() {
            writeln!(f, "  {id}: {b}")?;
        }
        for c in &self.connections {
            writeln!(f, "  {} -> {}", c.from, c.to)?;
        }
        Ok(())
    }
}

/// Inferred signal shapes for every port of every block in a model, in
/// flat vectors indexed like the model's [`PortTable`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShapeTable {
    index: PortIndex,
    outputs: Vec<Option<Shape>>,
    inputs: Vec<Option<Shape>>,
}

impl ShapeTable {
    pub(crate) fn new(index: PortIndex) -> Self {
        ShapeTable {
            outputs: vec![None; index.num_outputs()],
            inputs: vec![None; index.num_inputs()],
            index,
        }
    }

    /// Records the shape of an existing output port.
    pub(crate) fn set_output(&mut self, port: OutPort, shape: Shape) {
        let o = self.index.output(port.block, port.port);
        self.outputs[o.expect("shape of an existing port")] = Some(shape);
    }

    /// Records the shape of an existing input port.
    pub(crate) fn set_input(&mut self, port: InPort, shape: Shape) {
        let i = self.index.input(port.block, port.port);
        self.inputs[i.expect("shape of an existing port")] = Some(shape);
    }

    /// Shape of an output port.
    ///
    /// # Panics
    ///
    /// Panics if the port is not in the table (inference did not cover it).
    pub fn output(&self, block: BlockId, port: usize) -> Shape {
        self.try_output(block, port)
            .unwrap_or_else(|| panic!("no shape for output port {}", OutPort::new(block, port)))
    }

    /// Shape of an output port, if known.
    pub fn try_output(&self, block: BlockId, port: usize) -> Option<Shape> {
        self.outputs[self.index.output(block, port)?]
    }

    /// Shape of an input port.
    ///
    /// # Panics
    ///
    /// Panics if the port is not in the table.
    pub fn input(&self, block: BlockId, port: usize) -> Shape {
        self.try_input(block, port)
            .unwrap_or_else(|| panic!("no shape for input port {}", InPort::new(block, port)))
    }

    /// Shape of an input port, if known.
    pub fn try_input(&self, block: BlockId, port: usize) -> Option<Shape> {
        self.inputs[self.index.input(block, port)?]
    }

    /// Shapes of all inputs of a block, in port order.
    pub fn inputs_of(&self, block: BlockId, n: usize) -> Vec<Shape> {
        (0..n).map(|p| self.input(block, p)).collect()
    }

    /// Shapes of all outputs of a block, in port order.
    pub fn outputs_of(&self, block: BlockId, n: usize) -> Vec<Shape> {
        (0..n).map(|p| self.output(block, p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn two_block_model() -> (Model, BlockId, BlockId) {
        let mut m = Model::new("t");
        let a = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let b = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        (m, a, b)
    }

    #[test]
    fn connect_and_query_endpoints() {
        let (mut m, a, b) = two_block_model();
        m.connect(a, 0, b, 0).unwrap();
        assert_eq!(m.source_of(InPort::new(b, 0)), Some(OutPort::new(a, 0)));
        assert_eq!(m.consumers_of(OutPort::new(a, 0)), vec![InPort::new(b, 0)]);
    }

    #[test]
    fn connect_rejects_bad_ports() {
        let (mut m, a, b) = two_block_model();
        assert!(matches!(
            m.connect(a, 1, b, 0),
            Err(ModelError::BadOutPort { .. })
        ));
        assert!(matches!(
            m.connect(a, 0, b, 1),
            Err(ModelError::BadInPort { .. })
        ));
    }

    #[test]
    fn connect_rejects_duplicate_destination() {
        let mut m = Model::new("t");
        let a = m.add(Block::new(
            "a",
            BlockKind::Constant {
                value: Tensor::scalar(1.0),
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Constant {
                value: Tensor::scalar(2.0),
            },
        ));
        let s = m.add(Block::new("s", BlockKind::Terminator));
        m.connect(a, 0, s, 0).unwrap();
        assert_eq!(
            m.connect(b, 0, s, 0),
            Err(ModelError::DuplicateInput(InPort::new(s, 0)))
        );
    }

    #[test]
    fn connect_rejects_unknown_block() {
        let (mut m, a, _) = two_block_model();
        let ghost = BlockId::from_index(99);
        assert!(matches!(
            m.connect(a, 0, ghost, 0),
            Err(ModelError::UnknownBlock(_))
        ));
    }

    #[test]
    fn port_lookup_by_role() {
        let (m, a, b) = two_block_model();
        assert_eq!(m.inport(0), Some(a));
        assert_eq!(m.outport(0), Some(b));
        assert_eq!(m.inport(1), None);
        assert_eq!(m.num_inports(), 1);
        assert_eq!(m.num_outports(), 1);
    }

    #[test]
    fn find_by_name() {
        let (m, a, _) = two_block_model();
        assert_eq!(m.find("in"), Some(a));
        assert_eq!(m.find("nope"), None);
    }

    #[test]
    fn deep_len_counts_nested_blocks() {
        let mut inner = Model::new("inner");
        inner.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        inner.add(Block::new("o", BlockKind::Outport { index: 0 }));
        let mut outer = Model::new("outer");
        outer.add(Block::new("sub", BlockKind::Subsystem(Box::new(inner))));
        assert_eq!(outer.len(), 1);
        assert_eq!(outer.deep_len(), 3);
    }

    #[test]
    fn connector_reports_what_connect_reports() {
        let mut built = Model::new("t");
        let c = built.add(Block::new(
            "c",
            BlockKind::Constant {
                value: Tensor::scalar(1.0),
            },
        ));
        let add = built.add(Block::new("add", BlockKind::Add));
        let o = built.add(Block::new("o", BlockKind::Outport { index: 0 }));
        built.connect(c, 0, add, 0).unwrap();
        let mut bulk = built.clone();
        let ghost = BlockId::from_index(9);
        let attempts = [
            (c, 0, add, 0), // already driven before the connector
            (c, 0, add, 1),
            (c, 1, add, 1),
            (ghost, 0, add, 1),
            (c, 0, ghost, 0),
            (c, 0, o, 1),
            (add, 0, o, 0),
            (c, 0, add, 1),
            (add, 0, o, 0),
        ];
        let mut wires = bulk.connector();
        for (src, sp, dst, dp) in attempts {
            assert_eq!(
                wires.connect(src, sp, dst, dp),
                built.connect(src, sp, dst, dp),
                "{src}:{sp} -> {dst}:{dp}"
            );
        }
        assert_eq!(bulk, built);
    }

    #[test]
    fn into_flattened_moves_a_flat_model_and_records_it() {
        let (mut m, a, b) = two_block_model();
        m.connect(a, 0, b, 0).unwrap();
        let trace = frodo_obs::Trace::new();
        assert_eq!(m.clone().into_flattened(&trace).unwrap(), m);
        assert_eq!(trace.counter_total("blocks_flattened"), 2);
        assert_eq!(trace.span_count(), 1);
    }

    #[test]
    fn shape_lookups_past_the_table_are_none() {
        let (mut m, a, b) = two_block_model();
        m.connect(a, 0, b, 0).unwrap();
        let shapes = m.infer_shapes().unwrap();
        assert_eq!(shapes.try_output(a, 0), Some(Shape::Vector(4)));
        assert_eq!(shapes.try_input(b, 0), Some(Shape::Vector(4)));
        let ghost = BlockId::from_index(99);
        for (block, port) in [(a, 1), (b, 0), (ghost, 0), (ghost, 7)] {
            assert_eq!(shapes.try_output(block, port), None, "{block}:out{port}");
        }
        for (block, port) in [(a, 0), (b, 1), (ghost, 0)] {
            assert_eq!(shapes.try_input(block, port), None, "{block}:in{port}");
        }
        assert_eq!(ShapeTable::default().try_output(a, 0), None);
        assert_eq!(ShapeTable::default().try_input(b, 0), None);
    }

    #[test]
    #[should_panic(expected = "no shape for output port b0:out1")]
    fn shape_of_a_missing_port_panics() {
        let (mut m, a, b) = two_block_model();
        m.connect(a, 0, b, 0).unwrap();
        m.infer_shapes().unwrap().output(a, 1);
    }

    #[test]
    fn display_lists_blocks_and_wires() {
        let (mut m, a, b) = two_block_model();
        m.connect(a, 0, b, 0).unwrap();
        let s = m.to_string();
        assert!(s.contains("model t"));
        assert!(s.contains("b0:out0 -> b1:in0"));
    }
}
