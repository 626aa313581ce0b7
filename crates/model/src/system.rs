//! The [`Model`] container: blocks + port-accurate connections.

use crate::{Block, BlockId, BlockKind, InPort, ModelError, OutPort};
use frodo_ranges::Shape;
use std::collections::BTreeMap;
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
        if self.connections.iter().any(|c| c.to == to) {
            return Err(ModelError::DuplicateInput(to));
        }
        self.connections.push(Connection { from, to });
        Ok(())
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

    /// The producer feeding an input port, if connected.
    pub fn source_of(&self, port: InPort) -> Option<OutPort> {
        self.connections
            .iter()
            .find(|c| c.to == port)
            .map(|c| c.from)
    }

    /// All consumers of an output port.
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
        crate::proplib::infer_shapes(self)
    }

    /// Validates structural well-formedness (ports, connectivity, shapes).
    ///
    /// # Errors
    ///
    /// Returns the first problem found; see [`ModelError`].
    pub fn validate(&self) -> Result<(), ModelError> {
        crate::validate::validate(self)
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

    #[allow(dead_code)]
    pub(crate) fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    pub(crate) fn push_connection(&mut self, c: Connection) {
        self.connections.push(c);
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

/// Inferred signal shapes for every port of every block in a model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShapeTable {
    outputs: BTreeMap<OutPort, Shape>,
    inputs: BTreeMap<InPort, Shape>,
}

impl ShapeTable {
    pub(crate) fn new() -> Self {
        ShapeTable::default()
    }

    pub(crate) fn set_output(&mut self, port: OutPort, shape: Shape) {
        self.outputs.insert(port, shape);
    }

    pub(crate) fn set_input(&mut self, port: InPort, shape: Shape) {
        self.inputs.insert(port, shape);
    }

    /// Shape of an output port.
    ///
    /// # Panics
    ///
    /// Panics if the port is not in the table (inference did not cover it).
    pub fn output(&self, block: BlockId, port: usize) -> Shape {
        self.outputs[&OutPort::new(block, port)]
    }

    /// Shape of an output port, if known.
    pub fn try_output(&self, block: BlockId, port: usize) -> Option<Shape> {
        self.outputs.get(&OutPort::new(block, port)).copied()
    }

    /// Shape of an input port.
    ///
    /// # Panics
    ///
    /// Panics if the port is not in the table.
    pub fn input(&self, block: BlockId, port: usize) -> Shape {
        self.inputs[&InPort::new(block, port)]
    }

    /// Shape of an input port, if known.
    pub fn try_input(&self, block: BlockId, port: usize) -> Option<Shape> {
        self.inputs.get(&InPort::new(block, port)).copied()
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
    fn display_lists_blocks_and_wires() {
        let (mut m, a, b) = two_block_model();
        m.connect(a, 0, b, 0).unwrap();
        let s = m.to_string();
        assert!(s.contains("model t"));
        assert!(s.contains("b0:out0 -> b1:in0"));
    }
}
