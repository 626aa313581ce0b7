//! Dense port tables.
//!
//! Every port of a model is numbered block by block in id order, and one
//! pass over the connections records, per input port, how many
//! connections drive it and which comes first, and, per output port, how
//! many connections it feeds. Validation, shape inference, the dataflow
//! graph and the model lint answer port queries from these tables instead
//! of scanning the connection list once per port.

use crate::{BlockId, InPort, Model, OutPort};

/// Dense numbering of a model's ports: the inputs of block `b` are
/// `inputs[b]..inputs[b + 1]`, its outputs `outputs[b]..outputs[b + 1]`
/// (prefix sums of the blocks' port counts; the last entry is the total).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct PortIndex {
    inputs: Vec<usize>,
    outputs: Vec<usize>,
}

impl PortIndex {
    pub(crate) fn new(model: &Model) -> Self {
        let mut inputs = Vec::with_capacity(model.len() + 1);
        let mut outputs = Vec::with_capacity(model.len() + 1);
        let (mut i, mut o) = (0, 0);
        for block in model.blocks() {
            inputs.push(i);
            outputs.push(o);
            i += block.kind.num_inputs();
            o += block.kind.num_outputs();
        }
        inputs.push(i);
        outputs.push(o);
        PortIndex { inputs, outputs }
    }

    /// Dense index of an input port; `None` when the block or the port
    /// does not exist.
    pub(crate) fn input(&self, block: BlockId, port: usize) -> Option<usize> {
        dense(&self.inputs, block, port)
    }

    /// Dense index of an output port; `None` when the block or the port
    /// does not exist.
    pub(crate) fn output(&self, block: BlockId, port: usize) -> Option<usize> {
        dense(&self.outputs, block, port)
    }

    pub(crate) fn num_inputs(&self) -> usize {
        self.inputs.last().copied().unwrap_or(0)
    }

    pub(crate) fn num_outputs(&self) -> usize {
        self.outputs.last().copied().unwrap_or(0)
    }
}

fn dense(offsets: &[usize], block: BlockId, port: usize) -> Option<usize> {
    let start = *offsets.get(block.index())?;
    let end = *offsets.get(block.index() + 1)?;
    (port < end - start).then_some(start + port)
}

/// The drivers of every input port and the fan-out of every output port
/// of one model, built in one pass over its connections.
///
/// A table describes the model it was built from: pass it only to calls
/// on that same model. Connections that end at a port the block does not
/// have (possible after [`Model::block_mut`] changed a block's kind) are
/// ignored, as a scan over the existing ports would ignore them.
#[derive(Debug, Clone)]
pub struct PortTable {
    pub(crate) index: PortIndex,
    /// First driver of each input port, in connection order.
    source: Vec<Option<OutPort>>,
    /// Number of connections ending at each input port.
    drivers: Vec<u32>,
    /// Number of connections leaving each output port.
    consumers: Vec<u32>,
}

impl PortTable {
    /// Indexes the ports and connections of `model`.
    pub fn new(model: &Model) -> Self {
        let index = PortIndex::new(model);
        let mut source = vec![None; index.num_inputs()];
        let mut drivers = vec![0u32; index.num_inputs()];
        let mut consumers = vec![0u32; index.num_outputs()];
        for c in model.connections() {
            if let Some(i) = index.input(c.to.block, c.to.port) {
                source[i].get_or_insert(c.from);
                drivers[i] += 1;
            }
            if let Some(o) = index.output(c.from.block, c.from.port) {
                consumers[o] += 1;
            }
        }
        PortTable {
            index,
            source,
            drivers,
            consumers,
        }
    }

    /// The producer feeding an input port: the first connection into it,
    /// like [`Model::source_of`]; `None` when it is unconnected or does not
    /// exist.
    pub fn source(&self, port: InPort) -> Option<OutPort> {
        self.source[self.index.input(port.block, port.port)?]
    }

    /// How many connections drive an input port (0 for a missing port).
    pub fn drivers(&self, port: InPort) -> usize {
        self.index
            .input(port.block, port.port)
            .map_or(0, |i| self.drivers[i] as usize)
    }

    /// How many connections an output port feeds (0 for a missing port).
    pub fn consumers(&self, port: OutPort) -> usize {
        self.index
            .output(port.block, port.port)
            .map_or(0, |o| self.consumers[o] as usize)
    }

    /// Dense index of an output port in `[0, num_outputs())`: ports are
    /// numbered block by block in id order. `None` when the port does not
    /// exist.
    pub fn output_index(&self, port: OutPort) -> Option<usize> {
        self.index.output(port.block, port.port)
    }

    /// Total number of output ports.
    pub fn num_outputs(&self) -> usize {
        self.index.num_outputs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, BlockKind, Tensor};
    use frodo_ranges::Shape;

    /// in -> add:0, c -> add:1, add -> out; c also feeds a terminator
    fn fan() -> (Model, [BlockId; 5]) {
        let mut m = Model::new("fan");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let c = m.add(Block::new(
            "c",
            BlockKind::Constant {
                value: Tensor::scalar(1.0),
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        let t = m.add(Block::new("t", BlockKind::Terminator));
        m.connect(i, 0, add, 0).unwrap();
        m.connect(c, 0, add, 1).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        m.connect(c, 0, t, 0).unwrap();
        (m, [i, c, add, o, t])
    }

    #[test]
    fn table_agrees_with_connection_scans() {
        let (m, ids) = fan();
        let table = PortTable::new(&m);
        for id in ids {
            let kind = &m.block(id).kind;
            for p in 0..kind.num_inputs() {
                let port = InPort::new(id, p);
                assert_eq!(table.source(port), m.source_of(port));
                assert_eq!(table.drivers(port), 1);
            }
            for p in 0..kind.num_outputs() {
                let port = OutPort::new(id, p);
                assert_eq!(table.consumers(port), m.consumers_of(port).len());
            }
        }
    }

    #[test]
    fn missing_ports_read_as_absent() {
        let (m, [i, _, add, _, _]) = fan();
        let table = PortTable::new(&m);
        let ghost = BlockId::from_index(99);
        assert_eq!(table.source(InPort::new(add, 2)), None);
        assert_eq!(table.source(InPort::new(ghost, 0)), None);
        assert_eq!(table.drivers(InPort::new(i, 0)), 0);
        assert_eq!(table.consumers(OutPort::new(ghost, 0)), 0);
    }
}
