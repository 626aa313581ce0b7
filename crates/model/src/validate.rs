//! Structural model validation.

use crate::{BlockKind, InPort, Model, ModelError, PortTable};

/// Validates a model's structural well-formedness:
///
/// 1. every input port has exactly one incoming connection,
/// 2. `Inport`/`Outport` indices are unique and contiguous from zero,
/// 3. each subsystem's inner port blocks match its declared arity, and
/// 4. shape inference succeeds on the flattened model.
///
/// (1)–(3) are [`validate_structure`].
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate(model: &Model) -> Result<(), ModelError> {
    validate_structure(model, &PortTable::new(model))?;
    // (4) the whole model must type-check
    crate::flatten::flatten(model)?.infer_shapes()?;
    Ok(())
}

/// Checks (1)–(3) of [`validate`] over the model's port table.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_structure(model: &Model, ports: &PortTable) -> Result<(), ModelError> {
    // (1) connectivity — duplicate inputs are rejected at connect() time for
    // builder-constructed models but can arrive via file formats.
    for (id, block) in model.iter() {
        for p in 0..block.kind.num_inputs() {
            let port = InPort::new(id, p);
            match ports.drivers(port) {
                0 => return Err(ModelError::UnconnectedInput(port)),
                1 => {}
                _ => return Err(ModelError::DuplicateInput(port)),
            }
        }
    }

    // (2) port-block index contiguity
    check_port_indices(model)?;

    // (3) subsystem consistency
    for (id, block) in model.iter() {
        if let BlockKind::Subsystem(inner) = &block.kind {
            check_port_indices(inner).map_err(|_| ModelError::BadSubsystem {
                block: id,
                reason: "inner Inport/Outport indices are not contiguous".into(),
            })?;
            inner.validate().map_err(|e| ModelError::BadSubsystem {
                block: id,
                reason: e.to_string(),
            })?;
        }
    }
    Ok(())
}

fn check_port_indices(model: &Model) -> Result<(), ModelError> {
    let mut in_idx: Vec<usize> = model
        .blocks()
        .iter()
        .filter_map(|b| match b.kind {
            BlockKind::Inport { index, .. } => Some(index),
            _ => None,
        })
        .collect();
    let mut out_idx: Vec<usize> = model
        .blocks()
        .iter()
        .filter_map(|b| match b.kind {
            BlockKind::Outport { index } => Some(index),
            _ => None,
        })
        .collect();
    in_idx.sort_unstable();
    out_idx.sort_unstable();
    for (expect, &got) in in_idx.iter().enumerate() {
        if got != expect {
            let offender = model.inport(got).or_else(|| model.inport(expect));
            return Err(ModelError::BadParameter {
                block: offender.unwrap_or(crate::BlockId::from_index(0)),
                reason: format!("Inport indices not contiguous: expected {expect}, found {got}"),
            });
        }
    }
    for (expect, &got) in out_idx.iter().enumerate() {
        if got != expect {
            let offender = model.outport(got).or_else(|| model.outport(expect));
            return Err(ModelError::BadParameter {
                block: offender.unwrap_or(crate::BlockId::from_index(0)),
                reason: format!("Outport indices not contiguous: expected {expect}, found {got}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, Tensor};
    use frodo_ranges::Shape;

    #[test]
    fn valid_model_passes() {
        let mut m = Model::new("ok");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, o, 0).unwrap();
        assert!(m.validate().is_ok());
    }

    #[test]
    fn unconnected_input_fails() {
        let mut m = Model::new("bad");
        m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        assert!(matches!(m.validate(), Err(ModelError::UnconnectedInput(_))));
    }

    #[test]
    fn gapped_inport_indices_fail() {
        let mut m = Model::new("bad");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Scalar,
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, o, 0).unwrap();
        assert!(matches!(m.validate(), Err(ModelError::BadParameter { .. })));
    }

    #[test]
    fn shape_errors_surface_through_validate() {
        let mut m = Model::new("bad");
        let a = m.add(Block::new(
            "a",
            BlockKind::Constant {
                value: Tensor::vector(vec![1.0; 3]),
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Constant {
                value: Tensor::vector(vec![1.0; 4]),
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(a, 0, add, 0).unwrap();
        m.connect(b, 0, add, 1).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        assert!(matches!(
            m.validate(),
            Err(ModelError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn subsystem_validation_recurses() {
        let mut inner = Model::new("inner");
        inner.add(Block::new("g", BlockKind::Gain { gain: 1.0 })); // unconnected
        let mut m = Model::new("outer");
        m.add(Block::new("s", BlockKind::Subsystem(Box::new(inner))));
        assert!(matches!(m.validate(), Err(ModelError::BadSubsystem { .. })));
    }
}
