//! Topological scheduling of blocks.

use frodo_model::{BlockId, BlockKind, Model, ModelError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes a deterministic topological translation order of the blocks.
///
/// Kahn's algorithm with a twist from dataflow semantics: edges *leaving* a
/// `UnitDelay` block impose no ordering constraint, because a delay's output
/// is the state written on the *previous* step — it is available before any
/// block executes. This makes feedback loops broken by delays schedulable.
/// Ties are broken by ascending block id, so the order is reproducible.
///
/// # Errors
///
/// Returns [`ModelError::AlgebraicLoop`] listing the blocks on a delay-free
/// cycle.
pub fn toposort(model: &Model) -> Result<Vec<BlockId>, ModelError> {
    let n = model.len();
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in model.connections() {
        let src = c.from.block.index();
        let dst = c.to.block.index();
        if matches!(model.block(c.from.block).kind, BlockKind::UnitDelay { .. }) {
            continue; // state read: no ordering constraint
        }
        succs[src].push(dst);
        indegree[dst] += 1;
    }

    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // deterministic: smallest ready id first, from a min-heap of the ready
    // blocks
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| indegree[i] == 0).map(Reverse).collect();
    while let Some(Reverse(i)) = ready.pop() {
        placed[i] = true;
        order.push(BlockId::from_index(i));
        for &d in &succs[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push(Reverse(d));
            }
        }
    }

    if order.len() != n {
        let cycle: Vec<BlockId> = (0..n)
            .filter(|&i| !placed[i])
            .map(BlockId::from_index)
            .collect();
        return Err(ModelError::AlgebraicLoop { cycle });
    }
    Ok(order)
}

/// Groups the blocks into the *reverse* levels of Algorithm 1's dependency
/// structure: a block's calculation range reads the ranges of its consumer
/// blocks, **except** consumers whose input requirement is constant — model
/// sinks (`Outport`, `Terminator`) and stateful blocks, whose needs do not
/// depend on their own ranges (that independence is also what breaks
/// delay feedback cycles).
///
/// Level 0 therefore holds the blocks whose ranges depend on nothing;
/// every later level only reads ranges finalized in earlier levels, so the
/// blocks of one level can be range-analyzed concurrently. Levels are
/// sorted by block id.
///
/// # Errors
///
/// Returns [`ModelError::AlgebraicLoop`] listing the blocks on a cycle of
/// the dependency graph (possible only if the model also fails
/// [`toposort`], since any connection cycle must pass through a delay and
/// delays are independent consumers).
pub fn analysis_levels(model: &Model) -> Result<Vec<Vec<BlockId>>, ModelError> {
    let n = model.len();
    // deps: b -> consumers whose ranges b's range computation reads
    let mut indeg = vec![0usize; n];
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in model.connections() {
        let consumer = c.to.block;
        let kind = &model.block(consumer).kind;
        let independent =
            matches!(kind, BlockKind::Outport { .. } | BlockKind::Terminator) || kind.is_stateful();
        if independent {
            continue;
        }
        indeg[c.from.block.index()] += 1;
        rdeps[consumer.index()].push(c.from.block.index());
    }

    let mut level = vec![0usize; n];
    let mut placed = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0;
    while let Some(i) = queue.pop() {
        placed[i] = true;
        done += 1;
        for &b in &rdeps[i] {
            level[b] = level[b].max(level[i] + 1);
            indeg[b] -= 1;
            if indeg[b] == 0 {
                queue.push(b);
            }
        }
    }
    if done != n {
        let cycle: Vec<BlockId> = (0..n)
            .filter(|&i| !placed[i])
            .map(BlockId::from_index)
            .collect();
        return Err(ModelError::AlgebraicLoop { cycle });
    }
    Ok(group_by_level(&level, n))
}

/// Buckets block indices by their level, each bucket sorted ascending.
fn group_by_level(level: &[usize], n: usize) -> Vec<Vec<BlockId>> {
    let depth = level.iter().max().map_or(0, |&d| d + 1);
    let mut out: Vec<Vec<BlockId>> = vec![Vec::new(); if n == 0 { 0 } else { depth }];
    for i in 0..n {
        out[level[i]].push(BlockId::from_index(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, Tensor};
    use frodo_ranges::Shape;

    #[test]
    fn chain_orders_linearly() {
        let mut m = Model::new("chain");
        let a = m.add(Block::new(
            "a",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let b = m.add(Block::new("b", BlockKind::Abs));
        let c = m.add(Block::new("c", BlockKind::Outport { index: 0 }));
        m.connect(a, 0, b, 0).unwrap();
        m.connect(b, 0, c, 0).unwrap();
        assert_eq!(toposort(&m).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn ties_broken_by_id() {
        let mut m = Model::new("par");
        let a = m.add(Block::new(
            "a",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let b = m.add(Block::new(
            "b",
            BlockKind::Inport {
                index: 1,
                shape: Shape::Scalar,
            },
        ));
        // both roots; a (lower id) must come first
        let order = toposort(&m).unwrap();
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn delay_breaks_cycles() {
        // add -> delay -> add (feedback accumulator)
        let mut m = Model::new("acc");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let z = m.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::scalar(0.0),
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, add, 0).unwrap();
        m.connect(z, 0, add, 1).unwrap();
        m.connect(add, 0, z, 0).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        let order = toposort(&m).unwrap();
        let pos = |b: BlockId| order.iter().position(|&x| x == b).unwrap();
        // the delay's *input* (add) must be scheduled before the delay's
        // state update, but the delay imposes nothing on its consumers
        assert!(pos(add) < pos(z));
    }

    #[test]
    fn delay_free_cycle_is_reported() {
        let mut m = Model::new("loop");
        let a = m.add(Block::new("a", BlockKind::Abs));
        let b = m.add(Block::new("b", BlockKind::Negate));
        m.connect(a, 0, b, 0).unwrap();
        m.connect(b, 0, a, 0).unwrap();
        match toposort(&m).unwrap_err() {
            ModelError::AlgebraicLoop { cycle } => {
                assert_eq!(cycle.len(), 2);
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn empty_model_is_trivially_sorted() {
        let m = Model::new("empty");
        assert!(toposort(&m).unwrap().is_empty());
        assert!(analysis_levels(&m).unwrap().is_empty());
    }

    /// i -> g1 -> add -> o, i -> g2 -> add: the two gains share a level.
    fn diamond() -> (Model, [BlockId; 5]) {
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
    fn analysis_levels_run_from_the_sinks() {
        // range dependencies point downstream: add (whose only consumer is
        // the independent outport) resolves first, the gains next, the
        // sources last
        let (m, [i, g1, g2, add, o]) = diamond();
        let levels = analysis_levels(&m).unwrap();
        let depth_of = |b: BlockId| levels.iter().position(|l| l.contains(&b)).unwrap();
        assert_eq!(depth_of(o), 0); // no dependencies at all
        assert_eq!(depth_of(add), 0);
        assert_eq!(depth_of(g1), 1);
        assert_eq!(depth_of(g2), 1);
        assert_eq!(depth_of(i), 2);
        assert_eq!(levels.iter().map(Vec::len).sum::<usize>(), m.len());
    }

    #[test]
    fn analysis_levels_break_delay_feedback() {
        // accumulator: add -> delay -> add; the delay is an independent
        // consumer, so the dependency graph stays acyclic
        let mut m = Model::new("acc");
        let i = m.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let z = m.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::scalar(0.0),
            },
        ));
        let o = m.add(Block::new("o", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, add, 0).unwrap();
        m.connect(z, 0, add, 1).unwrap();
        m.connect(add, 0, z, 0).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        let levels = analysis_levels(&m).unwrap();
        let depth_of = |b: BlockId| levels.iter().position(|l| l.contains(&b)).unwrap();
        // add depends on nothing (its consumers z and o are independent);
        // the delay's range reads add's, and the source reads add's too
        assert_eq!(depth_of(add), 0);
        assert!(depth_of(z) > depth_of(add));
        assert!(depth_of(i) > depth_of(add));
    }

    #[test]
    fn analysis_levels_report_delay_free_cycles() {
        let mut m = Model::new("loop");
        let a = m.add(Block::new("a", BlockKind::Abs));
        let b = m.add(Block::new("b", BlockKind::Negate));
        m.connect(a, 0, b, 0).unwrap();
        m.connect(b, 0, a, 0).unwrap();
        assert!(matches!(
            analysis_levels(&m),
            Err(ModelError::AlgebraicLoop { .. })
        ));
    }
}
