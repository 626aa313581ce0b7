//! Calculation range determination (the paper's Algorithm 1).
//!
//! For every block, determine which of its output elements are actually
//! consumed downstream — its **calculation range**. The paper phrases this
//! as a recursion from the root blocks: "initially determine the calculation
//! range of the child blocks, which are then employed to determine the
//! calculation range of their parent blocks".
//!
//! Semantics (per output port `B:o`):
//!
//! - If `B:o` has consumers, its range is the union over each consumer input
//!   `C:i` of the elements `C` needs from that input, which in turn is the
//!   union over `C`'s output ports `o'` of `iomap(C, o', i)` applied to
//!   `C`'s own range on `o'`.
//! - If `B:o` has no consumers (paper line 16–18: `b_c = ∅`), the full
//!   output is kept — unless [`RangeOptions::eliminate_dead_ends`] opts into
//!   the more aggressive empty range.
//! - Sinks anchor the recursion: an `Outport` needs its whole input (model
//!   outputs must be complete), a `Terminator` needs nothing (so chains
//!   feeding only terminators dissolve), and stateful blocks (`UnitDelay`)
//!   need their whole input regardless of consumption, which also breaks
//!   feedback cycles.
//!
//! All three engines — the recursion ([`determine_ranges`]), the reference
//! sweep ([`reference_ranges`]) and the region-incremental walk
//! ([`crate::incremental`]) — compute each port through one function,
//! `port_range`: a plain union of [`frodo_ranges::PortMap::apply`] results
//! in the allocating [`IndexSet`] algebra. Nothing is memoized below the
//! per-port ranges themselves: on the Table-1 suite, re-applying a mapping
//! measured cheaper than looking it up (README, *Performance*).

use crate::IoMappings;
use frodo_graph::Dfg;
use frodo_model::{BlockId, BlockKind, InPort, OutPort};
use frodo_ranges::IndexSet;
use std::collections::BTreeMap;

/// Tuning knobs for range determination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeOptions {
    /// When `true`, output ports with no consumers get an *empty* range
    /// (dead-code elimination) instead of the paper's conservative full
    /// range. Off by default for paper fidelity.
    pub eliminate_dead_ends: bool,
}

/// The calculation range of every output port in a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranges {
    map: BTreeMap<OutPort, IndexSet>,
}

impl Ranges {
    /// Assembles a range table from an already-computed map (the
    /// incremental region analysis builds the map region by region).
    pub(crate) fn from_map(map: BTreeMap<OutPort, IndexSet>) -> Ranges {
        Ranges { map }
    }

    /// The calculation range of `block`'s output `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port was not analyzed (not part of the graph).
    pub fn out(&self, block: BlockId, port: usize) -> &IndexSet {
        &self.map[&OutPort::new(block, port)]
    }

    /// The calculation range, if the port exists.
    pub fn try_out(&self, block: BlockId, port: usize) -> Option<&IndexSet> {
        self.map.get(&OutPort::new(block, port))
    }

    /// Iterates over all `(port, range)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&OutPort, &IndexSet)> {
        self.map.iter()
    }

    /// Number of analyzed output ports.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The elements a consumer block needs from one of its input ports, given
/// a lookup of the consumer's own output ranges: the union, over the
/// consumer's outputs, of each output's I/O mapping applied to its range.
///
/// `ranges_of` may return `None` for a range that is not final yet; that
/// only happens inside delay cycles (whose input requirement is constant
/// anyway), and the full output range is conservatively assumed.
pub(crate) fn input_need<'r>(
    dfg: &Dfg,
    maps: &IoMappings,
    ranges_of: &mut dyn FnMut(OutPort) -> Option<&'r IndexSet>,
    port: InPort,
) -> IndexSet {
    let block = port.block;
    let kind = &dfg.model().block(block).kind;
    let full_input = || IndexSet::full(dfg.shapes().input(block, port.port).numel());
    match kind {
        // Model outputs must be produced in full.
        BlockKind::Outport { .. } => full_input(),
        // Discarded data is never needed.
        BlockKind::Terminator => IndexSet::new(),
        // State must be maintained every step, independent of consumption.
        k if k.is_stateful() => full_input(),
        _ => {
            let mut need = IndexSet::new();
            for o in 0..kind.num_outputs() {
                let p = OutPort::new(block, o);
                let m = maps.map(block, o, port.port);
                let mapped = match ranges_of(p) {
                    Some(r) => m.apply(r),
                    None => m.apply(&full_range_of(dfg, p)),
                };
                need = need.union(&mapped);
            }
            need
        }
    }
}

pub(crate) fn full_range_of(dfg: &Dfg, port: OutPort) -> IndexSet {
    IndexSet::full(dfg.shapes().output(port.block, port.port).numel())
}

/// The calculation range of one output port, given final (or, inside delay
/// cycles, absent) consumer ranges. The shared core of both engines:
/// Algorithm 1 lines 16–18 (no consumers ⇒ full output) and lines 20–25
/// (union of the input needs of each consumer).
pub(crate) fn port_range<'r>(
    dfg: &Dfg,
    maps: &IoMappings,
    opts: RangeOptions,
    port: OutPort,
    ranges_of: &mut dyn FnMut(OutPort) -> Option<&'r IndexSet>,
) -> IndexSet {
    let consumers = dfg.consumers_of(port);
    if consumers.is_empty() {
        if opts.eliminate_dead_ends {
            IndexSet::new()
        } else {
            full_range_of(dfg, port)
        }
    } else {
        let mut r = IndexSet::new();
        for &c in consumers {
            r = r.union(&input_need(dfg, maps, ranges_of, c));
        }
        r
    }
}

/// The no-elimination baseline: every output port keeps its full range.
///
/// Used by the comparison generators (Simulink-style, DFSynth-style, HCG-
/// style), which the paper characterizes as lacking range optimization.
pub fn full_ranges(dfg: &Dfg) -> Ranges {
    let mut map = BTreeMap::new();
    for (id, block) in dfg.model().iter() {
        for o in 0..block.kind.num_outputs() {
            let port = OutPort::new(id, o);
            map.insert(port, full_range_of(dfg, port));
        }
    }
    Ranges { map }
}

/// Computes the calculation range of every output port (semantics in the
/// module docs).
///
/// The paper's depth-first traversal from the root blocks:
/// `rangeDetermine` (Algorithm 1 lines 1–13) walks the roots; `recursive`
/// (lines 14–27) computes each block's range from its children's ranges. We
/// memoize per output port so diamonds are computed once, and run the
/// depth-first walk on an explicit work stack so arbitrarily deep models
/// (thousands of chained blocks) cannot overflow the call stack.
pub fn determine_ranges(dfg: &Dfg, maps: &IoMappings, opts: RangeOptions) -> Ranges {
    let mut memo: BTreeMap<OutPort, IndexSet> = BTreeMap::new();

    /// The output ports whose ranges a `Finish` of `port` will read:
    /// every output of every consumer whose input requirement actually
    /// depends on its own ranges (sinks and stateful blocks do not).
    fn child_ports(dfg: &Dfg, port: OutPort) -> Vec<OutPort> {
        let mut out = Vec::new();
        for c in dfg.consumers_of(port) {
            let kind = &dfg.model().block(c.block).kind;
            let independent = matches!(kind, BlockKind::Outport { .. } | BlockKind::Terminator)
                || kind.is_stateful();
            if independent {
                continue;
            }
            for o in 0..kind.num_outputs() {
                out.push(OutPort::new(c.block, o));
            }
        }
        out
    }

    enum Frame {
        Visit(OutPort),
        Finish(OutPort),
    }

    let mut stack: Vec<Frame> = Vec::new();
    // Lines 2–11: find the roots and start the depth-first walk from them;
    // a defensive sweep afterwards covers ports a root never reaches.
    for root in dfg.roots() {
        for o in 0..dfg.model().block(root).kind.num_outputs() {
            stack.push(Frame::Visit(OutPort::new(root, o)));
        }
    }
    for (id, block) in dfg.model().iter() {
        for o in 0..block.kind.num_outputs() {
            stack.push(Frame::Visit(OutPort::new(id, o)));
        }
    }

    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Visit(port) => {
                if memo.contains_key(&port) {
                    continue;
                }
                stack.push(Frame::Finish(port));
                for child in child_ports(dfg, port) {
                    if !memo.contains_key(&child) {
                        stack.push(Frame::Visit(child));
                    }
                }
            }
            Frame::Finish(port) => {
                if memo.contains_key(&port) {
                    continue;
                }
                // A diamond can pop this Finish before a shared child's own
                // Finish (its frame may sit deeper in the stack); reschedule
                // until every child range is final.
                let missing: Vec<OutPort> = child_ports(dfg, port)
                    .into_iter()
                    .filter(|p| !memo.contains_key(p))
                    .collect();
                if !missing.is_empty() {
                    stack.push(Frame::Finish(port));
                    for child in missing {
                        stack.push(Frame::Visit(child));
                    }
                    continue;
                }
                let range = port_range(dfg, maps, opts, port, &mut |p| {
                    Some(memo.get(&p).expect("child ranges are final before Finish"))
                });
                memo.insert(port, range);
            }
        }
    }
    Ranges { map: memo }
}

/// The reference engine: one sweep over the reverse topological order.
///
/// An independent formulation of Algorithm 1 that the agreement tests
/// compare [`determine_ranges`] against; nothing in the pipeline calls it.
/// Consumers are scheduled after producers, so visiting the translation
/// sequence backwards guarantees every consumer's range is final before its
/// producers are processed. Stateful blocks need no ordering care because
/// their input requirement is constant (full).
pub fn reference_ranges(dfg: &Dfg, maps: &IoMappings, opts: RangeOptions) -> Ranges {
    let order = dfg.schedule().expect("a valid Dfg always has a schedule");
    let mut map: BTreeMap<OutPort, IndexSet> = BTreeMap::new();
    for &id in order.iter().rev() {
        let n_out = dfg.model().block(id).kind.num_outputs();
        for o in 0..n_out {
            let port = OutPort::new(id, o);
            // A consumer not yet final (`None`) can only be a delay cycle,
            // whose input need ignores the looked-up value.
            let range = port_range(dfg, maps, opts, port, &mut |p| map.get(&p));
            map.insert(port, range);
        }
    }
    Ranges { map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, Model, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn analyze(m: Model, opts: RangeOptions) -> (Dfg, IoMappings, Ranges) {
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let maps = IoMappings::derive(&dfg);
        let ranges = determine_ranges(&dfg, &maps, opts);
        (dfg, maps, ranges)
    }

    /// Figure 1 / Figure 5 model: in(50) ⊛ k(11) → selector [5,55) → out.
    fn figure1() -> Model {
        let mut m = Model::new("Convolution");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(50),
            },
        ));
        let k = m.add(Block::new(
            "k",
            BlockKind::Constant {
                value: Tensor::vector(vec![0.1; 11]),
            },
        ));
        let c = m.add(Block::new("conv", BlockKind::Convolution));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 5, end: 55 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, c, 0).unwrap();
        m.connect(k, 0, c, 1).unwrap();
        m.connect(c, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        m
    }

    #[test]
    fn figure5_conv_range_shrinks_to_5_55() {
        // Paper Figure 5 Step 1: the convolution's range goes [0,60) → [5,55).
        let (dfg, _, ranges) = analyze(figure1(), RangeOptions::default());
        let conv = dfg.model().find("conv").unwrap();
        assert_eq!(ranges.out(conv, 0), &IndexSet::from_range(5, 55));
        // the selector still produces its whole (already minimal) output
        let sel = dfg.model().find("sel").unwrap();
        assert_eq!(ranges.out(sel, 0), &IndexSet::full(50));
        // and the model input stays fully needed (same convolution reads all)
        let inp = dfg.model().find("in").unwrap();
        assert_eq!(ranges.out(inp, 0), &IndexSet::full(50));
    }

    #[test]
    fn production_engine_agrees_with_the_reference_on_figure1() {
        let (dfg, maps, rec) = analyze(figure1(), RangeOptions::default());
        assert_eq!(rec, reference_ranges(&dfg, &maps, RangeOptions::default()));
    }

    #[test]
    fn narrower_selector_shrinks_source_too() {
        // selecting deep in the middle lets even the Inport range shrink
        let mut m = Model::new("narrow");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(100),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 40, end: 50 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        let (dfg, _, ranges) = analyze(m, RangeOptions::default());
        let g = dfg.model().find("g").unwrap();
        let i = dfg.model().find("in").unwrap();
        assert_eq!(ranges.out(g, 0), &IndexSet::from_range(40, 50));
        assert_eq!(ranges.out(i, 0), &IndexSet::from_range(40, 50));
    }

    #[test]
    fn fan_out_unions_consumer_needs() {
        // two selectors on the same gain: ranges union
        let mut m = Model::new("fan");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(100),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let s1 = m.add(Block::new(
            "s1",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 0, end: 10 },
            },
        ));
        let s2 = m.add(Block::new(
            "s2",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 50, end: 70 },
            },
        ));
        let o1 = m.add(Block::new("o1", BlockKind::Outport { index: 0 }));
        let o2 = m.add(Block::new("o2", BlockKind::Outport { index: 1 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, s1, 0).unwrap();
        m.connect(g, 0, s2, 0).unwrap();
        m.connect(s1, 0, o1, 0).unwrap();
        m.connect(s2, 0, o2, 0).unwrap();
        let (dfg, _, ranges) = analyze(m, RangeOptions::default());
        let g = dfg.model().find("g").unwrap();
        let expected = IndexSet::from_range(0, 10).union(&IndexSet::from_range(50, 70));
        assert_eq!(ranges.out(g, 0), &expected);
    }

    #[test]
    fn reduction_blocks_stop_propagation() {
        // sum-of-elements downstream forces the full upstream range even
        // though a selector follows the sum
        let mut m = Model::new("red");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(50),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let r = m.add(Block::new("r", BlockKind::SumOfElements));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, r, 0).unwrap();
        m.connect(r, 0, o, 0).unwrap();
        let (dfg, _, ranges) = analyze(m, RangeOptions::default());
        let g = dfg.model().find("g").unwrap();
        assert_eq!(ranges.out(g, 0), &IndexSet::full(50));
    }

    #[test]
    fn terminator_chain_dissolves() {
        // a gain feeding only a terminator computes nothing
        let mut m = Model::new("dead");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(8),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let t = m.add(Block::new("t", BlockKind::Terminator));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, t, 0).unwrap();
        m.connect(i, 0, o, 0).unwrap();
        let (dfg, _, ranges) = analyze(m, RangeOptions::default());
        let g = dfg.model().find("g").unwrap();
        assert!(ranges.out(g, 0).is_empty());
    }

    #[test]
    fn dead_end_default_keeps_full_range() {
        // an unconsumed output port keeps its full range (paper lines 16-18)
        let mut m = Model::new("dangling");
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
        m.connect(i, 0, o, 0).unwrap();
        // g's output goes nowhere
        let (dfg, _, ranges) = analyze(m.clone(), RangeOptions::default());
        let gid = dfg.model().find("g").unwrap();
        assert_eq!(ranges.out(gid, 0), &IndexSet::full(8));

        // ...unless dead-end elimination is on
        let (dfg, _, ranges) = analyze(
            m,
            RangeOptions {
                eliminate_dead_ends: true,
            },
        );
        let gid = dfg.model().find("g").unwrap();
        assert!(ranges.out(gid, 0).is_empty());
    }

    #[test]
    fn delay_feedback_is_fully_maintained() {
        // accumulator: add -> delay -> add; the delay keeps everything alive
        let mut m = Model::new("acc");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(6),
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let z = m.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::vector(vec![0.0; 6]),
            },
        ));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 0, end: 2 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, add, 0).unwrap();
        m.connect(z, 0, add, 1).unwrap();
        m.connect(add, 0, z, 0).unwrap();
        m.connect(add, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        let (dfg, _, ranges) = analyze(m, RangeOptions::default());
        let add = dfg.model().find("add").unwrap();
        // despite the selector, the delay's state keeps the add full
        assert_eq!(ranges.out(add, 0), &IndexSet::full(6));
    }

    #[test]
    fn pad_then_selector_composes() {
        // in(10) -> pad(3,3) -> selector [0, 5) -> out
        // selector needs pad outputs [0,5); pad outputs 0..3 are padding, so
        // the source only needs elements [0, 2)
        let mut m = Model::new("padsel");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(10),
            },
        ));
        let p = m.add(Block::new(
            "p",
            BlockKind::Pad {
                left: 3,
                right: 3,
                value: 0.0,
            },
        ));
        let s = m.add(Block::new(
            "s",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 0, end: 5 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, p, 0).unwrap();
        m.connect(p, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        let (dfg, _, ranges) = analyze(m, RangeOptions::default());
        let i = dfg.model().find("in").unwrap();
        let p = dfg.model().find("p").unwrap();
        assert_eq!(ranges.out(p, 0), &IndexSet::from_range(0, 5));
        assert_eq!(ranges.out(i, 0), &IndexSet::from_range(0, 2));
    }

    #[test]
    fn engines_agree_on_feedback_and_dead_ends() {
        // delay feedback: add -> z -> add, plus a dangling gain
        let mut m = Model::new("acc-dangling");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(6),
            },
        ));
        let add = m.add(Block::new("add", BlockKind::Add));
        let z = m.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::vector(vec![0.0; 6]),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, add, 0).unwrap();
        m.connect(z, 0, add, 1).unwrap();
        m.connect(add, 0, z, 0).unwrap();
        m.connect(add, 0, o, 0).unwrap();
        m.connect(i, 0, g, 0).unwrap(); // g's output dangles
        for eliminate_dead_ends in [false, true] {
            let opts = RangeOptions {
                eliminate_dead_ends,
            };
            let (dfg, maps, rec) = analyze(m.clone(), opts);
            assert_eq!(
                rec,
                reference_ranges(&dfg, &maps, opts),
                "eliminate_dead_ends={eliminate_dead_ends}"
            );
        }
    }

    #[test]
    fn full_ranges_matches_shapes() {
        let dfg = Dfg::new(figure1(), &frodo_obs::Trace::noop()).unwrap();
        let full = full_ranges(&dfg);
        let conv = dfg.model().find("conv").unwrap();
        assert_eq!(full.out(conv, 0), &IndexSet::full(60));
        assert_eq!(full.len(), 4); // in, k, conv, sel (outport has no outputs)
    }
}
