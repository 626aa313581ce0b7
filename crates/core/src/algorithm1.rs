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

use crate::IoMappings;
use frodo_graph::Dfg;
use frodo_model::{BlockId, BlockKind, InPort, OutPort};
use frodo_ranges::{IndexSet, Interval, PortMap, Scratch};
use std::collections::{BTreeMap, HashMap};

/// Tuning knobs for range determination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeOptions {
    /// When `true`, output ports with no consumers get an *empty* range
    /// (dead-code elimination) instead of the paper's conservative full
    /// range. Off by default for paper fidelity.
    pub eliminate_dead_ends: bool,
}

/// Hot-path instrumentation from one range-determination run.
///
/// Exposed so the pipeline can attach the numbers to the `ranges` trace
/// span and the benchmarks can report cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeStats {
    /// I/O-mapping apply-cache hits (identical `(mapping, request)` replayed).
    pub iomap_cache_hits: u64,
    /// I/O-mapping apply-cache misses (result computed and memoized).
    pub iomap_cache_misses: u64,
    /// In-place set operations that stayed in the inline one-interval
    /// representation (no heap touched).
    pub set_ops_inline: u64,
    /// In-place set operations that spilled to the heap scratch buffer.
    pub set_ops_spilled: u64,
}

/// Content-addressed memo of [`PortMap::apply`] results.
///
/// Data-intensive models repeat the same block parameters and shapes many
/// times, and fan-in unions re-request identical ranges, so the non-trivial
/// mappings profit from applying once and replaying. The O(1) mappings
/// (`Elementwise`, `All`, `None`, `Dynamic`) bypass the cache: hashing the
/// request would cost more than the apply itself.
#[derive(Debug, Default)]
struct ApplyCache {
    map: HashMap<PortMap, HashMap<IndexSet, IndexSet>>,
    hits: u64,
    misses: u64,
}

impl ApplyCache {
    fn cacheable(map: &PortMap) -> bool {
        !matches!(
            map,
            PortMap::Elementwise | PortMap::All { .. } | PortMap::None | PortMap::Dynamic { .. }
        )
    }

    /// [`PortMap::apply_into`] through the memo.
    fn apply_into(
        &mut self,
        map: &PortMap,
        request: &IndexSet,
        out: &mut IndexSet,
        scratch: &mut Scratch,
    ) {
        if !Self::cacheable(map) {
            map.apply_into(request, out, scratch);
            return;
        }
        if let Some(hit) = self.map.get(map).and_then(|c| c.get(request)) {
            self.hits += 1;
            out.clone_from(hit);
            return;
        }
        self.misses += 1;
        map.apply_into(request, out, scratch);
        self.map
            .entry(map.clone())
            .or_default()
            .insert(request.clone(), out.clone());
    }
}

/// Reusable per-engine buffers: one warmed-up workspace makes Algorithm 1's
/// inner loop allocation-free in steady state.
#[derive(Debug, Default)]
pub(crate) struct EngineCtx {
    scratch: Scratch,
    need: IndexSet,
    mapped: IndexSet,
    cache: ApplyCache,
}

impl EngineCtx {
    pub(crate) fn stats(&self) -> RangeStats {
        RangeStats {
            iomap_cache_hits: self.cache.hits,
            iomap_cache_misses: self.cache.misses,
            set_ops_inline: self.scratch.stats.inline,
            set_ops_spilled: self.scratch.stats.spilled,
        }
    }
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

/// Computes into `ctx.need` the elements a consumer block needs from one of
/// its input ports, given a lookup of the consumer's own output ranges.
///
/// `ranges_of` may return `None` for a range that is not final yet; that
/// only happens inside delay cycles (whose input requirement is constant
/// anyway), and the full output range is conservatively assumed.
pub(crate) fn input_need_into<'r>(
    dfg: &Dfg,
    maps: &IoMappings,
    ranges_of: &mut dyn FnMut(OutPort) -> Option<&'r IndexSet>,
    port: InPort,
    ctx: &mut EngineCtx,
) {
    let block = port.block;
    let kind = &dfg.model().block(block).kind;
    let in_len = dfg.shapes().input(block, port.port).numel();
    match kind {
        // Model outputs must be produced in full.
        BlockKind::Outport { .. } => ctx.need.set_single(Interval::new(0, in_len)),
        // Discarded data is never needed.
        BlockKind::Terminator => ctx.need.clear(),
        // State must be maintained every step, independent of consumption.
        k if k.is_stateful() => ctx.need.set_single(Interval::new(0, in_len)),
        _ => {
            ctx.need.clear();
            for o in 0..kind.num_outputs() {
                let p = OutPort::new(block, o);
                let full;
                let out_range = match ranges_of(p) {
                    Some(r) => r,
                    None => {
                        // single-interval sets are inline: no allocation
                        full = full_range_of(dfg, p);
                        &full
                    }
                };
                let m = maps.map(block, o, port.port);
                ctx.cache
                    .apply_into(m, out_range, &mut ctx.mapped, &mut ctx.scratch);
                ctx.need.union_with(&ctx.mapped, &mut ctx.scratch);
            }
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
    ctx: &mut EngineCtx,
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
            input_need_into(dfg, maps, ranges_of, c, ctx);
            r.union_with(&ctx.need, &mut ctx.scratch);
        }
        r
    }
}

/// Computes the calculation range of every output port (semantics in the
/// module docs).
pub fn determine_ranges(dfg: &Dfg, maps: &IoMappings, opts: RangeOptions) -> Ranges {
    determine_ranges_with_stats(dfg, maps, opts).0
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

/// [`determine_ranges`] plus the run's hot-path instrumentation
/// ([`RangeStats`]): apply-cache effectiveness and inline-vs-spilled set
/// operations.
///
/// The paper's depth-first traversal from the root blocks:
/// `rangeDetermine` (Algorithm 1 lines 1–13) walks the roots; `recursive`
/// (lines 14–27) computes each block's range from its children's ranges. We
/// memoize per output port so diamonds are computed once, and run the
/// depth-first walk on an explicit work stack so arbitrarily deep models
/// (thousands of chained blocks) cannot overflow the call stack.
pub fn determine_ranges_with_stats(
    dfg: &Dfg,
    maps: &IoMappings,
    opts: RangeOptions,
) -> (Ranges, RangeStats) {
    let mut memo: BTreeMap<OutPort, IndexSet> = BTreeMap::new();
    let mut ctx = EngineCtx::default();

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
                let range = port_range(
                    dfg,
                    maps,
                    opts,
                    port,
                    &mut |p| Some(memo.get(&p).expect("child ranges are final before Finish")),
                    &mut ctx,
                );
                memo.insert(port, range);
            }
        }
    }
    let stats = ctx.stats();
    (Ranges { map: memo }, stats)
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
    let mut ctx = EngineCtx::default();
    for &id in order.iter().rev() {
        let n_out = dfg.model().block(id).kind.num_outputs();
        for o in 0..n_out {
            let port = OutPort::new(id, o);
            // A consumer not yet final (`None`) can only be a delay cycle,
            // whose input need ignores the looked-up value.
            let range = port_range(dfg, maps, opts, port, &mut |p| map.get(&p), &mut ctx);
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
                ..Default::default()
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
    fn apply_cache_replays_identical_requests() {
        // three identical selectors fanned out from one gain: the first
        // consumer's (map, request) pair is computed, the rest replay it
        let mut m = Model::new("cache");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(100),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        m.connect(i, 0, g, 0).unwrap();
        for k in 0..3 {
            let s = m.add(Block::new(
                format!("s{k}"),
                BlockKind::Selector {
                    mode: SelectorMode::StartEnd { start: 10, end: 30 },
                },
            ));
            let o = m.add(Block::new(format!("o{k}"), BlockKind::Outport { index: k }));
            m.connect(g, 0, s, 0).unwrap();
            m.connect(s, 0, o, 0).unwrap();
        }
        let dfg = Dfg::new(m, &frodo_obs::Trace::noop()).unwrap();
        let maps = IoMappings::derive(&dfg);
        let (_, stats) = determine_ranges_with_stats(&dfg, &maps, RangeOptions::default());
        assert!(
            stats.iomap_cache_hits >= 2,
            "identical selector requests should hit: {stats:?}"
        );
        assert!(stats.iomap_cache_misses >= 1);
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
