//! Incremental range analysis at region granularity.
//!
//! [`analyze_incremental`] produces the same [`Analysis`] artifact as
//! [`Analysis::run_traced`], but computes Algorithm 1 region by region
//! (see [`frodo_graph::partition_regions`]) and caches each region's
//! calculation ranges in a caller-owned [`RegionCache`]. Resubmitting an
//! edited model re-runs Algorithm 1 only on the regions whose *content*
//! or *boundary demand* changed — on a one-block edit of a large model
//! that is typically a single region.
//!
//! Soundness rests on two facts:
//!
//! - A region's ranges are a pure function of (a) the region's content —
//!   its blocks' kinds, parameters, names, wiring, and port shapes — and
//!   (b) the demand at its boundary: what each external consumer needs
//!   from the region's output ports. Both are digested into the cache
//!   key, together with the options that shape ranges.
//! - The partition's emission order finalizes every external consumer's
//!   ranges before a region is processed (consumers sit in earlier-or-same
//!   chunks of the same component; cross-component consumers are
//!   *independent* and contribute only their kind and input length).
//!
//! Cached entries are keyed by a 128-bit FNV-1a digest and store the
//! ranges of every output port in the region, so a hit replays the whole
//! region without touching [`port_range`].
//!
//! [`port_range`]: crate::algorithm1

use crate::algorithm1::{full_range_of, port_range};
use crate::{Analysis, IoMappings, OptimizationReport, RangeOptions, Ranges};
use frodo_graph::{partition_regions, Dfg, RegionPartition};
use frodo_model::{BlockId, BlockKind, InPort, Model, ModelError, OutPort};
use frodo_obs::Trace;
use frodo_ranges::IndexSet;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// 128-bit FNV-1a, used for every region digest here and for the
/// lowered-fragment keys in `frodo-codegen`. Wide enough that a silent
/// collision (which would replay wrong ranges or statements) is not a
/// practical concern, cheap enough to run over every block of every
/// submission.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in an index set: its interval count, then each interval's
    /// start and end.
    pub fn write_ranges(&mut self, set: &IndexSet) {
        self.write_usize(set.intervals().len());
        for iv in set.intervals() {
            self.write_usize(iv.start);
            self.write_usize(iv.end);
        }
    }

    /// The full 128-bit digest.
    pub fn finish(self) -> u128 {
        self.0
    }
}

/// A digest of no bytes yet.
impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128(Self::OFFSET)
    }
}

/// Takes the model's value walk ([`frodo_model::Block::digest_into`]) and
/// derived `Hash` impls (shapes, port maps): `write` folds the bytes in,
/// and integers go in at a fixed little-endian width.
impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn write_usize(&mut self, v: usize) {
        self.update(&(v as u64).to_le_bytes());
    }

    fn write_u128(&mut self, v: u128) {
        self.update(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0 as u64
    }
}

/// A caller-owned cache of per-region range results, keyed by the region's
/// combined content ⊕ demand ⊕ options digest. Owned by a compile session
/// and carried across submissions; never shared between sessions with
/// different keyed options.
#[derive(Debug, Default)]
pub struct RegionCache {
    map: HashMap<u128, Vec<(OutPort, IndexSet)>>,
}

impl RegionCache {
    /// An empty cache.
    pub fn new() -> Self {
        RegionCache::default()
    }

    /// Number of cached regions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Region-cache effectiveness of one [`analyze_incremental`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Regions the model was partitioned into.
    pub regions: u64,
    /// Regions whose ranges were replayed from the cache.
    pub hits: u64,
    /// Regions recomputed (the *dirty cone* of the edit).
    pub misses: u64,
    /// Blocks inside the recomputed regions.
    pub dirty_blocks: u64,
}

impl IncrementalStats {
    /// Hit fraction in `[0, 1]`; `1.0` for an empty partition.
    pub fn hit_rate(&self) -> f64 {
        if self.regions == 0 {
            1.0
        } else {
            self.hits as f64 / self.regions as f64
        }
    }
}

/// One region of the analyzed model: its blocks (in intra-region
/// dependency order) and its content digest. Code generation keys its
/// per-region fragment cache off these.
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// The region's blocks, sorted so consumers precede producers.
    pub blocks: Vec<BlockId>,
    /// 128-bit digest of the region's content (block kinds, parameters,
    /// names, wiring, and port shapes).
    pub content: u128,
}

/// The result of one incremental analysis pass: the standard [`Analysis`]
/// artifact plus the region partition and cache statistics.
#[derive(Debug)]
pub struct IncrementalAnalysis {
    /// The analysis, identical to what [`Analysis::run_traced`] produces
    /// for the same model and options.
    pub analysis: Analysis,
    /// Region-cache effectiveness of this pass.
    pub stats: IncrementalStats,
    /// The regions, in the partition's processing order.
    pub regions: Vec<RegionInfo>,
}

/// Digest of one block's analysis-relevant content: identity, name and
/// kind with every parameter (the model's value walk,
/// [`frodo_model::Block::digest_into`], which keeps `-0.0` and `0.0`
/// apart), input wiring, and port shapes.
fn block_digest(dfg: &Dfg, id: BlockId) -> u128 {
    let block = dfg.model().block(id);
    let mut h = Fnv128::default();
    h.write_usize(id.index());
    block.digest_into(&mut h);
    for p in 0..block.kind.num_inputs() {
        let src = dfg.source_of(InPort::new(id, p));
        h.write_usize(src.block.index());
        h.write_usize(src.port);
        dfg.shapes().input(id, p).hash(&mut h);
    }
    for o in 0..block.kind.num_outputs() {
        dfg.shapes().output(id, o).hash(&mut h);
    }
    h.finish()
}

/// Digest of the demand at a region's boundary: for every output port of
/// the region, what each *external* consumer contributes to its range.
/// Independent consumers (sinks, stateful blocks) contribute a class tag
/// and input length; dependent external consumers contribute their I/O
/// mappings and their (already final) output ranges — exactly the inputs
/// [`port_range`] reads.
///
/// [`port_range`]: crate::algorithm1
fn demand_digest(
    dfg: &Dfg,
    maps: &IoMappings,
    partition: &RegionPartition,
    region_idx: usize,
    blocks: &[BlockId],
    ranges: &BTreeMap<OutPort, IndexSet>,
) -> u128 {
    let mut h = Fnv128::default();
    for &b in blocks {
        for o in 0..dfg.model().block(b).kind.num_outputs() {
            let port = OutPort::new(b, o);
            let consumers = dfg.consumers_of(port);
            h.write_usize(consumers.len());
            for &c in consumers {
                if partition.region_of(c.block) == region_idx {
                    // internal demand is covered by the content digest
                    h.update(b"i");
                    continue;
                }
                let kind = &dfg.model().block(c.block).kind;
                match kind {
                    BlockKind::Outport { .. } => {
                        h.update(b"O");
                        h.write_usize(dfg.shapes().input(c.block, c.port).numel());
                    }
                    BlockKind::Terminator => h.update(b"T"),
                    k if k.is_stateful() => {
                        h.update(b"S");
                        h.write_usize(dfg.shapes().input(c.block, c.port).numel());
                    }
                    k => {
                        h.update(b"D");
                        h.write_usize(c.block.index());
                        h.write_usize(c.port);
                        for o2 in 0..k.num_outputs() {
                            let p2 = OutPort::new(c.block, o2);
                            maps.map(c.block, o2, c.port).hash(&mut h);
                            match ranges.get(&p2) {
                                Some(r) => h.write_ranges(r),
                                // mirrors the conservative full-range
                                // fallback the compute path would take
                                None => h.write_ranges(&full_range_of(dfg, p2)),
                            }
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

/// Runs the full analysis pipeline with region-cached range
/// determination. Produces an [`Analysis`] identical to
/// [`Analysis::run_traced`] with the same model and options (the
/// regional walk implements the same per-port computation), while
/// re-running Algorithm 1 only on regions missing from `cache`.
///
/// Recorded on `trace`: the standard `flatten`/`dfg`/`iomap`/`ranges`/
/// `classify` spans, with `region_total`, `region_hits`, `region_misses`,
/// and `region_dirty_blocks` counters added to the `ranges` span.
///
/// `region_max` bounds region size in blocks (`0` = one region per
/// connected component); smaller regions shrink the dirty cone of an edit
/// but key more entries.
///
/// # Errors
///
/// Propagates model flattening/validation/shape-inference failures.
pub fn analyze_incremental(
    model: Model,
    options: RangeOptions,
    region_max: usize,
    cache: &mut RegionCache,
    trace: &Trace,
) -> Result<IncrementalAnalysis, ModelError> {
    let dfg = Dfg::new(model, trace)?;
    let mappings = {
        let _span = trace.span("iomap");
        IoMappings::derive(&dfg)
    };

    let span = trace.span("ranges");
    let partition = partition_regions(&dfg, region_max)?;
    // every option that shapes range results
    let options_digest = {
        let mut h = Fnv128::default();
        h.update(b"regions-v1");
        h.update(if options.eliminate_dead_ends {
            b"1"
        } else {
            b"0"
        });
        h.finish()
    };

    let mut regions = Vec::with_capacity(partition.len());
    for blocks in partition.regions() {
        let mut h = Fnv128::default();
        h.write_usize(blocks.len());
        for &b in blocks {
            h.write_u128(block_digest(&dfg, b));
        }
        regions.push(RegionInfo {
            blocks: blocks.clone(),
            content: h.finish(),
        });
    }

    let mut map: BTreeMap<OutPort, IndexSet> = BTreeMap::new();
    let mut stats = IncrementalStats {
        regions: partition.len() as u64,
        ..IncrementalStats::default()
    };
    for (idx, info) in regions.iter().enumerate() {
        let key = {
            let mut h = Fnv128::default();
            h.write_u128(info.content);
            h.write_u128(demand_digest(
                &dfg,
                &mappings,
                &partition,
                idx,
                &info.blocks,
                &map,
            ));
            h.write_u128(options_digest);
            h.finish()
        };
        if let Some(entries) = cache.map.get(&key) {
            stats.hits += 1;
            for (port, range) in entries {
                map.insert(*port, range.clone());
            }
            continue;
        }
        stats.misses += 1;
        stats.dirty_blocks += info.blocks.len() as u64;
        let mut computed = Vec::new();
        for &b in &info.blocks {
            for o in 0..dfg.model().block(b).kind.num_outputs() {
                let port = OutPort::new(b, o);
                // a gap (`None`) never occurs for a dependent consumer —
                // the partition order finalizes them first — so this is
                // the same conservative fallback the engines use inside
                // delay cycles
                let r = port_range(&dfg, &mappings, options, port, &mut |p| map.get(&p));
                map.insert(port, r.clone());
                computed.push((port, r));
            }
        }
        cache.map.insert(key, computed);
    }
    span.count("region_total", stats.regions);
    span.count("region_hits", stats.hits);
    span.count("region_misses", stats.misses);
    span.count("region_dirty_blocks", stats.dirty_blocks);
    let ranges = Ranges::from_map(map);
    drop(span);

    let report = {
        let span = trace.span("classify");
        let report = OptimizationReport::build(&dfg, &ranges);
        span.count("blocks_analyzed", report.stats().len() as u64);
        span.count(
            "blocks_optimizable",
            report.optimizable_blocks().len() as u64,
        );
        span.count("elements_total", report.total_elements() as u64);
        span.count("elements_eliminated", report.total_eliminated() as u64);
        report
    };

    Ok(IncrementalAnalysis {
        analysis: Analysis::from_parts(dfg, mappings, ranges, report, options),
        stats,
        regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{Block, SelectorMode, Tensor};
    use frodo_ranges::Shape;

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
    fn incremental_matches_the_monolithic_pipeline() {
        let cold = Analysis::run(figure1()).unwrap();
        let mut cache = RegionCache::new();
        for region_max in [1, 2, 4, 0] {
            let inc = analyze_incremental(
                figure1(),
                RangeOptions::default(),
                region_max,
                &mut RegionCache::new(),
                &Trace::noop(),
            )
            .unwrap();
            assert_eq!(
                inc.analysis.ranges(),
                cold.ranges(),
                "region_max={region_max}"
            );
            assert_eq!(inc.analysis.report(), cold.report());
        }
        // and a second identical submission hits every region
        let first = analyze_incremental(
            figure1(),
            RangeOptions::default(),
            2,
            &mut cache,
            &Trace::noop(),
        )
        .unwrap();
        assert_eq!(first.stats.hits, 0);
        let again = analyze_incremental(
            figure1(),
            RangeOptions::default(),
            2,
            &mut cache,
            &Trace::noop(),
        )
        .unwrap();
        assert_eq!(again.stats.misses, 0);
        assert_eq!(again.stats.hits, again.stats.regions);
        assert_eq!(again.analysis.ranges(), cold.ranges());
    }

    #[test]
    fn param_edit_dirties_only_the_edited_region() {
        // a long gain chain: editing one gain's parameter changes neither
        // ranges nor demand anywhere else, so exactly one region misses
        let chain = |edited_gain: f64| {
            let mut m = Model::new("chain");
            let mut prev = m.add(Block::new(
                "in",
                BlockKind::Inport {
                    index: 0,
                    shape: Shape::Vector(16),
                },
            ));
            for k in 0..12 {
                let gain = if k == 6 { edited_gain } else { 2.0 };
                let g = m.add(Block::new(format!("g{k}"), BlockKind::Gain { gain }));
                m.connect(prev, 0, g, 0).unwrap();
                prev = g;
            }
            let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
            m.connect(prev, 0, o, 0).unwrap();
            m
        };
        let mut cache = RegionCache::new();
        let opts = RangeOptions::default();
        let cold = analyze_incremental(chain(2.0), opts, 3, &mut cache, &Trace::noop()).unwrap();
        assert!(cold.stats.regions >= 4);
        let warm = analyze_incremental(chain(9.0), opts, 3, &mut cache, &Trace::noop()).unwrap();
        assert_eq!(warm.stats.misses, 1, "{:?}", warm.stats);
        assert_eq!(warm.stats.dirty_blocks, 3);
        // the ranges still match a cold monolithic run of the edited model
        let reference = Analysis::run_with(chain(9.0), opts).unwrap();
        assert_eq!(warm.analysis.ranges(), reference.ranges());
    }

    #[test]
    fn demand_change_propagates_past_unchanged_regions() {
        // in -> g0 -> g1 -> ... -> sel -> out, one block per region: when
        // the selector narrows, every upstream gain's range must change
        // even though no upstream region's content changed
        let chain = |end: usize| {
            let mut m = Model::new("demand");
            let mut prev = m.add(Block::new(
                "in",
                BlockKind::Inport {
                    index: 0,
                    shape: Shape::Vector(32),
                },
            ));
            for k in 0..5 {
                let g = m.add(Block::new(format!("g{k}"), BlockKind::Gain { gain: 2.0 }));
                m.connect(prev, 0, g, 0).unwrap();
                prev = g;
            }
            let s = m.add(Block::new(
                "sel",
                BlockKind::Selector {
                    mode: SelectorMode::StartEnd { start: 0, end },
                },
            ));
            m.connect(prev, 0, s, 0).unwrap();
            let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
            m.connect(s, 0, o, 0).unwrap();
            m
        };
        let mut cache = RegionCache::new();
        let opts = RangeOptions::default();
        analyze_incremental(chain(20), opts, 1, &mut cache, &Trace::noop()).unwrap();
        let warm = analyze_incremental(chain(8), opts, 1, &mut cache, &Trace::noop()).unwrap();
        // every gain (and the input) saw new demand: nothing upstream of
        // the selector may replay stale ranges
        let reference = Analysis::run_with(chain(8), opts).unwrap();
        assert_eq!(warm.analysis.ranges(), reference.ranges());
        let dfg = warm.analysis.dfg();
        for k in 0..5 {
            let g = dfg.model().find(&format!("g{k}")).unwrap();
            assert_eq!(
                warm.analysis.range(g, 0),
                &IndexSet::from_range(0, 8),
                "g{k} must shrink to the new selector window"
            );
        }
    }

    #[test]
    fn options_split_the_region_cache() {
        // dead-end elimination changes consumer-less ranges, so flipping
        // it must never replay entries keyed under the other setting
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
        let mut cache = RegionCache::new();
        let keep = analyze_incremental(
            m.clone(),
            RangeOptions::default(),
            0,
            &mut cache,
            &Trace::noop(),
        )
        .unwrap();
        let gid = keep.analysis.dfg().model().find("g").unwrap();
        assert_eq!(keep.analysis.range(gid, 0), &IndexSet::full(8));
        let eliminate = analyze_incremental(
            m,
            RangeOptions {
                eliminate_dead_ends: true,
            },
            0,
            &mut cache,
            &Trace::noop(),
        )
        .unwrap();
        assert!(eliminate.analysis.range(gid, 0).is_empty());
    }

    #[test]
    fn incremental_records_region_counters() {
        let trace = Trace::new();
        let mut cache = RegionCache::new();
        analyze_incremental(figure1(), RangeOptions::default(), 2, &mut cache, &trace).unwrap();
        assert!(trace.counter_total("region_total") >= 2);
        assert_eq!(
            trace.counter_total("region_misses"),
            trace.counter_total("region_total")
        );
        assert!(trace.counter_total("region_dirty_blocks") >= 5);
        let snap = trace.snapshot();
        for stage in ["flatten", "dfg", "iomap", "ranges", "classify"] {
            assert!(
                snap.spans.iter().any(|s| s.name == stage),
                "missing {stage} span"
            );
        }
    }
}
