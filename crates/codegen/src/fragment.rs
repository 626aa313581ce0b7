//! Region-fragment caching for incremental code generation.
//!
//! [`generate_from_fragments`] produces the same [`Program`] as
//! [`generate_with`] for the same analysis, but lowers block bodies region
//! by region (the regions come from `frodo_core::incremental`) and caches
//! each region's lowered statements in a caller-owned [`FragmentCache`].
//! On resubmission only the regions whose content, calculation ranges, or
//! buffer assignment changed are re-lowered; everything else is stitched
//! back from the cache.
//!
//! Byte-identity with a cold compile holds because:
//!
//! - buffer allocation always re-runs (it is deterministic in model
//!   iteration order, so an unchanged model reproduces the exact `BufId`
//!   assignment the cached statements refer to — and the fragment key pins
//!   every `BufId` a fragment's statements can mention, so a *changed*
//!   assignment misses the cache instead of replaying stale operands);
//! - `lower_block` emits a block's statements as a pure function of the
//!   analysis, so per-block statement lists can be computed in any order
//!   and stitched back in schedule order, exactly where a monolithic
//!   lowering would have put them;
//! - state loads/stores and final C emission always re-run.
//!
//! [`generate_with`]: crate::generate_with

use crate::lir::{Program, Stmt};
use crate::lower::Lowerer;
use crate::{GeneratorStyle, LowerOptions};
use frodo_core::incremental::{Fnv128, RegionInfo};
use frodo_core::{full_ranges, Analysis, Ranges};
use frodo_model::{BlockId, InPort, OutPort};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;

/// A caller-owned cache of lowered region fragments. Owned by a compile
/// session alongside the region range cache; never shared between
/// sessions with different styles or lowering options (the key includes
/// both, so sharing would merely never hit).
#[derive(Debug, Default)]
pub struct FragmentCache {
    /// key → per-block statement lists, parallel to the region's blocks.
    map: HashMap<u128, Vec<Vec<Stmt>>>,
}

impl FragmentCache {
    /// An empty cache.
    pub fn new() -> Self {
        FragmentCache::default()
    }

    /// Number of cached region fragments.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Fragment-cache effectiveness of one [`generate_from_fragments`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragmentStats {
    /// Regions lowered (or replayed) this run.
    pub regions: u64,
    /// Regions stitched straight from the cache.
    pub hits: u64,
    /// Regions re-lowered.
    pub misses: u64,
}

/// Cache key of one region's lowered fragment: the region's content
/// digest, the calculation ranges its statements depend on (its own
/// blocks' output ranges plus the ranges of the source ports feeding its
/// inputs — `Mux`/`Concatenate` clamp copies to what the producer
/// writes), every `BufId` its statements can mention, and the
/// style/lowering options that shape statement emission.
fn fragment_key(
    analysis: &Analysis,
    lw: &Lowerer<'_>,
    style: GeneratorStyle,
    opts: LowerOptions,
    ranges: &Ranges,
    info: &RegionInfo,
) -> u128 {
    let dfg = analysis.dfg();
    let mut h = Fnv128::default();
    h.write_u128(info.content);
    h.write(style.label().as_bytes());
    h.write_usize(opts.coalesce_gap);
    let buf = |h: &mut Fnv128, b: Option<crate::lir::BufId>| match b {
        Some(id) => h.write_usize(id.0 + 1),
        None => h.write_usize(0),
    };
    for &b in &info.blocks {
        let kind = &dfg.model().block(b).kind;
        for o in 0..kind.num_outputs() {
            h.write_ranges(ranges.out(b, o));
            buf(&mut h, lw.out_buf_of(OutPort::new(b, o)));
        }
        // Outports stash their buffer under a sentinel port
        buf(&mut h, lw.out_buf_of(OutPort::new(b, usize::MAX)));
        buf(&mut h, lw.state_buf_of(b));
        buf(&mut h, lw.fir_coeffs_of(b));
        for p in 0..kind.num_inputs() {
            let src = dfg.source_of(InPort::new(b, p));
            h.write_ranges(ranges.out(src.block, src.port));
            buf(&mut h, Some(lw.input_buf(InPort::new(b, p))));
        }
    }
    h.finish()
}

/// Generates a program like [`generate_with`], but lowering region by
/// region against `cache`: a region whose key matches a cached entry is
/// stitched from its cached statements without re-lowering. `regions`
/// must be the partition of `analysis`'s model (as produced by
/// `frodo_core::incremental::analyze_incremental` on the same
/// submission).
///
/// Recorded as a `lower` span with the standard `stmts` /
/// `computed_elements` counters plus `fragment_total`, `fragment_hits`,
/// and `fragment_misses`.
///
/// [`generate_with`]: crate::generate_with
pub fn generate_from_fragments(
    analysis: &Analysis,
    style: GeneratorStyle,
    opts: LowerOptions,
    regions: &[RegionInfo],
    cache: &mut FragmentCache,
    trace: &frodo_obs::Trace,
) -> (Program, FragmentStats) {
    let span = trace.span("lower");
    let mut lw = Lowerer::new(analysis, style, opts);
    lw.alloc_buffers();

    let full;
    let ranges: &Ranges = if style.uses_ranges() {
        analysis.ranges()
    } else {
        full = full_ranges(analysis.dfg());
        &full
    };

    lw.push_state_loads();

    let mut stats = FragmentStats {
        regions: regions.len() as u64,
        ..FragmentStats::default()
    };
    let mut by_block: BTreeMap<BlockId, Vec<Stmt>> = BTreeMap::new();
    for info in regions {
        let key = fragment_key(analysis, &lw, style, opts, ranges, info);
        if let Some(frags) = cache.map.get(&key) {
            stats.hits += 1;
            for (&b, stmts) in info.blocks.iter().zip(frags) {
                by_block.insert(b, stmts.clone());
            }
            continue;
        }
        stats.misses += 1;
        let mut frags = Vec::with_capacity(info.blocks.len());
        for &b in &info.blocks {
            let mark = lw.stmt_mark();
            lw.lower_block(b, ranges);
            frags.push(lw.drain_stmts_from(mark));
        }
        for (&b, stmts) in info.blocks.iter().zip(&frags) {
            by_block.insert(b, stmts.clone());
        }
        cache.map.insert(key, frags);
    }

    // stitch per-block statements back in schedule order — exactly where
    // a monolithic lowering would have emitted them
    let order = analysis
        .dfg()
        .schedule()
        .expect("valid Dfg always schedules");
    for id in order {
        if let Some(stmts) = by_block.get(&id) {
            lw.push_stmts(stmts);
        }
    }

    lw.push_state_stores();
    let program = lw.into_program();
    span.count("stmts", program.stmts.len() as u64);
    span.count("computed_elements", program.computed_elements() as u64);
    span.count("fragment_total", stats.regions);
    span.count("fragment_hits", stats.hits);
    span.count("fragment_misses", stats.misses);
    (program, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_with;
    use frodo_core::incremental::{analyze_incremental, RegionCache};
    use frodo_core::RangeOptions;
    use frodo_model::{Block, BlockKind, Model, SelectorMode, Tensor};
    use frodo_obs::Trace;
    use frodo_ranges::Shape;

    fn figure1(gain: f64) -> Model {
        let mut m = Model::new("conv");
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
        let g = m.add(Block::new("g", BlockKind::Gain { gain }));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 5, end: 55 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, c, 0).unwrap();
        m.connect(k, 0, c, 1).unwrap();
        m.connect(c, 0, g, 0).unwrap();
        m.connect(g, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        m
    }

    #[test]
    fn fragments_reproduce_monolithic_lowering_exactly() {
        for style in GeneratorStyle::ALL {
            let inc = analyze_incremental(
                figure1(2.0),
                RangeOptions::default(),
                2,
                &mut RegionCache::new(),
                &Trace::noop(),
            )
            .unwrap();
            let mono = generate_with(
                &inc.analysis,
                style,
                LowerOptions::default(),
                &Trace::noop(),
            );
            let (stitched, stats) = generate_from_fragments(
                &inc.analysis,
                style,
                LowerOptions::default(),
                &inc.regions,
                &mut FragmentCache::new(),
                &Trace::noop(),
            );
            assert_eq!(stitched, mono, "style {style:?}");
            assert_eq!(stats.hits, 0);
        }
    }

    #[test]
    fn identical_resubmission_hits_every_fragment() {
        let mut rc = RegionCache::new();
        let mut fc = FragmentCache::new();
        let style = GeneratorStyle::Frodo;
        for round in 0..2 {
            let inc = analyze_incremental(
                figure1(2.0),
                RangeOptions::default(),
                2,
                &mut rc,
                &Trace::noop(),
            )
            .unwrap();
            let (_, stats) = generate_from_fragments(
                &inc.analysis,
                style,
                LowerOptions::default(),
                &inc.regions,
                &mut fc,
                &Trace::noop(),
            );
            if round == 1 {
                assert_eq!(stats.misses, 0);
                assert_eq!(stats.hits, stats.regions);
            }
        }
    }

    #[test]
    fn param_edit_relowers_only_the_dirty_region_but_matches_cold() {
        let mut rc = RegionCache::new();
        let mut fc = FragmentCache::new();
        let style = GeneratorStyle::Frodo;
        let warm_up = analyze_incremental(
            figure1(2.0),
            RangeOptions::default(),
            1,
            &mut rc,
            &Trace::noop(),
        )
        .unwrap();
        generate_from_fragments(
            &warm_up.analysis,
            style,
            LowerOptions::default(),
            &warm_up.regions,
            &mut fc,
            &Trace::noop(),
        );
        let edited = analyze_incremental(
            figure1(3.5),
            RangeOptions::default(),
            1,
            &mut rc,
            &Trace::noop(),
        )
        .unwrap();
        let (stitched, stats) = generate_from_fragments(
            &edited.analysis,
            style,
            LowerOptions::default(),
            &edited.regions,
            &mut fc,
            &Trace::noop(),
        );
        assert!(stats.hits > 0, "{stats:?}");
        assert!(stats.misses < stats.regions, "{stats:?}");
        let cold = generate_with(
            &edited.analysis,
            style,
            LowerOptions::default(),
            &Trace::noop(),
        );
        assert_eq!(stitched, cold);
    }
}
