//! Engine agreement on every bundled benchmark model and on two larger
//! random models: the production recursion (Algorithm 1), the reference
//! reverse-topological sweep, and the region-incremental engine compute
//! identical `Ranges`, with dead-end elimination off and on.

use frodo::core::incremental::{analyze_incremental, RegionCache};
use frodo::core::{determine_ranges, reference_ranges, IoMappings, RangeOptions};
use frodo::graph::Dfg;
use frodo::model::Model;

fn subjects() -> Vec<(String, Model)> {
    let mut out: Vec<(String, Model)> = frodo::benchmodels::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.model))
        .collect();
    for (seed, size) in [(3, 60), (11, 500)] {
        out.push((
            format!("random_s{seed}_n{size}"),
            frodo::benchmodels::random::random_model(seed, size),
        ));
    }
    out
}

#[test]
fn all_three_engines_agree_on_every_benchmark_model() {
    for (name, model) in subjects() {
        let dfg = Dfg::new(
            model.flattened(&frodo_obs::Trace::noop()).unwrap(),
            &frodo_obs::Trace::noop(),
        )
        .unwrap();
        let maps = IoMappings::derive(&dfg);
        for eliminate_dead_ends in [false, true] {
            let options = RangeOptions {
                eliminate_dead_ends,
            };
            let production = determine_ranges(&dfg, &maps, options);
            let reference = reference_ranges(&dfg, &maps, options);
            assert_eq!(
                production, reference,
                "{name}: reference sweep diverged (dead_ends = {eliminate_dead_ends})"
            );
            for region_max in [1, 24, 0] {
                let incremental = analyze_incremental(
                    model.clone(),
                    options,
                    region_max,
                    &mut RegionCache::new(),
                    &frodo_obs::Trace::noop(),
                )
                .unwrap();
                assert_eq!(
                    incremental.analysis.ranges(),
                    &production,
                    "{name}: incremental engine diverged at region_max = {region_max} \
                     (dead_ends = {eliminate_dead_ends})"
                );
            }
        }
    }
}
