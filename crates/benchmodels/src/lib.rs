//! The paper's Table-1 benchmark suite, reconstructed.
//!
//! Ten data-intensive Simulink models "collected from industry" (paper §4).
//! The originals are proprietary; these reconstructions preserve what the
//! evaluation depends on — the stated functionality, the block count of
//! Table 1, and the data-intensive structure (large vector/matrix signals
//! flowing through convolutions, filters, and matrix operations, truncated
//! by `Selector`/`Pad`/`Submatrix` blocks so redundancy elimination has the
//! leverage the paper reports).
//!
//! # Example
//!
//! ```
//! use frodo_benchmodels::{all, table1};
//!
//! let suite = all();
//! assert_eq!(suite.len(), 10);
//! for (bench, row) in suite.iter().zip(table1()) {
//!     assert_eq!(bench.model.deep_len(), row.blocks);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audio;
mod back;
mod decryption;
mod highpass;
mod ht;
mod kalman;
mod maintenance;
mod manufacture;
pub mod random;
mod runningdiff;
mod simpson;

pub use audio::audio_process;
pub use back::back;
pub use decryption::decryption;
pub use highpass::high_pass;
pub use ht::hermitian_transpose;
pub use kalman::kalman;
pub use maintenance::maintenance;
pub use manufacture::manufacture;
pub use runningdiff::running_diff;
pub use simpson::simpson;

use frodo_model::Model;

/// One row of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Model name as printed in the paper.
    pub name: &'static str,
    /// The paper's functionality description.
    pub functionality: &'static str,
    /// The paper's `#Block` column.
    pub blocks: usize,
}

/// The paper's Table 1, verbatim.
pub fn table1() -> [Table1Row; 10] {
    [
        Table1Row {
            name: "AudioProcess",
            functionality: "Vehicle audio analysis",
            blocks: 51,
        },
        Table1Row {
            name: "Decryption",
            functionality: "Decryption protocol",
            blocks: 39,
        },
        Table1Row {
            name: "HighPass",
            functionality: "HighPass filter model",
            blocks: 49,
        },
        Table1Row {
            name: "HT",
            functionality: "Hermitian transpose matrix calculation",
            blocks: 26,
        },
        Table1Row {
            name: "Kalman",
            functionality: "Automotive temperature control module",
            blocks: 46,
        },
        Table1Row {
            name: "Back",
            functionality: "Backpropagation in the CNN model",
            blocks: 24,
        },
        Table1Row {
            name: "Maintenance",
            functionality: "Industry equipment preservation model",
            blocks: 165,
        },
        Table1Row {
            name: "Maunfacture", // sic — the paper's own spelling
            functionality: "Product quality assessment model",
            blocks: 29,
        },
        Table1Row {
            name: "RunningDiff",
            functionality: "Differential amplifier",
            blocks: 106,
        },
        Table1Row {
            name: "Simpson",
            functionality: "Numerical integration model",
            blocks: 30,
        },
    ]
}

/// A benchmark entry: the Table-1 row plus the reconstructed model.
#[derive(Debug, Clone)]
pub struct BenchModel {
    /// Model name (Table 1).
    pub name: &'static str,
    /// Functionality description (Table 1).
    pub functionality: &'static str,
    /// The reconstructed model.
    pub model: Model,
}

/// Each Table-1 row with the builder of its model, in Table-1 order.
fn rows_with_builders() -> impl Iterator<Item = (Table1Row, fn() -> Model)> {
    let builders: [fn() -> Model; 10] = [
        audio_process,
        decryption,
        high_pass,
        hermitian_transpose,
        kalman,
        back,
        maintenance,
        manufacture,
        running_diff,
        simpson,
    ];
    table1().into_iter().zip(builders)
}

#[cfg(test)]
thread_local! {
    /// Models [`build`] made on this thread, so a test can count them.
    static BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn build((row, model): (Table1Row, fn() -> Model)) -> BenchModel {
    #[cfg(test)]
    BUILT.with(|n| n.set(n.get() + 1));
    BenchModel {
        name: row.name,
        functionality: row.functionality,
        model: model(),
    }
}

/// The full suite, in Table-1 order.
pub fn all() -> Vec<BenchModel> {
    rows_with_builders().map(build).collect()
}

/// Looks up one benchmark by (case-insensitive) name, building only its
/// model.
pub fn by_name(name: &str) -> Option<BenchModel> {
    rows_with_builders()
        .find(|(row, _)| row.name.eq_ignore_ascii_case(name))
        .map(build)
}

/// Resolves a model *spec*: either a Table-1 benchmark name (via
/// [`by_name`]) or a synthetic-model spec of the form
/// `random:<seed>:<size>` — optionally `random:<seed>:<size>:edit:<k>`
/// for the same model with its `k`-th `Gain` parameter perturbed
/// ([`random::random_model_edited`]). Specs are how the CLI's batch and
/// serve paths name reproducible synthetic workloads, including the
/// cold-vs-incremental pairs the CI gate compiles.
///
/// Returns `None` for an unknown name or a malformed `random:` spec.
pub fn by_spec(spec: &str) -> Option<Model> {
    if let Some(rest) = spec.strip_prefix("random:") {
        let parts: Vec<&str> = rest.split(':').collect();
        let (seed, size) = match parts.as_slice() {
            [seed, size] | [seed, size, "edit", _] => {
                (seed.parse::<u64>().ok()?, size.parse::<usize>().ok()?)
            }
            _ => return None,
        };
        return Some(match parts.as_slice() {
            [_, _, "edit", k] => random::random_model_edited(seed, size, k.parse().ok()?),
            _ => random::random_model(seed, size),
        });
    }
    by_name(spec).map(|b| b.model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counts_match_table1() {
        for (bench, row) in all().iter().zip(table1()) {
            assert_eq!(
                bench.model.deep_len(),
                row.blocks,
                "{} should have {} blocks, found {}",
                row.name,
                row.blocks,
                bench.model.deep_len()
            );
        }
    }

    #[test]
    fn every_model_analyzes() {
        for bench in all() {
            let analysis = frodo_core::Analysis::run(bench.model.clone())
                .unwrap_or_else(|e| panic!("{} fails analysis: {e}", bench.name));
            assert!(
                analysis.report().total_eliminated() > 0,
                "{} offers no redundancy for FRODO to eliminate",
                bench.name
            );
        }
    }

    #[test]
    fn every_model_contains_truncation_blocks() {
        for bench in all() {
            let flat = bench.model.flattened(&frodo_obs::Trace::noop()).unwrap();
            let truncations = flat
                .blocks()
                .iter()
                .filter(|b| b.kind.is_truncation())
                .count();
            assert!(
                truncations > 0,
                "{} has no data-truncation blocks",
                bench.name
            );
        }
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(by_name("kalman").is_some());
        assert!(by_name("KALMAN").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn by_name_builds_only_the_matching_all_entry() {
        let built = || BUILT.with(std::cell::Cell::get);
        for bench in all() {
            let name = bench.name;
            for query in [
                name.to_string(),
                name.to_ascii_lowercase(),
                name.to_ascii_uppercase(),
            ] {
                let before = built();
                let found = by_name(&query).unwrap_or_else(|| panic!("{query} not found"));
                assert_eq!(built() - before, 1, "{query}: built more than one model");
                assert_eq!(found.name, name);
                assert_eq!(found.functionality, bench.functionality);
                assert_eq!(found.model, bench.model, "{query}");
            }
        }
    }

    #[test]
    fn by_spec_resolves_names_and_random_specs() {
        assert!(by_spec("Kalman").is_some());
        let base = by_spec("random:42:60").unwrap();
        assert_eq!(base, random::random_model(42, 60));
        let edited = by_spec("random:42:60:edit:0").unwrap();
        assert_ne!(base, edited);
        assert_eq!(edited, random::random_model_edited(42, 60, 0));
        for bad in ["random:x:30", "random:7", "random:7:30:edit:x", "nope"] {
            assert!(by_spec(bad).is_none(), "{bad} should not resolve");
        }
    }
}
