//! Seeded inputs. Every model the program sees reaches it as a `.slx`
//! file written here during set-up; no benchmark name or `random:` spec
//! is ever sent, so no request builds a model inside its timed span.

use frodo_model::{BlockKind, Model};
use frodo_sim::rng::Rng;
use std::path::{Path, PathBuf};

/// Seed of the synthetic model the edits perturb. It is fixed, not drawn
/// from `--seed`: the model's structure sets what a recompile costs, so a
/// seeded structure would make the daemon's latency a property of the
/// seed instead of the program. The seed orders the edits.
const SYNTH_SEED: u64 = 7;
/// Computational blocks in the synthetic model.
const SYNTH_SIZE: usize = 2000;

/// Writes the ten Table-1 models (in Table-1 order) as `<name>.slx` under
/// `dir`; returns `(name, path)` pairs.
pub fn write_table1(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    frodo_benchmodels::all()
        .into_iter()
        .map(|b| {
            let path = dir.join(format!("{}.slx", b.name));
            write_model(&b.model, &path)?;
            Ok((b.name.to_string(), path))
        })
        .collect()
}

/// Serializes `model` with the program's own `.slx` writer.
fn write_model(model: &Model, path: &Path) -> Result<(), String> {
    let bytes = frodo_slx::write_slx(model).map_err(|e| format!("write_slx: {e}"))?;
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Number of `Gain` blocks in the synthetic model: the edit positions
/// [`frodo_benchmodels::random::random_model_edited`] can perturb.
fn synth_gain_count() -> usize {
    frodo_benchmodels::random::random_model(SYNTH_SEED, SYNTH_SIZE)
        .blocks()
        .iter()
        .filter(|b| matches!(b.kind, BlockKind::Gain { .. }))
        .count()
}

/// The seeded edit walk: `n` distinct Gain indices in seeded order
/// (a prefix of a seeded permutation of all Gains).
pub fn edit_plan(seed: u64, n: usize) -> Vec<usize> {
    let gains = synth_gain_count();
    let mut order: Vec<usize> = (0..gains).collect();
    shuffle(&mut order, &mut Rng::seed_from_u64(seed ^ 0xED17));
    order.truncate(n.min(gains));
    order
}

/// Writes the unedited synthetic model as `base.slx` and one
/// `edit_<k>.slx` per planned edit; returns the base path and the edit
/// paths in plan order.
pub fn write_edits(dir: &Path, plan: &[usize]) -> Result<(PathBuf, Vec<PathBuf>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let base = dir.join("base.slx");
    write_model(
        &frodo_benchmodels::random::random_model(SYNTH_SEED, SYNTH_SIZE),
        &base,
    )?;
    let edits = plan
        .iter()
        .map(|&k| {
            let path = dir.join(format!("edit_{k}.slx"));
            write_model(
                &frodo_benchmodels::random::random_model_edited(SYNTH_SEED, SYNTH_SIZE, k),
                &path,
            )?;
            Ok(path)
        })
        .collect::<Result<_, String>>()?;
    Ok((base, edits))
}

/// Fisher–Yates shuffle driven by the program's own seeded generator.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}
