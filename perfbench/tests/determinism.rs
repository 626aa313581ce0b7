//! Determinism self-test: the same seed must give the same inputs, the
//! same deterministic counts and the same C; another seed must give other
//! edit files. Run with `cargo test --release` in this directory.

use frodo_perfbench::daemon;
use frodo_perfbench::inputs;
use frodo_perfbench::layers::{self, Walk};
use frodo_perfbench::spans::SpanLog;
use frodo_slx::fnv::fnv1a_64;
use std::path::{Path, PathBuf};

/// A scratch directory under the package's target-independent root,
/// removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(".perfbench")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("written input")
}

#[test]
fn edit_files_repeat_for_a_seed_and_differ_across_seeds() {
    let dir = Scratch::new("edits");
    assert_eq!(inputs::edit_plan(3, 30), inputs::edit_plan(3, 30));
    assert_ne!(inputs::edit_plan(3, 30), inputs::edit_plan(4, 30));
    assert_eq!(daemon::sequence(3), daemon::sequence(3));

    let plan = |seed| inputs::edit_plan(seed, 4);
    let (_, a) = inputs::write_edits(&dir.0.join("a"), &plan(3)).unwrap();
    let (_, b) = inputs::write_edits(&dir.0.join("b"), &plan(3)).unwrap();
    let (_, c) = inputs::write_edits(&dir.0.join("c"), &plan(4)).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(read(x), read(y), "{} differs between runs", x.display());
    }
    let first_a: Vec<Vec<u8>> = a.iter().map(|p| read(p)).collect();
    let first_c: Vec<Vec<u8>> = c.iter().map(|p| read(p)).collect();
    assert_ne!(first_a, first_c, "seeds 3 and 4 wrote the same edit files");
}

/// The deterministic counts and C digest of one walk.
fn fingerprint(w: &Walk) -> (usize, usize, usize, usize, usize, u64) {
    (
        w.blocks,
        w.elements_total,
        w.elements_eliminated,
        w.stmts,
        w.code.len(),
        fnv1a_64(w.code.as_bytes()),
    )
}

fn walk_all(dir: &Path, seed: u64) -> Vec<(usize, usize, usize, usize, usize, u64)> {
    let mut log = SpanLog::new(true);
    let table1 = inputs::write_table1(&dir.join("table1")).unwrap();
    let (_, edits) = inputs::write_edits(&dir.join("edits"), &inputs::edit_plan(seed, 2)).unwrap();
    table1
        .iter()
        .map(|(_, p)| p)
        .chain(&edits)
        .map(|p| fingerprint(&layers::walk(p, &mut log).unwrap()))
        .collect()
}

#[test]
fn layer_counts_and_c_digests_repeat_for_a_seed() {
    let dir = Scratch::new("walk");
    let first = walk_all(&dir.0.join("1"), 5);
    let second = walk_all(&dir.0.join("2"), 5);
    assert_eq!(first, second);
    let other = walk_all(&dir.0.join("3"), 6);
    assert_eq!(
        first[..10],
        other[..10],
        "the Table-1 suite does not depend on the seed"
    );
    assert_ne!(first[10..], other[10..], "another seed edits other Gains");
}

#[test]
fn daemon_region_reuse_and_recompile_c_repeat_for_a_seed() {
    let dir = Scratch::new("daemon");
    let exe = Path::new(env!("CARGO_BIN_EXE_frodo-perfbench"));
    let mut log = SpanLog::new(false);
    let a = daemon::episode(&dir.0.join("a"), 9, exe, &mut log).unwrap();
    let b = daemon::episode(&dir.0.join("b"), 9, exe, &mut log).unwrap();
    assert_eq!(a.outcome.failed, 0, "{:?}", a.outcome.problems);
    assert_eq!(b.outcome.failed, 0, "{:?}", b.outcome.problems);
    assert_eq!(a.regions, b.regions, "region and fragment hits must repeat");
    let digests = |e: &daemon::Episode| -> Vec<u64> {
        e.recompile_code
            .values()
            .map(|c| fnv1a_64(c.as_bytes()))
            .collect()
    };
    assert_eq!(digests(&a), digests(&b));
}
