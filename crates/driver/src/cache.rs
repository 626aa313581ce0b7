//! The content-addressed artifact cache.
//!
//! Keys are [`ContentDigest`](frodo_slx::fnv::ContentDigest)s of the
//! emitter revision, the flattened model, the generator style and every
//! [`CEmitOptions`](frodo_codegen::CEmitOptions) field (see
//! [`cache_key`](crate::cache_key)).
//! Two layers:
//!
//! - an **in-memory** map, always on, which also retains the lowered
//!   [`Program`] so in-process consumers (the bench harness, the VM) can
//!   re-execute a hit without re-lowering;
//! - an optional **on-disk** layer under a cache directory — `<digest>.c`
//!   holds the emitted code verbatim, `<digest>.meta` the counters — so
//!   hits survive process restarts. Disk writes are best-effort: an
//!   unwritable cache dir degrades to memory-only operation, it never
//!   fails a job.
//!
//! Both layers honor an optional byte-size cap with LRU eviction, sized
//! by the emitted code (the dominant artifact). The memory layer tracks
//! recency with a monotone use tick; the disk layer uses file mtimes,
//! refreshed on every hit, so recency survives restarts too. The entry
//! being stored or served is never the eviction victim — an artifact
//! larger than the cap still compiles and serves, the cache just won't
//! retain anything else beside it.

use crate::report::JobMetrics;
use frodo_codegen::lir::Program;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// How a job's artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Compiled from scratch this run.
    Miss,
    /// Served from the in-memory layer.
    Memory,
    /// Served from the on-disk layer.
    Disk,
}

impl CacheStatus {
    /// Whether analysis and emission were skipped.
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheStatus::Miss)
    }

    /// Short token used in both the human table and machine lines.
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Memory => "hit",
            CacheStatus::Disk => "disk",
        }
    }
}

/// Cumulative cache counters for one service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from either layer.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// The subset of `hits` served from disk.
    pub disk_hits: usize,
    /// Entries currently in the in-memory layer.
    pub entries: usize,
    /// Emitted-code bytes currently held by the in-memory layer.
    pub bytes: usize,
    /// Entries evicted (both layers) to stay under the byte cap.
    pub evictions: usize,
}

/// One cached artifact.
#[derive(Debug, Clone)]
pub(crate) struct CachedArtifact {
    pub code: String,
    /// Present when the artifact was compiled in this process; disk-loaded
    /// artifacts carry code and counters only.
    pub program: Option<Program>,
    pub metrics: JobMetrics,
}

/// The in-memory layer: a map plus LRU bookkeeping (a monotone tick per
/// touch, byte total over the cached code).
#[derive(Debug, Default)]
struct MemLayer {
    map: HashMap<String, MemEntry>,
    tick: u64,
    bytes: usize,
}

#[derive(Debug)]
struct MemEntry {
    art: CachedArtifact,
    bytes: usize,
    last_used: u64,
}

impl MemLayer {
    /// Returns the entry for `digest`, refreshing its recency.
    fn touch(&mut self, digest: &str) -> Option<CachedArtifact> {
        self.tick += 1;
        let entry = self.map.get_mut(digest)?;
        entry.last_used = self.tick;
        Some(entry.art.clone())
    }

    /// Inserts (or replaces) `digest`, then evicts least-recently-used
    /// entries until the layer fits `cap` bytes (`0` = unbounded). The
    /// just-inserted entry is never evicted. Returns how many entries
    /// were evicted.
    fn insert(&mut self, cap: usize, digest: String, art: CachedArtifact) -> usize {
        self.tick += 1;
        let cost = art.code.len();
        let entry = MemEntry {
            art,
            bytes: cost,
            last_used: self.tick,
        };
        if let Some(old) = self.map.insert(digest, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += cost;
        let mut evicted = 0;
        while cap > 0 && self.bytes > cap && self.map.len() > 1 {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("len > 1");
            let gone = self.map.remove(&lru).expect("key came from the map");
            self.bytes -= gone.bytes;
            evicted += 1;
        }
        evicted
    }
}

#[derive(Debug)]
pub(crate) struct ArtifactCache {
    mem: Mutex<MemLayer>,
    dir: Option<PathBuf>,
    /// Byte cap applied to each layer independently; `0` = unbounded.
    cap_bytes: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    disk_hits: AtomicUsize,
    evictions: AtomicUsize,
}

impl ArtifactCache {
    /// Creates a cache; `dir` enables the on-disk layer (created eagerly,
    /// and silently disabled if creation fails). `cap_bytes` bounds each
    /// layer's emitted-code footprint (`0` = unbounded).
    pub fn new(dir: Option<PathBuf>, cap_bytes: usize) -> Self {
        let dir = dir.filter(|d| std::fs::create_dir_all(d).is_ok());
        ArtifactCache {
            mem: Mutex::new(MemLayer::default()),
            dir,
            cap_bytes,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            disk_hits: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Looks `digest` up in memory, then on disk. Counts the outcome.
    /// A disk hit refreshes the file's mtime (its recency) and is
    /// promoted into the memory layer.
    pub fn lookup(&self, digest: &str) -> Option<(CachedArtifact, CacheStatus)> {
        if let Some(art) = self.mem.lock().unwrap().touch(digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((art, CacheStatus::Memory));
        }
        if let Some(art) = self.dir.as_deref().and_then(|d| load_disk(d, digest)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(d) = self.dir.as_deref() {
                touch_disk(&code_path(d, digest));
            }
            let evicted =
                self.mem
                    .lock()
                    .unwrap()
                    .insert(self.cap_bytes, digest.to_string(), art.clone());
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            return Some((art, CacheStatus::Disk));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a freshly compiled artifact into both layers, evicting
    /// least-recently-used entries past the byte cap. Returns how many
    /// entries were evicted (across both layers).
    pub fn store(&self, digest: &str, artifact: CachedArtifact) -> usize {
        let mut evicted = 0;
        if let Some(d) = self.dir.as_deref() {
            evicted += store_disk(d, digest, &artifact, self.cap_bytes);
        }
        evicted += self
            .mem
            .lock()
            .unwrap()
            .insert(self.cap_bytes, digest.to_string(), artifact);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let mem = self.mem.lock().unwrap();
            (mem.map.len(), mem.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            entries,
            bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

fn code_path(dir: &Path, digest: &str) -> PathBuf {
    dir.join(format!("{digest}.c"))
}

fn meta_path(dir: &Path, digest: &str) -> PathBuf {
    dir.join(format!("{digest}.meta"))
}

/// Best-effort mtime refresh, so disk-layer recency tracks hits.
fn touch_disk(path: &Path) {
    if let Ok(file) = std::fs::File::options().append(true).open(path) {
        let now = SystemTime::now();
        let _ = file.set_times(
            std::fs::FileTimes::new()
                .set_accessed(now)
                .set_modified(now),
        );
    }
}

/// Writes the artifact, then evicts the oldest `.c`/`.meta` pairs until
/// the directory's code bytes fit `cap` (`0` = unbounded; the pair just
/// written is exempt). Returns the number of evicted entries.
fn store_disk(dir: &Path, digest: &str, artifact: &CachedArtifact, cap: usize) -> usize {
    let m = &artifact.metrics;
    let meta = format!(
        "blocks={}\noptimizable={}\nelements={}\neliminated={}\n",
        m.blocks, m.optimizable_blocks, m.total_elements, m.eliminated_elements
    );
    // Best-effort: the meta file is written after the code so a torn cache
    // (code without meta) reads as a miss, never as a half-artifact.
    if std::fs::write(code_path(dir, digest), &artifact.code).is_err() {
        return 0;
    }
    let _ = std::fs::write(meta_path(dir, digest), meta);
    if cap == 0 {
        return 0;
    }
    evict_disk(dir, digest, cap)
}

/// One LRU pass over the disk layer: oldest mtime goes first.
fn evict_disk(dir: &Path, keep: &str, cap: usize) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut files: Vec<(String, SystemTime, usize)> = Vec::new();
    let mut total = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Ok(md) = entry.metadata() else { continue };
        let mtime = md.modified().unwrap_or(SystemTime::UNIX_EPOCH);
        let bytes = md.len() as usize;
        total += bytes;
        files.push((stem.to_string(), mtime, bytes));
    }
    files.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let mut evicted = 0;
    for (digest, _, bytes) in files {
        if total <= cap {
            break;
        }
        if digest == keep {
            continue;
        }
        let _ = std::fs::remove_file(code_path(dir, &digest));
        let _ = std::fs::remove_file(meta_path(dir, &digest));
        total -= bytes;
        evicted += 1;
    }
    evicted
}

fn load_disk(dir: &Path, digest: &str) -> Option<CachedArtifact> {
    let code = std::fs::read_to_string(code_path(dir, digest)).ok()?;
    let meta = std::fs::read_to_string(meta_path(dir, digest)).ok()?;
    let mut metrics = JobMetrics::default();
    for line in meta.lines() {
        let (key, value) = line.split_once('=')?;
        let value: usize = value.trim().parse().ok()?;
        match key {
            "blocks" => metrics.blocks = value,
            "optimizable" => metrics.optimizable_blocks = value,
            "elements" => metrics.total_elements = value,
            "eliminated" => metrics.eliminated_elements = value,
            _ => return None,
        }
    }
    Some(CachedArtifact {
        code,
        program: None,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(code: &str) -> CachedArtifact {
        CachedArtifact {
            code: code.to_string(),
            program: None,
            metrics: JobMetrics {
                blocks: 5,
                optimizable_blocks: 2,
                total_elements: 100,
                eliminated_elements: 40,
            },
        }
    }

    #[test]
    fn memory_roundtrip_and_counters() {
        let cache = ArtifactCache::new(None, 0);
        assert!(cache.lookup("abc").is_none());
        cache.store("abc", artifact("int x;"));
        let (art, status) = cache.lookup("abc").unwrap();
        assert_eq!(status, CacheStatus::Memory);
        assert_eq!(art.code, "int x;");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, "int x;".len());
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn disk_roundtrip_promotes_to_memory() {
        let dir = std::env::temp_dir().join(format!("frodo-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ArtifactCache::new(Some(dir.clone()), 0);
            cache.store("d1", artifact("void f(void) {}"));
        }
        // a fresh cache instance only has the disk layer
        let cache = ArtifactCache::new(Some(dir.clone()), 0);
        let (art, status) = cache.lookup("d1").unwrap();
        assert_eq!(status, CacheStatus::Disk);
        assert_eq!(art.code, "void f(void) {}");
        assert_eq!(art.metrics.eliminated_elements, 40);
        assert!(art.program.is_none());
        // promoted: second lookup is a memory hit
        let (_, status) = cache.lookup("d1").unwrap();
        assert_eq!(status, CacheStatus::Memory);
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_disk_entry_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("frodo-cache-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(code_path(&dir, "t1"), "int y;").unwrap(); // no .meta
        let cache = ArtifactCache::new(Some(dir.clone()), 0);
        assert!(cache.lookup("t1").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_layer_evicts_least_recently_used_past_the_cap() {
        // each artifact is 10 bytes; the cap fits exactly two
        let cache = ArtifactCache::new(None, 20);
        cache.store("a", artifact("0123456789"));
        cache.store("b", artifact("0123456789"));
        assert_eq!(cache.stats().evictions, 0);
        // touch "a" so "b" becomes the LRU entry
        assert!(cache.lookup("a").is_some());
        let evicted = cache.store("c", artifact("0123456789"));
        assert_eq!(evicted, 1);
        assert!(cache.lookup("b").is_none(), "LRU entry was evicted");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, 20);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn oversized_entry_is_kept_alone_not_thrashed() {
        let cache = ArtifactCache::new(None, 4);
        cache.store("big", artifact("0123456789"));
        // over cap, but the sole entry survives and still serves
        assert!(cache.lookup("big").is_some());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn disk_layer_evicts_oldest_past_the_cap() {
        let dir = std::env::temp_dir().join(format!("frodo-cache-lru-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(Some(dir.clone()), 20);
        cache.store("d1", artifact("0123456789"));
        cache.store("d2", artifact("0123456789"));
        // backdate d1 so it is unambiguously the oldest on disk
        let old = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        std::fs::File::options()
            .append(true)
            .open(code_path(&dir, "d1"))
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
        let evicted = cache.store("d3", artifact("0123456789"));
        assert!(evicted >= 1, "disk layer must evict past the cap");
        assert!(!code_path(&dir, "d1").exists(), "oldest pair evicted");
        assert!(!meta_path(&dir, "d1").exists());
        assert!(code_path(&dir, "d3").exists());
        // a fresh cache (disk only) misses the evicted digest
        let fresh = ArtifactCache::new(Some(dir.clone()), 20);
        assert!(fresh.lookup("d1").is_none());
        assert!(fresh.lookup("d3").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
