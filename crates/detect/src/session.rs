//! Session-scoped detection state: one [`VerdictCache`] (plus per-worker
//! accounting) shared across many detection passes *and many repair runs*.
//!
//! PR 3's verdict cache lived and died with a single `repair_with_config`
//! call. A [`DetectSession`] promotes it to a session lifetime: an ablation
//! sweep, a random-search baseline, or a whole benchmark suite constructs
//! one session and hands it to every run, so transaction shapes shared
//! between runs (CLOTHO-style sweeps re-analyse the same workloads under
//! many configurations) are answered from warm verdicts instead of
//! re-solved. Run boundaries are explicit ([`DetectSession::begin_run`]);
//! the cache attributes hits crossing a boundary to its cross-run counters,
//! and [`DetectSession::sweep`] bounds memory between runs by resetting
//! liveness to a single program (see the liveness-union contract in
//! [`crate::cache`]).

use atropos_dsl::Program;
use std::io;
use std::path::Path;

use crate::cache::{CacheStats, VerdictCache};
use crate::corpus::CorpusStore;
use crate::engine::WorkerStats;

/// A verdict cache with a session lifetime, plus the per-worker counters
/// of every [`crate::DetectionEngine`] pass run against it.
///
/// # Examples
///
/// Sharing one session across two repair-style runs of the same program:
///
/// ```
/// use atropos_detect::{ConsistencyLevel, DetectionEngine, DetectSession};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let engine = DetectionEngine::serial();
/// let mut session = DetectSession::new();
/// session.begin_run();
/// engine.detect(&p, ConsistencyLevel::EventualConsistency, &mut session);
/// session.begin_run(); // a second run: same shapes hit warm
/// engine.detect(&p, ConsistencyLevel::EventualConsistency, &mut session);
/// assert!(session.cache_stats().cross_run_hit_ratio() > 0.99);
/// ```
#[derive(Default)]
pub struct DetectSession {
    cache: VerdictCache,
    per_worker: Vec<WorkerStats>,
}

impl DetectSession {
    /// Creates an empty session.
    pub fn new() -> DetectSession {
        DetectSession {
            cache: VerdictCache::new(),
            per_worker: Vec::new(),
        }
    }

    /// Marks the start of one run (a repair call, one sweep configuration,
    /// one random-search round). Warm entries stay; hits on entries from
    /// earlier runs count towards [`CacheStats::cross_run_hits`].
    pub fn begin_run(&mut self) {
        self.cache.advance_run();
    }

    /// Runs started on this session.
    pub fn runs(&self) -> u64 {
        self.cache.runs()
    }

    /// The session cache's lifetime counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cached pair-verdict entries currently held.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Cached triple-verdict entries currently held.
    pub fn triple_len(&self) -> usize {
        self.cache.triple_len()
    }

    /// True when no verdicts are cached yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Cumulative per-worker counters across every engine pass this
    /// session served, indexed by worker slot.
    pub fn per_worker(&self) -> &[WorkerStats] {
        &self.per_worker
    }

    /// Every proof certificate blob stored in the session's cache, in
    /// deterministic entry order (see [`VerdictCache::proof_blobs`]).
    /// Empty unless a proof-capturing engine ran against this session.
    pub fn proof_blobs(&self) -> Vec<Vec<u8>> {
        self.cache.proof_blobs()
    }

    /// One audit record per cached verdict, in deterministic entry order
    /// (see [`VerdictCache::audits`]) — the raw material of the anomaly
    /// reports.
    pub fn audits(&self) -> Vec<crate::cache::VerdictAudit> {
        self.cache.audits()
    }

    /// Explicit between-runs sweep: resets liveness to exactly `program`
    /// and evicts everything else (see [`VerdictCache::sweep`]). Returns
    /// the number of verdict entries evicted.
    pub fn sweep(&mut self, program: &Program) -> usize {
        self.cache.sweep(program)
    }

    /// Between-runs sweep for corpus drivers: resets liveness to the
    /// **union** of every program in `programs` (rather than the single
    /// program of [`DetectSession::sweep`]), evicting entries stranded by
    /// intermediate refactoring states while keeping every corpus
    /// program's shapes warm. Returns the number of verdict entries
    /// evicted.
    pub fn sweep_corpus<'a>(
        &mut self,
        programs: impl IntoIterator<Item = &'a Program>,
    ) -> usize {
        let fps = programs
            .into_iter()
            .flat_map(|p| {
                crate::model::summarize_program(p)
                    .iter()
                    .map(crate::cache::txn_fingerprint)
                    .collect::<Vec<_>>()
            })
            .collect();
        self.cache.sweep_fps(fps)
    }

    /// Evicts exactly the cached verdicts whose transactions *changed
    /// shape* in `after` — a renamed-but-identical transaction (its
    /// summary fingerprint is label-blind) keeps its entries, so a
    /// rename-only refactoring step stays fully warm (see
    /// [`VerdictCache::invalidate_txns_changed`]). Returns the number of
    /// verdict entries evicted.
    pub fn invalidate_txns_changed(
        &mut self,
        txns: &std::collections::BTreeSet<String>,
        after: &Program,
    ) -> usize {
        self.cache.invalidate_txns_changed(txns, after)
    }

    /// Split borrow for the engine: the cache and the per-worker counters.
    pub(crate) fn cache_and_workers(&mut self) -> (&mut VerdictCache, &mut Vec<WorkerStats>) {
        (&mut self.cache, &mut self.per_worker)
    }

    /// The session's cache (the corpus store merges from it).
    pub(crate) fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// Mutable access for in-crate callers that drive the cache directly.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn cache_mut(&mut self) -> &mut VerdictCache {
        &mut self.cache
    }

    /// Wraps an already-loaded cache (the v2 store's load path).
    pub(crate) fn from_cache(cache: VerdictCache) -> DetectSession {
        DetectSession {
            cache,
            per_worker: Vec::new(),
        }
    }

    /// Persists every pair and triple verdict entry into the sharded
    /// `verdict_cache.v2` store at `dir` ([`crate::corpus::CorpusStore`]),
    /// creating the directory if it is missing. This session's verdicts
    /// are **union-merged** in under per-shard advisory locks, so
    /// concurrent sessions saving to one store combine instead of
    /// clobbering each other, and every shard lands via a sibling
    /// tempfile and an atomic rename, so a crash mid-save leaves the
    /// previous shard intact. The bench bins wire this behind the
    /// `ATROPOS_CACHE_FILE` environment variable.
    ///
    /// Retained solvers are transient and not persisted — a loaded
    /// session re-encodes on its first miss but never re-solves a
    /// persisted verdict. Returns the number of entries this session
    /// contributed (merged or already present).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the store; a `dir` that is a
    /// regular file is refused with [`io::ErrorKind::NotADirectory`].
    pub fn save_to(&self, dir: impl AsRef<Path>) -> io::Result<usize> {
        CorpusStore::open(dir)?.merge_cache(&self.cache)?;
        Ok(self.cache.len() + self.cache.triple_len())
    }

    /// Reconstructs a session from a [`DetectSession::save_to`] store
    /// directory. All entries load into run 0 (warm for every following
    /// run), and the liveness union is seeded with every persisted
    /// fingerprint so a pass over one program does not sweep away another
    /// program's entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors ([`io::ErrorKind::NotFound`] when `dir` does
    /// not exist); a `dir` that is a regular file is refused with
    /// [`io::ErrorKind::NotADirectory`], and a malformed store with
    /// [`io::ErrorKind::InvalidData`].
    pub fn load_from(dir: impl AsRef<Path>) -> io::Result<DetectSession> {
        let dir = dir.as_ref();
        if !dir.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("verdict_cache.v2: no store at {}", dir.display()),
            ));
        }
        Ok(DetectSession::from_cache(
            CorpusStore::open(dir)?.load_cache()?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DetectMode, DetectionEngine};
    use crate::ConsistencyLevel;
    use std::path::PathBuf;

    const RELAY: &str = "schema MSG { m_id: int key, m_body: string }
         schema FEED { f_id: int key, f_body: string }
         txn post(m: int, body: string) {
             @W1 update MSG set m_body = body where m_id = m;
             return 0;
         }
         txn relay(m: int, f: int) {
             @R2 x := select m_body from MSG where m_id = m;
             @W2 update FEED set f_body = x.m_body where f_id = f;
             return 0;
         }
         txn timeline(f: int, m: int) {
             @R3 y := select f_body from FEED where f_id = f;
             @R4 z := select m_body from MSG where m_id = m;
             return 0;
         }";

    /// A fresh, absent path under the temp dir.
    fn scratch(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("atropos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The store's shard files, sorted.
    fn shards(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("read store dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "v2"))
            .collect();
        files.sort();
        files
    }

    /// A store holding the Relay program's EC pair verdicts.
    fn saved_store(tag: &str) -> (PathBuf, Vec<crate::AccessPair>) {
        let p = atropos_dsl::parse(RELAY).unwrap();
        let mut session = DetectSession::new();
        let ec = ConsistencyLevel::EventualConsistency;
        let (pairs, _) = DetectionEngine::serial().detect(&p, ec, &mut session);
        let dir = scratch(tag);
        assert!(session.save_to(&dir).expect("save") > 0);
        (dir, pairs)
    }

    #[test]
    fn verdicts_roundtrip_across_processes() {
        let p = atropos_dsl::parse(RELAY).unwrap();
        let engine = DetectionEngine::serial();
        let ec = ConsistencyLevel::EventualConsistency;

        // "Process one": detect in both modes and persist.
        let mut first = DetectSession::new();
        let (pairs, _) = engine.detect(&p, ec, &mut first);
        let (triples, _) = engine.detect_with_mode(&p, ec, DetectMode::Triples, &mut first);
        let dir = scratch("verdict_cache");
        let entries = first.save_to(&dir).expect("save");
        assert!(entries > 0);

        // "Process two": load and re-detect — same verdicts, zero queries.
        let mut second = DetectSession::load_from(&dir).expect("load");
        let before = second.cache_stats();
        let (again_pairs, sp) = engine.detect(&p, ec, &mut second);
        let (again_triples, st) =
            engine.detect_with_mode(&p, ec, DetectMode::Triples, &mut second);
        assert_eq!(again_pairs, pairs);
        assert_eq!(again_triples, triples);
        assert_eq!(sp.queries + st.queries, 0, "persisted verdicts must replay");
        let delta = second.cache_stats().since(&before);
        assert_eq!(delta.misses + delta.triple_misses, 0, "{delta:?}");

        // Corrupt data is refused, not misread.
        for shard in shards(&dir) {
            std::fs::write(&shard, b"not a verdict cache").expect("overwrite");
        }
        assert!(DetectSession::load_from(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A zero-length regular file where the store should be (a crash
    /// before the first write, or an `ATROPOS_CACHE_FILE` created by
    /// `touch`) must be refused with a typed error by both ends, not
    /// misread as an empty store or clobbered.
    #[test]
    fn zero_length_cache_file_is_refused() {
        let path = scratch("zero_length");
        std::fs::write(&path, b"").expect("write");
        let err = match DetectSession::load_from(&path) {
            Err(e) => e,
            Ok(_) => panic!("zero-length file accepted"),
        };
        assert_eq!(err.kind(), io::ErrorKind::NotADirectory);
        assert!(err.to_string().contains("not a store directory"), "{err}");
        let err = DetectSession::new()
            .save_to(&path)
            .expect_err("saved over a file");
        assert_eq!(err.kind(), io::ErrorKind::NotADirectory);
        assert!(path.is_file(), "the file is left alone");
        let _ = std::fs::remove_file(&path);
    }

    /// A shard cut off *inside* a length-prefixed record — valid magic,
    /// valid revision, clean EOF mid-record (a partial write or copy) —
    /// must be refused with a clear `InvalidData` error rather than
    /// loading a silently incomplete session.
    #[test]
    fn mid_record_truncation_is_refused() {
        let (dir, _) = saved_store("truncated");
        let shard = shards(&dir).pop().expect("at least one shard");
        let bytes = std::fs::read(&shard).expect("read");
        // Cut off mid-record at several depths: inside the first record
        // header, inside its payload, and a few bytes short of the end
        // (EOF inside the final record).
        for cut in [24, 40, bytes.len() - 5, bytes.len() - 1] {
            assert!(cut < bytes.len(), "fixture large enough");
            std::fs::write(&shard, &bytes[..cut]).expect("write");
            let err = match DetectSession::load_from(&dir) {
                Err(e) => e,
                Ok(_) => panic!("shard truncated at {cut} accepted"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash mid-`save_to` must never damage the previously saved
    /// shard: the write stages into a sibling tempfile and lands via
    /// atomic rename. The test replays the kill by planting exactly the
    /// partial bytes a writer killed partway would leave at the staging
    /// path — the store must still load, byte-for-byte warm.
    #[test]
    fn killed_save_leaves_previous_file_loadable() {
        let p = atropos_dsl::parse(RELAY).unwrap();
        let engine = DetectionEngine::serial();
        let (dir, pairs) = saved_store("crash_save");
        let shard = shards(&dir).pop().expect("at least one shard");
        let good = std::fs::read(&shard).expect("read saved shard");

        // "Kill" a second save partway: the staging sibling holds a
        // truncated prefix, but no rename ever happens.
        let staged = crate::corpus::tmp_sibling(&shard);
        std::fs::write(&staged, &good[..good.len() / 2]).expect("partial write");

        // The real shard is untouched and still loads to the same verdicts.
        assert_eq!(std::fs::read(&shard).expect("reread"), good);
        let mut reloaded = DetectSession::load_from(&dir).expect("load survives the crash");
        let (again, stats) =
            engine.detect(&p, ConsistencyLevel::EventualConsistency, &mut reloaded);
        assert_eq!(again, pairs);
        assert_eq!(stats.queries, 0, "reloaded verdicts replay warm");

        // And a completed save atomically replaces the shard, leaving no
        // staging debris or locks of its own behind.
        reloaded.save_to(&dir).expect("second save");
        let mut left: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|f| f != &staged && f.extension().is_none_or(|e| e != "v2"))
            .collect();
        left.sort();
        assert!(left.is_empty(), "debris: {left:?}");
        let (again, stats) = engine.detect(
            &p,
            ConsistencyLevel::EventualConsistency,
            &mut DetectSession::load_from(&dir).expect("load after resave"),
        );
        assert_eq!((again, stats.queries), (pairs, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `save_to` creates a missing store directory and `load_from` replays
    /// it warm in both modes; loading a path that does not exist is a
    /// `NotFound` error, not an empty session.
    #[test]
    fn directory_paths_dispatch_to_the_v2_store() {
        let p = atropos_dsl::parse(RELAY).unwrap();
        let engine = DetectionEngine::serial();
        let ec = ConsistencyLevel::EventualConsistency;
        let mut first = DetectSession::new();
        let (pairs, _) = engine.detect(&p, ec, &mut first);
        let (triples, _) = engine.detect_with_mode(&p, ec, DetectMode::Triples, &mut first);

        let dir = scratch("session_store").join("nested");
        let Err(err) = DetectSession::load_from(&dir) else {
            panic!("loaded a store that was never saved")
        };
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let entries = first.save_to(&dir).expect("save creates the store");
        assert!(dir.is_dir());
        assert_eq!(entries, first.len() + first.triple_len());

        let mut second = DetectSession::load_from(&dir).expect("load from store");
        let (again_pairs, sp) = engine.detect(&p, ec, &mut second);
        let (again_triples, st) = engine.detect_with_mode(&p, ec, DetectMode::Triples, &mut second);
        assert_eq!(again_pairs, pairs);
        assert_eq!(again_triples, triples);
        assert_eq!(sp.queries + st.queries, 0, "store verdicts replay warm");
        let _ = std::fs::remove_dir_all(dir.parent().expect("scratch root"));
    }

    /// A store persisted by a different encoder revision must not be
    /// silently trusted: its verdicts may not mean what this build thinks
    /// (stale-verdict replay would bypass re-detection entirely), so its
    /// uncertified records are refused and re-solved.
    #[test]
    fn stale_encoder_revision_is_refused() {
        let (dir, pairs) = saved_store("stale_revision");
        // Rewind every shard's encoder-revision field (the 4 bytes after
        // the magic) to a foreign value, leaving everything else
        // byte-identical.
        for shard in shards(&dir) {
            let mut bytes = std::fs::read(&shard).expect("read");
            bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
            std::fs::write(&shard, &bytes).expect("write");
        }

        let mut session = DetectSession::load_from(&dir).expect("stale store loads");
        assert!(
            session.is_empty(),
            "proofless stale records must be refused"
        );
        let p = atropos_dsl::parse(RELAY).unwrap();
        let (again, stats) = DetectionEngine::serial().detect(
            &p,
            ConsistencyLevel::EventualConsistency,
            &mut session,
        );
        assert_eq!(again, pairs);
        assert_eq!(
            session.cache_stats().misses,
            stats.pairs,
            "refused verdicts are re-solved"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
