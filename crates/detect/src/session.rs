//! The verdict cache with a session lifetime: one [`DetectSession`] holds
//! every cached verdict, the cache counters and its run number, and is
//! shared across many detection passes *and many repair runs*.
//!
//! An ablation sweep, a random-search baseline, or a whole benchmark suite
//! constructs one session and hands it to every run, so transaction shapes
//! shared between runs (CLOTHO-style sweeps re-analyse the same workloads
//! under many configurations) are answered from warm verdicts instead of
//! re-solved. Run boundaries are explicit ([`DetectSession::begin_run`]):
//! hits crossing a boundary count towards the cross-run counters of
//! [`CacheStats`].
//!
//! # No invalidation
//!
//! Verdicts are keyed by member fingerprints, so an edited group simply
//! misses and a stale entry can never answer (see the fingerprint in
//! [`crate::cache`]). Nothing is invalidated explicitly, and a detection
//! pass evicts nothing, so a pass over one program never drops another
//! program's warm entries. Entries a program edit stranded stay until a
//! caller that wants memory bounded between runs calls
//! [`DetectSession::sweep`], which keeps exactly the entries one program
//! can still hit.
//!
//! # One owner
//!
//! A session is plain data that only the engine's coordinating thread
//! touches: it holds no lock, and no worker borrows it. Workers solve
//! their groups from the summaries alone and hand the verdicts back for
//! the merge (see [`crate::engine`]).

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;

use atropos_dsl::Program;

use crate::cache::{CacheStats, GroupKey, VerdictAudit, VerdictEntry};
use crate::corpus::CorpusStore;
use crate::detect::Finding;
use crate::model::{ProgramSummary, TxnSummary};

/// Per-group anomaly verdicts, keyed by transaction fingerprints, with a
/// session lifetime. Every
/// [`crate::DetectionEngine`] pass and [`crate::analyse_corpus`] batch
/// reads and refreshes one; the repair driver owns one per run or, across
/// runs, one per whole benchmark sweep.
///
/// See the [module docs](self) for why nothing is invalidated and when
/// entries are evicted, and [`crate::cache`] for the fingerprint and the
/// group key.
///
/// # Examples
///
/// Sharing one session across two repair-style runs of the same program:
///
/// ```
/// use atropos_detect::{ConsistencyLevel, DetectMode, DetectionEngine, DetectSession};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let (engine, ec) = (DetectionEngine::serial(), ConsistencyLevel::EventualConsistency);
/// let mut session = DetectSession::new();
/// session.begin_run();
/// engine.detect_with_mode(&p, ec, DetectMode::Pairs, &mut session);
/// session.begin_run(); // a second run: same shapes hit warm
/// engine.detect_with_mode(&p, ec, DetectMode::Pairs, &mut session);
/// assert!(session.cache_stats().cross_run_hit_ratio() > 0.99);
/// ```
pub struct DetectSession {
    verdicts: HashMap<GroupKey, VerdictEntry>,
    stats: CacheStats,
    /// Current run number; 0 until [`DetectSession::begin_run`] is called.
    run: u64,
}

impl Default for DetectSession {
    fn default() -> Self {
        Self::new()
    }
}

impl DetectSession {
    /// Creates an empty session.
    pub fn new() -> DetectSession {
        DetectSession {
            verdicts: HashMap::new(),
            stats: CacheStats::default(),
            run: 0,
        }
    }

    /// Marks the start of one run (a repair call, one sweep configuration,
    /// one random-search round). Warm entries stay; hits on entries from
    /// earlier runs count towards [`CacheStats::cross_run_hits`]. Eviction
    /// is the business of [`DetectSession::sweep`], not of run accounting.
    pub fn begin_run(&mut self) {
        self.run += 1;
    }

    /// Runs started on this session.
    pub fn runs(&self) -> u64 {
        self.run
    }

    /// The session's lifetime counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Cached pair-verdict entries currently held.
    pub fn len(&self) -> usize {
        self.verdicts.keys().filter(|k| k.k() == 2).count()
    }

    /// Cached triple-verdict entries currently held.
    pub fn triple_len(&self) -> usize {
        self.verdicts.keys().filter(|k| k.k() == 3).count()
    }

    /// True when no verdicts (pair or triple) are cached.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Every proof certificate blob stored in the session, in sorted key
    /// order (pair entries before triple entries), so the sequence is
    /// deterministic across runs and thread counts. Empty unless a
    /// proof-capturing engine ran against this session.
    pub fn proof_blobs(&self) -> Vec<Vec<u8>> {
        self.entries()
            .into_iter()
            .flat_map(|(_, e)| e.proofs.iter().cloned())
            .collect()
    }

    /// How many proof certificates the session holds — the length of
    /// [`DetectSession::proof_blobs`], without copying a blob.
    pub fn proof_count(&self) -> usize {
        self.verdicts.values().map(|e| e.proofs.len()).sum()
    }

    /// One audit record per cached verdict, in sorted key order (pair
    /// entries before triple entries): the raw material of the anomaly
    /// reports.
    pub fn audits(&self) -> Vec<VerdictAudit> {
        self.entries()
            .into_iter()
            .map(|(k, e)| VerdictAudit {
                txns: e.txns.clone(),
                level: k.level,
                anomalies: e.findings.len(),
                proofs: e.proofs.clone(),
            })
            .collect()
    }

    /// Explicit between-runs sweep: evicts every verdict naming a
    /// fingerprint that does not occur in `program` (no
    /// detection pass evicts anything), which bounds memory once a run's
    /// entries are genuinely dead. An entry the sweep keeps is guaranteed
    /// to hit again on the next pass over `program` (its transactions'
    /// summaries are unchanged). Returns the number of verdict entries
    /// evicted.
    pub fn sweep(&mut self, program: &Program) -> usize {
        self.sweep_summary(&ProgramSummary::of(program))
    }

    /// [`DetectSession::sweep`] to a program already summarized: the sweep
    /// reads the liveness off `summary`'s keys.
    pub fn sweep_summary(&mut self, summary: &ProgramSummary) -> usize {
        let live: HashSet<u64> = summary.keys.live().collect();
        let keep = |k: &GroupKey| k.fps().iter().all(|fp| live.contains(fp));
        let before = self.verdicts.len();
        self.verdicts.retain(|k, _| keep(k));
        let evicted = before - self.verdicts.len();
        self.stats.invalidated += evicted as u64;
        evicted
    }

    /// Looks up the cached verdict of one group, bumping the hit/miss
    /// statistics of its size and, past the first run boundary, the shared
    /// cross-run counters.
    pub(crate) fn lookup(&mut self, key: &GroupKey) -> Option<&VerdictEntry> {
        let s = &mut self.stats;
        let (lookups, hits, misses) = if key.k() == 2 {
            (&mut s.lookups, &mut s.hits, &mut s.misses)
        } else {
            (
                &mut s.triple_lookups,
                &mut s.triple_hits,
                &mut s.triple_misses,
            )
        };
        *lookups += 1;
        // Cross-run accounting engages from the second run onwards: only
        // then can a lookup possibly be served by an earlier run's entry.
        let cross = self.run >= 2;
        if cross {
            s.cross_run_lookups += 1;
        }
        match self.verdicts.get(key) {
            Some(e) => {
                *hits += 1;
                if cross && e.run < self.run {
                    s.cross_run_hits += 1;
                }
                Some(e)
            }
            None => {
                *misses += 1;
                None
            }
        }
    }

    /// The cached verdict of one group, without touching the statistics.
    pub(crate) fn entry(&self, key: &GroupKey) -> Option<&VerdictEntry> {
        self.verdicts.get(key)
    }

    /// Inserts the raw findings of one group analysis; `ts` are the
    /// members in key orientation.
    pub(crate) fn insert(
        &mut self,
        key: GroupKey,
        ts: &[&TxnSummary],
        findings: Vec<Finding>,
        proofs: Vec<Vec<u8>>,
    ) {
        let txns = ts.iter().map(|t| t.name.clone()).collect();
        self.verdicts.insert(
            key,
            VerdictEntry {
                txns,
                run: self.run,
                findings,
                proofs,
            },
        );
    }

    /// Every entry, sorted by key: the deterministic iteration order the
    /// store encodes records in and the certificates are reported in.
    pub(crate) fn entries(&self) -> Vec<(&GroupKey, &VerdictEntry)> {
        let mut out: Vec<_> = self.verdicts.iter().collect();
        out.sort_by_key(|(k, _)| **k);
        out
    }

    /// Installs an entry loaded from a persistent store; loaded entries
    /// carry run 0, so they are warm for every following run.
    pub(crate) fn absorb(&mut self, key: GroupKey, entry: VerdictEntry) {
        self.verdicts.insert(key, entry);
    }

    /// Persists every pair and triple verdict entry into the
    /// `verdict_cache.v3` store at `dir` (see [`crate::corpus`]), creating
    /// the directory if it is missing. This session's verdicts are
    /// **union-merged** in under the store's advisory lock, so concurrent
    /// sessions saving to one store combine instead of clobbering each
    /// other, and the record file lands via a sibling tempfile and an
    /// atomic rename, so a crash mid-save leaves the previous file intact.
    ///
    /// A loaded session never re-solves a persisted verdict. Returns the
    /// number of entries this session contributed (merged or already
    /// present).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the store; a `dir` that is a
    /// regular file is refused with [`io::ErrorKind::NotADirectory`].
    pub fn save_to(&self, dir: impl AsRef<Path>) -> io::Result<usize> {
        CorpusStore::open(dir)?.merge_cache(self)?;
        Ok(self.len() + self.triple_len())
    }

    /// Reconstructs a session from a [`DetectSession::save_to`] store
    /// directory. All entries load into run 0 (warm for every following
    /// run).
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
                format!("verdict_cache.v3: no store at {}", dir.display()),
            ));
        }
        CorpusStore::open(dir)?.load_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DetectMode, DetectionEngine};
    use crate::{AccessPair, ConsistencyLevel, DetectStats};
    use std::path::PathBuf;

    const EC: ConsistencyLevel = ConsistencyLevel::EventualConsistency;

    /// One EC pass in pair mode.
    fn pairs(
        engine: &DetectionEngine,
        p: &Program,
        session: &mut DetectSession,
    ) -> (Vec<AccessPair>, DetectStats) {
        engine.detect_with_mode(p, EC, DetectMode::Pairs, session)
    }

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

    /// The store's record file, which a save must have written.
    fn store_file(dir: &Path) -> PathBuf {
        let file = dir.join(crate::corpus::STORE_FILE);
        assert!(file.is_file(), "no record file in {}", dir.display());
        file
    }

    /// A store holding the Relay program's EC pair verdicts.
    fn saved_store(tag: &str) -> (PathBuf, Vec<AccessPair>) {
        let p = atropos_dsl::parse(RELAY).unwrap();
        let mut session = DetectSession::new();
        let (verdicts, _) = pairs(&DetectionEngine::serial(), &p, &mut session);
        let dir = scratch(tag);
        assert!(session.save_to(&dir).expect("save") > 0);
        (dir, verdicts)
    }

    #[test]
    fn verdicts_roundtrip_across_processes() {
        let p = atropos_dsl::parse(RELAY).unwrap();
        let engine = DetectionEngine::serial();

        // "Process one": detect in both modes and persist.
        let mut first = DetectSession::new();
        let (verdicts, _) = pairs(&engine, &p, &mut first);
        let (triples, _) = engine.detect_with_mode(&p, EC, DetectMode::Triples, &mut first);
        let dir = scratch("verdict_cache");
        let entries = first.save_to(&dir).expect("save");
        assert!(entries > 0);

        // "Process two": load and re-detect — same verdicts, zero queries.
        let mut second = DetectSession::load_from(&dir).expect("load");
        let before = second.cache_stats();
        let (again_pairs, sp) = pairs(&engine, &p, &mut second);
        let (again_triples, st) = engine.detect_with_mode(&p, EC, DetectMode::Triples, &mut second);
        assert_eq!(again_pairs, verdicts);
        assert_eq!(again_triples, triples);
        assert_eq!(sp.queries + st.queries, 0, "persisted verdicts must replay");
        let delta = second.cache_stats().since(&before);
        assert_eq!(delta.misses + delta.triple_misses, 0, "{delta:?}");

        // Corrupt data is refused, not misread.
        std::fs::write(store_file(&dir), b"not a verdict cache").expect("overwrite");
        assert!(DetectSession::load_from(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A zero-length regular file where the store should be (a crash
    /// before the first write, or a store path created by `touch`) must
    /// be refused with a typed error by both ends, not misread as an empty
    /// store or clobbered.
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

    /// A record file cut off *inside* a length-prefixed record — valid
    /// magic, valid revision, clean EOF mid-record (a partial write or
    /// copy) — must be refused with a clear `InvalidData` error rather
    /// than loading a silently incomplete session.
    #[test]
    fn mid_record_truncation_is_refused() {
        let (dir, _) = saved_store("truncated");
        let file = store_file(&dir);
        let bytes = std::fs::read(&file).expect("read");
        // Cut off mid-record at several depths: inside the first record
        // header (bytes 12..24, after the 12-byte file header), inside its
        // payload, and a few bytes short of the end (EOF inside the final
        // record).
        for cut in [18, 40, bytes.len() - 5, bytes.len() - 1] {
            assert!(cut < bytes.len(), "fixture large enough");
            std::fs::write(&file, &bytes[..cut]).expect("write");
            let err = match DetectSession::load_from(&dir) {
                Err(e) => e,
                Ok(_) => panic!("store truncated at {cut} accepted"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash mid-`save_to` must never damage the previously saved
    /// file: the write stages into a sibling tempfile and lands via
    /// atomic rename. The test replays the kill by planting exactly the
    /// partial bytes a writer killed partway would leave at the staging
    /// path — the store must still load, byte-for-byte warm.
    #[test]
    fn killed_save_leaves_previous_file_loadable() {
        let p = atropos_dsl::parse(RELAY).unwrap();
        let engine = DetectionEngine::serial();
        let (dir, verdicts) = saved_store("crash_save");
        let file = store_file(&dir);
        let good = std::fs::read(&file).expect("read saved file");

        // "Kill" a second save partway: the staging sibling holds a
        // truncated prefix, but no rename ever happens.
        let staged = crate::corpus::tmp_sibling(&file);
        std::fs::write(&staged, &good[..good.len() / 2]).expect("partial write");

        // The real file is untouched and still loads to the same verdicts.
        assert_eq!(std::fs::read(&file).expect("reread"), good);
        let mut reloaded = DetectSession::load_from(&dir).expect("load survives the crash");
        let (again, stats) = pairs(&engine, &p, &mut reloaded);
        assert_eq!(again, verdicts);
        assert_eq!(stats.queries, 0, "reloaded verdicts replay warm");

        // And a completed save atomically replaces the file, leaving no
        // staging debris or lock of its own behind.
        reloaded.save_to(&dir).expect("second save");
        let mut left: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|f| f != &staged && f != &file)
            .collect();
        left.sort();
        assert!(left.is_empty(), "debris: {left:?}");
        let (again, stats) = pairs(
            &engine,
            &p,
            &mut DetectSession::load_from(&dir).expect("load after resave"),
        );
        assert_eq!((again, stats.queries), (verdicts, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `save_to` creates a missing store directory and `load_from` replays
    /// it warm in both modes; loading a path that does not exist is a
    /// `NotFound` error, not an empty session.
    #[test]
    fn directory_paths_dispatch_to_the_v2_store() {
        let p = atropos_dsl::parse(RELAY).unwrap();
        let engine = DetectionEngine::serial();
        let mut first = DetectSession::new();
        let (verdicts, _) = pairs(&engine, &p, &mut first);
        let (triples, _) = engine.detect_with_mode(&p, EC, DetectMode::Triples, &mut first);

        let dir = scratch("session_store").join("nested");
        let Err(err) = DetectSession::load_from(&dir) else {
            panic!("loaded a store that was never saved")
        };
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let entries = first.save_to(&dir).expect("save creates the store");
        assert!(dir.is_dir());
        assert_eq!(entries, first.len() + first.triple_len());

        let mut second = DetectSession::load_from(&dir).expect("load from store");
        let (again_pairs, sp) = pairs(&engine, &p, &mut second);
        let (again_triples, st) = engine.detect_with_mode(&p, EC, DetectMode::Triples, &mut second);
        assert_eq!(again_pairs, verdicts);
        assert_eq!(again_triples, triples);
        assert_eq!(sp.queries + st.queries, 0, "store verdicts replay warm");
        let _ = std::fs::remove_dir_all(dir.parent().expect("scratch root"));
    }

    /// A store persisted by a different encoder revision must not be
    /// silently trusted: its verdicts may not mean what this build thinks
    /// (stale-verdict replay would bypass re-detection entirely), so the
    /// whole store reads as empty and every verdict is re-solved. This
    /// store holds no certificates; `tests/corpus_store.rs` shows that a
    /// certified stale record is refused too.
    #[test]
    fn stale_encoder_revision_is_refused() {
        let (dir, verdicts) = saved_store("stale_revision");
        // Rewind the file's encoder-revision field (the 4 bytes after the
        // magic) to a foreign value, leaving everything else
        // byte-identical.
        let file = store_file(&dir);
        let mut bytes = std::fs::read(&file).expect("read");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&file, &bytes).expect("write");

        let mut session = DetectSession::load_from(&dir).expect("stale store loads");
        assert!(
            session.is_empty(),
            "proofless stale records must be refused"
        );
        let p = atropos_dsl::parse(RELAY).unwrap();
        let (again, stats) = pairs(&DetectionEngine::serial(), &p, &mut session);
        assert_eq!(again, verdicts);
        assert_eq!(
            session.cache_stats().misses,
            stats.pairs,
            "refused verdicts are re-solved"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
