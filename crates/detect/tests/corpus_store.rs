//! Integration coverage for the sharded `verdict_cache.v2` store: two
//! concurrent sessions union-merge (no lost verdicts), corrupt shards
//! are refused by byte surgery, revision-stale shards degrade to
//! per-record salvage (only certified clean verdicts survive), and the
//! compaction pass enforces the eviction policy.

use std::path::{Path, PathBuf};

use atropos_detect::corpus::{CorpusStore, EvictionPolicy};
use atropos_detect::{ConsistencyLevel, DetectMode, DetectSession, DetectionEngine};
use atropos_dsl::Program;

const COUNTER: &str = "schema C { id: int key, cnt: int }
     txn bump(k: int) {
         x := select cnt from C where id = k;
         update C set cnt = x.cnt + 1 where id = k;
         return 0;
     }";

const BANK: &str = "schema ACC { id: int key, bal: int }
     txn deposit(a: int, amt: int) {
         x := select bal from ACC where id = a;
         update ACC set bal = x.bal + amt where id = a;
         return 0;
     }
     txn audit(a: int, b: int) {
         p := select bal from ACC where id = a;
         q := select bal from ACC where id = b;
         return 0;
     }";

const EC: ConsistencyLevel = ConsistencyLevel::EventualConsistency;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atropos_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);
    dir
}

/// One pair-mode pass of `engine` at `level`.
fn detect(engine: &DetectionEngine, p: &Program, level: ConsistencyLevel, s: &mut DetectSession) {
    engine.detect_with_mode(p, level, DetectMode::Pairs, s);
}

/// A session holding `src`'s EC pair verdicts.
fn warm_cache(src: &str) -> DetectSession {
    let p = atropos_dsl::parse(src).unwrap();
    let mut session = DetectSession::new();
    detect(&DetectionEngine::serial(), &p, EC, &mut session);
    session
}

/// Every shard file currently in a store directory.
fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "v2"))
        .collect();
    files.sort();
    files
}

/// Two sessions merging concurrently into one store must produce the
/// union of their verdicts — the clobber a single snapshot file suffers
/// (last writer wins) must not reproduce.
#[test]
fn concurrent_sessions_union_merge_without_losing_verdicts() {
    let dir = scratch("union");
    let a = warm_cache(COUNTER);
    let b = warm_cache(BANK);
    let expect = a.len() + b.len(); // distinct schemas ⇒ disjoint fingerprints

    std::thread::scope(|s| {
        for cache in [&a, &b] {
            s.spawn(|| {
                let store = CorpusStore::open(&dir).expect("open store");
                // Merge repeatedly to force lock contention and
                // read-modify-write interleavings.
                for _ in 0..8 {
                    store.merge_cache(cache).expect("merge");
                }
            });
        }
    });

    let store = CorpusStore::open(&dir).expect("reopen");
    assert_eq!(store.entry_count().expect("count"), expect, "no lost verdicts");
    // No lock debris survives the merges.
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .all(|e| e.unwrap().path().extension().is_some_and(|x| x == "v2")),
        "only shard files remain"
    );

    // The union answers both programs entirely warm.
    let mut loaded = store.load_cache().expect("load");
    for src in [COUNTER, BANK] {
        let p = atropos_dsl::parse(src).unwrap();
        let before = loaded.cache_stats();
        detect(&DetectionEngine::serial(), &p, EC, &mut loaded);
        let delta = loaded.cache_stats().since(&before);
        assert_eq!(
            delta.misses + delta.triple_misses,
            0,
            "union replays {src:.20} warm: {delta:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped payload byte must be caught by the per-record checksum and
/// refused as corrupt — never silently decoded into a wrong verdict.
#[test]
fn corrupt_shard_byte_is_refused_by_checksum() {
    let dir = scratch("corrupt");
    let store = CorpusStore::open(&dir).expect("open");
    store.merge_cache(&warm_cache(BANK)).expect("merge");

    let shard = shard_files(&dir).pop().expect("at least one shard");
    let mut bytes = std::fs::read(&shard).expect("read shard");
    *bytes.last_mut().expect("non-empty") ^= 0xFF; // inside the final record's payload
    std::fs::write(&shard, &bytes).expect("write corrupted shard");

    let err = match store.load_cache() {
        Err(e) => e,
        Ok(_) => panic!("corrupt shard accepted"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard cut off mid-record — or left zero-length by a crash before its
/// first write — is refused as truncated.
#[test]
fn truncated_shard_is_refused() {
    let dir = scratch("truncated");
    let store = CorpusStore::open(&dir).expect("open");
    store.merge_cache(&warm_cache(BANK)).expect("merge");

    let shard = shard_files(&dir).pop().expect("at least one shard");
    let bytes = std::fs::read(&shard).expect("read shard");
    for cut in [bytes.len() - 3, 0] {
        std::fs::write(&shard, &bytes[..cut]).expect("truncate shard");
        let err = match store.load_cache() {
            Err(e) => e,
            Ok(_) => panic!("shard truncated to {cut} bytes accepted"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites every shard's encoder-revision field (bytes 8..12, right
/// after the magic), leaving everything else byte-identical — the surgery
/// simulating a store written by an older build.
fn stale_all_shards(dir: &Path) {
    for shard in shard_files(dir) {
        let mut bytes = std::fs::read(&shard).expect("read shard");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&shard, &bytes).expect("write stale shard");
    }
}

/// A revision-stale shard whose records carry no proof certificates must
/// be dropped wholesale: without certificates its verdicts may not mean
/// what this build thinks, so everything is re-solved.
#[test]
fn stale_shard_without_proofs_is_dropped_wholesale() {
    let dir = scratch("stale");
    let store = CorpusStore::open(&dir).expect("open");
    store.merge_cache(&warm_cache(COUNTER)).expect("merge");
    assert!(store.entry_count().expect("count") > 0);

    stale_all_shards(&dir);

    let salvaged = store.load_cache().expect("stale store salvages, not errors");
    assert_eq!(
        salvaged.len() + salvaged.triple_len(),
        0,
        "proofless stale records must not be trusted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The revision refusal downgrades to per-record salvage when a record
/// can vouch for itself: a **clean** verdict whose proof certificates
/// still pass the independent checker survives the encoder-revision bump
/// without a re-solve; dirty verdicts (uncertified SAT witnesses) are
/// still dropped.
#[test]
fn stale_shard_salvages_certified_clean_verdicts() {
    const SER: ConsistencyLevel = ConsistencyLevel::Serializable;
    let dir = scratch("stale_certified");
    let _ = CorpusStore::open(&dir).expect("create store");
    // Warm BANK with proof capture on, at two levels: under SER every
    // candidate anomaly is refuted, so the write-touching pairs are clean
    // *with* checking certificates; under EC the deposit pairs are dirty
    // (lost update), so those verdicts rest on uncertified SAT witnesses.
    let p = atropos_dsl::parse(BANK).unwrap();
    let engine = DetectionEngine::serial().with_proofs(true);
    let mut session = DetectSession::new();
    detect(&engine, &p, SER, &mut session);
    detect(&engine, &p, EC, &mut session);
    let certified = session
        .audits()
        .iter()
        .filter(|a| a.anomalies == 0 && !a.proofs.is_empty())
        .count();
    assert!(certified > 0, "at least one clean verdict is certified");
    session.save_to(&dir).expect("merge into store");
    let store = CorpusStore::open(&dir).expect("reopen");
    let total = store.entry_count().expect("count");

    stale_all_shards(&dir);

    let mut reloaded = DetectSession::load_from(&dir).expect("stale store salvages, not errors");
    let kept = reloaded.len() + reloaded.triple_len();
    assert_eq!(
        kept, certified,
        "exactly the certified clean verdicts survive the revision bump"
    );
    assert!(kept < total, "everything else is dropped for re-solving");

    // The survivors replay warm: a SER pass re-solves only the dropped
    // (proofless) entries, never a salvaged certified one.
    let before = reloaded.cache_stats();
    detect(&engine, &p, SER, &mut reloaded);
    let delta = reloaded.cache_stats().since(&before);
    assert!(delta.hits > 0, "salvaged verdicts answer warm: {delta:?}");
    assert!(delta.misses > 0, "dropped verdicts are re-solved: {delta:?}");
    // And the dropped dirty EC verdicts are genuinely re-found.
    let (pairs, _) = engine.detect_with_mode(&p, EC, DetectMode::Pairs, &mut reloaded);
    assert!(!pairs.is_empty(), "the lost update is re-found");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction enforces the eviction policy deterministically: age evicts
/// everything older than the horizon, and the size cap drops the
/// oldest-stamped records first.
#[test]
fn compaction_applies_age_and_size_eviction() {
    let dir = scratch("evict");
    let store = CorpusStore::open(&dir).expect("open");
    let old = warm_cache(COUNTER);
    let new = warm_cache(BANK);
    store.merge_cache_stamped(&old, 100).expect("merge old");
    store.merge_cache_stamped(&new, 200).expect("merge new");
    let total = old.len() + new.len();
    assert_eq!(store.entry_count().expect("count"), total);

    // A no-op policy only rewrites.
    let report = store
        .compact_at(&EvictionPolicy::default(), 250)
        .expect("noop compact");
    assert_eq!((report.kept, report.evicted), (total, 0));

    // Age horizon: everything stamped 100 is older than 80s at t=250.
    let report = store
        .compact_at(
            &EvictionPolicy {
                max_age_secs: Some(80),
                max_entries: None,
            },
            250,
        )
        .expect("age compact");
    assert_eq!((report.kept, report.evicted), (new.len(), old.len()));

    // Size cap: keep one record (the stamps now tie, so the cut falls
    // back on key order — deterministic either way).
    let report = store
        .compact_at(
            &EvictionPolicy {
                max_age_secs: None,
                max_entries: Some(1),
            },
            250,
        )
        .expect("size compact");
    assert_eq!((report.kept, report.evicted), (1, new.len() - 1));
    assert_eq!(store.entry_count().expect("count"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
