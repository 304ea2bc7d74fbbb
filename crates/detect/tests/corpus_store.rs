//! Integration coverage for the `verdict_cache.v3` store, driven through
//! `DetectSession::save_to` and `DetectSession::load_from`: two concurrent
//! sessions union-merge under the store's one lock (no lost verdicts),
//! corrupt and truncated record files are refused by byte surgery, and a
//! revision-stale store reads as empty, so every verdict is re-solved
//! whether or not it carries a certificate.

use std::path::{Path, PathBuf};

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

/// The record file of a store directory: the only file a store holds
/// once no save is running.
fn store_file(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one record file: {files:?}");
    files.into_iter().next().expect("one file")
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
                // Save repeatedly to force lock contention and
                // read-modify-write interleavings.
                for _ in 0..8 {
                    cache.save_to(&dir).expect("save");
                }
            });
        }
    });

    let mut loaded = DetectSession::load_from(&dir).expect("load");
    assert_eq!(loaded.len() + loaded.triple_len(), expect, "no lost verdicts");
    // No lock debris survives the merges.
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .all(|e| e.unwrap().path().extension().is_some_and(|x| x == "v3")),
        "only the record file remains"
    );

    // The union answers both programs entirely warm.
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
    warm_cache(BANK).save_to(&dir).expect("save");

    let file = store_file(&dir);
    let mut bytes = std::fs::read(&file).expect("read store");
    *bytes.last_mut().expect("non-empty") ^= 0xFF; // inside the final record's payload
    std::fs::write(&file, &bytes).expect("write corrupted store");

    let err = match DetectSession::load_from(&dir) {
        Err(e) => e,
        Ok(_) => panic!("corrupt store accepted"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record file cut off mid-record — or left zero-length by a crash
/// before its first write — is refused as truncated.
#[test]
fn truncated_shard_is_refused() {
    let dir = scratch("truncated");
    warm_cache(BANK).save_to(&dir).expect("save");

    let file = store_file(&dir);
    let bytes = std::fs::read(&file).expect("read store");
    for cut in [bytes.len() - 3, 0] {
        std::fs::write(&file, &bytes[..cut]).expect("truncate store");
        let err = match DetectSession::load_from(&dir) {
            Err(e) => e,
            Ok(_) => panic!("store truncated to {cut} bytes accepted"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the record file's encoder-revision field (bytes 8..12, right
/// after the magic), leaving everything else byte-identical — the surgery
/// simulating a store written by an older build.
fn stale_store(dir: &Path) {
    let file = store_file(dir);
    let mut bytes = std::fs::read(&file).expect("read store");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&file, &bytes).expect("write stale store");
}

/// A revision-stale store whose records carry no proof certificates must
/// be dropped wholesale: without certificates its verdicts may not mean
/// what this build thinks, so everything is re-solved.
#[test]
fn stale_shard_without_proofs_is_dropped_wholesale() {
    let dir = scratch("stale");
    assert!(warm_cache(COUNTER).save_to(&dir).expect("save") > 0);

    stale_store(&dir);

    let stale = DetectSession::load_from(&dir).expect("a stale store loads, not errors");
    assert_eq!(
        stale.len() + stale.triple_len(),
        0,
        "proofless stale records must not be trusted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A revision-stale store reads as empty even when its clean verdicts
/// carry certificates that still check: a certificate refutes the clauses
/// its own solver logged, not the queries the current encoder issues. So
/// every verdict is re-solved, and saving rewrites the store under the
/// current revision.
#[test]
fn stale_certified_shard_is_re_solved_and_rewritten() {
    const SER: ConsistencyLevel = ConsistencyLevel::Serializable;
    let dir = scratch("stale_certified");
    // Warm BANK with proof capture on, at two levels: under SER every
    // candidate anomaly is refuted, so the write-touching pairs are clean
    // *with* checking certificates; under EC the deposit pairs are dirty
    // (lost update).
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
    let total = session.save_to(&dir).expect("save");

    stale_store(&dir);

    let mut reloaded = DetectSession::load_from(&dir).expect("a stale store loads, not errors");
    assert_eq!(
        reloaded.len() + reloaded.triple_len(),
        0,
        "no stale record is trusted, certified or not"
    );

    // Every group is re-solved, and the dirty EC verdicts are re-found.
    let before = reloaded.cache_stats();
    detect(&engine, &p, SER, &mut reloaded);
    let delta = reloaded.cache_stats().since(&before);
    assert_eq!(delta.hits, 0, "a stale verdict answered: {delta:?}");
    assert!(delta.misses > 0, "{delta:?}");
    let (pairs, _) = engine.detect_with_mode(&p, EC, DetectMode::Pairs, &mut reloaded);
    assert!(!pairs.is_empty(), "the lost update is re-found");

    // Saving rewrites the stale store under the current revision.
    reloaded.save_to(&dir).expect("merge over the stale store");
    let again = DetectSession::load_from(&dir).expect("reload");
    assert_eq!(again.len() + again.triple_len(), total);
    let _ = std::fs::remove_dir_all(&dir);
}
