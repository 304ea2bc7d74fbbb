//! Fleet-scale detection: the `verdict_cache.v3` store behind
//! [`crate::DetectSession::save_to`] and [`crate::DetectSession::load_from`],
//! and [`analyse_corpus`], the detection driver over a whole corpus.
//!
//! # The v3 store
//!
//! A saved session is a **directory** holding one record file, so
//! concurrent sessions merge instead of clobbering one snapshot file:
//!
//! * the file is a record log — a magic/revision header followed by
//!   length-prefixed records, each carrying an FNV-1a checksum and one
//!   verdict entry (see `encode_payload`);
//! * the file is written via sibling tempfile + atomic rename, so a crash
//!   at any point leaves either the old file or the new one — never a
//!   truncated hybrid;
//! * an advisory lock file (`verdicts.lock`, acquired with
//!   `O_EXCL`-style `create_new`, present only while a save runs)
//!   serializes writers: a save reads the current file under the lock,
//!   unions its entries in, and rewrites — so two concurrent sessions
//!   **merge instead of clobber** (the union of their verdicts survives,
//!   proven by the concurrency tests).
//!
//! A persisted verdict is only a cache entry: a file written under
//! another encoder revision reads as empty and its verdicts are re-solved.
//! Both ends refuse a path that is a regular file.
//!
//! # Corpus passes
//!
//! The paper's detection phase is embarrassingly fingerprint-dedupable
//! across programs: millions of users ship near-identical transaction
//! shapes, so a corpus is mostly repeated fingerprints. [`analyse_corpus`]
//! exploits this with a **global plan**: the detection driver takes the
//! whole corpus as its batch — one program is simply a corpus of one — so
//! it dedups the dirty pair/triple keys across every program, solves each
//! unique key exactly once on one shared [`crate::DetectionEngine`] worker
//! pool, and answers every program's slots from the merged session.
//! Per-program verdicts are byte-identical to running each program through
//! [`DetectionEngine::detect_with_mode`] in isolation (pinned by
//! `tests/corpus_differential.rs` at 1/2/8 threads): a corpus pass only
//! changes how often the solver runs, never what it concludes.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use atropos_dsl::Program;

use crate::cache::{GroupKey, VerdictEntry};
use crate::detect::{AccessPair, AnomalyKind, DetectStats, Finding};
use crate::encode::ConsistencyLevel;
use crate::engine::{detect_batch, DetectMode, DetectionEngine};
use crate::model::ProgramSummary;
use crate::session::DetectSession;

/// Magic + version header of the store's record file. The magic names
/// the header layout only: the record layout is covered by
/// [`ENCODER_REVISION`], so the magic stays `v3` when the records change.
/// A `v2` store (sixteen shard files, each with a longer header) is
/// named differently, so it reads as an empty store.
const STORE_MAGIC: &[u8; 8] = b"ATRVC\x03\0\0";

/// The record file inside a store directory.
pub(crate) const STORE_FILE: &str = "verdicts.v3";

/// The advisory lock file a save holds inside a store directory.
const LOCK_FILE: &str = "verdicts.lock";

/// Revision of the *encoder* that produced a store, written right after
/// the magic. The format version (`v3`, in the magic) names the header
/// layout; the encoder revision names the record layout and the semantics
/// of what the verdicts *mean* — bump it whenever the record encoding, the
/// fingerprint function, the violation templates, the encoding, or the
/// anomaly vocabulary changes. A store written under another revision
/// reads as empty ([`CorpusStore::read_records`]): its verdicts are
/// re-solved, and the next merge rewrites the file under this revision.
/// Not even a certified clean verdict survives, because a certificate
/// refutes the clauses its own solver logged, not the queries the current
/// encoder issues for the group. The value is high-entropy on purpose, so
/// it cannot collide with a small count.
///
/// `0xA750_0002`: verdict entries gained an embedded proof-blob
/// section.
/// `0xA750_0003`: findings name their commands by (member, command
/// index) instead of by the solving program's labels.
/// `0xA750_0004`: the base encoding emits program order before
/// transitivity. Certificates keep the same `Input` clauses, in a new
/// order, and root simplification no longer adds `Delete` steps.
/// `0xA750_0005`: a pair is keyed by, and grounded over, its members'
/// conflict slices, so its findings name commands by slice position and
/// its certificates refute the sliced encoding. Command fingerprints no
/// longer hash the command's position; the slice folds it in instead.
/// `0xA750_0006`: records no longer carry a unix-seconds stamp (the store
/// no longer evicts), so the tag is followed directly by the member
/// fingerprints. Verdicts mean what they meant under `0xA750_0005`; a
/// store in the older layout reads as empty and is re-solved. (The move
/// from sixteen `v2` shard files to one `v3` file changed only the
/// header, so it kept this revision.)
pub(crate) const ENCODER_REVISION: u32 = 0xA750_0006;

/// How long a writer waits for the store lock before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// Age after which a lock file is presumed abandoned (a crashed holder)
/// and taken over.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(30);

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("verdict_cache.v3: {msg}"))
}

/// FNV-1a 64-bit over `bytes`: the per-record checksum. Chosen over the
/// std hasher because its value is pinned by the algorithm, not by the
/// std implementation — records written by one build verify under any
/// other.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` via a sibling tempfile and an atomic rename,
/// so a crash at any point leaves either the old file or the new one —
/// never a truncation. The temp name carries the pid and a process-local
/// sequence number, so concurrent writers in one or many processes never
/// collide on it.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    if let Err(e) = fs::write(&tmp, bytes) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// The sibling tempfile [`write_atomic`] stages into before renaming over
/// `path` — exposed so the crash-regression test can plant exactly the
/// partial file a writer killed mid-write would leave behind.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!(".{name}.tmp.{}.{seq}", std::process::id()))
}

/// RAII advisory lock on a store: a [`LOCK_FILE`] created with
/// `create_new` (fails if it exists), deleted on drop. Waiters poll; a
/// lock older than [`LOCK_STALE_AFTER`] is presumed abandoned by a
/// crashed holder and removed.
struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    fn acquire(dir: &Path) -> io::Result<StoreLock> {
        let path = dir.join(LOCK_FILE);
        let started = Instant::now();
        loop {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return Ok(StoreLock { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age > LOCK_STALE_AFTER);
                    if stale {
                        // Take over an abandoned lock; a racing taker just
                        // loops back to create_new.
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if started.elapsed() > LOCK_TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("timed out waiting for store lock {}", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// One record's payload. Every integer is little-endian; strings are UTF-8
/// with a `u32` length prefix; string sets are a `u32` count followed by
/// the strings in set order. The layout: a tag (`k - 2`: 0 for a pair, 1
/// for a triple), the `k` member fingerprints, the symmetric flag (pairs
/// only), the level, the `k` member names, the findings, and the proof
/// blobs.
fn encode_payload(key: &GroupKey, e: &VerdictEntry) -> Vec<u8> {
    let mut out = vec![(key.k() - 2) as u8];
    for &fp in key.fps() {
        put_u64(&mut out, fp);
    }
    if key.k() == 2 {
        out.push(u8::from(key.symmetric));
    }
    out.push(key.level.index() as u8);
    for t in &e.txns {
        put_str(&mut out, t);
    }
    put_findings(&mut out, &e.findings);
    put_u32(&mut out, e.proofs.len() as u32);
    for b in &e.proofs {
        put_u32(&mut out, b.len() as u32);
        out.extend_from_slice(b);
    }
    out
}

fn decode_payload(payload: &[u8]) -> io::Result<(GroupKey, VerdictEntry)> {
    let mut r = Reader::new(payload);
    let k = match r.u8()? {
        tag @ 0..=1 => tag as usize + 2,
        t => return Err(bad(&format!("unknown record tag {t}"))),
    };
    let fps = (0..k).map(|_| r.u64()).collect::<io::Result<Vec<u64>>>()?;
    let symmetric = k == 2 && r.u8()? != 0;
    let level = ConsistencyLevel::from_index(r.u8()? as usize)
        .ok_or_else(|| bad("unknown consistency-level tag"))?;
    let txns = (0..k)
        .map(|_| r.string())
        .collect::<io::Result<Vec<String>>>()?;
    let findings = r.findings(k)?;
    let proofs = r.blobs()?;
    let entry = VerdictEntry {
        txns,
        run: 0,
        findings,
        proofs,
    };
    Ok((GroupKey::new(&fps, symmetric, level), entry))
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The witness byte of a finding without a witness member.
const NO_WITNESS: u8 = u8::MAX;

/// Findings: a `u64` count, then per finding each anchor as (member `u8`,
/// command index `u32`, field set), the witness member (or
/// [`NO_WITNESS`]), and the kind tag.
fn put_findings(out: &mut Vec<u8>, findings: &[Finding]) {
    put_u64(out, findings.len() as u64);
    for f in findings {
        for ((member, cmd), fields) in f.cmds.iter().zip(&f.fields) {
            out.push(*member as u8);
            put_u32(out, *cmd as u32);
            put_u32(out, fields.len() as u32);
            for s in fields {
                put_str(out, s);
            }
        }
        out.push(f.witness.map_or(NO_WITNESS, |w| w as u8));
        out.push(f.kind.tag());
    }
}

/// A bounds-checked cursor over one record payload: every read past the
/// end is a typed `InvalidData` error, never a panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(bad(&format!(
                "truncated: need {n} more bytes at offset {}, record ends after {}",
                self.pos,
                self.bytes.len()
            )));
        };
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| bad("non-UTF-8 string"))
    }

    fn set(&mut self) -> io::Result<BTreeSet<String>> {
        let n = self.u32()? as usize;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(self.string()?);
        }
        Ok(out)
    }

    /// Smallest possible encoded [`Finding`]: two anchors of a member
    /// byte, a command index and an empty field set, plus the witness and
    /// kind bytes — bounds how many findings a length prefix can honestly
    /// promise.
    const MIN_ENCODED_FINDING: usize = 20;

    /// The findings of a `k`-member group; member references outside the
    /// group are refused.
    fn findings(&mut self, k: usize) -> io::Result<Vec<Finding>> {
        let n = self.u64()? as usize;
        // A length prefix can't promise more entries than bytes left —
        // checked against the minimum encoding so a garbage count in a
        // corrupt record fails here instead of sizing a huge allocation.
        if n > self.bytes.len().saturating_sub(self.pos) / Self::MIN_ENCODED_FINDING {
            return Err(bad("truncated"));
        }
        let member = |m: u8| match usize::from(m) {
            m if m < k => Ok(m),
            _ => Err(bad("finding names a member outside its group")),
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (m1, c1, f1) = (member(self.u8()?)?, self.u32()? as usize, self.set()?);
            let (m2, c2, f2) = (member(self.u8()?)?, self.u32()? as usize, self.set()?);
            let witness = match self.u8()? {
                NO_WITNESS => None,
                w => Some(member(w)?),
            };
            out.push(Finding {
                cmds: [(m1, c1), (m2, c2)],
                fields: [f1, f2],
                witness,
                kind: AnomalyKind::from_tag(self.u8()?)
                    .ok_or_else(|| bad("unknown anomaly-kind tag"))?,
            });
        }
        Ok(out)
    }

    fn blobs(&mut self) -> io::Result<Vec<Vec<u8>>> {
        let n = self.u32()? as usize;
        // Each promised blob costs at least its 4-byte length prefix.
        if n > self.bytes.len().saturating_sub(self.pos) / 4 {
            return Err(bad("truncated"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.u32()? as usize;
            out.push(self.take(len)?.to_vec());
        }
        Ok(out)
    }
}

/// The keyed records of a store.
type Records = BTreeMap<GroupKey, VerdictEntry>;

/// A concurrently mergeable on-disk verdict store — the
/// `verdict_cache.v3` format (see the [module docs](self) for the layout
/// and locking story).
pub(crate) struct CorpusStore {
    dir: PathBuf,
}

impl CorpusStore {
    /// Opens (creating if necessary) the store directory at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a `path` that exists but is not a directory
    /// (say, a single-file cache of an older build) is refused with
    /// [`io::ErrorKind::NotADirectory`].
    pub(crate) fn open(path: impl AsRef<Path>) -> io::Result<CorpusStore> {
        let path = path.as_ref();
        if path.exists() && !path.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotADirectory,
                format!(
                    "verdict_cache.v3: {} is not a store directory",
                    path.display()
                ),
            ));
        }
        fs::create_dir_all(path)?;
        Ok(CorpusStore {
            dir: path.to_path_buf(),
        })
    }

    fn path(&self) -> PathBuf {
        self.dir.join(STORE_FILE)
    }

    /// Reads and validates the record file. A missing file is an empty
    /// store, and so is a file written by a different encoder revision
    /// (see [`ENCODER_REVISION`]).
    fn read_records(&self) -> io::Result<Records> {
        let mut records = Records::new();
        let bytes = match fs::read(self.path()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(records),
            Err(e) => return Err(e),
        };
        if bytes.len() < STORE_MAGIC.len() + 4 {
            return Err(bad("truncated store header"));
        }
        if &bytes[..8] != STORE_MAGIC {
            return Err(bad("bad store magic (not a v3 store, or a future version)"));
        }
        let revision = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if revision != ENCODER_REVISION {
            return Ok(records);
        }
        let mut pos = 12;
        while pos < bytes.len() {
            if bytes.len() - pos < 12 {
                return Err(bad("truncated record header"));
            }
            let len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
            pos += 12;
            if bytes.len() - pos < len {
                return Err(bad("truncated record payload"));
            }
            let payload = &bytes[pos..pos + len];
            pos += len;
            if fnv1a(payload) != sum {
                return Err(bad("record checksum mismatch (corrupt store)"));
            }
            let (key, entry) = decode_payload(payload)?;
            records.insert(key, entry);
        }
        Ok(records)
    }

    /// Rewrites the record file (atomically) from its keyed records.
    fn write_records(&self, records: &Records) -> io::Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(STORE_MAGIC);
        put_u32(&mut out, ENCODER_REVISION);
        for (key, entry) in records {
            let payload = encode_payload(key, entry);
            put_u32(&mut out, payload.len() as u32);
            put_u64(&mut out, fnv1a(&payload));
            out.extend_from_slice(&payload);
        }
        write_atomic(&self.path(), &out)
    }

    /// Union-merges every verdict entry of `session` into the store: the
    /// record file is read, merged, and atomically rewritten under the
    /// store's advisory lock, so concurrent sessions merging into one
    /// store produce the union of their verdicts — never a clobber. Under
    /// a key the store already holds, the session's entry replaces the
    /// stored one: the encoder revision pins what a key's verdict means.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a corrupt file fails the merge with
    /// `InvalidData` (nothing is overwritten). A revision-stale file reads
    /// as empty, so the merge rewrites it under the current revision with
    /// only this session's verdicts.
    pub(crate) fn merge_cache(&self, session: &DetectSession) -> io::Result<()> {
        let _lock = StoreLock::acquire(&self.dir)?;
        let mut records = self.read_records()?;
        for (key, entry) in session.entries() {
            records.insert(*key, entry.clone());
        }
        self.write_records(&records)
    }

    /// Loads the record file into a fresh [`DetectSession`]: entries land
    /// in run 0, warm for every following run.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a corrupt record (checksum mismatch,
    /// truncation, unknown tag) is refused with `InvalidData`. A
    /// revision-stale file reads as empty.
    pub(crate) fn load_cache(&self) -> io::Result<DetectSession> {
        let mut session = DetectSession::new();
        for (key, entry) in self.read_records()? {
            session.absorb(key, entry);
        }
        Ok(session)
    }
}

/// Aggregate statistics of one [`analyse_corpus`] pass: how much solver
/// work the corpus-wide fingerprint dedup avoided.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Ordered transaction pairs planned across the whole corpus (what a
    /// program-at-a-time driver would have looked up).
    pub pair_slots: u64,
    /// Unique dirty pair keys actually solved — everything else was a
    /// duplicate fingerprint or already in the store.
    pub unique_pairs: u64,
    /// Unordered transaction triples planned across the corpus (zero
    /// outside [`DetectMode::Triples`]).
    pub triple_slots: u64,
    /// Unique dirty triple keys actually solved.
    pub unique_triples: u64,
    /// Solver-side statistics of the global solve phase (the counters
    /// `queries` through `decisions`).
    pub solve: DetectStats,
    /// Wall-clock seconds of the whole pass (plan + solve + answer), not
    /// counting summarizing the programs.
    pub seconds: f64,
}

/// One program's verdicts out of a corpus pass.
#[derive(Debug, Clone)]
pub struct CorpusVerdict {
    /// The program's name in the corpus.
    pub name: String,
    /// The anomaly verdicts — byte-identical to an isolated
    /// [`DetectionEngine::detect_with_mode`] pass over the same program.
    pub verdicts: Vec<AccessPair>,
    /// The program's slot counts (`pairs`, `triples`). The solve counters
    /// stay zero: the corpus-wide solve work is in [`CorpusStats::solve`].
    pub stats: DetectStats,
}

/// Analyses a whole corpus of programs against one shared session:
/// fingerprint-dedups the dirty pair/triple keys **across the corpus**,
/// solves each unique key once on `engine`'s worker pool (merged in plan
/// order — deterministic at any thread count), and answers every
/// program's verdicts from the merged session. It is the same driver a
/// single-program [`DetectionEngine::detect_with_mode`] pass runs, over a
/// corpus instead of a corpus of one.
///
/// Per-program verdicts are byte-identical to running each program
/// through the engine in isolation; the corpus pass only changes how often
/// the solver runs. It looks every slot up once, so the session's cache
/// statistics count a hit only for a slot cached before the pass.
pub fn analyse_corpus(
    engine: &DetectionEngine,
    programs: &[(String, Program)],
    level: ConsistencyLevel,
    mode: DetectMode,
    session: &mut DetectSession,
) -> (Vec<CorpusVerdict>, CorpusStats) {
    let summaries: Vec<ProgramSummary> = programs
        .iter()
        .map(|(_, p)| ProgramSummary::of(p))
        .collect();
    let batch: Vec<&ProgramSummary> = summaries.iter().collect();
    let (verdicts, stats) = detect_batch(engine, &batch, level, mode, session);
    let verdicts = programs
        .iter()
        .zip(verdicts)
        .map(|((name, _), (verdicts, stats))| CorpusVerdict {
            name: name.clone(),
            verdicts,
            stats,
        })
        .collect();
    (verdicts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::parse;

    const COUNTER: &str = "schema T { id: int key, v: int }
         txn bump(k: int) {
             x := select v from T where id = k;
             update T set v = x.v + 1 where id = k;
             return 0;
         }";

    #[test]
    fn duplicated_corpus_solves_each_unique_key_once() {
        let p = parse(COUNTER).unwrap();
        let programs: Vec<(String, Program)> =
            (0..8).map(|i| (format!("c{i}"), p.clone())).collect();
        let mut session = DetectSession::new();
        let engine = DetectionEngine::new(2);
        let (verdicts, stats) = analyse_corpus(
            &engine,
            &programs,
            ConsistencyLevel::EventualConsistency,
            DetectMode::Pairs,
            &mut session,
        );
        assert_eq!(verdicts.len(), 8);
        assert_eq!(stats.pair_slots, 8, "one ordered self-pair per copy");
        assert_eq!(stats.unique_pairs, 1, "fingerprint dedup across the corpus");
        for v in &verdicts {
            assert_eq!(v.verdicts.len(), 1);
            assert_eq!(v.stats.queries, 0, "solve work is reported corpus-wide");
        }
    }

    /// A saved session loads back entry for entry, and saving the same
    /// entries again rewrites the same bytes: a re-save adds no record.
    #[test]
    fn corpus_store_roundtrips_and_counts() {
        let p = parse(COUNTER).unwrap();
        let mut session = DetectSession::new();
        DetectionEngine::serial().detect_with_mode(
            &p,
            ConsistencyLevel::EventualConsistency,
            DetectMode::Pairs,
            &mut session,
        );
        let dir = std::env::temp_dir().join(format!(
            "atropos_corpus_unit_{}_{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        assert_eq!(session.save_to(&dir).expect("save"), 1);
        let files = || -> Vec<(PathBuf, Vec<u8>)> {
            let mut files: Vec<_> = fs::read_dir(&dir)
                .expect("read store dir")
                .map(|e| e.expect("dir entry").path())
                .map(|f| (f.clone(), fs::read(&f).expect("read file")))
                .collect();
            files.sort();
            files
        };
        let saved = files();
        assert_eq!(saved.len(), 1, "one entry, one file");
        assert_eq!(saved[0].0, dir.join(STORE_FILE));
        session.save_to(&dir).expect("re-save");
        assert_eq!(files(), saved);
        let loaded = DetectSession::load_from(&dir).expect("load");
        assert_eq!(loaded.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The relay chain plus a read-modify-write: at EC the store holds
    /// dirty pair and triple records, at SER certified clean ones.
    const RELAY_BUMP: &str = "schema MSG { m_id: int key, m_body: int }
         schema FEED { f_id: int key, f_body: int }
         txn post(m: int, body: int) {
             update MSG set m_body = body where m_id = m;
             return 0;
         }
         txn relay(m: int, f: int) {
             x := select m_body from MSG where m_id = m;
             update FEED set f_body = x.m_body where f_id = f;
             return 0;
         }
         txn timeline(f: int, m: int) {
             y := select f_body from FEED where f_id = f;
             z := select m_body from MSG where m_id = m;
             return 0;
         }
         txn bump(m: int) {
             v := select m_body from MSG where m_id = m;
             update MSG set m_body = v.m_body + 1 where m_id = m;
             return 0;
         }";

    /// Store records are outside input. Byte mutations inside one record,
    /// re-sealed with a recomputed checksum so they reach the payload
    /// decoder, must load or fail with `InvalidData`, never panic; a
    /// loaded session must answer detection passes in both modes.
    #[test]
    fn resealed_record_mutations_load_or_fail_typed() {
        let p = parse(RELAY_BUMP).unwrap();
        let mut session = DetectSession::new();
        let certifying = DetectionEngine::serial().with_proofs(true);
        for level in [
            ConsistencyLevel::EventualConsistency,
            ConsistencyLevel::Serializable,
        ] {
            certifying.detect_with_mode(&p, level, DetectMode::Triples, &mut session);
        }
        // Pair and triple records, each both dirty and certified clean.
        let audits = session.audits();
        for k in [2, 3] {
            let of_k = || audits.iter().filter(move |a| a.txns.len() == k);
            assert!(of_k().any(|a| a.anomalies > 0), "no dirty {k}-record");
            assert!(
                of_k().any(|a| a.anomalies == 0 && !a.proofs.is_empty()),
                "no certified clean {k}-record"
            );
        }
        let dir = std::env::temp_dir().join(format!(
            "atropos_corpus_fuzz_{}_{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        session.save_to(&dir).expect("save");
        let path = dir.join(STORE_FILE);
        let pristine = fs::read(&path).expect("read store");
        // Every record as (offset of its length prefix, payload length); the
        // records start after the 12-byte magic + revision header.
        let mut records = Vec::new();
        let mut pos = STORE_MAGIC.len() + 4;
        while pos < pristine.len() {
            let len = u32::from_le_bytes(pristine[pos..pos + 4].try_into().unwrap()) as usize;
            records.push((pos, len));
            pos += 12 + len;
        }

        let engine = DetectionEngine::serial();
        let mut rng = proptest::rng::TestRng::seed_from_u64(0xA7_5707);
        let (mut loaded, mut refused) = (0, 0);
        for case in 0..2000 {
            let (at, len) = records[rng.below(records.len() as u64) as usize];
            let mut bytes = pristine.clone();
            let payload = at + 12..at + 12 + len;
            for _ in 0..=rng.below(3) {
                bytes[payload.start + rng.below(len as u64) as usize] ^= (1 + rng.below(255)) as u8;
            }
            let sum = fnv1a(&bytes[payload]);
            bytes[at + 4..at + 12].copy_from_slice(&sum.to_le_bytes());
            fs::write(&path, &bytes).expect("write mutant");
            match DetectSession::load_from(&dir) {
                Ok(mut session) => {
                    loaded += 1;
                    for mode in [DetectMode::Pairs, DetectMode::Triples] {
                        let ec = ConsistencyLevel::EventualConsistency;
                        engine.detect_with_mode(&p, ec, mode, &mut session);
                    }
                }
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}");
                    refused += 1;
                }
            }
            fs::write(&path, &pristine).expect("restore store");
        }
        assert!(
            loaded > 500 && refused > 100,
            "{loaded} loaded, {refused} refused"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
