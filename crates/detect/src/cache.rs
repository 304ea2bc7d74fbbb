//! Verdict caching across program edits: what the oracle-reuse layer of
//! the near-incremental repair loop caches, and under which key.
//!
//! A refactoring step (split / merge / redirect / logging) touches a handful
//! of commands, yet the Fig. 10 driver re-runs the whole anomaly oracle on
//! the mutated program. The [`crate::DetectSession`] closes that gap one
//! level above the SAT layer: the verdicts of every **instance group** the
//! oracle analyses — an ordered transaction pair, or in
//! [`crate::DetectMode::Triples`] an unordered triple — are memoized under
//! a **canonical fingerprint** of what the group's model is grounded over,
//! so re-detection after a step only re-encodes and re-solves the groups
//! whose fingerprints changed.
//!
//! # The fingerprint
//!
//! [`txn_fingerprint`] hashes everything the bounded encoding and the
//! violation templates can observe about a transaction: its name and, per
//! command in program order, the kind, schema, position, read/write field
//! sets, key specification, bound variable, and used variables. Command
//! **labels are deliberately excluded** — a pure relabeling preserves
//! verdicts, so a relabeled program keeps hitting. Cached verdicts
//! therefore store no labels either: each finding names its commands by
//! (member, command index), and every hit is labelled from the program it
//! answers. Anything else a rewrite can change (field sets, filters,
//! schemas, command order) lands in the fingerprint, so a stale hit is
//! impossible as long as the fingerprint is *sound*: any mutation that
//! changes a command's access behaviour must change it. That soundness
//! obligation is pinned by the property suite in
//! `crates/detect/tests/fingerprint_prop.rs`, not by the end-to-end tests.
//!
//! # Conflict slices
//!
//! A pair's model needs only each member's commands on tables the other
//! member accesses, its **conflict slice**. The paper reports every
//! anomaly as an access pair of conflicting commands, and a command on a
//! table the partner never touches conflicts with nothing in the other
//! instance. Any model of the sliced encoding extends to the full one:
//! place each dropped command by program order; under CC, a foreign
//! command sees a dropped command's effects exactly when it sees a later
//! kept effect of the same session, which already carries every causal
//! relay the dropped one could make; RR and SER constrain only commands
//! that share a record. So a pair is grounded over its two slices (each
//! command's `prog_index` renumbered within the slice), its findings name
//! commands by slice position, and a hit maps them back through the
//! slice's kept indices. A self-pair's slices keep every command.
//!
//! [`slice_fingerprint`] folds what [`txn_fingerprint`] folds, restricted
//! to the kept commands, with each command's position made relative to
//! the slice, so a slice that keeps every command carries the transaction
//! fingerprint. An edit to a command on a table the partner never touches
//! leaves the slice, and so the pair's key, unchanged: logging
//! `STOCK.s_ytd` in TPC-C's `newOrder` re-keys no pair with `payment`.
//! Slices are computed once per (transaction, partner table set) from
//! each command's fingerprint input, recorded once per transaction
//! (`ProgramKeys`). A program state's keys are built once, with its
//! summaries, into a [`crate::ProgramSummary`]: every detection pass,
//! sweep and witness decoder of that state reads them there, and the
//! transaction fingerprints with them.
//!
//! # The group key
//!
//! One `GroupKey` keys verdicts and the persistent store's records: the
//! member fingerprints in **key orientation** — a pair's two slice
//! fingerprints in order (the templates are asymmetric), a triple's three
//! transaction fingerprints sorted (every role permutation is analysed
//! inside one entry, so the verdict is independent of which orientation
//! grounded it; triples are not sliced) — plus, for a pair, whether the
//! symmetric (lost-update) template ran, and the consistency level.
//!
//! A session caches verdicts only. A miss grounds its group's model and
//! decides its queries by closure ([`crate::closure`]), which keeps
//! nothing worth retaining between passes: its index is built in the
//! time the grounding takes.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use crate::detect::Finding;
use crate::encode::ConsistencyLevel;
use crate::model::{CmdSummary, KeySpec, TxnSummary};

/// Canonical fingerprint of one transaction's command summaries: the exact
/// information the pair encoding and the violation templates consume. It
/// is the fingerprint of the transaction's identity slice, the fold of
/// [`slice_fingerprint`] over every command.
///
/// Two summaries with equal fingerprints produce identical detection
/// verdicts when paired with equal-fingerprint partners (up to command
/// labels, which are excluded — see the module docs). The fingerprint is a
/// 64-bit hash of a canonical serialization; collisions are possible in
/// principle but vanishingly unlikely at repair-loop cache sizes
/// (tens of entries).
pub fn txn_fingerprint(txn: &TxnSummary) -> u64 {
    Slice::of(txn, &CmdBytes::of(txn), |_| true).fp
}

/// The fingerprint of `txn`'s **conflict slice** against `partner`: the
/// commands of `txn` on tables `partner` accesses, which are all a pair
/// model of the two needs (see the module docs). It hashes the
/// transaction's name, the number of commands kept and, per kept command
/// in program order, its detector-visible fields with its position
/// relative to the slice in place of its own: its `prog_index` less the
/// commands the slice drops before it. A command on a table `partner`
/// never touches does not reach it, and a slice that keeps every command
/// has the [`txn_fingerprint`].
pub fn slice_fingerprint(txn: &TxnSummary, partner: &TxnSummary) -> u64 {
    let tables: BTreeSet<&str> = partner.commands.iter().map(|c| c.schema.as_str()).collect();
    Slice::of(txn, &CmdBytes::of(txn), |c| {
        tables.contains(c.schema.as_str())
    })
    .fp
}

/// The fields a fingerprint hashes before a command's position.
fn hash_head(c: &CmdSummary, h: &mut impl Hasher) {
    // NOT hashed: c.label — cached findings are labelled on every hit.
    (c.kind as u8).hash(h);
    c.schema.hash(h);
}

/// The fields a fingerprint hashes after a command's position.
fn hash_tail(c: &CmdSummary, h: &mut impl Hasher) {
    c.reads.hash(h);
    c.writes.hash(h);
    c.bound_var.hash(h);
    c.uses_vars.hash(h);
    match &c.key {
        KeySpec::Keyed { key, constant } => {
            0u8.hash(h);
            key.hash(h);
            constant.hash(h);
        }
        KeySpec::Scan => 1u8.hash(h),
        KeySpec::Fresh => 2u8.hash(h),
    }
}

/// Collects the bytes `Hash` impls feed a hasher instead of hashing them.
#[derive(Default)]
struct Recorder(Vec<u8>);

impl Hasher for Recorder {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("a recorder is replayed into a real hasher, never finished")
    }
}

/// Every command's fingerprint input, recorded once per transaction and
/// split around its position, so each slice hashes the recorded bytes with
/// its own relative position in between instead of walking the command's
/// field sets again. The hasher is a byte stream, so a replay hashes
/// exactly what hashing the fields directly would.
struct CmdBytes {
    bytes: Vec<u8>,
    /// Per command: where its head ends and where its tail ends.
    cuts: Vec<[usize; 2]>,
}

impl CmdBytes {
    fn of(txn: &TxnSummary) -> CmdBytes {
        let mut rec = Recorder::default();
        let cuts = txn
            .commands
            .iter()
            .map(|c| {
                hash_head(c, &mut rec);
                let head = rec.0.len();
                hash_tail(c, &mut rec);
                [head, rec.0.len()]
            })
            .collect();
        CmdBytes { bytes: rec.0, cuts }
    }

    /// Command `i`'s head and tail bytes.
    fn parts(&self, i: usize) -> [&[u8]; 2] {
        let start = if i == 0 { 0 } else { self.cuts[i - 1][1] };
        let [head, end] = self.cuts[i];
        [&self.bytes[start..head], &self.bytes[head..end]]
    }
}

/// One transaction restricted to some of its commands, in program order:
/// a pair member cut down to the tables its partner accesses, or a whole
/// transaction (its identity slice).
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    /// The slice fingerprint (see [`slice_fingerprint`]).
    pub(crate) fp: u64,
    /// The transaction's command indices the slice keeps, ascending.
    pub(crate) kept: Vec<usize>,
}

impl Slice {
    /// The slice of `txn` keeping the commands `keep` accepts; `bytes` are
    /// its commands' recorded fingerprint input.
    fn of(txn: &TxnSummary, bytes: &CmdBytes, keep: impl Fn(&CmdSummary) -> bool) -> Slice {
        let kept: Vec<usize> = (0..txn.commands.len())
            .filter(|&i| keep(&txn.commands[i]))
            .collect();
        let mut h = DefaultHasher::new();
        txn.name.hash(&mut h);
        kept.len().hash(&mut h);
        for (k, &i) in kept.iter().enumerate() {
            let [head, tail] = bytes.parts(i);
            h.write(head);
            relative_position(&txn.commands[i], i - k).hash(&mut h);
            h.write(tail);
        }
        Slice {
            fp: h.finish(),
            kept,
        }
    }

    /// The summary a pair model grounds: the kept commands, each with
    /// its `prog_index` made relative to the slice. Equal slice
    /// fingerprints therefore mean equal sliced summaries up to labels.
    /// An identity slice borrows `txn` unchanged.
    pub(crate) fn summary<'a>(&self, txn: &'a TxnSummary) -> Cow<'a, TxnSummary> {
        if self.kept.len() == txn.commands.len() {
            return Cow::Borrowed(txn);
        }
        let commands = self
            .kept
            .iter()
            .enumerate()
            .map(|(k, &i)| CmdSummary {
                prog_index: relative_position(&txn.commands[i], i - k),
                ..txn.commands[i].clone()
            })
            .collect();
        Cow::Owned(TxnSummary {
            name: txn.name.clone(),
            commands,
        })
    }
}

/// A kept command's position relative to its slice, `dropped` being the
/// commands the slice drops before it: its index within the slice for a
/// summarized program, where `prog_index` is the command's position.
/// Wrapping, because a hand-built summary may number its commands
/// arbitrarily; the fingerprint and the sliced summary only need to
/// agree.
fn relative_position(c: &CmdSummary, dropped: usize) -> usize {
    c.prog_index.wrapping_sub(dropped)
}

/// How one program's transactions key their instance groups: each
/// transaction's identity slice (its fingerprint keys its triples) and,
/// per ordered pair, each member's slice against the other's tables.
/// Slices are memoized per (transaction, table set), so a pass computes
/// one slice per distinct partner table set, not one per pair.
#[derive(Clone)]
pub(crate) struct ProgramKeys {
    /// The distinct slices.
    slices: Vec<Slice>,
    /// Per ordered pair `(i, j)`, at `i * n + j`: the ids of `i`'s slice
    /// against `j`'s tables and of `j`'s slice against `i`'s tables.
    pairs: Vec<[usize; 2]>,
    /// The number of transactions.
    n: usize,
}

impl ProgramKeys {
    /// The keys of the transactions `sums` of one program.
    pub(crate) fn new(sums: &[TxnSummary]) -> ProgramKeys {
        let n = sums.len();
        // Each transaction's table set, and a class id per distinct set.
        let tables: Vec<BTreeSet<&str>> = sums
            .iter()
            .map(|t| t.commands.iter().map(|c| c.schema.as_str()).collect())
            .collect();
        let mut interned: HashMap<&BTreeSet<&str>, usize> = HashMap::new();
        let class: Vec<usize> = tables
            .iter()
            .map(|t| {
                let next = interned.len();
                *interned.entry(t).or_insert(next)
            })
            .collect();
        let bytes: Vec<CmdBytes> = sums.iter().map(CmdBytes::of).collect();
        // The id of transaction `i`'s slice against table-set class `c`,
        // at `i * classes + c`, once it is made.
        let classes = interned.len();
        let mut memo: Vec<Option<usize>> = vec![None; n * classes];
        let mut slices = Vec::new();
        let mut slice = |i: usize, j: usize| {
            *memo[i * classes + class[j]].get_or_insert_with(|| {
                let keep = |c: &CmdSummary| tables[j].contains(c.schema.as_str());
                slices.push(Slice::of(&sums[i], &bytes[i], keep));
                slices.len() - 1
            })
        };
        let mut pairs = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                pairs.push([slice(i, j), slice(j, i)]);
            }
        }
        ProgramKeys { slices, pairs, n }
    }

    /// The number of transactions.
    pub(crate) fn transactions(&self) -> usize {
        self.n
    }

    /// The ids of the two member slices of the ordered pair `(i, j)`.
    pub(crate) fn pair(&self, i: usize, j: usize) -> [usize; 2] {
        self.pairs[i * self.n + j]
    }

    /// The id of transaction `i`'s identity slice: a self-pair's members
    /// each keep every command.
    pub(crate) fn identity(&self, i: usize) -> usize {
        self.pair(i, i)[0]
    }

    /// The slice with id `id`.
    pub(crate) fn slice(&self, id: usize) -> &Slice {
        &self.slices[id]
    }

    /// Transaction `i`'s fingerprint.
    pub(crate) fn fp(&self, i: usize) -> u64 {
        self.slice(self.identity(i)).fp
    }

    /// Every slice fingerprint a group key of this program can name: the
    /// liveness the session sweeps against.
    pub(crate) fn live(&self) -> impl Iterator<Item = u64> + '_ {
        self.slices.iter().map(|s| s.fp)
    }
}

/// Counters describing how much oracle work a [`crate::DetectSession`]
/// saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Verdict lookups performed (one per ordered pair per detection pass).
    pub lookups: u64,
    /// Lookups answered from the cache without grounding the pair.
    pub hits: u64,
    /// Lookups that had to re-analyse the pair.
    pub misses: u64,
    /// Verdict entries evicted by [`crate::DetectSession::sweep`]: those
    /// naming a fingerprint the swept program does not have.
    pub invalidated: u64,
    /// Lookups performed in any run after the session's first (see
    /// [`crate::DetectSession::begin_run`]); zero when the session never
    /// crossed a run boundary. Counts pair and triple lookups alike.
    pub cross_run_lookups: u64,
    /// Of those, lookups answered by an entry inserted in an *earlier* run —
    /// the warm verdicts one repair run hands the next.
    pub cross_run_hits: u64,
    /// Triple-verdict lookups performed (one per unordered transaction
    /// triple per [`crate::DetectMode::Triples`] detection pass).
    pub triple_lookups: u64,
    /// Triple lookups answered from the cache without grounding the
    /// triple.
    pub triple_hits: u64,
    /// Triple lookups that had to re-analyse the triple.
    pub triple_misses: u64,
    /// Always 0: solvers share no learnt clauses, so none is seeded. An
    /// inert field, kept only because the pipeline benchmark still reads
    /// it.
    pub learnt_seeded: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }

    /// Fraction of post-first-run lookups answered by an earlier run's
    /// entry (0 when the cache never crossed a run boundary).
    pub fn cross_run_hit_ratio(&self) -> f64 {
        if self.cross_run_lookups == 0 {
            return 0.0;
        }
        self.cross_run_hits as f64 / self.cross_run_lookups as f64
    }

    /// Counter-wise difference `self - earlier`: the work attributable to
    /// the span between two snapshots of one cache's lifetime statistics.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            invalidated: self.invalidated - earlier.invalidated,
            cross_run_lookups: self.cross_run_lookups - earlier.cross_run_lookups,
            cross_run_hits: self.cross_run_hits - earlier.cross_run_hits,
            triple_lookups: self.triple_lookups - earlier.triple_lookups,
            triple_hits: self.triple_hits - earlier.triple_hits,
            triple_misses: self.triple_misses - earlier.triple_misses,
            learnt_seeded: 0,
        }
    }
}

/// The largest instance group a key can name (the triple bound).
pub(crate) const MAX_K: usize = 3;

/// Key of one instance group's verdict (see the module docs): the member
/// fingerprints in key orientation, whether the symmetric (lost-update)
/// template ran for this orientation (pairs only), and the consistency
/// level queried. The field order makes keys sort like the persistent
/// store's records: pairs before triples, then by fingerprints, flag, and
/// level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct GroupKey {
    k: u8,
    /// Member fingerprints, zero past the first `k`.
    fps: [u64; MAX_K],
    pub(crate) symmetric: bool,
    pub(crate) level: ConsistencyLevel,
}

impl GroupKey {
    /// The key of the group whose members have fingerprints `fps`, in key
    /// orientation.
    pub(crate) fn new(fps: &[u64], symmetric: bool, level: ConsistencyLevel) -> GroupKey {
        assert!(
            (2..=MAX_K).contains(&fps.len()),
            "instance group size out of range"
        );
        let mut padded = [0; MAX_K];
        padded[..fps.len()].copy_from_slice(fps);
        GroupKey {
            k: fps.len() as u8,
            fps: padded,
            symmetric,
            level,
        }
    }

    /// The member fingerprints, in key orientation.
    pub(crate) fn fps(&self) -> &[u64] {
        &self.fps[..self.k as usize]
    }

    /// The number of members (2 for a pair, 3 for a triple).
    pub(crate) fn k(&self) -> usize {
        self.k as usize
    }
}

/// One cached verdict: the raw template findings of one instance group.
#[derive(Debug, Clone)]
pub(crate) struct VerdictEntry {
    /// Member transaction names, in key orientation.
    pub(crate) txns: Vec<String>,
    /// Run (see [`crate::DetectSession::begin_run`]) this entry was
    /// inserted in.
    pub(crate) run: u64,
    /// Raw findings for this group (pre-deduplication), label-free.
    pub(crate) findings: Vec<Finding>,
    /// Proof certificates of the UNSAT queries behind this verdict
    /// (`atropos_proof` blobs); empty unless the analysing engine had
    /// proof capture on.
    pub(crate) proofs: Vec<Vec<u8>>,
}

/// One auditable verdict of a session: the transactions, the
/// consistency level it was decided under, the anomaly count, and the
/// proof certificates captured for its UNSAT queries (empty when proof
/// capture was off).
#[derive(Debug, Clone)]
pub struct VerdictAudit {
    /// Transaction names — two for a pair verdict, three for a triple.
    pub txns: Vec<String>,
    /// Consistency level the verdict was decided under.
    pub level: ConsistencyLevel,
    /// Raw anomalous access pairs this verdict found.
    pub anomalies: usize,
    /// Proof certificate blobs of the verdict's UNSAT queries.
    pub proofs: Vec<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DetectMode, DetectionEngine};
    use crate::model::summarize_program;
    use crate::{AccessPair, DetectSession, DetectStats};
    use atropos_dsl::{parse, Program};
    use std::collections::BTreeSet;

    /// One pair-mode pass of the serial engine: the oracle the repair
    /// loop re-invokes after every step.
    fn detect(
        p: &Program,
        level: ConsistencyLevel,
        session: &mut DetectSession,
    ) -> (Vec<AccessPair>, DetectStats) {
        DetectionEngine::serial().detect_with_mode(p, level, DetectMode::Pairs, session)
    }

    fn summaries(src: &str) -> Vec<TxnSummary> {
        summarize_program(&parse(src).unwrap())
    }

    const COUNTER: &str = "schema T { id: int key, v: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }";

    #[test]
    fn fingerprint_is_deterministic_and_label_blind() {
        let a = summaries(COUNTER);
        let b = summaries(COUNTER);
        assert_eq!(txn_fingerprint(&a[0]), txn_fingerprint(&b[0]));
        // Relabeling @R/@W leaves the fingerprint unchanged…
        let relabeled = summaries(&COUNTER.replace("@R", "@R9").replace("@W", "@W9"));
        assert_eq!(txn_fingerprint(&a[0]), txn_fingerprint(&relabeled[0]));
        // …while touching the key spec / access set changes it.
        let scanned = summaries(&COUNTER.replace("select v from T where id = k", "select v from T"));
        assert_ne!(txn_fingerprint(&a[0]), txn_fingerprint(&scanned[0]));
    }

    /// The fingerprint hashes recorded command bytes; that must equal
    /// hashing each command's fields straight into the hasher, which is
    /// how every transaction fingerprint was computed before slices, so a
    /// self-pair and a triple keep their keys and key orientation.
    #[test]
    fn recorded_fingerprint_equals_the_direct_field_stream() {
        for t in summaries(TWO_WRITES).iter().chain(&summaries(COUNTER)) {
            let mut h = DefaultHasher::new();
            t.name.hash(&mut h);
            t.commands.len().hash(&mut h);
            for c in &t.commands {
                hash_head(c, &mut h);
                c.prog_index.hash(&mut h);
                hash_tail(c, &mut h);
            }
            assert_eq!(txn_fingerprint(t), h.finish(), "{}", t.name);
        }
    }

    const EC: ConsistencyLevel = ConsistencyLevel::EventualConsistency;

    /// Cached verdicts carry no labels: a relabeled program hits the
    /// entries its predecessor cached and is answered under its own labels
    /// — across successive relabelings too (`R → R2`, then `R2 → R3`
    /// serves `R3`).
    #[test]
    fn renames_apply_to_cached_pairs_and_compose() {
        let mut session = DetectSession::new();
        detect(&parse(COUNTER).unwrap(), EC, &mut session);
        for label in ["R2", "R3"] {
            let p = parse(&COUNTER.replace("@R ", &format!("@{label} "))).unwrap();
            let before = session.cache_stats();
            let (got, stats) = detect(&p, EC, &mut session);
            assert_eq!(stats.queries, 0);
            assert_eq!(session.cache_stats().since(&before).hits, 1);
            assert_eq!(
                (got[0].cmd1.0.as_str(), got[0].cmd2.0.as_str()),
                (label, "W")
            );
        }
    }

    /// Two writes of one transaction observed by a reader: a dirty read
    /// whose two anchors carry different fields.
    const TWO_WRITES: &str = "schema T { id: int key, a: int, b: int }
         txn w(k: int) {
             @W1 update T set a = 1 where id = k;
             @W2 update T set b = 2 where id = k;
             return 0;
         }
         txn r(k: int) { @R x := select a, b from T where id = k; return x.a; }";

    /// A relabeling that swaps two commands' labels (`W1 ↔ W2`) is
    /// answered exactly like a cold pass over the swapped program: the hit
    /// re-orients the pair by its new labels instead of replaying the old
    /// ones with the old fields.
    #[test]
    fn a_swap_batch_renames_simultaneously() {
        use crate::detect_anomalies;
        let mut session = DetectSession::new();
        detect(&parse(TWO_WRITES).unwrap(), EC, &mut session);
        let swapped = parse(
            &TWO_WRITES
                .replace("@W1 ", "@TMP ")
                .replace("@W2 ", "@W1 ")
                .replace("@TMP ", "@W2 "),
        )
        .unwrap();
        let (warm, stats) = detect(&swapped, EC, &mut session);
        assert_eq!(stats.queries, 0);
        assert_eq!(warm, detect_anomalies(&swapped, EC));
        let dirty = warm
            .iter()
            .find(|p| p.kind == crate::AnomalyKind::DirtyRead)
            .expect("the dirty read survives the swap");
        // `W1` now writes `b`.
        assert_eq!(dirty.cmd1.0, "W1");
        assert_eq!(dirty.fields1, BTreeSet::from(["b".to_owned()]));
    }

    /// A group grounded under one program's labels and re-analysed (here
    /// at another level) for a relabeled program on the same session
    /// reports the *current* labels, not the ones it was first grounded
    /// with.
    #[test]
    fn renames_reach_retained_pair_models() {
        use crate::detect_anomalies;
        let mut session = DetectSession::new();
        detect(&parse(TWO_WRITES).unwrap(), EC, &mut session);
        let relabeled = parse(&TWO_WRITES.replace("@W1 ", "@W9 ")).unwrap();
        let cc = ConsistencyLevel::CausalConsistency;
        let (got, _) = detect(&relabeled, cc, &mut session);
        assert_eq!(got, detect_anomalies(&relabeled, cc));
        assert!(
            got.iter()
                .any(|p| p.kind == crate::AnomalyKind::DirtyRead && p.cmd2.0 == "W9"),
            "{got:?}"
        );
    }

    /// Store records are outside input: a finding naming a command its
    /// program lacks (which only a forged record can) is dropped on the
    /// hit instead of panicking.
    #[test]
    fn forged_command_index_is_dropped_not_a_panic() {
        let p = parse(COUNTER).unwrap();
        let ts = summarize_program(&p);
        let fp = txn_fingerprint(&ts[0]);
        let forged = Finding {
            cmds: [(0, 0), (1, 99)],
            fields: Default::default(),
            witness: None,
            kind: crate::AnomalyKind::LostUpdate,
        };
        let mut session = DetectSession::new();
        session.insert(
            GroupKey::new(&[fp, fp], true, EC),
            &[&ts[0], &ts[0]],
            vec![forged],
            vec![],
        );
        let (got, stats) = detect(&p, EC, &mut session);
        assert_eq!(stats.queries, 0, "the forged entry was hit");
        assert!(got.is_empty(), "{got:?}");
    }

    /// Multi-run cache lifetimes: a detection pass over program B must not
    /// strand or prematurely drop warm entries of a previously seen
    /// program A — a pass evicts nothing — while the explicit
    /// [`DetectSession::sweep`] to one program evicts the rest.
    #[test]
    fn per_pass_sweep_keeps_warm_entries_of_earlier_runs() {
        let prog_a = atropos_dsl::parse(COUNTER).unwrap();
        let prog_b = atropos_dsl::parse(
            "schema U { id: int key, n: int }
             txn touch(k: int) {
                 @T update U set n = 1 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let mut session = DetectSession::new();

        session.begin_run();
        let (a1, _) = detect(&prog_a, ec, &mut session);
        // A different program's pass must not evict A's entries…
        session.begin_run();
        detect(&prog_b, ec, &mut session);
        let stats = session.cache_stats();
        assert_eq!(stats.invalidated, 0, "{stats:?}");
        // …so returning to A answers every pair warm, across two runs.
        session.begin_run();
        let before = session.cache_stats();
        let (a2, s) = detect(&prog_a, ec, &mut session);
        assert_eq!(a2, a1);
        assert_eq!(s.queries, 0, "warm re-run must not touch a solver");
        let delta = session.cache_stats().since(&before);
        assert_eq!(delta.misses, 0, "premature drop: {delta:?}");
        assert!(delta.cross_run_hits > 0, "{delta:?}");
        assert!(session.cache_stats().cross_run_hit_ratio() > 0.0);

        // The explicit between-runs sweep to one program: A's entries go,
        // B's stay warm.
        let evicted = session.sweep(&prog_b);
        assert!(evicted > 0);
        let before = session.cache_stats();
        detect(&prog_b, ec, &mut session);
        assert_eq!(
            session.cache_stats().since(&before).misses,
            0,
            "B stayed warm"
        );
        let before = session.cache_stats();
        detect(&prog_a, ec, &mut session);
        assert!(
            session.cache_stats().since(&before).misses > 0,
            "A was swept"
        );
    }

    /// Satellite pin: with zero cross-run lookups the ratio is *defined*
    /// as 0.0, never NaN — `repair_stats.csv` renders it with `{:.2}`, so
    /// a NaN here would print literally into the artifact.
    #[test]
    fn cross_run_hit_ratio_is_zero_not_nan_without_cross_run_lookups() {
        let fresh = CacheStats::default();
        assert_eq!(fresh.cross_run_lookups, 0);
        assert!(!fresh.cross_run_hit_ratio().is_nan());
        assert_eq!(fresh.cross_run_hit_ratio(), 0.0);
        // Same for the plain hit ratio, and for a cache that did work but
        // never crossed a run boundary.
        assert_eq!(fresh.hit_ratio(), 0.0);
        let mut session = DetectSession::new();
        let ts = summaries(COUNTER);
        let fp = txn_fingerprint(&ts[0]);
        session.lookup(&GroupKey::new(&[fp, fp], true, EC));
        assert!(session.cache_stats().lookups > 0);
        assert_eq!(session.cache_stats().cross_run_hit_ratio(), 0.0);
        assert!(format!("{:.2}", session.cache_stats().cross_run_hit_ratio()) == "0.00");
    }

    /// A pure relabeling keeps every fingerprint, so its warm entries stay
    /// and answer the relabeled program under its own labels: a warm
    /// re-detection equals a cold oracle without re-solving. A
    /// summary-changing edit misses the cache instead, and a sweep to the
    /// edited program evicts the entry it stranded.
    #[test]
    fn precise_invalidation_keeps_rename_only_entries() {
        let ec = ConsistencyLevel::EventualConsistency;
        let before = parse(COUNTER).unwrap();
        let renamed = parse(&COUNTER.replace("@R", "@Rx").replace("@W", "@Wx")).unwrap();

        let mut session = DetectSession::new();
        let (cold, _) = detect(&before, ec, &mut session);
        assert!(!cold.is_empty());
        assert_eq!(session.len(), 1, "the one ordered self-pair cached");

        // Warm ≡ cold on the renamed program, with zero solver work.
        let before_stats = session.cache_stats();
        let (warm, stats) = detect(&renamed, ec, &mut session);
        assert_eq!(stats.queries, 0, "warm pass touched a solver");
        assert_eq!(session.cache_stats().since(&before_stats).misses, 0);
        assert_eq!(session.len(), 1, "rename-only edit evicted warm entries");
        let (cold2, _) = detect(&renamed, ec, &mut DetectSession::new());
        assert_eq!(format!("{warm:?}"), format!("{cold2:?}"));

        // A summary-changing edit to the same txn misses and re-solves.
        let widened =
            parse(&COUNTER.replace("select v from T where id = k", "select v from T")).unwrap();
        let before_stats = session.cache_stats();
        let (warm, _) = detect(&widened, ec, &mut session);
        let delta = session.cache_stats().since(&before_stats);
        assert_eq!((delta.hits, delta.misses), (0, 1), "{delta:?}");
        assert_eq!(warm, detect(&widened, ec, &mut DetectSession::new()).0);
        assert_eq!(session.sweep(&widened), 1, "the stranded entry is swept");
        assert_eq!(session.cache_stats().invalidated, 1);
    }

    /// The 3-hop relay chain (the `Relay` workload's shape), used by the
    /// triple-eviction test below.
    const CHAIN: &str = "schema MSG { m_id: int key, m_body: int }
         schema FEED { f_id: int key, f_body: int }
         txn post(m: int, body: int) {
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
             return y.f_body + z.m_body;
         }";

    /// A chain-rule edit rewrites the chain transactions, so re-detection
    /// over the rewritten program misses every stale triple verdict and
    /// equals a cold oracle (a stale hit here would silently replay
    /// pre-edit verdicts).
    #[test]
    fn chain_rule_edit_evicts_stale_triple_verdicts() {
        let ec = ConsistencyLevel::EventualConsistency;
        let before = parse(CHAIN).unwrap();
        // The relay materialization's output shape: the derived field lives
        // on the origin row, written and read under `.T` labels.
        let after = parse(
            "schema MSG { m_id: int key, m_body: int, m_f_body: int }
             schema FEED { f_id: int key, f_body: int }
             txn post(m: int, body: int) {
                 @W1 update MSG set m_body = body where m_id = m;
                 return 0;
             }
             txn relay(m: int, f: int) {
                 @R2 x := select m_body from MSG where m_id = m;
                 @W2.T update MSG set m_f_body = x.m_body where m_id = m;
                 return 0;
             }
             txn timeline(f: int, m: int) {
                 @R3.T y := select m_f_body, m_body from MSG where m_id = m;
                 return y.m_f_body + y.m_body;
             }",
        )
        .unwrap();

        let engine = DetectionEngine::serial();
        let detect = |program: &Program, session: &mut DetectSession| {
            engine
                .detect_with_mode(program, ec, DetectMode::Triples, session)
                .0
        };
        let mut session = DetectSession::new();
        let dirty = detect(&before, &mut session);
        assert_eq!(dirty.len(), 1, "{dirty:?}");
        assert!(session.triple_len() > 0);

        let before_stats = session.cache_stats();
        let warm = detect(&after, &mut session);
        let delta = session.cache_stats().since(&before_stats);
        assert_eq!(
            delta.triple_hits, 0,
            "stale triple verdicts answered: {delta:?}"
        );
        let cold = detect(&after, &mut DetectSession::new());
        assert_eq!(warm, cold, "a warm cache must agree with a cold oracle");
        assert!(warm.is_empty(), "{warm:?}");

        // Sweeping to the rewritten program evicts the stranded verdicts.
        assert!(
            session.sweep(&after) > 0,
            "stale verdicts survived the sweep"
        );
    }
}
