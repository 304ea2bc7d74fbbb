//! The anomaly oracle `O(P)`: enumerating candidate access pairs and
//! deciding their queries by closure, with the SAT encoding as the
//! reference.
//!
//! Four violation templates cover the anomalies of §2 (the general FOL
//! condition of §3.2 restricted to the events of a command pair):
//!
//! * **Lost update** — both instances read-modify-write the same record
//!   field and neither sees the other's write;
//! * **Dirty read** — an observer sees one write of a transaction but not a
//!   sibling write (violating strong atomicity);
//! * **Non-repeatable read** — a later read of a transaction observes a
//!   foreign write that an earlier read did not (violating strong
//!   isolation);
//! * **Non-monotonic read** — an earlier read observes a foreign write
//!   that a later read of the same transaction no longer sees (a causal
//!   session violation: the observed state moved backwards).
//!
//! The templates form one table: `candidates` streams every candidate of
//! an instance group (these four for two members, the chain templates of
//! [`crate::triple`] for three) with its findings and queries, in the
//! order detection asks them. Detection, the fresh reference oracle and
//! witness replay ([`crate::replay`]) all read that stream, so a template
//! is defined once.
//!
//! Queries are decided by closure: a group's [`Closure`] indexes its
//! grounded model once per level and answers, certifies and witnesses
//! every query from its least model, without a search. The group solve
//! frame (`solve_group`) is driven by the [`crate::DetectionEngine`];
//! [`detect_anomalies`] is that engine, serial, over a fresh session. The
//! fresh-solver reference oracle ([`detect_anomalies_fresh`]) and the
//! CLOTHO-style differential runner ([`detect_differential`]) hold the
//! closure to the SAT encoding.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use atropos_dsl::{CmdLabel, Program};

use crate::closure::Closure;
use crate::encode::{fresh_query, ConsistencyLevel, InstanceModel, VisRequirement};
use crate::engine::{DetectMode, DetectionEngine};
use crate::model::{summarize_program, CmdKind, TxnSummary};
use crate::session::DetectSession;

/// The anomaly template a pair was confirmed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnomalyKind {
    /// Conflicting read-modify-writes overwrite each other.
    LostUpdate,
    /// A transaction's sibling writes are observed non-atomically.
    DirtyRead,
    /// A transaction's reads observe foreign commits inconsistently.
    NonRepeatableRead,
    /// A transaction's later read loses sight of a foreign commit an
    /// earlier read observed.
    NonMonotonicRead,
    /// A causality violation relayed through an observer chain: a third
    /// transaction observes a relay's derived write while missing the
    /// origin write the relay itself observed (triple mode only).
    ObserverChain,
    /// A circular write skew over three keys: each transaction's
    /// read-modify-write misses the previous transaction's write, closing
    /// a dependency cycle no pairwise schedule exhibits (triple mode only).
    WriteSkewCycle,
    /// A transaction's sibling writes observed fractured across a relay:
    /// one half reaches the observer through a chain, the other half never
    /// arrives (triple mode only).
    FracturedRead,
}

impl AnomalyKind {
    /// Stable serialization tag (the `verdict_cache.v3` record format).
    pub(crate) fn tag(self) -> u8 {
        match self {
            AnomalyKind::LostUpdate => 0,
            AnomalyKind::DirtyRead => 1,
            AnomalyKind::NonRepeatableRead => 2,
            AnomalyKind::NonMonotonicRead => 3,
            AnomalyKind::ObserverChain => 4,
            AnomalyKind::WriteSkewCycle => 5,
            AnomalyKind::FracturedRead => 6,
        }
    }

    /// Inverse of [`AnomalyKind::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<AnomalyKind> {
        Some(match tag {
            0 => AnomalyKind::LostUpdate,
            1 => AnomalyKind::DirtyRead,
            2 => AnomalyKind::NonRepeatableRead,
            3 => AnomalyKind::NonMonotonicRead,
            4 => AnomalyKind::ObserverChain,
            5 => AnomalyKind::WriteSkewCycle,
            6 => AnomalyKind::FracturedRead,
            _ => return None,
        })
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AnomalyKind::LostUpdate => "lost-update",
            AnomalyKind::DirtyRead => "dirty-read",
            AnomalyKind::NonRepeatableRead => "non-repeatable-read",
            AnomalyKind::NonMonotonicRead => "non-monotonic-read",
            AnomalyKind::ObserverChain => "observer-chain",
            AnomalyKind::WriteSkewCycle => "write-skew-cycle",
            AnomalyKind::FracturedRead => "fractured-read-chain",
        };
        f.write_str(s)
    }
}

/// Instrumentation of one detection run: the groups analysed, the
/// queries asked and, on the fresh reference path, the SAT work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectStats {
    /// Ordered transaction pairs analysed.
    pub pairs: u64,
    /// Unordered transaction triples analysed (zero outside
    /// [`crate::DetectMode::Triples`] passes).
    pub triples: u64,
    /// Satisfiability queries issued.
    pub queries: u64,
    /// Queries answered SAT (a realizable anomaly witness).
    pub sat_queries: u64,
    /// Clauses the fresh reference solvers stored, counted by the fresh
    /// oracle ([`detect_anomalies_fresh`], [`detect_differential`]). The
    /// engine decides by closure and leaves it at 0, as it does the three
    /// solver counters below.
    pub clauses_encoded: u64,
    /// Conflicts the fresh reference solvers met. The encodings are Horn,
    /// so this reads 0 (`tests/incremental_vs_fresh.rs` pins it).
    pub conflicts: u64,
    /// Literals the fresh reference solvers propagated.
    pub propagations: u64,
    /// Branching decisions of the fresh reference solvers.
    pub decisions: u64,
    /// Always 0: solvers share no learnt clauses, so none is seeded. An
    /// inert field, kept only because the pipeline benchmark still reads
    /// it.
    pub learnt_seeded: u64,
    /// Wall-clock seconds spent in detection. An engine pass counts its
    /// plan, solve and merge, not summarizing its program; the reference
    /// oracle's count includes its summarizing.
    pub seconds: f64,
}

/// Counter-wise sum, wall-clock seconds included: the statistics of two
/// spans of detection work taken together.
impl std::ops::AddAssign for DetectStats {
    fn add_assign(&mut self, o: DetectStats) {
        self.pairs += o.pairs;
        self.triples += o.triples;
        self.queries += o.queries;
        self.sat_queries += o.sat_queries;
        self.clauses_encoded += o.clauses_encoded;
        self.conflicts += o.conflicts;
        self.propagations += o.propagations;
        self.decisions += o.decisions;
        self.seconds += o.seconds;
    }
}

/// An anomalous access pair χ = (c1, f̄1, c2, f̄2) (§3.2), labelled with the
/// transactions containing the commands and the violation template.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessPair {
    /// First command label.
    pub cmd1: CmdLabel,
    /// Fields of `cmd1` involved in the conflict.
    pub fields1: BTreeSet<String>,
    /// Second command label.
    pub cmd2: CmdLabel,
    /// Fields of `cmd2` involved in the conflict.
    pub fields2: BTreeSet<String>,
    /// Transaction containing `cmd1`.
    pub txn1: String,
    /// Transaction containing `cmd2`.
    pub txn2: String,
    /// The interfering transactions that witness (or produce) the
    /// conflicting events beyond `txn1`/`txn2` — e.g. the readers observing
    /// a dirty write pair. Running the pair under serializability only
    /// helps if these transactions coordinate too.
    pub witnesses: BTreeSet<String>,
    /// Violation template.
    pub kind: AnomalyKind,
}

impl std::fmt::Display for AccessPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {:?}, {}, {:?}) [{}]",
            self.cmd1, self.fields1, self.cmd2, self.fields2, self.kind
        )
    }
}

/// One raw template hit, recorded without labels: each anchor command is
/// addressed as (member, command index) within the analysed instance
/// group. Fingerprints deliberately ignore labels, so the programs sharing
/// a cached verdict need not share them; a [`Merge`] labels a finding
/// from whichever program it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Finding {
    /// The two anchor commands as (member, command index).
    pub(crate) cmds: [(usize, usize); 2],
    /// Fields of each anchor command involved in the conflict.
    pub(crate) fields: [BTreeSet<String>; 2],
    /// The member witnessing the conflict beyond the anchors, if any.
    pub(crate) witness: Option<usize>,
    /// Violation template.
    pub(crate) kind: AnomalyKind,
}

/// The verdicts of one program, merged by reference from its instance
/// groups' findings and copied out once.
///
/// [`Merge::fold`] labels each finding from the program's own summaries
/// and folds it under its key: its two labels in sorted order and its
/// template. A key's first finding fixes its orientation (the lower label
/// first; equal labels keep the finding's order) and its transaction
/// names. Each later finding of the key adds its field sets, side by
/// side, and its witness. Merge order is part of the oracle's observable
/// behaviour, so the engine folds its slots in plan order, whichever
/// worker solved them, and the fresh oracle folds its pairs in the same
/// order. [`Merge::verdicts`] then clones each distinct verdict once, in
/// key order.
#[derive(Default)]
pub(crate) struct Merge<'a> {
    found: BTreeMap<(&'a str, &'a str, AnomalyKind), Merged<'a>>,
}

/// One verdict being merged: names and field sets borrowed from the
/// summaries and the findings, a field set copied only once a later
/// finding widens it.
struct Merged<'a> {
    cmds: [&'a CmdLabel; 2],
    txns: [&'a str; 2],
    fields: [Cow<'a, BTreeSet<String>>; 2],
    witnesses: BTreeSet<&'a str>,
}

impl<'a> Merge<'a> {
    /// Folds the `findings` of one instance group answered for `members`,
    /// the group's transactions in key orientation: `at(member, c)` names
    /// the member's command at a finding's command index `c`, or `None`
    /// past the member's slice. A finding that names a member or command
    /// that is not there, which only a corrupt or forged store record can,
    /// is skipped.
    pub(crate) fn fold(
        &mut self,
        findings: &'a [Finding],
        members: &[&'a TxnSummary],
        at: impl Fn(usize, usize) -> Option<usize>,
    ) {
        for f in findings {
            let side = |i: usize| {
                let (m, c) = f.cmds[i];
                let t = *members.get(m)?;
                let cmd = t.commands.get(at(m, c)?)?;
                Some((&cmd.label, t.name.as_str(), &f.fields[i]))
            };
            let (Some(x), Some(y)) = (side(0), side(1)) else {
                continue;
            };
            let witness = match f.witness {
                None => None,
                Some(w) => match members.get(w) {
                    Some(t) => Some(t.name.as_str()),
                    None => continue,
                },
            };
            let [(l1, t1, f1), (l2, t2, f2)] = if x.0 <= y.0 { [x, y] } else { [y, x] };
            let e = match self.found.entry((&l1.0, &l2.0, f.kind)) {
                Entry::Vacant(v) => {
                    v.insert(Merged {
                        cmds: [l1, l2],
                        txns: [t1, t2],
                        fields: [Cow::Borrowed(f1), Cow::Borrowed(f2)],
                        witnesses: witness.into_iter().collect(),
                    });
                    continue;
                }
                Entry::Occupied(o) => o.into_mut(),
            };
            for (into, from) in e.fields.iter_mut().zip([f1, f2]) {
                for field in from {
                    if !into.contains(field) {
                        into.to_mut().insert(field.clone());
                    }
                }
            }
            e.witnesses.extend(witness);
        }
    }

    /// The merged verdicts in key order, each cloned once.
    pub(crate) fn verdicts(self) -> Vec<AccessPair> {
        self.found
            .into_iter()
            .map(|((_, _, kind), m)| {
                let [cmd1, cmd2] = m.cmds.map(CmdLabel::clone);
                let [txn1, txn2] = m.txns.map(str::to_owned);
                let [fields1, fields2] = m.fields.map(Cow::into_owned);
                AccessPair {
                    cmd1,
                    fields1,
                    cmd2,
                    fields2,
                    txn1,
                    txn2,
                    witnesses: m.witnesses.into_iter().map(str::to_owned).collect(),
                    kind,
                }
            })
            .collect()
    }
}

/// Detects every anomalous access pair of `program` under `level`: one
/// pair-mode pass of a serial [`DetectionEngine`] over a fresh
/// [`DetectSession`]. Callers that detect repeatedly, in
/// triple mode, in parallel or with proofs drive an engine and a session
/// of their own.
///
/// # Examples
///
/// ```
/// use atropos_detect::{detect_anomalies, ConsistencyLevel};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let ec = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
/// assert_eq!(ec.len(), 1); // the lost update
/// let sc = detect_anomalies(&p, ConsistencyLevel::Serializable);
/// assert!(sc.is_empty());
/// ```
pub fn detect_anomalies(program: &Program, level: ConsistencyLevel) -> Vec<AccessPair> {
    DetectionEngine::serial()
        .detect_with_mode(program, level, DetectMode::Pairs, &mut DetectSession::new())
        .0
}

/// The reference oracle: identical templates over whole-transaction
/// models, but every query goes to a freshly constructed solver
/// ([`crate::pattern_satisfiable`]). Slow; kept for differential testing
/// and speedup accounting.
pub fn detect_anomalies_fresh(
    program: &Program,
    level: ConsistencyLevel,
) -> (Vec<AccessPair>, DetectStats) {
    let (mut by_level, stats) = detect_core(program, &[level], None);
    (by_level.remove(&level).unwrap_or_default(), stats)
}

/// Outcome of a [`detect_differential`] run.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Anomalies per level (from the agreed verdicts).
    pub by_level: BTreeMap<ConsistencyLevel, Vec<AccessPair>>,
    /// Detection statistics of the paired run.
    pub stats: DetectStats,
    /// Human-readable descriptions of every query where the closure and
    /// the fresh solver disagreed. Empty means the two agree on this
    /// program.
    pub mismatches: Vec<String>,
}

/// CLOTHO-style differential detection: every query is answered by *both*
/// the closure and a fresh solver ([`crate::pattern_satisfiable`]), and
/// any disagreement is recorded. The returned anomalies use the closure's
/// verdicts.
pub fn detect_differential(
    program: &Program,
    levels: &[ConsistencyLevel],
) -> DifferentialReport {
    let mut mismatches = Vec::new();
    let (by_level, stats) = detect_core(program, levels, Some(&mut mismatches));
    DifferentialReport {
        by_level,
        stats,
        mismatches,
    }
}

/// The reference oracle behind [`detect_anomalies_fresh`] and
/// [`detect_differential`]: every ordered pair is grounded over whole
/// transactions and analysed at each of `levels`, every query on a fresh
/// solver, whose work the statistics count. With `mismatches`, each query
/// is also answered by the pair's closure at that level; its verdict is
/// the one reported, and every disagreement is logged.
fn detect_core(
    program: &Program,
    levels: &[ConsistencyLevel],
    mut mismatches: Option<&mut Vec<String>>,
) -> (BTreeMap<ConsistencyLevel, Vec<AccessPair>>, DetectStats) {
    let started = Instant::now();
    let summaries = summarize_program(program);
    // Every ordered pair's findings at each level, in pair order.
    let mut found: Vec<(ConsistencyLevel, [usize; 2], Vec<Finding>)> = Vec::new();
    let mut stats = DetectStats::default();

    for (i, t1) in summaries.iter().enumerate() {
        for (j, t2) in summaries.iter().enumerate() {
            let model = InstanceModel::new(t1, t2);
            stats.pairs += 1;
            for &level in levels {
                let mut closure = mismatches.is_some().then(|| Closure::new(&model, level));
                let mut sat = |reqs: &[VisRequirement]| -> bool {
                    stats.queries += 1;
                    let (fresh, s, clauses) = fresh_query(&model, level, reqs);
                    stats.conflicts += s.conflicts;
                    stats.propagations += s.propagations;
                    stats.decisions += s.decisions;
                    stats.clauses_encoded += clauses as u64;
                    let r = match (closure.as_mut(), mismatches.as_deref_mut()) {
                        (Some(closure), Some(log)) => {
                            let closed = closure.satisfiable(&model, reqs);
                            if closed != fresh {
                                log.push(format!(
                                    "{} × {} @ {level}: reqs {reqs:?}: \
                                     closure={closed} fresh={fresh}",
                                    t1.name, t2.name
                                ));
                            }
                            closed
                        }
                        _ => fresh,
                    };
                    if r {
                        stats.sat_queries += 1;
                    }
                    r
                };
                let findings = realized(&[t1, t2], &[], i <= j, &model, &mut sat);
                found.push((level, [i, j], findings));
            }
        }
    }
    let mut merges: BTreeMap<ConsistencyLevel, Merge> =
        levels.iter().map(|&l| (l, Merge::default())).collect();
    for (level, pair, findings) in &found {
        let merge = merges.get_mut(level).expect("level registered");
        merge.fold(findings, &pair.map(|t| &summaries[t]), |_, c| Some(c));
    }
    let by_level = merges.into_iter().map(|(l, m)| (l, m.verdicts())).collect();
    stats.seconds = started.elapsed().as_secs_f64();
    (by_level, stats)
}

/// Analyses one dirty (cache-missed) instance group, returning the raw
/// findings, this group's [`DetectStats`] delta, and the certificates of
/// its UNSAT queries (empty unless `proofs`). `ts` and `fps` are the
/// group's members in key orientation. This is the one solving frame of
/// every bound: it grounds the members' model, indexes it for `level`
/// once, and asks the [`Closure`] every query of the [`candidates`]
/// stream, the only part that depends on the member count.
pub(crate) fn solve_group(
    ts: &[&TxnSummary],
    fps: &[u64],
    symmetric: bool,
    level: ConsistencyLevel,
    proofs: bool,
) -> (Vec<Finding>, DetectStats, Vec<Vec<u8>>) {
    let model = InstanceModel::new_multi(ts);
    let mut closure = Closure::new(&model, level);
    let mut stats = DetectStats::default();
    let mut certs = Vec::new();
    let findings = realized(ts, fps, symmetric, &model, &mut |reqs| {
        stats.queries += 1;
        let sat = closure.satisfiable(&model, reqs);
        if sat {
            stats.sat_queries += 1;
        } else if proofs {
            certs.extend(closure.certificate(&model, reqs));
        }
        sat
    });
    (findings, stats, certs)
}

/// One template candidate of an instance group: the findings detection
/// reports when the candidate is realized, and the queries that realize
/// it, in the order detection asks them (the first satisfiable one wins).
pub(crate) struct Candidate {
    pub(crate) findings: Vec<Finding>,
    pub(crate) queries: Vec<Vec<VisRequirement>>,
}

/// Every query the templates can ask of the instance group `members`
/// (two or three transactions, in instance order) over `model`, their
/// grounded skeleton: each candidate of every template, unbounded, in
/// detection order. The closure ≡ SAT differential asks them all.
pub fn candidate_queries(
    members: &[&TxnSummary],
    model: &InstanceModel,
) -> Vec<Vec<VisRequirement>> {
    let fps: Vec<u64> = members
        .iter()
        .map(|t| crate::cache::txn_fingerprint(t))
        .collect();
    let mut out = Vec::new();
    candidates(members, &fps, true, model, &mut |c| {
        out.extend(c.queries);
        false
    });
    out
}

/// Detection's reading of the candidate stream: each candidate's queries
/// are asked of `sat` in order until one is satisfiable, and the findings
/// of every realized candidate are kept.
fn realized(
    ts: &[&TxnSummary],
    fps: &[u64],
    symmetric: bool,
    model: &InstanceModel,
    sat: &mut dyn FnMut(&[VisRequirement]) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    candidates(ts, fps, symmetric, model, &mut |c| {
        let hit = c.queries.iter().any(|q| sat(q));
        if hit {
            out.extend(c.findings);
        }
        hit
    });
    out
}

/// Streams every template candidate of the instance group `ts` (members in
/// model instance order, `fps` their fingerprints, read by the triple
/// templates only) over `model`, its grounded skeleton, in detection
/// order: the four pair templates for two members, the chain templates of
/// [`crate::triple`] for three. `hit` answers whether a candidate was
/// realized, and each template's first-hit bounds follow those answers;
/// answering `false` every time enumerates every candidate. `symmetric`
/// gates the symmetric lost-update template so it runs once per unordered
/// pair.
pub(crate) fn candidates(
    ts: &[&TxnSummary],
    fps: &[u64],
    symmetric: bool,
    model: &InstanceModel,
    hit: &mut dyn FnMut(Candidate) -> bool,
) {
    let &[t1, t2] = ts else {
        let &[a, b, c] = ts else {
            unreachable!("instance groups have two or three members")
        };
        return crate::triple::candidates([a, b, c], [fps[0], fps[1], fps[2]], model, hit);
    };
    let n1 = model.n1;
    // A model command as (member, command index).
    let at = |c: usize| {
        let inst = model.cmds[c].instance as usize;
        (inst, c - model.starts[inst])
    };
    // The (command, witness record) pairs of one member's selects, or of
    // its writes.
    let accesses = |member: usize, selects: bool| -> Vec<(usize, usize)> {
        let range = if member == 0 {
            0..n1
        } else {
            n1..model.cmds.len()
        };
        range
            .filter(|&c| {
                if selects {
                    model.cmds[c].kind == CmdKind::Select
                } else {
                    !model.command(ts, c).writes.is_empty()
                }
            })
            .flat_map(|c| model.cmds[c].records.iter().map(move |&r| (c, r)))
            .collect()
    };
    // The fields command `r` reads of those command `w` writes.
    let shared = |w: usize, r: usize| -> BTreeSet<String> {
        model
            .command(ts, w)
            .writes
            .intersection(&model.command(ts, r).reads)
            .cloned()
            .collect()
    };
    // A finding on two commands of member 0, witnessed by member 1.
    let observed = |cmds, fields, kind| Finding {
        cmds,
        fields,
        witness: Some(1),
        kind,
    };

    // ---- Lost update: RMW in both instances on a shared record field. ----
    if symmetric {
        for &(r1, w1, ref f) in &t1.rmw_pairs() {
            for &(r2, w2, ref f2) in &t2.rmw_pairs() {
                if f != f2 || t1.commands[w1].schema != t2.commands[w2].schema {
                    continue;
                }
                // Commands in model coordinates.
                let (c1, cw1, c2, cw2) = (r1, w1, n1 + r2, n1 + w2);
                // A record of instance 1's RMW that may alias a record of
                // instance 2's RMW.
                let rec1 = model.cmds[c1]
                    .records
                    .iter()
                    .copied()
                    .find(|r| model.cmds[cw1].records.contains(r));
                let rec2 = model.cmds[c2]
                    .records
                    .iter()
                    .copied()
                    .find(|r| model.cmds[cw2].records.contains(r));
                let (Some(rec1), Some(rec2)) = (rec1, rec2) else {
                    continue;
                };
                if !model.may_alias_records(rec1, rec2) {
                    continue;
                }
                let (Some(a_w1), Some(a_w2)) = (model.atom(cw1, rec1), model.atom(cw2, rec2))
                else {
                    continue;
                };
                let fs = BTreeSet::from([f.clone()]);
                let lost = |cmds| Finding {
                    cmds,
                    fields: [fs.clone(), fs.clone()],
                    witness: None,
                    kind: AnomalyKind::LostUpdate,
                };
                hit(Candidate {
                    findings: vec![lost([(0, r1), (1, w2)]), lost([(1, r2), (0, w1)])],
                    queries: vec![vec![(a_w2, c1, false), (a_w1, c2, false)]],
                });
            }
        }
    }

    // ---- Dirty read: two writes of instance 1 observed half-way by reads
    // of instance 2. ----
    let (writes1, reads2) = (accesses(0, false), accesses(1, true));
    for (wi, &(w1, r1)) in writes1.iter().enumerate() {
        for &(w2, r2) in &writes1[wi + 1..] {
            for &(d1, dr1) in &reads2 {
                if !model.may_alias_records(dr1, r1) {
                    continue;
                }
                let f1 = shared(w1, d1);
                if f1.is_empty() {
                    continue;
                }
                for &(d2, dr2) in &reads2 {
                    if !model.may_alias_records(dr2, r2) {
                        continue;
                    }
                    let f2 = shared(w2, d2);
                    if f2.is_empty() {
                        continue;
                    }
                    let (Some(a1), Some(a2)) = (model.atom(w1, r1), model.atom(w2, r2)) else {
                        continue;
                    };
                    // Either half observed without the other.
                    let realized = hit(Candidate {
                        findings: vec![observed(
                            [at(w1), at(w2)],
                            [f1.clone(), f2],
                            AnomalyKind::DirtyRead,
                        )],
                        queries: vec![
                            vec![(a1, d1, true), (a2, d2, false)],
                            vec![(a2, d2, true), (a1, d1, false)],
                        ],
                    });
                    if realized {
                        break;
                    }
                }
            }
        }
    }

    // ---- Non-repeatable read: two reads of instance 1 observing writes of
    // instance 2 inconsistently. A read pair's first-write loop ends once
    // the last realized candidate of this template names both reads. ----
    let (reads1, writes2) = (accesses(0, true), accesses(1, false));
    let mut last: Option<[(usize, usize); 2]> = None;
    for (ri, &(c1, r1)) in reads1.iter().enumerate() {
        for &(c2, r2) in &reads1[ri..] {
            if c1 == c2 && r1 == r2 {
                continue;
            }
            for &(d1, dr1) in &writes2 {
                if !model.may_alias_records(dr1, r1) {
                    continue;
                }
                let f1 = shared(d1, c1);
                if f1.is_empty() {
                    continue;
                }
                for &(d2, dr2) in &writes2 {
                    if !model.may_alias_records(dr2, r2) {
                        continue;
                    }
                    if d1 == d2 && dr1 == dr2 {
                        continue;
                    }
                    let f2 = shared(d2, c2);
                    if f2.is_empty() {
                        continue;
                    }
                    let (Some(a1), Some(a2)) = (model.atom(d1, r1), model.atom(d2, r2)) else {
                        continue;
                    };
                    let cmds = [at(c1), at(c2)];
                    let realized = hit(Candidate {
                        findings: vec![observed(
                            cmds,
                            [f1.clone(), f2],
                            AnomalyKind::NonRepeatableRead,
                        )],
                        queries: vec![
                            vec![(a2, c2, true), (a1, c1, false)],
                            vec![(a1, c1, true), (a2, c2, false)],
                        ],
                    });
                    if realized {
                        last = Some(cmds);
                        break;
                    }
                }
                if last.is_some_and(|l| l.contains(&at(c1)) && l.contains(&at(c2))) {
                    break;
                }
            }
        }
    }

    // ---- Read instability on a single foreign write: two program-ordered
    // reads of instance 1 observing one write atom of instance 2
    // differently. Seen-late-only is a non-repeatable read; seen-then-lost
    // is a non-monotonic read — the causal session violation that
    // distinguishes CC (and RR) from EC. Each kind stops at its own first
    // realized candidate. ----
    for (ri, &(c1, r1)) in reads1.iter().enumerate() {
        for &(c2, r2) in &reads1[ri + 1..] {
            if !model.prog_before(c1, c2) {
                continue;
            }
            let mut found_nrr = false;
            let mut found_nmr = false;
            for &(d, dr) in &writes2 {
                if !model.may_alias_records(dr, r1) || !model.may_alias_records(dr, r2) {
                    continue;
                }
                let f1 = shared(d, c1);
                if f1.is_empty() {
                    continue;
                }
                let f2 = shared(d, c2);
                if f2.is_empty() {
                    continue;
                }
                let Some(a) = model.atom(d, dr) else { continue };
                let unstable = |kind| observed([at(c1), at(c2)], [f1.clone(), f2.clone()], kind);
                if !found_nrr {
                    found_nrr = hit(Candidate {
                        findings: vec![unstable(AnomalyKind::NonRepeatableRead)],
                        queries: vec![vec![(a, c2, true), (a, c1, false)]],
                    });
                }
                if !found_nmr {
                    found_nmr = hit(Candidate {
                        findings: vec![unstable(AnomalyKind::NonMonotonicRead)],
                        queries: vec![vec![(a, c1, true), (a, c2, false)]],
                    });
                }
                if found_nrr && found_nmr {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use atropos_dsl::parse;

    /// The course-management program of Fig. 1.
    pub(crate) const COURSEWARE: &str = r#"
        schema STUDENT { st_id: int key, st_name: string, st_em_id: int, st_co_id: int, st_reg: bool }
        schema COURSE  { co_id: int key, co_avail: bool, co_st_cnt: int }
        schema EMAIL   { em_id: int key, em_addr: string }

        txn getSt(id: int) {
            @S1 x := select * from STUDENT where st_id = id;
            @S2 y := select em_addr from EMAIL where em_id = x.st_em_id;
            @S3 z := select co_avail from COURSE where co_id = x.st_co_id;
            return 0;
        }
        txn setSt(id: int, name: string, email: string) {
            @S4 x := select st_em_id from STUDENT where st_id = id;
            @U1 update STUDENT set st_name = name where st_id = id;
            @U2 update EMAIL set em_addr = email where em_id = x.st_em_id;
            return 0;
        }
        txn regSt(id: int, course: int) {
            @U3 update STUDENT set st_co_id = course, st_reg = true where st_id = id;
            @S5 x := select co_st_cnt from COURSE where co_id = course;
            @U4 update COURSE set co_st_cnt = x.co_st_cnt + 1, co_avail = true where co_id = course;
            return 0;
        }
    "#;

    fn labels(pairs: &[AccessPair]) -> BTreeSet<(String, String)> {
        pairs
            .iter()
            .map(|p| (p.cmd1.0.clone(), p.cmd2.0.clone()))
            .collect()
    }

    #[test]
    fn courseware_anomalies_match_paper_examples() {
        let p = parse(COURSEWARE).unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        let ls = labels(&pairs);
        // χ1: (U3, U4) dirty read; χ2: (S5, U4) lost update;
        // the non-repeatable read pairs (S1, S2) and (U1, U2).
        assert!(ls.contains(&("U3".into(), "U4".into())), "{ls:?}");
        assert!(ls.contains(&("S5".into(), "U4".into())), "{ls:?}");
        assert!(ls.contains(&("S1".into(), "S2".into())), "{ls:?}");
        assert!(ls.contains(&("U1".into(), "U2".into())), "{ls:?}");
    }

    #[test]
    fn serializable_level_has_no_anomalies() {
        let p = parse(COURSEWARE).unwrap();
        assert!(detect_anomalies(&p, ConsistencyLevel::Serializable).is_empty());
    }

    /// A transaction reading the same record twice while another updates
    /// it: the observed state can move backwards under EC (non-monotonic
    /// read), which the causal session axioms and read stability forbid —
    /// so CC and RR must count strictly fewer anomalies than EC.
    const DOUBLE_READ: &str = "schema T { id: int key, v: int, w: int }
         txn audit(k: int) {
             @R1 x := select v from T where id = k;
             @R2 y := select v, w from T where id = k;
             return x.v + y.v;
         }
         txn bump(k: int) {
             @B1 x := select v from T where id = k;
             @B2 update T set v = x.v + 1 where id = k;
             return 0;
         }";

    #[test]
    fn cc_strictly_prunes_ec_on_double_reads() {
        let p = parse(DOUBLE_READ).unwrap();
        let ec = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        let cc = detect_anomalies(&p, ConsistencyLevel::CausalConsistency);
        let rr = detect_anomalies(&p, ConsistencyLevel::RepeatableRead);
        assert!(
            ec.iter().any(|a| a.kind == AnomalyKind::NonMonotonicRead),
            "EC must witness the non-monotonic read: {ec:?}"
        );
        assert!(
            cc.iter().all(|a| a.kind != AnomalyKind::NonMonotonicRead),
            "causal sessions forbid non-monotonic reads: {cc:?}"
        );
        assert!(cc.len() < ec.len(), "CC {} !< EC {}", cc.len(), ec.len());
        assert!(rr.len() < ec.len(), "RR {} !< EC {}", rr.len(), ec.len());
    }

    #[test]
    fn stronger_levels_are_monotone_on_courseware() {
        let p = parse(COURSEWARE).unwrap();
        let ec = detect_anomalies(&p, ConsistencyLevel::EventualConsistency).len();
        let cc = detect_anomalies(&p, ConsistencyLevel::CausalConsistency).len();
        let rr = detect_anomalies(&p, ConsistencyLevel::RepeatableRead).len();
        assert!(cc <= ec && rr <= ec);
    }

    #[test]
    fn differential_paths_agree_on_courseware() {
        let p = parse(COURSEWARE).unwrap();
        let report = detect_differential(&p, &ConsistencyLevel::ALL);
        assert!(
            report.mismatches.is_empty(),
            "closure vs fresh mismatches: {:?}",
            report.mismatches
        );
        let (fresh_ec, _) = detect_anomalies_fresh(&p, ConsistencyLevel::EventualConsistency);
        assert_eq!(
            report.by_level[&ConsistencyLevel::EventualConsistency],
            fresh_ec
        );
    }

    #[test]
    fn cached_detection_matches_plain_and_reuses_across_edits() {
        let p = parse(COURSEWARE).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let engine = DetectionEngine::serial();
        let mut session = DetectSession::new();
        let (first, _) = engine.detect_with_mode(&p, ec, DetectMode::Pairs, &mut session);
        assert_eq!(first, detect_anomalies_fresh(&p, ec).0);
        assert_eq!(session.cache_stats().hits, 0);

        // Same program again: all 9 ordered pairs answered from the cache,
        // not a single SAT query issued.
        let (second, s2) = engine.detect_with_mode(&p, ec, DetectMode::Pairs, &mut session);
        assert_eq!(second, first);
        assert_eq!(s2.queries, 0);
        assert_eq!(session.cache_stats().hits, 9);

        // Another level misses the verdict cache and is solved afresh.
        let cc = ConsistencyLevel::CausalConsistency;
        let (got, _) = engine.detect_with_mode(&p, cc, DetectMode::Pairs, &mut session);
        assert_eq!(got, detect_anomalies(&p, cc));

        // Editing one transaction re-solves only the pairs whose slices it
        // changes: 6 of the 9 ordered pairs still hit. The 4 setSt × regSt
        // combinations never name getSt, and both getSt × setSt slices are
        // unchanged: dropping getSt's COURSE read leaves getSt's slice
        // against setSt's tables (STUDENT, EMAIL) as it was, and setSt,
        // which never touches COURSE, keeps every command against both
        // table sets.
        let edited = parse(&COURSEWARE.replace(
            "@S3 z := select co_avail from COURSE where co_id = x.st_co_id;",
            "",
        ))
        .unwrap();
        let before = session.cache_stats();
        let (after_edit, _) = engine.detect_with_mode(&edited, ec, DetectMode::Pairs, &mut session);
        assert_eq!(after_edit, detect_anomalies(&edited, ec));
        let delta = session.cache_stats().since(&before);
        assert_eq!(delta.hits, 6, "{delta:?}");
        assert_eq!(delta.misses, 3, "{delta:?}");
    }

    #[test]
    fn refactored_courseware_is_anomaly_free() {
        // The Fig. 3 refactoring: one wide STUDENT row + an insert-only log.
        let src = r#"
            schema STUDENT { st_id: int key, st_name: string, st_em_addr: string,
                             st_co_id: int, st_co_avail: bool, st_reg: bool }
            schema COURSE_LOG { co_id: int key, log_id: uuid key, cnt: int }
            txn getSt(id: int) {
                @RS1 x := select * from STUDENT where st_id = id;
                return 0;
            }
            txn setSt(id: int, name: string, email: string) {
                @RU1 update STUDENT set st_name = name, st_em_addr = email where st_id = id;
                return 0;
            }
            txn regSt(id: int, course: int) {
                @RU3 update STUDENT set st_co_id = course, st_co_avail = true, st_reg = true
                     where st_id = id;
                @RU4 insert into COURSE_LOG values (co_id = course, log_id = uuid(), cnt = 1);
                return 0;
            }
        "#;
        let p = parse(src).unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        assert!(pairs.is_empty(), "expected no anomalies, got {pairs:?}");
    }

    #[test]
    fn disjoint_constant_keys_do_not_conflict() {
        let p = parse(
            "schema T { id: int key, v: int }
             txn a() {
                 x := select v from T where id = 1;
                 update T set v = x.v + 1 where id = 1;
                 return 0;
             }
             txn b() {
                 y := select v from T where id = 2;
                 update T set v = y.v + 1 where id = 2;
                 return 0;
             }",
        )
        .unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        // a×a and b×b lose updates, but a×b never conflicts.
        for pr in &pairs {
            assert_eq!(pr.txn1, pr.txn2);
        }
    }

    #[test]
    fn single_atomic_update_observed_by_single_read_is_safe() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             txn w(k: int) { update T set a = 1, b = 2 where id = k; return 0; }
             txn r(k: int) { x := select a, b from T where id = k; return x.a; }",
        )
        .unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        assert!(pairs.is_empty(), "row-level atomicity protects {pairs:?}");
    }

    /// The two-write non-repeatable read leaves a read pair's first-write
    /// loop once a candidate of that pair is realized: `W2`'s candidate for
    /// (R1, R2) is never asked, so R1's reported fields are only those `W1`
    /// writes (the corpus programs never reach this rule).
    #[test]
    fn two_write_instability_stops_at_the_first_realized_write() {
        let p = parse(
            "schema T { id: int key, v: int, x: int, w: int }
             txn reader(k: int) {
                 @R1 a := select v, x from T where id = k;
                 @R2 b := select w from T where id = k;
                 return a.v + b.w;
             }
             txn writer(k: int) {
                 @W1 update T set v = 1, w = 1 where id = k;
                 @W2 update T set x = 2, w = 3 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let ec = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        let nrr = ec
            .iter()
            .find(|a| a.kind == AnomalyKind::NonRepeatableRead)
            .expect("the reads are unstable at EC");
        assert_eq!((nrr.cmd1.0.as_str(), nrr.cmd2.0.as_str()), ("R1", "R2"));
        assert_eq!(nrr.fields1, BTreeSet::from(["v".to_owned()]), "{ec:?}");
    }

    /// A finding over hand-picked commands and fields.
    fn finding(
        cmds: [(usize, usize); 2],
        fields: [&[&str]; 2],
        witness: Option<usize>,
        kind: AnomalyKind,
    ) -> Finding {
        Finding {
            cmds,
            fields: fields.map(|f| f.iter().map(|s| s.to_string()).collect()),
            witness,
            kind,
        }
    }

    fn strings(s: &[&str]) -> BTreeSet<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    /// Three transactions: `a` holds `A1` and `A2`, `b` holds `B1`, `c`
    /// holds `C1`. The merge reads labels and names only.
    const THREE: &str = "schema T { id: int key, v: int, w: int }
         txn a(k: int) {
             @A1 x := select v, w from T where id = k;
             @A2 update T set v = 1 where id = k;
             return 0;
         }
         txn b(k: int) { @B1 update T set w = 2 where id = k; return 0; }
         txn c(k: int) { @C1 update T set v = 3 where id = k; return 0; }";

    #[test]
    fn merge_unions_the_fields_and_witnesses_of_duplicate_keys() {
        let ts = summarize_program(&parse(THREE).unwrap());
        let (a, b, c) = (&ts[0], &ts[1], &ts[2]);
        let dirty = AnomalyKind::DirtyRead;
        let first = [finding([(0, 0), (0, 1)], [&["v"], &["v"]], Some(1), dirty)];
        // The same key with its anchors the other way round, so its field
        // sets swap sides: `A1` gains `w`.
        let again = [finding([(0, 1), (0, 0)], [&["v"], &["w"]], Some(1), dirty)];
        let mut merge = Merge::default();
        merge.fold(&first, &[a, b], |_, c| Some(c));
        merge.fold(&again, &[a, c], |_, c| Some(c));
        let got = merge.verdicts();
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(
            (got[0].cmd1.0.as_str(), got[0].cmd2.0.as_str()),
            ("A1", "A2")
        );
        assert_eq!(got[0].fields1, strings(&["v", "w"]));
        assert_eq!(got[0].fields2, strings(&["v"]));
        assert_eq!(got[0].witnesses, strings(&["b", "c"]));
    }

    #[test]
    fn merge_keeps_the_first_findings_orientation_and_transactions() {
        // Both transactions label their command `X`: a program the
        // checker rejects, and the one case where orientation is not
        // fixed by the labels alone.
        let p = parse(
            "schema T { id: int key, v: int }
             txn a(k: int) { @X x := select v from T where id = k; return 0; }
             txn b(k: int) { @X update T set v = 1 where id = k; return 0; }",
        )
        .unwrap();
        let ts = summarize_program(&p);
        let lost = AnomalyKind::LostUpdate;
        let first = [finding([(0, 0), (1, 0)], [&["p"], &["q"]], None, lost)];
        let second = [finding([(0, 0), (1, 0)], [&["r"], &["s"]], None, lost)];
        let mut merge = Merge::default();
        merge.fold(&first, &[&ts[0], &ts[1]], |_, c| Some(c));
        merge.fold(&second, &[&ts[1], &ts[0]], |_, c| Some(c));
        let got = merge.verdicts();
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].txn1.as_str(), got[0].txn2.as_str()), ("a", "b"));
        assert_eq!(got[0].fields1, strings(&["p", "r"]));
        assert_eq!(got[0].fields2, strings(&["q", "s"]));
        assert!(got[0].witnesses.is_empty());
    }

    #[test]
    fn merge_sorts_verdicts_by_labels_then_kind() {
        let ts = summarize_program(&parse(THREE).unwrap());
        let members = [&ts[0], &ts[1], &ts[2]];
        let f = |cmds, kind| finding(cmds, [&["v"], &["v"]], None, kind);
        let findings = [
            f([(1, 0), (2, 0)], AnomalyKind::LostUpdate),
            f([(2, 0), (0, 0)], AnomalyKind::DirtyRead),
            f([(1, 0), (0, 0)], AnomalyKind::NonRepeatableRead),
            f([(0, 0), (1, 0)], AnomalyKind::LostUpdate),
        ];
        let mut merge = Merge::default();
        merge.fold(&findings, &members, |_, c| Some(c));
        let got: Vec<(String, String, AnomalyKind)> = merge
            .verdicts()
            .into_iter()
            .map(|v| (v.cmd1.0, v.cmd2.0, v.kind))
            .collect();
        let want = [
            ("A1", "B1", AnomalyKind::LostUpdate),
            ("A1", "B1", AnomalyKind::NonRepeatableRead),
            ("A1", "C1", AnomalyKind::DirtyRead),
            ("B1", "C1", AnomalyKind::LostUpdate),
        ]
        .map(|(a, b, k)| (a.to_owned(), b.to_owned(), k));
        assert_eq!(got, want);
    }

    #[test]
    fn merge_skips_findings_past_a_member_or_its_slice() {
        let ts = summarize_program(&parse(THREE).unwrap());
        let lost = AnomalyKind::LostUpdate;
        let findings = [
            // Names a third member of a pair.
            finding([(0, 0), (2, 0)], [&["v"], &["v"]], None, lost),
            // Names a command past `b`'s one command.
            finding([(0, 0), (1, 1)], [&["v"], &["v"]], None, lost),
            // Names a witness past the pair.
            finding([(0, 0), (1, 0)], [&["v"], &["v"]], Some(2), lost),
            // Names position 1 of `a`'s one-command slice.
            finding([(0, 1), (1, 0)], [&["v"], &["v"]], None, lost),
            // The one finding that names what is there: `A2` and `B1`.
            finding([(0, 0), (1, 0)], [&["v"], &["w"]], Some(1), lost),
        ];
        // `a`'s slice keeps only its update.
        let kept: [&[usize]; 2] = [&[1], &[0]];
        let mut merge = Merge::default();
        merge.fold(&findings, &[&ts[0], &ts[1]], |m, c| kept[m].get(c).copied());
        let got = merge.verdicts();
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(
            (got[0].cmd1.0.as_str(), got[0].cmd2.0.as_str()),
            ("A2", "B1")
        );
        assert_eq!(got[0].witnesses, strings(&["b"]));
    }

    #[test]
    fn two_updates_same_record_are_dirty() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             txn w(k: int) {
                 @W1 update T set a = 1 where id = k;
                 @W2 update T set b = 2 where id = k;
                 return 0;
             }
             txn r(k: int) { @R x := select a, b from T where id = k; return x.a; }",
        )
        .unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        assert!(pairs
            .iter()
            .any(|p| p.kind == AnomalyKind::DirtyRead && p.cmd1.0 == "W1" && p.cmd2.0 == "W2"));
    }
}
