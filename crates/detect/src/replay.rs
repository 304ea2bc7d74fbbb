//! Witness replay: decoding dirty SAT verdicts into concrete schedules.
//!
//! The detector reports an anomaly as an [`AccessPair`] — two command
//! labels, a template, and the witnessing transactions — established by a
//! satisfiable pattern query. Its witness is a full bounded execution (an
//! arbitration order over every command instance and a visibility
//! relation over every atom): the query's least model
//! ([`Closure::witness`], for pairs and triples alike), in which nothing is
//! visible that the query does not force. This module decodes it into an
//! [`atropos_sim::ConcreteSchedule`]: a total order of per-instance
//! commands with session and replica placement, explicit replication
//! steps realizing the model's read-from edges, and the anomaly's
//! observable predicate as visibility checks. Running the schedule on the
//! simulator ([`atropos_sim::run_schedule`]) then *proves* the verdict:
//! the anomaly manifests as concrete reads observing (or missing)
//! concrete writes on a cluster whose executor enforces honest weak-store
//! semantics. CLOTHO turns solver-found anomalous executions into directed
//! tests in the same way; a least witness is the smallest such test.
//!
//! Verdicts do not store their requirement vectors (they travel through
//! the verdict cache and across processes), so the decoder re-derives
//! them. A verdict names the *tuples* it may have been analysed on (a pair
//! ordering, or a rotation of a trio); per tuple, the decoder reads the
//! detector's own candidate stream ([`crate::detect`]'s `candidates`,
//! which `solve_group` reads too) with no candidate realized, so it sees
//! every candidate of every template unbounded. It keeps those whose
//! reported pair matches the verdict's anchor and takes the witness of
//! the first realizable one.
//!
//! A [`WitnessDecoder`] decodes many verdicts of one program for the cost
//! of few. It summarizes the program once, grounds each tuple once into
//! an [`InstanceModel`], and enumerates each tuple's candidates once for
//! every kind. The grounded tuple indexes its model once per level a
//! search asks it at, and keeps that [`Closure`] until the tuple is
//! evicted. A least model depends only on the model and the query, so a
//! verdict decodes to the byte-identical schedule whatever the decoder
//! decoded before it. The decoder keeps at most one grounded tuple live;
//! decoding verdicts in [`WitnessDecoder::visit_order`] grounds each tuple
//! once.
//! [`decode_witness`], [`decode_witness_marked`] and [`replay_verdict`]
//! are decoders of one.
//!
//! Two anchoring modes serve the two ends of a repair run:
//!
//! * **strict** ([`WitnessDecoder::decode`]) — the candidate must
//!   reproduce the verdict's exact command labels; used on the *original*
//!   program, where every initial dirty verdict must decode and manifest;
//! * **loose** ([`WitnessDecoder::decode_marked`]) — any candidate of the
//!   verdict's template over the same transaction roles counts; used on
//!   the *repaired* program, whose refactored statements carry fresh
//!   labels. Transactions in the marked set are analysed under
//!   [`ConsistencyLevel::Serializable`] when every participant is marked
//!   (the AT-SC rule of the detector), so a verdict whose participants the
//!   repair left to runtime coordination counts as suppressed. `None`
//!   means *suppressed*: no realizable witness of the anomaly survives.
//!   A loose search reads only the verdict's kind, the tuple and the
//!   effective level, so its result is memoized per such triple.

use std::collections::{BTreeMap, BTreeSet};

use atropos_dsl::Program;
use atropos_sim::{
    run_schedule, ConcreteSchedule, RecordAccess, ScheduleEvent, ScheduleOutcome, ScheduledOp,
    VisibilityCheck,
};

use crate::cache::txn_fingerprint;
use crate::closure::Closure;
use crate::detect::{candidates, AccessPair, AnomalyKind};
use crate::encode::{ConsistencyLevel, InstanceModel, VisRequirement, WitnessTruth};
use crate::model::{summarize_program, CmdKind, TxnSummary};

/// Transaction instances a verdict may be witnessed on: indices into the
/// decoder's summaries in instance order — a pair ordering or a rotation
/// of a trio.
type Tuple = Vec<usize>;

/// One finding of a candidate, as a search anchors on it: its two anchor
/// commands as (member, command index) within the tuple, and its kind.
type Anchor = ([(usize, usize); 2], AnomalyKind);

/// The tuple a decoder keeps grounded: its model, every template
/// candidate of the tuple in detection order (the anchors of the findings
/// it reports and its queries, the first satisfiable one winning), and
/// the model's closure at each level a search has asked, by
/// [`ConsistencyLevel::index`].
struct Grounded {
    tuple: Tuple,
    model: InstanceModel,
    candidates: Vec<(Vec<Anchor>, Vec<Vec<VisRequirement>>)>,
    closures: [Option<Closure>; 4],
}

/// Decodes the verdicts of one program into concrete schedules (see the
/// module docs): each schedule is byte-identical to a one-shot
/// [`decode_witness`] / [`decode_witness_marked`] of the same verdict, in
/// any decoding order.
///
/// # Examples
///
/// ```
/// use atropos_detect::{detect_anomalies, decode_witness, ConsistencyLevel, WitnessDecoder};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let ec = ConsistencyLevel::EventualConsistency;
/// let verdicts = detect_anomalies(&p, ec);
/// let mut decoder = WitnessDecoder::new(&p);
/// for i in decoder.visit_order(&verdicts) {
///     let schedule = decoder.decode(&verdicts[i], ec);
///     assert!(schedule.is_some());
///     assert_eq!(schedule, decode_witness(&p, &verdicts[i], ec));
/// }
/// ```
pub struct WitnessDecoder {
    summaries: Vec<TxnSummary>,
    live: Option<Grounded>,
    loose: BTreeMap<(AnomalyKind, Tuple, ConsistencyLevel), Option<ConcreteSchedule>>,
}

impl WitnessDecoder {
    /// A decoder for the verdicts of `program`.
    pub fn new(program: &Program) -> WitnessDecoder {
        WitnessDecoder {
            summaries: summarize_program(program),
            live: None,
            loose: BTreeMap::new(),
        }
    }

    /// Decodes `verdict` into a concrete schedule, strictly anchored: the
    /// witness search only accepts template candidates that reproduce the
    /// verdict's exact command labels. Returns `None` when no such
    /// candidate is realizable under `level` — which, for a verdict the
    /// detector just reported at that level, indicates a detector/replay
    /// divergence (the differential harness asserts it never happens).
    pub fn decode(
        &mut self,
        verdict: &AccessPair,
        level: ConsistencyLevel,
    ) -> Option<ConcreteSchedule> {
        self.tuples(verdict)
            .into_iter()
            .find_map(|tuple| self.search(&tuple, verdict, level, true))
    }

    /// Decodes `verdict` against a (typically repaired) program, loosely
    /// anchored: any realizable candidate of the verdict's template over
    /// the same transaction roles counts, regardless of command labels
    /// (repair rewrites statements, so labels do not survive). Tuples
    /// entirely inside `marked` are queried under
    /// [`ConsistencyLevel::Serializable`] — the detector's AT-SC rule for
    /// transactions the repair left to runtime coordination. Returns
    /// `None` when the anomaly is **suppressed**: no realizable witness
    /// exists.
    pub fn decode_marked(
        &mut self,
        verdict: &AccessPair,
        level: ConsistencyLevel,
        marked: &BTreeSet<String>,
    ) -> Option<ConcreteSchedule> {
        self.tuples(verdict).into_iter().find_map(|tuple| {
            let eff = effective_level(
                level,
                marked,
                tuple.iter().map(|&i| &self.summaries[i].name),
            );
            let key = (verdict.kind, tuple, eff);
            if let Some(hit) = self.loose.get(&key) {
                return hit.clone();
            }
            let found = self.search(&key.1, verdict, eff, false);
            self.loose.insert(key, found.clone());
            found
        })
    }

    /// The order to decode `verdicts` in: their indices grouped by first
    /// tuple (report order within a group), so the tuple each group shares
    /// is grounded once.
    pub fn visit_order(&self, verdicts: &[AccessPair]) -> Vec<usize> {
        let mut keyed: Vec<(Option<Tuple>, usize)> = verdicts
            .iter()
            .enumerate()
            .map(|(i, v)| (self.tuples(v).into_iter().next(), i))
            .collect();
        keyed.sort();
        keyed.into_iter().map(|(_, i)| i).collect()
    }

    /// The tuples the detector could have analysed `verdict` on, in search
    /// order.
    ///
    /// * Pairs: lost update anchors its pair across the two instances
    ///   (either orientation); the read-instability templates put both
    ///   anchor commands in instance 0 and the interfering transaction —
    ///   recorded as a witness — in instance 1.
    /// * Triples: every rotation of each witness's trio, its members in
    ///   program order (the engine's enumeration order). The write-skew
    ///   enumeration pins the cycle's first role to instance 0 (rotations
    ///   of a cycle are deduplicated), so the engine's reported `txn1`
    ///   depends on which transaction its canonical orientation put first;
    ///   rotating gives every transaction a turn at instance 0, so the
    ///   anchor can match whatever orientation produced the verdict.
    fn tuples(&self, verdict: &AccessPair) -> Vec<Tuple> {
        let by_name = |n: &str| self.summaries.iter().position(|s| s.name == n);
        match verdict.kind {
            AnomalyKind::LostUpdate => {
                let (Some(a), Some(b)) = (by_name(&verdict.txn1), by_name(&verdict.txn2)) else {
                    return Vec::new();
                };
                if verdict.txn1 == verdict.txn2 {
                    vec![vec![a, b]]
                } else {
                    vec![vec![a, b], vec![b, a]]
                }
            }
            AnomalyKind::DirtyRead
            | AnomalyKind::NonRepeatableRead
            | AnomalyKind::NonMonotonicRead => {
                let Some(a) = by_name(&verdict.txn1) else {
                    return Vec::new();
                };
                verdict
                    .witnesses
                    .iter()
                    .filter_map(|w| Some(vec![a, by_name(w)?]))
                    .collect()
            }
            AnomalyKind::ObserverChain
            | AnomalyKind::WriteSkewCycle
            | AnomalyKind::FracturedRead => {
                let mut out = Vec::new();
                for w in &verdict.witnesses {
                    let names =
                        BTreeSet::from([verdict.txn1.as_str(), verdict.txn2.as_str(), w.as_str()]);
                    if names.len() != 3 {
                        continue;
                    }
                    let trio: Vec<usize> = (0..self.summaries.len())
                        .filter(|&i| names.contains(self.summaries[i].name.as_str()))
                        .collect();
                    if trio.len() != 3 {
                        continue;
                    }
                    for rot in 0..3 {
                        out.push(vec![trio[rot], trio[(rot + 1) % 3], trio[(rot + 2) % 3]]);
                    }
                }
                out
            }
        }
    }

    /// Searches one tuple for a witness of `verdict` under `level`: every
    /// anchored candidate's queries, in order, until one has a least
    /// model. Grounds the tuple first, evicting the previously live one
    /// with its closures.
    fn search(
        &mut self,
        tuple: &[usize],
        verdict: &AccessPair,
        level: ConsistencyLevel,
        strict: bool,
    ) -> Option<ConcreteSchedule> {
        let ts: Vec<&TxnSummary> = tuple.iter().map(|&i| &self.summaries[i]).collect();
        if self.live.as_ref().is_none_or(|g| g.tuple != tuple) {
            let model = InstanceModel::new_multi(&ts);
            let fps: Vec<u64> = ts.iter().map(|t| txn_fingerprint(t)).collect();
            // Detection's own stream with no candidate realized: every
            // candidate of every template, unbounded.
            let mut cands = Vec::new();
            candidates(&ts, &fps, true, &model, &mut |c| {
                let anchors = c.findings.iter().map(|f| (f.cmds, f.kind)).collect();
                cands.push((anchors, c.queries));
                false
            });
            self.live = Some(Grounded {
                tuple: tuple.to_vec(),
                model,
                candidates: cands,
                closures: Default::default(),
            });
        }
        let Grounded {
            model,
            candidates: cands,
            closures,
            ..
        } = self.live.as_mut().expect("grounded above");
        // The anchor: the verdict's kind, and when strict its two labels in
        // the sorted order detection keys its verdicts by.
        let (lo, hi) = if verdict.cmd1 <= verdict.cmd2 {
            (&verdict.cmd1, &verdict.cmd2)
        } else {
            (&verdict.cmd2, &verdict.cmd1)
        };
        let anchored = |&([a, b], kind): &Anchor| {
            let label = |(m, c): (usize, usize)| &ts[m].commands[c].label;
            let (x, y) = (label(a), label(b));
            kind == verdict.kind && (!strict || (x.min(y), x.max(y)) == (lo, hi))
        };
        for (anchors, queries) in cands.iter() {
            if !anchors.iter().any(anchored) {
                continue;
            }
            for reqs in queries {
                let closure =
                    closures[level.index()].get_or_insert_with(|| Closure::new(model, level));
                if let Some(truth) = closure.witness(model, reqs) {
                    return Some(build_schedule(model, &ts, reqs, &truth, verdict.kind));
                }
            }
        }
        None
    }
}

/// Decodes `verdict` into a concrete schedule on `program`, strictly
/// anchored: a decoder of one ([`WitnessDecoder::decode`]). Returns `None`
/// when no candidate reproducing the verdict's labels is realizable under
/// `level`.
///
/// # Examples
///
/// ```
/// use atropos_detect::{detect_anomalies, replay_verdict, ConsistencyLevel};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let ec = ConsistencyLevel::EventualConsistency;
/// let verdicts = detect_anomalies(&p, ec);
/// let outcome = replay_verdict(&p, &verdicts[0], ec).expect("decodes");
/// assert!(outcome.manifested); // the lost update is observable on the cluster
/// ```
pub fn decode_witness(
    program: &Program,
    verdict: &AccessPair,
    level: ConsistencyLevel,
) -> Option<ConcreteSchedule> {
    WitnessDecoder::new(program).decode(verdict, level)
}

/// Decodes `verdict` against a (typically repaired) program, loosely
/// anchored with `marked` as the AT-SC set: a decoder of one
/// ([`WitnessDecoder::decode_marked`]). Returns `None` when the anomaly is
/// **suppressed**: no realizable witness exists.
pub fn decode_witness_marked(
    program: &Program,
    verdict: &AccessPair,
    level: ConsistencyLevel,
    marked: &BTreeSet<String>,
) -> Option<ConcreteSchedule> {
    WitnessDecoder::new(program).decode_marked(verdict, level, marked)
}

/// Strictly decodes `verdict` ([`decode_witness`]) and runs the schedule
/// on the simulated cluster, returning what the run observed.
pub fn replay_verdict(
    program: &Program,
    verdict: &AccessPair,
    level: ConsistencyLevel,
) -> Option<ScheduleOutcome> {
    Some(run_schedule(&decode_witness(program, verdict, level)?))
}

/// The detector's AT-SC rule: a tuple whose instances are all marked runs
/// under serializability; anything else runs at the base level.
fn effective_level<'a>(
    level: ConsistencyLevel,
    marked: &BTreeSet<String>,
    mut participants: impl Iterator<Item = &'a String>,
) -> ConsistencyLevel {
    if !marked.is_empty() && participants.all(|t| marked.contains(t)) {
        ConsistencyLevel::Serializable
    } else {
        level
    }
}

/// Union-find over witness-record indices: requirement-involved record
/// pairs are unified so the reads and writes of the anomaly predicate land
/// on the same *concrete* record in the schedule.
struct RecordUnion {
    parent: Vec<usize>,
}

impl RecordUnion {
    fn new(n: usize) -> RecordUnion {
        RecordUnion {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Deterministic representative: the smaller index wins.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
    }
}

/// Decodes one found witness — the satisfied requirement vector `reqs`
/// and its truth assignment over the model of the tuple `ts` — into a
/// concrete schedule.
///
/// * **Sessions**: one per transaction instance; a session's commands are
///   its ops in program order (the `cmds` vector is already grouped that
///   way).
/// * **Replicas**: one home replica per session, where its writes apply,
///   plus one dedicated serving replica per read — the freedom that lets
///   an eventually consistent read observe any prefix of the write history
///   (and two reads of one session observe *different* prefixes).
/// * **Events**: invocations in the model's arbitration order; before each
///   read's invocation, every write the truth assignment makes visible to
///   it is replicated to its serving replica (visibility implies
///   arbitration, so the write is always already invoked).
/// * **Checks**: the satisfied requirement vector verbatim — each `(atom,
///   command, polarity)` becomes "read *command* must (not) have observed
///   the atom's producer".
fn build_schedule(
    model: &InstanceModel,
    ts: &[&TxnSummary],
    reqs: &[VisRequirement],
    truth: &WitnessTruth,
    kind: AnomalyKind,
) -> ConcreteSchedule {
    let n = model.cmds.len();
    let sessions = model.instances();

    // Concretize records: unify each requirement atom's record with the
    // observing command's first aliasing record, then hand every class a
    // dense id.
    let mut uf = RecordUnion::new(model.records.len());
    for &(a, c, _) in reqs {
        let ar = model.atoms[a].record;
        if model.cmds[c].records.contains(&ar) {
            continue;
        }
        if let Some(&r) = model.cmds[c]
            .records
            .iter()
            .find(|&&r| model.may_alias_records(ar, r))
        {
            uf.union(ar, r);
        }
    }
    let mut ids: BTreeMap<usize, u64> = BTreeMap::new();
    for r in 0..model.records.len() {
        let root = uf.find(r);
        let next = ids.len() as u64;
        ids.entry(root).or_insert(next);
    }

    let mut ops = Vec::with_capacity(n);
    let mut read_count = 0usize;
    for cmd in &model.cmds {
        let is_write = cmd.summary.kind != CmdKind::Select;
        let replica = if is_write {
            cmd.instance as usize
        } else {
            let r = sessions + read_count;
            read_count += 1;
            r
        };
        let fields = if is_write {
            &cmd.summary.writes
        } else {
            &cmd.summary.reads
        };
        let accesses = cmd
            .records
            .iter()
            .map(|&r| RecordAccess {
                table: model.records[r].schema.clone(),
                record: ids[&uf.find(r)],
                fields: fields.clone(),
            })
            .collect();
        ops.push(ScheduledOp {
            session: cmd.instance as usize,
            txn: ts[cmd.instance as usize].name.clone(),
            label: cmd.summary.label.0.clone(),
            is_write,
            replica,
            accesses,
        });
    }
    let replicas = sessions + read_count;

    // A negative requirement pins "read c does not observe the atom's
    // producer": never replicate that producer to c's serving replica,
    // even if another of its atoms is model-visible to c.
    let mut banned: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for &(a, c, polarity) in reqs {
        if !polarity {
            banned.entry(c).or_default().insert(model.atoms[a].cmd);
        }
    }

    let position: Vec<usize> = (0..n).map(|c| truth.arbitration_position(c)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&c| position[c]);

    let mut events = Vec::new();
    for &c in &order {
        if !ops[c].is_write {
            let ban = banned.get(&c);
            let mut replicated: BTreeSet<usize> = BTreeSet::new();
            for (ai, atom) in model.atoms.iter().enumerate() {
                let w = atom.cmd;
                if !ops[w].is_write || !truth.vis[ai][c] {
                    continue;
                }
                if ban.is_some_and(|b| b.contains(&w)) {
                    continue;
                }
                if replicated.insert(w) {
                    events.push(ScheduleEvent::Replicate {
                        op: w,
                        to: ops[c].replica,
                    });
                }
            }
        }
        events.push(ScheduleEvent::Invoke(c));
    }

    let checks = reqs
        .iter()
        .map(|&(a, c, polarity)| VisibilityCheck {
            read: c,
            write: model.atoms[a].cmd,
            expect_seen: polarity,
        })
        .collect();

    ConcreteSchedule {
        anomaly: kind.to_string(),
        sessions,
        replicas,
        ops,
        events,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_anomalies;
    use crate::{DetectMode, DetectSession, DetectionEngine};
    use atropos_dsl::parse;

    /// One triple-mode pass of the serial engine over a fresh session.
    fn detect_triples(p: &Program, level: ConsistencyLevel) -> Vec<AccessPair> {
        DetectionEngine::serial()
            .detect_with_mode(p, level, DetectMode::Triples, &mut DetectSession::new())
            .0
    }

    const COUNTER: &str = "schema T { id: int key, v: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }";

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

    #[test]
    fn lost_update_decodes_and_manifests() {
        let p = parse(COUNTER).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        assert_eq!(verdicts.len(), 1);
        let s = decode_witness(&p, &verdicts[0], ec).expect("decodes");
        assert_eq!(s.anomaly, "lost-update");
        assert_eq!(s.sessions, 2);
        // Two RMW instances: 2 writes at home replicas, 2 reads on
        // dedicated serving replicas.
        assert_eq!(s.replicas, 4);
        let out = run_schedule(&s);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.manifested, "{out:?}");
    }

    #[test]
    fn serializability_yields_no_witness() {
        let p = parse(COUNTER).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        assert!(decode_witness(&p, &verdicts[0], ConsistencyLevel::Serializable).is_none());
    }

    #[test]
    fn marking_every_participant_suppresses_the_witness() {
        let p = parse(COUNTER).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        let marked = BTreeSet::from(["bump".to_owned()]);
        assert!(decode_witness_marked(&p, &verdicts[0], ec, &marked).is_none());
        // An unrelated marked set leaves the anomaly realizable.
        let other = BTreeSet::from(["other".to_owned()]);
        assert!(decode_witness_marked(&p, &verdicts[0], ec, &other).is_some());
    }

    #[test]
    fn observer_chain_decodes_and_manifests() {
        let p = parse(RELAY).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_triples(&p, ec);
        let chain = verdicts
            .iter()
            .find(|v| v.kind == AnomalyKind::ObserverChain)
            .expect("relay chain detected");
        let s = decode_witness(&p, chain, ec).expect("decodes");
        assert_eq!(s.anomaly, "observer-chain");
        assert_eq!(s.sessions, 3);
        let out = run_schedule(&s);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.manifested, "{out:?}");
        // Causal consistency refutes the chain: no witness decodes.
        assert!(decode_witness(&p, chain, ConsistencyLevel::CausalConsistency).is_none());
    }

    #[test]
    fn decoding_is_deterministic() {
        let p = parse(RELAY).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_triples(&p, ec);
        for v in &verdicts {
            assert_eq!(
                decode_witness(&p, v, ec),
                decode_witness(&p, v, ec),
                "{v}"
            );
        }
    }

    const MIXED: &str = "schema A { id: int key, x: int, y: int }
         txn wr(k: int) {
             @WX update A set x = 1 where id = k;
             @WY update A set y = 2 where id = k;
             return 0;
         }
         txn rd(k: int) {
             @RX a := select x from A where id = k;
             @RY b := select x, y from A where id = k;
             return 0;
         }";

    /// Every pair-mode verdict of a program with dirty reads and
    /// non-repeatable reads decodes into a schedule that manifests.
    #[test]
    fn mixed_pair_verdicts_all_replay() {
        let p = parse(MIXED).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        assert!(!verdicts.is_empty());
        for v in &verdicts {
            let out = replay_verdict(&p, v, ec).unwrap_or_else(|| panic!("{v} must decode"));
            assert!(out.manifested, "{v}: {out:?}");
        }
    }

    /// The tuple a decoder holds grounded, if any.
    fn live(d: &WitnessDecoder) -> Option<Tuple> {
        d.live.as_ref().map(|g| g.tuple.clone())
    }

    /// A decoder that moved on to another tuple and comes back grounds the
    /// first tuple again, and the re-grounded search reproduces a fresh
    /// decoder's schedule.
    #[test]
    fn an_evicted_tuple_regrounds_to_the_fresh_schedule() {
        let p = parse(MIXED).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        let mut d = WitnessDecoder::new(&p);
        let first = &verdicts[0];
        let fresh = decode_witness(&p, first, ec);
        assert!(fresh.is_some(), "{first}");
        assert_eq!(d.decode(first, ec), fresh);
        let home = live(&d).expect("a search grounds its tuple");
        let other = verdicts
            .iter()
            .find(|v| !d.tuples(v).contains(&home))
            .expect("a verdict on other tuples");
        assert_eq!(d.decode(other, ec), decode_witness(&p, other, ec));
        assert_ne!(live(&d).as_ref(), Some(&home), "{other} evicted {home:?}");
        assert_eq!(d.decode(first, ec), fresh);
        assert_eq!(live(&d), Some(home));
    }

    /// Two lost updates of one transaction share their kind and tuple, so
    /// the loose search for the second is a memo hit, and the hit is the
    /// schedule a fresh loose decode of the second verdict finds.
    #[test]
    fn a_loose_memo_hit_reproduces_the_fresh_schedule() {
        let p = parse(
            "schema T { id: int key, v: int, w: int }
             txn bump(k: int) {
                 @R x := select v, w from T where id = k;
                 @WV update T set v = x.v + 1 where id = k;
                 @WW update T set w = x.w + 1 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        let lost: Vec<&AccessPair> = verdicts
            .iter()
            .filter(|v| v.kind == AnomalyKind::LostUpdate)
            .collect();
        assert_eq!(lost.len(), 2, "{verdicts:?}");
        let marked = BTreeSet::from(["other".to_owned()]);
        let mut d = WitnessDecoder::new(&p);
        for v in &lost {
            let fresh = decode_witness_marked(&p, v, ec, &marked);
            assert!(fresh.is_some(), "{v}");
            assert_eq!(d.decode_marked(v, ec, &marked), fresh, "{v}");
            assert_eq!(d.loose.len(), 1, "one (kind, tuple, level) searched");
        }
        // The memo is keyed by the effective level: the same kind and
        // tuple under serializability, asked for or marked, is suppressed.
        let sc = ConsistencyLevel::Serializable;
        assert_eq!(d.decode_marked(lost[0], sc, &marked), None);
        let all = BTreeSet::from(["bump".to_owned()]);
        assert_eq!(d.decode_marked(lost[1], ec, &all), None);
        assert_eq!(d.loose.len(), 2);
    }

    /// Two transactions of different shapes, each racing with itself: a
    /// two-command and a three-command read-modify-write.
    const SHAPES: &str = "schema T { id: int key, v: int }
         schema U { id: int key, w: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }
         txn move(k: int) {
             @RU y := select w from U where id = k;
             @WU update U set w = y.w + 1 where id = k;
             @WT update T set v = 0 where id = k;
             return 0;
         }";

    /// One decoder asked at every level, strict and loose, with and
    /// without marks, interleaved over the verdicts in report order and
    /// then in reverse, answers every call as a fresh one-shot decode
    /// does: a closure kept under the wrong level, or past its tuple's
    /// eviction, shows here. Courseware's and MIXED's tuples share one
    /// shape per program, so SHAPES adds tuples that do not.
    #[test]
    fn one_decoder_answers_every_level_like_a_fresh_one() {
        use ConsistencyLevel::*;
        for src in [crate::detect::tests::COURSEWARE, MIXED, SHAPES] {
            let p = parse(src).unwrap();
            let verdicts = detect_anomalies(&p, EventualConsistency);
            assert!(!verdicts.is_empty());
            let mut d = WitnessDecoder::new(&p);
            let mut decoded = BTreeMap::new();
            for v in verdicts.iter().chain(verdicts.iter().rev()) {
                let marks = [BTreeSet::new(), BTreeSet::from([v.txn1.clone()])];
                for level in ConsistencyLevel::ALL {
                    let fresh = decode_witness(&p, v, level);
                    assert_eq!(d.decode(v, level), fresh, "{v} strict @ {level}");
                    *decoded.entry(level).or_insert(0) += usize::from(fresh.is_some());
                }
                for level in [EventualConsistency, Serializable] {
                    for marked in &marks {
                        let fresh = decode_witness_marked(&p, v, level, marked);
                        let got = d.decode_marked(v, level, marked);
                        assert_eq!(got, fresh, "{v} loose @ {level}, marked {marked:?}");
                    }
                }
            }
            // Every verdict decodes strictly at the level that found it,
            // and serializability refutes every one of them.
            assert_eq!(decoded[&EventualConsistency], 2 * verdicts.len());
            assert_eq!(decoded[&Serializable], 0);
        }
    }
}
