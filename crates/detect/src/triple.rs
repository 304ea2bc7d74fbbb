//! The bounded **three-instance** detection mode: chain anomalies the
//! two-instance pair oracle provably cannot express.
//!
//! The paper's detector (and this crate's [`crate::detect`] module) grounds
//! every anomaly query over a *two*-instance skeleton. That bound is blind
//! to serializability violations whose witness needs **three distinct
//! transactions** — the observer-chain causality violations CLOTHO-style
//! directed testing surfaces in real applications. This module widens the
//! bound by one instance:
//!
//! * the three-instance execution skeleton is the pair model's
//!   instance-count-generic builder ([`InstanceModel::new_multi`]) over
//!   the trio, so `ord`/`vis` and every per-level axiom group generalize
//!   without a second encoder, and its queries are decided by the same
//!   closure ([`crate::closure`]) in the same solve frame as a pair
//!   (`detect::solve_group`) — this module contributes only the
//!   triple part of the candidate stream (`detect::candidates`) that
//!   detection, the fresh reference oracle and witness replay all read;
//! * three **chain templates**, each placing visibility requirements on
//!   commands of all three instances — so none of them is expressible in
//!   the two-instance skeleton *by construction*:
//!
//!   1. **Observer chain** (relayed causality): `T_a` writes; `T_b` reads
//!      that write and derives a write of its own; `T_c` observes the
//!      derived write yet misses the origin. Realizable under EC, refuted
//!      by the causal-closure axioms at CC and above.
//!   2. **Circular write skew** over three keys: each instance's
//!      read-modify-write misses the previous instance's write, closing a
//!      three-edge dependency cycle. Every *pairwise* projection of the
//!      cycle is serializable (order the two the other way around), so the
//!      pair oracle cannot see it; the full cycle is refuted only at SC.
//!   3. **Fractured-read chain**: `T_a` writes two records atomically;
//!      `T_b` relays one half to `T_c`, which never observes the other
//!      half. An atomic-visibility violation laundered through a relay —
//!      the pair dirty-read template needs both halves observed by *one*
//!      foreign instance and so misses it.
//!
//! # Bound and cost model
//!
//! Triples are enumerated over **unordered triples of distinct
//! transactions** (pairs-with-repetition remain the pair oracle's job), and
//! every template is tried under each role permutation of the three
//! instances (permutations equivalent under equal transaction fingerprints
//! are skipped; the write-skew cycle pins its first role to the first
//! instance, since rotations describe the same cycle). Candidate tuples are
//! enumerated statically from the command summaries; a triple with no
//! candidate never grounds a model or touches a solver. Per (template,
//! role) the stream stops at the **first realized candidate**, the
//! nested-loop enumeration keeps one tuple per outermost anchor command,
//! and each candidate's witness record pair is the first aliasing pair in
//! model order — deliberate bounds (part of the template definitions, like
//! the pair templates' own early breaks) that trade exhaustive witness
//! enumeration for a query budget within a small multiple of the pair
//! pass.

use std::collections::BTreeSet;

use crate::detect::{self, AnomalyKind, Finding};
use crate::encode::{InstanceModel, VisRequirement};
use crate::model::{may_alias, CmdKind, CmdSummary, TxnSummary};

/// Global command index of a template command in the grounded model.
fn cmd(model: &InstanceModel, c: Cmd) -> usize {
    model.cmd_index(c.inst, c.local)
}

/// The atom of `w`'s events on the first of its witness records that may
/// alias a record `reader` touches — the record pair a chain requirement
/// is grounded on (see the module docs' cost model).
fn write_atom(model: &InstanceModel, w: Cmd, reader: Cmd) -> Option<usize> {
    let (wm, rm) = (cmd(model, w), cmd(model, reader));
    for &rw in &model.cmds[wm].records {
        if model.cmds[rm]
            .records
            .iter()
            .any(|&dr| model.may_alias_records(rw, dr))
        {
            return model.atom(wm, rw);
        }
    }
    None
}

/// A command addressed as (instance, local index) — local index doubles as
/// the program position, so `a.local < b.local` is program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cmd {
    inst: usize,
    local: usize,
}

/// One statically enumerated chain-template candidate, with its commands
/// bound to model instances by the role permutation that produced it.
#[derive(Debug, Clone, Copy)]
enum Candidate {
    /// Observer chain: origin write, relay read, relay write, observer's
    /// chain read, observer's missing read.
    Chain { w1: Cmd, r2: Cmd, w2: Cmd, r3a: Cmd, r3b: Cmd },
    /// Write-skew cycle: the (read, write) dependency pair of each role.
    Skew { r: [Cmd; 3], w: [Cmd; 3] },
    /// Fractured-read chain: the atomic write pair, the relay's read and
    /// write, the observer's chain read and missing read.
    Fractured { wa1: Cmd, wa2: Cmd, rb: Cmd, wb: Cmd, rc1: Cmd, rc2: Cmd },
}

impl Candidate {
    /// Discriminant for the first-witness-per-(template, role) bound.
    fn template(&self) -> u8 {
        match self {
            Candidate::Chain { .. } => 0,
            Candidate::Skew { .. } => 1,
            Candidate::Fractured { .. } => 2,
        }
    }
}

/// All six role permutations of three instances, in lexicographic order.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn is_select(c: &CmdSummary) -> bool {
    c.kind == CmdKind::Select
}

fn is_write(c: &CmdSummary) -> bool {
    !c.writes.is_empty()
}

/// Does `r` read a field `w` writes, on a possibly shared record?
fn observes(w: &CmdSummary, r: &CmdSummary) -> bool {
    w.schema == r.schema
        && may_alias(&w.key, &r.key)
        && w.writes.intersection(&r.reads).next().is_some()
}

/// Does `w`'s assigned data flow from the row `r` bound?
fn data_dep(r: &CmdSummary, w: &CmdSummary) -> bool {
    r.bound_var.as_ref().is_some_and(|v| w.uses_vars.contains(v))
}

/// The (read, write) data-dependency pairs of one instance: a select whose
/// bound row flows into a later write — the per-instance edge of the
/// write-skew cycle.
fn dep_pairs(t: &TxnSummary, inst: usize) -> Vec<(Cmd, Cmd)> {
    let mut out = Vec::new();
    for (ri, r) in t.commands.iter().enumerate() {
        if !is_select(r) {
            continue;
        }
        for (wi, w) in t.commands.iter().enumerate() {
            if wi > ri && is_write(w) && data_dep(r, w) {
                out.push((Cmd { inst, local: ri }, Cmd { inst, local: wi }));
            }
        }
    }
    out
}

/// Statically enumerates every chain-template candidate of a transaction
/// triple (summaries in model instance order), stopping at `cap` — the
/// prefilter passes `cap = 1` to decide whether the triple is worth
/// grounding at all. Role permutations equivalent under equal fingerprints
/// are visited once.
fn collect_candidates(ts: [&TxnSummary; 3], fps: [u64; 3], cap: usize) -> Vec<(u8, Candidate)> {
    let mut out: Vec<(u8, Candidate)> = Vec::new();
    let mut seen: Vec<[u64; 3]> = Vec::new();
    for (pi, perm) in PERMS.iter().enumerate() {
        let shape = [fps[perm[0]], fps[perm[1]], fps[perm[2]]];
        if seen.contains(&shape) {
            continue;
        }
        seen.push(shape);
        let (a, b, c) = (perm[0], perm[1], perm[2]);
        let (ta, tb, tc) = (ts[a], ts[b], ts[c]);
        let pi = pi as u8;

        // ---- Observer chain. ----
        'chain: for (i1, w1) in ta.commands.iter().enumerate() {
            if !is_write(w1) {
                continue;
            }
            for (i2, r2) in tb.commands.iter().enumerate() {
                if !is_select(r2) || !observes(w1, r2) {
                    continue;
                }
                for (i3, w2) in tb.commands.iter().enumerate() {
                    if i3 <= i2 || !is_write(w2) || !data_dep(r2, w2) {
                        continue;
                    }
                    for (i4, r3a) in tc.commands.iter().enumerate() {
                        if !is_select(r3a) || !observes(w2, r3a) {
                            continue;
                        }
                        for (i5, r3b) in tc.commands.iter().enumerate() {
                            if i5 <= i4 || !is_select(r3b) || !observes(w1, r3b) {
                                continue;
                            }
                            out.push((
                                pi,
                                Candidate::Chain {
                                    w1: Cmd { inst: a, local: i1 },
                                    r2: Cmd { inst: b, local: i2 },
                                    w2: Cmd { inst: b, local: i3 },
                                    r3a: Cmd { inst: c, local: i4 },
                                    r3b: Cmd { inst: c, local: i5 },
                                },
                            ));
                            if out.len() >= cap {
                                return out;
                            }
                            continue 'chain;
                        }
                    }
                }
            }
        }

        // ---- Circular write skew: role A is pinned to the first instance
        // of the permutation pair (0, x, y) — rotations of a cycle are the
        // same cycle, so only the two non-rotated permutations run it. ----
        if a == 0 {
            let (da, db, dc) = (dep_pairs(ta, a), dep_pairs(tb, b), dep_pairs(tc, c));
            for &(r_a, w_a) in &da {
                for &(r_b, w_b) in &db {
                    if !observes(&ta.commands[w_a.local], &tb.commands[r_b.local]) {
                        continue;
                    }
                    for &(r_c, w_c) in &dc {
                        if !observes(&tb.commands[w_b.local], &tc.commands[r_c.local])
                            || !observes(&tc.commands[w_c.local], &ta.commands[r_a.local])
                        {
                            continue;
                        }
                        out.push((
                            pi,
                            Candidate::Skew {
                                r: [r_a, r_b, r_c],
                                w: [w_a, w_b, w_c],
                            },
                        ));
                        if out.len() >= cap {
                            return out;
                        }
                    }
                }
            }
        }

        // ---- Fractured-read chain. ----
        'fractured: for (i1, wa1) in ta.commands.iter().enumerate() {
            if !is_write(wa1) {
                continue;
            }
            for (i2, wa2) in ta.commands.iter().enumerate() {
                if i2 == i1 || !is_write(wa2) {
                    continue;
                }
                for (i3, rb) in tb.commands.iter().enumerate() {
                    if !is_select(rb) || !observes(wa1, rb) {
                        continue;
                    }
                    for (i4, wb) in tb.commands.iter().enumerate() {
                        if i4 <= i3 || !is_write(wb) || !data_dep(rb, wb) {
                            continue;
                        }
                        for (i5, rc1) in tc.commands.iter().enumerate() {
                            if !is_select(rc1) || !observes(wb, rc1) {
                                continue;
                            }
                            for (i6, rc2) in tc.commands.iter().enumerate() {
                                if i6 <= i5 || !is_select(rc2) || !observes(wa2, rc2) {
                                    continue;
                                }
                                out.push((
                                    pi,
                                    Candidate::Fractured {
                                        wa1: Cmd { inst: a, local: i1 },
                                        wa2: Cmd { inst: a, local: i2 },
                                        rb: Cmd { inst: b, local: i3 },
                                        wb: Cmd { inst: b, local: i4 },
                                        rc1: Cmd { inst: c, local: i5 },
                                        rc2: Cmd { inst: c, local: i6 },
                                    },
                                ));
                                if out.len() >= cap {
                                    return out;
                                }
                                continue 'fractured;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Does any chain template have at least one candidate on this triple?
/// The static prefilter the engine runs before grounding a model: a triple
/// with no candidate issues no query and caches an empty verdict.
pub(crate) fn has_candidates(ts: [&TxnSummary; 3], fps: [u64; 3]) -> bool {
    !collect_candidates(ts, fps, 1).is_empty()
}

/// The visibility requirements of one candidate, or `None` when a required
/// witness record pair does not alias in the grounded model.
fn requirements(model: &InstanceModel, cand: &Candidate) -> Option<Vec<VisRequirement>> {
    let req = |w: Cmd, r: Cmd, seen: bool| Some((write_atom(model, w, r)?, cmd(model, r), seen));
    Some(match *cand {
        Candidate::Chain {
            w1,
            r2,
            w2,
            r3a,
            r3b,
        } => {
            vec![
                req(w1, r2, true)?,
                req(w2, r3a, true)?,
                req(w1, r3b, false)?,
            ]
        }
        Candidate::Skew { r, w } => {
            vec![
                req(w[0], r[1], false)?,
                req(w[1], r[2], false)?,
                req(w[2], r[0], false)?,
            ]
        }
        Candidate::Fractured {
            wa1,
            wa2,
            rb,
            wb,
            rc1,
            rc2,
        } => {
            vec![
                req(wa1, rb, true)?,
                req(wb, rc1, true)?,
                req(wa2, rc2, false)?,
            ]
        }
    })
}

/// The reported finding of one satisfiable candidate: anchored on the
/// broken edge's (write, missing read) commands, with the relaying
/// transaction as witness — so [`crate::AccessPair::witnesses`] names
/// exactly the coordination set a repair would have to cover.
fn finding(ts: [&TxnSummary; 3], cand: &Candidate) -> Finding {
    // (reported anchors, broken edge as (write, read), relay, template)
    let ([a, b], (w, r), relay, kind) = match *cand {
        Candidate::Chain { w1, r3b, r2, .. } => {
            ([w1, r3b], (w1, r3b), r2, AnomalyKind::ObserverChain)
        }
        Candidate::Skew { r, w } => (
            [r[0], w[2]],
            (w[2], r[0]),
            r[1],
            AnomalyKind::WriteSkewCycle,
        ),
        Candidate::Fractured { wa2, rc2, rb, .. } => {
            ([wa2, rc2], (wa2, rc2), rb, AnomalyKind::FracturedRead)
        }
    };
    let summary = |c: Cmd| -> &CmdSummary { &ts[c.inst].commands[c.local] };
    let fields: BTreeSet<String> = summary(w)
        .writes
        .intersection(&summary(r).reads)
        .cloned()
        .collect();
    Finding {
        cmds: [(a.inst, a.local), (b.inst, b.local)],
        fields: [fields.clone(), fields],
        witness: Some(relay.inst),
        kind,
    }
}

/// The triple bound's part of [`detect::candidates`]: every chain candidate
/// of the trio `ts` (members in model instance order, `fps` their
/// fingerprints) with its requirement vector over `model`, the trio's
/// grounded skeleton — none when a witness record pair does not alias, so
/// such a candidate is never realized. Once `hit` realizes a candidate,
/// later candidates of the same (template, role permutation) are skipped:
/// they would only be redundant witnesses.
pub(crate) fn candidates(
    ts: [&TxnSummary; 3],
    fps: [u64; 3],
    model: &InstanceModel,
    hit: &mut dyn FnMut(detect::Candidate) -> bool,
) {
    let mut done: Vec<(u8, u8)> = Vec::new();
    for (perm, cand) in collect_candidates(ts, fps, usize::MAX) {
        let key = (cand.template(), perm);
        if done.contains(&key) {
            continue;
        }
        let realized = hit(detect::Candidate {
            findings: vec![finding(ts, &cand)],
            queries: requirements(model, &cand).into_iter().collect(),
        });
        if realized {
            done.push(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{solve_group, AccessPair, Merge};
    use crate::encode::ConsistencyLevel;
    use crate::model::summarize_program;
    use atropos_dsl::parse;

    fn summaries(src: &str) -> Vec<TxnSummary> {
        summarize_program(&parse(src).unwrap())
    }

    fn fps(ts: &[TxnSummary]) -> [u64; 3] {
        [
            crate::cache::txn_fingerprint(&ts[0]),
            crate::cache::txn_fingerprint(&ts[1]),
            crate::cache::txn_fingerprint(&ts[2]),
        ]
    }

    fn solve(ts: &[TxnSummary], level: ConsistencyLevel) -> Vec<AccessPair> {
        let trio = [&ts[0], &ts[1], &ts[2]];
        let (findings, _, _) = solve_group(&trio, &fps(ts), false, level, false);
        let mut merge = Merge::default();
        merge.fold(&findings, &trio, |_, c| Some(c));
        merge.verdicts()
    }

    /// The canonical 3-hop relay: post writes, relay reads-then-derives,
    /// timeline observes the derived write but can miss the origin.
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
    fn observer_chain_sat_under_ec_refuted_from_cc_up() {
        let ts = summaries(RELAY);
        let ec = solve(&ts, ConsistencyLevel::EventualConsistency);
        assert!(
            ec.iter().any(|p| p.kind == AnomalyKind::ObserverChain),
            "EC must realize the relayed causality violation: {ec:?}"
        );
        let chain = ec
            .iter()
            .find(|p| p.kind == AnomalyKind::ObserverChain)
            .unwrap();
        assert_eq!(chain.cmd1.0, "R4");
        assert_eq!(chain.cmd2.0, "W1");
        assert_eq!(chain.witnesses, BTreeSet::from(["relay".to_owned()]));
        for level in [
            ConsistencyLevel::CausalConsistency,
            ConsistencyLevel::Serializable,
        ] {
            let got = solve(&ts, level);
            assert!(
                got.iter().all(|p| p.kind != AnomalyKind::ObserverChain),
                "{level} closes visibility through the observer chain: {got:?}"
            );
        }
    }

    /// Three read-modify-writes over three keys, each reading the previous
    /// key and writing the next: the classic G2 cycle.
    const SKEW: &str = "schema K { k_id: int key, v: int }
         txn t1(a: int, b: int) {
             @A1 x := select v from K where k_id = a;
             @A2 update K set v = x.v + 1 where k_id = b;
             return 0;
         }
         txn t2(b: int, c: int) {
             @B1 x := select v from K where k_id = b;
             @B2 update K set v = x.v + 1 where k_id = c;
             return 0;
         }
         txn t3(c: int, a: int) {
             @C1 x := select v from K where k_id = c;
             @C2 update K set v = x.v + 1 where k_id = a;
             return 0;
         }";

    #[test]
    fn write_skew_cycle_sat_under_weak_levels_refuted_under_sc() {
        let ts = summaries(SKEW);
        for level in [
            ConsistencyLevel::EventualConsistency,
            ConsistencyLevel::CausalConsistency,
            ConsistencyLevel::RepeatableRead,
        ] {
            let got = solve(&ts, level);
            assert!(
                got.iter().any(|p| p.kind == AnomalyKind::WriteSkewCycle),
                "{level} realizes the three-key cycle: {got:?}"
            );
        }
        let sc = solve(&ts, ConsistencyLevel::Serializable);
        assert!(
            sc.iter().all(|p| p.kind != AnomalyKind::WriteSkewCycle),
            "a serial instance order breaks the cycle: {sc:?}"
        );
    }

    /// An atomic two-record write whose halves reach the observer through
    /// different paths: one relayed, one direct — and the direct one lost.
    const FRACTURED: &str = "schema A { a_id: int key, a_v: int }
         schema B { b_id: int key, b_v: int }
         schema C { c_id: int key, c_v: int }
         txn writer(a: int, b: int) {
             @WA update A set a_v = 1 where a_id = a;
             @WB update B set b_v = 1 where b_id = b;
             return 0;
         }
         txn relay(a: int, c: int) {
             @RB x := select a_v from A where a_id = a;
             @WC update C set c_v = x.a_v where c_id = c;
             return 0;
         }
         txn observer(c: int, b: int) {
             @RC y := select c_v from C where c_id = c;
             @RD z := select b_v from B where b_id = b;
             return 0;
         }";

    #[test]
    fn fractured_read_chain_survives_cc_but_not_sc() {
        let ts = summaries(FRACTURED);
        for level in [
            ConsistencyLevel::EventualConsistency,
            ConsistencyLevel::CausalConsistency,
        ] {
            let got = solve(&ts, level);
            assert!(
                got.iter().any(|p| p.kind == AnomalyKind::FracturedRead),
                "{level} fractures the atomic pair across the relay: {got:?}"
            );
        }
        let sc = solve(&ts, ConsistencyLevel::Serializable);
        assert!(
            sc.iter().all(|p| p.kind != AnomalyKind::FracturedRead),
            "SC restores atomic visibility: {sc:?}"
        );
    }

    #[test]
    fn triples_without_candidates_are_prefiltered() {
        // Three pure readers: no write anywhere, no template applies.
        let ts = summaries(
            "schema T { id: int key, v: int }
             txn ra(k: int) { @A x := select v from T where id = k; return 0; }
             txn rb(k: int) { @B x := select v from T where id = k; return 0; }
             txn rc(k: int) { @C x := select v from T where id = k; return 0; }",
        );
        assert!(!has_candidates([&ts[0], &ts[1], &ts[2]], fps(&ts)));
        // The relay triple, by contrast, has work.
        let relay = summaries(RELAY);
        assert!(has_candidates(
            [&relay[0], &relay[1], &relay[2]],
            fps(&relay)
        ));
    }

    #[test]
    fn first_witness_bound_reports_one_chain_per_role() {
        let ts = summaries(RELAY);
        let trio = [&ts[0], &ts[1], &ts[2]];
        // The raw findings: the merge would fold a second chain of the
        // same labels into the first.
        let ec = ConsistencyLevel::EventualConsistency;
        let (findings, _, _) = solve_group(&trio, &fps(&ts), false, ec, false);
        let chains = findings
            .iter()
            .filter(|f| f.kind == AnomalyKind::ObserverChain)
            .count();
        assert_eq!(chains, 1, "{findings:?}");
    }
}
