//! Chain-directed refactoring rules for the triple detection mode: the
//! rewrites that consume [`AnomalyKind::ObserverChain`],
//! [`AnomalyKind::FracturedRead`], and [`AnomalyKind::WriteSkewCycle`]
//! witnesses — anomalies no two-instance oracle can see (PR 5), and hence
//! no pair rule of Fig. 10 can repair.
//!
//! Both rules consume the anomaly's relay transaction from
//! [`AccessPair::witnesses`] and mint every rewritten command label under
//! the `.T` segment the DSL reserves for triple-derived rewrites:
//!
//! * [`materialize_relay`] — **relay materialization**: when the relayed
//!   value is a pure derivation of the origin row (the relay reads the
//!   origin and writes a copy elsewhere), the derived field is materialized
//!   *on the origin row itself*. The relay's fan-out write lands on the row
//!   it read (addressed by its own read filter), the observer's chain read
//!   follows the field home (addressed by its own origin-row filter), and
//!   the observer's two reads — now same schema, same filter — collapse
//!   into one single-row atomic read via `try_merging`. The 3-hop
//!   dependency becomes pair-visible, and on the relay shape outright
//!   clean. This mirrors the derived-data materializations that
//!   schema-refactoring synthesis treats as first-class (Wang et al.).
//! * [`chain_cut`] — **chain-cut merge**: when the relay transaction *is*
//!   the hop (one observing read feeding one derived write), the hop is
//!   fused into the transaction whose write feeds it, so derivation and
//!   origin commit atomically and the middle link of the chain disappears.
//!   The residual anomaly (if any) is pair-visible — e.g. a fractured
//!   read's halves become sibling writes of one transaction, a textbook
//!   dirty-read pair.
//!
//! Like the pair rules in [`crate::rewrite`], both return `None` when their
//! preconditions fail and re-run the type checker as a safety net. The
//! repair loop works out what a step changed itself, so triple-mode
//! repair stays exactly as incremental as pair-mode repair.

use std::collections::BTreeSet;

use atropos_detect::{AccessPair, AnomalyKind};
use atropos_dsl::{
    check_program, visit_stmts_mut, CmdLabel, Expr, FieldDecl, Program, Schema, SelectCmd, Stmt,
    Transaction, UpdateCmd,
};
use atropos_semantics::{Aggregator, ThetaMap, ValueCorrespondence};

use crate::merge::try_merging;
use crate::repair::RepairStep;
use crate::rewrite::{fresh_field_name, well_formed_key_filter};

/// A successful chain rule: the rewritten program, the introduced value
/// correspondences, and the applied steps.
pub type ChainOutcome = (Program, Vec<ValueCorrespondence>, Vec<RepairStep>);

/// Fields a select observes: its projection (all fields for `*`).
fn select_reads(c: &SelectCmd, schema: &Schema) -> BTreeSet<String> {
    match &c.fields {
        Some(fs) => fs.iter().cloned().collect(),
        None => schema.fields.iter().map(|f| f.name.clone()).collect(),
    }
}

/// The first field of `reads` the expression derives through `var`, i.e.
/// the source field of a relayed derivation `g := e(x.f)`.
fn derived_source_field(e: &Expr, var: &str, reads: &BTreeSet<String>) -> Option<String> {
    match e {
        Expr::At(_, v, f) | Expr::Agg(_, v, f) if v == var && reads.contains(f) => Some(f.clone()),
        Expr::At(i, _, _) => derived_source_field(i, var, reads),
        Expr::Bin(_, l, r) | Expr::Cmp(_, l, r) | Expr::Bool(_, l, r) => {
            derived_source_field(l, var, reads).or_else(|| derived_source_field(r, var, reads))
        }
        Expr::Not(x) => derived_source_field(x, var, reads),
        _ => None,
    }
}

/// **Relay materialization** (observer chains): copies the relayed
/// derivation into the origin row, minting the moved field and the
/// rewritten command labels under `.T`, then merges the observer's two
/// origin-row reads into one atomic select when `merge_enabled`.
///
/// Preconditions (each checked syntactically, with `check_program` as the
/// final safety net):
///
/// 1. the anomaly pair is the chain's origin write and the observer's
///    missing read, both on the origin schema, the read pinned to one row
///    by a well-formed key filter;
/// 2. some witness transaction contains the hop: a key-filtered select of
///    the origin schema observing the written field, followed by a
///    single-assignment update of *another* schema derived from that
///    select's binding;
/// 3. the observer reads the derived field earlier in program order,
///    projecting exactly that field;
/// 4. no other command in the program touches the derived field — the
///    move is closed.
pub fn materialize_relay(
    program: &Program,
    pair: &AccessPair,
    merge_enabled: bool,
) -> Option<ChainOutcome> {
    if pair.kind != AnomalyKind::ObserverChain {
        return None;
    }
    let (ta, ca) = program.command(&pair.cmd1)?;
    let (tb, cb) = program.command(&pair.cmd2)?;
    // Recover orientation: the pair arrives label-sorted, not role-sorted.
    let ((origin_txn, origin_w), (obs_txn, missing)) = match (ca, cb) {
        (Stmt::Update(_), Stmt::Select(_)) => ((ta, ca), (tb, cb)),
        (Stmt::Select(_), Stmt::Update(_)) => ((tb, cb), (ta, ca)),
        _ => return None,
    };
    let (Stmt::Update(w1), Stmt::Select(r3b)) = (origin_w, missing) else {
        return None;
    };
    if origin_txn.name == obs_txn.name || r3b.schema != w1.schema {
        return None;
    }
    let s_schema = program.schema(&w1.schema)?;
    well_formed_key_filter(s_schema, &r3b.where_)?;
    let w1_writes: BTreeSet<String> = w1.assigns.iter().map(|(f, _)| f.clone()).collect();

    // Witnesses arrive as a sorted set, so the attempt order (and with it
    // the cached-≡-scratch differential) is deterministic.
    for relay_name in &pair.witnesses {
        if relay_name == &origin_txn.name || relay_name == &obs_txn.name {
            continue;
        }
        let Some(relay) = program.transaction(relay_name) else {
            continue;
        };
        if let Some(out) = materialize_via(
            program, relay, obs_txn, s_schema, &w1_writes, r3b, merge_enabled,
        ) {
            return Some(out);
        }
    }
    None
}

/// One witness's materialization attempt (see [`materialize_relay`]).
fn materialize_via(
    program: &Program,
    relay: &Transaction,
    obs_txn: &Transaction,
    s_schema: &Schema,
    w1_writes: &BTreeSet<String>,
    r3b: &SelectCmd,
    merge_enabled: bool,
) -> Option<ChainOutcome> {
    // The hop inside the relay: observing read, then derived write.
    let cmds = relay.commands();
    let mut hop: Option<(&SelectCmd, &UpdateCmd)> = None;
    'outer: for (i, s) in cmds.iter().enumerate() {
        let Stmt::Select(r2) = s else { continue };
        if r2.schema != s_schema.name
            || select_reads(r2, s_schema).is_disjoint(w1_writes)
            || well_formed_key_filter(s_schema, &r2.where_).is_none()
        {
            continue;
        }
        for s2 in &cmds[i + 1..] {
            let Stmt::Update(w2) = s2 else { continue };
            if w2.schema != s_schema.name
                && w2.assigns.len() == 1
                && w2.assigns[0].1.uses_var(&r2.var)
            {
                hop = Some((r2, w2));
                break 'outer;
            }
        }
    }
    let (r2, w2) = hop?;
    let d_schema = program.schema(&w2.schema)?;
    let (g, derivation) = &w2.assigns[0];
    if d_schema.field(g)?.primary_key {
        return None;
    }

    // The observer's chain read: an earlier select projecting exactly the
    // derived field.
    let obs_cmds = obs_txn.commands();
    let r3b_pos = obs_cmds
        .iter()
        .position(|s| s.label() == Some(&r3b.label))?;
    let r3a = obs_cmds[..r3b_pos].iter().find_map(|s| match s {
        Stmt::Select(c)
            if c.schema == d_schema.name && c.fields.as_deref() == Some(&[g.clone()][..]) =>
        {
            Some(c)
        }
        _ => None,
    })?;

    // Closure: the hop's write and the observer's read must be the derived
    // field's only accessors, or the move would strand a third party.
    for t in &program.transactions {
        for s in t.commands() {
            if s.label() == Some(&w2.label) || s.label() == Some(&r3a.label) {
                continue;
            }
            if s.fields_touched(d_schema).contains(g) {
                return None;
            }
        }
    }

    // Materialize: the derived field moves onto the origin schema…
    let mut out = program.clone();
    let new_field = fresh_field_name(s_schema, g);
    let ty = d_schema.field(g).expect("checked above").ty;
    out.schemas
        .iter_mut()
        .find(|s| s.name == s_schema.name)
        .expect("origin schema exists")
        .fields
        .push(FieldDecl::new(new_field.clone(), ty));
    let w2_new = CmdLabel(format!("{}.T", w2.label.0));
    let r3a_new = CmdLabel(format!("{}.T", r3a.label.0));
    for t in out.transactions.iter_mut() {
        if t.name == relay.name {
            // …the relay's fan-out write lands on the row it read…
            visit_stmts_mut(&mut t.body, &mut |s| {
                if s.label() == Some(&w2.label) {
                    *s = Stmt::Update(UpdateCmd {
                        label: w2_new.clone(),
                        schema: s_schema.name.clone(),
                        assigns: vec![(new_field.clone(), derivation.clone())],
                        where_: r2.where_.clone(),
                    });
                }
            });
        } else if t.name == obs_txn.name {
            // …and the observer's chain read follows it home, pinned to
            // the same origin row as its (previously missing) direct read.
            visit_stmts_mut(&mut t.body, &mut |s| {
                if s.label() == Some(&r3a.label) {
                    *s = Stmt::Select(SelectCmd {
                        label: r3a_new.clone(),
                        var: r3a.var.clone(),
                        fields: Some(vec![new_field.clone()]),
                        schema: s_schema.name.clone(),
                        where_: r3b.where_.clone(),
                    });
                }
            });
            t.rewrite_exprs(&mut |e| match e {
                Expr::At(i, v, f) if *v == r3a.var && f == g => {
                    Some(Expr::At(i.clone(), v.clone(), new_field.clone()))
                }
                Expr::Agg(op, v, f) if *v == r3a.var && f == g => {
                    Some(Expr::Agg(*op, v.clone(), new_field.clone()))
                }
                _ => None,
            });
        }
    }
    if check_program(&out).is_err() {
        return None;
    }

    // The derived copy now lives on the origin row, addressed by the
    // origin key.
    let theta = ThetaMap::identity(s_schema);
    let vcs = vec![ValueCorrespondence {
        src_schema: d_schema.name.clone(),
        dst_schema: s_schema.name.clone(),
        src_field: g.clone(),
        dst_field: new_field.clone(),
        theta,
        alpha: Aggregator::Any,
    }];
    let mut steps = vec![RepairStep::Materialize {
        src: d_schema.name.clone(),
        dst: s_schema.name.clone(),
        field: g.clone(),
        into: new_field.clone(),
    }];

    // Collapse the observer's two origin-row reads into one atomic select:
    // with a single read there is no r3a/r3b split for a chain to fracture.
    if merge_enabled {
        if let Some(merged) = try_merging(&out, &r3a_new, &r3b.label) {
            steps.push(RepairStep::Merge {
                kept: r3a_new.0.clone(),
                removed: r3b.label.0.clone(),
            });
            out = merged;
        }
    }
    Some((out, vcs, steps))
}

/// **Chain-cut merge** (fractured reads, write-skew cycles, and observer
/// chains the materialization cannot close): fuses the witness
/// transaction's hop — one observing read feeding one derived write, which
/// must be the witness's whole body — into the anomaly transaction whose
/// write feeds that read, minting the moved labels under `.T`. Derivation
/// and origin then commit as one atomic transaction; the witness transaction
/// is left empty (its maintenance duty moved to the origin site), and any
/// residual violation is pair-visible.
pub fn chain_cut(program: &Program, pair: &AccessPair) -> Option<ChainOutcome> {
    if !matches!(
        pair.kind,
        AnomalyKind::ObserverChain | AnomalyKind::FracturedRead | AnomalyKind::WriteSkewCycle
    ) {
        return None;
    }
    for relay_name in &pair.witnesses {
        if relay_name == &pair.txn1 || relay_name == &pair.txn2 {
            continue;
        }
        let Some(relay) = program.transaction(relay_name) else {
            continue;
        };
        // The hop must be the witness's entire straight-line body, and the
        // derivation must not escape through its return value.
        if relay.body.len() != 2 {
            continue;
        }
        let Stmt::Select(rb) = &relay.body[0] else {
            continue;
        };
        let wb = &relay.body[1];
        if !matches!(wb, Stmt::Update(_) | Stmt::Insert(_) | Stmt::Delete(_))
            || !wb.uses_var(&rb.var)
            || relay.ret.uses_var(&rb.var)
        {
            continue;
        }
        let Some(rb_schema) = program.schema(&rb.schema) else {
            continue;
        };
        let rb_reads = select_reads(rb, rb_schema);
        // Host: the first pair transaction whose write feeds the hop's read.
        for host_name in [&pair.txn1, &pair.txn2] {
            if host_name == relay_name {
                continue;
            }
            let Some(host) = program.transaction(host_name) else {
                continue;
            };
            let feeds = host.commands().iter().any(|s| match s {
                Stmt::Update(u) => {
                    u.schema == rb.schema && u.assigns.iter().any(|(f, _)| rb_reads.contains(f))
                }
                Stmt::Insert(i) => {
                    i.schema == rb.schema && i.values.iter().any(|(f, _)| rb_reads.contains(f))
                }
                _ => false,
            });
            if !feeds {
                continue;
            }
            if let Some(out) = fuse_hop(program, relay, host, rb, wb, &rb_reads) {
                return Some(out);
            }
        }
    }
    None
}

/// One host's fusion attempt (see [`chain_cut`]).
fn fuse_hop(
    program: &Program,
    relay: &Transaction,
    host: &Transaction,
    rb: &SelectCmd,
    wb: &Stmt,
    rb_reads: &BTreeSet<String>,
) -> Option<ChainOutcome> {
    // Unify parameters: same-named same-typed parameters merge (the host's
    // value keys the fused hop); a name clash at different types is fatal.
    let mut new_params = host.params.clone();
    for p in &relay.params {
        match new_params.iter().find(|q| q.name == p.name) {
            Some(q) if q.ty != p.ty => return None,
            Some(_) => {}
            None => new_params.push(p.clone()),
        }
    }

    // The hop's binding must not capture anything in the host.
    let mut moved = relay.clone();
    let host_cmds = host.commands();
    let binds = |s: &&Stmt, var: &str| matches!(s, Stmt::Select(c) if c.var == var);
    let taken = |var: &str| host.uses_var(var) || host_cmds.iter().any(|s| binds(s, var));
    if taken(&rb.var) {
        let mut fresh = format!("{}_t", rb.var);
        let mut n = 2;
        while taken(&fresh) {
            fresh = format!("{}_t{n}", rb.var);
            n += 1;
        }
        // `rename_var` renames uses; the binding site is ours.
        moved.rename_var(&rb.var, &fresh);
        if let Stmt::Select(c) = &mut moved.body[0] {
            c.var = fresh;
        }
    }
    // Mint the moved labels under the `.T` segment.
    let mut moved_labels = Vec::new();
    for s in moved.body.iter_mut() {
        let relabel = |l: &mut CmdLabel| l.0 = format!("{}.T", l.0);
        match s {
            Stmt::Select(c) => relabel(&mut c.label),
            Stmt::Update(c) => relabel(&mut c.label),
            Stmt::Insert(c) => relabel(&mut c.label),
            Stmt::Delete(c) => relabel(&mut c.label),
            _ => return None,
        }
        moved_labels.push(s.label().expect("database command").0.clone());
    }

    let mut out = program.clone();
    for t in out.transactions.iter_mut() {
        if t.name == host.name {
            t.params = new_params.clone();
            t.body.extend(moved.body.iter().cloned());
        } else if t.name == relay.name {
            // The witness keeps its signature but its maintenance duty
            // moved to the origin site.
            t.body.clear();
        }
    }
    if check_program(&out).is_err() {
        return None;
    }

    // When the hop is a plain derivation `g := e(x.f)`, record where the
    // derived value now comes from.
    let vcs = match wb {
        Stmt::Update(u) if u.assigns.len() == 1 => {
            let (g, e) = &u.assigns[0];
            derived_source_field(e, &rb.var, rb_reads).map(|src_field| {
                vec![ValueCorrespondence {
                    src_schema: rb.schema.clone(),
                    dst_schema: u.schema.clone(),
                    src_field,
                    dst_field: g.clone(),
                    theta: ThetaMap::new(
                        program
                            .schema(&rb.schema)
                            .map(|s| {
                                s.primary_key()
                                    .iter()
                                    .map(|k| ((*k).to_owned(), (*k).to_owned()))
                                    .collect()
                            })
                            .unwrap_or_default(),
                    ),
                    alpha: Aggregator::Any,
                }]
            })
        }
        _ => None,
    }
    .unwrap_or_default();

    let steps = vec![RepairStep::ChainCut {
        relay: relay.name.clone(),
        host: host.name.clone(),
        moved: moved_labels,
    }];
    Some((out, vcs, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::tests::view_of;
    use crate::repair::view_change;
    use atropos_detect::{
        detect_anomalies, ConsistencyLevel, DetectMode, DetectSession, DetectionEngine,
    };
    use atropos_dsl::{parse, print_program};

    const EC: ConsistencyLevel = ConsistencyLevel::EventualConsistency;

    /// One EC triple-mode pass of the serial engine over a fresh session.
    fn detect_triples(p: &Program) -> Vec<AccessPair> {
        DetectionEngine::serial()
            .detect_with_mode(p, EC, DetectMode::Triples, &mut DetectSession::new())
            .0
    }

    // The Relay workload's source (`atropos_workloads::relay`), inlined —
    // `atropos_workloads` depends on this crate, so the workload registry
    // is not importable here. `tests/triple_vs_pair.rs` drives the real
    // registry entry through the full repair loop.
    fn relay_program() -> Program {
        parse(
            "schema MSG  { m_id: int key, m_body: int }
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
             }",
        )
        .unwrap()
    }

    fn chain_pair(p: &Program) -> AccessPair {
        let anoms = detect_triples(p);
        anoms
            .into_iter()
            .find(|a| a.kind == AnomalyKind::ObserverChain)
            .expect("relay has an observer chain at EC")
    }

    #[test]
    fn materialization_collapses_the_relay_chain() {
        let p = relay_program();
        let pair = chain_pair(&p);
        let (out, vcs, steps) = materialize_relay(&p, &pair, true).unwrap();
        let text = print_program(&out);
        // The derived field moved onto the origin row under a .T label…
        assert!(text.contains("update MSG set m_f_body = x.m_body where m_id = m"), "{text}");
        assert!(text.contains("@W2.T"), "{text}");
        // …and the observer's two reads merged into one atomic select.
        assert!(text.contains("@R3.T"), "{text}");
        assert!(text.contains("select m_f_body, m_body from MSG"), "{text}");
        assert!(
            steps.iter().any(|s| matches!(s, RepairStep::Materialize { .. }))
                && steps.iter().any(|s| matches!(s, RepairStep::Merge { .. })),
            "{steps:?}"
        );
        assert_eq!(vcs[0].src_schema, "FEED");
        assert_eq!(vcs[0].dst_schema, "MSG");
        assert_eq!(vcs[0].dst_field, "m_f_body");
        // All three chain transactions were rewritten or re-addressed.
        let (dirty, _) = view_change(&view_of(&p), &view_of(&out));
        assert!(
            dirty.contains("relay") && dirty.contains("timeline"),
            "{dirty:?}"
        );

        // The rewritten program is pair-clean *and* triple-clean at EC.
        assert!(detect_anomalies(&out, EC).is_empty());
        let triples = detect_triples(&out);
        assert!(triples.is_empty(), "{triples:?}");
    }

    #[test]
    fn materialization_without_merge_leaves_two_reads() {
        let p = relay_program();
        let pair = chain_pair(&p);
        let (out, _, steps) = materialize_relay(&p, &pair, false).unwrap();
        assert!(steps.iter().all(|s| !matches!(s, RepairStep::Merge { .. })));
        let timeline = out.transaction("timeline").unwrap();
        assert_eq!(timeline.commands().len(), 2);
    }

    #[test]
    fn materialization_requires_a_closed_derived_field() {
        // A second reader of FEED.f_body keeps the copy pinned in place.
        let p = parse(
            "schema MSG  { m_id: int key, m_body: int }
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
             }
             txn audit(f: int) {
                 @R5 w := select f_body from FEED where f_id = f;
                 return w.f_body;
             }",
        )
        .unwrap();
        let pair = chain_pair(&p);
        assert!(materialize_relay(&p, &pair, true).is_none());
    }

    #[test]
    fn chain_cut_fuses_the_fractured_hop_into_the_writer() {
        let p = parse(
            "schema A { a_id: int key, a_v: int }
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
                 return y.c_v + z.b_v;
             }",
        )
        .unwrap();
        let anoms = detect_triples(&p);
        let pair = anoms
            .iter()
            .find(|a| a.kind == AnomalyKind::FracturedRead)
            .expect("fractured read at EC");
        let (out, vcs, steps) = chain_cut(&p, pair).unwrap();
        let text = print_program(&out);
        // The hop moved into the writer under .T labels, inheriting the
        // relay's extra parameter…
        assert!(text.contains("@RB.T"), "{text}");
        assert!(text.contains("@WC.T"), "{text}");
        let writer = out.transaction("writer").unwrap();
        assert_eq!(writer.commands().len(), 4);
        assert!(writer.params.iter().any(|p| p.name == "c"), "{text}");
        // …and the relay is an empty shell.
        let relay = out.transaction("relay").unwrap();
        assert!(relay.commands().is_empty());
        assert!(matches!(steps[0], RepairStep::ChainCut { .. }));
        assert_eq!(vcs[0].src_field, "a_v");
        assert_eq!(vcs[0].dst_field, "c_v");
        let (dirty, _) = view_change(&view_of(&p), &view_of(&out));
        assert!(
            dirty.contains("writer") && dirty.contains("relay"),
            "{dirty:?}"
        );

        // The fracture is gone; what remains is pair-visible (the writer's
        // sibling writes observed non-atomically — a dirty read).
        let triples = detect_triples(&out);
        assert!(
            triples.iter().all(|a| a.kind != AnomalyKind::FracturedRead),
            "{triples:?}"
        );
    }

    #[test]
    fn chain_cut_renames_colliding_hop_bindings() {
        // The write-skew cycle: every transaction binds `x`, so the moved
        // hop's binding must be freshened.
        let p = parse(
            "schema K { k_id: int key, v: int }
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
             }",
        )
        .unwrap();
        let anoms = detect_triples(&p);
        let pair = anoms
            .iter()
            .find(|a| a.kind == AnomalyKind::WriteSkewCycle)
            .expect("write skew at EC");
        let (out, _, steps) = chain_cut(&p, pair).unwrap();
        let text = print_program(&out);
        assert!(matches!(steps[0], RepairStep::ChainCut { .. }));
        // The fused hop reads through a freshened binding.
        assert!(text.contains("x_t := select"), "{text}");
        assert!(text.contains("x_t.v"), "{text}");
        // The cycle needs a hop in all three transactions; one is now empty.
        let triples = detect_triples(&out);
        assert!(
            triples.iter().all(|a| a.kind != AnomalyKind::WriteSkewCycle),
            "{triples:?}"
        );
    }

    #[test]
    fn chain_cut_requires_the_hop_to_be_the_whole_witness() {
        // An extra command in the relay body blocks the fusion.
        let p = parse(
            "schema A { a_id: int key, a_v: int }
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
                 @WX update A set a_v = 2 where a_id = a;
                 return 0;
             }
             txn observer(c: int, b: int) {
                 @RC y := select c_v from C where c_id = c;
                 @RD z := select b_v from B where b_id = b;
                 return y.c_v + z.b_v;
             }",
        )
        .unwrap();
        let anoms = detect_triples(&p);
        if let Some(pair) = anoms.iter().find(|a| a.kind == AnomalyKind::FracturedRead) {
            assert!(chain_cut(&p, pair).is_none());
        }
    }
}
