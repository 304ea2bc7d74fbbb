//! Command merging (`try_merging` of Fig. 10): fusing two database commands
//! of one transaction into a single command so their effects become a single
//! atom, protected by row-level atomicity.

use atropos_dsl::{
    check_program, visit_stmts, CmdLabel, CmpOp, Expr, Program, Stmt, Transaction, Where,
};

fn where_key(w: &Where) -> String {
    atropos_dsl::print_where(w)
}

/// Establishes that `b` (the later command) selects the same records as `a`
/// (R1 of §4.2), using three increasingly semantic arguments:
///
/// 1. the filters are syntactically equal;
/// 2. every conjunct of `b`'s filter has the form `f = x.f` where `x` is
///    bound by a select of `txn` on the same schema with `a`'s filter —
///    i.e. `b` re-selects the record `a` selected, through its own fields;
/// 3. (updates only) every conjunct of `b`'s filter has the form `f = e`
///    where `a` assigns `f = e`: after `a` runs, `a`'s target record
///    satisfies `b`'s filter.
fn same_record_set(
    txn: &Transaction,
    schema: &str,
    a: &Stmt,
    a_where: &Where,
    b_where: &Where,
) -> bool {
    if where_key(a_where) == where_key(b_where) {
        return true;
    }
    let Some(conj) = b_where.conjuncts() else {
        return false;
    };
    if conj.is_empty() {
        return false;
    }
    let a_where_str = where_key(a_where);
    let selects = txn.commands();
    let a_assigns: Vec<(String, String)> = match a {
        Stmt::Update(c) => c
            .assigns
            .iter()
            .map(|(f, e)| (f.clone(), atropos_dsl::print_expr(e)))
            .collect(),
        _ => Vec::new(),
    };
    conj.into_iter().all(|(f, op, e)| {
        if op != CmpOp::Eq {
            return false;
        }
        // Rule 2: f = x.f with x bound by a same-filter select on `schema`.
        if let Expr::At(idx, v, g) = e {
            if matches!(**idx, Expr::Const(atropos_dsl::Value::Int(0)))
                && g == f
                && selects.iter().any(|s| {
                    matches!(s, Stmt::Select(c) if &c.var == v
                        && c.schema == schema
                        && where_key(&c.where_) == a_where_str)
                })
            {
                return true;
            }
        }
        // Rule 3: f = e where `a` assigns f = e.
        let printed = atropos_dsl::print_expr(e);
        a_assigns.iter().any(|(af, ae)| af == f && ae == &printed)
    })
}

/// Attempts to merge the commands labelled `l1` and `l2`, which must be of
/// the same kind, on the same schema, with syntactically equal filters, and
/// adjacent up to commands on other schemas. On success the merged command
/// keeps `l1`'s label and position.
///
/// The merge is first looked for on the borrowed program: most probes
/// merge nothing, and only one that merges copies the program and
/// type-checks the copy.
pub fn try_merging(program: &Program, l1: &CmdLabel, l2: &CmdLabel) -> Option<Program> {
    if l1 == l2 {
        return None;
    }
    let (t, path, block, rename) =
        program
            .transactions
            .iter()
            .enumerate()
            .find_map(|(t, txn)| {
                let mut path = Vec::new();
                let (block, rename) = find_merge(txn, &txn.body, l1, l2, &mut path)?;
                Some((t, path, block, rename))
            })?;
    let mut out = program.clone();
    let txn = &mut out.transactions[t];
    *block_at(&mut txn.body, &path) = block;
    // Variable renames apply to the whole transaction, including the
    // return expression.
    if let Some((from, to)) = rename {
        txn.rename_var(&from, &to);
    }
    check_program(&out).ok()?;
    Some(out)
}

/// Finds the merge of `l1` and `l2` in `body`, a block of `txn`, without
/// changing anything. Both labels must live in one block: `body` itself,
/// or else a block nested in it, searched in statement order. Returns the
/// merged block and the variable rename `merge_in_block` asks for, and
/// leaves in `path` the statement indices that lead from `body` to it.
fn find_merge(
    txn: &Transaction,
    body: &[Stmt],
    l1: &CmdLabel,
    l2: &CmdLabel,
    path: &mut Vec<usize>,
) -> Option<(Vec<Stmt>, Option<(String, String)>)> {
    let pos1 = body.iter().position(|s| s.label() == Some(l1));
    let pos2 = body.iter().position(|s| s.label() == Some(l2));
    if let (Some(i), Some(j)) = (pos1, pos2) {
        let (i, j, keep) = if i < j { (i, j, l1) } else { (j, i, l2) };
        return merge_in_block(body, i, j, keep, txn);
    }
    for (k, s) in body.iter().enumerate() {
        if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
            path.push(k);
            if let Some(found) = find_merge(txn, body, l1, l2, path) {
                return Some(found);
            }
            path.pop();
        }
    }
    None
}

/// The block `path` leads to from `body` (see [`find_merge`]).
fn block_at<'a>(body: &'a mut Vec<Stmt>, path: &[usize]) -> &'a mut Vec<Stmt> {
    let Some((&k, rest)) = path.split_first() else {
        return body;
    };
    match &mut body[k] {
        Stmt::If { body, .. } | Stmt::Iterate { body, .. } => block_at(body, rest),
        _ => unreachable!("a merge path runs through nested blocks only"),
    }
}

/// Merges commands at block positions `i < j` of `body`, a block of `txn`,
/// keeping the label of the earlier command. Returns the new block and an
/// optional variable rename `(removed var, surviving var)` the caller must
/// apply transaction-wide.
fn merge_in_block(
    body: &[Stmt],
    i: usize,
    j: usize,
    keep: &CmdLabel,
    txn: &Transaction,
) -> Option<(Vec<Stmt>, Option<(String, String)>)> {
    let (a, b) = (&body[i], &body[j]);
    let schema = a.schema()?;
    if b.schema() != Some(schema) {
        return None;
    }
    // No intermediate statement (at any nesting) may touch the same schema.
    let mut conflict = false;
    visit_stmts(&body[i + 1..j], &mut |s| {
        conflict |= s.schema() == Some(schema)
    });
    if conflict {
        return None;
    }
    let merged: Stmt = match (a, b) {
        (Stmt::Select(c1), Stmt::Select(c2)) => {
            if !same_record_set(txn, schema, a, &c1.where_, &c2.where_) {
                return None;
            }
            let fields = match (&c1.fields, &c2.fields) {
                (None, _) | (_, None) => None,
                (Some(f1), Some(f2)) => {
                    let mut fs: Vec<String> = f1.clone();
                    for f in f2 {
                        if !fs.contains(f) {
                            fs.push(f.clone());
                        }
                    }
                    Some(fs)
                }
            };
            let mut c = c1.clone();
            c.label = keep.clone();
            c.fields = fields;
            // The surviving variable is c1's; uses of c2's variable are
            // renamed by the caller via `rename_var`.
            Stmt::Select(c)
        }
        (Stmt::Update(c1), Stmt::Update(c2)) => {
            if !same_record_set(txn, schema, a, &c1.where_, &c2.where_) {
                return None;
            }
            let mut assigns = c1.assigns.clone();
            for (f, e) in &c2.assigns {
                if let Some(slot) = assigns.iter_mut().find(|(g, _)| g == f) {
                    // Later assignment wins.
                    slot.1 = e.clone();
                } else {
                    assigns.push((f.clone(), e.clone()));
                }
            }
            let mut c = c1.clone();
            c.label = keep.clone();
            c.assigns = assigns;
            Stmt::Update(c)
        }
        (Stmt::Delete(c1), Stmt::Delete(c2)) => {
            if where_key(&c1.where_) != where_key(&c2.where_) {
                return None;
            }
            let mut c = c1.clone();
            c.label = keep.clone();
            Stmt::Delete(c)
        }
        _ => return None,
    };

    let mut out: Vec<Stmt> = Vec::with_capacity(body.len() - 1);
    let rename: Option<(String, String)> = match (&body[i], &body[j]) {
        (Stmt::Select(c1), Stmt::Select(c2)) if c1.var != c2.var => {
            Some((c2.var.clone(), c1.var.clone()))
        }
        _ => None,
    };
    for (k, s) in body.iter().enumerate() {
        if k == i {
            out.push(merged.clone());
        } else if k == j {
            continue;
        } else {
            out.push(s.clone());
        }
    }
    Some((out, rename))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::{parse, print_program};

    /// The clone-first `try_merging`: copy the program, merge in the copy,
    /// type-check it. The differential tests below hold the borrowing
    /// version to it.
    fn try_merging_on_a_clone(program: &Program, l1: &CmdLabel, l2: &CmdLabel) -> Option<Program> {
        if l1 == l2 {
            return None;
        }
        let mut out = program.clone();
        let mut merged = false;
        for t in out.transactions.iter_mut() {
            let txn = t.clone();
            let mut done = false;
            let mut rename: Option<(String, String)> = None;
            visit_block(&mut t.body, l1, l2, &mut done, &mut rename, &txn);
            if done {
                if let Some((from, to)) = rename {
                    t.rename_var(&from, &to);
                }
                merged = true;
                break;
            }
        }
        if !merged || check_program(&out).is_err() {
            return None;
        }
        Some(out)
    }

    fn visit_block(
        body: &mut Vec<Stmt>,
        l1: &CmdLabel,
        l2: &CmdLabel,
        done: &mut bool,
        rename: &mut Option<(String, String)>,
        txn: &Transaction,
    ) {
        if *done {
            return;
        }
        let pos1 = body.iter().position(|s| s.label() == Some(l1));
        let pos2 = body.iter().position(|s| s.label() == Some(l2));
        if let (Some(mut i), Some(mut j)) = (pos1, pos2) {
            let mut labels = (l1.clone(), l2.clone());
            if i > j {
                std::mem::swap(&mut i, &mut j);
                labels = (l2.clone(), l1.clone());
            }
            if let Some((new_body, rn)) = merge_in_block(body, i, j, &labels.0, txn) {
                *body = new_body;
                *rename = rn;
                *done = true;
            }
            return;
        }
        for s in body.iter_mut() {
            if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
                visit_block(body, l1, l2, done, rename, txn);
                if *done {
                    return;
                }
            }
        }
    }

    /// Every command label of `program`, in transaction and statement
    /// order (nested blocks included).
    fn labels(program: &Program) -> Vec<CmdLabel> {
        let commands = program.transactions.iter().flat_map(|t| t.commands());
        commands.filter_map(|s| s.label().cloned()).collect()
    }

    /// Probes every ordered pair of `program`'s labels (a label with
    /// itself included) with both versions, asserts equal results and
    /// returns the number of pairs probed and merged.
    fn merge_differential(program: &Program) -> (usize, usize) {
        let labels = labels(program);
        let mut merges = 0;
        for l1 in &labels {
            for l2 in &labels {
                let got = try_merging(program, l1, l2);
                assert_eq!(
                    got,
                    try_merging_on_a_clone(program, l1, l2),
                    "{l1:?} {l2:?}"
                );
                merges += usize::from(got.is_some());
            }
        }
        (labels.len() * labels.len(), merges)
    }

    /// The borrowing `try_merging` agrees with the clone-first one on
    /// every label pair of the ten corpus programs and of their repairs.
    #[test]
    fn merge_probe_agrees_with_the_clone_first_merge_on_the_corpus() {
        use crate::{repair_with_engine, RepairConfig};
        use atropos_detect::{DetectSession, DetectionEngine};
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/corpus");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("the corpus directory")
            .map(|e| e.expect("a corpus entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "dsl"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 10);
        let (mut pairs, mut merges) = (0, 0);
        for path in &paths {
            let program = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let repaired = repair_with_engine(
                &program,
                &RepairConfig::default(),
                &DetectionEngine::serial(),
                &mut DetectSession::new(),
            )
            .repaired;
            for p in [&program, &repaired] {
                let (n, m) = merge_differential(p);
                pairs += n;
                merges += m;
            }
        }
        // Four mergeable pairs, each in both orders, all in the originals:
        // repair's post-processing already merged them in the repairs.
        assert_eq!((pairs, merges), (6196, 8));
    }

    /// Labels in nested `if` and `iterate` blocks, in sibling blocks and in
    /// blocks at different depths: the borrowing `try_merging` finds the
    /// same merges as the clone-first one, at any depth.
    #[test]
    fn merge_probe_agrees_with_the_clone_first_merge_in_nested_blocks() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             schema U { id: int key, z: int }
             txn nested(k: int) {
                 @S0 w := select a from T where id = k;
                 if (k > 0) {
                     @S1 x := select a from T where id = k;
                     iterate (2) {
                         @V1 update U set z = 1 where id = k;
                         @V2 update U set z = 2 where id = k;
                     }
                     @S2 y := select b from T where id = k;
                     @S3 v := select b from T where id = x.a;
                 }
                 if (k > 1) {
                     @U1 update T set a = 1 where id = k;
                     @U2 update T set b = 2 where id = k;
                 }
                 iterate (3) {
                     @U3 update T set a = 3 where id = k;
                     @U4 update T set b = 4 where id = k;
                 }
                 return w.a + y.b;
             }
             txn siblings(k: int) {
                 if (k > 0) {
                     @O1 p := select a from T where id = k;
                 }
                 if (k > 0) {
                     @O2 q := select a from T where id = k;
                 }
                 return 0;
             }",
        )
        .unwrap();
        let (pairs, merges) = merge_differential(&p);
        assert_eq!(pairs, 12 * 12);
        let merged = |l1: &str, l2: &str| try_merging(&p, &l1.into(), &l2.into());
        for (l1, l2) in [("S1", "S2"), ("V1", "V2"), ("U1", "U2"), ("U3", "U4")] {
            let out = merged(l1, l2).unwrap_or_else(|| panic!("{l1} and {l2} merge"));
            assert_eq!(out.command_count(), p.command_count() - 1);
            assert!(merged(l2, l1).is_some());
        }
        assert_eq!(merges, 8);
        // Different blocks never merge: siblings, or one block and a block
        // nested in it.
        assert!(merged("O1", "O2").is_none());
        assert!(merged("S0", "S1").is_none());
        // The later select re-renders through the surviving variable.
        let text = print_program(&merged("S1", "S2").unwrap());
        assert!(text.contains("return w.a + x.b"), "{text}");
    }

    #[test]
    fn merges_two_selects_with_equal_filters() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             txn t(k: int) {
                 @S1 x := select a from T where id = k;
                 @S2 y := select b from T where id = k;
                 return x.a + y.b;
             }",
        )
        .unwrap();
        let out = try_merging(&p, &"S1".into(), &"S2".into()).unwrap();
        let text = print_program(&out);
        assert!(text.contains("select a, b from T"), "{text}");
        // y was renamed to x everywhere.
        assert!(text.contains("return x.a + x.b"), "{text}");
        assert_eq!(out.command_count(), 1);
    }

    #[test]
    fn merges_two_updates_with_equal_filters() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             txn t(k: int) {
                 @U1 update T set a = 1 where id = k;
                 @U2 update T set b = 2 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let out = try_merging(&p, &"U1".into(), &"U2".into()).unwrap();
        let text = print_program(&out);
        assert!(text.contains("update T set a = 1, b = 2"), "{text}");
        assert_eq!(out.command_count(), 1);
    }

    #[test]
    fn rejects_different_filters() {
        let p = parse(
            "schema T { id: int key, a: int }
             txn t(k: int, m: int) {
                 @U1 update T set a = 1 where id = k;
                 @U2 update T set a = 2 where id = m;
                 return 0;
             }",
        )
        .unwrap();
        assert!(try_merging(&p, &"U1".into(), &"U2".into()).is_none());
    }

    #[test]
    fn rejects_interfering_intermediate_command() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             txn t(k: int) {
                 @U1 update T set a = 1 where id = k;
                 @S1 x := select a from T where id = k;
                 @U2 update T set b = x.a where id = k;
                 return 0;
             }",
        )
        .unwrap();
        assert!(try_merging(&p, &"U1".into(), &"U2".into()).is_none());
    }

    #[test]
    fn allows_intermediate_commands_on_other_schemas() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             schema U { id: int key, z: int }
             txn t(k: int) {
                 @U1 update T set a = 1 where id = k;
                 @UO update U set z = 9 where id = k;
                 @U2 update T set b = 2 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let out = try_merging(&p, &"U1".into(), &"U2".into()).unwrap();
        assert_eq!(out.command_count(), 2);
    }

    #[test]
    fn rejects_kind_mismatch() {
        let p = parse(
            "schema T { id: int key, a: int }
             txn t(k: int) {
                 @S1 x := select a from T where id = k;
                 @U1 update T set a = x.a + 1 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        assert!(try_merging(&p, &"S1".into(), &"U1".into()).is_none());
    }

    #[test]
    fn update_merge_later_assignment_wins() {
        let p = parse(
            "schema T { id: int key, a: int }
             txn t(k: int) {
                 @U1 update T set a = 1 where id = k;
                 @U2 update T set a = 2 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let out = try_merging(&p, &"U1".into(), &"U2".into()).unwrap();
        let text = print_program(&out);
        assert!(text.contains("set a = 2"), "{text}");
    }

    #[test]
    fn merges_inside_nested_blocks() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             txn t(k: int) {
                 if (k > 0) {
                     @S1 x := select a from T where id = k;
                     @S2 y := select b from T where id = k;
                 }
                 return 0;
             }",
        )
        .unwrap();
        let out = try_merging(&p, &"S1".into(), &"S2".into()).unwrap();
        assert_eq!(out.command_count(), 1);
    }
}
