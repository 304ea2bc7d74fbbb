//! Command merging (`try_merging` of Fig. 10): fusing two database commands
//! of one transaction into a single command so their effects become a single
//! atom, protected by row-level atomicity.

use atropos_dsl::{check_program, CmdLabel, CmpOp, Expr, Program, Stmt, Transaction, Where};

fn where_key(w: &Where) -> String {
    atropos_dsl::print_where(w)
}

/// Select bindings visible in a transaction: `(var, schema, printed where)`.
fn select_bindings(txn: &Transaction) -> Vec<(String, String, String)> {
    fn walk(body: &[Stmt], out: &mut Vec<(String, String, String)>) {
        for s in body {
            match s {
                Stmt::Select(c) => {
                    out.push((c.var.clone(), c.schema.clone(), where_key(&c.where_)))
                }
                Stmt::If { body, .. } | Stmt::Iterate { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&txn.body, &mut out);
    out
}

/// Establishes that `b` (the later command) selects the same records as `a`
/// (R1 of §4.2), using three increasingly semantic arguments:
///
/// 1. the filters are syntactically equal;
/// 2. every conjunct of `b`'s filter has the form `f = x.f` where `x` is
///    bound by a select on the same schema with `a`'s filter — i.e. `b`
///    re-selects the record `a` selected, through its own fields;
/// 3. (updates only) every conjunct of `b`'s filter has the form `f = e`
///    where `a` assigns `f = e`: after `a` runs, `a`'s target record
///    satisfies `b`'s filter.
fn same_record_set(
    bindings: &[(String, String, String)],
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
                && bindings
                    .iter()
                    .any(|(bv, bs, bw)| bv == v && bs == schema && bw == &a_where_str)
            {
                return true;
            }
        }
        // Rule 3: f = e where `a` assigns f = e.
        let printed = atropos_dsl::print_expr(e);
        a_assigns.iter().any(|(af, ae)| af == f && ae == &printed)
    })
}

/// Fields of the schema a command touches outside its own label (used to
/// check that no intermediate command interferes with the merge).
fn touches_schema(s: &Stmt, schema: &str) -> bool {
    s.schema() == Some(schema)
}

/// Attempts to merge the commands labelled `l1` and `l2`, which must be of
/// the same kind, on the same schema, with syntactically equal filters, and
/// adjacent up to commands on other schemas. On success the merged command
/// keeps `l1`'s label and position.
pub fn try_merging(program: &Program, l1: &CmdLabel, l2: &CmdLabel) -> Option<Program> {
    if l1 == l2 {
        return None;
    }
    let mut out = program.clone();
    let mut merged = false;

    for t in out.transactions.iter_mut() {
        // Both labels must live in the same statement block.
        let bindings = select_bindings(t);
        let mut done = false;
        let mut rename: Option<(String, String)> = None;
        visit_block(&mut t.body, l1, l2, &mut done, &mut rename, &bindings);
        if done {
            // Variable renames apply to the whole transaction, including
            // the return expression.
            if let Some((from, to)) = rename {
                rename_var_in_txn(t, &from, &to);
            }
            merged = true;
            break;
        }
    }
    if !merged {
        return None;
    }
    if check_program(&out).is_err() {
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
    bindings: &[(String, String, String)],
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
        if let Some((new_body, rn)) = merge_in_block(body, i, j, &labels.0, bindings) {
            *body = new_body;
            *rename = rn;
            *done = true;
        }
        return;
    }
    for s in body.iter_mut() {
        if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
            visit_block(body, l1, l2, done, rename, bindings);
            if *done {
                return;
            }
        }
    }
}

/// Merges commands at block positions `i < j`, keeping the label of the
/// earlier command. Returns the new block and an optional variable rename
/// `(removed var, surviving var)` the caller must apply transaction-wide.
fn merge_in_block(
    body: &[Stmt],
    i: usize,
    j: usize,
    keep: &CmdLabel,
    bindings: &[(String, String, String)],
) -> Option<(Vec<Stmt>, Option<(String, String)>)> {
    let (a, b) = (&body[i], &body[j]);
    let schema = a.schema()?;
    if b.schema() != Some(schema) {
        return None;
    }
    // No intermediate statement (at any nesting) may touch the same schema.
    for s in &body[i + 1..j] {
        let mut conflict = false;
        check_nested(s, schema, &mut conflict);
        if conflict {
            return None;
        }
    }
    let merged: Stmt = match (a, b) {
        (Stmt::Select(c1), Stmt::Select(c2)) => {
            if !same_record_set(bindings, schema, a, &c1.where_, &c2.where_) {
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
            if !same_record_set(bindings, schema, a, &c1.where_, &c2.where_) {
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

fn check_nested(s: &Stmt, schema: &str, conflict: &mut bool) {
    if touches_schema(s, schema) {
        *conflict = true;
        return;
    }
    if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
        for inner in body {
            check_nested(inner, schema, conflict);
        }
    }
}

fn rename_var_expr(e: &mut Expr, from: &str, to: &str) {
    match e {
        Expr::Agg(_, v, _) | Expr::At(_, v, _) => {
            if v == from {
                *v = to.to_owned();
            }
            if let Expr::At(i, _, _) = e {
                rename_var_expr(i, from, to);
            }
        }
        Expr::Bin(_, l, r) | Expr::Cmp(_, l, r) | Expr::Bool(_, l, r) => {
            rename_var_expr(l, from, to);
            rename_var_expr(r, from, to);
        }
        Expr::Not(x) => rename_var_expr(x, from, to),
        _ => {}
    }
}

fn rename_var_where(w: &mut Where, from: &str, to: &str) {
    match w {
        Where::True => {}
        Where::Cmp { expr, .. } => rename_var_expr(expr, from, to),
        Where::And(l, r) | Where::Or(l, r) => {
            rename_var_where(l, from, to);
            rename_var_where(r, from, to);
        }
    }
}

fn rename_var_stmt(s: &mut Stmt, from: &str, to: &str) {
    match s {
        Stmt::Select(c) => rename_var_where(&mut c.where_, from, to),
        Stmt::Update(c) => {
            rename_var_where(&mut c.where_, from, to);
            for (_, e) in c.assigns.iter_mut() {
                rename_var_expr(e, from, to);
            }
        }
        Stmt::Insert(c) => {
            for (_, e) in c.values.iter_mut() {
                rename_var_expr(e, from, to);
            }
        }
        Stmt::Delete(c) => rename_var_where(&mut c.where_, from, to),
        Stmt::If { cond, body } => {
            rename_var_expr(cond, from, to);
            for inner in body {
                rename_var_stmt(inner, from, to);
            }
        }
        Stmt::Iterate { count, body } => {
            rename_var_expr(count, from, to);
            for inner in body {
                rename_var_stmt(inner, from, to);
            }
        }
    }
}

/// Renames uses of a select variable in a whole transaction (helper shared
/// with the repair driver for post-merge cleanup).
pub fn rename_var_in_txn(txn: &mut atropos_dsl::Transaction, from: &str, to: &str) {
    for s in &mut txn.body {
        rename_var_stmt(s, from, to);
    }
    rename_var_expr(&mut txn.ret, from, to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::{parse, print_program};

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
