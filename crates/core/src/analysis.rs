//! Program analysis utilities shared by the refactoring engine: command
//! lookup, variable usage, in-place AST traversal and splicing, and the
//! repair loop's check of what a step changed in detection's view of a
//! program.

use std::collections::{BTreeMap, BTreeSet};

use atropos_dsl::{CmdLabel, Expr, Program, Stmt, Transaction, Where};

/// Applies `f` to every statement (commands and control statements) of a
/// body, recursing into `if`/`iterate` bodies.
pub fn visit_stmts(body: &[Stmt], f: &mut impl FnMut(&Stmt)) {
    for s in body {
        f(s);
        match s {
            Stmt::If { body, .. } | Stmt::Iterate { body, .. } => visit_stmts(body, f),
            _ => {}
        }
    }
}

/// Applies `f` to every statement of a body mutably, recursing into nested
/// bodies.
pub fn visit_stmts_mut(body: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for s in body.iter_mut() {
        f(s);
        match s {
            Stmt::If { body, .. } | Stmt::Iterate { body, .. } => visit_stmts_mut(body, f),
            _ => {}
        }
    }
}

/// Removes every database command for which `pred` returns true, at any
/// nesting depth. Control statements are kept even if emptied.
pub fn retain_commands(body: &mut Vec<Stmt>, pred: &impl Fn(&Stmt) -> bool) {
    body.retain(|s| match s {
        Stmt::If { .. } | Stmt::Iterate { .. } => true,
        other => pred(other),
    });
    for s in body.iter_mut() {
        if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
            retain_commands(body, pred);
        }
    }
}

/// Inserts `stmts` right after the command labelled `after`, at whatever
/// nesting depth it sits.
pub(crate) fn splice_after(body: &mut Vec<Stmt>, after: &CmdLabel, stmts: &[Stmt]) {
    if let Some(pos) = body.iter().position(|s| s.label() == Some(after)) {
        body.splice(pos + 1..pos + 1, stmts.iter().cloned());
        return;
    }
    for s in body.iter_mut() {
        if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
            splice_after(body, after, stmts);
        }
    }
}

/// Finds the transaction containing the command with the given label.
pub fn txn_of_command<'p>(program: &'p Program, label: &CmdLabel) -> Option<&'p Transaction> {
    program
        .transactions
        .iter()
        .find(|t| commands_of(t).iter().any(|s| s.label() == Some(label)))
}

/// All database commands of a transaction, flattened in program order.
pub fn commands_of(txn: &Transaction) -> Vec<&Stmt> {
    fn collect<'a>(body: &'a [Stmt], out: &mut Vec<&'a Stmt>) {
        for s in body {
            match s {
                Stmt::If { body, .. } | Stmt::Iterate { body, .. } => collect(body, out),
                other => out.push(other),
            }
        }
    }
    let mut out = Vec::new();
    collect(&txn.body, &mut out);
    out
}

/// Variables read by an expression.
fn expr_vars(e: &Expr, out: &mut BTreeSet<String>) {
    e.walk(&mut |x| {
        if let Expr::Agg(_, v, _) | Expr::At(_, v, _) = x {
            out.insert(v.clone());
        }
    });
}

fn where_vars(w: &Where, out: &mut BTreeSet<String>) {
    w.walk_exprs(&mut |e| {
        if let Expr::Agg(_, v, _) | Expr::At(_, v, _) = e {
            out.insert(v.clone());
        }
    });
}

/// Every variable *used* (read) anywhere in the transaction: command where
/// clauses, assigned expressions, control guards, and the return expression.
pub fn used_vars(txn: &Transaction) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    fn walk(body: &[Stmt], out: &mut BTreeSet<String>) {
        for s in body {
            match s {
                Stmt::Select(c) => where_vars(&c.where_, out),
                Stmt::Update(c) => {
                    where_vars(&c.where_, out);
                    for (_, e) in &c.assigns {
                        expr_vars(e, out);
                    }
                }
                Stmt::Insert(c) => {
                    for (_, e) in &c.values {
                        expr_vars(e, out);
                    }
                }
                Stmt::Delete(c) => where_vars(&c.where_, out),
                Stmt::If { cond, body } => {
                    expr_vars(cond, out);
                    walk(body, out);
                }
                Stmt::Iterate { count, body } => {
                    expr_vars(count, out);
                    walk(body, out);
                }
            }
        }
    }
    walk(&txn.body, &mut out);
    expr_vars(&txn.ret, &mut out);
    out
}

/// Rewrites every expression of a transaction in place (including nested
/// guards, where clauses, and the return expression).
pub fn rewrite_exprs(txn: &mut Transaction, f: &impl Fn(&Expr) -> Option<Expr>) {
    fn go_expr(e: &mut Expr, f: &impl Fn(&Expr) -> Option<Expr>) {
        if let Some(new) = f(e) {
            *e = new;
            return;
        }
        match e {
            Expr::Bin(_, l, r) | Expr::Cmp(_, l, r) | Expr::Bool(_, l, r) => {
                go_expr(l, f);
                go_expr(r, f);
            }
            Expr::Not(x) => go_expr(x, f),
            Expr::At(i, _, _) => go_expr(i, f),
            _ => {}
        }
    }
    fn go_where(w: &mut Where, f: &impl Fn(&Expr) -> Option<Expr>) {
        match w {
            Where::True => {}
            Where::Cmp { expr, .. } => go_expr(expr, f),
            Where::And(l, r) | Where::Or(l, r) => {
                go_where(l, f);
                go_where(r, f);
            }
        }
    }
    fn go_body(body: &mut [Stmt], f: &impl Fn(&Expr) -> Option<Expr>) {
        for s in body.iter_mut() {
            match s {
                Stmt::Select(c) => go_where(&mut c.where_, f),
                Stmt::Update(c) => {
                    go_where(&mut c.where_, f);
                    for (_, e) in c.assigns.iter_mut() {
                        go_expr(e, f);
                    }
                }
                Stmt::Insert(c) => {
                    for (_, e) in c.values.iter_mut() {
                        go_expr(e, f);
                    }
                }
                Stmt::Delete(c) => go_where(&mut c.where_, f),
                Stmt::If { cond, body } => {
                    go_expr(cond, f);
                    go_body(body, f);
                }
                Stmt::Iterate { count, body } => {
                    go_expr(count, f);
                    go_body(body, f);
                }
            }
        }
    }
    go_body(&mut txn.body, f);
    go_expr(&mut txn.ret, f);
}

/// Detection's view of a program: each transaction's name mapped to its
/// [`atropos_detect::txn_fingerprint`] and its command labels.
pub(crate) type View = BTreeMap<String, (u64, Vec<String>)>;

/// Detection's [`View`] of `program`, from one summary of it. The repair
/// loop computes it once per program state and keeps the current one.
pub(crate) fn view(program: &Program) -> View {
    atropos_detect::summarize_program(program)
        .into_iter()
        .map(|t| {
            let labels = t.commands.iter().map(|c| c.label.0.clone()).collect();
            let fp = atropos_detect::txn_fingerprint(&t);
            (t.name, (fp, labels))
        })
        .collect()
}

/// What one repair step changed in detection's view of a program, given
/// the [`View`]s before and after it: the transactions whose fingerprint
/// changed, or that appeared or vanished, and whether the view changed
/// at all.
///
/// The repair loop re-detects only after a step that changed the view.
/// A pure relabeling changes it without changing a fingerprint, so the
/// next pass runs and answers every group from the cache under the new
/// labels. An edit the detector cannot see (a rewritten assignment
/// expression with unchanged field and variable sets) or a dropped table
/// no command accesses leaves the view, and so every verdict, unchanged.
pub(crate) fn view_change(before: &View, after: &View) -> (BTreeSet<String>, bool) {
    let fp = |v: &View, name: &String| v.get(name).map(|e| e.0);
    let txns = before
        .keys()
        .chain(after.keys())
        .filter(|name| fp(before, name) != fp(after, name))
        .cloned()
        .collect();
    (txns, before != after)
}

/// True if any command of the program accesses `schema`.
pub fn schema_accessed(program: &Program, schema: &str) -> bool {
    program
        .commands()
        .iter()
        .any(|(_, s)| s.schema() == Some(schema))
}

/// The fields of `schema` accessed anywhere in the program (read, written,
/// filtered on, or projected).
pub fn accessed_fields(program: &Program, schema: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let decl_fields: Vec<String> = program
        .schema(schema)
        .map(|s| s.fields.iter().map(|f| f.name.clone()).collect())
        .unwrap_or_default();
    for t in &program.transactions {
        let info = var_bindings(t);
        // Field accesses through variables bound to this schema.
        let note_expr = |e: &Expr, out: &mut BTreeSet<String>| {
            e.walk(&mut |x| {
                if let Expr::Agg(_, v, f) | Expr::At(_, v, f) = x {
                    if info.iter().any(|(bv, bs)| bv == v && bs == schema) {
                        out.insert(f.clone());
                    }
                }
            });
        };
        visit_stmts(&t.body, &mut |s| match s {
            Stmt::Select(c) if c.schema == schema => {
                out.extend(c.where_.fields());
                match &c.fields {
                    Some(fs) => out.extend(fs.iter().cloned()),
                    None => out.extend(decl_fields.iter().cloned()),
                }
            }
            Stmt::Update(c) if c.schema == schema => {
                out.extend(c.where_.fields());
                out.extend(c.assigns.iter().map(|(f, _)| f.clone()));
            }
            Stmt::Insert(c) if c.schema == schema => {
                out.extend(c.values.iter().map(|(f, _)| f.clone()));
            }
            Stmt::Delete(c) if c.schema == schema => {
                out.extend(c.where_.fields());
            }
            _ => {}
        });
        visit_stmts(&t.body, &mut |s| match s {
            Stmt::Update(c) => {
                for (_, e) in &c.assigns {
                    note_expr(e, &mut out);
                }
            }
            Stmt::If { cond, .. } => note_expr(cond, &mut out),
            Stmt::Iterate { count, .. } => note_expr(count, &mut out),
            _ => {}
        });
        note_expr(&t.ret, &mut out);
    }
    out
}

/// `(variable, schema)` pairs bound by the transaction's selects.
pub fn var_bindings(txn: &Transaction) -> Vec<(String, String)> {
    let mut out = Vec::new();
    visit_stmts(&txn.body, &mut |s| {
        if let Stmt::Select(c) = s {
            out.push((c.var.clone(), c.schema.clone()));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::parse;

    const SRC: &str = "schema T { id: int key, v: int, w: int }
         schema U { id: int key, z: int }
         txn t(k: int) {
             @S1 x := select v from T where id = k;
             if (x.v > 0) {
                 @U1 update U set z = x.v where id = k;
             }
             @S2 y := select w from T where id = k;
             return x.v;
         }";

    #[test]
    fn commands_flatten_in_program_order() {
        let p = parse(SRC).unwrap();
        let cs = commands_of(&p.transactions[0]);
        let labels: Vec<_> = cs.iter().map(|s| s.label().unwrap().0.clone()).collect();
        assert_eq!(labels, vec!["S1", "U1", "S2"]);
    }

    #[test]
    fn used_vars_sees_guards_and_return() {
        let p = parse(SRC).unwrap();
        let used = used_vars(&p.transactions[0]);
        assert!(used.contains("x"));
        assert!(!used.contains("y")); // bound but never read
    }

    #[test]
    fn retain_commands_removes_nested() {
        let p = parse(SRC).unwrap();
        let mut t = p.transactions[0].clone();
        retain_commands(&mut t.body, &|s| s.label().map(|l| l.0.as_str()) != Some("U1"));
        let labels: Vec<_> = commands_of(&t)
            .iter()
            .map(|s| s.label().unwrap().0.clone())
            .collect();
        assert_eq!(labels, vec!["S1", "S2"]);
    }

    #[test]
    fn accessed_fields_covers_projection_filter_and_exprs() {
        let p = parse(SRC).unwrap();
        let t_fields = accessed_fields(&p, "T");
        assert!(t_fields.contains("v") && t_fields.contains("w") && t_fields.contains("id"));
        let u_fields = accessed_fields(&p, "U");
        assert!(u_fields.contains("z") && u_fields.contains("id"));
    }

    #[test]
    fn rewrite_exprs_replaces_field_accesses() {
        let p = parse(SRC).unwrap();
        let mut t = p.transactions[0].clone();
        rewrite_exprs(&mut t, &|e| match e {
            Expr::At(i, v, f) if v == "x" && f == "v" => {
                Some(Expr::At(i.clone(), "x".into(), "renamed".into()))
            }
            _ => None,
        });
        let used: BTreeSet<String> = {
            let mut out = BTreeSet::new();
            t.ret.walk(&mut |e| {
                if let Expr::At(_, _, f) = e {
                    out.insert(f.clone());
                }
            });
            out
        };
        assert!(used.contains("renamed"));
    }

    #[test]
    fn schema_accessed_detects_usage() {
        let p = parse(SRC).unwrap();
        assert!(schema_accessed(&p, "T"));
        assert!(schema_accessed(&p, "U"));
        assert!(!schema_accessed(&p, "V"));
    }

    #[test]
    fn view_change_reports_changed_txns() {
        let before = parse(SRC).unwrap();
        assert_eq!(
            view_change(&view(&before), &view(&before)),
            (BTreeSet::new(), false)
        );

        // Touch one command's write set: its transaction is dirty.
        let after = parse(&SRC.replace("set z = x.v", "set z = x.v, id = k")).unwrap();
        assert_eq!(
            view_change(&view(&before), &view(&after)),
            (BTreeSet::from(["t".to_owned()]), true)
        );

        // Removing a command dirties its transaction too.
        let removed = parse(&SRC.replace("@S2 y := select w from T where id = k;", "")).unwrap();
        assert_eq!(
            view_change(&view(&before), &view(&removed)),
            (BTreeSet::from(["t".to_owned()]), true)
        );

        // So does a transaction that appears or vanishes.
        let renamed = parse(&SRC.replace("txn t(", "txn t2(")).unwrap();
        let both = BTreeSet::from(["t".to_owned(), "t2".to_owned()]);
        assert_eq!(view_change(&view(&before), &view(&renamed)), (both, true));
    }

    #[test]
    fn view_change_counts_pure_relabelings() {
        // A label change on an otherwise untouched command dirties no
        // transaction, but it changes the view: the next detection pass
        // runs and answers every group from the cache under the new label.
        let before = parse(SRC).unwrap();
        let after = parse(&SRC.replace("@U1", "@U9")).unwrap();
        assert_eq!(
            view_change(&view(&before), &view(&after)),
            (BTreeSet::new(), true)
        );
    }

    #[test]
    fn view_change_ignores_detector_invisible_edits() {
        // Rewriting an assignment expression without changing any field or
        // variable set cannot affect a verdict, so the view is unchanged.
        let before = parse(SRC).unwrap();
        let after = parse(&SRC.replace("set z = x.v", "set z = x.v + 1")).unwrap();
        assert_eq!(
            view_change(&view(&before), &view(&after)),
            (BTreeSet::new(), false)
        );
    }

    #[test]
    fn view_change_schema_change_dirties_star_selects() {
        // `select *` summaries expand through the declaration: adding a
        // field must dirty the selecting transaction even though its
        // command text is unchanged.
        const STAR: &str = "schema T { id: int key, v: int }
             txn t(k: int) {
                 @S1 x := select * from T where id = k;
                 return x.v;
             }";
        let before = parse(STAR).unwrap();
        let after = parse(&STAR.replace(
            "schema T { id: int key, v: int }",
            "schema T { id: int key, v: int, extra: int }",
        ))
        .unwrap();
        assert_eq!(
            view_change(&view(&before), &view(&after)),
            (BTreeSet::from(["t".to_owned()]), true)
        );
    }

    #[test]
    fn splice_after_inserts_at_any_depth() {
        let p = parse(SRC).unwrap();
        let mut t = p.transactions[0].clone();
        let s2 = commands_of(&t)[2].clone();
        splice_after(&mut t.body, &CmdLabel("U1".into()), &[s2.clone(), s2]);
        let labels: Vec<_> = commands_of(&t)
            .iter()
            .map(|s| s.label().unwrap().0.clone())
            .collect();
        assert_eq!(labels, vec!["S1", "U1", "S2", "S2", "S2"]);
    }
}
