//! Program analysis utilities shared by the refactoring engine: command
//! lookup, variable usage, in-place AST traversal, and the [`DirtySet`]
//! invalidation payload every refactoring rule reports to the repair
//! driver's verdict cache.

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

/// What one refactoring step invalidated: the invalidation payload every
/// rule (split, merge, redirect, logging, post-processing) reports so the
/// repair driver can evict the affected entries from its
/// [`atropos_detect::DetectSession`] and attribute per-iteration reuse
/// statistics.
///
/// `txns` is the authoritative field for cache eviction — a transaction is
/// dirty when any of its commands (or a schema it accesses) changed, since
/// every cached verdict involving it may be stale. `labels` records the
/// individual commands that changed (changed, added, or removed), for
/// diagnostics and step logs. `renames` carries pure relabelings — label
/// changes on commands whose summaries are otherwise untouched — which
/// stay warm in the cache without any action: cached verdicts carry no
/// labels and are labelled from the current program on every hit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Labels of commands whose printed form changed, appeared, or vanished.
    pub labels: BTreeSet<String>,
    /// Names of transactions containing a dirty command or accessing a
    /// changed schema.
    pub txns: BTreeSet<String>,
    /// Pure relabelings (old label → new label) with unchanged summaries.
    pub renames: BTreeMap<String, String>,
}

impl DirtySet {
    /// True when the step changed nothing the detector can observe.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty() && self.txns.is_empty() && self.renames.is_empty()
    }

    /// Folds a *subsequent* step's payload into this one (for composite
    /// rules like redirect-then-merge). A rename map describes one
    /// simultaneous relabeling, so `other`'s renames — which happened
    /// *after* ours — are composed through ours (`a → b` then `b → c`
    /// yields `a → c`), not merely unioned.
    pub fn merge(&mut self, other: DirtySet) {
        self.labels.extend(other.labels);
        self.txns.extend(other.txns);
        for target in self.renames.values_mut() {
            if let Some(next) = other.renames.get(target) {
                *target = next.clone();
            }
        }
        for (from, to) in other.renames {
            self.renames.entry(from).or_insert(to);
        }
    }
}

/// Computes the [`DirtySet`] between two program versions by diffing the
/// **detector-visible summaries** of every transaction and command (the
/// same [`atropos_detect::txn_fingerprint`] / `cmd_fingerprint` canon the
/// verdict cache is keyed by). A transaction is dirty when its summary
/// fingerprint changed or it appeared/vanished; a label is dirty when its
/// command's summary changed or the label appeared/vanished.
///
/// A transaction whose fingerprint is *unchanged* but whose labels moved is
/// a **pure relabeling**: its command sequence is detector-identical, so
/// the differing labels are paired positionally and reported as `renames`
/// instead of dirt — the verdict cache serves such pairs from memory with
/// the labels remapped rather than re-solving them.
///
/// Summaries absorb schema declarations (a `select *` expands through the
/// declared fields) and deliberately ignore detector-invisible edits — a
/// rewritten assignment *expression* with unchanged field/variable sets
/// produces an empty dirty set, because no anomaly verdict can depend on
/// it. This is the shared engine behind each rule's `_tracked` variant; a
/// rule may extend the result but must never shrink it.
pub fn dirty_between(before: &Program, after: &Program) -> DirtySet {
    /// Per transaction: its fingerprint and its `(label, cmd fingerprint)`
    /// sequence in program order.
    type TxnInfo = (u64, Vec<(String, u64)>);
    let info = |p: &Program| -> BTreeMap<String, TxnInfo> {
        atropos_detect::summarize_program(p)
            .into_iter()
            .map(|t| {
                let fp = atropos_detect::txn_fingerprint(&t);
                let cmds = t
                    .commands
                    .iter()
                    .map(|c| (c.label.0.clone(), atropos_detect::cmd_fingerprint(c)))
                    .collect();
                (t.name.clone(), (fp, cmds))
            })
            .collect()
    };
    let (ib, ia) = (info(before), info(after));

    let mut dirty = DirtySet::default();
    for (name, (fp_b, cmds_b)) in &ib {
        match ia.get(name) {
            // Unchanged summaries: same length by fingerprint equality, so
            // label differences pair up positionally as pure relabelings.
            Some((fp_a, cmds_a)) if fp_a == fp_b => {
                for ((old, _), (new, _)) in cmds_b.iter().zip(cmds_a) {
                    if old != new {
                        dirty.renames.insert(old.clone(), new.clone());
                    }
                }
            }
            _ => {
                dirty.txns.insert(name.clone());
            }
        }
    }
    for name in ia.keys() {
        if !ib.contains_key(name) {
            dirty.txns.insert(name.clone());
        }
    }

    // Label dirt: command-level fingerprint diff across the whole program,
    // minus the labels accounted for as renames.
    let labels = |m: &BTreeMap<String, TxnInfo>| -> BTreeMap<String, u64> {
        m.values()
            .flat_map(|(_, cmds)| cmds.iter().cloned())
            .collect()
    };
    let (lb, la) = (labels(&ib), labels(&ia));
    let renamed: BTreeSet<&String> = dirty
        .renames
        .iter()
        .flat_map(|(from, to)| [from, to])
        .collect();
    for (label, fp) in &lb {
        if la.get(label) != Some(fp) && !renamed.contains(label) {
            dirty.labels.insert(label.clone());
        }
    }
    for label in la.keys() {
        if !lb.contains_key(label) && !renamed.contains(label) {
            dirty.labels.insert(label.clone());
        }
    }
    dirty
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
    fn dirty_between_reports_changed_commands_and_txns() {
        let before = parse(SRC).unwrap();
        assert!(dirty_between(&before, &before).is_empty());

        // Touch one command's write set: its label and transaction are dirty.
        let after = parse(&SRC.replace("set z = x.v", "set z = x.v, id = k")).unwrap();
        let dirty = dirty_between(&before, &after);
        assert_eq!(dirty.labels, BTreeSet::from(["U1".to_owned()]));
        assert_eq!(dirty.txns, BTreeSet::from(["t".to_owned()]));

        // Removing a command dirties its label and transaction too.
        let removed = parse(&SRC.replace("@S2 y := select w from T where id = k;", "")).unwrap();
        let dirty = dirty_between(&before, &removed);
        assert!(dirty.labels.contains("S2"));
        assert!(dirty.txns.contains("t"));
    }

    #[test]
    fn dirty_between_reports_pure_relabelings_as_renames() {
        // A label change on an otherwise untouched command is a rename, not
        // dirt: the verdict cache remaps instead of re-solving.
        let before = parse(SRC).unwrap();
        let after = parse(&SRC.replace("@U1", "@U9")).unwrap();
        let dirty = dirty_between(&before, &after);
        assert!(dirty.txns.is_empty(), "{dirty:?}");
        assert!(dirty.labels.is_empty(), "{dirty:?}");
        assert_eq!(
            dirty.renames,
            BTreeMap::from([("U1".to_owned(), "U9".to_owned())])
        );
        assert!(!dirty.is_empty());
    }

    #[test]
    fn dirty_between_ignores_detector_invisible_edits() {
        // Rewriting an assignment expression without changing any field or
        // variable set cannot affect a verdict, so the diff stays empty.
        let before = parse(SRC).unwrap();
        let after = parse(&SRC.replace("set z = x.v", "set z = x.v + 1")).unwrap();
        assert!(dirty_between(&before, &after).is_empty());
    }

    #[test]
    fn dirty_between_schema_change_dirties_star_selects() {
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
        let dirty = dirty_between(&before, &after);
        assert!(dirty.txns.contains("t"), "{dirty:?}");
        assert!(dirty.labels.contains("S1"), "{dirty:?}");
    }

    #[test]
    fn dirty_set_merge_unions_payloads() {
        let mut a = DirtySet {
            labels: BTreeSet::from(["L1".to_owned()]),
            txns: BTreeSet::from(["t1".to_owned()]),
            renames: BTreeMap::new(),
        };
        let b = DirtySet {
            labels: BTreeSet::from(["L2".to_owned()]),
            txns: BTreeSet::from(["t2".to_owned()]),
            renames: BTreeMap::from([("old".to_owned(), "new".to_owned())]),
        };
        a.merge(b);
        assert_eq!(a.labels.len(), 2);
        assert_eq!(a.txns.len(), 2);
        assert_eq!(a.renames.get("old").map(String::as_str), Some("new"));
        assert!(!a.is_empty());
    }

    #[test]
    fn dirty_set_merge_composes_sequential_renames() {
        // Step 1 renamed a → b; step 2 renamed b → c. The composite map is
        // applied simultaneously by the cache, so it must read a → c.
        let mut first = DirtySet {
            renames: BTreeMap::from([("a".to_owned(), "b".to_owned())]),
            ..DirtySet::default()
        };
        let second = DirtySet {
            renames: BTreeMap::from([("b".to_owned(), "c".to_owned())]),
            ..DirtySet::default()
        };
        first.merge(second);
        assert_eq!(first.renames.get("a").map(String::as_str), Some("c"));
        // The second step's own entry survives for labels that were
        // already `b` before step 1 ran (if any).
        assert_eq!(first.renames.get("b").map(String::as_str), Some("c"));
    }
}
