//! The program rewrite function `⟦·⟧_v` (§4.2): applying a value
//! correspondence to every command that touches the moved data.
//!
//! Two instantiations are provided, mirroring the paper:
//!
//! * [`apply_redirect`] — the **redirect** rule (α = any): moves a set of
//!   fields from a source schema onto a target schema, rewriting every
//!   well-formed access through the record correspondence `θ̂`;
//! * [`apply_logging`] — the **logger** rule (α = sum): replaces
//!   read-modify-write updates of a numeric field with functional inserts
//!   into a fresh logging schema, and redirects residual reads to
//!   program-level `sum` aggregation.
//!
//! Both return `None` when the preconditions of the rule (well-formed where
//! clauses, no mixed accesses, increment-shaped writes, …) do not hold, and
//! both re-run the type checker on the result as a safety net, so a
//! returned program is always well-typed.

use std::collections::BTreeSet;

use atropos_dsl::{
    check_program, visit_stmts_mut, BinOp, CmdLabel, CmpOp, Expr, FieldDecl, InsertCmd, Program,
    Schema, SelectCmd, Stmt, Ty, Where,
};
use atropos_semantics::{Aggregator, ThetaMap, ValueCorrespondence};

/// Mints a field name for `src_field` moved into `dst`: reuses the target
/// schema's leading prefix (`st` for `st_id`, …) when one exists.
pub fn fresh_field_name(dst: &Schema, src_field: &str) -> String {
    let prefix = dst
        .fields
        .first()
        .and_then(|f| f.name.split('_').next())
        .unwrap_or("m");
    let mut candidate = format!("{prefix}_{src_field}");
    let mut n = 2;
    while dst.has_field(&candidate) {
        candidate = format!("{prefix}_{src_field}_{n}");
        n += 1;
    }
    candidate
}

/// Is `w` a *well-formed* filter on `schema` (§4.2.1): a conjunction of
/// equality constraints on primary-key fields only? Returns the pinned
/// `(pk field, expr)` pairs in key order.
pub(crate) fn well_formed_key_filter<'w>(
    schema: &Schema,
    w: &'w Where,
) -> Option<Vec<(String, &'w Expr)>> {
    let conj = w.conjuncts()?;
    let pk: Vec<&str> = schema.primary_key();
    let mut out = Vec::new();
    for (f, op, e) in &conj {
        if *op != CmpOp::Eq || !pk.contains(f) {
            return None;
        }
        out.push(((*f).to_owned(), *e));
    }
    // Every pinned field must be a key field (checked above); require at
    // least one constraint so scans are not silently redirected.
    if out.is_empty() {
        return None;
    }
    Some(out)
}

/// `redirect(φ, θ̂)`: rewrites a well-formed filter on the source schema to
/// the equivalent filter on the target schema.
fn redirect_where(src: &Schema, theta: &ThetaMap, w: &Where) -> Option<Where> {
    let pins = well_formed_key_filter(src, w)?;
    let mut out: Option<Where> = None;
    for (f, e) in pins {
        let dst_f = theta.target_of(&f)?;
        let c = Where::Cmp {
            field: dst_f.to_owned(),
            op: CmpOp::Eq,
            expr: e.clone(),
        };
        out = Some(match out {
            None => c,
            Some(prev) => prev.and(c),
        });
    }
    out
}

/// Applies the redirect rule: moves `moved` (non-key fields of `src`) into
/// `dst` under the record correspondence `theta`, rewriting every access.
///
/// Returns the refactored program and the introduced value correspondences,
/// or `None` when any access cannot be rewritten soundly.
pub fn apply_redirect(
    program: &Program,
    src_name: &str,
    dst_name: &str,
    moved: &BTreeSet<String>,
    theta: &ThetaMap,
) -> Option<(Program, Vec<ValueCorrespondence>)> {
    if src_name == dst_name || moved.is_empty() {
        return None;
    }
    let src = program.schema(src_name)?.clone();
    let dst = program.schema(dst_name)?.clone();
    // Moved fields must be non-key fields of the source.
    for f in moved {
        let decl = src.field(f)?;
        if decl.primary_key {
            return None;
        }
    }
    // θ̂ must map every source key to an existing, type-compatible dst field.
    for k in src.primary_key() {
        let t = theta.target_of(k)?;
        let kd = src.field(k).expect("pk field exists");
        let td = dst.field(t)?;
        if kd.ty != td.ty {
            return None;
        }
    }

    // Mint destination fields.
    let mut dst_new = dst.clone();
    let mut renames: Vec<(String, String)> = Vec::new(); // moved field -> new name
    for f in moved {
        let new_name = fresh_field_name(&dst_new, f);
        let ty = src.field(f).expect("checked above").ty;
        dst_new.fields.push(FieldDecl::new(new_name.clone(), ty));
        renames.push((f.clone(), new_name));
    }
    let rename_of = |f: &str| -> Option<&str> {
        renames
            .iter()
            .find(|(old, _)| old == f)
            .map(|(_, new)| new.as_str())
    };

    let mut out = program.clone();
    // Install the extended destination schema.
    for s in out.schemas.iter_mut() {
        if s.name == dst_name {
            *s = dst_new.clone();
        }
    }

    // Rewrite all commands of every transaction.
    let mut ok = true;
    let mut redirected_vars: Vec<(String, String)> = Vec::new(); // (txn, var)
    for t in out.transactions.iter_mut() {
        let mut failed = false;
        visit_stmts_mut(&mut t.body, &mut |s| {
            if failed {
                return;
            }
            let touched = s.fields_touched(&src);
            if touched.is_empty() {
                return;
            }
            let touched_moved: BTreeSet<&String> =
                touched.iter().filter(|f| moved.contains(*f)).collect();
            if touched_moved.is_empty() {
                return;
            }
            // Mixed access to moved and unmoved non-key fields is not
            // rewritable (preprocessing should have split the command).
            let touched_unmoved_nonkey = touched.iter().any(|f| {
                !moved.contains(f)
                    && src.field(f).is_some_and(|d| !d.primary_key)
            });
            if touched_unmoved_nonkey {
                failed = true;
                return;
            }
            match s {
                Stmt::Select(c) => {
                    let Some(new_where) = redirect_where(&src, theta, &c.where_) else {
                        failed = true;
                        return;
                    };
                    let new_fields = match &c.fields {
                        None => Some(
                            src.fields
                                .iter()
                                .map(|f| {
                                    if let Some(n) = rename_of(&f.name) {
                                        n.to_owned()
                                    } else if f.primary_key {
                                        theta
                                            .target_of(&f.name)
                                            .unwrap_or(&f.name)
                                            .to_owned()
                                    } else {
                                        f.name.clone()
                                    }
                                })
                                .collect::<Vec<_>>(),
                        ),
                        Some(fs) => Some(
                            fs.iter()
                                .map(|f| {
                                    if let Some(n) = rename_of(f) {
                                        n.to_owned()
                                    } else if src
                                        .field(f)
                                        .is_some_and(|d| d.primary_key)
                                    {
                                        theta.target_of(f).unwrap_or(f).to_owned()
                                    } else {
                                        f.clone()
                                    }
                                })
                                .collect::<Vec<_>>(),
                        ),
                    };
                    redirected_vars.push((t.name.clone(), c.var.clone()));
                    c.schema = dst_name.to_owned();
                    c.fields = new_fields;
                    c.where_ = new_where;
                }
                Stmt::Update(c) => {
                    let Some(new_where) = redirect_where(&src, theta, &c.where_) else {
                        failed = true;
                        return;
                    };
                    c.schema = dst_name.to_owned();
                    c.where_ = new_where;
                    for (f, _) in c.assigns.iter_mut() {
                        if let Some(n) = rename_of(f) {
                            *f = n.to_owned();
                        }
                    }
                }
                // Inserting or deleting whole source records cannot be
                // expressed through a partial field move.
                Stmt::Insert(_) | Stmt::Delete(_) => {
                    failed = true;
                }
                Stmt::If { .. } | Stmt::Iterate { .. } => {}
            }
        });
        if failed {
            ok = false;
            break;
        }
    }
    if !ok {
        return None;
    }

    // Rewrite expressions reading the moved fields (and source key fields)
    // through redirected variables.
    for t in out.transactions.iter_mut() {
        let tname = t.name.clone();
        let redirected = |v: &String| {
            redirected_vars
                .iter()
                .any(|(tn, vn)| *tn == tname && vn == v)
        };
        t.rewrite_exprs(&mut |e| match e {
            Expr::Agg(op, v, f) => {
                if redirected(v) {
                    if let Some(n) = rename_of(f) {
                        return Some(Expr::Agg(*op, v.clone(), n.to_owned()));
                    }
                    if src.field(f).is_some_and(|d| d.primary_key) {
                        if let Some(n) = theta.target_of(f) {
                            return Some(Expr::Agg(*op, v.clone(), n.to_owned()));
                        }
                    }
                }
                None
            }
            Expr::At(i, v, f) => {
                if redirected(v) {
                    if let Some(n) = rename_of(f) {
                        return Some(Expr::At(i.clone(), v.clone(), n.to_owned()));
                    }
                    if src.field(f).is_some_and(|d| d.primary_key) {
                        if let Some(n) = theta.target_of(f) {
                            return Some(Expr::At(i.clone(), v.clone(), n.to_owned()));
                        }
                    }
                }
                None
            }
            _ => None,
        });
    }

    // Safety net: the refactored program must type check.
    if check_program(&out).is_err() {
        return None;
    }
    let vcs = renames
        .iter()
        .map(|(old, new)| ValueCorrespondence {
            src_schema: src_name.to_owned(),
            dst_schema: dst_name.to_owned(),
            src_field: old.clone(),
            dst_field: new.clone(),
            theta: theta.clone(),
            alpha: Aggregator::Any,
        })
        .collect();
    Some((out, vcs))
}

/// Recognizes `e` as an increment of `x.f` (or `sum(x.f)`) and returns the
/// delta expression, i.e. `e ≡ at(x.f) + δ` or `e ≡ at(x.f) - δ`.
fn increment_delta(e: &Expr, field: &str) -> Option<(String, Expr)> {
    let is_self = |x: &Expr| -> Option<String> {
        match x {
            Expr::At(_, v, f) if f == field => Some(v.clone()),
            Expr::Agg(atropos_dsl::AggOp::Sum, v, f) if f == field => Some(v.clone()),
            _ => None,
        }
    };
    match e {
        Expr::Bin(BinOp::Add, l, r) => {
            if let Some(v) = is_self(l) {
                return Some((v, (**r).clone()));
            }
            if let Some(v) = is_self(r) {
                return Some((v, (**l).clone()));
            }
            None
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            let v = is_self(l)?;
            Some((v, Expr::int(0).sub((**r).clone())))
        }
        _ => None,
    }
}

/// Applies the logger rule to `(schema, field)`: every write must be an
/// increment, writes become inserts of deltas into a fresh logging schema,
/// and other reads are redirected to `sum` aggregation over the log.
///
/// Returns `None` when some write is not increment-shaped, some read cannot
/// be redirected, or the result fails to type check.
pub fn apply_logging(
    program: &Program,
    schema_name: &str,
    field: &str,
) -> Option<(Program, Vec<ValueCorrespondence>)> {
    let src = program.schema(schema_name)?.clone();
    let decl = src.field(field)?;
    if decl.primary_key || decl.ty != Ty::Int {
        return None;
    }

    let log_name = format!("{}_{}_LOG", schema_name, field.to_uppercase());
    if program.schema(&log_name).is_some() {
        return None;
    }
    let log_field = format!("{field}_log");
    // Log schema: copies of the source keys + a uuid discriminator.
    let mut log_fields: Vec<FieldDecl> = src
        .fields
        .iter()
        .filter(|f| f.primary_key)
        .map(|f| FieldDecl::key(f.name.clone(), f.ty))
        .collect();
    log_fields.push(FieldDecl::key("log_id", Ty::Uuid));
    log_fields.push(FieldDecl::new(log_field.clone(), Ty::Int));

    let mut out = program.clone();
    out.schemas.push(Schema::new(log_name.clone(), log_fields));

    let mut ok = true;
    for t in out.transactions.iter_mut() {
        let mut failed = false;
        let mut redirected_vars: Vec<String> = Vec::new();
        // Selects projecting the logged field *among others* are split: the
        // residue keeps the original schema, a new select aggregates the
        // log. `pending` collects the splices applied after the traversal.
        let mut pending: Vec<(CmdLabel, Stmt)> = Vec::new();
        let mut split_vars: Vec<(String, String)> = Vec::new(); // old var -> log var
        visit_stmts_mut(&mut t.body, &mut |s| {
            if failed {
                return;
            }
            match s {
                Stmt::Update(c) if c.schema == schema_name => {
                    let writes_field = c.assigns.iter().any(|(f, _)| f == field);
                    if !writes_field {
                        return;
                    }
                    if c.assigns.len() != 1 {
                        // Mixed update: preprocessing should have split it.
                        failed = true;
                        return;
                    }
                    let (_, e) = &c.assigns[0];
                    let Some((_, delta)) = increment_delta(e, field) else {
                        failed = true;
                        return;
                    };
                    let Some(pins) = well_formed_key_filter(&src, &c.where_) else {
                        failed = true;
                        return;
                    };
                    // All source keys must be pinned to build the log key.
                    let pk: Vec<&str> = src.primary_key();
                    if pins.len() != pk.len() {
                        failed = true;
                        return;
                    }
                    let mut values: Vec<(String, Expr)> = pins
                        .into_iter()
                        .map(|(f, e)| (f, e.clone()))
                        .collect();
                    values.push(("log_id".to_owned(), Expr::Uuid));
                    values.push((log_field.clone(), delta));
                    *s = Stmt::Insert(InsertCmd {
                        label: c.label.clone(),
                        schema: log_name.clone(),
                        values,
                    });
                }
                // Inserting the logged field (or deleting whole records)
                // cannot be expressed through the log.
                Stmt::Insert(c) if c.schema == schema_name
                    && c.values.iter().any(|(f, _)| f == field) => {
                        failed = true;
                    }
                Stmt::Delete(c) if c.schema == schema_name => {
                    let _ = c;
                    failed = true;
                }
                Stmt::Select(c) if c.schema == schema_name => {
                    let projects: Vec<String> = match &c.fields {
                        Some(fs) => fs.clone(),
                        None => src.fields.iter().map(|f| f.name.clone()).collect(),
                    };
                    if !projects.iter().any(|f| f == field) {
                        return;
                    }
                    if c.where_.fields().iter().any(|f| f == field) {
                        failed = true;
                        return;
                    }
                    let Some(pins) = well_formed_key_filter(&src, &c.where_) else {
                        failed = true;
                        return;
                    };
                    let mut new_where: Option<Where> = None;
                    for (f, e) in pins {
                        let cmp = Where::Cmp {
                            field: f,
                            op: CmpOp::Eq,
                            expr: e.clone(),
                        };
                        new_where = Some(match new_where.take() {
                            None => cmp,
                            Some(p) => p.and(cmp),
                        });
                    }
                    let others: Vec<String> = projects
                        .iter()
                        .filter(|f| *f != field)
                        .cloned()
                        .collect();
                    if others.is_empty() {
                        // Pure read of the logged field: redirect in place.
                        let var = c.var.clone();
                        *s = Stmt::Select(SelectCmd {
                            label: c.label.clone(),
                            var: var.clone(),
                            fields: Some(vec![log_field.clone()]),
                            schema: log_name.clone(),
                            where_: new_where.unwrap_or(Where::True),
                        });
                        redirected_vars.push(var);
                    } else {
                        // Mixed projection: keep the residue, splice in a
                        // log-aggregation select bound to a fresh variable.
                        let log_var = format!("{}_log", c.var);
                        pending.push((
                            c.label.clone(),
                            Stmt::Select(SelectCmd {
                                label: CmdLabel(format!("{}.L", c.label.0)),
                                var: log_var.clone(),
                                fields: Some(vec![log_field.clone()]),
                                schema: log_name.clone(),
                                where_: new_where.unwrap_or(Where::True),
                            }),
                        ));
                        split_vars.push((c.var.clone(), log_var));
                        c.fields = Some(others);
                    }
                }
                _ => {}
            }
        });
        if failed {
            ok = false;
            break;
        }
        for (after, stmt) in pending {
            t.splice_after(&after, &[stmt]);
        }
        // Accesses through redirected variables become sums over the log;
        // accesses through split variables aggregate the fresh log binding.
        let sum = |v: &String| Expr::Agg(atropos_dsl::AggOp::Sum, v.clone(), log_field.clone());
        t.rewrite_exprs(&mut |e| match e {
            Expr::At(_, v, f) | Expr::Agg(_, v, f) if f == field => {
                if redirected_vars.contains(v) {
                    Some(sum(v))
                } else {
                    let split = split_vars.iter().find(|(old, _)| old == v);
                    split.map(|(_, nv)| sum(nv))
                }
            }
            _ => None,
        });
    }
    if !ok {
        return None;
    }
    if check_program(&out).is_err() {
        return None;
    }
    let theta = ThetaMap::new(
        src.primary_key()
            .iter()
            .map(|k| ((*k).to_owned(), (*k).to_owned()))
            .collect(),
    );
    let vcs = vec![ValueCorrespondence {
        src_schema: schema_name.to_owned(),
        dst_schema: log_name,
        src_field: field.to_owned(),
        dst_field: log_field,
        theta,
        alpha: Aggregator::Sum,
    }];
    Some((out, vcs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::{parse, print_program};

    fn email_program() -> Program {
        parse(
            "schema STUDENT { st_id: int key, st_name: string, st_em_id: int }
             schema EMAIL { em_id: int key, em_addr: string }
             txn getSt(id: int) {
                 @S1 x := select * from STUDENT where st_id = id;
                 @S2 y := select em_addr from EMAIL where em_id = x.st_em_id;
                 return y.em_addr;
             }
             txn setSt(id: int, name: string, email: string) {
                 @S4 x := select st_em_id from STUDENT where st_id = id;
                 @U1 update STUDENT set st_name = name where st_id = id;
                 @U2 update EMAIL set em_addr = email where em_id = x.st_em_id;
                 return 0;
             }",
        )
        .unwrap()
    }

    #[test]
    fn redirect_email_into_student_matches_fig9() {
        let p = email_program();
        let theta = ThetaMap::new(vec![("em_id".into(), "st_em_id".into())]);
        let moved = BTreeSet::from(["em_addr".to_owned()]);
        let (out, vcs) = apply_redirect(&p, "EMAIL", "STUDENT", &moved, &theta).unwrap();
        let text = print_program(&out);
        // S2 now selects the new field from STUDENT via st_em_id.
        assert!(text.contains("select st_em_addr from STUDENT"), "{text}");
        assert!(text.contains("st_em_id = x.st_em_id"), "{text}");
        // U2 updates STUDENT.
        assert!(text.contains("update STUDENT set st_em_addr = email"), "{text}");
        // The return expression reads the renamed field.
        assert!(text.contains("return y.st_em_addr"), "{text}");
        assert_eq!(vcs.len(), 1);
        assert_eq!(vcs[0].src_field, "em_addr");
        assert_eq!(vcs[0].dst_field, "st_em_addr");
        assert_eq!(vcs[0].alpha, Aggregator::Any);
    }

    #[test]
    fn redirect_fails_on_type_mismatched_theta() {
        let p = email_program();
        let theta = ThetaMap::new(vec![("em_id".into(), "st_name".into())]);
        let moved = BTreeSet::from(["em_addr".to_owned()]);
        assert!(apply_redirect(&p, "EMAIL", "STUDENT", &moved, &theta).is_none());
    }

    #[test]
    fn redirect_fails_when_source_has_inserts() {
        let p = parse(
            "schema A { id: int key, v: int }
             schema B { id: int key, a_id: int }
             txn w(k: int) { insert into A values (id = k, v = 0); return 0; }
             txn r(k: int) {
                 x := select a_id from B where id = k;
                 y := select v from A where id = x.a_id;
                 return y.v;
             }",
        )
        .unwrap();
        let theta = ThetaMap::new(vec![("id".into(), "a_id".into())]);
        let moved = BTreeSet::from(["v".to_owned()]);
        assert!(apply_redirect(&p, "A", "B", &moved, &theta).is_none());
    }

    #[test]
    fn logging_rewrites_counter_to_insert() {
        let p = parse(
            "schema COURSE { co_id: int key, co_st_cnt: int }
             txn reg(course: int) {
                 @S5 x := select co_st_cnt from COURSE where co_id = course;
                 @U4 update COURSE set co_st_cnt = x.co_st_cnt + 1 where co_id = course;
                 return 0;
             }",
        )
        .unwrap();
        let (out, vcs) = apply_logging(&p, "COURSE", "co_st_cnt").unwrap();
        let text = print_program(&out);
        assert!(
            text.contains("insert into COURSE_CO_ST_CNT_LOG"),
            "{text}"
        );
        assert!(text.contains("log_id = uuid()"), "{text}");
        assert!(text.contains("co_st_cnt_log = 1"), "{text}");
        // The RMW select was redirected to the log (it will be dead-code
        // eliminated later since x is now unused).
        assert!(text.contains("select co_st_cnt_log from COURSE_CO_ST_CNT_LOG"), "{text}");
        assert_eq!(vcs[0].alpha, Aggregator::Sum);
    }

    #[test]
    fn logging_keeps_reader_as_sum() {
        let p = parse(
            "schema C { id: int key, cnt: int }
             txn bump(k: int) {
                 x := select cnt from C where id = k;
                 update C set cnt = x.cnt + 1 where id = k;
                 return 0;
             }
             txn get(k: int) {
                 y := select cnt from C where id = k;
                 return y.cnt;
             }",
        )
        .unwrap();
        let (out, _) = apply_logging(&p, "C", "cnt").unwrap();
        let text = print_program(&out);
        assert!(text.contains("return sum(y.cnt_log)"), "{text}");
    }

    #[test]
    fn logging_rejects_blind_writes() {
        let p = parse(
            "schema C { id: int key, cnt: int }
             txn setit(k: int, n: int) {
                 update C set cnt = n where id = k;
                 return 0;
             }",
        )
        .unwrap();
        assert!(apply_logging(&p, "C", "cnt").is_none());
    }

    #[test]
    fn logging_rejects_non_integer_fields() {
        let p = parse(
            "schema C { id: int key, name: string }
             txn t(k: int, n: string) {
                 update C set name = n where id = k;
                 return 0;
             }",
        )
        .unwrap();
        assert!(apply_logging(&p, "C", "name").is_none());
    }

    #[test]
    fn increment_delta_shapes() {
        let x_f = Expr::field("x", "f");
        let (v, d) = increment_delta(&x_f.clone().add(Expr::int(3)), "f").unwrap();
        assert_eq!(v, "x");
        assert_eq!(d, Expr::int(3));
        let (_, d) = increment_delta(&Expr::int(2).add(x_f.clone()), "f").unwrap();
        assert_eq!(d, Expr::int(2));
        let (_, d) = increment_delta(&x_f.clone().sub(Expr::int(1)), "f").unwrap();
        assert_eq!(d, Expr::int(0).sub(Expr::int(1)));
        assert!(increment_delta(&Expr::int(5), "f").is_none());
        assert!(increment_delta(&x_f.clone(), "f").is_none());
    }

    #[test]
    fn fresh_field_names_avoid_collisions() {
        let s = Schema::new(
            "STUDENT",
            vec![
                FieldDecl::key("st_id", Ty::Int),
                FieldDecl::new("st_addr", Ty::Str),
            ],
        );
        assert_eq!(fresh_field_name(&s, "email"), "st_email");
        assert_eq!(fresh_field_name(&s, "addr"), "st_addr_2");
    }
}
