//! Name resolution and type checking for database programs.
//!
//! [`check_program`] validates every well-formedness rule the rest of the
//! pipeline relies on: unique schema/field/transaction/label names, declared
//! primary keys, schema-correct commands, and type-correct expressions. Its
//! scopes are keyed by names borrowed from the program, and it formats a
//! description only for the error it reports.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ast::*;
use crate::error::DslError;

/// Checks a program.
///
/// # Errors
///
/// Returns [`DslError::Semantic`] describing the first violation found.
///
/// # Examples
///
/// ```
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn get(k: int) { x := select v from T where id = k; return x.v; }",
/// )?;
/// atropos_dsl::check_program(&p)?;
/// let bad = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn get(k: int) { x := select v from T where id = k; return x.w; }",
/// )?;
/// assert!(atropos_dsl::check_program(&bad).is_err());
/// # Ok::<(), atropos_dsl::DslError>(())
/// ```
pub fn check_program(p: &Program) -> Result<(), DslError> {
    // Schemas: unique names, unique fields, >=1 key field, no reserved names.
    let mut schema_names = HashSet::new();
    for s in &p.schemas {
        if !schema_names.insert(s.name.as_str()) {
            return Err(DslError::semantic(format!("duplicate schema `{}`", s.name)));
        }
        let mut fields = HashSet::new();
        for f in &s.fields {
            if f.name == ALIVE_FIELD {
                return Err(DslError::semantic(format!(
                    "field name `{ALIVE_FIELD}` is reserved (schema `{}`)",
                    s.name
                )));
            }
            if !fields.insert(f.name.as_str()) {
                return Err(DslError::semantic(format!(
                    "duplicate field `{}` in schema `{}`",
                    f.name, s.name
                )));
            }
        }
        if !s.fields.iter().any(|f| f.primary_key) {
            return Err(DslError::semantic(format!(
                "schema `{}` has no primary-key field",
                s.name
            )));
        }
    }

    // Transactions: unique names; labels unique program-wide.
    let mut txn_names = HashSet::new();
    let mut labels = HashSet::new();
    for t in &p.transactions {
        if !txn_names.insert(t.name.as_str()) {
            return Err(DslError::semantic(format!(
                "duplicate transaction `{}`",
                t.name
            )));
        }
        let mut params = HashMap::new();
        for prm in &t.params {
            if params.insert(prm.name.as_str(), prm.ty).is_some() {
                return Err(DslError::semantic(format!(
                    "duplicate parameter `{}` in transaction `{}`",
                    prm.name, t.name
                )));
            }
        }
        let mut cx = Checker {
            program: p,
            txn: t,
            params,
            vars: HashMap::new(),
            iter_depth: 0,
        };
        cx.check_body(&t.body, &mut labels)?;
        cx.type_of(&t.ret)?; // any scalar type may be returned
    }
    Ok(())
}

/// The schema a variable's `SELECT` binds, and the fields it projects.
struct VarBinding<'a> {
    schema: &'a str,
    /// `None` = `*` (every declared field readable).
    fields: Option<&'a [String]>,
}

struct Checker<'a> {
    program: &'a Program,
    txn: &'a Transaction,
    params: HashMap<&'a str, Ty>,
    vars: HashMap<&'a str, VarBinding<'a>>,
    iter_depth: usize,
}

impl<'a> Checker<'a> {
    fn schema(&self, name: &str) -> Result<&'a Schema, DslError> {
        self.program.schema(name).ok_or_else(|| {
            DslError::semantic(format!(
                "unknown schema `{name}` in transaction `{}`",
                self.txn.name
            ))
        })
    }

    fn check_body(
        &mut self,
        body: &'a [Stmt],
        labels: &mut HashSet<&'a str>,
    ) -> Result<(), DslError> {
        for s in body {
            if let Some(l) = s.label() {
                if !labels.insert(l.0.as_str()) {
                    return Err(DslError::semantic(format!("duplicate command label `{l}`")));
                }
            }
            match s {
                Stmt::Select(c) => self.check_select(c)?,
                Stmt::Update(c) => self.check_update(c)?,
                Stmt::Insert(c) => self.check_insert(c)?,
                Stmt::Delete(c) => self.check_delete(c)?,
                Stmt::If { cond, body } => {
                    self.expect_ty(cond, Ty::Bool, format_args!("if guard"))?;
                    self.check_body(body, labels)?;
                }
                Stmt::Iterate { count, body } => {
                    self.expect_ty(count, Ty::Int, format_args!("iterate count"))?;
                    self.iter_depth += 1;
                    self.check_body(body, labels)?;
                    self.iter_depth -= 1;
                }
            }
        }
        Ok(())
    }

    fn check_where(&mut self, schema: &Schema, w: &Where) -> Result<(), DslError> {
        match w {
            Where::True => Ok(()),
            Where::Cmp { field, op, expr } => {
                let decl = schema.field(field).ok_or_else(|| {
                    DslError::semantic(format!(
                        "where clause references unknown field `{field}` of schema `{}`",
                        schema.name
                    ))
                })?;
                let ety = self.type_of(expr)?;
                if ety != decl.ty {
                    return Err(DslError::semantic(format!(
                        "where clause compares `{field}` ({}) with expression of type {ety}",
                        decl.ty
                    )));
                }
                if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
                    && decl.ty != Ty::Int
                {
                    return Err(DslError::semantic(format!(
                        "ordering comparison on non-integer field `{field}`"
                    )));
                }
                Ok(())
            }
            Where::And(l, r) | Where::Or(l, r) => {
                self.check_where(schema, l)?;
                self.check_where(schema, r)
            }
        }
    }

    fn check_select(&mut self, c: &'a SelectCmd) -> Result<(), DslError> {
        let schema = self.schema(&c.schema)?;
        if let Some(fs) = &c.fields {
            for f in fs {
                if !schema.has_field(f) {
                    return Err(DslError::semantic(format!(
                        "select `{}` projects unknown field `{f}` of schema `{}`",
                        c.label, schema.name
                    )));
                }
            }
        }
        self.check_where(schema, &c.where_)?;
        if let Some(prev) = self.vars.get(c.var.as_str()) {
            if prev.schema != c.schema {
                return Err(DslError::semantic(format!(
                    "variable `{}` rebound to a different schema (`{}` then `{}`)",
                    c.var, prev.schema, c.schema
                )));
            }
        }
        self.vars.insert(
            &c.var,
            VarBinding {
                schema: &c.schema,
                fields: c.fields.as_deref(),
            },
        );
        Ok(())
    }

    fn check_update(&mut self, c: &UpdateCmd) -> Result<(), DslError> {
        let schema = self.schema(&c.schema)?;
        if c.assigns.is_empty() {
            return Err(DslError::semantic(format!(
                "update `{}` assigns no fields",
                c.label
            )));
        }
        let mut seen = HashSet::new();
        for (f, e) in &c.assigns {
            let decl = schema.field(f).ok_or_else(|| {
                DslError::semantic(format!(
                    "update `{}` assigns unknown field `{f}` of schema `{}`",
                    c.label, schema.name
                ))
            })?;
            if decl.primary_key {
                return Err(DslError::semantic(format!(
                    "update `{}` assigns primary-key field `{f}`",
                    c.label
                )));
            }
            if !seen.insert(f.as_str()) {
                return Err(DslError::semantic(format!(
                    "update `{}` assigns field `{f}` twice",
                    c.label
                )));
            }
            self.expect_ty(e, decl.ty, format_args!("assignment to `{f}`"))?;
        }
        self.check_where(schema, &c.where_)
    }

    fn check_insert(&mut self, c: &InsertCmd) -> Result<(), DslError> {
        let schema = self.schema(&c.schema)?;
        let mut seen = HashSet::new();
        for (f, e) in &c.values {
            let decl = schema.field(f).ok_or_else(|| {
                DslError::semantic(format!(
                    "insert `{}` sets unknown field `{f}` of schema `{}`",
                    c.label, schema.name
                ))
            })?;
            if !seen.insert(f.as_str()) {
                return Err(DslError::semantic(format!(
                    "insert `{}` sets field `{f}` twice",
                    c.label
                )));
            }
            self.expect_ty(e, decl.ty, format_args!("insert value for `{f}`"))?;
        }
        for k in schema.fields.iter().filter(|f| f.primary_key) {
            if !seen.contains(k.name.as_str()) {
                return Err(DslError::semantic(format!(
                    "insert `{}` misses primary-key field `{}` of schema `{}`",
                    c.label, k.name, schema.name
                )));
            }
        }
        Ok(())
    }

    fn check_delete(&mut self, c: &DeleteCmd) -> Result<(), DslError> {
        let schema = self.schema(&c.schema)?;
        self.check_where(schema, &c.where_)
    }

    /// Checks that `e` has type `want`; `what` names `e` in the error,
    /// and is formatted only then.
    fn expect_ty(&mut self, e: &Expr, want: Ty, what: fmt::Arguments<'_>) -> Result<(), DslError> {
        let got = self.type_of(e)?;
        if got != want {
            return Err(DslError::semantic(format!(
                "{what} has type {got}, expected {want} (in transaction `{}`)",
                self.txn.name
            )));
        }
        Ok(())
    }

    fn type_of(&mut self, e: &Expr) -> Result<Ty, DslError> {
        match e {
            Expr::Const(v) => Ok(v.ty()),
            Expr::Arg(a) => self.params.get(a.as_str()).copied().ok_or_else(|| {
                DslError::semantic(format!(
                    "unknown argument `{a}` in transaction `{}`",
                    self.txn.name
                ))
            }),
            Expr::Bin(_, l, r) => {
                self.expect_ty(l, Ty::Int, format_args!("arithmetic operand"))?;
                self.expect_ty(r, Ty::Int, format_args!("arithmetic operand"))?;
                Ok(Ty::Int)
            }
            Expr::Cmp(op, l, r) => {
                let lt = self.type_of(l)?;
                let rt = self.type_of(r)?;
                if lt != rt {
                    return Err(DslError::semantic(format!(
                        "comparison between {lt} and {rt}"
                    )));
                }
                if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) && lt != Ty::Int {
                    return Err(DslError::semantic("ordering comparison on non-integers"));
                }
                Ok(Ty::Bool)
            }
            Expr::Bool(_, l, r) => {
                self.expect_ty(l, Ty::Bool, format_args!("boolean operand"))?;
                self.expect_ty(r, Ty::Bool, format_args!("boolean operand"))?;
                Ok(Ty::Bool)
            }
            Expr::Not(x) => {
                self.expect_ty(x, Ty::Bool, format_args!("negated expression"))?;
                Ok(Ty::Bool)
            }
            Expr::Iter => {
                if self.iter_depth == 0 {
                    return Err(DslError::semantic(format!(
                        "`iter` used outside an iterate body in transaction `{}`",
                        self.txn.name
                    )));
                }
                Ok(Ty::Int)
            }
            Expr::Agg(op, var, field) => {
                let ty = self.field_access_ty(var, field)?;
                match op {
                    AggOp::Count => Ok(Ty::Int),
                    AggOp::Sum | AggOp::Min | AggOp::Max => {
                        if ty != Ty::Int {
                            return Err(DslError::semantic(format!(
                                "{}({var}.{field}) aggregates non-integer field",
                                op.name()
                            )));
                        }
                        Ok(Ty::Int)
                    }
                }
            }
            Expr::At(idx, var, field) => {
                self.expect_ty(idx, Ty::Int, format_args!("record index"))?;
                self.field_access_ty(var, field)
            }
            Expr::Uuid => Ok(Ty::Uuid),
        }
    }

    fn field_access_ty(&self, var: &str, field: &str) -> Result<Ty, DslError> {
        let binding = self.vars.get(var).ok_or_else(|| {
            DslError::semantic(format!(
                "unknown variable `{var}` in transaction `{}`",
                self.txn.name
            ))
        })?;
        if let Some(fs) = &binding.fields {
            if !fs.iter().any(|f| f == field) {
                return Err(DslError::semantic(format!(
                    "variable `{var}` does not carry field `{field}` (selected: {fs:?})"
                )));
            }
        }
        let schema = self
            .program
            .schema(binding.schema)
            .expect("binding schema checked at select");
        schema.field(field).map(|f| f.ty).ok_or_else(|| {
            DslError::semantic(format!(
                "schema `{}` has no field `{field}` (accessed via `{var}`)",
                binding.schema
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> Result<(), DslError> {
        check_program(&parse(src).unwrap())
    }

    #[test]
    fn accepts_valid_program() {
        check(
            "schema T { id: int key, v: int }
             txn get(k: int) { x := select v from T where id = k; return x.v; }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_duplicate_schema() {
        assert!(check("schema T { id: int key } schema T { id: int key } ").is_err());
    }

    #[test]
    fn rejects_schema_without_key() {
        assert!(check("schema T { v: int }").is_err());
    }

    #[test]
    fn rejects_reserved_alive_field() {
        assert!(check("schema T { alive: bool key }").is_err());
    }

    #[test]
    fn rejects_unknown_schema_in_command() {
        assert!(check(
            "schema T { id: int key }
             txn t() { x := select * from U; return 0; }"
        )
        .is_err());
    }

    #[test]
    fn rejects_update_of_primary_key() {
        assert!(check(
            "schema T { id: int key, v: int }
             txn t(k: int) { update T set id = k where id = k; return 0; }"
        )
        .is_err());
    }

    #[test]
    fn rejects_insert_missing_key() {
        assert!(check(
            "schema T { id: int key, v: int }
             txn t(k: int) { insert into T values (v = k); return 0; }"
        )
        .is_err());
    }

    #[test]
    fn rejects_type_mismatch_in_where() {
        assert!(check(
            "schema T { id: int key, v: bool }
             txn t(k: int) { x := select v from T where v = k; return 0; }"
        )
        .is_err());
    }

    #[test]
    fn rejects_ordering_on_strings() {
        assert!(check(
            "schema T { id: int key, s: string }
             txn t(n: string) { x := select s from T where s > n; return 0; }"
        )
        .is_err());
    }

    #[test]
    fn rejects_access_to_unselected_field() {
        assert!(check(
            "schema T { id: int key, v: int, w: int }
             txn t(k: int) { x := select v from T where id = k; return x.w; }"
        )
        .is_err());
    }

    #[test]
    fn star_select_allows_all_fields() {
        assert!(check(
            "schema T { id: int key, v: int, w: int }
             txn t(k: int) { x := select * from T where id = k; return x.w; }"
        )
        .is_ok());
    }

    #[test]
    fn rejects_iter_outside_loop() {
        assert!(check(
            "schema T { id: int key }
             txn t() { return iter; }"
        )
        .is_err());
    }

    #[test]
    fn iter_allowed_inside_loop() {
        assert!(check(
            "schema T { id: int key, v: int }
             txn t(n: int) {
                iterate (n) { update T set v = iter where id = iter; }
                return 0;
             }"
        )
        .is_ok());
    }

    #[test]
    fn rejects_duplicate_labels() {
        assert!(check(
            "schema T { id: int key, v: int }
             txn t(k: int) {
                @A update T set v = k where id = k;
                @A update T set v = k where id = k;
                return 0;
             }"
        )
        .is_err());
    }

    #[test]
    fn rejects_var_rebinding_to_other_schema() {
        assert!(check(
            "schema T { id: int key, v: int }
             schema U { id: int key, v: int }
             txn t(k: int) {
                x := select v from T where id = k;
                x := select v from U where id = k;
                return 0;
             }"
        )
        .is_err());
    }

    #[test]
    fn rejects_sum_of_bool_field() {
        assert!(check(
            "schema T { id: int key, b: bool }
             txn t() { x := select b from T; return sum(x.b); }"
        )
        .is_err());
    }

    #[test]
    fn count_of_any_field_is_int() {
        assert!(check(
            "schema T { id: int key, b: bool }
             txn t() { x := select b from T; return count(x.b); }"
        )
        .is_ok());
    }

    #[test]
    fn rejects_agg_in_if_guard_type_mismatch() {
        assert!(check(
            "schema T { id: int key, v: int }
             txn t(k: int) {
                x := select v from T where id = k;
                if (sum(x.v)) { update T set v = 0 where id = k; }
                return 0;
             }"
        )
        .is_err());
    }
}
