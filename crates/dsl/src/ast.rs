//! Abstract syntax for database programs (Fig. 5 of the paper).
//!
//! A [`Program`] is a set of [`Schema`] declarations plus a set of
//! [`Transaction`]s. Transaction bodies are sequences of database commands
//! (`SELECT`, `UPDATE`, `INSERT`, `DELETE`) and control commands
//! (`if`, `iterate`). `INSERT`/`DELETE` are first-class here but are modelled
//! semantically as writes to the implicit `alive` field, exactly as in §3 of
//! the paper.

use std::collections::BTreeSet;
use std::fmt;

/// A scalar value stored in a record field or produced by an expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An immutable string.
    Str(String),
    /// A unique identifier produced by `uuid()`.
    Uuid(u128),
}

impl Value {
    /// The [`Ty`] this value inhabits.
    pub fn ty(&self) -> Ty {
        match self {
            Value::Int(_) => Ty::Int,
            Value::Bool(_) => Ty::Bool,
            Value::Str(_) => Ty::Str,
            Value::Uuid(_) => Ty::Uuid,
        }
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Uuid(u) => write!(f, "uuid:{u:x}"),
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

/// The scalar types of the DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// 64-bit signed integers.
    Int,
    /// Booleans.
    Bool,
    /// Strings.
    Str,
    /// Opaque unique identifiers.
    Uuid,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::Int => "int",
            Ty::Bool => "bool",
            Ty::Str => "string",
            Ty::Uuid => "uuid",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators `⊕`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division.
    Div,
}

impl BinOp {
    /// Concrete syntax for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Comparison operators `⊙`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Concrete syntax for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Evaluates the comparison on two values (ordering comparisons are only
    /// meaningful on integers; other types support equality).
    pub fn eval(self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

/// Boolean connectives `◦`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoolOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
}

impl BoolOp {
    /// Concrete syntax for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BoolOp::And => "&&",
            BoolOp::Or => "||",
        }
    }
}

/// Program-level aggregation functions `agg ∈ {sum, min, max}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of all values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Number of records (an extension used by some benchmarks).
    Count,
}

impl AggOp {
    /// Concrete syntax for this aggregator.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Count => "count",
        }
    }
}

/// Expressions `e` (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant `n`.
    Const(Value),
    /// A transaction argument `a`.
    Arg(String),
    /// Arithmetic `e ⊕ e`.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison `e ⊙ e`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Boolean connective `e ◦ e`.
    Bool(BoolOp, Box<Expr>, Box<Expr>),
    /// Boolean negation (a convenience extension).
    Not(Box<Expr>),
    /// The current iteration counter `iter`.
    Iter,
    /// `agg(x.f)` — aggregate field `f` over all records bound to `x`.
    Agg(AggOp, String, String),
    /// `at_e(x.f)` — field `f` of the `e`-th record bound to `x`
    /// (written `x.f` for index 0, `x.f[e]` otherwise).
    At(Box<Expr>, String, String),
    /// `uuid()` — a fresh unique identifier on every evaluation.
    Uuid,
}

impl Expr {
    /// Builds an integer literal.
    pub fn int(n: i64) -> Expr {
        Expr::Const(Value::Int(n))
    }

    /// Builds a boolean literal.
    pub fn boolean(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }

    /// Builds a reference to transaction argument `name`.
    pub fn arg(name: impl Into<String>) -> Expr {
        Expr::Arg(name.into())
    }

    /// Builds `x.f` (the field of the first record bound to `x`).
    pub fn field(var: impl Into<String>, field: impl Into<String>) -> Expr {
        Expr::At(Box::new(Expr::int(0)), var.into(), field.into())
    }

    /// Builds `sum(x.f)`.
    pub fn sum(var: impl Into<String>, field: impl Into<String>) -> Expr {
        Expr::Agg(AggOp::Sum, var.into(), field.into())
    }

    /// Builds `self + other`.
    pub fn add(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(other))
    }

    /// Builds `self - other`.
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(other))
    }

    /// Builds `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// Builds `self && other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Bool(BoolOp::And, Box::new(self), Box::new(other))
    }

    /// Builds `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// Iterates over all sub-expressions (including `self`), pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Bin(_, l, r) | Expr::Cmp(_, l, r) | Expr::Bool(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Expr::Not(e) | Expr::At(e, _, _) => e.walk(f),
            Expr::Const(_) | Expr::Arg(_) | Expr::Iter | Expr::Agg(..) | Expr::Uuid => {}
        }
    }

    /// [`Expr::walk`] mutably: each node before its children, and the
    /// children visited are the ones `f` left in place.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        self.children_mut(&mut |c| c.walk_mut(f));
    }

    /// Rewrites sub-expressions pre-order: a node for which `f` returns a
    /// replacement is swapped for it, and the replacement's children are
    /// not visited.
    pub fn rewrite(&mut self, f: &mut impl FnMut(&Expr) -> Option<Expr>) {
        match f(self) {
            Some(new) => *self = new,
            None => self.children_mut(&mut |c| c.rewrite(f)),
        }
    }

    fn children_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Bin(_, l, r) | Expr::Cmp(_, l, r) | Expr::Bool(_, l, r) => {
                f(l);
                f(r);
            }
            Expr::Not(e) | Expr::At(e, _, _) => f(e),
            Expr::Const(_) | Expr::Arg(_) | Expr::Iter | Expr::Agg(..) | Expr::Uuid => {}
        }
    }

    /// True if the expression mentions variable `var`.
    pub fn uses_var(&self, var: &str) -> bool {
        let mut found = false;
        self.walk(&mut |e| match e {
            Expr::Agg(_, v, _) | Expr::At(_, v, _) if v == var => found = true,
            _ => {}
        });
        found
    }

    /// Renames variable `from` to `to` in every field access, including
    /// those inside an `at` index.
    pub fn rename_var(&mut self, from: &str, to: &str) {
        self.walk_mut(&mut |e| {
            if let Expr::Agg(_, v, _) | Expr::At(_, v, _) = e {
                if v == from {
                    *v = to.to_owned();
                }
            }
        });
    }
}

/// An atomic `WHERE`-clause constraint `this.f ⊙ e` or a connective.
#[derive(Debug, Clone, PartialEq)]
pub enum Where {
    /// The always-true filter (selects every live record).
    True,
    /// `this.field ⊙ expr`.
    Cmp {
        /// Field of the target schema being constrained.
        field: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand expression (may not mention `this`).
        expr: Expr,
    },
    /// Conjunction of two filters.
    And(Box<Where>, Box<Where>),
    /// Disjunction of two filters.
    Or(Box<Where>, Box<Where>),
}

impl Where {
    /// Builds `this.field = expr`, the most common filter.
    pub fn eq(field: impl Into<String>, expr: Expr) -> Where {
        Where::Cmp {
            field: field.into(),
            op: CmpOp::Eq,
            expr,
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Where) -> Where {
        Where::And(Box::new(self), Box::new(other))
    }

    /// All fields of the target schema mentioned by the filter (`φ_fld`).
    pub fn fields(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_fields(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_fields(&self, out: &mut Vec<String>) {
        match self {
            Where::True => {}
            Where::Cmp { field, .. } => out.push(field.clone()),
            Where::And(l, r) | Where::Or(l, r) => {
                l.collect_fields(out);
                r.collect_fields(out);
            }
        }
    }

    /// The conjuncts of this filter if it is a pure conjunction of
    /// comparisons, or `None` if it contains `Or`.
    pub fn conjuncts(&self) -> Option<Vec<(&str, CmpOp, &Expr)>> {
        let mut out = Vec::new();
        if self.collect_conjuncts(&mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<(&'a str, CmpOp, &'a Expr)>) -> bool {
        match self {
            Where::True => true,
            Where::Cmp { field, op, expr } => {
                out.push((field.as_str(), *op, expr));
                true
            }
            Where::And(l, r) => l.collect_conjuncts(out) && r.collect_conjuncts(out),
            Where::Or(..) => false,
        }
    }

    /// Returns the expression equated with `field`, when this filter is
    /// *well-formed* in the sense of §4.2.1: a conjunction that contains an
    /// equality constraint on `field` (`φ[f]_exp`).
    pub fn eq_expr_for(&self, field: &str) -> Option<&Expr> {
        let conj = self.conjuncts()?;
        conj.iter()
            .find(|(f, op, _)| *f == field && *op == CmpOp::Eq)
            .map(|(_, _, e)| *e)
    }

    /// Applies `f` to each right-hand expression of the filter, left to
    /// right.
    pub fn exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Where::True => {}
            Where::Cmp { expr, .. } => f(expr),
            Where::And(l, r) | Where::Or(l, r) => {
                l.exprs(f);
                r.exprs(f);
            }
        }
    }

    /// [`Where::exprs`] mutably.
    pub fn exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Where::True => {}
            Where::Cmp { expr, .. } => f(expr),
            Where::And(l, r) | Where::Or(l, r) => {
                l.exprs_mut(f);
                r.exprs_mut(f);
            }
        }
    }
}

/// Stable label of a database command (e.g. `S1`, `U4.2`). Labels are unique
/// within a [`Program`] and survive refactoring so anomalies can be tracked
/// across rewrites.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmdLabel(pub String);

impl fmt::Display for CmdLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for CmdLabel {
    fn from(s: &str) -> Self {
        CmdLabel(s.to_owned())
    }
}

/// `x := SELECT f̄ FROM R WHERE φ`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCmd {
    /// Unique label.
    pub label: CmdLabel,
    /// Variable the result set is bound to.
    pub var: String,
    /// Selected fields; `None` means `*` (all fields).
    pub fields: Option<Vec<String>>,
    /// Target schema name.
    pub schema: String,
    /// Row filter.
    pub where_: Where,
}

/// `UPDATE R SET f̄ = ē WHERE φ`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateCmd {
    /// Unique label.
    pub label: CmdLabel,
    /// Target schema name.
    pub schema: String,
    /// Parallel assignments to fields.
    pub assigns: Vec<(String, Expr)>,
    /// Row filter.
    pub where_: Where,
}

/// `INSERT INTO R VALUES (f̄ = ē)` — modelled as an atomic write that also
/// sets the implicit `alive` field to `true`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertCmd {
    /// Unique label.
    pub label: CmdLabel,
    /// Target schema name.
    pub schema: String,
    /// Field values; must cover every primary-key field.
    pub values: Vec<(String, Expr)>,
}

/// `DELETE FROM R WHERE φ` — modelled as a write of `alive = false`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteCmd {
    /// Unique label.
    pub label: CmdLabel,
    /// Target schema name.
    pub schema: String,
    /// Row filter.
    pub where_: Where,
}

/// A statement: database command or control command.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A `SELECT` binding.
    Select(SelectCmd),
    /// An `UPDATE`.
    Update(UpdateCmd),
    /// An `INSERT`.
    Insert(InsertCmd),
    /// A `DELETE`.
    Delete(DeleteCmd),
    /// `if (e) { c }`.
    If {
        /// Guard expression.
        cond: Expr,
        /// Guarded statements.
        body: Vec<Stmt>,
    },
    /// `iterate (e) { c }` — run the body `e` times.
    Iterate {
        /// Repetition count expression.
        count: Expr,
        /// Repeated statements.
        body: Vec<Stmt>,
    },
}

impl Stmt {
    /// The label of this statement's database command, if it is one.
    pub fn label(&self) -> Option<&CmdLabel> {
        match self {
            Stmt::Select(c) => Some(&c.label),
            Stmt::Update(c) => Some(&c.label),
            Stmt::Insert(c) => Some(&c.label),
            Stmt::Delete(c) => Some(&c.label),
            Stmt::If { .. } | Stmt::Iterate { .. } => None,
        }
    }

    /// The schema accessed by this statement's database command, if any.
    pub fn schema(&self) -> Option<&str> {
        match self {
            Stmt::Select(c) => Some(&c.schema),
            Stmt::Update(c) => Some(&c.schema),
            Stmt::Insert(c) => Some(&c.schema),
            Stmt::Delete(c) => Some(&c.schema),
            Stmt::If { .. } | Stmt::Iterate { .. } => None,
        }
    }

    /// Applies `f` to this statement's own expressions, in order: a
    /// select's or delete's filter; an update's filter, then its assigned
    /// values; an insert's values; an `if` guard; an `iterate` count. The
    /// statements nested in a block are not visited (see [`visit_stmts`]).
    pub fn exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Select(c) => c.where_.exprs(f),
            Stmt::Update(c) => {
                c.where_.exprs(f);
                c.assigns.iter().for_each(|(_, e)| f(e));
            }
            Stmt::Insert(c) => c.values.iter().for_each(|(_, e)| f(e)),
            Stmt::Delete(c) => c.where_.exprs(f),
            Stmt::If { cond: e, .. } | Stmt::Iterate { count: e, .. } => f(e),
        }
    }

    /// [`Stmt::exprs`] mutably.
    pub fn exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Stmt::Select(c) => c.where_.exprs_mut(f),
            Stmt::Update(c) => {
                c.where_.exprs_mut(f);
                c.assigns.iter_mut().for_each(|(_, e)| f(e));
            }
            Stmt::Insert(c) => c.values.iter_mut().for_each(|(_, e)| f(e)),
            Stmt::Delete(c) => c.where_.exprs_mut(f),
            Stmt::If { cond: e, .. } | Stmt::Iterate { count: e, .. } => f(e),
        }
    }

    /// True if one of this statement's own expressions ([`Stmt::exprs`])
    /// mentions variable `var`.
    pub fn uses_var(&self, var: &str) -> bool {
        let mut found = false;
        self.exprs(&mut |e| found = found || e.uses_var(var));
        found
    }

    /// The fields of `schema` this command touches: a select's filter
    /// fields and projection (every field for `*`), an update's filter and
    /// assigned fields, an insert's fields, a delete's filter fields. Empty
    /// for a command on another schema and for a control statement.
    pub fn fields_touched(&self, schema: &Schema) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        match self {
            Stmt::Select(c) if c.schema == schema.name => {
                out.extend(c.where_.fields());
                match &c.fields {
                    Some(fs) => out.extend(fs.iter().cloned()),
                    None => out.extend(schema.fields.iter().map(|f| f.name.clone())),
                }
            }
            Stmt::Update(c) if c.schema == schema.name => {
                out.extend(c.where_.fields());
                out.extend(c.assigns.iter().map(|(f, _)| f.clone()));
            }
            Stmt::Insert(c) if c.schema == schema.name => {
                out.extend(c.values.iter().map(|(f, _)| f.clone()));
            }
            Stmt::Delete(c) if c.schema == schema.name => out.extend(c.where_.fields()),
            _ => {}
        }
        out
    }
}

/// Applies `f` to every statement of `body` in pre-order: each statement
/// before the statements nested in it.
pub fn visit_stmts<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        f(s);
        if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
            visit_stmts(body, f);
        }
    }
}

/// [`visit_stmts`] mutably: the walk enters a statement's block as `f`
/// left it.
pub fn visit_stmts_mut(body: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for s in body {
        f(s);
        if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
            visit_stmts_mut(body, f);
        }
    }
}

/// A named transaction `t(ā) { c; return e }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Transaction name (unique within a program).
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Return expression.
    pub ret: Expr,
}

impl Transaction {
    /// The database commands of the body at any depth, in program order.
    pub fn commands(&self) -> Vec<&Stmt> {
        let mut out = Vec::new();
        visit_stmts(&self.body, &mut |s| {
            if s.label().is_some() {
                out.push(s);
            }
        });
        out
    }

    /// True if any statement's own expressions or the return expression
    /// mention variable `var`.
    pub fn uses_var(&self, var: &str) -> bool {
        let mut found = self.ret.uses_var(var);
        visit_stmts(&self.body, &mut |s| found = found || s.uses_var(var));
        found
    }

    /// Applies `f` to every expression of the transaction: each
    /// statement's own ([`Stmt::exprs`]) in pre-order, then the return
    /// expression.
    fn exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        visit_stmts_mut(&mut self.body, &mut |s| s.exprs_mut(f));
        f(&mut self.ret);
    }

    /// Renames variable `from` to `to` in every expression
    /// ([`Expr::rename_var`]). Binding sites are left alone.
    pub fn rename_var(&mut self, from: &str, to: &str) {
        self.exprs_mut(&mut |e| e.rename_var(from, to));
    }

    /// Rewrites every expression of the transaction ([`Expr::rewrite`]),
    /// statement by statement in pre-order, then the return expression.
    pub fn rewrite_exprs(&mut self, f: &mut impl FnMut(&Expr) -> Option<Expr>) {
        self.exprs_mut(&mut |e| e.rewrite(f));
    }

    /// Removes every database command `keep` rejects, at any depth.
    /// `if` and `iterate` blocks stay, even when emptied.
    pub fn retain_commands(&mut self, keep: impl Fn(&Stmt) -> bool) {
        let keep = |s: &Stmt| s.label().is_none() || keep(s);
        self.body.retain(keep);
        visit_stmts_mut(&mut self.body, &mut |s| {
            if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
                body.retain(keep);
            }
        });
    }

    /// Inserts `stmts` right after the command labelled `after`, at
    /// whatever depth it sits.
    pub fn splice_after(&mut self, after: &CmdLabel, stmts: &[Stmt]) {
        let mut done = false;
        let mut splice = |body: &mut Vec<Stmt>| {
            if done {
                return;
            }
            if let Some(pos) = body.iter().position(|s| s.label() == Some(after)) {
                body.splice(pos + 1..pos + 1, stmts.iter().cloned());
                done = true;
            }
        };
        splice(&mut self.body);
        visit_stmts_mut(&mut self.body, &mut |s| {
            if let Stmt::If { body, .. } | Stmt::Iterate { body, .. } = s {
                splice(body);
            }
        });
    }
}

/// A formal transaction parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
}

/// A field declaration inside a schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name (unique within the schema).
    pub name: String,
    /// Field type.
    pub ty: Ty,
    /// True if this field is part of the primary key.
    pub primary_key: bool,
}

impl FieldDecl {
    /// Builds a non-key field.
    pub fn new(name: impl Into<String>, ty: Ty) -> FieldDecl {
        FieldDecl {
            name: name.into(),
            ty,
            primary_key: false,
        }
    }

    /// Builds a primary-key field.
    pub fn key(name: impl Into<String>, ty: Ty) -> FieldDecl {
        FieldDecl {
            name: name.into(),
            ty,
            primary_key: true,
        }
    }
}

/// A database schema `ρ : f̄` with a designated primary key.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Schema (table) name.
    pub name: String,
    /// Declared fields. The implicit `alive` field is *not* listed.
    pub fields: Vec<FieldDecl>,
}

impl Schema {
    /// Builds a schema from field declarations.
    pub fn new(name: impl Into<String>, fields: Vec<FieldDecl>) -> Schema {
        Schema {
            name: name.into(),
            fields,
        }
    }

    /// Names of the primary-key fields, in declaration order.
    pub fn primary_key(&self) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|f| f.primary_key)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Names of the non-key fields, in declaration order.
    pub fn value_fields(&self) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|f| !f.primary_key)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Looks up a field declaration by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// True if `name` is a declared field of this schema.
    pub fn has_field(&self, name: &str) -> bool {
        self.field(name).is_some()
    }
}

/// A database program `P = (R̄, T̄)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Schema declarations.
    pub schemas: Vec<Schema>,
    /// Transaction declarations.
    pub transactions: Vec<Transaction>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Looks up a schema by name.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.schemas.iter().find(|s| s.name == name)
    }

    /// Looks up a transaction by name.
    pub fn transaction(&self, name: &str) -> Option<&Transaction> {
        self.transactions.iter().find(|t| t.name == name)
    }

    /// Finds the database command with the given label, returning the
    /// containing transaction and the statement.
    pub fn command(&self, label: &CmdLabel) -> Option<(&Transaction, &Stmt)> {
        self.transactions.iter().find_map(|t| {
            let mut found = None;
            visit_stmts(&t.body, &mut |s| {
                if found.is_none() && s.label() == Some(label) {
                    found = Some(s);
                }
            });
            found.map(|s| (t, s))
        })
    }

    /// Total number of database commands (not control statements).
    pub fn command_count(&self) -> usize {
        self.transactions.iter().map(|t| t.commands().len()).sum()
    }
}

/// Name of the implicit liveness field carried by every schema (§3).
pub const ALIVE_FIELD: &str = "alive";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_ordering_and_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(4).ty(), Ty::Int);
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_int(), None);
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Eq.eval(&Value::Str("a".into()), &Value::Str("a".into())));
        assert!(CmpOp::Ne.eval(&Value::Bool(true), &Value::Bool(false)));
        assert!(!CmpOp::Ge.eval(&Value::Int(1), &Value::Int(2)));
    }

    #[test]
    fn expr_uses_var_sees_field_reads() {
        let e = Expr::field("x", "a").add(Expr::sum("y", "b"));
        assert!(e.uses_var("x"));
        assert!(e.uses_var("y"));
        assert!(!e.uses_var("z"));
    }

    #[test]
    fn where_fields_and_conjuncts() {
        let w = Where::eq("a", Expr::int(1)).and(Where::Cmp {
            field: "b".into(),
            op: CmpOp::Gt,
            expr: Expr::int(0),
        });
        assert_eq!(w.fields(), vec!["a".to_owned(), "b".to_owned()]);
        let conj = w.conjuncts().unwrap();
        assert_eq!(conj.len(), 2);
        assert!(w.eq_expr_for("a").is_some());
        assert!(w.eq_expr_for("b").is_none()); // Gt, not Eq
    }

    #[test]
    fn where_or_is_not_conjunctive() {
        let w = Where::Or(
            Box::new(Where::eq("a", Expr::int(1))),
            Box::new(Where::eq("a", Expr::int(2))),
        );
        assert!(w.conjuncts().is_none());
        assert!(w.eq_expr_for("a").is_none());
    }

    #[test]
    fn schema_key_partition() {
        let s = Schema::new(
            "T",
            vec![
                FieldDecl::key("id", Ty::Int),
                FieldDecl::new("v", Ty::Str),
            ],
        );
        assert_eq!(s.primary_key(), vec!["id"]);
        assert_eq!(s.value_fields(), vec!["v"]);
        assert!(s.has_field("v"));
        assert!(!s.has_field("w"));
    }

    #[test]
    fn program_command_lookup() {
        let p = Program {
            schemas: vec![Schema::new("T", vec![FieldDecl::key("id", Ty::Int)])],
            transactions: vec![Transaction {
                name: "t".into(),
                params: vec![],
                body: vec![Stmt::If {
                    cond: Expr::boolean(true),
                    body: vec![Stmt::Select(SelectCmd {
                        label: "S1".into(),
                        var: "x".into(),
                        fields: None,
                        schema: "T".into(),
                        where_: Where::True,
                    })],
                }],
                ret: Expr::int(0),
            }],
        };
        assert_eq!(p.command_count(), 1);
        let (txn, stmt) = p.command(&"S1".into()).unwrap();
        assert_eq!(txn.name, "t");
        assert_eq!(stmt.schema(), Some("T"));
    }

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

    fn labels(t: &Transaction) -> Vec<String> {
        t.commands()
            .iter()
            .map(|s| s.label().unwrap().0.clone())
            .collect()
    }

    #[test]
    fn commands_flatten_in_program_order() {
        let p = crate::parse(SRC).unwrap();
        assert_eq!(labels(&p.transactions[0]), vec!["S1", "U1", "S2"]);
    }

    #[test]
    fn uses_var_sees_guards_and_return() {
        let p = crate::parse(SRC).unwrap();
        let t = &p.transactions[0];
        assert!(t.uses_var("x"));
        assert!(!t.uses_var("y")); // bound but never read
    }

    #[test]
    fn retain_commands_removes_nested() {
        let p = crate::parse(SRC).unwrap();
        let mut t = p.transactions[0].clone();
        t.retain_commands(|s| s.label().map(|l| l.0.as_str()) != Some("U1"));
        assert_eq!(labels(&t), vec!["S1", "S2"]);
    }

    #[test]
    fn rewrite_exprs_replaces_field_accesses() {
        let p = crate::parse(SRC).unwrap();
        let mut t = p.transactions[0].clone();
        t.rewrite_exprs(&mut |e| match e {
            Expr::At(i, v, f) if v == "x" && f == "v" => {
                Some(Expr::At(i.clone(), "x".into(), "renamed".into()))
            }
            _ => None,
        });
        let mut used = BTreeSet::new();
        t.ret.walk(&mut |e| {
            if let Expr::At(_, _, f) = e {
                used.insert(f.clone());
            }
        });
        assert!(used.contains("renamed"));
    }

    #[test]
    fn splice_after_inserts_at_any_depth() {
        let p = crate::parse(SRC).unwrap();
        let mut t = p.transactions[0].clone();
        let s2 = t.commands()[2].clone();
        t.splice_after(&CmdLabel("U1".into()), &[s2.clone(), s2]);
        assert_eq!(labels(&t), vec!["S1", "U1", "S2", "S2", "S2"]);
    }

    /// Every command kind nested in `iterate { if { … } }`: the statement
    /// walk, the expression visits, renaming and field sets all reach
    /// inside both blocks.
    #[test]
    fn walks_reach_inside_iterate_and_if() {
        let p = crate::parse(
            "schema T { id: int key, v: int, w: int, z: int }
             schema U { id: int key }
             txn t(k: int, n: int) {
                 @S0 a := select v from T where id = k;
                 iterate (a.v) {
                     if (a.w > n) {
                         @S1 x := select * from T where id = a.v && w = k;
                         @U1 update T set v = x.v[a.w] + 1, z = 2 where w = x.w;
                         @I1 insert into T values (id = a.v + 1, v = x.v);
                         @D1 delete from T where w = a.w;
                     }
                 }
                 return a.v + x.w;
             }",
        )
        .unwrap();
        let mut t = p.transactions[0].clone();

        // The walk is pre-order and flattening keeps the commands.
        let mut walked = Vec::new();
        visit_stmts(&t.body, &mut |s| {
            walked.push(match (s.label(), s) {
                (Some(l), _) => l.0.clone(),
                (None, Stmt::Iterate { .. }) => "iterate".into(),
                (None, _) => "if".into(),
            })
        });
        assert_eq!(walked, ["S0", "iterate", "if", "S1", "U1", "I1", "D1"]);
        assert_eq!(labels(&t), ["S0", "S1", "U1", "I1", "D1"]);

        // Each statement's own expressions, in order, then the return.
        let mut roots = Vec::new();
        visit_stmts(&t.body, &mut |s| s.exprs(&mut |e| roots.push(e.clone())));
        roots.push(t.ret.clone());
        let printed: Vec<String> = roots.iter().map(crate::print_expr).collect();
        assert_eq!(
            printed.join(", "),
            "k, a.v, a.w > n, a.v, k, x.w, x.v[a.w] + 1, 2, a.v + 1, x.v, a.w, a.v + x.w"
        );
        // The mutable visit reaches the same expressions, node by node.
        let mut nodes = Vec::new();
        for r in &roots {
            r.walk(&mut |e| nodes.push(e.clone()));
        }
        let mut seen = Vec::new();
        t.rewrite_exprs(&mut |e| {
            seen.push(e.clone());
            None
        });
        assert_eq!(seen, nodes);

        // Field sets on the command's schema; none on another schema.
        let (t_decl, u_decl) = (&p.schemas[0], &p.schemas[1]);
        let fields: Vec<Vec<String>> = t
            .commands()
            .iter()
            .map(|s| s.fields_touched(t_decl).into_iter().collect())
            .collect();
        assert_eq!(
            fields,
            [
                vec!["id", "v"],
                vec!["id", "v", "w", "z"],
                vec!["v", "w", "z"],
                vec!["id", "v"],
                vec!["w"],
            ]
        );
        let mut none = true;
        visit_stmts(&t.body, &mut |s| {
            none &= s.fields_touched(u_decl).is_empty()
        });
        assert!(none);

        // Renaming reaches every use, the index of an `at` included, and
        // leaves the binding site alone.
        assert!(t.commands()[4].uses_var("a"));
        t.rename_var("a", "b");
        assert!(!t.uses_var("a") && t.uses_var("b"));
        let text = crate::print_program(&Program {
            schemas: p.schemas.clone(),
            transactions: vec![t],
        });
        for part in [
            "a := select v",
            "iterate (b.v)",
            "if (b.w > n)",
            "where (id = b.v) && (w = k)",
            "x.v[b.w] + 1",
            "id = b.v + 1",
            "where w = b.w",
            "return b.v + x.w",
        ] {
            assert!(text.contains(part), "{part} in\n{text}");
        }
    }
}
