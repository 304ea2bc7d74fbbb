//! Static command summaries used by the anomaly detector.
//!
//! Each database command of a transaction is summarized by the schema it
//! touches, the fields it reads and writes, and a *key specification*
//! describing which records its `WHERE` clause can select. Control flow is
//! over-approximated: `if` bodies and one unrolling of `iterate` bodies are
//! included unconditionally, which is sound for *may*-anomaly detection.

use std::collections::BTreeSet;

use atropos_dsl::{visit_stmts, CmdLabel, Expr, Program, Stmt, Transaction, Where, ALIVE_FIELD};

use crate::cache::ProgramKeys;

/// Which records a command may access, derived from its `WHERE` clause
/// (or `VALUES` for inserts).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeySpec {
    /// Equality constraints on every primary-key field; the canonical string
    /// is the printed tuple of key expressions. Two commands with the same
    /// canonical key may (and, within one transaction instance, must) access
    /// the same record. `constant` marks keys built purely from literals,
    /// which *cannot* alias a different constant key.
    Keyed {
        /// Canonical printed key tuple.
        key: String,
        /// True when every key expression is a literal constant.
        constant: bool,
    },
    /// The command may touch any record of the schema (full or partial scan).
    Scan,
    /// An insert whose primary key contains `uuid()`: it creates a record no
    /// other keyed command can name in advance.
    Fresh,
}

/// Whether the command reads or writes the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// A `SELECT`.
    Select,
    /// An `UPDATE`.
    Update,
    /// An `INSERT`.
    Insert,
    /// A `DELETE`.
    Delete,
}

/// Static summary of one database command.
#[derive(Debug, Clone)]
pub struct CmdSummary {
    /// Command label.
    pub label: CmdLabel,
    /// Command kind.
    pub kind: CmdKind,
    /// Schema accessed.
    pub schema: String,
    /// Fields read (where-clause fields plus projected fields plus `alive`).
    pub reads: BTreeSet<String>,
    /// Fields written (assigned/inserted fields; `alive` for insert/delete).
    pub writes: BTreeSet<String>,
    /// Record specification.
    pub key: KeySpec,
    /// Position in the flattened command sequence of the transaction.
    pub prog_index: usize,
    /// For selects, the bound variable (used for read-modify-write detection).
    pub bound_var: Option<String>,
    /// Variables whose values flow into this command (where clause or
    /// assigned expressions), used for read-modify-write detection.
    pub uses_vars: BTreeSet<String>,
}

/// Static summary of one transaction: its command summaries in program order.
#[derive(Debug, Clone)]
pub struct TxnSummary {
    /// Transaction name.
    pub name: String,
    /// Command summaries in program order.
    pub commands: Vec<CmdSummary>,
}

impl TxnSummary {
    /// Read-modify-write pairs: a select binding `x` on `(schema, field)`
    /// followed by a write to the same `(schema, field)` of an aliasing
    /// record whose assigned expressions or key depend on `x` — or simply a
    /// later write to the same field of the same key class (blind RMW).
    pub fn rmw_pairs(&self) -> Vec<(usize, usize, String)> {
        let mut out = Vec::new();
        for (i, c) in self.commands.iter().enumerate() {
            if c.kind != CmdKind::Select {
                continue;
            }
            for (j, w) in self.commands.iter().enumerate() {
                if j <= i || w.writes.is_empty() || w.schema != c.schema {
                    continue;
                }
                if !may_alias(&c.key, &w.key) {
                    continue;
                }
                let data_dep = c
                    .bound_var
                    .as_ref()
                    .is_some_and(|v| w.uses_vars.contains(v));
                for f in c.reads.intersection(&w.writes) {
                    if f == ALIVE_FIELD {
                        continue;
                    }
                    if data_dep || c.reads.contains(f) {
                        out.push((i, j, f.clone()));
                    }
                }
            }
        }
        out
    }
}

/// May two key specifications refer to a common record?
///
/// * Two `Keyed` specs may alias iff their canonical keys are equal
///   (arguments of different instances are assumed equal — worst case).
/// * `Scan` aliases everything, including freshly inserted records.
/// * Two `Fresh` specs never alias (distinct `uuid()` keys), and `Fresh`
///   never aliases a `Keyed` spec (the key cannot be guessed).
pub fn may_alias(a: &KeySpec, b: &KeySpec) -> bool {
    match (a, b) {
        (
            KeySpec::Keyed { key: x, constant: cx },
            KeySpec::Keyed { key: y, constant: cy },
        ) => x == y || !(*cx && *cy),
        (KeySpec::Fresh, KeySpec::Fresh) => false,
        (KeySpec::Fresh, KeySpec::Keyed { .. }) | (KeySpec::Keyed { .. }, KeySpec::Fresh) => false,
        (KeySpec::Scan, _) | (_, KeySpec::Scan) => true,
    }
}

fn key_spec_of_where(program: &Program, schema: &str, where_: &Where) -> KeySpec {
    let Some(decl) = program.schema(schema) else {
        return KeySpec::Scan;
    };
    let pk = decl.primary_key();
    let mut parts = Vec::new();
    let mut constant = true;
    for k in &pk {
        match where_.eq_expr_for(k) {
            Some(e) => {
                if !matches!(e, Expr::Const(_)) {
                    constant = false;
                }
                parts.push(atropos_dsl::print_expr(e));
            }
            None => return KeySpec::Scan,
        }
    }
    KeySpec::Keyed {
        key: parts.join("|"),
        constant,
    }
}

fn key_spec_of_insert(program: &Program, schema: &str, values: &[(String, Expr)]) -> KeySpec {
    let Some(decl) = program.schema(schema) else {
        return KeySpec::Scan;
    };
    let mut parts = Vec::new();
    let mut constant = true;
    for k in decl.primary_key() {
        let Some((_, e)) = values.iter().find(|(f, _)| f == k) else {
            return KeySpec::Scan;
        };
        let mut has_uuid = false;
        e.walk(&mut |x| {
            if matches!(x, Expr::Uuid) {
                has_uuid = true;
            }
        });
        if has_uuid {
            return KeySpec::Fresh;
        }
        if !matches!(e, Expr::Const(_)) {
            constant = false;
        }
        parts.push(atropos_dsl::print_expr(e));
    }
    KeySpec::Keyed {
        key: parts.join("|"),
        constant,
    }
}

/// Summarizes one transaction: each database command in program order,
/// at its position in the flattened command list.
pub fn summarize_txn(program: &Program, txn: &Transaction) -> TxnSummary {
    let mut commands = Vec::new();
    visit_stmts(&txn.body, &mut |s| {
        let (kind, reads, writes, key, bound_var) = match s {
            Stmt::Select(c) => {
                let mut reads: BTreeSet<String> = c.where_.fields().into_iter().collect();
                match &c.fields {
                    Some(fs) => reads.extend(fs.iter().cloned()),
                    None => {
                        if let Some(d) = program.schema(&c.schema) {
                            reads.extend(d.fields.iter().map(|f| f.name.clone()));
                        }
                    }
                }
                reads.insert(ALIVE_FIELD.to_owned());
                let key = key_spec_of_where(program, &c.schema, &c.where_);
                let var = Some(c.var.clone());
                (CmdKind::Select, reads, BTreeSet::new(), key, var)
            }
            Stmt::Update(c) => (
                CmdKind::Update,
                BTreeSet::new(),
                c.assigns.iter().map(|(f, _)| f.clone()).collect(),
                key_spec_of_where(program, &c.schema, &c.where_),
                None,
            ),
            Stmt::Insert(c) => {
                let mut writes: BTreeSet<String> =
                    c.values.iter().map(|(f, _)| f.clone()).collect();
                writes.insert(ALIVE_FIELD.to_owned());
                let key = key_spec_of_insert(program, &c.schema, &c.values);
                (CmdKind::Insert, BTreeSet::new(), writes, key, None)
            }
            Stmt::Delete(c) => (
                CmdKind::Delete,
                BTreeSet::new(),
                BTreeSet::from([ALIVE_FIELD.to_owned()]),
                key_spec_of_where(program, &c.schema, &c.where_),
                None,
            ),
            Stmt::If { .. } | Stmt::Iterate { .. } => return,
        };
        let mut uses_vars = BTreeSet::new();
        s.exprs(&mut |e| {
            e.walk(&mut |x| {
                if let Expr::Agg(_, v, _) | Expr::At(_, v, _) = x {
                    uses_vars.insert(v.clone());
                }
            })
        });
        commands.push(CmdSummary {
            label: s.label().expect("a database command").clone(),
            kind,
            schema: s.schema().expect("a database command").to_owned(),
            reads,
            writes,
            key,
            prog_index: commands.len(),
            bound_var,
            uses_vars,
        });
    });
    TxnSummary {
        name: txn.name.clone(),
        commands,
    }
}

/// Summarizes every transaction of a program.
pub fn summarize_program(program: &Program) -> Vec<TxnSummary> {
    program
        .transactions
        .iter()
        .map(|t| summarize_txn(program, t))
        .collect()
}

/// One program state as detection reads it: every transaction's summary
/// plus the keys of its instance groups (each transaction's fingerprint
/// and each ordered pair's conflict slices, see [`crate::cache`]), built
/// once by [`ProgramSummary::of`]. A caller that sweeps, detects and
/// decodes one program state builds one and hands it to each; every entry
/// that takes a `&Program` instead summarizes it afresh.
#[derive(Clone)]
pub struct ProgramSummary {
    txns: Vec<TxnSummary>,
    pub(crate) keys: ProgramKeys,
}

impl ProgramSummary {
    /// Summarizes and keys every transaction of `program`.
    pub fn of(program: &Program) -> ProgramSummary {
        let txns = summarize_program(program);
        let keys = ProgramKeys::new(&txns);
        ProgramSummary { txns, keys }
    }

    /// Every transaction's summary, in program order.
    pub fn txns(&self) -> &[TxnSummary] {
        &self.txns
    }

    /// Transaction `i`'s [`crate::txn_fingerprint`], read from the keys.
    pub fn fingerprint(&self, i: usize) -> u64 {
        self.keys.fp(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::parse;

    fn course() -> Program {
        parse(
            "schema STUDENT { st_id: int key, st_name: string, st_em_id: int }
             schema COURSE { co_id: int key, co_st_cnt: int }
             schema LOG { co_id: int key, log_id: uuid key, n: int }
             txn regSt(id: int, course: int) {
                 @U3 update STUDENT set st_name = \"x\" where st_id = id;
                 @S5 x := select co_st_cnt from COURSE where co_id = course;
                 @U4 update COURSE set co_st_cnt = x.co_st_cnt + 1 where co_id = course;
                 @I1 insert into LOG values (co_id = course, log_id = uuid(), n = 1);
                 return 0;
             }
             txn scanAll() {
                 @SA x := select co_st_cnt from COURSE;
                 return sum(x.co_st_cnt);
             }",
        )
        .unwrap()
    }

    #[test]
    fn key_specs_are_classified() {
        let p = course();
        let s = summarize_txn(&p, p.transaction("regSt").unwrap());
        assert_eq!(s.commands.len(), 4);
        assert!(matches!(s.commands[0].key, KeySpec::Keyed { .. }));
        assert!(matches!(s.commands[3].key, KeySpec::Fresh));
        let scan = summarize_txn(&p, p.transaction("scanAll").unwrap());
        assert_eq!(scan.commands[0].key, KeySpec::Scan);
    }

    #[test]
    fn reads_and_writes_are_collected() {
        let p = course();
        let s = summarize_txn(&p, p.transaction("regSt").unwrap());
        let sel = &s.commands[1];
        assert!(sel.reads.contains("co_st_cnt"));
        assert!(sel.reads.contains("co_id"));
        assert!(sel.reads.contains(ALIVE_FIELD));
        let upd = &s.commands[2];
        assert_eq!(
            upd.writes,
            BTreeSet::from(["co_st_cnt".to_owned()])
        );
        let ins = &s.commands[3];
        assert!(ins.writes.contains("n") && ins.writes.contains(ALIVE_FIELD));
    }

    #[test]
    fn rmw_pair_detected_for_counter_increment() {
        let p = course();
        let s = summarize_txn(&p, p.transaction("regSt").unwrap());
        let rmw = s.rmw_pairs();
        assert_eq!(rmw.len(), 1);
        let (i, j, f) = &rmw[0];
        assert_eq!(s.commands[*i].label.0, "S5");
        assert_eq!(s.commands[*j].label.0, "U4");
        assert_eq!(f, "co_st_cnt");
    }

    #[test]
    fn alias_rules() {
        let k1 = KeySpec::Keyed { key: "id".into(), constant: false };
        let k2 = KeySpec::Keyed { key: "course".into(), constant: false };
        let c1 = KeySpec::Keyed { key: "1".into(), constant: true };
        let c2 = KeySpec::Keyed { key: "2".into(), constant: true };
        assert!(may_alias(&k1, &k1));
        assert!(may_alias(&k1, &k2)); // different variables may be equal
        assert!(may_alias(&k1, &c1)); // variable may equal a constant
        assert!(!may_alias(&c1, &c2)); // distinct constants never alias
        assert!(may_alias(&KeySpec::Scan, &k1));
        assert!(may_alias(&KeySpec::Scan, &KeySpec::Fresh));
        assert!(!may_alias(&KeySpec::Fresh, &KeySpec::Fresh));
        assert!(!may_alias(&KeySpec::Fresh, &k1));
    }

    #[test]
    fn control_flow_bodies_are_included() {
        let p = parse(
            "schema T { id: int key, v: int }
             txn t(a: int) {
                 if (a > 0) { @X update T set v = 1 where id = a; }
                 iterate (a) { @Y update T set v = 2 where id = iter; }
                 return 0;
             }",
        )
        .unwrap();
        let s = summarize_txn(&p, p.transaction("t").unwrap());
        assert_eq!(s.commands.len(), 2);
        // `where id = iter` pins the key to a loop-dependent expression.
        assert!(matches!(s.commands[1].key, KeySpec::Keyed { .. }));
    }
}
