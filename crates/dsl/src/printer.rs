//! Pretty-printer emitting canonical DSL source.
//!
//! The output parses back to an equal [`Program`] (labels included), which is
//! verified by a round-trip property test.

use std::fmt::Write;

use crate::ast::*;

/// Renders a whole program to canonical DSL text.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for s in &p.schemas {
        print_schema(&mut out, s);
        out.push('\n');
    }
    for t in &p.transactions {
        print_txn(&mut out, t);
        out.push('\n');
    }
    out
}

fn print_schema(out: &mut String, s: &Schema) {
    let _ = write!(out, "schema {} {{ ", s.name);
    for (i, f) in s.fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", f.name, f.ty);
        if f.primary_key {
            out.push_str(" key");
        }
    }
    out.push_str(" }\n");
}

fn print_txn(out: &mut String, t: &Transaction) {
    let _ = write!(out, "txn {}(", t.name);
    for (i, p) in t.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", p.name, p.ty);
    }
    out.push_str(") {\n");
    for s in &t.body {
        print_stmt(out, s, 1);
    }
    let _ = write!(out, "    return {};\n}}\n", print_expr(&t.ret));
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match s {
        Stmt::Select(c) => {
            let fields = match &c.fields {
                None => "*".to_owned(),
                Some(fs) => fs.join(", "),
            };
            let _ = writeln!(
                out,
                "@{} {} := select {} from {}{};",
                c.label,
                c.var,
                fields,
                c.schema,
                print_where_suffix(&c.where_)
            );
        }
        Stmt::Update(c) => {
            let assigns = c
                .assigns
                .iter()
                .map(|(f, e)| format!("{f} = {}", print_expr(e)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "@{} update {} set {}{};",
                c.label,
                c.schema,
                assigns,
                print_where_suffix(&c.where_)
            );
        }
        Stmt::Insert(c) => {
            let values = c
                .values
                .iter()
                .map(|(f, e)| format!("{f} = {}", print_expr(e)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "@{} insert into {} values ({});", c.label, c.schema, values);
        }
        Stmt::Delete(c) => {
            let _ = writeln!(
                out,
                "@{} delete from {}{};",
                c.label,
                c.schema,
                print_where_suffix(&c.where_)
            );
        }
        Stmt::If { cond, body } => {
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            for s in body {
                print_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Iterate { count, body } => {
            let _ = writeln!(out, "iterate ({}) {{", print_expr(count));
            for s in body {
                print_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

fn print_where_suffix(w: &Where) -> String {
    match w {
        Where::True => String::new(),
        _ => format!(" where {}", print_where(w)),
    }
}

/// Renders a `WHERE` clause.
pub fn print_where(w: &Where) -> String {
    match w {
        Where::True => "true".to_owned(),
        Where::Cmp { field, op, expr } => {
            format!("{field} {} {}", op.symbol(), print_expr(expr))
        }
        Where::And(l, r) => format!("({}) && ({})", print_where(l), print_where(r)),
        Where::Or(l, r) => format!("({}) || ({})", print_where(l), print_where(r)),
    }
}

/// Renders an expression with full parenthesization of compound operands.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Const(Value::Int(n)) => format!("{n}"),
        Expr::Const(Value::Bool(b)) => format!("{b}"),
        Expr::Const(Value::Str(s)) => quote(s),
        // uuid literals cannot appear in source; render as an opaque call.
        Expr::Const(Value::Uuid(_)) => "uuid()".to_owned(),
        Expr::Arg(a) => a.clone(),
        Expr::Bin(op, l, r) => format!("{} {} {}", atom(l), op.symbol(), atom(r)),
        Expr::Cmp(op, l, r) => format!("{} {} {}", atom(l), op.symbol(), atom(r)),
        Expr::Bool(op, l, r) => format!("{} {} {}", atom(l), op.symbol(), atom(r)),
        Expr::Not(x) => format!("!{}", atom(x)),
        Expr::Iter => "iter".to_owned(),
        Expr::Agg(agg, v, f) => format!("{}({v}.{f})", agg.name()),
        Expr::At(idx, v, f) => match &**idx {
            Expr::Const(Value::Int(0)) => format!("{v}.{f}"),
            _ => format!("{v}.{f}[{}]", print_expr(idx)),
        },
        Expr::Uuid => "uuid()".to_owned(),
    }
}

/// A string literal exactly as the lexer reads it back: `"`, `\`,
/// newline and tab escaped, every other character written raw.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn atom(e: &Expr) -> String {
    match e {
        Expr::Bin(..) | Expr::Cmp(..) | Expr::Bool(..) => format!("({})", print_expr(e)),
        _ => print_expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = r#"
        schema STUDENT { st_id: int key, st_name: string, st_em_id: int }
        schema EMAIL { em_id: int key, em_addr: string }
        txn setSt(id: int, name: string, email: string) {
            x := select st_em_id from STUDENT where st_id = id;
            update STUDENT set st_name = name where st_id = id;
            update EMAIL set em_addr = email where em_id = x.st_em_id;
            return 0;
        }
        txn weird(a: int) {
            if (a > 0 && a < 10) {
                insert into EMAIL values (em_id = a, em_addr = "x");
            }
            iterate (a) {
                delete from EMAIL where em_id = iter;
            }
            y := select * from STUDENT;
            return sum(y.st_em_id) + a * 2;
        }
    "#;

    #[test]
    fn round_trips_through_parser() {
        let p1 = parse(SRC).unwrap();
        let text = print_program(&p1);
        let p2 = parse(&text).unwrap();
        assert_eq!(p1, p2, "printed program:\n{text}");
    }

    /// `.T` labels — minted by the triple mode's chain rules
    /// (`atropos_core::chain`) when they materialize or fuse commands —
    /// must survive a print/parse round trip like every other derived
    /// label, or a repaired program would lose its chain-rule provenance
    /// the first time it is persisted.
    #[test]
    fn round_trips_chain_rule_labels() {
        let p1 = parse(
            "schema MSG { m_id: int key, m_body: int, m_f_body: int }
             txn relay(m: int, x_v: int) {
                 @W2.T update MSG set m_f_body = x_v where m_id = m;
                 @R3.T y := select m_f_body from MSG where m_id = m;
                 return y.m_f_body;
             }",
        )
        .unwrap();
        let text = print_program(&p1);
        assert!(text.contains("@W2.T"), "printed program:\n{text}");
        assert!(text.contains("@R3.T"), "printed program:\n{text}");
        let p2 = parse(&text).unwrap();
        assert_eq!(p1, p2, "printed program:\n{text}");
    }

    #[test]
    fn prints_field_access_without_index_zero() {
        assert_eq!(print_expr(&Expr::field("x", "f")), "x.f");
        let idx = Expr::At(Box::new(Expr::int(2)), "x".into(), "f".into());
        assert_eq!(print_expr(&idx), "x.f[2]");
    }

    #[test]
    fn where_true_is_omitted() {
        let p = parse("schema T { id: int key }\ntxn t() { x := select * from T; return 0; }")
            .unwrap();
        let text = print_program(&p);
        assert!(!text.contains("where true"));
    }

    #[test]
    fn parenthesizes_nested_operators() {
        let e = Expr::int(1).add(Expr::int(2)).add(Expr::int(3));
        assert_eq!(print_expr(&e), "(1 + 2) + 3");
    }

    /// A literal keeps its UTF-8 text and decodes its escapes, and the
    /// printer writes it back in a form the lexer reads.
    #[test]
    fn string_literals_keep_their_text_through_print_and_parse() {
        // (the literal as written between the quotes, the text it denotes)
        let cases = [
            ("héllo", "héllo"),
            ("a→b", "a→b"),
            ("cr\rhere", "cr\rhere"),
            ("nul\0here", "nul\0here"),
            ("q\\\"q", "q\"q"),
            ("b\\\\s", "b\\s"),
            ("n\\nl", "n\nl"),
            ("t\\tb", "t\tb"),
        ];
        for (written, text) in cases {
            let src = format!("schema T {{ id: int key }} txn t() {{ return \"{written}\"; }}");
            let p = parse(&src).unwrap_or_else(|e| panic!("{written:?}: {e}"));
            let want = Expr::Const(Value::Str(text.to_owned()));
            assert_eq!(p.transactions[0].ret, want, "{written:?}");
            let printed = print_program(&p);
            let back = parse(&printed).unwrap_or_else(|e| panic!("{written:?}: {e}\n{printed}"));
            assert_eq!(back, p, "{written:?}");
        }
    }
}
