//! The exact text of the front end's errors: one malformed input per
//! row, parsed and (when it parses) checked, with the `DslError` it must
//! produce, byte offset included.

use atropos_dsl::{check_program, parse};

/// `(what the row covers, source, the error's exact text)`.
const TABLE: &[(&str, &str, &str)] = &[
    (
        "unknown type written in capitals",
        "schema T { id: INTEGER key }",
        "parse error at byte 23: unknown type `integer`",
    ),
    (
        "missing identifier",
        "schema { id: int key }",
        "parse error at byte 7: expected identifier, found `{`",
    ),
    (
        "escape that stays invalid",
        r#"schema T { id: int key } txn t() { return "a\q"; }"#,
        "lex error at byte 44: invalid escape sequence",
    ),
    (
        "unexpected character",
        "schema T { id: int key # }",
        "lex error at byte 23: unexpected character `#`",
    ),
    (
        "unterminated string",
        r#"schema T { id: int key } txn t() { return "abc; }"#,
        "lex error at byte 42: unterminated string literal",
    ),
    (
        "duplicate label",
        "schema T { id: int key, v: int }
         txn t(k: int) {
             @A update T set v = k where id = k;
             @A update T set v = 1 where id = k;
             return 0;
         }",
        "semantic error: duplicate command label `A`",
    ),
    (
        "duplicate field",
        "schema T { id: int key, v: int, v: bool }",
        "semantic error: duplicate field `v` in schema `T`",
    ),
    (
        "duplicate schema",
        "schema T { id: int key } schema U { id: int key } schema T { k: int key }",
        "semantic error: duplicate schema `T`",
    ),
    (
        "unknown field in an update",
        "schema T { id: int key, v: int }
         txn t(k: int) { update T set w = k where id = k; return 0; }",
        "semantic error: update `U1` assigns unknown field `w` of schema `T`",
    ),
    (
        "unknown field in an insert",
        "schema T { id: int key, v: int }
         txn t(k: int) { insert into T values (id = k, w = 1); return 0; }",
        "semantic error: insert `I1` sets unknown field `w` of schema `T`",
    ),
    (
        "assignment type mismatch",
        "schema T { id: int key, v: int }
         txn t(k: int, s: string) { update T set v = s where id = k; return 0; }",
        "semantic error: assignment to `v` has type string, expected int (in transaction `t`)",
    ),
    (
        "insert value type mismatch",
        "schema T { id: int key, v: bool }
         txn t(k: int) { insert into T values (id = k, v = k + 1); return 0; }",
        "semantic error: insert value for `v` has type int, expected bool (in transaction `t`)",
    ),
    (
        "variable rebound to another schema",
        "schema T { id: int key, v: int }
         schema U { id: int key, v: int }
         txn t(k: int) {
             x := select v from T where id = k;
             x := select v from U where id = k;
             return x.v;
         }",
        "semantic error: variable `x` rebound to a different schema (`T` then `U`)",
    ),
];

fn error_of(src: &str) -> String {
    match parse(src) {
        Err(e) => e.to_string(),
        Ok(p) => match check_program(&p) {
            Err(e) => e.to_string(),
            Ok(_) => "no error".to_owned(),
        },
    }
}

#[test]
fn every_malformed_input_reports_its_exact_error() {
    for (what, src, want) in TABLE {
        assert_eq!(error_of(src), *want, "{what}");
    }
}
