//! Property test: printing and re-parsing a generated program is the
//! identity (labels included).

use atropos_dsl::{
    parse, print_program, CmdLabel, Expr, FieldDecl, Program, Schema, SelectCmd, Stmt,
    Transaction, Ty, UpdateCmd, Value, Where,
};
use proptest::prelude::*;

/// The characters a generated string literal draws from: letters and a
/// space, the four the printer escapes, other control characters and
/// multi-byte UTF-8.
const STR_CHARS: [char; 12] = [
    'a', 'z', ' ', '"', '\\', '\n', '\t', '\r', '\0', 'é', '→', '😀',
];

fn str_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..STR_CHARS.len(), 0..8)
        .prop_map(|ix| ix.into_iter().map(|i| STR_CHARS[i]).collect())
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(Expr::int),
        any::<bool>().prop_map(Expr::boolean),
        Just(Expr::arg("a")),
        Just(Expr::arg("b")),
        Just(Expr::field("x", "v")),
        Just(Expr::sum("x", "v")),
        str_strategy().prop_map(|s| Expr::Const(Value::Str(s))),
        Just(Expr::Uuid),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.add(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.sub(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.eq(r)),
            (inner.clone(), inner).prop_map(|(l, r)| Expr::Not(Box::new(l.eq(r)))),
        ]
    })
}

fn where_strategy() -> impl Strategy<Value = Where> {
    prop_oneof![
        Just(Where::True),
        (0i64..10).prop_map(|n| Where::eq("id", Expr::int(n))),
        (0i64..10).prop_map(|n| Where::eq("id", Expr::int(n)).and(Where::Cmp {
            field: "v".into(),
            op: atropos_dsl::CmpOp::Gt,
            expr: Expr::int(n),
        })),
    ]
}

fn program_strategy() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec((where_strategy(), expr_strategy()), 1..5),
        expr_strategy(),
    )
        .prop_map(|(cmds, ret)| {
            let schema = Schema::new(
                "T",
                vec![FieldDecl::key("id", Ty::Int), FieldDecl::new("v", Ty::Int)],
            );
            let mut body: Vec<Stmt> = vec![Stmt::Select(SelectCmd {
                label: CmdLabel("S0".into()),
                var: "x".into(),
                fields: Some(vec!["v".into()]),
                schema: "T".into(),
                where_: Where::True,
            })];
            for (i, (w, e)) in cmds.into_iter().enumerate() {
                body.push(Stmt::Update(UpdateCmd {
                    label: CmdLabel(format!("U{i}")),
                    schema: "T".into(),
                    assigns: vec![("v".into(), e)],
                    where_: w,
                }));
            }
            Program {
                schemas: vec![schema],
                transactions: vec![Transaction {
                    name: "t".into(),
                    params: vec![
                        atropos_dsl::Param { name: "a".into(), ty: Ty::Int },
                        atropos_dsl::Param { name: "b".into(), ty: Ty::Int },
                    ],
                    body,
                    ret,
                }],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_round_trip(p in program_strategy()) {
        let text = print_program(&p);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(back, p);
    }
}
