//! Recursive-descent parser for the database-program DSL.
//!
//! Grammar sketch (keywords case-insensitive):
//!
//! ```text
//! program   := (schema | txn)*
//! schema    := "schema" IDENT "{" field ("," field)* "}"
//! field     := IDENT ":" ("int"|"bool"|"string"|"uuid") ("key")?
//! txn       := "txn" IDENT "(" params? ")" "{" stmt* "return" expr ";" "}"
//! stmt      := label? (select | update | insert | delete) | if | iterate
//! select    := IDENT ":=" "select" ("*" | IDENT,+) "from" IDENT ("where" where)? ";"
//! update    := "update" IDENT "set" IDENT "=" expr ,+ ("where" where)? ";"
//! insert    := "insert" "into" IDENT "values" "(" IDENT "=" expr ,+ ")" ";"
//! delete    := "delete" "from" IDENT ("where" where)? ";"
//! if        := "if" "(" expr ")" "{" stmt* "}"
//! iterate   := "iterate" "(" expr ")" "{" stmt* "}"
//! where     := wor ; wor := wand ("||" wand)* ; wand := watom ("&&" watom)*
//! watom     := "(" where ")" | "true" | IDENT cmp expr
//! expr      := bor ; bor := band ("||" band)* ; band := cmp ("&&" cmp)*
//! cmp       := add (cmpop add)? ; add := mul (("+"|"-") mul)*
//! mul       := unary (("*"|"/") unary)* ; unary := "!" unary | "-" unary | prim
//! prim      := INT | STRING | "true" | "false" | "iter" | "uuid" "(" ")"
//!            | ("sum"|"min"|"max"|"count") "(" IDENT "." IDENT ")"
//!            | IDENT "." IDENT ("[" expr "]")?  | IDENT | "(" expr ")"
//! ```
//!
//! Command labels default to `S1, S2, …` (selects) / `U1, …` (updates) /
//! `I1, …` (inserts) / `D1, …` (deletes), numbered per program in source
//! order, and can be overridden with an explicit `@LABEL` prefix.

use crate::ast::*;
use crate::error::{DslError, Span};
use crate::lexer::{lex, Spanned, Token};

/// Parses a complete program from DSL source text.
///
/// # Errors
///
/// Returns [`DslError`] on lexical or syntax errors. The result is *not* yet
/// resolved or type checked; see [`crate::resolve::check_program`].
///
/// # Examples
///
/// ```
/// let src = r#"
///     schema T { id: int key, v: int }
///     txn get(id: int) {
///         x := select v from T where id = id;
///         return x.v;
///     }
/// "#;
/// let prog = atropos_dsl::parse(src)?;
/// assert_eq!(prog.transactions.len(), 1);
/// # Ok::<(), atropos_dsl::DslError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, DslError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        counters: LabelCounters::default(),
    };
    p.program()
}

#[derive(Default)]
struct LabelCounters {
    select: u32,
    update: u32,
    insert: u32,
    delete: u32,
}

struct Parser<'a> {
    toks: Vec<Spanned<'a>>,
    pos: usize,
    counters: LabelCounters,
}

/// The type names, matched case-insensitively.
const TYPES: [(&str, Ty); 5] = [
    ("int", Ty::Int),
    ("bool", Ty::Bool),
    ("string", Ty::Str),
    ("str", Ty::Str),
    ("uuid", Ty::Uuid),
];

/// The aggregate names, matched case-insensitively.
const AGGREGATES: [AggOp; 4] = [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count];

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.toks[self.pos].token
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Moves the current token out and advances. The parser never looks
    /// behind itself, so a consumed token is left as [`Token::Eof`]; the
    /// final end-of-input token stays in place however often it is bumped.
    fn bump(&mut self) -> Token<'a> {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
            std::mem::replace(&mut self.toks[self.pos - 1].token, Token::Eof)
        } else {
            Token::Eof
        }
    }

    fn err(&self, msg: impl Into<String>) -> DslError {
        DslError::Parse {
            message: msg.into(),
            span: self.span(),
        }
    }

    fn expect(&mut self, t: &Token<'_>) -> Result<(), DslError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    /// Peeks a keyword (case-insensitive identifier).
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DslError> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected keyword `{kw}`, found {}", self.peek())))
        }
    }

    /// The identifier at the cursor, consumed, borrowed from the source.
    fn name(&mut self) -> Result<&'a str, DslError> {
        match *self.peek() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            ref t => Err(self.err(format!("expected identifier, found {t}"))),
        }
    }

    /// [`Parser::name`], copied into the syntax tree.
    fn ident(&mut self) -> Result<String, DslError> {
        self.name().map(str::to_owned)
    }

    fn program(&mut self) -> Result<Program, DslError> {
        let mut prog = Program::new();
        loop {
            if self.at_kw("schema") {
                prog.schemas.push(self.schema()?);
            } else if self.at_kw("txn") {
                prog.transactions.push(self.txn()?);
            } else if *self.peek() == Token::Eof {
                return Ok(prog);
            } else {
                return Err(self.err(format!(
                    "expected `schema` or `txn`, found {}",
                    self.peek()
                )));
            }
        }
    }

    fn schema(&mut self) -> Result<Schema, DslError> {
        self.expect_kw("schema")?;
        let name = self.ident()?;
        self.expect(&Token::LBrace)?;
        let mut fields = Vec::new();
        loop {
            let fname = self.ident()?;
            self.expect(&Token::Colon)?;
            let ty = self.ty()?;
            let primary_key = if self.at_kw("key") {
                self.bump();
                true
            } else {
                false
            };
            fields.push(FieldDecl {
                name: fname,
                ty,
                primary_key,
            });
            if *self.peek() == Token::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Token::RBrace)?;
        Ok(Schema { name, fields })
    }

    fn ty(&mut self) -> Result<Ty, DslError> {
        let name = self.name()?;
        match TYPES.iter().find(|(n, _)| name.eq_ignore_ascii_case(n)) {
            Some(&(_, ty)) => Ok(ty),
            None => Err(self.err(format!("unknown type `{}`", name.to_ascii_lowercase()))),
        }
    }

    fn txn(&mut self) -> Result<Transaction, DslError> {
        self.expect_kw("txn")?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Token::RParen {
            loop {
                let pname = self.ident()?;
                self.expect(&Token::Colon)?;
                let ty = self.ty()?;
                params.push(Param { name: pname, ty });
                if *self.peek() == Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        self.expect(&Token::LBrace)?;
        let mut body = Vec::new();
        while !self.at_kw("return") {
            body.push(self.stmt()?);
        }
        self.expect_kw("return")?;
        let ret = self.expr()?;
        self.expect(&Token::Semi)?;
        self.expect(&Token::RBrace)?;
        Ok(Transaction {
            name,
            params,
            body,
            ret,
        })
    }

    fn stmt(&mut self) -> Result<Stmt, DslError> {
        let label = match *self.peek() {
            Token::Label(l) => {
                self.bump();
                Some(CmdLabel(l.to_owned()))
            }
            _ => None,
        };
        if self.at_kw("if") {
            if label.is_some() {
                return Err(self.err("labels are only allowed on database commands"));
            }
            self.bump();
            self.expect(&Token::LParen)?;
            let cond = self.expr()?;
            self.expect(&Token::RParen)?;
            let body = self.block()?;
            return Ok(Stmt::If { cond, body });
        }
        if self.at_kw("iterate") {
            if label.is_some() {
                return Err(self.err("labels are only allowed on database commands"));
            }
            self.bump();
            self.expect(&Token::LParen)?;
            let count = self.expr()?;
            self.expect(&Token::RParen)?;
            let body = self.block()?;
            return Ok(Stmt::Iterate { count, body });
        }
        if self.at_kw("update") {
            self.bump();
            let schema = self.ident()?;
            self.expect_kw("set")?;
            let mut assigns = Vec::new();
            loop {
                let f = self.ident()?;
                self.expect(&Token::Eq)?;
                let e = self.expr()?;
                assigns.push((f, e));
                if *self.peek() == Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            let where_ = self.opt_where()?;
            self.expect(&Token::Semi)?;
            self.counters.update += 1;
            let label = label.unwrap_or_else(|| CmdLabel(format!("U{}", self.counters.update)));
            return Ok(Stmt::Update(UpdateCmd {
                label,
                schema,
                assigns,
                where_,
            }));
        }
        if self.at_kw("insert") {
            self.bump();
            self.expect_kw("into")?;
            let schema = self.ident()?;
            self.expect_kw("values")?;
            self.expect(&Token::LParen)?;
            let mut values = Vec::new();
            loop {
                let f = self.ident()?;
                self.expect(&Token::Eq)?;
                let e = self.expr()?;
                values.push((f, e));
                if *self.peek() == Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            self.expect(&Token::Semi)?;
            self.counters.insert += 1;
            let label = label.unwrap_or_else(|| CmdLabel(format!("I{}", self.counters.insert)));
            return Ok(Stmt::Insert(InsertCmd {
                label,
                schema,
                values,
            }));
        }
        if self.at_kw("delete") {
            self.bump();
            self.expect_kw("from")?;
            let schema = self.ident()?;
            let where_ = self.opt_where()?;
            self.expect(&Token::Semi)?;
            self.counters.delete += 1;
            let label = label.unwrap_or_else(|| CmdLabel(format!("D{}", self.counters.delete)));
            return Ok(Stmt::Delete(DeleteCmd {
                label,
                schema,
                where_,
            }));
        }
        // select: IDENT := select ...
        let var = self.ident()?;
        self.expect(&Token::Assign)?;
        self.expect_kw("select")?;
        let fields = if *self.peek() == Token::StarTok {
            self.bump();
            None
        } else {
            let mut fs = vec![self.ident()?];
            while *self.peek() == Token::Comma {
                self.bump();
                fs.push(self.ident()?);
            }
            Some(fs)
        };
        self.expect_kw("from")?;
        let schema = self.ident()?;
        let where_ = self.opt_where()?;
        self.expect(&Token::Semi)?;
        self.counters.select += 1;
        let label = label.unwrap_or_else(|| CmdLabel(format!("S{}", self.counters.select)));
        Ok(Stmt::Select(SelectCmd {
            label,
            var,
            fields,
            schema,
            where_,
        }))
    }

    fn block(&mut self) -> Result<Vec<Stmt>, DslError> {
        self.expect(&Token::LBrace)?;
        let mut body = Vec::new();
        while *self.peek() != Token::RBrace {
            body.push(self.stmt()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(body)
    }

    fn opt_where(&mut self) -> Result<Where, DslError> {
        if self.at_kw("where") {
            self.bump();
            self.where_or()
        } else {
            Ok(Where::True)
        }
    }

    fn where_or(&mut self) -> Result<Where, DslError> {
        let mut l = self.where_and()?;
        while *self.peek() == Token::OrOr {
            self.bump();
            let r = self.where_and()?;
            l = Where::Or(Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn where_and(&mut self) -> Result<Where, DslError> {
        let mut l = self.where_atom()?;
        while *self.peek() == Token::AndAnd {
            self.bump();
            let r = self.where_atom()?;
            l = Where::And(Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn where_atom(&mut self) -> Result<Where, DslError> {
        if *self.peek() == Token::LParen {
            self.bump();
            let w = self.where_or()?;
            self.expect(&Token::RParen)?;
            return Ok(w);
        }
        if self.at_kw("true") {
            self.bump();
            return Ok(Where::True);
        }
        let field = self.ident()?;
        let op = self.cmp_op()?;
        // The right-hand side must stop before `&&` / `||`: those bind the
        // where clause's conjuncts, not the comparison operand. A genuinely
        // boolean operand can be parenthesized.
        let expr = self.expr_cmp()?;
        Ok(Where::Cmp { field, op, expr })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, DslError> {
        let op = match self.peek() {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            t => return Err(self.err(format!("expected comparison operator, found {t}"))),
        };
        self.bump();
        Ok(op)
    }

    fn expr(&mut self) -> Result<Expr, DslError> {
        self.expr_or()
    }

    fn expr_or(&mut self) -> Result<Expr, DslError> {
        let mut l = self.expr_and()?;
        while *self.peek() == Token::OrOr {
            self.bump();
            let r = self.expr_and()?;
            l = Expr::Bool(BoolOp::Or, Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn expr_and(&mut self) -> Result<Expr, DslError> {
        let mut l = self.expr_cmp()?;
        while *self.peek() == Token::AndAnd {
            self.bump();
            let r = self.expr_cmp()?;
            l = Expr::Bool(BoolOp::And, Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn expr_cmp(&mut self) -> Result<Expr, DslError> {
        let l = self.expr_add()?;
        let op = match self.peek() {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            _ => return Ok(l),
        };
        self.bump();
        let r = self.expr_add()?;
        Ok(Expr::Cmp(op, Box::new(l), Box::new(r)))
    }

    fn expr_add(&mut self) -> Result<Expr, DslError> {
        let mut l = self.expr_mul()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => return Ok(l),
            };
            self.bump();
            let r = self.expr_mul()?;
            l = Expr::Bin(op, Box::new(l), Box::new(r));
        }
    }

    fn expr_mul(&mut self) -> Result<Expr, DslError> {
        let mut l = self.expr_unary()?;
        loop {
            let op = match self.peek() {
                Token::StarTok => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => return Ok(l),
            };
            self.bump();
            let r = self.expr_unary()?;
            l = Expr::Bin(op, Box::new(l), Box::new(r));
        }
    }

    fn expr_unary(&mut self) -> Result<Expr, DslError> {
        match self.peek() {
            Token::Bang => {
                self.bump();
                Ok(Expr::Not(Box::new(self.expr_unary()?)))
            }
            Token::Minus => {
                self.bump();
                // Fold `-literal` into a negative constant so printing and
                // re-parsing round-trips; other operands desugar to `0 - e`.
                if let Token::Int(n) = *self.peek() {
                    self.bump();
                    return Ok(Expr::int(-n));
                }
                let e = self.expr_unary()?;
                Ok(Expr::Bin(
                    BinOp::Sub,
                    Box::new(Expr::int(0)),
                    Box::new(e),
                ))
            }
            _ => self.expr_prim(),
        }
    }

    fn expr_prim(&mut self) -> Result<Expr, DslError> {
        let span = self.span();
        match self.bump() {
            Token::Int(n) => Ok(Expr::int(n)),
            Token::Str(s) => Ok(Expr::Const(Value::Str(s))),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(id) => {
                let kw = |k: &str| id.eq_ignore_ascii_case(k);
                if kw("true") || kw("false") {
                    return Ok(Expr::boolean(kw("true")));
                }
                if kw("iter") {
                    return Ok(Expr::Iter);
                }
                if kw("uuid") {
                    self.expect(&Token::LParen)?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Uuid);
                }
                if let Some(&agg) = AGGREGATES.iter().find(|a| kw(a.name())) {
                    self.expect(&Token::LParen)?;
                    let var = self.ident()?;
                    self.expect(&Token::Dot)?;
                    let field = self.ident()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Agg(agg, var, field));
                }
                if *self.peek() == Token::Dot {
                    self.bump();
                    let field = self.ident()?;
                    let idx = if *self.peek() == Token::LBracket {
                        self.bump();
                        let idx = self.expr()?;
                        self.expect(&Token::RBracket)?;
                        idx
                    } else {
                        Expr::int(0)
                    };
                    Ok(Expr::At(Box::new(idx), id.to_owned(), field))
                } else {
                    Ok(Expr::Arg(id.to_owned()))
                }
            }
            t => Err(DslError::Parse {
                message: format!("expected expression, found {t}"),
                span,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_course_management_program() {
        let src = r#"
            schema STUDENT { st_id: int key, st_name: string, st_em_id: int, st_co_id: int, st_reg: bool }
            schema COURSE  { co_id: int key, co_avail: bool, co_st_cnt: int }
            schema EMAIL   { em_id: int key, em_addr: string }

            txn getSt(id: int) {
                x := select * from STUDENT where st_id = id;
                y := select em_addr from EMAIL where em_id = x.st_em_id;
                z := select co_avail from COURSE where co_id = x.st_co_id;
                return y.em_addr;
            }

            txn regSt(id: int, course: int) {
                update STUDENT set st_co_id = course, st_reg = true where st_id = id;
                x := select co_st_cnt from COURSE where co_id = course;
                update COURSE set co_st_cnt = x.co_st_cnt + 1, co_avail = true where co_id = course;
                return 0;
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.schemas.len(), 3);
        assert_eq!(p.transactions.len(), 2);
        assert_eq!(p.command_count(), 6);
        let get = p.transaction("getSt").unwrap();
        assert_eq!(get.params.len(), 1);
        match &get.body[0] {
            Stmt::Select(s) => {
                assert_eq!(s.var, "x");
                assert!(s.fields.is_none());
                assert_eq!(s.label.0, "S1");
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn explicit_labels_override_defaults() {
        let src = r#"
            schema T { id: int key, v: int }
            txn t(a: int) {
                @FOO update T set v = a where id = a;
                return 0;
            }
        "#;
        let p = parse(src).unwrap();
        assert!(p.command(&"FOO".into()).is_some());
    }

    #[test]
    fn parses_insert_delete_if_iterate() {
        let src = r#"
            schema L { id: int key, n: int }
            txn t(a: int) {
                insert into L values (id = a, n = 1);
                if (a > 0) {
                    delete from L where id = a;
                }
                iterate (3) {
                    x := select n from L where id = iter;
                }
                return sum(x.n);
            }
        "#;
        let p = parse(src).unwrap();
        let t = p.transaction("t").unwrap();
        assert_eq!(t.body.len(), 3);
        assert!(matches!(t.ret, Expr::Agg(AggOp::Sum, _, _)));
        assert_eq!(p.command_count(), 3);
    }

    #[test]
    fn parses_uuid_and_indexing() {
        let src = r#"
            schema L { id: int key, lid: uuid key, n: int }
            txn t(a: int) {
                insert into L values (id = a, lid = uuid(), n = 1);
                x := select n from L where id = a;
                return x.n[1] + x.n;
            }
        "#;
        let p = parse(src).unwrap();
        let t = p.transaction("t").unwrap();
        match &t.ret {
            Expr::Bin(BinOp::Add, l, r) => {
                assert!(matches!(**l, Expr::At(_, _, _)));
                assert!(matches!(**r, Expr::At(_, _, _)));
            }
            other => panic!("unexpected ret {other:?}"),
        }
    }

    #[test]
    fn missing_where_means_full_scan() {
        let src = r#"
            schema T { id: int key, v: int }
            txn t() {
                x := select v from T;
                return sum(x.v);
            }
        "#;
        let p = parse(src).unwrap();
        match &p.transactions[0].body[0] {
            Stmt::Select(s) => assert_eq!(s.where_, Where::True),
            _ => unreachable!(),
        }
    }

    #[test]
    fn operator_precedence() {
        let src = r#"
            schema T { id: int key, v: int }
            txn t(a: int, b: int) {
                return a + b * 2 = a && b > 0;
            }
        "#;
        let p = parse(src).unwrap();
        // (&& ((= (+ a (* b 2)) a) (> b 0)))
        match &p.transactions[0].ret {
            Expr::Bool(BoolOp::And, l, _) => match &**l {
                Expr::Cmp(CmpOp::Eq, ll, _) => {
                    assert!(matches!(**ll, Expr::Bin(BinOp::Add, _, _)));
                }
                o => panic!("bad tree {o:?}"),
            },
            o => panic!("bad tree {o:?}"),
        }
    }

    #[test]
    fn rejects_label_on_control_statement() {
        let src = r#"
            schema T { id: int key }
            txn t(a: int) {
                @X if (a > 0) { }
                return 0;
            }
        "#;
        assert!(parse(src).is_err());
    }

    #[test]
    fn error_reports_position() {
        let err = parse("schema T { id ; }").unwrap_err();
        match err {
            DslError::Parse { span, .. } => assert!(span.start > 0),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
