//! # atropos-dsl
//!
//! Front-end for the database-program DSL of *Repairing Serializability Bugs
//! in Distributed Database Programs via Automated Schema Refactoring*
//! (PLDI 2021), Fig. 5.
//!
//! A program is a set of relational [`Schema`]s plus a set of
//! [`Transaction`]s whose bodies mix database commands (`SELECT`, `UPDATE`,
//! `INSERT`, `DELETE`) with bounded control flow (`if`, `iterate`). The crate
//! provides:
//!
//! * the [`ast`] module — the abstract syntax tree and the operations
//!   every other crate walks it with: pre-order statement walks
//!   ([`visit_stmts`], [`visit_stmts_mut`]), a transaction's flattened
//!   commands ([`Transaction::commands`]), each statement's own
//!   expressions ([`Stmt::exprs`], [`Stmt::exprs_mut`]) and their rewrite
//!   ([`Transaction::rewrite_exprs`]), variable use and renaming
//!   ([`Transaction::uses_var`], [`Transaction::rename_var`]), the fields
//!   a command touches on a schema ([`Stmt::fields_touched`]), label
//!   lookup ([`Program::command`]) and in-place edits
//!   ([`Transaction::retain_commands`], [`Transaction::splice_after`]);
//! * [`parse`] — a recursive-descent parser for the textual surface
//!   syntax. Its lexer's tokens borrow identifiers and labels from the
//!   source ([`lexer::Token`]), and the parser moves each token out as it
//!   consumes it, so a name is copied once, into the tree;
//! * [`print_program`] — a canonical pretty-printer (round-trips with
//!   [`parse`], string literals included);
//! * [`check_program`] — name resolution and type checking. It returns
//!   `()` or the first error, keying its scopes by names borrowed from the
//!   program.
//!
//! # Command-label grammar
//!
//! Commands may carry a `@label` annotation, referenced by the detector's
//! access pairs and the repair engine's steps:
//!
//! ```text
//! label   ::= segment ("." segment)*
//! segment ::= [A-Za-z0-9_]+
//! ```
//!
//! Every dot-separated segment must be non-empty — `@`, `@.L`, `@S1.`,
//! and `@S1..L` are lexing errors. The suffix namespace after the first
//! dot is **reserved for the repair engine**, which derives labels from
//! the command it refactors: splitting `@S1` appends a 1-based part index
//! (`@S1.1`, `@S1.2`, …) and logging rewrites append the literal `L`
//! segment (`@S1.L`). Within that reserved namespace the literal `T`
//! segment (`@S1.T`) belongs to the **triple detection mode's chain
//! rules**: relay materialization and chain-cut merge
//! (`atropos_core::chain`) mint their rewritten commands under `.T`
//! (`@W2.T`, `@R3.T`) so a repaired program records which commands the
//! three-instance pass produced — neither hand-written programs nor
//! pair-mode rewrites may use it. Hand-written programs should therefore
//! use dot-free labels; derived labels survive a print/parse round trip
//! like any other.
//!
//! # Examples
//!
//! ```
//! use atropos_dsl::{parse, check_program, print_program};
//!
//! let src = r#"
//!     schema ACCOUNT { acc_id: int key, balance: int }
//!     txn deposit(id: int, amount: int) {
//!         x := select balance from ACCOUNT where acc_id = id;
//!         update ACCOUNT set balance = x.balance + amount where acc_id = id;
//!         return x.balance;
//!     }
//! "#;
//! let program = parse(src)?;
//! check_program(&program)?;
//! let printed = print_program(&program);
//! assert_eq!(parse(&printed)?, program);
//! # Ok::<(), atropos_dsl::DslError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod resolve;

pub use ast::{
    visit_stmts, visit_stmts_mut, AggOp, BinOp, BoolOp, CmdLabel, CmpOp, DeleteCmd, Expr,
    FieldDecl, InsertCmd, Param, Program, Schema, SelectCmd, Stmt, Transaction, Ty, UpdateCmd,
    Value, Where, ALIVE_FIELD,
};
pub use error::{DslError, Span};
pub use parser::parse;
pub use printer::{print_expr, print_program, print_where};
pub use resolve::check_program;
