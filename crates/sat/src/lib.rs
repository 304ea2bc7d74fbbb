//! # atropos-sat
//!
//! A from-scratch CDCL SAT solver.
//!
//! The paper discharges its serializability-anomaly queries with Z3; this
//! workspace grounds the same bounded first-order formulas to propositional
//! logic. The detector decides them by least-model closure, and this
//! solver decides the SAT encoding that the closure is held to (see
//! `atropos-detect`). The crate is self-contained and usable
//! independently:
//!
//! * [`Solver`] — two-watched-literal CDCL with first-UIP learning, VSIDS,
//!   phase saving, Luby restarts, learnt-clause deletion, and incremental
//!   solving under assumptions (`solve_with_assumptions`) with
//!   failed-assumption cores;
//! * [`dimacs`] — DIMACS CNF import/export plus a textual DRAT dump of a
//!   refutation for cross-checking with external tools;
//! * [`proof`] — the DRAT-style [`ProofEvent`]s of a refutation. A solver
//!   built by [`Solver::with_proofs`] keeps a core record and, on UNSAT,
//!   [`Solver::refutation`] names only the input clauses and lemmas the
//!   refutation reaches, from which self-contained UNSAT certificates are
//!   assembled (checked by the independent `atropos_proof` crate).
//!
//! [`Solver`] stores clauses in a flat arena (`[header | len | lits...]`
//! records in one `u32` buffer) and propagates over blocker-literal
//! watcher lists. It is checked by oracles that share none of its code:
//! brute force on small formulas, evaluation of every model against its
//! clauses and assumptions, and the `atropos_proof` RUP checker on every
//! refutation core.
//!
//! # Examples
//!
//! ```
//! use atropos_sat::Solver;
//!
//! // (a ∨ b) ∧ (¬a ∨ b) is satisfied only with b = true.
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([a.positive(), b.positive()]);
//! s.add_clause([a.negative(), b.positive()]);
//! let model = s.solve().model().unwrap().to_vec();
//! assert!(model[b.index()]);
//! // Assuming ¬b refutes it for one call; the solver stays reusable.
//! assert!(!s.solve_with_assumptions(&[b.negative()]).is_sat());
//! assert!(s.solve().is_sat());
//! ```

#![warn(missing_docs)]

pub mod dimacs;
pub mod lit;
pub mod proof;
pub mod solver;

pub use lit::{LBool, Lit, Var};
pub use proof::ProofEvent;
pub use solver::{SolveResult, Solver, SolverStats};
