//! # atropos-sat
//!
//! A from-scratch CDCL SAT solver plus CNF construction utilities.
//!
//! The paper discharges its serializability-anomaly queries with Z3; this
//! workspace grounds the same bounded first-order formulas to propositional
//! logic and decides them with this solver (see `atropos-detect`). The crate
//! is self-contained and usable independently:
//!
//! * [`Solver`] — two-watched-literal CDCL with first-UIP learning, VSIDS,
//!   phase saving, Luby restarts, learnt-clause deletion, and incremental
//!   solving under assumptions (`solve_with_assumptions`) with
//!   failed-assumption cores — the detector keeps one solver per
//!   transaction pair and dispatches every anomaly query via assumptions;
//! * [`CnfBuilder`] — fresh variables, raw clauses, Tseitin gates
//!   (`and`/`or`/`iff`/`implies`) and cardinality constraints;
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
//! watcher lists; [`mod@reference`] retains the previous `Vec<Clause>`
//! implementation, with its cumulative proof log, as a
//! differential-testing oracle and throughput baseline.
//!
//! # Examples
//!
//! ```
//! use atropos_sat::{CnfBuilder};
//!
//! // (a ∨ b) ∧ (¬a ∨ b) is satisfied only with b = true.
//! let mut f = CnfBuilder::new();
//! let a = f.fresh();
//! let b = f.fresh();
//! f.clause([a, b]);
//! f.clause([!a, b]);
//! let model = f.solve().model().unwrap().to_vec();
//! assert!(model[b.var().index()]);
//! ```

#![warn(missing_docs)]

pub mod cnf;
pub mod dimacs;
pub mod lit;
pub mod proof;
pub mod reference;
pub mod solver;

pub use cnf::CnfBuilder;
pub use lit::{LBool, Lit, Var};
pub use proof::ProofEvent;
pub use solver::{SolveResult, Solver, SolverStats};
