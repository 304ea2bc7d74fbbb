//! # atropos-sat
//!
//! The reference SAT solver the detector's closure is held to.
//!
//! The paper discharges its serializability-anomaly queries with Z3; this
//! workspace grounds the same bounded first-order formulas to propositional
//! logic. The detector decides them by least-model closure (see
//! `atropos-detect`). The tests, and `table1`'s fresh timing, decide the
//! same encoding with this crate's [`Solver`], one fresh solver per query,
//! and demand the same answers. No pipeline stage runs it.
//!
//! [`Solver`] propagates units over two watched literals, branches on the
//! lowest-index unassigned variable with the false phase first, and
//! backtracks chronologically; it learns nothing. It is complete on any
//! CNF, and it is held by oracles that share none of its code: brute force
//! on small formulas and the evaluation of every model against its
//! clauses.
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
//! // A unit ¬b refutes it, and the solver says so from then on.
//! s.add_clause([b.negative()]);
//! assert!(!s.solve().is_sat());
//! ```

#![warn(missing_docs)]

pub mod lit;
pub mod solver;

pub use lit::{LBool, Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};
