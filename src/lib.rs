//! # atropos
//!
//! Facade crate for the Atropos reproduction: automated schema refactoring
//! that repairs serializability bugs in distributed database programs
//! (Rahmani, Nagar, Delaware, Jagannathan — PLDI 2021).
//!
//! This crate re-exports the whole workspace under one roof:
//!
//! * [`dsl`] — the database-program language (AST, parser, printer, checker);
//! * [`sat`] — the reference SAT solver that the tests decide the anomaly
//!   encoding with, to hold the detector's closure to it;
//! * [`semantics`] — the weakly-isolated operational semantics and history
//!   checker;
//! * [`detect`] — the static serializability-anomaly detector;
//! * [`repair`] — value correspondences, refactoring rules, and the repair
//!   algorithm;
//! * [`sim`] — the geo-replicated store simulator used for the performance
//!   experiments;
//! * [`workloads`] — the nine OLTP benchmarks of the paper's evaluation.
//!
//! # Examples
//!
//! Repair the course-management program from Fig. 1 of the paper:
//!
//! ```
//! use atropos::prelude::*;
//!
//! let program = atropos::workloads::courseware::program();
//! let report = repair_program(&program, ConsistencyLevel::EventualConsistency);
//! assert!(report.remaining.len() <= report.initial.len());
//! ```

pub use atropos_core as repair;
pub use atropos_detect as detect;
pub use atropos_dsl as dsl;
pub use atropos_sat as sat;
pub use atropos_semantics as semantics;
pub use atropos_sim as sim;
pub use atropos_workloads as workloads;

/// Convenience re-exports covering the common entry points.
pub mod prelude {
    pub use atropos_core::{repair_program, RepairConfig, RepairReport};
    pub use atropos_detect::{detect_anomalies, AccessPair, ConsistencyLevel};
    pub use atropos_dsl::{check_program, parse, print_program, Program};
}
