//! # atropos-core
//!
//! The Atropos refactoring engine: value-correspondence-driven program
//! rewriting and the oracle-guided repair algorithm of *Repairing
//! Serializability Bugs in Distributed Database Programs via Automated
//! Schema Refactoring* (PLDI 2021).
//!
//! * [`rewrite`] — the `⟦·⟧_v` rewrite function: the **redirect** and
//!   **logger** rule instantiations of `intro v`;
//! * [`merge`] — `try_merging`: fusing commands into single-row atomic ops;
//! * [`chain`] — the `.T` chain rules for triple-mode anomalies:
//!   **relay materialization** and the **chain-cut merge**;
//! * [`dce`] — post-processing (dead selects, final merges, obsolete
//!   tables);
//! * [`repair`] — the Fig. 10 driver made near-incremental and parallel:
//!   preprocessing splits, per-anomaly `try_repair`, post-processing, and
//!   detection through an [`atropos_detect::DetectionEngine`] against an
//!   [`atropos_detect::DetectSession`] — so each step only re-solves the
//!   pairs it dirtied (on the engine's workers), a pass runs only after a
//!   step that changed detection's view of the program, a session shared
//!   across runs ([`repair_with_engine`], [`ablation_sweep`]) answers
//!   common transaction shapes from warm verdicts, and the
//!   [`RepairReport`] carries per-iteration [`RepairStats`];
//! * [`random_search`] — the random-refactoring baseline of Fig. 16.
//!
//! The rules walk programs only through `atropos_dsl`'s tree operations
//! (statement walks, flattened commands, expression visits and rewrites,
//! variable use and renaming, field sets, label lookup).
//!
//! # Examples
//!
//! ```
//! use atropos_core::repair_program;
//! use atropos_detect::ConsistencyLevel;
//!
//! let program = atropos_dsl::parse(
//!     "schema C { id: int key, cnt: int }
//!      txn bump(k: int) {
//!          x := select cnt from C where id = k;
//!          update C set cnt = x.cnt + 1 where id = k;
//!          return 0;
//!      }",
//! ).unwrap();
//! let report = repair_program(&program, ConsistencyLevel::EventualConsistency);
//! assert!(report.remaining.is_empty());
//! assert!(report.repaired.schema("C_CNT_LOG").is_some());
//! ```

#![warn(missing_docs)]

pub mod chain;
pub mod dce;
pub mod merge;
pub mod random_search;
pub mod repair;
pub mod rewrite;

pub use chain::{chain_cut, materialize_relay};
pub use dce::{post_process, PostProcessReport};
pub use merge::try_merging;
pub use random_search::{random_refactor, random_refactor_with_session, RandomSearchOutcome};
pub use repair::{
    ablation_sweep, repair_program, repair_with_config, repair_with_config_scratch,
    repair_with_engine, RepairConfig, RepairIteration, RepairReport, RepairStats, RepairStep,
};

// The detection bound is part of the repair configuration surface
// ([`RepairConfig::mode`]); re-exported so callers need not depend on
// `atropos_detect` directly to opt into triple mode.
pub use atropos_detect::DetectMode;
pub use rewrite::{apply_logging, apply_redirect, fresh_field_name};
