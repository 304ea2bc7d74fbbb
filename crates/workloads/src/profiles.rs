//! Deriving simulator workloads from DSL programs.
//!
//! Each database command of a transaction becomes one abstract
//! [`OpProfile`]: its kind from the command kind, its CPU weight from the
//! number of fields it touches, and its key distribution from the command's
//! canonical key expression — commands sharing a key expression within one
//! transaction access the *same* record (`KeyDist::SameAs`), which is what
//! creates lock contention under serializable execution. This derivation is
//! applied uniformly to original and refactored programs, so performance
//! comparisons reflect exactly the schema changes Atropos made.

use std::collections::BTreeMap;

use atropos_detect::{summarize_txn, CmdKind, KeySpec};
use atropos_dsl::Program;
use atropos_sim::{KeyDist, OpKind, OpProfile, TxnProfile, Workload};

/// Rows in each table's key space.
const ROWS: u64 = 1_000;
/// Probability that a keyed access goes to the hot set.
const HOT_PROB: f64 = 0.5;
/// Fraction of each key space that is hot.
const HOT_FRACTION: f64 = 0.1;
/// Read amplification of aggregation scans over repair-introduced logging
/// tables (`*_LOG`).
const LOG_SCAN_FACTOR: f64 = 1.15;

/// Derives a simulator workload from a program and a transaction mix.
/// Transactions absent from the mix are skipped; mix entries without a
/// matching transaction are ignored (they may have been renamed away by a
/// refactoring — the caller should keep names stable).
pub fn derive_workload(program: &Program, mix: &[(&str, f64)]) -> Workload {
    let mut txns = Vec::new();
    for (name, weight) in mix {
        let Some(txn) = program.transaction(name) else {
            continue;
        };
        let summary = summarize_txn(program, txn);
        let mut ops: Vec<OpProfile> = Vec::new();
        let mut key_of_expr: BTreeMap<String, usize> = BTreeMap::new();
        for cmd in &summary.commands {
            let kind = match cmd.kind {
                CmdKind::Select => OpKind::Read,
                CmdKind::Update | CmdKind::Delete => OpKind::Write,
                CmdKind::Insert => {
                    if cmd.key == KeySpec::Fresh {
                        OpKind::InsertFresh
                    } else {
                        OpKind::Write
                    }
                }
            };
            let fields = match cmd.kind {
                CmdKind::Select => cmd.reads.len().max(1) as u32,
                _ => cmd.writes.len().max(1) as u32,
            };
            let scan_factor = if cmd.kind == CmdKind::Select && cmd.schema.ends_with("_LOG") {
                LOG_SCAN_FACTOR
            } else {
                1.0
            };
            let key = match &cmd.key {
                KeySpec::Fresh => KeyDist::Uniform(1 << 30),
                KeySpec::Scan => {
                    // Partial-key scans (e.g. log aggregations) still target
                    // one logical entity; approximate with a uniform key.
                    KeyDist::Uniform(ROWS)
                }
                KeySpec::Keyed { key, .. } => match key_of_expr.get(key) {
                    Some(&idx) => KeyDist::SameAs(idx),
                    None => {
                        key_of_expr.insert(key.clone(), ops.len());
                        KeyDist::HotSpot {
                            n: ROWS,
                            hot_fraction: HOT_FRACTION,
                            hot_prob: HOT_PROB,
                        }
                    }
                },
            };
            ops.push(OpProfile {
                table: cmd.schema.clone(),
                kind,
                key,
                fields,
                scan_factor,
            });
        }
        txns.push(TxnProfile {
            name: (*name).to_owned(),
            weight: *weight,
            serializable: false,
            ops,
        });
    }
    Workload::new(txns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallbank_profiles_share_keys_within_txn() {
        let p = crate::smallbank::program();
        let w = derive_workload(&p, &crate::smallbank::mix());
        let dep = w
            .txns
            .iter()
            .find(|t| t.name == "depositChecking")
            .unwrap();
        assert_eq!(dep.ops.len(), 2);
        assert_eq!(dep.ops[1].key, KeyDist::SameAs(0));
        assert_eq!(dep.ops[0].kind, OpKind::Read);
        assert_eq!(dep.ops[1].kind, OpKind::Write);
    }

    #[test]
    fn refactored_program_profiles_use_log_scans() {
        let p = crate::sibench::program();
        let report = atropos_core::repair_program(
            &p,
            atropos_detect::ConsistencyLevel::EventualConsistency,
        );
        let w = derive_workload(&report.repaired, &crate::sibench::mix());
        let reader = w.txns.iter().find(|t| t.name == "readItem").unwrap();
        assert!(
            reader.ops.iter().any(|o| o.scan_factor > 1.0),
            "expected a log-scan read: {reader:?}"
        );
    }

    #[test]
    fn fresh_inserts_map_to_insert_fresh() {
        let p = crate::twitter::program();
        let w = derive_workload(&p, &crate::twitter::mix());
        let post = w.txns.iter().find(|t| t.name == "postTweet").unwrap();
        assert_eq!(post.ops[0].kind, OpKind::InsertFresh);
    }
}
