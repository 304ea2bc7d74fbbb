//! CLOTHO-style differential harness for the detector's decision
//! procedure: for **all nine workloads × all four consistency levels ×
//! every anomaly pattern**, the closure that detection asks must return
//! exactly the same SAT/UNSAT verdict as a freshly constructed solver per
//! query over the reference encoding — and consequently the same witness
//! anomaly sets.

use atropos::detect::{
    detect_anomalies, detect_anomalies_fresh, detect_differential, ConsistencyLevel,
};
use atropos::workloads::all_benchmarks;

/// Every query of every workload, checked verdict-by-verdict: the
/// differential runner answers each pattern query on *both* paths and
/// records any disagreement.
#[test]
fn every_query_agrees_on_all_nine_workloads() {
    for b in all_benchmarks() {
        let report = detect_differential(&b.program, &ConsistencyLevel::ALL);
        assert!(
            report.mismatches.is_empty(),
            "{}: closure vs fresh verdicts diverged:\n{}",
            b.name,
            report.mismatches.join("\n")
        );
        assert!(report.stats.queries > 0, "{}: no queries issued", b.name);
    }
}

/// End-to-end witness equality: the production (closure) oracle and
/// the fresh reference oracle report identical anomaly lists — same
/// pairs, same kinds, same fields, same counts — at every level.
#[test]
fn anomaly_sets_are_identical_on_all_nine_workloads() {
    for b in all_benchmarks() {
        for level in ConsistencyLevel::ALL {
            let incremental = detect_anomalies(&b.program, level);
            let (fresh, _) = detect_anomalies_fresh(&b.program, level);
            assert_eq!(
                incremental, fresh,
                "{} @ {level}: witness anomaly sets diverged",
                b.name
            );
        }
    }
}
