//! End-to-end integration tests: parse → detect → repair → re-detect over
//! the real benchmarks, mirroring the paper's headline claims.

use atropos::prelude::*;
use atropos::workloads::all_benchmarks;

#[test]
fn every_benchmark_repairs_without_regressions() {
    for b in all_benchmarks() {
        let report = repair_program(&b.program, ConsistencyLevel::EventualConsistency);
        assert!(
            report.remaining.len() <= report.initial.len(),
            "{}: repair must never add anomalies ({} -> {})",
            b.name,
            report.initial.len(),
            report.remaining.len()
        );
        // The repaired program is still a well-formed program.
        check_program(&report.repaired)
            .unwrap_or_else(|e| panic!("{}: repaired program ill-typed: {e}", b.name));
        // Transaction names survive refactoring (clients keep their API).
        for t in &b.program.transactions {
            assert!(
                report.repaired.transaction(&t.name).is_some(),
                "{}: transaction {} disappeared",
                b.name,
                t.name
            );
        }
    }
}

#[test]
fn at_least_half_of_all_anomalies_are_repaired() {
    // §7.1: "Atropos was able to repair at least half the anomalies" per
    // benchmark, and 74% on average. We check the aggregate claim.
    let (mut total, mut fixed) = (0usize, 0usize);
    for b in all_benchmarks() {
        let report = repair_program(&b.program, ConsistencyLevel::EventualConsistency);
        total += report.initial.len();
        fixed += report.initial.len() - report.remaining.len();
    }
    assert!(total > 0);
    let ratio = fixed as f64 / total as f64;
    assert!(ratio >= 0.5, "only {:.0}% of anomalies repaired", ratio * 100.0);
}

#[test]
fn serializable_marking_silences_the_remaining_anomalies() {
    // The AT-SC configuration is provably safe: marking the still-anomalous
    // transactions serializable leaves nothing behind. Every pair finding
    // names both members of its pair (a lost update anchors in each; a read
    // anomaly names the partner as witness), so a marked pass could only
    // report a pair with an unmarked member. It suffices that the repaired
    // program's anomalies are exactly `remaining`, and that every
    // transaction they name is marked.
    for b in all_benchmarks() {
        let ec = ConsistencyLevel::EventualConsistency;
        let report = repair_program(&b.program, ec);
        let mut redetected = detect_anomalies(&report.repaired, ec);
        redetected.sort();
        assert_eq!(
            redetected, report.remaining,
            "{}: remaining diverged",
            b.name
        );
        let marked = report.unsafe_transactions();
        for p in &report.remaining {
            for t in [&p.txn1, &p.txn2].into_iter().chain(&p.witnesses) {
                assert!(marked.contains(t), "{}: {t} of {p} is not marked", b.name);
            }
        }
    }
}

#[test]
fn stronger_isolation_levels_differentiate() {
    // RR ≤ EC and CC ≤ EC everywhere; SC is anomaly-free; and the levels
    // genuinely differ — CC must count *strictly fewer* anomalies than EC
    // on at least one benchmark (the causal session axioms prune
    // non-monotonic reads; Table 1's CC column must not collapse into EC).
    let mut cc_strictly_below_ec = 0usize;
    for b in all_benchmarks() {
        let [ec, cc, rr, sc] = ConsistencyLevel::ALL.map(|l| detect_anomalies(&b.program, l).len());
        assert!(cc <= ec, "{}: CC {} > EC {}", b.name, cc, ec);
        assert!(rr <= ec, "{}: RR {} > EC {}", b.name, rr, ec);
        assert_eq!(sc, 0, "{}: serializability must be anomaly-free", b.name);
        cc_strictly_below_ec += usize::from(cc < ec);
    }
    assert!(
        cc_strictly_below_ec >= 1,
        "causal consistency must strictly prune EC's anomaly set somewhere"
    );
}

#[test]
fn printed_benchmarks_round_trip() {
    for b in all_benchmarks() {
        let text = print_program(&b.program);
        let back = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(back, b.program, "{} round trip", b.name);
    }
}
