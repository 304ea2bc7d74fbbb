//! Differential harness for the bounded three-instance detection mode: on
//! **all nine workloads × every consistency level**, triple-mode verdicts
//! must be a strict superset of pair-mode verdicts — the pair phase runs
//! unchanged inside the triple pass, so every pair anomaly survives and
//! the non-chain projection of the triple verdicts equals the pair oracle
//! exactly — and the whole triple pass must be **byte-identical at 1, 2,
//! and 8 worker threads** (the same serial-merge determinism contract
//! `tests/parallel_determinism.rs` pins for the pair engine).
//!
//! The harness also pins the subsystem's proof of value: the `Relay`
//! chain scenario (`atropos_workloads::relay`) is reported clean by the
//! pair oracle at *every* consistency level, while triple mode finds the
//! relayed causality violation at EC — and correctly refutes it at CC,
//! where the causal-closure axioms seal the observer chain.
//!
//! With the `.T` chain rules in the loop, the harness also carries the
//! **triple-mode repair differential**: on all nine workloads + Relay,
//! the verdict-cached triple-mode repair driver must equal the
//! from-scratch Fig. 10 reference under the default configuration and
//! each chain-rule ablation — and `Relay` must repair to clean at EC
//! (the chain subsystem's success metric).
//!
//! The harness has one sweep, all four levels and every repair ablation
//! row below, in the tier-1 run and in CI's release rerun with
//! `ATROPOS_THREADS=2` alike.

use atropos::detect::{
    detect_anomalies, AnomalyKind, ConsistencyLevel, DetectMode, DetectSession, DetectionEngine,
};
use atropos::repair::{repair_with_config, repair_with_config_scratch, RepairConfig, RepairStep};
use atropos::workloads::benchmark;
use atropos_dsl::print_program;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Chain kinds only the triple templates can produce.
fn is_chain(kind: AnomalyKind) -> bool {
    matches!(
        kind,
        AnomalyKind::ObserverChain | AnomalyKind::WriteSkewCycle | AnomalyKind::FracturedRead
    )
}

fn assert_superset_and_thread_invariance(workload: &str) {
    let b = benchmark(workload).expect("registered benchmark");
    let mut reference: Option<Vec<String>> = None;
    for threads in THREAD_COUNTS {
        let engine = DetectionEngine::new(threads);
        let mut session = DetectSession::new();
        let mut projection = Vec::new();
        for level in ConsistencyLevel::ALL {
            let (triple, stats) =
                engine.detect_with_mode(&b.program, level, DetectMode::Triples, &mut session);
            if threads == THREAD_COUNTS[0] {
                // (a) Superset: every pair verdict survives in triple mode,
                // and the non-chain projection is *exactly* the pair oracle
                // (the triple phase only ever appends chain kinds).
                let pair = detect_anomalies(&b.program, level);
                for p in &pair {
                    assert!(
                        triple.contains(p),
                        "{workload} @ {level}: pair verdict lost in triple mode: {p}"
                    );
                }
                let non_chain: Vec<_> =
                    triple.iter().filter(|p| !is_chain(p.kind)).cloned().collect();
                assert_eq!(
                    non_chain, pair,
                    "{workload} @ {level}: non-chain triple verdicts diverged from the pair oracle"
                );
                let n = b.program.transactions.len() as u64;
                assert_eq!(
                    stats.triples,
                    n * n.saturating_sub(1) * n.saturating_sub(2) / 6,
                    "{workload} @ {level}: every unordered triple of distinct txns is analysed"
                );
            }
            projection.push(format!("{level}: {triple:?}"));
        }
        // (b) Determinism: the whole triple pass is byte-identical at
        // every thread count.
        match &reference {
            None => reference = Some(projection),
            Some(expected) => {
                for (exp, got) in expected.iter().zip(&projection) {
                    assert_eq!(
                        exp, got,
                        "{workload}: triple verdicts diverged at {threads} threads"
                    );
                }
            }
        }
    }
}

macro_rules! triple_vs_pair {
    ($($test:ident => $name:literal),+ $(,)?) => {$(
        #[test]
        fn $test() {
            assert_superset_and_thread_invariance($name);
        }
    )+};
}

// One test per workload so the suite parallelizes across test threads.
triple_vs_pair! {
    tpcc_triples_superset_pairs => "TPC-C",
    seats_triples_superset_pairs => "SEATS",
    courseware_triples_superset_pairs => "Courseware",
    smallbank_triples_superset_pairs => "SmallBank",
    twitter_triples_superset_pairs => "Twitter",
    fmke_triples_superset_pairs => "FMKe",
    sibench_triples_superset_pairs => "SIBench",
    wikipedia_triples_superset_pairs => "Wikipedia",
    killrchat_triples_superset_pairs => "Killrchat",
}

/// The triple-mode repair ablation rows: the default configuration plus
/// one row per chain rule (so each rule's absence is individually pinned),
/// plus `no-merge`, which gates the materialization's collapsing merge.
fn triple_repair_ablations() -> Vec<(&'static str, RepairConfig)> {
    let rows = ["default", "no-merge", "no-materialize", "no-chain-cut"];
    RepairConfig::ablations()
        .into_iter()
        .filter(|(name, _)| rows.contains(name))
        .map(|(name, mut config)| {
            config.mode = DetectMode::Triples;
            (name, config)
        })
        .collect()
}

/// The repair-level sibling of the detection superset harness: with the
/// chain rules enabled, the verdict-cached **triple-mode** repair driver
/// must produce exactly the same repair as the from-scratch Fig. 10
/// reference — same steps, same remaining anomalies, same value
/// correspondences, same ratio, byte-identical repaired program — under
/// the default configuration and each chain-rule ablation.
fn assert_triple_repair_cached_equals_scratch(workload: &str) {
    let b = benchmark(workload).expect("registered benchmark");
    for (config_name, config) in triple_repair_ablations() {
        let cached = repair_with_config(&b.program, &config);
        let scratch = repair_with_config_scratch(&b.program, &config);
        let ctx = format!("{workload} [triples/{config_name}]");
        assert_eq!(cached.initial, scratch.initial, "{ctx}: initial anomalies");
        assert_eq!(cached.steps, scratch.steps, "{ctx}: applied steps");
        assert_eq!(cached.remaining, scratch.remaining, "{ctx}: remaining anomalies");
        assert_eq!(cached.vcs, scratch.vcs, "{ctx}: value correspondences");
        assert_eq!(cached.post, scratch.post, "{ctx}: post-processing report");
        assert!(
            (cached.repair_ratio() - scratch.repair_ratio()).abs() < 1e-12,
            "{ctx}: repair ratio {} vs {}",
            cached.repair_ratio(),
            scratch.repair_ratio()
        );
        assert_eq!(
            print_program(&cached.repaired),
            print_program(&scratch.repaired),
            "{ctx}: repaired programs diverge"
        );
        assert_eq!(scratch.stats.pairs_reused(), 0, "{ctx}");
        assert_eq!(scratch.stats.detections_skipped, 0, "{ctx}");
    }
}

macro_rules! triple_repair_differential {
    ($($test:ident => $name:literal),+ $(,)?) => {$(
        #[test]
        fn $test() {
            assert_triple_repair_cached_equals_scratch($name);
        }
    )+};
}

// One test per workload (plus Relay below) so the suite parallelizes.
triple_repair_differential! {
    tpcc_triple_repair_matches_scratch => "TPC-C",
    seats_triple_repair_matches_scratch => "SEATS",
    courseware_triple_repair_matches_scratch => "Courseware",
    smallbank_triple_repair_matches_scratch => "SmallBank",
    twitter_triple_repair_matches_scratch => "Twitter",
    fmke_triple_repair_matches_scratch => "FMKe",
    sibench_triple_repair_matches_scratch => "SIBench",
    wikipedia_triple_repair_matches_scratch => "Wikipedia",
    killrchat_triple_repair_matches_scratch => "Killrchat",
    relay_triple_repair_matches_scratch => "Relay",
}

/// The tentpole's success metric, end to end on the registered workload:
/// relay materialization repairs `Relay` to clean in triple mode at EC —
/// `repair_ratio == 1.0` under the corrected (clamped, mode-consistent)
/// ratio semantics — while ablating the rule leaves the chain surfaced
/// but unrepaired at ratio 0.
#[test]
fn relay_repairs_to_clean_in_triple_mode_at_ec() {
    let b = benchmark("Relay").expect("chain scenario registered");
    let config = RepairConfig {
        mode: DetectMode::Triples,
        ..RepairConfig::default()
    };
    let report = repair_with_config(&b.program, &config);
    assert_eq!(report.initial.len(), 1, "{:?}", report.initial);
    assert_eq!(report.initial[0].kind, AnomalyKind::ObserverChain);
    assert!(report.remaining.is_empty(), "{:?}", report.remaining);
    assert!((report.repair_ratio() - 1.0).abs() < 1e-12, "{}", report.repair_ratio());
    assert!(
        report.steps.iter().any(|s| matches!(s, RepairStep::Materialize { .. })),
        "{:?}",
        report.steps
    );
    // The repaired program is clean for *both* oracles at EC.
    assert!(detect_anomalies(&report.repaired, ConsistencyLevel::EventualConsistency).is_empty());
    let engine = DetectionEngine::serial();
    let mut session = DetectSession::new();
    let (triples, _) = engine.detect_with_mode(
        &report.repaired,
        ConsistencyLevel::EventualConsistency,
        DetectMode::Triples,
        &mut session,
    );
    assert!(triples.is_empty(), "{triples:?}");

    // Ablation row: without the materialization (and with the chain-cut
    // also off), triple mode degrades to PR 5 — surfaced, not repaired,
    // and the clamped ratio reports zero progress instead of going
    // negative.
    let ablated = RepairConfig {
        mode: DetectMode::Triples,
        enable_materialize: false,
        enable_chain_cut: false,
        ..RepairConfig::default()
    };
    let stalled = repair_with_config(&b.program, &ablated);
    assert_eq!(stalled.remaining.len(), 1);
    assert_eq!(stalled.repair_ratio(), 0.0);
}

/// The proof-of-value regression: a genuine anomaly found in triple mode
/// on a workload the pair oracle reports clean at the same level.
#[test]
fn relay_scenario_is_pair_clean_but_triple_dirty_at_ec() {
    let b = benchmark("Relay").expect("chain scenario registered");
    // Pair mode: clean at every level — the program has no pairwise
    // template instance at all.
    for level in ConsistencyLevel::ALL {
        assert!(
            detect_anomalies(&b.program, level).is_empty(),
            "the pair oracle must be blind to the 3-hop chain at {level}"
        );
    }
    let engine = DetectionEngine::serial();
    let mut session = DetectSession::new();
    // Triple mode at the same level (EC): the observer chain is realizable.
    let (ec, _) = engine.detect_with_mode(
        &b.program,
        ConsistencyLevel::EventualConsistency,
        DetectMode::Triples,
        &mut session,
    );
    assert_eq!(ec.len(), 1, "{ec:?}");
    assert_eq!(ec[0].kind, AnomalyKind::ObserverChain);
    assert!(
        ec[0].witnesses.contains("relay"),
        "the relaying transaction is the chain's witness: {:?}",
        ec[0]
    );
    // Causal consistency closes visibility through the chain: the same
    // triple oracle proves the anomaly unrealizable one level up.
    let (cc, _) = engine.detect_with_mode(
        &b.program,
        ConsistencyLevel::CausalConsistency,
        DetectMode::Triples,
        &mut session,
    );
    assert!(cc.is_empty(), "CC seals the observer chain: {cc:?}");
}
