//! The proof-subsystem acceptance harness: across all nine Table 1
//! workloads plus the Relay chain scenario, every UNSAT verdict of the
//! certificate sweep (pair mode at EC and CC, triple mode at EC) must
//! yield a certificate the independent `atropos_proof` checker accepts —
//! and the banked certificates must be byte-identical at 1, 2, and 8
//! engine threads, because the engine merges worker outcomes in
//! deterministic plan order and each solver's core depends only on its
//! own query schedule. A wider sweep over every level pins that each
//! certificate carries only its refutation's core: dropping any one of
//! its input clauses makes the checker reject it.

use atropos_detect::{ConsistencyLevel, DetectMode, DetectSession, DetectionEngine};
use atropos_proof::{check, check_blob, Proof, Step};
use atropos_workloads::{all_benchmarks, chain_scenarios, Benchmark};

const SWEEP: [(ConsistencyLevel, DetectMode); 3] = [
    (ConsistencyLevel::EventualConsistency, DetectMode::Pairs),
    (ConsistencyLevel::CausalConsistency, DetectMode::Pairs),
    (ConsistencyLevel::EventualConsistency, DetectMode::Triples),
];

/// Every level the repair loop asks about, pairs and triples: the sweep
/// the core test covers. SER is where clean verdicts rest on refutations.
const CORE_SWEEP: [(ConsistencyLevel, DetectMode); 7] = [
    (ConsistencyLevel::EventualConsistency, DetectMode::Pairs),
    (ConsistencyLevel::CausalConsistency, DetectMode::Pairs),
    (ConsistencyLevel::RepeatableRead, DetectMode::Pairs),
    (ConsistencyLevel::Serializable, DetectMode::Pairs),
    (ConsistencyLevel::EventualConsistency, DetectMode::Triples),
    (ConsistencyLevel::CausalConsistency, DetectMode::Triples),
    (ConsistencyLevel::Serializable, DetectMode::Triples),
];

fn benchmarks() -> Vec<Benchmark> {
    all_benchmarks().into_iter().chain(chain_scenarios()).collect()
}

/// One full sweep through a fresh engine and session; returns the banked
/// certificates (sorted cache-key order) and the sweep's UNSAT total.
fn sweep(b: &Benchmark, threads: usize) -> (Vec<Vec<u8>>, u64) {
    sweep_passes(b, threads, &SWEEP)
}

fn sweep_passes(
    b: &Benchmark,
    threads: usize,
    passes: &[(ConsistencyLevel, DetectMode)],
) -> (Vec<Vec<u8>>, u64) {
    let engine = DetectionEngine::new(threads).with_proofs(true);
    let mut session = DetectSession::new();
    let mut unsat = 0u64;
    for &(level, mode) in passes {
        let (_, stats) = engine.detect_with_mode(&b.program, level, mode, &mut session);
        unsat += stats.queries - stats.sat_queries;
    }
    (session.proof_blobs(), unsat)
}

#[test]
fn every_unsat_verdict_yields_a_checking_certificate() {
    let mut total = 0usize;
    for b in &benchmarks() {
        let (blobs, unsat) = sweep(b, 1);
        assert_eq!(
            blobs.len() as u64,
            unsat,
            "{}: every UNSAT answer must bank exactly one certificate",
            b.name
        );
        for (i, blob) in blobs.iter().enumerate() {
            let report = check_blob(blob)
                .unwrap_or_else(|e| panic!("{}: certificate {i} rejected: {e}", b.name));
            assert!(report.rup_checks > 0, "{}: certificate {i} proved nothing", b.name);
        }
        total += blobs.len();
    }
    assert!(total > 0, "the sweep must refute something somewhere");
}

#[test]
fn certificates_are_byte_identical_across_thread_counts() {
    for b in &benchmarks() {
        let (baseline, _) = sweep(b, 1);
        for threads in [2usize, 8] {
            let (blobs, _) = sweep(b, threads);
            assert_eq!(
                blobs, baseline,
                "{}: certificates diverge at {threads} threads",
                b.name
            );
        }
    }
}

#[test]
fn every_core_input_is_load_bearing() {
    let (mut certificates, mut mutants) = (0usize, 0usize);
    for b in &benchmarks() {
        let (blobs, unsat) = sweep_passes(b, 1, &CORE_SWEEP);
        assert_eq!(
            blobs.len() as u64,
            unsat,
            "{}: every UNSAT answer must bank exactly one certificate",
            b.name
        );
        for (i, blob) in blobs.iter().enumerate() {
            check_blob(blob)
                .unwrap_or_else(|e| panic!("{}: certificate {i} rejected: {e}", b.name));
            let proof = Proof::decode(blob).expect("a checked blob decodes");
            for (j, step) in proof.steps.iter().enumerate() {
                if !matches!(step, Step::Input(_)) {
                    continue;
                }
                let mut mutant = proof.clone();
                mutant.steps.remove(j);
                assert!(
                    check(&mutant).is_err(),
                    "{}: certificate {i} still checks without its input step {j}",
                    b.name
                );
                mutants += 1;
            }
        }
        certificates += blobs.len();
    }
    assert!(
        certificates > 0 && mutants >= certificates,
        "{certificates} certificates, {mutants} mutants"
    );
}
