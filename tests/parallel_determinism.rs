//! Thread-count determinism harness for the parallel detection engine: on
//! **all nine workloads**, running detection and the whole engine-driven
//! repair — in the default pair mode *and* the bounded three-instance
//! triple mode — at 1, 2, and 8 worker threads must produce byte-identical
//! verdicts, byte-identical repaired programs, byte-identical decoded
//! witness schedules, and identical `RepairStats` (modulo wall-clock
//! seconds, the one field that legitimately varies).
//!
//! Determinism is by construction — pair solving is per-pair independent
//! and the engine merges outcomes in the serial pair order, not completion
//! order — and this suite pins that construction against regressions
//! (e.g. a completion-order fold or a worker-dependent stat). The serial
//! 1-thread run doubles as the ground truth: it is exactly the PR 3
//! cached driver, itself proven equal to the from-scratch Fig. 10
//! reference by `tests/repair_incremental_vs_scratch.rs`.

use atropos::detect::{
    decode_witness, detect_anomalies, ConsistencyLevel, DetectMode, DetectSession,
    DetectionEngine,
};
use atropos::repair::{repair_with_engine, RepairConfig, RepairReport, RepairStats};
use atropos::workloads::benchmark;
use atropos_dsl::print_program;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// `RepairStats` rendered with every wall-clock field zeroed: the
/// byte-comparable projection two runs must agree on.
fn stats_fingerprint(stats: &RepairStats) -> String {
    let mut s = stats.clone();
    for it in &mut s.iterations {
        it.seconds = 0.0;
    }
    format!("{s:?}")
}

fn assert_thread_count_invariant(workload: &str) {
    let b = benchmark(workload).expect("registered benchmark");
    let config = RepairConfig::default();
    let mut reference: Option<(Vec<String>, RepairReport)> = None;
    for threads in THREAD_COUNTS {
        let engine = DetectionEngine::new(threads);
        assert_eq!(engine.threads(), threads);

        // Raw detection: byte-identical verdicts at every level.
        let mut session = DetectSession::new();
        for level in ConsistencyLevel::ALL {
            let (got, _) =
                engine.detect_with_mode(&b.program, level, DetectMode::Pairs, &mut session);
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", detect_anomalies(&b.program, level)),
                "{workload} @ {level} with {threads} threads: verdicts diverged"
            );
        }

        // Whole repair run: identical verdicts, program, steps, and stats.
        let mut session = DetectSession::new();
        let report = repair_with_engine(&b.program, &config, &engine, &mut session);
        // And the same invariant for the triple-mode repair loop: the
        // engine's triple phase merges in the serial triple order, so the
        // chain verdicts (and everything downstream) are equally
        // thread-count blind.
        let triple_config = RepairConfig {
            mode: DetectMode::Triples,
            ..RepairConfig::default()
        };
        let mut triple_session = DetectSession::new();
        let triple_report =
            repair_with_engine(&b.program, &triple_config, &engine, &mut triple_session);
        // Witness replay rides the same invariant: every initial verdict
        // must decode to a byte-identical concrete schedule regardless of
        // how many workers produced the verdict (the decoder re-solves on
        // a fresh deterministic solver, so this pins both ends). The
        // triple-mode projection covers the chain kinds.
        let schedules: Vec<String> = report
            .initial
            .iter()
            .chain(&triple_report.initial)
            .map(|v| format!("{:?}", decode_witness(&b.program, v, config.level)))
            .collect();
        let projection = vec![
            format!("{schedules:?}"),
            format!("{:?}", report.initial),
            format!("{:?}", report.remaining),
            format!("{:?}", report.steps),
            format!("{:?}", report.vcs),
            format!("{:?}", report.post),
            print_program(&report.repaired),
            stats_fingerprint(&report.stats),
            format!("{:?}", triple_report.initial),
            format!("{:?}", triple_report.remaining),
            format!("{:?}", triple_report.steps),
            format!("{:?}", triple_report.vcs),
            print_program(&triple_report.repaired),
            stats_fingerprint(&triple_report.stats),
        ];
        match &reference {
            None => reference = Some((projection, report)),
            Some((expected, _)) => {
                let fields = [
                    "decoded witness schedules",
                    "initial anomalies",
                    "remaining anomalies",
                    "steps",
                    "value correspondences",
                    "post-processing",
                    "repaired program",
                    "repair stats",
                    "triple-mode initial anomalies",
                    "triple-mode remaining anomalies",
                    "triple-mode steps",
                    "triple-mode value correspondences",
                    "triple-mode repaired program",
                    "triple-mode repair stats",
                ];
                for ((exp, got), field) in expected.iter().zip(&projection).zip(fields) {
                    assert_eq!(
                        exp, got,
                        "{workload}: {field} diverged at {threads} threads"
                    );
                }
            }
        }
    }
}

macro_rules! deterministic {
    ($($test:ident => $name:literal),+ $(,)?) => {$(
        #[test]
        fn $test() {
            assert_thread_count_invariant($name);
        }
    )+};
}

// One test per workload so the suite parallelizes across test threads.
deterministic! {
    tpcc_is_thread_count_invariant => "TPC-C",
    seats_is_thread_count_invariant => "SEATS",
    courseware_is_thread_count_invariant => "Courseware",
    smallbank_is_thread_count_invariant => "SmallBank",
    twitter_is_thread_count_invariant => "Twitter",
    fmke_is_thread_count_invariant => "FMKe",
    sibench_is_thread_count_invariant => "SIBench",
    wikipedia_is_thread_count_invariant => "Wikipedia",
    killrchat_is_thread_count_invariant => "Killrchat",
}
